"""Spans around the layer functions of hicp, recorded from outside the
package by wrapping module attributes.

A wrapped function records one span per call: name, start, end, parent
span and op id (one op per CLI command).  Spans stay in memory and are
written out when the batch ends.  Functions called tens of thousands of
times per command where only the call count is wanted get a counting
wrapper instead of a span.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# module -> functions that get a span
SPANNED = {
    "solver": ["solve", "hessian_U", "grad_U", "reference_coords",
               "extract_angles"],
    "geometry": ["tetra_angles", "triangle_angles", "in_te", "psi_surface",
                 "psi_inv_surface", "project_gauge"],
    "complexes": ["admissible_domains", "hat_complex", "boundary_counts",
                  "build_complex", "triangulate"],
    "polytope": ["check_feasibility", "domain_inequality"],
    "fixtures": ["reference_pattern"],
    "layout": ["develop", "merge_redundant", "layout_to_dict",
               "delaunay_report", "gauss_bonnet_check", "export_svg",
               "export_json"],
    "cli": ["load_input", "_emit"],
}
# module -> functions that are only counted
COUNTED = {
    "complexes": ["make_domain"],
    "polytope": ["single_star_check"],
}
LINALG = ["solve", "qr", "norm"]

# the file a call writes, by span name and argument position
WRITES = {"layout.export_svg": 1, "layout.export_json": 1, "cli._emit": 1}


class Tracer:
    def __init__(self):
        self.names = []  # name id -> name
        self._ids = {}
        self.name = []  # per span
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.extra = {}  # span index -> dict
        self.counts = {}
        self._stack = [-1]
        self._op = -1
        self._patched = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, name):
        self._op += 1
        return self._open(name)

    def end_op(self, i):
        self._close(i)

    def spanned(self, name, fn):
        tr = self
        pos = WRITES.get(name)

        def wrapper(*args, **kwargs):
            i = tr._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tr._close(i)
                tr.extra[i] = {"error": 1, "exception": type(exc).__name__}
                raise
            tr._close(i)
            tr._annotate(name, i, args, kwargs, out, pos)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _annotate(self, name, i, args, kwargs, out, pos):
        if pos is not None:
            path = args[pos] if len(args) > pos else kwargs.get("path")
            if path:
                self.extra[i] = {"bytes": os.path.getsize(path)}
        elif name == "complexes.admissible_domains":
            self.extra[i] = {"kept": len(out)}
        elif name == "solver.solve":
            self.extra[i] = {"iterations": out.iterations,
                             "accepted": sum(1 for row in out.trace
                                             if row[2] > 0)}

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap the listed functions in every hicp namespace that binds
        them (``hicp.cli`` and ``hicp.polytope`` bind imported names at
        import time) and the numpy.linalg routines the solver calls.
        The package must be imported already."""
        mods = [m for k, m in sys.modules.items()
                if k == "hicp" or k.startswith("hicp.")]
        wrappers = {}
        for short, names in SPANNED.items():
            mod = sys.modules[f"hicp.{short}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self.spanned(f"{short}.{fn_name}",
                                                     fn))
        for short, names in COUNTED.items():
            mod = sys.modules[f"hicp.{short}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self.counted(f"{short}.{fn_name}",
                                                     fn))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        for fn_name in LINALG:
            fn = getattr(np.linalg, fn_name)
            setattr(np.linalg, fn_name,
                    self.spanned(f"numpy.linalg.{fn_name}", fn))
            self._patched.append((np.linalg, fn_name, fn))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched = []

    # -- output -----------------------------------------------------------

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 op=np.array(self.op, dtype=np.int32))


def layer_metrics(tr):
    """Per-layer metrics of a traced batch: inclusive time (outermost
    spans of a name only), self time, call counts and the ratios the
    benchmark names."""
    n = len(tr.name)
    names = tr.names
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    nested = [False] * n  # inside another span of the same name
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
            q = p
            while q >= 0:
                if tr.name[q] == tr.name[i]:
                    nested[i] = True
                    break
                q = tr.parent[q]
    calls, incl, self_s = {}, {}, {}
    by_parent = {}
    for i in range(n):
        nm = names[tr.name[i]]
        calls[nm] = calls.get(nm, 0) + 1
        if not nested[i]:
            incl[nm] = incl.get(nm, 0.0) + dur[i]
        self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
        p = tr.parent[i]
        key = (nm, names[tr.name[p]] if p >= 0 else None)
        c, s = by_parent.get(key, (0, 0.0))
        by_parent[key] = (c + 1, s + dur[i])

    def count(nm):
        return calls.get(nm, 0) + tr.counts.get(nm, 0)

    def extra_sum(nm, key):
        nid = tr._ids.get(nm)
        return sum(x.get(key, 0) for i, x in tr.extra.items()
                   if tr.name[i] == nid)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(key, value, unit):
        m[key] = (value, unit)

    g_h = by_parent.get(("solver.grad_U", "solver.hessian_U"), (0, 0.0))
    g_s = by_parent.get(("solver.grad_U", "solver.solve"), (0, 0.0))
    trials = by_parent.get(("geometry.in_te", "solver.solve"), (0, 0.0))[0]
    linsolve = sum(by_parent.get((f"numpy.linalg.{f}", "solver.solve"),
                                 (0, 0.0))[1] for f in LINALG)
    put("solver.hessian_U.calls", count("solver.hessian_U"), "count")
    put("solver.hessian_U.self_s", self_s.get("solver.hessian_U", 0.0), "s")
    put("solver.grad_U.calls", count("solver.grad_U"), "count")
    put("solver.grad_U.hessian.calls", g_h[0], "count")
    put("solver.grad_U.hessian.s", g_h[1], "s")
    put("solver.grad_U.search.calls", g_s[0], "count")
    put("solver.grad_U.search.s", g_s[1], "s")
    put("solver.linsolve.s", linsolve, "s")
    put("solver.iterations", extra_sum("solver.solve", "iterations"),
        "count")
    put("solver.step_accept_ratio",
        ratio(extra_sum("solver.solve", "accepted"), trials), "ratio")
    for nm in ("solver.hessian_U", "solver.reference_coords",
               "solver.extract_angles"):
        put(f"{nm}.s", incl.get(nm, 0.0), "s")
    for nm in ("geometry.tetra_angles", "geometry.triangle_angles",
               "geometry.in_te", "complexes.boundary_counts",
               "polytope.domain_inequality"):
        put(f"{nm}.calls", count(nm), "count")
        put(f"{nm}.s", incl.get(nm, 0.0), "s")
    for nm in ("geometry.psi_surface", "geometry.psi_inv_surface",
               "geometry.project_gauge", "complexes.admissible_domains",
               "complexes.hat_complex", "complexes.build_complex",
               "complexes.triangulate", "fixtures.reference_pattern",
               "layout.develop", "layout.merge_redundant",
               "layout.layout_to_dict", "layout.delaunay_report",
               "layout.gauss_bonnet_check", "cli.load_input"):
        put(f"{nm}.s", incl.get(nm, 0.0), "s")
    kept = extra_sum("complexes.admissible_domains", "kept")
    put("complexes.make_domain.calls", count("complexes.make_domain"),
        "count")
    put("complexes.domains", kept, "count")
    put("complexes.domain_yield",
        ratio(kept, count("complexes.make_domain")), "ratio")
    put("polytope.check_feasibility.self_s",
        self_s.get("polytope.check_feasibility", 0.0), "s")
    put("polytope.single_star_check.calls",
        count("polytope.single_star_check"), "count")
    put("layout.merge_redundant.failures",
        extra_sum("layout.merge_redundant", "error"), "count")
    for nm, key in (("layout.export_svg", "layout.export_svg"),
                    ("layout.export_json", "layout.export_json"),
                    ("cli._emit", "cli.emit")):
        put(f"{key}.s", incl.get(nm, 0.0), "s")
        put(f"{key}.bytes", extra_sum(nm, "bytes"), "bytes")
    # ops: one root span per CLI command
    ops = [i for i in range(n) if tr.parent[i] < 0]
    op_wall = sum(dur[i] for i in ops)
    remainder = sum(dur[i] - child[i] for i in ops)
    for cmd in ("solve", "validate", "demo", "render"):
        put(f"cli.{cmd}.s", incl.get(f"cli.{cmd}", 0.0), "s")
    put("trace.ops", len(ops), "count")
    put("trace.spans", n, "count")
    put("trace.op_wall_s", op_wall, "s")
    put("trace.remainder_s", remainder, "s")
    put("trace.accounted_share", ratio(op_wall - remainder, op_wall),
        "ratio")
    return m
