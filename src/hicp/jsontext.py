"""The text of every JSON document hicp writes: the bytes of
``json.dumps(obj, sort_keys=True, indent=1)``, written by json_text
from a document, or by the block writers straight from arrays of
numbers and lists of keys, one % pass per block.  A text has no final
newline; the writer of the file or of stdout adds it."""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

import numpy as np

_ESCAPE = json.encoder.encode_basestring_ascii


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj, pad=""):
    """``json.dumps(obj, sort_keys=True, indent=1)`` as a value at indent
    pad: each line after the first indented by pad more (json escapes
    every newline inside a string)."""
    text = json.dumps(obj, sort_keys=True, indent=1)
    return text.replace("\n", "\n" + pad)


def _fill(template, rows, sep=",\n"):
    """template filled from each row of fields in one pass, joined by sep."""
    return sep.join([template] * len(rows)) % tuple(
        itertools.chain.from_iterable(rows))


def indent(template, pad):
    """template with each of its lines indented by pad more."""
    return pad + template.replace("\n", "\n" + pad)


def number_texts(a, fmt="%r"):
    """The numbers of array a as json writes float(fmt % x); "%r" is
    json's own C-encoded text of the list.  A 12-digit %g text keeps a
    decimal digit below 1e11 except near a whole number, so only numbers
    within 1e-11 |x| of one, below 1e-4 or from 1e11 in size (where an
    exponent may show) or not finite are read back and written again."""
    v = a.ravel()
    if fmt == "%r":
        return json.dumps(v.tolist())[1:-1].split(", ") if v.size else []
    texts = ((fmt + "\n") * v.size % tuple(v.tolist())).split()
    m = np.abs(v)
    with np.errstate(invalid="ignore"):  # inf - inf
        fine = (1e-4 <= m) & (m < 1e11) & (np.abs(v - np.round(v)) > 1e-11 * m)
    for i in np.flatnonzero(~fine).tolist():
        t = texts[i]
        texts[i] = _NONFINITE.get(t) or (
            repr(float(t)) if "e" in t else t if "." in t else t + ".0")
    return texts


class KeyOrder(NamedTuple):
    """A list of str keys in json's key order: the escaped text of each
    key, and its position in the list."""

    texts: list
    at: np.ndarray

    def masked(self, mask):
        """The KeyOrder of the keys at the positions where mask holds."""
        keep = mask[self.at]
        return KeyOrder(list(itertools.compress(self.texts, keep.tolist())),
                        self.at[keep])


def key_order(keys):
    """The KeyOrder of the list keys."""
    at = sorted(range(len(keys)), key=keys.__getitem__)
    return KeyOrder(list(map(_ESCAPE, map(keys.__getitem__, at))),
                    np.array(at, int))


def object_text(template, order, *cols, pad=""):
    """The text of an object closed at indent pad: per key of the
    KeyOrder the template filled from its text and its fields in cols,
    which run in key order too."""
    if not order.texts:
        return "{}"
    return ("{\n" + _fill(template, list(zip(order.texts, *cols))) + "\n"
            + pad + "}")


def float_map(order, values, pad=""):
    """The text of {key: value} over the keys of a KeyOrder, their float
    values in list order, closed at indent pad: every edge- or
    vertex-keyed float object hicp writes."""
    return object_text(pad + " %s: %s", order, number_texts(
        np.asarray(values, float)[order.at]), pad=pad)


def edge_keys(edges):
    """The "u-v" key of each edge (u, v)."""
    return _fill("%d-%d", edges, "\n").split()
