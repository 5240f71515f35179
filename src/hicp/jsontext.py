"""The text of every JSON document hicp writes: the bytes of
``json.dumps(obj, sort_keys=True, indent=1)``, written by json_text
from a document, or by the block writers straight from arrays of
numbers and lists of keys, one str.join per block.  A text has no final
newline; the writer of the file or of stdout adds it."""

from __future__ import annotations

import itertools
import json
import re
from typing import NamedTuple

import numpy as np
import orjson

_ESCAPE = json.encoder.encode_basestring_ascii
_FIELD = re.compile("%[sd]")  # a field of a rows_text template


_POW10 = np.array([float(10 ** k) for k in range(23)])  # each exact


def json_text(obj, pad=""):
    """``json.dumps(obj, sort_keys=True, indent=1)`` as a value at indent
    pad: each line after the first indented by pad more (json escapes
    every newline inside a string)."""
    text = json.dumps(obj, sort_keys=True, indent=1)
    return text.replace("\n", "\n" + pad)


def rows_text(kind, groups, sep=",\n"):
    """Rows joined by sep.  Each group is (template, *columns), its
    fields %s or %d, and row i is the template of group kind[i] filled
    from that group's next row.  One group, kind not read, is one
    str.join of its pieces; with several, each row is the str.join of
    its head and its own pieces, and the rows are taken in kind order."""
    if len(groups) == 1:
        out = _pieces(*groups[0], sep=sep)
        return "".join(out) if len(out) > 1 else ""
    kind = np.asarray(kind, int)
    rows = []
    for n, group in zip(np.bincount(kind, minlength=len(groups)).tolist(),
                        groups):
        head, *out = _pieces(*group)
        m = 2 * len(group) - 2  # the pieces of a row after its head
        if len(out) != n * m:
            raise ValueError("a group's rows are not the count of its kind")
        rows.append(map("".join, zip(itertools.repeat(head),
                                     *[iter(out)] * m)))
    return sep.join(map(next, map(rows.__getitem__, kind.tolist())))


def _pieces(template, *cols, sep=None):
    """The head of template, then per row filled from the columns cols
    the texts of its fields and the literal pieces after them in turn;
    with sep, sep and the head follow the last piece of each row but the
    last."""
    cols = [_texts(c, f) for c, f in zip(cols, _FIELD.findall(template),
                                         strict=True)]
    n, m = len(cols[0]), 2 * len(cols)
    head, *pieces, tail = _FIELD.split(template)
    out = [None] * (n * m + 1)
    out[::2] = [head, *[*pieces, tail if sep is None else tail + sep + head]
                * n]
    for j, col in enumerate(cols):
        out[2 * j + 1::m] = col
    if n:
        out[-1] = tail
    return out


def _texts(col, field):
    """The texts of the column col in the field "%s" or "%d", as % writes
    them: a list, iterator or array of texts, or of numbers (a %d column
    is read as ints), which are written here by str.  Its first item
    tells which."""
    if field == "%d":
        col = np.asarray(col, int)
    col = col.tolist() if isinstance(col, np.ndarray) else (
        col if isinstance(col, list) else list(col))
    return col if not col or isinstance(col[0], str) else list(map(str, col))


def indent(template, pad):
    """template with each of its lines indented by pad more."""
    return pad + template.replace("\n", "\n" + pad)


def _rounded(v):
    """float("%.12g" % x) for each x of the 1-d array v.  For
    1e-11 <= |x| < 1e12 the 12 digits are rint(p), p = |x| 10^k with
    k = 11 - floor(log10 |x|) and 10^k exact, when p is in [1e11, 1e12)
    and more than 1e-3 from a half: p is then within 2^-14 of the exact
    product, so its rint is the decimal rounding, and dividing it by
    10^k rounds once, as reading its text does.  Every other x is
    formatted and read back."""
    m = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0), inf
        k = 11 - np.floor(np.log10(m))
        ok = (0 <= k) & (k <= 22)
        scale = _POW10[np.where(ok, k, 0).astype(int)]
        p = m * scale
        d = np.rint(p)
        ok &= (1e11 <= p) & (d < 1e12) & (np.abs(p - np.floor(p) - 0.5) > 1e-3)
    y = np.copysign(d / scale, v)  # and 0 for 0
    back = ~ok & (v != 0)
    y[back] = [float("%.12g" % x) for x in v[back].tolist()]
    return y


def number_texts(a, fmt="%r"):
    """The numbers of array a as json writes float(fmt % x), for fmt
    "%r" or "%.12g" (the number rounded to 12 significant digits).  The
    texts are orjson's, the shortest digits that read back as the number
    (repr's, as they are unique) where it writes them as repr does:
    |y| < 1e-9 (0, or an exponent of two or more digits) and 1e-4 <= |y|
    < 1e16.  Between, orjson writes 0.00001 and 1e-6 for repr's 1e-05
    and 1e-06, from 1e16 it writes 1e16 for 1e+16, and it writes null
    for a number that is not finite; there the text is json's own."""
    v = np.ascontiguousarray(a, float).ravel()
    if fmt == "%.12g":
        v = _rounded(v)
    if not v.size:
        return []
    texts = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode(
        ).split(",")
    m = np.abs(v)
    agree = (m < 1e-9) | ((1e-4 <= m) & (m < 1e16))
    for i in np.flatnonzero(~agree).tolist():
        texts[i] = json.dumps(float(v[i]))
    return texts


def number_blocks(arrays, fmt="%r"):
    """number_texts of each array of the list arrays, written in one
    pass: a list of text lists."""
    flat = [np.asarray(a, float).ravel() for a in arrays]
    texts = number_texts(np.concatenate([np.zeros(0), *flat]), fmt)
    ends = np.cumsum([len(a) for a in flat]).tolist()
    return [texts[i:j] for i, j in zip([0, *ends], ends)]


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
    return ("{\n" + rows_text(None, [(template, order.texts, *cols)]) + "\n"
            + pad + "}")


def float_map(order, texts, pad=""):
    """The text of {key: value} over the keys of a KeyOrder, the number
    texts of their values in key order, closed at indent pad: every edge-
    or vertex-keyed float object hicp writes."""
    return object_text(pad + " %s: %s", order, texts, pad=pad)

