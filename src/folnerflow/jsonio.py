"""JSON helpers: exact rationals as "p/q" strings, deterministic dumps.

Every number that crosses a file boundary is an int or an exact rational
rendered as a string; floats never appear in artifacts. `to_doc` is the one
rendering rule: a Fraction becomes "p/q", the distinguished infinite ratio
"infinity", lists and tuples lists, dict keys strings (rationals as "p/q"),
and a `Doc` record the doc of its fields; ints, bools, str and None pass
through, and any other value, a float above all, is a TypeError. A `Doc`
record's JSON keys are its field names.

`dump_json` writes the text of `json.dumps(obj, indent=2, sort_keys=True)`
plus a newline, byte for byte, by rendering the document itself: a list of
ints or of strs is one join; a list of equal-length lists (edges, chain
weights, tails) is one %-template per row, filled a column at a time, an
all-int or all-str column by one map and a column of int lists by one join
per cell; dicts and other lists recurse. Anything else (a float, a
non-str key, a subclass of a container or scalar) is a TypeError, as in
`to_doc`, so no float reaches an artifact; a loop, or a nesting deeper than
the recursion limit, is a RecursionError.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import ConfigError


def format_rational(q) -> str:
    """Render a rational as "p/q" (always with an explicit denominator)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s) -> Fraction:
    """Parse "p/q", "p", or an int into a Fraction; floats are rejected."""
    if isinstance(s, bool) or isinstance(s, float):
        raise ConfigError(f"expected an exact rational, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"not a rational: {s!r}") from e


def format_ratio(v) -> str:
    """Like format_rational but maps the infinite ratio to "infinity"."""
    if v == math.inf:
        return "infinity"
    return format_rational(v)


def _key(k) -> str:
    t = type(k)
    if t is str:
        return k
    if t is int:
        return str(k)
    if t is Fraction:
        return f"{k.numerator}/{k.denominator}"
    raise TypeError(f"cannot render {k!r} as a JSON key")


def to_doc(v):
    """The JSON doc of an exact value, by the rule in the module docstring.
    Dispatch is on the exact type, the common leaves first, so a record (a
    tuple subclass) reaches the Doc branch."""
    t = type(v)
    if t is int or t is str or t is bool or v is None:
        return v
    if t is Fraction:
        return f"{v.numerator}/{v.denominator}"
    if t is list or t is tuple:
        return [to_doc(x) for x in v]
    if t is dict:
        return {_key(k): to_doc(x) for k, x in v.items()}
    if t is float and v == math.inf:
        return "infinity"
    if isinstance(v, Doc):
        return v.to_json()
    raise TypeError(f"{v!r} ({t.__name__}) cannot go into an artifact")


class Doc:
    """Mixin for a namedtuple report record: its JSON doc is its fields
    under their own names."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {k: to_doc(v) for k, v in zip(self._fields, self)}


def parse_ids(spec) -> list:
    """Point ids or translate vectors from "a..b" (inclusive), "a,b,...",
    an int, or a list of ints and int vectors (vectors become tuples)."""
    try:
        if isinstance(spec, str) and ".." in spec:
            lo, hi = spec.split("..")
            return list(range(int(lo), int(hi) + 1))
        if isinstance(spec, str):
            return [int(v) for v in spec.split(",") if v != ""]
    except ValueError as e:
        raise ConfigError(f"not an id range or list: {spec!r}") from e
    if type(spec) is int:
        return [spec]
    if isinstance(spec, list) and all(
            type(v) is int or isinstance(v, list) and all(type(c) is int for c in v)
            for v in spec):
        return [tuple(v) if isinstance(v, list) else v for v in spec]
    raise ConfigError(f'expected ids as "a..b", "a,b", an int or a list, got {spec!r}')


def _table(rows, ind):
    """The rows, lists of one length k >= 1, as `json.dumps` lays them out
    one level below `ind`: one %-template per row, filled column by column,
    an all-int or all-str column by one map, a column of nonempty int lists
    by one join per cell, any other by `_render`."""
    inner = ind + "  "
    deeper = inner + "  "
    sep = "," + deeper
    cols = list(zip(*rows))
    fields = []
    for i, col in enumerate(cols):
        kinds = set(map(type, col))
        if kinds == {int}:
            fields.append("%d")
        elif kinds <= {list, tuple} and all(col) and set(map(type, chain(*col))) == {int}:
            cols[i] = [sep.join(map(int.__repr__, c)) for c in col]
            fields.append("[" + deeper + "%s" + inner + "]")
        else:
            cols[i] = map(_quote, col) if kinds == {str} else [_render(c, inner) for c in col]
            fields.append("%s")
    row = "[" + inner + ("," + inner).join(fields) + ind + "]"
    return ("," + ind).join(map(row.__mod__, zip(*cols)))


def _render(v, ind) -> str:
    """`v` as `json.dumps(v, indent=2, sort_keys=True)` renders it at the
    nesting whose line break and indent is `ind`; TypeError for a value of
    any other type (exact types only, so a subclass is one)."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = ind + "  "
        kinds = set(map(type, v))
        if kinds == {int}:
            body = ("," + inner).join(map(int.__repr__, v))
        elif kinds == {str}:
            body = ("," + inner).join(map(_quote, v))
        elif kinds <= {list, tuple} and len(set(map(len, v))) == 1 and v[0]:
            body = _table(v, inner)
        else:
            body = ("," + inner).join([_render(x, inner) for x in v])
        return "[" + inner + body + ind + "]"
    if t is dict:
        if not v:
            return "{}"
        if set(map(type, v)) != {str}:
            raise TypeError(f"{next(k for k in v if type(k) is not str)!r} cannot be a JSON key")
        inner = ind + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _render(v[k], inner) for k in sorted(v)]) + ind + "}"
    raise TypeError(f"{v!r} ({t.__name__}) cannot go into an artifact")


def dump_json(obj, path=None) -> str:
    """Deterministic JSON text (sorted keys, trailing newline): the bytes of
    `json.dumps(obj, indent=2, sort_keys=True)`, or a TypeError for what it
    does not render (see the module docstring)."""
    text = _render(obj, "\n") + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"no such file: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from e
