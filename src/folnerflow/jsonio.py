"""JSON helpers: exact rationals as "p/q" strings, deterministic dumps.

Every number that crosses a file boundary is an int or an exact rational
rendered as a string; floats never appear in artifacts. `to_doc` is the one
rendering rule: a Fraction becomes "p/q", the distinguished infinite ratio
"infinity", lists and tuples lists, dict keys strings (rationals as "p/q"),
and a `Doc` record the doc of its fields; ints, bools, str and None pass
through, and any other value, a float above all, is a TypeError. A `Doc`
record's JSON keys are its field names.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
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


def dump_json(obj, path=None) -> str:
    """Deterministic JSON text (sorted keys, trailing newline)."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
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
