"""JSON helpers: exact rationals as "p/q" strings, deterministic dumps, and
`read`, the one reader of every file folnerflow reads.

Every number that crosses a file boundary is an int or an exact rational
rendered as a string; floats never appear in artifacts. `to_doc` is the one
rendering rule: a Fraction becomes "p/q", the distinguished infinite ratio
"infinity", lists and tuples lists, dict keys strings (rationals as "p/q"),
and a `Doc` record the doc of its fields; ints, bools, str and None pass
through, and any other value, a float above all, is a TypeError. A `Doc`
record's JSON keys are its field names. `dump_json` writes the bytes of
`json.dumps(obj, indent=2, sort_keys=True)` plus a newline by rendering the
document itself (see `_render`), and refuses what `to_doc` refuses.

`read(doc, form, where, **known)` is the one place a file's shape is
checked: it gives the document as its form reads it, or a ConfigError
naming the file kind `where` and the field path (`metric.edges[3][2]`).
Forms: `Form()`, any value; `Exact(t)`, exactly type t (a bool is no int),
`Exact(int, lo)` at least lo and `Exact(int, 0, "points")` a point id below
the int read earlier under that key (or passed in `known`); `Rational(sign)`,
a `parse_rational` value, with sign ">= 0" or "> 0"; `List(f)`; `Tuple(f,
...)`, a list of fixed length; `Entries(k, v)`, `[id, value]` pairs read as
a dict, refusing an id listed twice; `Obj({key: f or (f, default)})`, fields
with defaults (`...`: required) and no key it does not read; `Tagged(key,
{tag: Obj})`, an object whose `key` names the Obj that reads the rest. A
list is read in C-level passes over all its values at once, nested lists
too (`set(map(type, values))`, `min`, `max`, each distinct rational parsed
once), and value by value only to name the first one a pass refuses.
"""

from __future__ import annotations

import json
import math
import reprlib
from fractions import Fraction
from itertools import chain, islice
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
    if type(spec) is str:
        lo, dots, hi = spec.partition("..")
        try:
            return list(range(int(lo), int(hi) + 1)) if dots else [
                int(v) for v in spec.split(",") if v]
        except ValueError as e:
            raise ConfigError(f"not an id range or list: {spec!r}") from e
    if type(spec) is int:
        return [spec]
    if type(spec) is list and all(type(v) is int or type(v) is list and {*map(type, v)} <= {int}
                                  for v in spec):
        return [tuple(v) if type(v) is list else v for v in spec]
    raise ConfigError(f'expected ids as "a..b", "a,b", an int or a list, got {spec!r}')


class _Refused(Exception):
    """(field path, what is wrong): a refused value, its path prefixed by
    each container it is read in; `read` names the file."""


def _at(step, form, v, known):
    """`form.read(v)`, a refusal's path prefixed by `step`, v's index or key."""
    try:
        return form.read(v, known)
    except _Refused as e:
        raise _Refused(step + e.args[0], e.args[1]) from None


class Form:
    """Any value, as it stands: the base of every form. `read` reads one
    value; `fast` reads a list of values in C-level passes, or gives None to
    have them read one by one, which names the first one refused."""

    what, tp = "any value", None

    def ok(self, v, known):
        return self.tp is None or type(v) is self.tp

    def read(self, v, known):  # `what` may name a bound read before: "{points}"
        if not self.ok(v, known):
            raise _Refused("", f"must be {self.what.format_map(known)}, got {reprlib.repr(v)}")
        return v

    def fast(self, vs, known):
        return None


class Exact(Form):
    def __init__(self, tp, lo=None, below=None):
        self.tp, self.lo, self.below = tp, lo, below
        self.what = {int: "an int", str: "a str", list: "a list"}[tp] if lo is None else (
            f"a point id below {{{below}}}" if below else
            "a positive int" if lo == 1 else f"an int >= {lo}")

    def ok(self, v, known):
        return type(v) is self.tp and (self.lo is None or v >= self.lo) and (
            not self.below or v < known[self.below])

    def fast(self, vs, known):
        if not vs or set(map(type, vs)) == {self.tp} and (
                self.lo is None or min(vs) >= self.lo) and (
                not self.below or max(vs) < known[self.below]):
            return vs


class Rational(Form):
    def __init__(self, sign=""):
        self.what = f"a rational {sign}" if sign else "an exact rational"
        self.bad = {"": None, ">= 0": Fraction(0).__gt__, "> 0": Fraction(0).__ge__}[sign]

    def read(self, v, known):
        try:
            q = parse_rational(v)
        except ConfigError:
            q = None
        if q is None or self.bad and self.bad(q):
            raise _Refused("", f"must be {self.what}, got {reprlib.repr(v)}")
        return q

    def fast(self, vs, known):  # each distinct value read once
        if set(map(type, vs)) <= {str, int}:
            try:
                q = {v: self.read(v, known) for v in set(vs)}
            except _Refused:
                return None
            return list(map(q.__getitem__, vs))


class List(Form):
    what, tp = "a list", list

    def __init__(self, item):
        self.item = item

    def read(self, v, known):
        out = self.item.fast(Form.read(self, v, known), known)
        return [_at(f"[{i}]", self.item, x, known) for i, x in enumerate(v)] if out is None else out

    def fast(self, vs, known):  # the entries of all the lists read at once, then split back
        if set(map(type, vs)) <= {list}:
            out = self.item.fast(flat := list(chain.from_iterable(vs)), known)
            if out is flat:
                return vs
            if out is not None:
                it = iter(out)
                return [list(islice(it, len(v))) for v in vs]


class Tuple(Form):
    def __init__(self, *items):
        self.items, self.what = items, f"a list of {len(items)} entries"

    def ok(self, v, known):
        return type(v) is list and len(v) == len(self.items)

    def read(self, v, known):
        Form.read(self, v, known)
        return tuple([_at(f"[{i}]", f, x, known) for i, (f, x) in enumerate(zip(self.items, v))])

    def fast(self, vs, known):  # one pass per column
        if not vs or set(map(type, vs)) <= {list} and set(map(len, vs)) == {len(self.items)}:
            cols = [f.fast(col, known) for f, col in zip(self.items, zip(*vs))]
            if None not in cols:
                return list(zip(*cols))


class Entries(List):
    """[key, value] pairs read as a dict, refusing a key listed twice; its key
    form reads ints, as they stand."""

    def __init__(self, key, value):
        self.item = Tuple(key, value)

    def read(self, v, known):
        if (out := self.fast([Form.read(self, v, known)], known)) is not None:
            return out[0]
        seen = set()
        for x, _ in (pairs := super().read(v, known)):  # names the entry it refuses
            if x in seen or seen.add(x):
                raise _Refused("", f"lists {x!r} twice")
        return dict(pairs)

    def fast(self, vs, known):  # a dict per list, then every key and every value at once
        try:
            dicts = list(map(dict, vs))
        except (TypeError, ValueError):  # an entry that is no pair, or a key that is no int
            return None
        key, value = self.item.items
        if set(map(type, chain(vs, *vs))) <= {list} and list(map(len, dicts)) == list(
                map(len, vs)) and key.fast(list(chain.from_iterable(dicts)), known) is not None:
            out = value.fast(values := list(chain.from_iterable(map(dict.values, dicts))), known)
            if out is values:
                return dicts
            if out is not None:
                it = iter(out)
                return [dict(zip(d, it)) for d in dicts]


class Obj(Form):
    what, tp = "an object", dict

    def __init__(self, fields):
        self.fields = {key: f if type(f) is tuple else (f, ...) for key, f in fields.items()}
        self.required = {key for key, (_, default) in self.fields.items() if default is ...}

    def read(self, v, known, tag=None):
        Form.read(self, v, known)
        out = {}
        for key, (form, default) in self.fields.items():
            if key not in v and default is ...:
                raise _Refused("", f"is missing {key!r}")
            value = v.get(key, default)
            try:  # a bare Form() reads any value as it stands
                out[key] = known[key] = value if type(form) is Form else form.read(value, known)
            except _Refused as e:
                raise _Refused(f".{key}{e.args[0]}", e.args[1]) from None
        if extra := v.keys() - self.fields.keys() - {tag}:
            raise _Refused("", f"does not read {', '.join(sorted(map(repr, extra)))}")
        return out

    def fast(self, vs, known):  # a column per field; an object in a list records no bound
        if self.fields and set(map(type, vs)) <= {dict} and all(
                map(self.required.issubset, vs)) and self.fields.keys() >= set(chain(*vs)):
            cols = [form.fast([v.get(key, default) for v in vs], known)
                    for key, (form, default) in self.fields.items()]
            if None not in cols:
                return [dict(zip(self.fields, row)) for row in zip(*cols)]


class Tagged(Obj):
    fast = Form.fast

    def __init__(self, key, variants):
        self.key, self.variants = key, variants

    def read(self, v, known):
        Form.read(self, v, known)
        if self.key not in v:
            raise _Refused("", f"is missing {self.key!r}")
        if type(tag := v[self.key]) is not str or tag not in self.variants:
            raise _Refused(f".{self.key}", f"must be one of "
                           f"{', '.join(map(repr, self.variants))}, got {reprlib.repr(tag)}")
        return {self.key: tag, **self.variants[tag].read(v, known, self.key)}


ID = Exact(int, 0, "points")  # a point id, below the file's `points` (or `known`)


def read(doc, form, where, **known):
    """`doc` as `form` reads it, or a ConfigError naming the file kind
    `where` and the field path of the first value it refuses; `known` holds
    the bounds of point ids that the doc does not."""
    try:
        return form.read(doc, known)
    except _Refused as e:
        path, problem = e.args[0].lstrip("."), e.args[1]
        raise ConfigError(f"{where}{' ' * (path[:1] not in '[') + path} {problem}") from None


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
    `json.dumps(obj, indent=2, sort_keys=True)`, or a TypeError for a float,
    a non-str key or a subclass of a container or scalar, and a
    RecursionError for a loop or a nesting deeper than the recursion limit."""
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
