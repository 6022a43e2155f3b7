"""Field codecs and the record machinery that both formats are derived from.

A ``Codec`` says how one value is written in each format.  A ``Record`` is a
model dataclass described as a sequence of ``Field``s in binary order; from
that one description it reads and writes itself as a text line's
``key=value`` pairs and as packed bytes.  The records themselves are listed
in ``spec``.
"""

import dataclasses
import struct
from functools import cache, cached_property
from operator import attrgetter

from .. import model
from .common import CorruptError, PersistError, TruncatedError

_SHORT = "unexpected end of data"


class FieldError(Exception):
    """A text value that does not parse; the loader adds the line number."""


class Reader:
    """Cursor over one binary buffer; a read past its end is a TruncatedError."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def raw(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise TruncatedError(_SHORT)
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def u8(self) -> int:
        try:
            v = self.data[self.pos]
        except IndexError:
            raise TruncatedError(_SHORT) from None
        self.pos += 1
        return v

    def varint(self) -> int:
        out = 0
        shift = 0
        while True:
            b = self.u8()
            out |= (b & 0x7F) << shift
            if not b & 0x80:
                return out
            shift += 7

    def s(self) -> str:
        try:
            return self.raw(self.varint()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptError(f"string is not UTF-8 ({e.reason})") from None

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


def write_varint(out: bytearray, v: int) -> None:
    while v > 0x7F:
        out.append(v & 0x7F | 0x80)
        v >>= 7
    out.append(v)


class Codec:
    """How one value is stored.

    ``text(v)`` is its text form and ``parse(raw)`` reads it back from a bare
    value or, for quoted strings, a list of them, raising ValueError,
    TypeError, KeyError or AttributeError on bad input.  ``write(out, v)``
    appends its bytes to a bytearray and ``read(reader)`` reads them back.
    """

    __slots__ = ("text", "parse", "write", "read")

    def __init__(self, text, parse, write, read):
        self.text = text
        self.parse = parse
        self.write = write
        self.read = read


def _fixed(fmt: str, kind: str):
    """(write, read) of one struct-packed value."""
    st = struct.Struct("<" + fmt)
    pack, unpack_from, size = st.pack, st.unpack_from, st.size

    def write(out, v):
        try:
            out += pack(v)
        except (struct.error, OverflowError):
            raise PersistError(f"{v!r} does not fit its {kind} field") from None

    def read(r):
        pos = r.pos
        try:
            v, = unpack_from(r.data, pos)
        except struct.error:
            raise TruncatedError(_SHORT) from None
        r.pos = pos + size
        return v

    return write, read


_F32 = struct.Struct("<f")


def _f32_text(v) -> str:
    # storage precision, so saving is already normal form
    try:
        return repr(_F32.unpack(_F32.pack(v))[0])
    except (struct.error, OverflowError):
        raise PersistError(f"{v!r} does not fit its f32 field") from None


def _f32_parse(raw) -> float:
    return _F32.unpack(_F32.pack(float(raw)))[0]


def _int_text(v) -> str:
    if type(v) is not int:
        raise PersistError(f"{v!r} is not an integer")
    return str(v)


F32 = Codec(_f32_text, _f32_parse, *_fixed("f", "f32"))
U8 = Codec(_int_text, int, *_fixed("B", "u8"))
U16 = Codec(_int_text, int, *_fixed("H", "u16"))
U32 = Codec(_int_text, int, *_fixed("I", "u32"))


def as_flag(v) -> bool:
    """``v`` itself if it is a bool; a saver writes no other value as a flag."""
    if type(v) is not bool:
        raise PersistError(f"{v!r} is not a flag")
    return v


FLAG = Codec(lambda v: "1" if as_flag(v) else "0", {"0": False, "1": True}.__getitem__,
             lambda out, v: out.append(as_flag(v)), _fixed("?", "flag")[1])
# an identifier: a u16, 1 and up; which collection it names is model.REFERENCES'
ID = Codec(_int_text, int, *_fixed("H", "u16"))


def _none_or(parse):
    return lambda raw: None if raw == "none" else parse(raw)


# an identifier or None, stored as 0
OPT_ID = Codec(lambda v: "none" if v is None else str(v), _none_or(int),
               lambda out, v: ID.write(out, 0 if v is None else v), lambda r: ID.read(r) or None)


@cache
def enum(cls) -> Codec:
    """An enum member: its value in text, its declaration index as a u8."""
    values = tuple(cls)
    by_value = {m.value: m for m in values}
    index = values.index
    n = len(values)

    def text(v):
        if type(v) is not cls:
            raise PersistError(f"{v!r} is not a {cls.__name__}")
        return v._value_

    def write(out, v):
        try:
            out.append(index(v))
        except ValueError:
            raise PersistError(f"{v!r} is not a {cls.__name__}") from None

    def read(r):
        code = r.u8()
        if code < n:
            return values[code]
        raise CorruptError(f"bad {cls.__name__} code {code}")

    return Codec(text, by_value.__getitem__, write, read)


@cache
def opt_enum(cls) -> Codec:
    """An enum member or None: ``none`` in text, the code plus one (0 for
    None) in binary."""
    base = enum(cls)
    values = tuple(cls)
    n = len(values)

    def write(out, v):
        if v is None:
            out.append(0)
        else:
            base.write(out, v)
            out[-1] += 1

    def read(r):
        code = r.u8()
        if code == 0:
            return None
        if code <= n:
            return values[code - 1]
        raise CorruptError(f"bad {cls.__name__} code {code - 1}")

    return Codec(lambda v: "none" if v is None else v.value, _none_or(base.parse),
                 write, read)


# -- strings and lists --------------------------------------------------------

# character -> its escape in quoted text, after the backslash
ESCAPES = {
    "\\": "\\", '"': '"', "\n": "n", "\t": "t",
    model.SLOPE_LEFT: "sl", model.SLOPE_RIGHT: "sr",
    model.DEGREE: "deg", model.DIAMETER: "dia",
}
_QUOTE = {ord(ch): "\\" + name for ch, name in ESCAPES.items()}


def quote(s: str) -> str:
    return '"' + s.translate(_QUOTE) + '"'


def _str_text(v) -> str:
    if type(v) is not str:
        raise PersistError(f"{v!r} is not a string")
    return quote(v)


def _one_string(raw) -> str:
    if type(raw) is str:
        return raw
    value, = raw  # a quoted list of exactly one
    return value


def _write_str(out, v):
    if type(v) is not str:
        raise PersistError(f"{v!r} is not a string")
    data = v.encode("utf-8")
    write_varint(out, len(data))
    out += data


STR = Codec(_str_text, _one_string, _write_str, Reader.s)


def listof(item: Codec, kind=list, sort: bool = False) -> Codec:
    """A list (or set, or tuple) of items: comma-joined in text, where a bare
    empty value is the empty list; a varint count then the items in binary.
    With ``sort`` the items are stored in sorted order."""
    order = sorted if sort else iter
    item_text, item_parse, item_write, item_read = item.text, item.parse, item.write, item.read

    def text(v):
        return ",".join(map(item_text, order(v)))

    def parse(raw):
        return kind() if raw == "" else kind(map(item_parse, raw.split(",")))

    def write(out, v):
        write_varint(out, len(v))
        for x in order(v):
            item_write(out, x)

    def read(r):
        return kind([item_read(r) for _ in range(r.varint())])

    return Codec(text, parse, write, read)


_strings = listof(STR)
# lines of text: a list of quoted strings, each kept whole
LINES = Codec(lambda v: ",".join(map(_str_text, v)),
              lambda raw: raw if type(raw) is list else [] if raw == "" else [raw],
              _strings.write, _strings.read)


# -- fields and records --------------------------------------------------------

_PARSE_ERRORS = (ValueError, TypeError, KeyError, AttributeError, OverflowError)


class Field:
    """One stored part of a record.

    ``attr`` is the model attribute, or a tuple of attributes stored together
    as one tuple value.  ``key`` is the text key; a tuple of keys stores a
    tuple value one element per key, each element in ``codec``; None puts a
    nested record's own keys on the line.  ``codec`` is a Codec or a nested
    Record.  ``when(obj)``, if given, says whether the field means anything
    for the record's kind: when it does not, the text omits it, and the text
    reader and the savers' renumbering set it to its default.  ``missing`` is
    the text read for an absent key (by default the key is required).  A
    ``sparse`` field is left out of the text line when it is None and reads
    as None when absent.
    """

    def __init__(self, attr, key, codec, *, when=None, missing=None, sparse=False):
        self.attr = attr
        self.key = key
        self.codec = codec
        self.when = when
        self.sparse = sparse
        self.missing = "none" if sparse else missing
        self.name = attr if isinstance(attr, str) else attr[0]
        self.get = attrgetter(*attr) if isinstance(attr, tuple) else attrgetter(attr)
        self.write, self.read = codec.write, codec.read
        if isinstance(key, tuple):
            n = len(key)

            def write(out, v):
                for i in range(n):
                    codec.write(out, v[i])
            self.write = write
            self.read = lambda r: tuple([codec.read(r) for _ in range(n)])
        elif sparse and isinstance(codec, Record):
            def write(out, v):
                out.append(v is not None)
                if v is not None:
                    codec.write(out, v)
            self.write = write
            self.read = lambda r: codec.read(r) if r.u8() else None


def default_of(cls, name: str):
    """Factory of the dataclass default of ``cls.name``."""
    f = next(f for f in dataclasses.fields(cls) if f.name == name)
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory
    return lambda: f.default


def _field_error(key: str, raw) -> FieldError:
    return FieldError(f"missing key {key!r}" if raw is None else f"bad {key} {raw!r}")


def take(kv: dict, key: str, parse, missing=None):
    """Take ``key`` out of a text line's pairs and parse its value."""
    raw = kv.pop(key, missing)
    if raw is None:
        raise _field_error(key, raw)
    try:
        return parse(raw)
    except _PARSE_ERRORS:
        raise _field_error(key, raw) from None


def _text_writes(fields, path: str) -> list:
    """(get, prefix, text, when, sparse) of each field on a text line:
    ``prefix`` is "key=", a tuple of them, or None for a nested record that
    may be absent, whose write_text stands in for the codec's text; other
    nested records put their fields inline.  ``path`` leads from the line's
    object to the fields' owner."""
    out = []
    for f in fields:
        get = attrgetter(*(path + a for a in (f.attr if isinstance(f.attr, tuple) else (f.attr,))))
        if not isinstance(f.codec, Record):
            prefix = f.key + "=" if isinstance(f.key, str) else tuple(k + "=" for k in f.key)
            out.append((get, prefix, f.codec.text, f.when, f.sparse))
        elif f.sparse or f.when is not None or f.codec.voidable:
            out.append((get, None, f.codec.write_text, f.when, f.sparse))
        else:
            out += _text_writes(f.codec.text_fields, f"{path}{f.attr}.")
    return out


def _run(kv: dict, vals: list, reads, builds) -> None:
    """Take each read's key out of ``kv`` into its slot of ``vals``, then
    make the nested values of ``builds`` from their slots, innermost first.
    A read without a key is a field read its own way, by ``parse(kv, vals)``."""
    pop = kv.pop
    for slot, key, parse, missing in reads:
        if key is None:
            parse(kv, vals)
            continue
        raw = pop(key, missing)
        if raw is None:
            raise _field_error(key, raw)
        try:
            vals[slot] = parse(raw)
        except _PARSE_ERRORS:
            raise _field_error(key, raw) from None
    for slot, lo, hi, make in builds:
        vals[slot] = make(*vals[lo:hi])


def _pack(*items) -> tuple:
    return items


class _SoFar:
    """The values of a record read so far, by attribute, for ``when``."""

    __slots__ = ("vals", "slot_of")

    def __init__(self, vals: list, slot_of: dict):
        self.vals = vals
        self.slot_of = slot_of

    def __getattr__(self, name: str):
        return self.vals[self.slot_of[name]]


def _lay(record, template: list, reads: list, builds: list) -> dict:
    """Lay out the text reading of ``record`` in one list of slots.

    The record's constructor arguments take the next slots of ``template``,
    in constructor order, so that it is built from one slice.  Its text
    fields add their reads to ``reads`` in text order; a nested record's
    fields join the same lists, and its build comes after theirs.  Returns
    {attribute: slot}.
    """
    names = [f.name for f in dataclasses.fields(record.cls)]
    slot_of = {name: len(template) + i for i, name in enumerate(names)}
    template += [None] * len(names)
    for f in record.text_fields:
        _lay_field(record.cls, f, slot_of, template, reads, builds)
    return slot_of


def _lay_field(cls, f: Field, slot_of: dict, template: list, reads: list,
               builds: list) -> None:
    """Lay out one text field of a ``cls`` record (see ``_lay``)."""
    if f.when is not None or (f.sparse and isinstance(f.codec, Record)):
        # a field that may be absent: its reads and builds run only when it is there
        own_reads, own_builds = [], []
        _lay_field(cls, Field(f.attr, f.key, f.codec, missing=f.missing), slot_of,
                   template, own_reads, own_builds)
        slot = slot_of[f.name]
        if f.when is not None:
            when, default = f.when, default_of(cls, f.attr)

            def read(kv, vals):
                if when(_SoFar(vals, slot_of)):
                    _run(kv, vals, own_reads, own_builds)
                else:
                    vals[slot] = default()
        else:
            first = f.codec.text_fields[0].key

            def read(kv, vals):
                if first in kv:
                    _run(kv, vals, own_reads, own_builds)
                else:
                    vals[slot] = None
        reads.append((slot, None, read, None))
    elif isinstance(f.codec, Record):
        lo = len(template)
        n = len(_lay(f.codec, template, reads, builds))
        builds.append((slot_of[f.attr], lo, lo + n, f.codec.cls))
    elif isinstance(f.key, tuple) and isinstance(f.attr, tuple):
        reads += [(slot_of[a], k, f.codec.parse, f.missing) for a, k in zip(f.attr, f.key)]
    elif isinstance(f.key, tuple):
        lo = len(template)
        template += [None] * len(f.key)
        reads += [(lo + i, k, f.codec.parse, f.missing) for i, k in enumerate(f.key)]
        builds.append((slot_of[f.attr], lo, len(template), _pack))
    elif isinstance(f.attr, tuple):
        slots = [slot_of[a] for a in f.attr]
        key, parse, missing = f.key, f.codec.parse, f.missing

        def read(kv, vals):
            for slot, v in zip(slots, take(kv, key, parse, missing)):
                vals[slot] = v
        reads.append((None, None, read, None))
    else:
        reads.append((slot_of[f.attr], f.key, f.codec.parse, f.missing))


class Record:
    """A model dataclass stored as ``fields``, listed in binary order;
    ``text_order`` names them in text order where that differs."""

    def __init__(self, cls, *fields: Field, text_order=None):
        self.cls = cls
        self.fields = fields
        by_name = {f.name: f for f in fields}
        self.text_fields = (fields if text_order is None
                            else tuple(by_name[n] for n in text_order))
        # (when, attribute, default factory) of the fields a kind can void
        self.voidable = [(f.when, f.attr, default_of(cls, f.attr))
                         for f in fields if f.when is not None]
        self._writes = [(f.get, f.write) for f in fields]
        self._reads = [(f.attr, f.read) for f in fields]
        self._text_writes = _text_writes(self.text_fields, "")

    def write(self, out: bytearray, obj) -> None:
        for get, write in self._writes:
            write(out, get(obj))

    # Loaded objects are built by their constructors: an object whose
    # attributes are set another way keeps them in a dict of its own, and
    # every later attribute access is slower (edits of a loaded scheme by
    # about a quarter).

    def read(self, r: Reader):
        kw = {}
        for attr, read in self._reads:
            if type(attr) is str:
                kw[attr] = read(r)
            else:
                kw.update(zip(attr, read(r)))
        return self.cls(**kw)

    def write_text(self, obj, parts: list) -> None:
        for get, prefix, text, when, sparse in self._text_writes:
            if when is not None and not when(obj):
                continue
            v = get(obj)
            if sparse and v is None:
                continue
            if type(prefix) is str:
                parts.append(prefix + text(v))
            elif prefix is None:
                text(v, parts)
            else:
                parts += [p + text(v[i]) for i, p in enumerate(prefix)]

    @cached_property
    def _text_layout(self) -> tuple:
        """(template, reads, builds, {attribute: slot}) of ``_lay``, laid
        out on first use: most nested records are read only inside others."""
        template, reads, builds = [], [], []
        return template, reads, builds, _lay(self, template, reads, builds)

    def read_text(self, kv: dict):
        """The object on a text line, from the pairs in ``kv``, taking them
        out; a field the line does not carry is None."""
        template, reads, builds, slot_of = self._text_layout
        vals = template[:]
        _run(kv, vals, reads, builds)
        return self.cls(*vals[:len(slot_of)])

    def text_values(self, kv: dict) -> dict:
        """{attribute: value} of the text fields, taken out of ``kv``."""
        template, reads, builds, slot_of = self._text_layout
        vals = template[:]
        _run(kv, vals, reads, builds)
        return {name: vals[slot_of[name]] for f in self.text_fields
                for name in (f.attr if isinstance(f.attr, tuple) else (f.attr,))}
