"""Line-oriented text format: one record per line, ``kind key=value ...``.

Strings are double-quoted with backslash escapes; the four special text
symbols travel as ``\\sl`` ``\\sr`` ``\\deg`` ``\\dia``.  Comments start with
``#`` outside quotes.  Records end at a line feed, with one carriage return
before it dropped.  Saving renumbers identifiers densely and prints floats at
32-bit precision, so text -> binary -> text is the identity.  The keys of
each record come from ``spec``.
"""

import re
from functools import partial

from .. import model
from ..model import Scheme
from .codec import ESCAPES, FieldError, Record, take
from .common import ParseError, check_references, saver
from .spec import ARC, AXIS_GRID, SECTIONS, SEGMENT, SETTINGS, SETTINGS_LINES, renumbered

FORMAT_VERSION = 1

# -- tokenizer ----------------------------------------------------------------

_UNESCAPES = {name: ch for ch, name in ESCAPES.items()}
# longest name first, so that \deg is not taken for an unknown \d
_NAMES = "|".join(map(re.escape, sorted(_UNESCAPES, key=len, reverse=True)))
_STRING = rf'"(?:[^"\\]|\\(?:{_NAMES}))*"'
_END = r"(?=[ \t]|\Z)"  # a bare word runs to the next blank: no shorter match


def _pair(group: str) -> str:
    """key=value, its three parts in groups opened by ``group``: a bare value
    runs to the next blank, a quoted one is a list of comma-joined strings,
    and a key may follow a closing quote without a blank."""
    return (rf'(?!#){group}[^= \t]*)='
            rf'(?:{group}{_STRING}(?:,{_STRING})*)(?!,)|{group}(?!")[^ \t]*{_END}))')


_PAIRS = re.compile(r"[ \t]*" + _pair("("))
_LINE = re.compile(rf"[ \t]*(?:(?!#)([^ \t]+{_END})((?:[ \t]*{_pair('(?:')})*))?[ \t]*(?:#.*)?")
_PIECE = re.compile(rf'"((?:[^"\\]|\\(?:{_NAMES}))*)"')
_UNESCAPE = re.compile(rf"\\({_NAMES})")


def _unescape(s: str) -> str:
    return _UNESCAPE.sub(lambda m: _UNESCAPES[m.group(1)], s) if "\\" in s else s


def _tokenize(line: str, no: int) -> tuple[str, dict] | None:
    """(kind, {key: bare value or list of strings}), or None for a blank or
    comment line."""
    m = _LINE.match(line)
    if m.end() != len(line):
        raise ParseError(f"expected key=value near column {m.end() + 1}", no)
    kind, body = m.groups()
    if kind is None:
        return None
    pairs = _PAIRS.findall(body)
    kv = {key: [_unescape(p) for p in _PIECE.findall(quoted)] if quoted else bare
          for key, quoted, bare in pairs}
    if len(kv) != len(pairs):
        raise ParseError("duplicate key", no)
    return kind, kv


# -- records ------------------------------------------------------------------

_BY_NAME = {f.name: f for f in SETTINGS.fields}
_SETTINGS_LINES = {kind: Record(model.Settings, *(_BY_NAME[n] for n in names))
                   for kind, names in SETTINGS_LINES.items()}
_GRAPHICS = {"symbol.seg": SEGMENT, "symbol.arc": ARC}


@saver
def save_text(scheme: Scheme) -> str:
    """Canonical text form: settings first, then objects in id order."""
    s = renumbered(scheme)
    out: list[str] = ["# axoscheme parameter set", f"scheme version={FORMAT_VERSION}"]
    for kind, line in _SETTINGS_LINES.items():
        parts = [kind]
        line.write_text(s.settings, parts)
        out.append(" ".join(parts))
    for section in SECTIONS:
        write = section.record.write_text
        for oid, obj in getattr(s, section.collection).items():
            parts = [f"{section.kind} id={oid}"]
            write(obj, parts)
            out.append(" ".join(parts))
            if section.collection == "symbols":
                for g in obj.graphics:
                    kind = "symbol.seg" if isinstance(g, model.SymbolSegment) else "symbol.arc"
                    parts = [f"{kind} id={oid}"]
                    _GRAPHICS[kind].write_text(g, parts)
                    out.append(" ".join(parts))
    if s.axis_grid is not None:
        parts = [AXIS_GRID.kind]
        AXIS_GRID.record.write_text(s.axis_grid, parts)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def _object_reader(collection: str, record: Record):
    def read(scheme: Scheme, kv: dict) -> None:
        oid = take(kv, "id", int)
        store = getattr(scheme, collection)
        if oid in store:
            raise FieldError(f"duplicate id {oid}")
        # a symbol's graphics come on the symbol.seg and symbol.arc lines
        store[oid] = (record.read_text(kv, graphics=[]) if collection == "symbols"
                      else record.read_text(kv))
    return read


def _graphic_reader(record: Record):
    def read(scheme: Scheme, kv: dict) -> None:
        oid = take(kv, "id", int)
        sym = scheme.symbols.get(oid)
        if sym is None:
            raise FieldError(f"symbol {oid} not declared yet")
        sym.graphics.append(record.read_text(kv))
    return read


def _read_settings(line: Record, scheme: Scheme, kv: dict) -> None:
    for attr, v in line.text_values(kv).items():
        setattr(scheme.settings, attr, v)


def _read_grid(scheme: Scheme, kv: dict) -> None:
    if scheme.axis_grid is not None:
        raise FieldError("grid declared twice")
    scheme.axis_grid = AXIS_GRID.record.read_text(kv)


_READERS = (
    {kind: partial(_read_settings, line) for kind, line in _SETTINGS_LINES.items()}
    | {s.kind: _object_reader(s.collection, s.record) for s in SECTIONS}
    | {kind: _graphic_reader(record) for kind, record in _GRAPHICS.items()}
    | {AXIS_GRID.kind: _read_grid})


def load_text(text: str) -> Scheme:
    scheme = Scheme()
    seen_version = False
    for no, line in enumerate(text.split("\n"), start=1):
        token = _tokenize(line[:-1] if line.endswith("\r") else line, no)
        if token is None:
            continue
        kind, kv = token
        if kind == "scheme":
            try:
                version = int(kv.pop("version", None))
            except (ValueError, TypeError):
                raise ParseError("scheme: bad or missing version", no) from None
            if version > FORMAT_VERSION:
                raise ParseError(f"format version {version} too new", no)
            seen_version = True
        else:
            read = _READERS.get(kind)
            if read is None:
                raise ParseError(f"unknown record kind {kind!r}", no)
            try:
                read(scheme, kv)
            except FieldError as e:
                raise ParseError(f"{kind}: {e}", no) from None
        if kv:
            raise ParseError(f"{kind}: unknown keys {sorted(kv)}", no)
    if not seen_version:
        raise ParseError("missing 'scheme version=...' record", 1)
    check_references(scheme)
    scheme.next_ids = {name: max(getattr(scheme, name), default=0) + 1
                       for name in model.COLLECTIONS if getattr(scheme, name)}
    return scheme
