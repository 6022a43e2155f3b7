"""Line-oriented text format: one record per line, ``kind key=value ...``.

Strings are double-quoted with backslash escapes; the four special text
symbols travel as ``\\sl`` ``\\sr`` ``\\deg`` ``\\dia``.  Comments start with
``#`` outside quotes.  Records end at a line feed, with one carriage return
before it dropped, and the first record is ``scheme version=1``.  Saving
renumbers identifiers densely and prints floats at 32-bit precision, so
text -> binary -> text is the identity.  The keys of each record come from
``spec``.
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
#
# A line is a kind and then key=value pairs, separated by blanks: spaces and
# tabs, and no other whitespace.  The kind is the first word.  A key runs to
# the first ``=`` of its word; a bare value runs to the next blank, so it may
# hold ``=``.  A quoted value is a list of comma-joined strings, and the next
# key may follow its closing quote without a blank.  ``#`` starts a comment
# where a kind or a key would start.

_UNESCAPES = {name: ch for ch, name in ESCAPES.items()}
# longest name first, so that \deg is not taken for an unknown \d
_NAMES = "|".join(map(re.escape, sorted(_UNESCAPES, key=len, reverse=True)))
_STRING = rf'"(?:[^"\\]|\\(?:{_NAMES}))*"'
# one step along a line after its kind: blanks, then a pair (its key in group
# 1, a quoted value in group 2, a bare one in group 3) or else a comment or
# nothing; a well-formed line's last step ends at its end
_STEP = re.compile(rf'[ \t]*(?:(?!#)([^= \t]*)=(?:({_STRING}(?:,{_STRING})*)(?!,)|(?!")([^ \t]*))'
                   rf'|(?:#.*)?)')
_PIECE = re.compile(rf'"((?:[^"\\]|\\(?:{_NAMES}))*)"')
_UNESCAPE = re.compile(rf"\\({_NAMES})")


def _unescape(s: str) -> str:
    return _UNESCAPE.sub(lambda m: _UNESCAPES[m.group(1)], s) if "\\" in s else s


def _split_quoted(line: str) -> tuple[str, dict] | None:
    """(kind, pairs) of a line that has quotes but no ``\\``, ``#`` or tab,
    read from its split on ``"``: words one space apart, each string opened
    right after a ``key=`` or continued by a lone ``,``, at most one space
    after a closing quote.  None for any other shape or a duplicate key: the
    scan then reads the line or reports where it goes wrong."""
    parts = line.split('"')
    kind, blank, outside = parts[0].partition(" ")
    if not blank or not len(parts) % 2:
        return None
    kv = {}
    pairs = 0
    i = 1  # parts[i] is the next string; parts[i - 1] is outside before it
    while True:
        if not outside:
            if i < len(parts):
                return None
            break
        words = outside.split(" ")
        if i < len(parts):
            key, eq, rest = words.pop().partition("=")
            if not eq or rest:
                return None
        for word in words:
            k, eq, value = word.partition("=")
            if not eq:
                return None
            kv[k] = value
        pairs += len(words)
        if i == len(parts):
            break
        strings = [parts[i]]
        while parts[i + 1] == "," and i + 2 < len(parts):
            i += 2
            strings.append(parts[i])
        kv[key] = strings
        pairs += 1
        outside = parts[i + 1]
        i += 2
        if outside[:1] == ",":
            return None
        if outside[:1] == " ":
            outside = outside[1:]
    return (kind, kv) if len(kv) == pairs else None


def _tokenize(line: str, no: int) -> tuple[str, dict] | None:
    """(kind, {key: bare value or list of strings}), or None for a blank or
    comment line."""
    words = line.split(" ")
    kind = words[0]
    if kind and "#" not in line and "\t" not in line:
        if '"' in line:
            token = None if "\\" in line else _split_quoted(line)
            if token is not None:
                return token
        else:
            # bare words one space apart, the most common line: split, no scan
            kv = {}
            for word in words[1:]:
                key, eq, value = word.partition("=")
                if not eq:
                    break  # not a pair: the scan below reports where
                kv[key] = value
            else:
                if len(kv) != len(words) - 1:
                    raise ParseError("duplicate key", no)
                return kind, kv
    body = line.lstrip(" \t")
    if not body or body[0] == "#":
        return None
    kind = body.partition(" ")[0].partition("\t")[0]
    pos = len(line) - len(body) + len(kind)
    kv = {}
    pairs = 0
    while True:
        m = _STEP.match(line, pos)
        pos = m.end()
        key, quoted, bare = m.groups()
        if key is None:
            break
        kv[key] = bare if quoted is None else [_unescape(p) for p in _PIECE.findall(quoted)]
        pairs += 1
    if pos != len(line):
        raise ParseError(f"expected key=value near column {pos + 1}", no)
    if len(kv) != pairs:
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
        store[oid] = obj = record.read_text(kv)
        if collection == "symbols":
            obj.graphics = []  # they come on the symbol.seg and symbol.arc lines
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
            if seen_version:
                raise ParseError("scheme: declared twice", no)
            try:
                version = int(kv.pop("version", None))
            except (ValueError, TypeError):
                raise ParseError("scheme: bad or missing version", no) from None
            if version > FORMAT_VERSION:
                raise ParseError(f"format version {version} too new", no)
            seen_version = True
        elif not seen_version:
            raise ParseError(f"{kind}: before the 'scheme version=...' record", no)
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
