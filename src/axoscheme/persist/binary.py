"""Sectioned little-endian binary codec for the parameter set.

Layout: magic ``ASTS``, u16 format version, then one section per object list
(u8 tag, u32 payload length, payload).  Coordinates are 32-bit floats,
identifiers 16-bit indices renumbered densely from 1 (0 encodes "none"),
strings length-prefixed UTF-8.  Unknown future section tags are skipped.
Each record's layout comes from ``spec``.
"""

from .. import model
from ..model import Scheme
from .codec import Reader as _R
from .codec import U16, U32, write_varint
from .common import BadMagicError, TruncatedError, VersionError, check_references, saver
from .spec import AXIS_GRID, SECTIONS, SETTINGS, renumbered

MAGIC = b"ASTS"
VERSION = 1
SEC_SETTINGS = 17

_BY_TAG = {s.tag: s for s in SECTIONS}
_SETTINGS_DEFAULTS = [f.get(model.Settings()) for f in SETTINGS.fields]


def _section(out: bytearray, tag: int, payload: bytearray) -> None:
    out.append(tag)
    U32.write(out, len(payload))
    out += payload


@saver
def save_binary(scheme: Scheme) -> bytes:
    """Serialize to the compact parameter-set bytes (ids renumbered densely)."""
    s = renumbered(scheme)
    out = bytearray(MAGIC)
    U16.write(out, VERSION)
    for section in SECTIONS:
        items = getattr(s, section.collection)
        if not items:
            continue  # absent section semantics: empty list
        body = bytearray()
        write_varint(body, len(items))
        write = section.record.write
        for obj in items.values():
            write(body, obj)
        _section(out, section.tag, body)
    if s.axis_grid is not None:
        body = bytearray(b"\x01")
        AXIS_GRID.record.write(body, s.axis_grid)
        _section(out, AXIS_GRID.tag, body)

    # a u32 presence mask skips sub-blocks still equal to their defaults,
    # which keeps an empty scheme's parameter set tiny and leaves bits for
    # future extensions
    body = bytearray(4)
    mask = 0
    for i, (f, default) in enumerate(zip(SETTINGS.fields, _SETTINGS_DEFAULTS)):
        v = f.get(s.settings)
        if v != default:
            mask |= 1 << i
            f.write(body, v)
    body[:4] = mask.to_bytes(4, "little")
    _section(out, SEC_SETTINGS, body)
    return bytes(out)


def _read_settings(r: _R) -> model.Settings:
    kw = {}
    mask = U32.read(r)
    for i, f in enumerate(SETTINGS.fields):
        if mask >> i & 1:
            v = f.read(r)
            kw.update(zip(f.attr, v) if isinstance(f.attr, tuple) else ((f.attr, v),))
    return model.Settings(**kw)


def load_binary(data: bytes) -> Scheme:
    """Parse parameter-set bytes; raises a distinct error per failure kind."""
    r = _R(data)
    if len(data) < 6:
        raise TruncatedError("shorter than the fixed header")
    if r.raw(4) != MAGIC:
        raise BadMagicError("not a parameter-set stream")
    version = U16.read(r)
    if version > VERSION:
        raise VersionError(f"format version {version} is newer than {VERSION}")

    scheme = Scheme()
    seen_settings = False
    while not r.exhausted:
        tag = r.u8()
        body = _R(r.raw(U32.read(r)))
        if tag == SEC_SETTINGS:
            scheme.settings = _read_settings(body)
            seen_settings = True
        elif tag == AXIS_GRID.tag:
            if body.varint():
                scheme.axis_grid = AXIS_GRID.record.read(body)
        elif tag in _BY_TAG:
            section = _BY_TAG[tag]
            store = getattr(scheme, section.collection)
            read = section.record.read
            for i in range(body.varint()):
                store[i + 1] = read(body)
        # unknown tags are future extensions: skipped
    if not seen_settings:
        raise TruncatedError("settings section missing")
    check_references(scheme)
    scheme.next_ids = {name: len(getattr(scheme, name)) + 1
                       for name in model.COLLECTIONS if getattr(scheme, name)}
    return scheme
