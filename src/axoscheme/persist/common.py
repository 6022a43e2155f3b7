"""Shared persistence machinery: errors, dense renumbering, f32 quantization."""

import struct

from .. import model
from ..model import Scheme, SchemeError


class PersistError(SchemeError):
    """Base class for load/save failures."""


class BadMagicError(PersistError):
    pass


class TruncatedError(PersistError):
    pass


class VersionError(PersistError):
    pass


class CorruptError(PersistError):
    """Bytes that do not decode: malformed UTF-8 or an unknown enum code."""


class DanglingIndexError(PersistError):
    pass


class ParseError(PersistError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def q32(v: float) -> float:
    """Quantize to the nearest 32-bit float, the on-disk precision."""
    try:
        return struct.unpack("<f", struct.pack("<f", v))[0]
    except OverflowError:
        raise PersistError(f"{v!r} is outside the 32-bit float range") from None


def check_references(scheme: Scheme) -> None:
    """Raise DanglingIndexError at the first stored id that does not resolve."""
    for name, oid, field, target, rid in model.dangling_refs(scheme):
        raise DanglingIndexError(f"{model.SUBJECTS[name]}:{oid} {field} references "
                                 f"missing {target[:-1]} {rid}")


def renumbered(scheme: Scheme) -> Scheme:
    """Shallow copy of the scheme with identifiers densely renumbered from 1,
    for the savers.

    Insertion order is preserved per collection; every stored reference is
    rewritten through the new numbering.  Fields a record's kind makes
    meaningless are reset so that both formats agree.  Raises
    DanglingIndexError when a reference does not resolve.
    """
    maps = {name: {old: i for i, old in enumerate(getattr(scheme, name), 1)}
            for name in model.COLLECTIONS}
    out = Scheme(axis_grid=scheme.axis_grid, settings=scheme.settings)
    for name in model.COLLECTIONS:
        getattr(out, name).update(
            (i, type(obj)(**vars(obj))) for i, obj in enumerate(getattr(scheme, name).values(), 1))
    try:
        for ref in model.REFERENCES:
            for obj in getattr(out, ref.collection).values():
                setattr(obj, ref.field, ref.mapped(obj, lambda target, old: maps[target][old]))
    except KeyError:
        check_references(scheme)
        raise

    for j in out.joints.values():
        if j.kind is not model.JointKind.FILLET:
            j.radius = 0.0
    for off in out.offsets.values():
        if off.kind is model.OffsetKind.GENERAL:
            off.displaced_points = set()
        else:
            off.axis = None
            off.plane_coord = 0.0
    for mk in out.position_marks.values():
        if mk.target_kind is model.TargetKind.PIPE:
            mk.anchor_xy = (0.0, 0.0)
        else:
            mk.anchor_t = 0.0
    for sp in out.spec_props.values():
        if sp.kind is model.SpecKind.FOR_PIPE:
            sp.qty = 1.0
    for e in out.elevation_marks.values():
        if e.target_kind is not model.TargetKind.PIPE:
            e.t = 0.0
    return out
