"""Shared persistence machinery: errors, dense renumbering, f32 quantization."""

import copy
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
    return struct.unpack("<f", struct.pack("<f", v))[0]


def renumbered(scheme: Scheme) -> Scheme:
    """Copy of the scheme with identifiers densely renumbered from 1.

    Insertion order is preserved per collection; every stored reference is
    rewritten through the new numbering.
    """
    maps: dict[str, dict[int, int]] = {}
    for name in model.COLLECTIONS:
        store = getattr(scheme, name)
        maps[name] = {old: i + 1 for i, old in enumerate(store)}

    def m(name: str, old):
        if old is None:
            return None
        return maps[name][old]

    out = Scheme()
    for oid, p in scheme.points.items():
        out.points[m("points", oid)] = model.Point3(p.x, p.y, p.z)
    for oid, p in scheme.pipes.items():
        out.pipes[m("pipes", oid)] = model.Pipe(
            m("points", p.start), m("points", p.end),
            model.LineStyle(p.style.color, p.style.line_type))
    for oid, j in scheme.joints.items():
        # kind-dependent fields are canonicalized so both formats agree
        radius = j.radius if j.kind is model.JointKind.FILLET else 0.0
        out.joints[m("joints", oid)] = model.Joint(
            m("pipes", j.pipe_a), m("pipes", j.pipe_b), j.kind, radius)
    for oid, off in scheme.offsets.items():
        general = off.kind is model.OffsetKind.GENERAL
        out.offsets[m("offsets", oid)] = model.Offset(
            off.letter, off.ort, off.magnitude, off.kind,
            off.axis if general else None,
            off.plane_coord if general else 0.0,
            set() if general else {m("points", p) for p in off.displaced_points})
    for oid, b in scheme.breaks.items():
        out.breaks[m("breaks", oid)] = model.BreakLine(
            m("pipes", b.pipe), m("offsets", b.offset), b.paper_len,
            b.placement, b.label_shift_axial, b.label_shift_normal, b.glyph)
    for oid, s in scheme.symbols.items():
        out.symbols[m("symbols", oid)] = model.SymbolDef(
            s.name, copy.deepcopy(s.graphics), s.attach, tuple(s.cut_lengths),
            s.sym_axis, s.sym_normal, s.stretch_default)
    for oid, b in scheme.blocks.items():
        out.blocks[m("blocks", oid)] = model.Block(
            m("symbols", b.symbol), m("pipes", b.pipe), b.dist_from_start,
            m("pipes", b.pipe2), m("pipes", b.pipe3),
            model.LineStyle(b.style.color, b.style.line_type),
            b.flip, b.updir, b.stretch)
    for oid, t in scheme.texts.items():
        kind, lid = t.main_leader
        leader_map = "pipe_leaders" if kind is model.TargetKind.PIPE else "block_leaders"
        out.texts[m("texts", oid)] = model.Text(
            list(t.lines), (kind, m(leader_map, lid)),
            copy.deepcopy(t.font), t.line_step, t.color, tuple(t.offset_vec),
            t.slope_format)
    for oid, ld in scheme.pipe_leaders.items():
        out.pipe_leaders[m("pipe_leaders", oid)] = model.LeaderToPipe(
            m("texts", ld.text), m("pipes", ld.pipe), ld.t)
    for oid, ld in scheme.block_leaders.items():
        out.block_leaders[m("block_leaders", oid)] = model.LeaderToBlock(
            m("texts", ld.text), m("blocks", ld.block), tuple(ld.anchor))
    for oid, mk in scheme.position_marks.items():
        on_pipe = mk.target_kind is model.TargetKind.PIPE
        out.position_marks[m("position_marks", oid)] = model.PositionMark(
            mk.target_kind, m("pipes" if on_pipe else "blocks", mk.target),
            [m("spec_props", r) for r in mk.props],
            mk.anchor_t if on_pipe else 0.0,
            (0.0, 0.0) if on_pipe else tuple(mk.anchor_xy),
            copy.deepcopy(mk.font), mk.line_step, mk.color,
            tuple(mk.offset_vec), mk.shelf_from, mk.visible)
    for oid, sp in scheme.spec_props.items():
        out.spec_props[m("spec_props", oid)] = model.SpecProps(
            sp.position, sp.kind,
            sp.qty if sp.kind is model.SpecKind.FOR_BLOCK else 1.0,
            sp.designation, sp.name,
            sp.unit_mass_kg, sp.note, copy.deepcopy(sp.extended))
    for oid, d in scheme.dimensions.items():
        pts = [model.DimPoint(dp.kind, m(
            "points" if dp.kind is model.DimPointKind.POINT else "blocks", dp.ref))
            for dp in d.points]
        dim_dir = (model.DimDirection(pipe=m("pipes", d.dim_dir.pipe))
                   if d.dim_dir.along_pipe else d.dim_dir)
        out.dimensions[m("dimensions", oid)] = model.Dimension(
            pts, d.ext_axis, dim_dir, d.line_offset, d.text_offset)
    for oid, e in scheme.elevation_marks.items():
        on_pipe = e.target_kind is model.TargetKind.PIPE
        out.elevation_marks[m("elevation_marks", oid)] = model.ElevationMark(
            e.target_kind, m("pipes" if on_pipe else "blocks", e.target),
            e.t if on_pipe else 0.0, e.ext_axis,
            e.shelf_dir, e.arrow_shift, e.shelf_shift, e.line_type)
    for oid, sm in scheme.slope_marks.items():
        out.slope_marks[m("slope_marks", oid)] = model.SlopeMark(
            m("pipes", sm.pipe), sm.t, sm.shift, sm.format, sm.precision)
    out.axis_grid = copy.deepcopy(scheme.axis_grid)
    out.settings = copy.deepcopy(scheme.settings)
    out.next_ids = {name: len(getattr(out, name)) + 1
                    for name in model.COLLECTIONS if getattr(out, name)}
    return out
