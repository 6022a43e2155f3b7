"""The parameter set's records, each described once for both formats.

Every section record and every settings sub-block is one ``Record``: its
fields in binary order, each with its model attribute, text key and codec.
``text`` and ``binary`` derive their writers and readers from these lists,
and ``renumbered`` resets from them the fields a record's kind voids.  Which
fields hold identifiers of which collections is said once, in
``model.REFERENCES``; here an identifier is only a number (``ID`` and the
codecs built on it).
"""

from collections import namedtuple
from dataclasses import fields
from operator import attrgetter

from .. import model
from .codec import (
    F32,
    FLAG,
    ID,
    LINES,
    OPT_ID,
    STR,
    U8,
    U16,
    Codec,
    Field,
    Reader,
    Record,
    as_flag,
    enum,
    listof,
    opt_enum,
    write_varint,
)
from .common import check_references

F = Field

# -- codecs with a text form of their own --------------------------------------

_target_kind, _axis = enum(model.TargetKind), enum(model.Axis)


def _parse_target(raw) -> tuple[model.TargetKind, int]:
    head, _, tail = raw.partition(":")
    if not tail:
        raise ValueError(raw)
    return _target_kind.parse(head), int(tail)


# an object on a pipe or a block: ``pipe:N`` / ``block:N``; kind u8, id u16
TARGET = Codec(
    lambda v: f"{_target_kind.text(v[0])}:{ID.text(v[1])}", _parse_target,
    lambda out, v: (_target_kind.write(out, v[0]), ID.write(out, v[1])),
    lambda r: (_target_kind.read(r), ID.read(r)))


def _parse_dim_point(raw) -> model.DimPoint:
    if len(raw) < 2 or raw[0] not in "pb":
        raise ValueError(raw)
    kind = model.DimPointKind.POINT if raw[0] == "p" else model.DimPointKind.BLOCK
    return model.DimPoint(kind, int(raw[1:]))


_dim_point_kind = enum(model.DimPointKind)
# a dimension point: ``p<point id>`` or ``b<block id>``
DIM_POINT = Codec(
    lambda v: ("p" if v.kind is model.DimPointKind.POINT else "b") + ID.text(v.ref),
    _parse_dim_point,
    lambda out, v: (_dim_point_kind.write(out, v.kind), ID.write(out, v.ref)),
    lambda r: model.DimPoint(_dim_point_kind.read(r), ID.read(r)))


def _write_dim_dir(out, v):
    if v.along_pipe:
        out.append(1)
        ID.write(out, v.pipe)
    else:
        out.append(0)
        _axis.write(out, v.axis)


# a dimension direction: ``pipe:N`` or an axis; a u8 tag, then the pipe or axis
DIM_DIR = Codec(
    lambda v: f"pipe:{ID.text(v.pipe)}" if v.along_pipe else _axis.text(v.axis),
    lambda raw: (model.DimDirection(pipe=int(raw[5:])) if raw.startswith("pipe:")
                 else model.DimDirection(axis=_axis.parse(raw))),
    _write_dim_dir,
    lambda r: (model.DimDirection(pipe=ID.read(r)) if r.u8()
               else model.DimDirection(axis=_axis.read(r))))


def _parse_group(raw) -> model.AxisGroup:
    count, _, step = raw.partition("x")
    if not step:
        raise ValueError(raw)
    return model.AxisGroup(int(count), F32.parse(step))


# an axis group: ``<count>x<step>``
GROUP = Codec(
    lambda v: f"{U16.text(v.count)}x{F32.text(v.step)}", _parse_group,
    lambda out, v: (U16.write(out, v.count), F32.write(out, v.step)),
    lambda r: model.AxisGroup(U16.read(r), F32.read(r)))


def _parse_ort(raw) -> tuple[float, float, float]:
    x, y, z = raw.split(",")
    return F32.parse(x), F32.parse(y), F32.parse(z)


# a direction: three comma-joined components on one key
ORT = Codec(
    lambda v: ",".join(map(F32.text, v)), _parse_ort,
    lambda out, v: [F32.write(out, c) for c in v],
    lambda r: (F32.read(r), F32.read(r), F32.read(r)))


def _parse_slice(raw) -> model.Slice:
    if raw == "all":
        return model.Slice()
    lo, _, hi = raw.partition(":")
    return model.Slice(F32.parse(lo), F32.parse(hi))


# a height slab: ``all`` or ``zmin:zmax``; its binary sub-block is absent for all
SLICE = Codec(
    lambda v: "all" if v.is_all else f"{F32.text(v.z_min)}:{F32.text(v.z_max)}",
    _parse_slice,
    lambda out, v: (F32.write(out, v.z_min), F32.write(out, v.z_max)),
    lambda r: model.Slice(F32.read(r), F32.read(r)))

U16_SET = listof(U16, set, sort=True)
ID_SET = listof(ID, set, sort=True)
ID_LIST = listof(ID)
DIM_POINTS = listof(DIM_POINT)

# -- nested records ------------------------------------------------------------

_line = enum(model.LineType)
STYLE = Record(model.LineStyle, F("color", "color", U8), F("line_type", "line", _line))
FONT = Record(
    model.FontSetting, F("face", "font_face", STR), F("height", "font_h", F32),
    F("width_factor", "font_w", F32), F("slant", "font_i", FLAG))
EXTENDED = Record(
    model.ExtendedProps, F("type_mark", "ext_type", STR), F("name_and_spec", "ext_name", STR),
    F("unit_name", "ext_unit", STR), F("manufacturer", "ext_maker", STR),
    F("equipment_code", "ext_code", STR))
GRID_SETTINGS = Record(
    model.GridSettings,
    F("digits_label_x", "digits_x", FLAG), F("plane_z", "plane_z", F32),
    F("bend_shift_z", "bend_z", F32),
    F("visible_x", "visible_x", U16_SET, missing=""),
    F("visible_y", "visible_y", U16_SET, missing=""),
    F("dim_offset_x", "dim_off_x", F32), F("dim_offset_y", "dim_off_y", F32),
    F("lead_len_x", "lead_x", F32), F("lead_len_y", "lead_y", F32),
    F("first_number", "first_number", U16), F("first_letter", "first_letter", STR),
    F("overall_dim_x", "overall_x", FLAG), F("overall_dim_y", "overall_y", FLAG),
    F("dir_positive_x", "dir_x", FLAG), F("dir_positive_y", "dir_y", FLAG),
    F("labels_at_first", "labels_first", FLAG), F("color", "color", U8))
SEGMENT = Record(model.SymbolSegment, *(F(n, n, F32) for n in ("x1", "y1", "x2", "y2")))
ARC = Record(model.SymbolArc, *(F(n, n, F32) for n in ("cx", "cy", "r", "a0", "a1")))


def _write_graphics(out, v):
    write_varint(out, len(v))
    for g in v:
        if isinstance(g, model.SymbolSegment):
            out.append(0)
            SEGMENT.write(out, g)
        else:
            out.append(1)
            ARC.write(out, g)


# symbol graphics: in binary a count, then per item a u8 tag (0 segment,
# else arc) and its record; in text their own ``symbol.seg``/``symbol.arc``
# lines after the symbol's, so this codec has no text form
GRAPHICS = Codec(None, None, _write_graphics, lambda r: [
    SEGMENT.read(r) if r.u8() == 0 else ARC.read(r) for _ in range(r.varint())])


class _Flags(Record):
    """A record of flags, stored in binary as a u16 bitmask in field order."""

    def write(self, out, obj):
        U16.write(out, sum(1 << i for i, f in enumerate(self.fields) if as_flag(f.get(obj))))

    def read(self, r: Reader):
        mask = U16.read(r)
        return self.cls(*(bool(mask & 1 << i) for i in range(len(self.fields))))


VISIBILITY = _Flags(model.Visibility,
                    *(F(f.name, f.name, FLAG) for f in fields(model.Visibility)))

# -- sections ------------------------------------------------------------------

def _general(off) -> bool:
    return off.kind is model.OffsetKind.GENERAL


def _on_pipe(obj) -> bool:
    return obj.target_kind is model.TargetKind.PIPE


# one object collection: its text record kind and binary section tag
Section = namedtuple("Section", "collection kind tag record")


SECTIONS = (
    Section("points", "point", 1, Record(
        model.Point3, F("x", "x", F32), F("y", "y", F32), F("z", "z", F32))),
    Section("pipes", "pipe", 2, Record(
        model.Pipe, F("start", "a", ID), F("end", "b", ID), F("style", None, STYLE))),
    Section("joints", "joint", 3, Record(
        model.Joint, F("pipe_a", "a", ID), F("pipe_b", "b", ID),
        F("kind", "kind", enum(model.JointKind)),
        F("radius", "radius", F32, when=lambda j: j.kind is model.JointKind.FILLET))),
    Section("offsets", "offset", 4, Record(
        model.Offset, F("letter", "letter", STR), F("ort", "ort", ORT),
        F("magnitude", "mag", F32), F("kind", "kind", enum(model.OffsetKind)),
        F("axis", "axis", opt_enum(model.Axis), when=_general),
        F("plane_coord", "plane", F32, when=_general),
        F("displaced_points", "displaced", ID_SET, missing="",
          when=lambda off: not _general(off)),
        text_order=("letter", "kind", "magnitude", "ort", "axis", "plane_coord",
                    "displaced_points"))),
    Section("breaks", "break", 5, Record(
        model.BreakLine, F("pipe", "pipe", ID), F("offset", "offset", ID),
        F("paper_len", "paper_len", F32), F("placement", "pos", F32),
        F("label_shift_axial", "label_ax", F32), F("label_shift_normal", "label_norm", F32),
        F("glyph", "glyph", enum(model.BreakGlyph)))),
    Section("symbols", "symbol", 6, Record(
        model.SymbolDef, F("name", "name", STR), F("attach", "attach", enum(model.Attach)),
        F("graphics", None, GRAPHICS), F("cut_lengths", "cuts", listof(F32, tuple)),
        F("sym_axis", "sym_axis", FLAG), F("sym_normal", "sym_normal", FLAG),
        F("stretch_default", "stretch", F32),
        text_order=("name", "attach", "cut_lengths", "sym_axis", "sym_normal",
                    "stretch_default"))),
    Section("blocks", "block", 7, Record(
        model.Block, F("symbol", "symbol", ID), F("pipe", "pipe", ID),
        F("dist_from_start", "dist", F32), F("pipe2", "pipe2", OPT_ID, sparse=True),
        F("pipe3", "pipe3", OPT_ID, sparse=True), F("style", None, STYLE),
        F("flip", "flip", FLAG), F("updir", "updir", enum(model.UpDir)),
        F("stretch", "stretch", F32),
        text_order=("symbol", "pipe", "dist_from_start", "pipe2", "pipe3", "flip",
                    "updir", "stretch", "style"))),
    Section("texts", "text", 8, Record(
        model.Text, F("lines", "lines", LINES), F("main_leader", "main", TARGET),
        F("font", None, FONT), F("line_step", "line_step", F32), F("color", "color", U8),
        F("offset_vec", ("ox", "oy"), F32),
        F("slope_format", "slope_format", opt_enum(model.SlopeFormat), sparse=True),
        text_order=("main_leader", "color", "line_step", "offset_vec", "font",
                    "slope_format", "lines"))),
    Section("pipe_leaders", "leaderp", 9, Record(
        model.LeaderToPipe, F("text", "text", ID), F("pipe", "pipe", ID), F("t", "t", F32))),
    Section("block_leaders", "leaderb", 10, Record(
        model.LeaderToBlock, F("text", "text", ID), F("block", "block", ID),
        F("anchor", ("x", "y"), F32))),
    Section("position_marks", "posmark", 11, Record(
        model.PositionMark, F(("target_kind", "target"), "target", TARGET),
        F("anchor_t", "t", F32, when=_on_pipe),
        F("anchor_xy", ("ax", "ay"), F32, when=lambda mk: not _on_pipe(mk)),
        F("props", "props", ID_LIST), F("font", None, FONT),
        F("line_step", "line_step", F32), F("color", "color", U8),
        F("offset_vec", ("ox", "oy"), F32), F("shelf_from", "shelf_from", enum(model.ShelfFrom)),
        F("visible", "visible", FLAG),
        text_order=("target_kind", "anchor_t", "anchor_xy", "props", "font", "color",
                    "line_step", "offset_vec", "shelf_from", "visible"))),
    Section("spec_props", "props", 12, Record(
        model.SpecProps, F("position", "position", U16), F("kind", "kind", enum(model.SpecKind)),
        F("qty", "qty", F32, when=lambda sp: sp.kind is model.SpecKind.FOR_BLOCK),
        F("designation", "designation", STR), F("name", "name", STR),
        F("unit_mass_kg", "mass", F32), F("note", "note", STR),
        F("extended", None, EXTENDED, sparse=True))),
    Section("dimensions", "dim", 13, Record(
        model.Dimension, F("points", "points", DIM_POINTS),
        F("ext_axis", "ext", _axis), F("dim_dir", "dir", DIM_DIR),
        F("line_offset", "line_offset", F32), F("text_offset", "text_offset", F32),
        text_order=("ext_axis", "dim_dir", "points", "line_offset", "text_offset"))),
    Section("elevation_marks", "elev", 14, Record(
        model.ElevationMark, F(("target_kind", "target"), "target", TARGET),
        F("t", "t", F32, when=_on_pipe), F("ext_axis", "ext", _axis),
        F("shelf_dir", "shelf", enum(model.ShelfDir)), F("arrow_shift", "arrow_shift", F32),
        F("shelf_shift", "shelf_shift", F32), F("line_type", "line", _line))),
    Section("slope_marks", "slope", 15, Record(
        model.SlopeMark, F("pipe", "pipe", ID), F("t", "t", F32), F("shift", "shift", F32),
        F("format", "format", enum(model.SlopeFormat)), F("precision", "precision", U8))),
)

# the axis grid: at most one, so its text line has no id and its binary
# section's record count is 0 or 1
AXIS_GRID = Section("axis_grid", "grid", 16, Record(
    model.AxisGrid, F("x_groups", "xgroups", listof(GROUP), missing=""),
    F("y_groups", "ygroups", listof(GROUP), missing=""), F("settings", None, GRID_SETTINGS)))

# -- settings ------------------------------------------------------------------

# The sub-blocks in binary order: the settings section stores a presence
# mask with bit i set for each sub-block i that differs from its default,
# then those sub-blocks.
SETTINGS = Record(
    model.Settings,
    F("pipe_style", None, STYLE),
    F("joint", None, Record(model.JointDefaults, F("kind", "kind", enum(model.JointKind)),
                            F("radius", "radius", F32))),
    F("breaks", None, Record(
        model.BreakSettings, F("paper_len", "paper_len", F32),
        F("label_shift_axial", "label_ax", F32), F("label_shift_normal", "label_norm", F32),
        F("dot_step", "dot_step", F32), F("wave_diameter", "wave_d", F32),
        F("label_font", None, FONT))),
    F("block", None, Record(
        model.BlockDefaults, F("stretch", "stretch", F32), F("style", None, STYLE))),
    F("text", None, Record(
        model.TextDefaults, F("font", None, FONT), F("color", "color", U8),
        F("line_step", "line_step", F32), F("shelf_from", "shelf_from", enum(model.ShelfFrom)),
        F("second_shelf", "second_shelf", FLAG))),
    F("mark", None, Record(
        model.MarkDefaults, F("font", None, FONT), F("color", "color", U8),
        F("line_step", "line_step", F32), F("shelf_from", "shelf_from", enum(model.ShelfFrom)))),
    F("dimension", None, Record(
        model.DimensionSettings, F("font", None, FONT), F("arrow_len", "arrow", F32),
        F("precision", "precision", U8), F("color", "color", U8),
        F("text_offset", "text_offset", F32), F("ext_overshoot", "overshoot", F32))),
    F("elevation", None, Record(
        model.ElevationSettings, F("line_type", "line", _line), F("ext_axis", "ext", _axis),
        F("shelf_dir", "shelf", enum(model.ShelfDir)), F("arrow_shift", "arrow_shift", F32),
        F("shelf_shift", "shelf_shift", F32), F("font", None, FONT),
        F("arrow_len", "arrow_len", F32), F("color", "color", U8))),
    F("slope", None, Record(
        model.SlopeSettings, F("shift", "shift", F32),
        F("format", "format", enum(model.SlopeFormat)), F("precision", "precision", U8),
        F("font", None, FONT), F("arrow_len", "arrow_len", F32),
        F("arrow_span", "arrow_span", F32), F("color", "color", U8))),
    F("grid", None, GRID_SETTINGS),
    F("flange_positions", "positions", U8),
    F("occlusion_gap_len", "occlusion_gap", F32),
    F("current_param_file", "param_file", STR),
    F("projection", "projection", STR),
    F("slice", "slice", SLICE),
    F("visibility", None, VISIBILITY),
    F(("work_temperature", "work_pressure"), ("temperature", "pressure"), F32),
    F("autonumber", "autonumber", FLAG),
    F("spec_extended", "spec_extended", FLAG),
    F("scale", "scale", F32),
)

# text record kind -> the settings fields on its line, in output order
SETTINGS_LINES = {
    "set.pipe": ("pipe_style",), "set.joint": ("joint",), "set.break": ("breaks",),
    "set.block": ("block",), "set.text": ("text",), "set.posmark": ("mark",),
    "set.dim": ("dimension",), "set.elev": ("elevation",), "set.slope": ("slope",),
    "set.grid": ("grid",), "set.flange": ("flange_positions",),
    "set.mode": ("occlusion_gap_len", "current_param_file", "projection", "slice",
                 "work_temperature", "autonumber", "spec_extended", "scale"),
    "set.visibility": ("visibility",),
}


def _copier(record: Record):
    """Shallow copy through the constructor, which keeps the copy as compact
    and fast as the original (setting its ``__dict__`` would not)."""
    cls, get = record.cls, attrgetter(*(f.name for f in fields(record.cls)))
    return lambda obj: cls(*get(obj))


# collections whose objects the savers rewrite, and so copy first
_COPIERS = {s.collection: _copier(s.record) for s in SECTIONS
            if s.record.voidable or any(ref.collection == s.collection
                                        for ref in model.REFERENCES)}


def renumbered(scheme: model.Scheme) -> model.Scheme:
    """Shallow copy of the scheme with identifiers densely renumbered from 1,
    for the savers.

    Insertion order is preserved per collection; every stored reference is
    rewritten through the new numbering.  Fields a record's kind voids are
    reset to their defaults so that both formats agree.  Raises
    DanglingIndexError when a reference does not resolve.
    """
    maps = {name: {old: i for i, old in enumerate(getattr(scheme, name), 1)}
            for name in model.COLLECTIONS}
    out = model.Scheme(axis_grid=scheme.axis_grid, settings=scheme.settings)
    for name in model.COLLECTIONS:
        objs = getattr(scheme, name).values()
        getattr(out, name).update(enumerate(map(_COPIERS[name], objs) if name in _COPIERS
                                            else objs, 1))
    try:
        for ref in model.REFERENCES:
            objs = getattr(out, ref.collection).values()
            if ref.shape is None and isinstance(ref.target, str):
                # one id or None, read without mapped(): most references are
                # these, and a call per reference was a third of a save
                new, name, get = maps[ref.target], ref.field, attrgetter(ref.field)
                for obj in objs:
                    old = get(obj)
                    if old is not None:
                        setattr(obj, name, new[old])
            else:
                for obj in objs:
                    setattr(obj, ref.field, ref.mapped(obj, lambda target, old: maps[target][old]))
    except KeyError:
        check_references(scheme)
        raise
    for section in SECTIONS:
        for when, attr, default in section.record.voidable:
            for obj in getattr(out, section.collection).values():
                if not when(obj):
                    setattr(obj, attr, default())
    return out
