"""Sectioned little-endian binary codec for the parameter set.

Layout: magic ``ASTS``, u16 format version, then one section per object list
(u8 tag, u32 payload length, payload).  Coordinates are 32-bit floats,
identifiers 16-bit indices renumbered densely from 1 (0 encodes "none"),
strings length-prefixed UTF-8.  Unknown future section tags are skipped.
"""

import io
import struct

from .. import model
from ..model import (
    Attach,
    Axis,
    BreakGlyph,
    DimPointKind,
    JointKind,
    LineType,
    OffsetKind,
    Scheme,
    ShelfDir,
    ShelfFrom,
    SlopeFormat,
    SpecKind,
    TargetKind,
    UpDir,
)
from .common import (
    BadMagicError,
    CorruptError,
    PersistError,
    TruncatedError,
    VersionError,
    check_references,
    renumbered,
)

MAGIC = b"ASTS"
VERSION = 1

SEC_POINTS = 1
SEC_PIPES = 2
SEC_JOINTS = 3
SEC_OFFSETS = 4
SEC_BREAKS = 5
SEC_SYMBOLS = 6
SEC_BLOCKS = 7
SEC_TEXTS = 8
SEC_PIPE_LEADERS = 9
SEC_BLOCK_LEADERS = 10
SEC_POSITION_MARKS = 11
SEC_SPEC_PROPS = 12
SEC_DIMENSIONS = 13
SEC_ELEVATIONS = 14
SEC_SLOPES = 15
SEC_GRID = 16
SEC_SETTINGS = 17

_ENUMS = {
    LineType: (LineType.SOLID, LineType.DASHED, LineType.DASH_DOT, LineType.DOTTED),
    JointKind: (JointKind.BUTT, JointKind.FILLET),
    OffsetKind: (OffsetKind.GENERAL, OffsetKind.LOCAL),
    BreakGlyph: (BreakGlyph.DOTS, BreakGlyph.WAVES),
    Attach: (Attach.AXIAL, Attach.ANGULAR, Attach.TEE),
    UpDir: (UpDir.XP, UpDir.XM, UpDir.YP, UpDir.YM, UpDir.ZP, UpDir.ZM,
            UpDir.PIPE2, UpDir.PIPE3),
    TargetKind: (TargetKind.PIPE, TargetKind.BLOCK),
    ShelfFrom: (ShelfFrom.START, ShelfFrom.END),
    SpecKind: (SpecKind.FOR_PIPE, SpecKind.FOR_BLOCK),
    DimPointKind: (DimPointKind.POINT, DimPointKind.BLOCK),
    Axis: (Axis.X, Axis.Y, Axis.Z),
    ShelfDir: (ShelfDir.XP, ShelfDir.XM, ShelfDir.YP, ShelfDir.YM),
    SlopeFormat: (SlopeFormat.ANGLE, SlopeFormat.RATIO, SlopeFormat.PERCENT),
}

_VISIBILITY_FIELDS = (
    "pipes", "joints", "breaks", "blocks", "texts", "position_marks",
    "dimensions", "elevations", "slopes", "grid", "axes_icon", "occlusion",
    "break_letters", "covered_pipes", "hidden_marks",
)


class _W:
    def __init__(self):
        self.buf = io.BytesIO()

    def raw(self, b: bytes):
        self.buf.write(b)

    def pack(self, fmt: str, kind: str, v):
        try:
            self.raw(struct.pack(fmt, v))
        except (struct.error, OverflowError):
            raise PersistError(f"{v!r} does not fit its {kind} field") from None

    def u8(self, v: int):
        self.pack("<B", "u8", v)

    def u16(self, v: int):
        self.pack("<H", "u16", v)

    def u32(self, v: int):
        self.raw(struct.pack("<I", v))

    def f32(self, v: float):
        self.pack("<f", "f32", v)

    def varint(self, v: int):
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                self.raw(bytes((b | 0x80,)))
            else:
                self.raw(bytes((b,)))
                return

    def s(self, text: str):
        data = text.encode("utf-8")
        self.varint(len(data))
        self.raw(data)

    def b(self, flag: bool):
        self.u8(1 if flag else 0)

    def enum(self, value):
        self.u8(_ENUMS[type(value)].index(value))

    def opt_id(self, v: int | None):
        self.u16(0 if v is None else v)

    def font(self, f: model.FontSetting):
        self.s(f.face)
        self.f32(f.height)
        self.f32(f.width_factor)
        self.b(f.slant)

    def getvalue(self) -> bytes:
        return self.buf.getvalue()


def _decode_enum(cls, code: int):
    values = _ENUMS[cls]
    if code >= len(values):
        raise CorruptError(f"bad {cls.__name__} code {code}")
    return values[code]


class _R:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError("unexpected end of data")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.raw(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.raw(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self.raw(4))[0]

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

    def b(self) -> bool:
        return self.u8() != 0

    def enum(self, cls):
        return _decode_enum(cls, self.u8())

    def opt_enum(self, cls):
        """An enum stored as its code plus one, with 0 for None."""
        code = self.u8()
        return None if code == 0 else _decode_enum(cls, code - 1)

    def opt_id(self) -> int | None:
        v = self.u16()
        return None if v == 0 else v

    def font(self) -> model.FontSetting:
        return model.FontSetting(self.s(), self.f32(), self.f32(), self.b())

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


# -- per-record writers -------------------------------------------------------

def _w_style(w: _W, st: model.LineStyle):
    w.u8(st.color)
    w.enum(st.line_type)


def _r_style(r: _R) -> model.LineStyle:
    return model.LineStyle(r.u8(), r.enum(LineType))


def _w_grid_settings(w: _W, gs: model.GridSettings):
    w.b(gs.digits_label_x)
    w.f32(gs.plane_z)
    w.f32(gs.bend_shift_z)
    for vis in (gs.visible_x, gs.visible_y):
        w.varint(len(vis))
        for i in sorted(vis):
            w.u16(i)
    for v in (gs.dim_offset_x, gs.dim_offset_y, gs.lead_len_x, gs.lead_len_y):
        w.f32(v)
    w.u16(gs.first_number)
    w.s(gs.first_letter)
    for flag in (gs.overall_dim_x, gs.overall_dim_y, gs.dir_positive_x,
                 gs.dir_positive_y, gs.labels_at_first):
        w.b(flag)
    w.u8(gs.color)


def _r_grid_settings(r: _R) -> model.GridSettings:
    gs = model.GridSettings()
    gs.digits_label_x = r.b()
    gs.plane_z = r.f32()
    gs.bend_shift_z = r.f32()
    gs.visible_x = {r.u16() for _ in range(r.varint())}
    gs.visible_y = {r.u16() for _ in range(r.varint())}
    gs.dim_offset_x = r.f32()
    gs.dim_offset_y = r.f32()
    gs.lead_len_x = r.f32()
    gs.lead_len_y = r.f32()
    gs.first_number = r.u16()
    gs.first_letter = r.s()
    gs.overall_dim_x = r.b()
    gs.overall_dim_y = r.b()
    gs.dir_positive_x = r.b()
    gs.dir_positive_y = r.b()
    gs.labels_at_first = r.b()
    gs.color = r.u8()
    return gs


# Sub-blocks of the settings section, written in this fixed order; a u32
# presence mask skips blocks still equal to their defaults, which keeps an
# empty scheme's parameter set tiny and leaves bits for future extensions.

def _w_settings(w: _W, st: model.Settings):
    default = model.Settings()
    blocks: list[tuple[bool, object]] = []

    def block(changed: bool, write) -> None:
        blocks.append((changed, write))

    block(st.pipe_style != default.pipe_style, lambda: _w_style(w, st.pipe_style))

    def w_joint():
        w.enum(st.joint.kind)
        w.f32(st.joint.radius)

    block(st.joint != default.joint, w_joint)

    def w_breaks():
        br = st.breaks
        for v in (br.paper_len, br.label_shift_axial, br.label_shift_normal,
                  br.dot_step, br.wave_diameter):
            w.f32(v)
        w.font(br.label_font)

    block(st.breaks != default.breaks, w_breaks)

    def w_block_defaults():
        w.f32(st.block.stretch)
        _w_style(w, st.block.style)

    block(st.block != default.block, w_block_defaults)

    def w_text():
        w.font(st.text.font)
        w.u8(st.text.color)
        w.f32(st.text.line_step)
        w.enum(st.text.shelf_from)
        w.b(st.text.second_shelf)

    block(st.text != default.text, w_text)

    def w_mark():
        w.font(st.mark.font)
        w.u8(st.mark.color)
        w.f32(st.mark.line_step)
        w.enum(st.mark.shelf_from)

    block(st.mark != default.mark, w_mark)

    def w_dim():
        dm = st.dimension
        w.font(dm.font)
        w.f32(dm.arrow_len)
        w.u8(dm.precision)
        w.u8(dm.color)
        w.f32(dm.text_offset)
        w.f32(dm.ext_overshoot)

    block(st.dimension != default.dimension, w_dim)

    def w_elev():
        el = st.elevation
        w.enum(el.line_type)
        w.enum(el.ext_axis)
        w.enum(el.shelf_dir)
        w.f32(el.arrow_shift)
        w.f32(el.shelf_shift)
        w.font(el.font)
        w.f32(el.arrow_len)
        w.u8(el.color)

    block(st.elevation != default.elevation, w_elev)

    def w_slope():
        sl = st.slope
        w.f32(sl.shift)
        w.enum(sl.format)
        w.u8(sl.precision)
        w.font(sl.font)
        w.f32(sl.arrow_len)
        w.f32(sl.arrow_span)
        w.u8(sl.color)

    block(st.slope != default.slope, w_slope)
    block(st.grid != default.grid, lambda: _w_grid_settings(w, st.grid))
    block(st.flange_positions != default.flange_positions,
          lambda: w.u8(st.flange_positions))
    block(st.occlusion_gap_len != default.occlusion_gap_len,
          lambda: w.f32(st.occlusion_gap_len))
    block(st.current_param_file != "", lambda: w.s(st.current_param_file))
    block(st.projection != default.projection, lambda: w.s(st.projection))

    def w_slice():
        w.f32(st.slice.z_min)
        w.f32(st.slice.z_max)

    block(not st.slice.is_all, w_slice)

    def w_visibility():
        mask = 0
        for i, name in enumerate(_VISIBILITY_FIELDS):
            if getattr(st.visibility, name):
                mask |= 1 << i
        w.u16(mask)

    block(st.visibility != default.visibility, w_visibility)

    def w_filters():
        w.f32(st.work_temperature)
        w.f32(st.work_pressure)

    block((st.work_temperature, st.work_pressure)
          != (default.work_temperature, default.work_pressure), w_filters)
    block(st.autonumber != default.autonumber, lambda: w.b(st.autonumber))
    block(st.spec_extended != default.spec_extended, lambda: w.b(st.spec_extended))
    block(st.scale != default.scale, lambda: w.f32(st.scale))

    mask = 0
    for i, (changed, _) in enumerate(blocks):
        if changed:
            mask |= 1 << i
    w.u32(mask)
    for changed, write in blocks:
        if changed:
            write()


def _r_settings(r: _R) -> model.Settings:
    st = model.Settings()
    mask = r.u32()

    def present(i: int) -> bool:
        return bool(mask & (1 << i))

    if present(0):
        st.pipe_style = _r_style(r)
    if present(1):
        st.joint = model.JointDefaults(r.enum(JointKind), r.f32())
    if present(2):
        br = model.BreakSettings()
        br.paper_len = r.f32()
        br.label_shift_axial = r.f32()
        br.label_shift_normal = r.f32()
        br.dot_step = r.f32()
        br.wave_diameter = r.f32()
        br.label_font = r.font()
        st.breaks = br
    if present(3):
        st.block = model.BlockDefaults(r.f32(), _r_style(r))
    if present(4):
        st.text = model.TextDefaults(r.font(), r.u8(), r.f32(),
                                     r.enum(ShelfFrom), r.b())
    if present(5):
        st.mark = model.MarkDefaults(r.font(), r.u8(), r.f32(), r.enum(ShelfFrom))
    if present(6):
        st.dimension = model.DimensionSettings(
            r.font(), r.f32(), r.u8(), r.u8(), r.f32(), r.f32())
    if present(7):
        st.elevation = model.ElevationSettings(
            r.enum(LineType), r.enum(Axis), r.enum(ShelfDir), r.f32(), r.f32(),
            r.font(), r.f32(), r.u8())
    if present(8):
        st.slope = model.SlopeSettings(
            r.f32(), r.enum(SlopeFormat), r.u8(), r.font(), r.f32(), r.f32(),
            r.u8())
    if present(9):
        st.grid = _r_grid_settings(r)
    if present(10):
        st.flange_positions = r.u8()
    if present(11):
        st.occlusion_gap_len = r.f32()
    if present(12):
        st.current_param_file = r.s()
    if present(13):
        st.projection = r.s()
    if present(14):
        st.slice = model.Slice(r.f32(), r.f32())
    if present(15):
        vis_mask = r.u16()
        for i, name in enumerate(_VISIBILITY_FIELDS):
            setattr(st.visibility, name, bool(vis_mask & (1 << i)))
    if present(16):
        st.work_temperature = r.f32()
        st.work_pressure = r.f32()
    if present(17):
        st.autonumber = r.b()
    if present(18):
        st.spec_extended = r.b()
    if present(19):
        st.scale = r.f32()
    return st


def _w_section(out: _W, tag: int, payload: bytes):
    out.u8(tag)
    out.u32(len(payload))
    out.raw(payload)


def save_binary(scheme: Scheme) -> bytes:
    """Serialize to the compact parameter-set bytes (ids renumbered densely)."""
    s = renumbered(scheme)
    out = _W()
    out.raw(MAGIC)
    out.u16(VERSION)

    def section(tag: int, items, write_one):
        if not items:
            return  # absent section semantics: empty list
        w = _W()
        w.varint(len(items))
        for obj in items.values():
            write_one(w, obj)
        _w_section(out, tag, w.getvalue())

    section(SEC_POINTS, s.points, lambda w, p: (w.f32(p.x), w.f32(p.y), w.f32(p.z)))
    section(SEC_PIPES, s.pipes, lambda w, p: (
        w.u16(p.start), w.u16(p.end), _w_style(w, p.style)))
    section(SEC_JOINTS, s.joints, lambda w, j: (
        w.u16(j.pipe_a), w.u16(j.pipe_b), w.enum(j.kind), w.f32(j.radius)))

    def w_offset(w: _W, off: model.Offset):
        w.s(off.letter)
        for c in off.ort:
            w.f32(c)
        w.f32(off.magnitude)
        w.enum(off.kind)
        w.u8(0 if off.axis is None else _ENUMS[Axis].index(off.axis) + 1)
        w.f32(off.plane_coord)
        w.varint(len(off.displaced_points))
        for p in sorted(off.displaced_points):
            w.u16(p)

    section(SEC_OFFSETS, s.offsets, w_offset)
    section(SEC_BREAKS, s.breaks, lambda w, b: (
        w.u16(b.pipe), w.u16(b.offset), w.f32(b.paper_len), w.f32(b.placement),
        w.f32(b.label_shift_axial), w.f32(b.label_shift_normal), w.enum(b.glyph)))

    def w_symbol(w: _W, sym: model.SymbolDef):
        w.s(sym.name)
        w.enum(sym.attach)
        w.varint(len(sym.graphics))
        for g in sym.graphics:
            if isinstance(g, model.SymbolSegment):
                w.u8(0)
                for v in (g.x1, g.y1, g.x2, g.y2):
                    w.f32(v)
            else:
                w.u8(1)
                for v in (g.cx, g.cy, g.r, g.a0, g.a1):
                    w.f32(v)
        w.varint(len(sym.cut_lengths))
        for c in sym.cut_lengths:
            w.f32(c)
        w.b(sym.sym_axis)
        w.b(sym.sym_normal)
        w.f32(sym.stretch_default)

    section(SEC_SYMBOLS, s.symbols, w_symbol)
    section(SEC_BLOCKS, s.blocks, lambda w, b: (
        w.u16(b.symbol), w.u16(b.pipe), w.f32(b.dist_from_start),
        w.opt_id(b.pipe2), w.opt_id(b.pipe3), _w_style(w, b.style),
        w.b(b.flip), w.enum(b.updir), w.f32(b.stretch)))

    def w_text(w: _W, t: model.Text):
        w.varint(len(t.lines))
        for line in t.lines:
            w.s(line)
        w.enum(t.main_leader[0])
        w.u16(t.main_leader[1])
        w.font(t.font)
        w.f32(t.line_step)
        w.u8(t.color)
        w.f32(t.offset_vec[0])
        w.f32(t.offset_vec[1])
        w.u8(0 if t.slope_format is None
             else _ENUMS[SlopeFormat].index(t.slope_format) + 1)

    section(SEC_TEXTS, s.texts, w_text)
    section(SEC_PIPE_LEADERS, s.pipe_leaders, lambda w, ld: (
        w.u16(ld.text), w.u16(ld.pipe), w.f32(ld.t)))
    section(SEC_BLOCK_LEADERS, s.block_leaders, lambda w, ld: (
        w.u16(ld.text), w.u16(ld.block), w.f32(ld.anchor[0]), w.f32(ld.anchor[1])))

    def w_mark(w: _W, mk: model.PositionMark):
        w.enum(mk.target_kind)
        w.u16(mk.target)
        w.f32(mk.anchor_t)
        w.f32(mk.anchor_xy[0])
        w.f32(mk.anchor_xy[1])
        w.varint(len(mk.props))
        for ref in mk.props:
            w.u16(ref)
        w.font(mk.font)
        w.f32(mk.line_step)
        w.u8(mk.color)
        w.f32(mk.offset_vec[0])
        w.f32(mk.offset_vec[1])
        w.enum(mk.shelf_from)
        w.b(mk.visible)

    section(SEC_POSITION_MARKS, s.position_marks, w_mark)

    def w_props(w: _W, sp: model.SpecProps):
        w.u16(sp.position)
        w.enum(sp.kind)
        w.f32(sp.qty)
        w.s(sp.designation)
        w.s(sp.name)
        w.f32(sp.unit_mass_kg)
        w.s(sp.note)
        w.b(sp.extended is not None)
        if sp.extended is not None:
            e = sp.extended
            for v in (e.type_mark, e.name_and_spec, e.unit_name,
                      e.manufacturer, e.equipment_code):
                w.s(v)

    section(SEC_SPEC_PROPS, s.spec_props, w_props)

    def w_dim(w: _W, d: model.Dimension):
        w.varint(len(d.points))
        for dp in d.points:
            w.enum(dp.kind)
            w.u16(dp.ref)
        w.enum(d.ext_axis)
        if d.dim_dir.along_pipe:
            w.u8(1)
            w.u16(d.dim_dir.pipe)
        else:
            w.u8(0)
            w.enum(d.dim_dir.axis)
        w.f32(d.line_offset)
        w.f32(d.text_offset)

    section(SEC_DIMENSIONS, s.dimensions, w_dim)
    section(SEC_ELEVATIONS, s.elevation_marks, lambda w, e: (
        w.enum(e.target_kind), w.u16(e.target), w.f32(e.t), w.enum(e.ext_axis),
        w.enum(e.shelf_dir), w.f32(e.arrow_shift), w.f32(e.shelf_shift),
        w.enum(e.line_type)))
    section(SEC_SLOPES, s.slope_marks, lambda w, sm: (
        w.u16(sm.pipe), w.f32(sm.t), w.f32(sm.shift), w.enum(sm.format),
        w.u8(sm.precision)))

    if s.axis_grid is not None:
        w = _W()
        w.varint(1)
        for groups in (s.axis_grid.x_groups, s.axis_grid.y_groups):
            w.varint(len(groups))
            for g in groups:
                w.u16(g.count)
                w.f32(g.step)
        _w_grid_settings(w, s.axis_grid.settings)
        _w_section(out, SEC_GRID, w.getvalue())

    w = _W()
    _w_settings(w, s.settings)
    _w_section(out, SEC_SETTINGS, w.getvalue())
    return out.getvalue()


# -- reading -------------------------------------------------------------------

def load_binary(data: bytes) -> Scheme:
    """Parse parameter-set bytes; raises a distinct error per failure kind."""
    r = _R(data)
    if len(data) < 6:
        raise TruncatedError("shorter than the fixed header")
    if r.raw(4) != MAGIC:
        raise BadMagicError("not a parameter-set stream")
    version = r.u16()
    if version > VERSION:
        raise VersionError(f"format version {version} is newer than {VERSION}")

    scheme = Scheme()
    seen_settings = False
    while not r.exhausted:
        tag = r.u8()
        length = r.u32()
        body = _R(r.raw(length))
        if tag == SEC_SETTINGS:
            scheme.settings = _r_settings(body)
            seen_settings = True
        elif tag == SEC_GRID:
            if body.varint():
                xg = [model.AxisGroup(body.u16(), body.f32())
                      for _ in range(body.varint())]
                yg = [model.AxisGroup(body.u16(), body.f32())
                      for _ in range(body.varint())]
                scheme.axis_grid = model.AxisGrid(xg, yg, _r_grid_settings(body))
        elif tag in _SECTION_READERS:
            name, read_one = _SECTION_READERS[tag]
            store = getattr(scheme, name)
            for i in range(body.varint()):
                store[i + 1] = read_one(body)
        # unknown tags are future extensions: skipped
    if not seen_settings:
        raise TruncatedError("settings section missing")
    check_references(scheme)
    scheme.next_ids = {name: len(getattr(scheme, name)) + 1
                       for name in model.COLLECTIONS if getattr(scheme, name)}
    return scheme


def _r_offset(r: _R) -> model.Offset:
    letter = r.s()
    ort = (r.f32(), r.f32(), r.f32())
    magnitude = r.f32()
    kind = r.enum(OffsetKind)
    axis = r.opt_enum(Axis)
    plane = r.f32()
    displaced = {r.u16() for _ in range(r.varint())}
    return model.Offset(letter, ort, magnitude, kind, axis, plane, displaced)


def _r_symbol(r: _R) -> model.SymbolDef:
    name = r.s()
    attach = r.enum(Attach)
    graphics = []
    for _ in range(r.varint()):
        if r.u8() == 0:
            graphics.append(model.SymbolSegment(r.f32(), r.f32(), r.f32(), r.f32()))
        else:
            graphics.append(model.SymbolArc(r.f32(), r.f32(), r.f32(), r.f32(), r.f32()))
    cuts = tuple(r.f32() for _ in range(r.varint()))
    return model.SymbolDef(name, graphics, attach, cuts, r.b(), r.b(), r.f32())


def _r_text(r: _R) -> model.Text:
    lines = [r.s() for _ in range(r.varint())]
    main = (r.enum(TargetKind), r.u16())
    font = r.font()
    line_step = r.f32()
    color = r.u8()
    offset = (r.f32(), r.f32())
    fmt = r.opt_enum(SlopeFormat)
    return model.Text(lines, main, font, line_step, color, offset, fmt)


def _r_mark(r: _R) -> model.PositionMark:
    kind = r.enum(TargetKind)
    target = r.u16()
    anchor_t = r.f32()
    anchor_xy = (r.f32(), r.f32())
    props = [r.u16() for _ in range(r.varint())]
    return model.PositionMark(kind, target, props, anchor_t, anchor_xy,
                              r.font(), r.f32(), r.u8(), (r.f32(), r.f32()),
                              r.enum(ShelfFrom), r.b())


def _r_props(r: _R) -> model.SpecProps:
    out = model.SpecProps(r.u16(), r.enum(SpecKind), r.f32(), r.s(), r.s(),
                          r.f32(), r.s())
    if r.b():
        out.extended = model.ExtendedProps(r.s(), r.s(), r.s(), r.s(), r.s())
    return out


def _r_dim(r: _R) -> model.Dimension:
    pts = [model.DimPoint(r.enum(DimPointKind), r.u16()) for _ in range(r.varint())]
    ext = r.enum(Axis)
    if r.u8():
        dim_dir = model.DimDirection(pipe=r.u16())
    else:
        dim_dir = model.DimDirection(axis=r.enum(Axis))
    return model.Dimension(pts, ext, dim_dir, r.f32(), r.f32())


_SECTION_READERS = {
    SEC_POINTS: ("points", lambda r: model.Point3(r.f32(), r.f32(), r.f32())),
    SEC_PIPES: ("pipes", lambda r: model.Pipe(r.u16(), r.u16(), _r_style(r))),
    SEC_JOINTS: ("joints", lambda r: model.Joint(
        r.u16(), r.u16(), r.enum(JointKind), r.f32())),
    SEC_OFFSETS: ("offsets", _r_offset),
    SEC_BREAKS: ("breaks", lambda r: model.BreakLine(
        r.u16(), r.u16(), r.f32(), r.f32(), r.f32(), r.f32(), r.enum(BreakGlyph))),
    SEC_SYMBOLS: ("symbols", _r_symbol),
    SEC_BLOCKS: ("blocks", lambda r: model.Block(
        r.u16(), r.u16(), r.f32(), r.opt_id(), r.opt_id(), _r_style(r),
        r.b(), r.enum(UpDir), r.f32())),
    SEC_TEXTS: ("texts", _r_text),
    SEC_PIPE_LEADERS: ("pipe_leaders", lambda r: model.LeaderToPipe(
        r.u16(), r.u16(), r.f32())),
    SEC_BLOCK_LEADERS: ("block_leaders", lambda r: model.LeaderToBlock(
        r.u16(), r.u16(), (r.f32(), r.f32()))),
    SEC_POSITION_MARKS: ("position_marks", _r_mark),
    SEC_SPEC_PROPS: ("spec_props", _r_props),
    SEC_DIMENSIONS: ("dimensions", _r_dim),
    SEC_ELEVATIONS: ("elevation_marks", lambda r: model.ElevationMark(
        r.enum(TargetKind), r.u16(), r.f32(), r.enum(Axis), r.enum(ShelfDir),
        r.f32(), r.f32(), r.enum(LineType))),
    SEC_SLOPES: ("slope_marks", lambda r: model.SlopeMark(
        r.u16(), r.f32(), r.f32(), r.enum(SlopeFormat), r.u8())),
}
