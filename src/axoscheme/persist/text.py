"""Line-oriented text format: one record per line, ``kind key=value ...``.

Strings are double-quoted with backslash escapes; the four special text
symbols travel as ``\\sl`` ``\\sr`` ``\\deg`` ``\\dia``.  Comments start with
``#`` outside quotes.  Saving renumbers identifiers densely and prints floats
at 32-bit precision, so text -> binary -> text is the identity.
"""

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
from .common import ParseError, PersistError, check_references, q32, renumbered

FORMAT_VERSION = 1

_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
    model.SLOPE_LEFT: "\\sl", model.SLOPE_RIGHT: "\\sr",
    model.DEGREE: "\\deg", model.DIAMETER: "\\dia",
}
_UNESCAPES = {
    "\\": "\\", '"': '"', "n": "\n", "t": "\t",
    "sl": model.SLOPE_LEFT, "sr": model.SLOPE_RIGHT,
    "deg": model.DEGREE, "dia": model.DIAMETER,
}


def _quote(s: str) -> str:
    out = ['"']
    for ch in s:
        out.append(_ESCAPES.get(ch, ch))
    out.append('"')
    return "".join(out)


def _fnum(v: float) -> str:
    return repr(q32(v))  # storage precision, so saving is already normal form


# -- tokenizer ----------------------------------------------------------------

class _Line:
    def __init__(self, kind: str, kv: dict, no: int):
        self.kind = kind
        self.kv = kv
        self.no = no

    def take(self, key: str, default=None):
        if key in self.kv:
            return self.kv.pop(key)
        if default is not None:
            return default
        raise ParseError(f"{self.kind}: missing key {key!r}", self.no)

    def done(self):
        if self.kv:
            raise ParseError(
                f"{self.kind}: unknown keys {sorted(self.kv)}", self.no)


def _tokenize(line: str, no: int) -> _Line | None:
    i = 0
    n = len(line)

    def skip_ws():
        nonlocal i
        while i < n and line[i] in " \t":
            i += 1

    def read_quoted() -> str:
        nonlocal i
        i += 1  # opening quote
        out = []
        while True:
            if i >= n:
                raise ParseError("unterminated string", no)
            ch = line[i]
            if ch == '"':
                i += 1
                return "".join(out)
            if ch == "\\":
                for name, repl in sorted(_UNESCAPES.items(),
                                         key=lambda kv: -len(kv[0])):
                    if line.startswith(name, i + 1):
                        out.append(repl)
                        i += 1 + len(name)
                        break
                else:
                    raise ParseError(f"bad escape at column {i + 1}", no)
            else:
                out.append(ch)
                i += 1

    skip_ws()
    if i >= n or line[i] == "#":
        return None
    start = i
    while i < n and line[i] not in " \t":
        i += 1
    kind = line[start:i]
    kv: dict = {}
    while True:
        skip_ws()
        if i >= n or line[i] == "#":
            break
        start = i
        while i < n and line[i] != "=" and line[i] not in " \t":
            i += 1
        if i >= n or line[i] != "=":
            raise ParseError(f"expected key=value near column {start + 1}", no)
        key = line[start:i]
        i += 1
        if i < n and line[i] == '"':
            parts = [read_quoted()]
            while i < n and line[i] == ",":
                i += 1
                if i >= n or line[i] != '"':
                    raise ParseError("expected string after comma", no)
                parts.append(read_quoted())
            value: object = parts
        else:
            start = i
            while i < n and line[i] not in " \t":
                i += 1
            value = line[start:i]
        if key in kv:
            raise ParseError(f"duplicate key {key!r}", no)
        kv[key] = value
    return _Line(kind, kv, no)


# -- value parsing helpers -----------------------------------------------------

def _float(ln: _Line, raw) -> float:
    try:
        return q32(float(raw))
    except (TypeError, ValueError):
        raise ParseError(f"{ln.kind}: bad number {raw!r}", ln.no) from None
    except PersistError as e:
        raise ParseError(f"{ln.kind}: {e}", ln.no) from None


def _int(ln: _Line, raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ParseError(f"{ln.kind}: bad integer {raw!r}", ln.no) from None


def _flag(ln: _Line, raw) -> bool:
    if raw in ("0", "1"):
        return raw == "1"
    raise ParseError(f"{ln.kind}: bad flag {raw!r} (use 0/1)", ln.no)


def _enum(ln: _Line, cls, raw):
    for member in cls:
        if member.value == raw:
            return member
    raise ParseError(f"{ln.kind}: bad {cls.__name__.lower()} {raw!r}", ln.no)


def _id_list(ln: _Line, raw) -> list[int]:
    if raw == "":
        return []
    return [_int(ln, part) for part in str(raw).split(",")]


def _one_string(ln: _Line, raw) -> str:
    if isinstance(raw, list):
        if len(raw) != 1:
            raise ParseError(f"{ln.kind}: expected a single string", ln.no)
        return raw[0]
    return str(raw)


def _target(ln: _Line, raw) -> tuple[TargetKind, int]:
    head, _, tail = str(raw).partition(":")
    if head not in ("pipe", "block") or not tail:
        raise ParseError(f"{ln.kind}: bad target {raw!r}", ln.no)
    return (TargetKind.PIPE if head == "pipe" else TargetKind.BLOCK, _int(ln, tail))


def _font_out(parts: list[str], f: model.FontSetting) -> None:
    parts.append(f"font_face={_quote(f.face)}")
    parts.append(f"font_h={_fnum(f.height)}")
    parts.append(f"font_w={_fnum(f.width_factor)}")
    parts.append(f"font_i={1 if f.slant else 0}")


def _font_in(ln: _Line) -> model.FontSetting:
    return model.FontSetting(
        _one_string(ln, ln.take("font_face")),
        _float(ln, ln.take("font_h")),
        _float(ln, ln.take("font_w")),
        _flag(ln, ln.take("font_i")))


def _style_out(parts: list[str], st: model.LineStyle) -> None:
    parts.append(f"color={st.color}")
    parts.append(f"line={st.line_type.value}")


def _style_in(ln: _Line) -> model.LineStyle:
    return model.LineStyle(_int(ln, ln.take("color")),
                           _enum(ln, LineType, ln.take("line")))


# -- writer ---------------------------------------------------------------------

def save_text(scheme: Scheme) -> str:
    """Canonical text form: settings first, then objects in id order."""
    s = renumbered(scheme)
    st = s.settings
    out: list[str] = ["# axoscheme parameter set", f"scheme version={FORMAT_VERSION}"]

    parts = ["set.pipe"]
    _style_out(parts, st.pipe_style)
    out.append(" ".join(parts))
    out.append(f"set.joint kind={st.joint.kind.value} radius={_fnum(st.joint.radius)}")
    parts = [f"set.break paper_len={_fnum(st.breaks.paper_len)}",
             f"label_ax={_fnum(st.breaks.label_shift_axial)}",
             f"label_norm={_fnum(st.breaks.label_shift_normal)}",
             f"dot_step={_fnum(st.breaks.dot_step)}",
             f"wave_d={_fnum(st.breaks.wave_diameter)}"]
    _font_out(parts, st.breaks.label_font)
    out.append(" ".join(parts))
    parts = [f"set.block stretch={_fnum(st.block.stretch)}"]
    _style_out(parts, st.block.style)
    out.append(" ".join(parts))
    parts = ["set.text"]
    _font_out(parts, st.text.font)
    parts += [f"color={st.text.color}", f"line_step={_fnum(st.text.line_step)}",
              f"shelf_from={st.text.shelf_from.value}",
              f"second_shelf={1 if st.text.second_shelf else 0}"]
    out.append(" ".join(parts))
    parts = ["set.posmark"]
    _font_out(parts, st.mark.font)
    parts += [f"color={st.mark.color}", f"line_step={_fnum(st.mark.line_step)}",
              f"shelf_from={st.mark.shelf_from.value}"]
    out.append(" ".join(parts))
    parts = ["set.dim"]
    _font_out(parts, st.dimension.font)
    parts += [f"arrow={_fnum(st.dimension.arrow_len)}",
              f"precision={st.dimension.precision}",
              f"color={st.dimension.color}",
              f"text_offset={_fnum(st.dimension.text_offset)}",
              f"overshoot={_fnum(st.dimension.ext_overshoot)}"]
    out.append(" ".join(parts))
    parts = [f"set.elev line={st.elevation.line_type.value}",
             f"ext={st.elevation.ext_axis.value}",
             f"shelf={st.elevation.shelf_dir.value}",
             f"arrow_shift={_fnum(st.elevation.arrow_shift)}",
             f"shelf_shift={_fnum(st.elevation.shelf_shift)}"]
    _font_out(parts, st.elevation.font)
    parts += [f"arrow_len={_fnum(st.elevation.arrow_len)}",
              f"color={st.elevation.color}"]
    out.append(" ".join(parts))
    parts = [f"set.slope shift={_fnum(st.slope.shift)}",
             f"format={st.slope.format.value}",
             f"precision={st.slope.precision}"]
    _font_out(parts, st.slope.font)
    parts += [f"arrow_len={_fnum(st.slope.arrow_len)}",
              f"arrow_span={_fnum(st.slope.arrow_span)}",
              f"color={st.slope.color}"]
    out.append(" ".join(parts))
    out.append("set.grid " + _grid_settings_text(st.grid))
    out.append(f"set.flange positions={st.flange_positions}")
    slice_txt = ("all" if st.slice.is_all
                 else f"{_fnum(st.slice.z_min)}:{_fnum(st.slice.z_max)}")
    out.append(" ".join([
        f"set.mode occlusion_gap={_fnum(st.occlusion_gap_len)}",
        f"param_file={_quote(st.current_param_file)}",
        f"projection={_quote(st.projection)}",
        f"slice={slice_txt}",
        f"temperature={_fnum(st.work_temperature)}",
        f"pressure={_fnum(st.work_pressure)}",
        f"autonumber={1 if st.autonumber else 0}",
        f"spec_extended={1 if st.spec_extended else 0}",
        f"scale={_fnum(st.scale)}",
    ]))
    vis = st.visibility
    out.append("set.visibility " + " ".join(
        f"{name}={1 if getattr(vis, name) else 0}"
        for name in ("pipes", "joints", "breaks", "blocks", "texts",
                     "position_marks", "dimensions", "elevations", "slopes",
                     "grid", "axes_icon", "occlusion", "break_letters",
                     "covered_pipes", "hidden_marks")))

    for oid, p in s.points.items():
        out.append(f"point id={oid} x={_fnum(p.x)} y={_fnum(p.y)} z={_fnum(p.z)}")
    for oid, p in s.pipes.items():
        parts = [f"pipe id={oid} a={p.start} b={p.end}"]
        _style_out(parts, p.style)
        out.append(" ".join(parts))
    for oid, j in s.joints.items():
        line = f"joint id={oid} a={j.pipe_a} b={j.pipe_b} kind={j.kind.value}"
        if j.kind is JointKind.FILLET:
            line += f" radius={_fnum(j.radius)}"
        out.append(line)
    for oid, off in s.offsets.items():
        parts = [f"offset id={oid} letter={_quote(off.letter)}",
                 f"kind={off.kind.value}", f"mag={_fnum(off.magnitude)}",
                 "ort=" + ",".join(_fnum(c) for c in off.ort)]
        if off.kind is OffsetKind.GENERAL:
            parts.append(f"axis={off.axis.value}")
            parts.append(f"plane={_fnum(off.plane_coord)}")
        else:
            parts.append("displaced=" + ",".join(
                str(p) for p in sorted(off.displaced_points)))
        out.append(" ".join(parts))
    for oid, b in s.breaks.items():
        out.append(" ".join([
            f"break id={oid} pipe={b.pipe} offset={b.offset}",
            f"paper_len={_fnum(b.paper_len)}", f"pos={_fnum(b.placement)}",
            f"label_ax={_fnum(b.label_shift_axial)}",
            f"label_norm={_fnum(b.label_shift_normal)}",
            f"glyph={b.glyph.value}"]))
    for oid, sym in s.symbols.items():
        out.append(" ".join([
            f"symbol id={oid} name={_quote(sym.name)}",
            f"attach={sym.attach.value}",
            "cuts=" + ",".join(_fnum(c) for c in sym.cut_lengths),
            f"sym_axis={1 if sym.sym_axis else 0}",
            f"sym_normal={1 if sym.sym_normal else 0}",
            f"stretch={_fnum(sym.stretch_default)}"]))
        for g in sym.graphics:
            if isinstance(g, model.SymbolSegment):
                out.append(f"symbol.seg id={oid} x1={_fnum(g.x1)} y1={_fnum(g.y1)}"
                           f" x2={_fnum(g.x2)} y2={_fnum(g.y2)}")
            else:
                out.append(f"symbol.arc id={oid} cx={_fnum(g.cx)} cy={_fnum(g.cy)}"
                           f" r={_fnum(g.r)} a0={_fnum(g.a0)} a1={_fnum(g.a1)}")
    for oid, b in s.blocks.items():
        parts = [f"block id={oid} symbol={b.symbol} pipe={b.pipe}",
                 f"dist={_fnum(b.dist_from_start)}"]
        if b.pipe2 is not None:
            parts.append(f"pipe2={b.pipe2}")
        if b.pipe3 is not None:
            parts.append(f"pipe3={b.pipe3}")
        parts += [f"flip={1 if b.flip else 0}", f"updir={b.updir.value}",
                  f"stretch={_fnum(b.stretch)}"]
        _style_out(parts, b.style)
        out.append(" ".join(parts))
    for oid, t in s.texts.items():
        kind, lid = t.main_leader
        parts = [f"text id={oid} main={kind.value}:{lid}", f"color={t.color}",
                 f"line_step={_fnum(t.line_step)}",
                 f"ox={_fnum(t.offset_vec[0])}", f"oy={_fnum(t.offset_vec[1])}"]
        _font_out(parts, t.font)
        if t.slope_format is not None:
            parts.append(f"slope_format={t.slope_format.value}")
        parts.append("lines=" + ",".join(_quote(ln) for ln in t.lines))
        out.append(" ".join(parts))
    for oid, ld in s.pipe_leaders.items():
        out.append(f"leaderp id={oid} text={ld.text} pipe={ld.pipe} t={_fnum(ld.t)}")
    for oid, ld in s.block_leaders.items():
        out.append(f"leaderb id={oid} text={ld.text} block={ld.block}"
                   f" x={_fnum(ld.anchor[0])} y={_fnum(ld.anchor[1])}")
    for oid, mk in s.position_marks.items():
        parts = [f"posmark id={oid} target={mk.target_kind.value}:{mk.target}"]
        if mk.target_kind is TargetKind.PIPE:
            parts.append(f"t={_fnum(mk.anchor_t)}")
        else:
            parts.append(f"ax={_fnum(mk.anchor_xy[0])}")
            parts.append(f"ay={_fnum(mk.anchor_xy[1])}")
        parts.append("props=" + ",".join(str(r) for r in mk.props))
        _font_out(parts, mk.font)
        parts += [f"color={mk.color}", f"line_step={_fnum(mk.line_step)}",
                  f"ox={_fnum(mk.offset_vec[0])}", f"oy={_fnum(mk.offset_vec[1])}",
                  f"shelf_from={mk.shelf_from.value}",
                  f"visible={1 if mk.visible else 0}"]
        out.append(" ".join(parts))
    for oid, sp in s.spec_props.items():
        parts = [f"props id={oid} position={sp.position}", f"kind={sp.kind.value}"]
        if sp.kind is SpecKind.FOR_BLOCK:
            parts.append(f"qty={_fnum(sp.qty)}")
        parts += [f"designation={_quote(sp.designation)}",
                  f"name={_quote(sp.name)}", f"mass={_fnum(sp.unit_mass_kg)}",
                  f"note={_quote(sp.note)}"]
        if sp.extended is not None:
            e = sp.extended
            parts += [f"ext_type={_quote(e.type_mark)}",
                      f"ext_name={_quote(e.name_and_spec)}",
                      f"ext_unit={_quote(e.unit_name)}",
                      f"ext_maker={_quote(e.manufacturer)}",
                      f"ext_code={_quote(e.equipment_code)}"]
        out.append(" ".join(parts))
    for oid, d in s.dimensions.items():
        pts = ",".join(("p" if dp.kind is DimPointKind.POINT else "b") + str(dp.ref)
                       for dp in d.points)
        direction = (f"pipe:{d.dim_dir.pipe}" if d.dim_dir.along_pipe
                     else d.dim_dir.axis.value)
        out.append(f"dim id={oid} ext={d.ext_axis.value} dir={direction}"
                   f" points={pts} line_offset={_fnum(d.line_offset)}"
                   f" text_offset={_fnum(d.text_offset)}")
    for oid, e in s.elevation_marks.items():
        parts = [f"elev id={oid} target={e.target_kind.value}:{e.target}"]
        if e.target_kind is TargetKind.PIPE:
            parts.append(f"t={_fnum(e.t)}")
        parts += [f"ext={e.ext_axis.value}", f"shelf={e.shelf_dir.value}",
                  f"arrow_shift={_fnum(e.arrow_shift)}",
                  f"shelf_shift={_fnum(e.shelf_shift)}",
                  f"line={e.line_type.value}"]
        out.append(" ".join(parts))
    for oid, sm in s.slope_marks.items():
        out.append(f"slope id={oid} pipe={sm.pipe} t={_fnum(sm.t)}"
                   f" shift={_fnum(sm.shift)} format={sm.format.value}"
                   f" precision={sm.precision}")
    if s.axis_grid is not None:
        g = s.axis_grid
        xg = ",".join(f"{grp.count}x{_fnum(grp.step)}" for grp in g.x_groups)
        yg = ",".join(f"{grp.count}x{_fnum(grp.step)}" for grp in g.y_groups)
        out.append(f"grid xgroups={xg} ygroups={yg} "
                   + _grid_settings_text(g.settings))
    return "\n".join(out) + "\n"


def _grid_settings_text(gs: model.GridSettings) -> str:
    return " ".join([
        f"digits_x={1 if gs.digits_label_x else 0}",
        f"plane_z={_fnum(gs.plane_z)}",
        f"bend_z={_fnum(gs.bend_shift_z)}",
        "visible_x=" + ",".join(str(i) for i in sorted(gs.visible_x)),
        "visible_y=" + ",".join(str(i) for i in sorted(gs.visible_y)),
        f"dim_off_x={_fnum(gs.dim_offset_x)}",
        f"dim_off_y={_fnum(gs.dim_offset_y)}",
        f"lead_x={_fnum(gs.lead_len_x)}",
        f"lead_y={_fnum(gs.lead_len_y)}",
        f"first_number={gs.first_number}",
        f"first_letter={_quote(gs.first_letter)}",
        f"overall_x={1 if gs.overall_dim_x else 0}",
        f"overall_y={1 if gs.overall_dim_y else 0}",
        f"dir_x={1 if gs.dir_positive_x else 0}",
        f"dir_y={1 if gs.dir_positive_y else 0}",
        f"labels_first={1 if gs.labels_at_first else 0}",
        f"color={gs.color}",
    ])


# -- reader ---------------------------------------------------------------------

def load_text(text: str) -> Scheme:
    scheme = Scheme()
    seen_version = False
    for no, raw in enumerate(text.splitlines(), start=1):
        ln = _tokenize(raw, no)
        if ln is None:
            continue
        if ln.kind == "scheme":
            version = _int(ln, ln.take("version"))
            if version > FORMAT_VERSION:
                raise ParseError(f"format version {version} too new", no)
            seen_version = True
            ln.done()
            continue
        handler = _HANDLERS.get(ln.kind)
        if handler is None:
            raise ParseError(f"unknown record kind {ln.kind!r}", no)
        handler(scheme, ln)
        ln.done()
    if not seen_version:
        raise ParseError("missing 'scheme version=...' record", 1)
    check_references(scheme)
    scheme.next_ids = {name: max(getattr(scheme, name), default=0) + 1
                       for name in model.COLLECTIONS if getattr(scheme, name)}
    return scheme


def _put(scheme: Scheme, collection: str, ln: _Line, obj) -> None:
    oid = _int(ln, ln.take("id"))
    store = getattr(scheme, collection)
    if oid in store:
        raise ParseError(f"duplicate {ln.kind} id {oid}", ln.no)
    store[oid] = obj


def _grid_settings_in(ln: _Line) -> model.GridSettings:
    gs = model.GridSettings()
    gs.digits_label_x = _flag(ln, ln.take("digits_x"))
    gs.plane_z = _float(ln, ln.take("plane_z"))
    gs.bend_shift_z = _float(ln, ln.take("bend_z"))
    gs.visible_x = set(_id_list(ln, ln.take("visible_x", "")))
    gs.visible_y = set(_id_list(ln, ln.take("visible_y", "")))
    gs.dim_offset_x = _float(ln, ln.take("dim_off_x"))
    gs.dim_offset_y = _float(ln, ln.take("dim_off_y"))
    gs.lead_len_x = _float(ln, ln.take("lead_x"))
    gs.lead_len_y = _float(ln, ln.take("lead_y"))
    gs.first_number = _int(ln, ln.take("first_number"))
    gs.first_letter = _one_string(ln, ln.take("first_letter"))
    gs.overall_dim_x = _flag(ln, ln.take("overall_x"))
    gs.overall_dim_y = _flag(ln, ln.take("overall_y"))
    gs.dir_positive_x = _flag(ln, ln.take("dir_x"))
    gs.dir_positive_y = _flag(ln, ln.take("dir_y"))
    gs.labels_at_first = _flag(ln, ln.take("labels_first"))
    gs.color = _int(ln, ln.take("color"))
    return gs


def _h_set_pipe(s: Scheme, ln: _Line):
    s.settings.pipe_style = _style_in(ln)


def _h_set_joint(s: Scheme, ln: _Line):
    s.settings.joint = model.JointDefaults(
        _enum(ln, JointKind, ln.take("kind")), _float(ln, ln.take("radius")))


def _h_set_break(s: Scheme, ln: _Line):
    br = model.BreakSettings()
    br.paper_len = _float(ln, ln.take("paper_len"))
    br.label_shift_axial = _float(ln, ln.take("label_ax"))
    br.label_shift_normal = _float(ln, ln.take("label_norm"))
    br.dot_step = _float(ln, ln.take("dot_step"))
    br.wave_diameter = _float(ln, ln.take("wave_d"))
    br.label_font = _font_in(ln)
    s.settings.breaks = br


def _h_set_block(s: Scheme, ln: _Line):
    stretch = _float(ln, ln.take("stretch"))
    s.settings.block = model.BlockDefaults(stretch, _style_in(ln))


def _h_set_text(s: Scheme, ln: _Line):
    s.settings.text = model.TextDefaults(
        _font_in(ln), _int(ln, ln.take("color")),
        _float(ln, ln.take("line_step")),
        _enum(ln, ShelfFrom, ln.take("shelf_from")),
        _flag(ln, ln.take("second_shelf")))


def _h_set_posmark(s: Scheme, ln: _Line):
    s.settings.mark = model.MarkDefaults(
        _font_in(ln), _int(ln, ln.take("color")),
        _float(ln, ln.take("line_step")),
        _enum(ln, ShelfFrom, ln.take("shelf_from")))


def _h_set_dim(s: Scheme, ln: _Line):
    s.settings.dimension = model.DimensionSettings(
        _font_in(ln), _float(ln, ln.take("arrow")),
        _int(ln, ln.take("precision")), _int(ln, ln.take("color")),
        _float(ln, ln.take("text_offset")), _float(ln, ln.take("overshoot")))


def _h_set_elev(s: Scheme, ln: _Line):
    s.settings.elevation = model.ElevationSettings(
        _enum(ln, LineType, ln.take("line")),
        _enum(ln, Axis, ln.take("ext")),
        _enum(ln, ShelfDir, ln.take("shelf")),
        _float(ln, ln.take("arrow_shift")),
        _float(ln, ln.take("shelf_shift")),
        _font_in(ln), _float(ln, ln.take("arrow_len")),
        _int(ln, ln.take("color")))


def _h_set_slope(s: Scheme, ln: _Line):
    s.settings.slope = model.SlopeSettings(
        _float(ln, ln.take("shift")),
        _enum(ln, SlopeFormat, ln.take("format")),
        _int(ln, ln.take("precision")),
        _font_in(ln), _float(ln, ln.take("arrow_len")),
        _float(ln, ln.take("arrow_span")), _int(ln, ln.take("color")))


def _h_set_grid(s: Scheme, ln: _Line):
    s.settings.grid = _grid_settings_in(ln)


def _h_set_flange(s: Scheme, ln: _Line):
    s.settings.flange_positions = _int(ln, ln.take("positions"))


def _h_set_mode(s: Scheme, ln: _Line):
    st = s.settings
    st.occlusion_gap_len = _float(ln, ln.take("occlusion_gap"))
    st.current_param_file = _one_string(ln, ln.take("param_file"))
    st.projection = _one_string(ln, ln.take("projection"))
    raw = str(ln.take("slice"))
    if raw == "all":
        st.slice = model.Slice()
    else:
        lo, _, hi = raw.partition(":")
        st.slice = model.Slice(_float(ln, lo), _float(ln, hi))
    st.work_temperature = _float(ln, ln.take("temperature"))
    st.work_pressure = _float(ln, ln.take("pressure"))
    st.autonumber = _flag(ln, ln.take("autonumber"))
    st.spec_extended = _flag(ln, ln.take("spec_extended"))
    st.scale = _float(ln, ln.take("scale"))


def _h_set_visibility(s: Scheme, ln: _Line):
    vis = s.settings.visibility
    for name in ("pipes", "joints", "breaks", "blocks", "texts",
                 "position_marks", "dimensions", "elevations", "slopes",
                 "grid", "axes_icon", "occlusion", "break_letters",
                 "covered_pipes", "hidden_marks"):
        setattr(vis, name, _flag(ln, ln.take(name)))


def _h_point(s: Scheme, ln: _Line):
    _put(s, "points", ln, model.Point3(
        _float(ln, ln.take("x")), _float(ln, ln.take("y")),
        _float(ln, ln.take("z"))))


def _h_pipe(s: Scheme, ln: _Line):
    _put(s, "pipes", ln, model.Pipe(
        _int(ln, ln.take("a")), _int(ln, ln.take("b")), _style_in(ln)))


def _h_joint(s: Scheme, ln: _Line):
    kind = _enum(ln, JointKind, ln.take("kind"))
    radius = _float(ln, ln.take("radius")) if kind is JointKind.FILLET else 0.0
    _put(s, "joints", ln, model.Joint(
        _int(ln, ln.take("a")), _int(ln, ln.take("b")), kind, radius))


def _h_offset(s: Scheme, ln: _Line):
    letter = _one_string(ln, ln.take("letter"))
    kind = _enum(ln, OffsetKind, ln.take("kind"))
    mag = _float(ln, ln.take("mag"))
    ort_parts = str(ln.take("ort")).split(",")
    if len(ort_parts) != 3:
        raise ParseError("offset: ort needs three components", ln.no)
    ort = tuple(_float(ln, c) for c in ort_parts)
    if kind is OffsetKind.GENERAL:
        axis = _enum(ln, Axis, ln.take("axis"))
        plane = _float(ln, ln.take("plane"))
        obj = model.Offset(letter, ort, mag, kind, axis, plane)
    else:
        displaced = set(_id_list(ln, ln.take("displaced", "")))
        obj = model.Offset(letter, ort, mag, kind, displaced_points=displaced)
    _put(s, "offsets", ln, obj)


def _h_break(s: Scheme, ln: _Line):
    _put(s, "breaks", ln, model.BreakLine(
        _int(ln, ln.take("pipe")), _int(ln, ln.take("offset")),
        _float(ln, ln.take("paper_len")), _float(ln, ln.take("pos")),
        _float(ln, ln.take("label_ax")), _float(ln, ln.take("label_norm")),
        _enum(ln, BreakGlyph, ln.take("glyph"))))


def _h_symbol(s: Scheme, ln: _Line):
    cuts = tuple(_float(ln, c) for c in str(ln.take("cuts")).split(","))
    _put(s, "symbols", ln, model.SymbolDef(
        _one_string(ln, ln.take("name")), [],
        _enum(ln, Attach, ln.take("attach")), cuts,
        _flag(ln, ln.take("sym_axis")), _flag(ln, ln.take("sym_normal")),
        _float(ln, ln.take("stretch"))))


def _symbol_for_graphic(s: Scheme, ln: _Line) -> model.SymbolDef:
    oid = _int(ln, ln.take("id"))
    sym = s.symbols.get(oid)
    if sym is None:
        raise ParseError(f"{ln.kind}: symbol {oid} not declared yet", ln.no)
    return sym


def _h_symbol_seg(s: Scheme, ln: _Line):
    sym = _symbol_for_graphic(s, ln)
    sym.graphics.append(model.SymbolSegment(
        _float(ln, ln.take("x1")), _float(ln, ln.take("y1")),
        _float(ln, ln.take("x2")), _float(ln, ln.take("y2"))))


def _h_symbol_arc(s: Scheme, ln: _Line):
    sym = _symbol_for_graphic(s, ln)
    sym.graphics.append(model.SymbolArc(
        _float(ln, ln.take("cx")), _float(ln, ln.take("cy")),
        _float(ln, ln.take("r")), _float(ln, ln.take("a0")),
        _float(ln, ln.take("a1"))))


def _h_block(s: Scheme, ln: _Line):
    pipe2 = ln.take("pipe2", "none")
    pipe3 = ln.take("pipe3", "none")
    _put(s, "blocks", ln, model.Block(
        _int(ln, ln.take("symbol")), _int(ln, ln.take("pipe")),
        _float(ln, ln.take("dist")),
        None if pipe2 == "none" else _int(ln, pipe2),
        None if pipe3 == "none" else _int(ln, pipe3),
        _style_in(ln), _flag(ln, ln.take("flip")),
        _enum(ln, UpDir, ln.take("updir")), _float(ln, ln.take("stretch"))))


def _h_text(s: Scheme, ln: _Line):
    main = _target(ln, ln.take("main"))
    color = _int(ln, ln.take("color"))
    line_step = _float(ln, ln.take("line_step"))
    offset = (_float(ln, ln.take("ox")), _float(ln, ln.take("oy")))
    font = _font_in(ln)
    fmt_raw = ln.take("slope_format", "none")
    fmt = None if fmt_raw == "none" else _enum(ln, SlopeFormat, fmt_raw)
    lines_raw = ln.take("lines")
    lines = lines_raw if isinstance(lines_raw, list) else [str(lines_raw)]
    _put(s, "texts", ln, model.Text(lines, main, font, line_step, color,
                                    offset, fmt))


def _h_leaderp(s: Scheme, ln: _Line):
    _put(s, "pipe_leaders", ln, model.LeaderToPipe(
        _int(ln, ln.take("text")), _int(ln, ln.take("pipe")),
        _float(ln, ln.take("t"))))


def _h_leaderb(s: Scheme, ln: _Line):
    _put(s, "block_leaders", ln, model.LeaderToBlock(
        _int(ln, ln.take("text")), _int(ln, ln.take("block")),
        (_float(ln, ln.take("x")), _float(ln, ln.take("y")))))


def _h_posmark(s: Scheme, ln: _Line):
    kind, target = _target(ln, ln.take("target"))
    if kind is TargetKind.PIPE:
        anchor_t = _float(ln, ln.take("t"))
        anchor_xy = (0.0, 0.0)
    else:
        anchor_t = 0.0
        anchor_xy = (_float(ln, ln.take("ax")), _float(ln, ln.take("ay")))
    props = _id_list(ln, ln.take("props"))
    font = _font_in(ln)
    _put(s, "position_marks", ln, model.PositionMark(
        kind, target, props, anchor_t, anchor_xy, font,
        _float(ln, ln.take("line_step")), _int(ln, ln.take("color")),
        (_float(ln, ln.take("ox")), _float(ln, ln.take("oy"))),
        _enum(ln, ShelfFrom, ln.take("shelf_from")),
        _flag(ln, ln.take("visible"))))


def _h_props(s: Scheme, ln: _Line):
    kind = _enum(ln, SpecKind, ln.take("kind"))
    qty = _float(ln, ln.take("qty")) if kind is SpecKind.FOR_BLOCK else 1.0
    obj = model.SpecProps(
        _int(ln, ln.take("position")), kind, qty,
        _one_string(ln, ln.take("designation")),
        _one_string(ln, ln.take("name")),
        _float(ln, ln.take("mass")),
        _one_string(ln, ln.take("note")))
    if "ext_type" in ln.kv:
        obj.extended = model.ExtendedProps(
            _one_string(ln, ln.take("ext_type")),
            _one_string(ln, ln.take("ext_name")),
            _one_string(ln, ln.take("ext_unit")),
            _one_string(ln, ln.take("ext_maker")),
            _one_string(ln, ln.take("ext_code")))
    _put(s, "spec_props", ln, obj)


def _h_dim(s: Scheme, ln: _Line):
    ext = _enum(ln, Axis, ln.take("ext"))
    dir_raw = str(ln.take("dir"))
    if dir_raw.startswith("pipe:"):
        dim_dir = model.DimDirection(pipe=_int(ln, dir_raw[5:]))
    else:
        dim_dir = model.DimDirection(axis=_enum(ln, Axis, dir_raw))
    points = []
    for token in str(ln.take("points")).split(","):
        if len(token) < 2 or token[0] not in "pb":
            raise ParseError(f"dim: bad point token {token!r}", ln.no)
        kind = DimPointKind.POINT if token[0] == "p" else DimPointKind.BLOCK
        points.append(model.DimPoint(kind, _int(ln, token[1:])))
    _put(s, "dimensions", ln, model.Dimension(
        points, ext, dim_dir, _float(ln, ln.take("line_offset")),
        _float(ln, ln.take("text_offset"))))


def _h_elev(s: Scheme, ln: _Line):
    kind, target = _target(ln, ln.take("target"))
    t = _float(ln, ln.take("t")) if kind is TargetKind.PIPE else 0.0
    _put(s, "elevation_marks", ln, model.ElevationMark(
        kind, target, t, _enum(ln, Axis, ln.take("ext")),
        _enum(ln, ShelfDir, ln.take("shelf")),
        _float(ln, ln.take("arrow_shift")),
        _float(ln, ln.take("shelf_shift")),
        _enum(ln, LineType, ln.take("line"))))


def _h_slope(s: Scheme, ln: _Line):
    _put(s, "slope_marks", ln, model.SlopeMark(
        _int(ln, ln.take("pipe")), _float(ln, ln.take("t")),
        _float(ln, ln.take("shift")),
        _enum(ln, SlopeFormat, ln.take("format")),
        _int(ln, ln.take("precision"))))


def _groups(ln: _Line, raw) -> list[model.AxisGroup]:
    out = []
    if raw == "":
        return out
    for token in str(raw).split(","):
        count, _, step = token.partition("x")
        if not step:
            raise ParseError(f"grid: bad group {token!r}", ln.no)
        out.append(model.AxisGroup(_int(ln, count), _float(ln, step)))
    return out


def _h_grid(s: Scheme, ln: _Line):
    if s.axis_grid is not None:
        raise ParseError("grid declared twice", ln.no)
    xg = _groups(ln, ln.take("xgroups", ""))
    yg = _groups(ln, ln.take("ygroups", ""))
    s.axis_grid = model.AxisGrid(xg, yg, _grid_settings_in(ln))


_HANDLERS = {
    "set.pipe": _h_set_pipe,
    "set.joint": _h_set_joint,
    "set.break": _h_set_break,
    "set.block": _h_set_block,
    "set.text": _h_set_text,
    "set.posmark": _h_set_posmark,
    "set.dim": _h_set_dim,
    "set.elev": _h_set_elev,
    "set.slope": _h_set_slope,
    "set.grid": _h_set_grid,
    "set.flange": _h_set_flange,
    "set.mode": _h_set_mode,
    "set.visibility": _h_set_visibility,
    "point": _h_point,
    "pipe": _h_pipe,
    "joint": _h_joint,
    "offset": _h_offset,
    "break": _h_break,
    "symbol": _h_symbol,
    "symbol.seg": _h_symbol_seg,
    "symbol.arc": _h_symbol_arc,
    "block": _h_block,
    "text": _h_text,
    "leaderp": _h_leaderp,
    "leaderb": _h_leaderb,
    "posmark": _h_posmark,
    "props": _h_props,
    "dim": _h_dim,
    "elev": _h_elev,
    "slope": _h_slope,
    "grid": _h_grid,
}
