"""Resolves a selected, offset-applied, projected scheme into flat 2D drawing
primitives with all annotation rules applied.

Primitives carry paper-mm coordinates and resolved styling only; nothing here
references model identifiers.  ``layout_scheme`` is a pure function of
(scheme, projection, slice, settings), so identical input gives an identical
primitive list.  It is the one place that slices the scheme and resolves its
offsets: it builds one ``geometry.Selection`` and one ``geometry.OffsetView``
and hands them to each ``layout_*`` step, which reads the scheme as
``view.scheme``.
"""

import math
from dataclasses import dataclass
from enum import Enum

from . import constraints, edit, geometry, model
from .geometry import OffsetView, Projection, Selection
from .model import (
    Axis,
    BreakGlyph,
    DimPointKind,
    FontSetting,
    JointKind,
    LineType,
    OffsetKind,
    Scheme,
    SchemeError,
    ShelfFrom,
    Slice,
    SlopeFormat,
    SymbolArc,
    SymbolSegment,
    TargetKind,
)
from .vectors import (
    Vec2,
    add2,
    add3,
    dist2,
    dot2,
    mul2,
    mul3,
    norm2,
    rot90,
    sub2,
    unit2,
)


class LayoutError(SchemeError):
    """A mark cannot be drawn with its stored parameters."""


# Box-model font metrics: glyph advance is 0.6 of the height.
CHAR_WIDTH_FACTOR = 0.6
AXES_ICON_LEN = 12.0     # paper mm
GRID_CIRCLE_R = 4.0      # paper mm
ARC_STEP_DEG = 15.0      # block arc tessellation
# The most dots one break dot run may draw; a run that needs more (a huge
# scale or a tiny dot step) is a layout failure, so output stays bounded.
MAX_DOTS_PER_RUN = 10_000


def text_width(s: str, font: tuple) -> float:
    return CHAR_WIDTH_FACTOR * font[1] * font[2] * len(s)


def font_key(f: FontSetting) -> tuple:
    return (f.face, f.height, f.width_factor, f.slant)


# -- primitives ---------------------------------------------------------------

class MarkerKind(Enum):
    ARROW = "arrow"
    TICK = "tick"


@dataclass(frozen=True)
class Stroke:
    points: tuple[Vec2, ...]
    color: int
    line_type: LineType = LineType.SOLID


@dataclass(frozen=True)
class ArcStroke:
    center: Vec2
    radius: float
    a0: float  # degrees, counter-clockwise from +X
    a1: float
    color: int
    line_type: LineType = LineType.SOLID


@dataclass(frozen=True)
class DotRun:
    p0: Vec2
    p1: Vec2
    step: float
    color: int

    def __post_init__(self):
        self.whole_steps()  # a run over the dot budget is refused at layout

    def whole_steps(self) -> int:
        """Whole steps along the run: it draws ``whole_steps() + 1`` dots,
        one every ``step`` from ``p0``, and one dot when the run or the step
        is degenerate.  Raises LayoutError when that is over
        MAX_DOTS_PER_RUN."""
        length = math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])
        if length < 1e-12 or self.step <= 0.0:
            return 0
        n = length / self.step + 1e-9
        if not n < MAX_DOTS_PER_RUN:
            raise LayoutError(f"a break dot run of {length:g} mm at a {self.step:g} mm"
                              f" step needs more than {MAX_DOTS_PER_RUN} dots")
        return int(n)


@dataclass(frozen=True)
class WavePair:
    center: Vec2
    diameter: float
    direction: Vec2  # unit, along the broken pipe image
    color: int


@dataclass(frozen=True)
class GlyphText:
    text: str
    anchor: Vec2  # baseline-left
    font: tuple   # (face, height, width_factor, slant)
    color: int
    angle: float = 0.0  # degrees, counter-clockwise


@dataclass(frozen=True)
class Marker:
    kind: MarkerKind
    at: Vec2
    direction: Vec2  # unit; the arrow points along it
    size: float
    color: int


Primitive = Stroke | ArcStroke | DotRun | WavePair | GlyphText | Marker


# -- shared projection helpers ------------------------------------------------

def _paper(scheme: Scheme, proj: Projection, p) -> Vec2:
    (u, v), _ = geometry.project_point(proj, p)
    s = scheme.settings.scale
    return (u * s, v * s)


def _axis_image(proj: Projection, axis: Axis) -> Vec2 | None:
    img = (proj.ex, proj.ey, proj.ez)[axis.index]
    if norm2(img) < 1e-12:
        return None
    return unit2(img)


def _displaced_point_img(view: OffsetView, proj: Projection, point_id: int) -> Vec2:
    p = view.scheme.point(point_id).as_tuple()
    return _paper(view.scheme, proj, add3(p, view.point_displacement(point_id)))


def _pipe_pos_img(view: OffsetView, proj: Projection, pipe_id: int, t: float) -> Vec2:
    return _paper(view.scheme, proj, view.displaced_pipe_pos(pipe_id, t))


def _block_origin_img(view: OffsetView, proj: Projection, block_id: int) -> Vec2:
    blk = view.scheme.block(block_id)
    return _pipe_pos_img(view, proj, blk.pipe, blk.dist_from_start)


def _block_axes_img(scheme: Scheme, proj: Projection, block_id: int) -> tuple[Vec2, Vec2]:
    """Unit 2D images of the block frame's local X and Y (zero if degenerate)."""
    _, ex, ey, _ = constraints.resolve_block_frame(scheme, block_id)
    out = []
    for v in (ex, ey):
        (u, w), _ = geometry.project_point(proj, v)
        n = norm2((u, w))
        out.append((u / n, w / n) if n > 1e-12 else (0.0, 0.0))
    return out[0], out[1]


def _block_to_paper(view: OffsetView, proj: Projection, block_id: int):
    """Map from the symbol's local paper frame onto the sheet."""
    origin = _block_origin_img(view, proj, block_id)
    bx, by = _block_axes_img(view.scheme, proj, block_id)
    stretch = view.scheme.block(block_id).stretch

    def tf(u: float, v: float) -> Vec2:
        return (origin[0] + stretch * (u * bx[0] + v * by[0]),
                origin[1] + stretch * (u * bx[1] + v * by[1]))

    return tf


# -- pipes, joints, breaks ------------------------------------------------------

def _subtract(intervals: list[tuple[float, float]],
              cuts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    keep = intervals
    for lo, hi in cuts:
        nxt: list[tuple[float, float]] = []
        for a, b in keep:
            if hi <= a or lo >= b:
                nxt.append((a, b))
                continue
            if lo > a:
                nxt.append((a, lo))
            if hi < b:
                nxt.append((hi, b))
        keep = nxt
    return [(a, b) for a, b in keep if b - a > 1e-9]


def _span_point(chain: geometry.DrawnChain, i: int, s: float) -> Vec2:
    p0, p1 = chain.paper[i]
    seg = chain.acc[i + 1] - chain.acc[i]
    f = 0.0 if seg == 0.0 else (s - chain.acc[i]) / seg
    f = min(max(f, 0.0), 1.0)
    return (p0[0] + (p1[0] - p0[0]) * f, p0[1] + (p1[1] - p0[1]) * f)


def _nature_to_chain(chain: geometry.DrawnChain, t: float) -> float:
    """Map a nature arc length on the pipe to the paper chain parameter."""
    for i, span in enumerate(chain.spans):
        if t <= span.t1 or i == len(chain.spans) - 1:
            width = span.t1 - span.t0
            f = 0.0 if width == 0.0 else (t - span.t0) / width
            f = min(max(f, 0.0), 1.0)
            return chain.acc[i] + f * (chain.acc[i + 1] - chain.acc[i])
    return chain.acc[-1]


def _centered_label(text: str, at: Vec2, font: tuple, color: int) -> GlyphText:
    w = text_width(text, font)
    return GlyphText(text, (at[0] - w / 2.0, at[1] - font[1] / 2.0), font, color)


def layout_pipes(view: OffsetView, proj: Projection, sel: Selection) -> list[Primitive]:
    """Pipes as strokes minus block coverage and occlusion gaps, with break
    glyphs (dot runs / wave pairs) and break letters; joint fillet arcs.

    Each selected pipe's drawn chain is built once and read by occlusion and
    drawing alike; block coverage comes from one walk over the blocks.
    """
    scheme = view.scheme
    vis = scheme.settings.visibility
    st = scheme.settings.breaks
    chains = view.drawn_chains(proj, sorted(sel.pipes))
    gaps: dict[int, list[tuple[float, float]]] = {}
    for gpid, interval in geometry.chain_occlusion_gaps(scheme, proj, chains):
        gaps.setdefault(gpid, []).append(interval)
    coverage = geometry.block_coverage(scheme)
    out: list[Primitive] = []
    label_font = font_key(st.label_font)

    for pid, chain in chains.items():
        pipe = scheme.pipes[pid]
        covered = coverage.get(pid, [])
        if geometry.fully_covered(covered, view.pipe(pid)[3]) and not vis.covered_pipes:
            continue
        cuts: list[tuple[float, float]] = []
        for lo, hi in covered:
            cuts.append((_nature_to_chain(chain, lo), _nature_to_chain(chain, hi)))
        cuts.extend(gaps.get(pid, ()))

        glyphs: list[Primitive] = []
        letter_info: list[tuple] = []  # (letter, end1, end2, break line)
        for i, span in enumerate(chain.spans):
            if span.split_offset is None:
                continue
            off = scheme.offsets[span.split_offset]
            brk = view.breaks.get((span.split_offset, pid))
            prev_end = chain.paper[i - 1][1]
            cur_start = chain.paper[i][0]
            if off.magnitude > 0:
                # stretch: dots across the whole pulled-apart span
                if vis.breaks:
                    glyphs.append(DotRun(prev_end, cur_start, st.dot_step,
                                         pipe.style.color))
                if brk is not None:
                    letter_info.append((off.letter, prev_end, cur_start, brk))
            else:
                # compression: the halves overlap when drawn, so each side is
                # cut in its own span around the break centre
                if brk is None:
                    continue
                img = _compression_centre_img(view, proj, pid, span, brk)
                half = brk.paper_len / 2.0
                c_before = chain.acc[i - 1] + dot2(
                    sub2(img, chain.paper[i - 1][0]), _chain_dir(chain, i - 1))
                c_after = chain.acc[i] + dot2(
                    sub2(img, chain.paper[i][0]), _chain_dir(chain, i))
                cuts.append((c_before - half, chain.acc[i]))
                cuts.append((chain.acc[i], c_after + half))
                e1 = _span_point(chain, i - 1, c_before - half)
                e2 = _span_point(chain, i, c_after + half)
                if vis.breaks:
                    if brk.glyph is BreakGlyph.WAVES:
                        glyphs.append(WavePair(
                            mul2(add2(e1, e2), 0.5), st.wave_diameter,
                            _chain_dir(chain, i), pipe.style.color))
                    else:
                        glyphs.append(DotRun(e1, e2, st.dot_step,
                                             pipe.style.color))
                letter_info.append((off.letter, e1, e2, brk))

        if vis.pipes:
            pieces = _subtract([(chain.acc[i], chain.acc[i + 1])
                                for i in range(len(chain.paper))], cuts)
            # the drawn chain jumps at breaks, so strokes never cross spans
            for a, b in pieces:
                for i in range(len(chain.paper)):
                    lo = max(a, chain.acc[i])
                    hi = min(b, chain.acc[i + 1])
                    if hi - lo > 1e-9:
                        out.append(Stroke(
                            (_span_point(chain, i, lo), _span_point(chain, i, hi)),
                            pipe.style.color, pipe.style.line_type))
        if vis.breaks:
            out.extend(glyphs)
            if vis.break_letters:
                for letter, e1, e2, brk in letter_info:
                    d = unit2(sub2(e2, e1)) if dist2(e1, e2) > 1e-9 else (1.0, 0.0)
                    n = rot90(d)
                    for end, sign in ((e1, -1.0), (e2, 1.0)):
                        at = add2(end, add2(mul2(d, sign * brk.label_shift_axial),
                                            mul2(n, brk.label_shift_normal)))
                        out.append(_centered_label(letter, at, label_font,
                                                   pipe.style.color))

    if vis.joints:
        for jid in sorted(sel.joints):
            arc = _joint_arc(view, proj, jid)
            if arc is not None:
                out.append(arc)
    return out


def _chain_dir(chain: geometry.DrawnChain, span_i: int) -> Vec2:
    p0, p1 = chain.paper[span_i]
    if dist2(p0, p1) > 1e-9:
        return unit2(sub2(p1, p0))
    return (1.0, 0.0)


def _compression_centre_img(view: OffsetView, proj: Projection, pid: int,
                            span, brk) -> Vec2:
    """Drawn position of a compression break centre.

    General offsets: the plane crossing point shifted by the stored mid-shift
    along ort, drawn with the fixed side's displacement.  Local offsets: the
    break position itself.
    """
    t_split = span.t0
    off = view.scheme.offsets[span.split_offset]
    q = view.point_at(pid, t_split)
    if off.kind is OffsetKind.GENERAL:
        q = add3(q, mul3(off.ort, brk.placement))
    # draw with the fixed side's displacement: the side not moved by this offset
    before_aff = view.affects_pipe_pos(span.split_offset, pid, max(0.0, t_split - 1e-7))
    fixed_t = (t_split - 1e-7) if not before_aff else (t_split + 1e-7)
    d = view.displacement_on_pipe(pid, max(0.0, fixed_t))
    return _paper(view.scheme, proj, add3(q, d))


def _joint_arc(view: OffsetView, proj: Projection, joint_id: int) -> ArcStroke | None:
    scheme = view.scheme
    joint = scheme.joints[joint_id]
    if joint.kind is not JointKind.FILLET or joint.radius <= 0:
        return None
    a = scheme.pipes[joint.pipe_a]
    b = scheme.pipes[joint.pipe_b]
    shared = ({a.start, a.end} & {b.start, b.end})
    if len(shared) != 1:
        return None
    sp = next(iter(shared))
    other_a = a.end if a.start == sp else a.start
    other_b = b.end if b.start == sp else b.start
    p = _displaced_point_img(view, proj, sp)
    qa = _displaced_point_img(view, proj, other_a)
    qb = _displaced_point_img(view, proj, other_b)
    if dist2(p, qa) < 1e-9 or dist2(p, qb) < 1e-9:
        return None
    ua = unit2(sub2(qa, p))
    ub = unit2(sub2(qb, p))
    cos_t = max(-1.0, min(1.0, dot2(ua, ub)))
    theta = math.acos(cos_t)
    if theta < 1e-6 or math.pi - theta < 1e-6:
        return None
    r = joint.radius * scheme.settings.scale
    bis = unit2(add2(ua, ub))
    centre = add2(p, mul2(bis, r / math.sin(theta / 2.0)))
    lt = r / math.tan(theta / 2.0)
    t1 = add2(p, mul2(ua, lt))
    t2 = add2(p, mul2(ub, lt))
    a0 = math.degrees(math.atan2(t1[1] - centre[1], t1[0] - centre[0]))
    a1 = math.degrees(math.atan2(t2[1] - centre[1], t2[0] - centre[0]))
    # sweep the short way
    if (a1 - a0) % 360.0 > 180.0:
        a0, a1 = a1, a0
    style = scheme.pipes[joint.pipe_a].style
    return ArcStroke(centre, r, a0, a1, style.color, style.line_type)


# -- blocks ---------------------------------------------------------------------

def layout_blocks(view: OffsetView, proj: Projection, sel: Selection) -> list[Primitive]:
    scheme = view.scheme
    out: list[Primitive] = []
    for bid in sorted(sel.blocks):
        blk = scheme.blocks[bid]
        sym = scheme.symbols.get(blk.symbol)
        if sym is None:
            continue
        tf = _block_to_paper(view, proj, bid)
        for g in sym.graphics:
            if isinstance(g, SymbolSegment):
                out.append(Stroke((tf(g.x1, g.y1), tf(g.x2, g.y2)),
                                  blk.style.color, blk.style.line_type))
            elif isinstance(g, SymbolArc):
                sweep = (g.a1 - g.a0) % 360.0 or 360.0
                steps = max(8, int(sweep / ARC_STEP_DEG) + 1)
                pts = []
                for k in range(steps + 1):
                    ang = math.radians(g.a0 + sweep * k / steps)
                    pts.append(tf(g.cx + g.r * math.cos(ang),
                                  g.cy + g.r * math.sin(ang)))
                out.append(Stroke(tuple(pts), blk.style.color, blk.style.line_type))
    return out


# -- dimensions -------------------------------------------------------------------

def _dim_point_img(view: OffsetView, proj: Projection, dp) -> Vec2:
    if dp.kind is DimPointKind.POINT:
        return _displaced_point_img(view, proj, dp.ref)
    return _block_origin_img(view, proj, dp.ref)


def _digits(precision: int) -> int:
    """A stored precision, as the digits a value is written with."""
    if precision < 0:
        raise LayoutError(f"precision {precision} is negative")
    return precision


def layout_dimension(view: OffsetView, proj: Projection, dim) -> list[Primitive]:
    """Chain dimension: sorted points, extension lines, per-segment true-value
    texts, and the arrows-to-ticks substitution when space runs out."""
    scheme = view.scheme
    st = scheme.settings.dimension
    if dim.dim_dir.along_pipe:
        u = model.pipe_direction(scheme, dim.dim_dir.pipe)
    else:
        u = dim.dim_dir.axis.unit()
    ext2 = _axis_image(proj, dim.ext_axis)
    (du, dv), _ = geometry.project_point(proj, u)
    if ext2 is None or norm2((du, dv)) < 1e-12:
        return []  # the view degenerates this dimension
    dim2 = unit2((du, dv))

    entries = []
    for dp in dim.points:
        nat = model.dim_point_at(scheme, dp)
        entries.append((nat[0] * u[0] + nat[1] * u[1] + nat[2] * u[2],
                        _dim_point_img(view, proj, dp)))
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])

    base = add2(entries[0][1], mul2(ext2, dim.line_offset))
    # intersection of each extension ray with the dimension line
    feet: list[Vec2] = []
    for i in order:
        img = entries[i][1]
        denom = ext2[0] * dim2[1] - ext2[1] * dim2[0]
        if abs(denom) < 1e-9:
            foot = add2(img, mul2(ext2, dim.line_offset))
        else:
            r = sub2(base, img)
            s = (r[0] * dim2[1] - r[1] * dim2[0]) / denom
            foot = add2(img, mul2(ext2, s))
        feet.append(foot)

    out: list[Primitive] = []
    overshoot = st.ext_overshoot
    for i, foot in zip(order, feet):
        out.append(Stroke((entries[i][1], add2(foot, mul2(ext2, overshoot))),
                          st.color))
    out.append(Stroke((feet[0], feet[-1]), st.color))

    prec = _digits(st.precision)
    arrow = st.arrow_len
    dfont = font_key(st.font)
    angle = math.degrees(math.atan2(dim2[1], dim2[0]))
    if not (-90.0 < angle <= 90.0):  # keep texts readable
        angle = math.degrees(math.atan2(-dim2[1], -dim2[0]))
    n2 = rot90(dim2)
    for k in range(len(order) - 1):
        i0, i1 = order[k], order[k + 1]
        value = entries[i1][0] - entries[i0][0]
        text = f"{value:.{prec}f}"
        f0, f1 = feet[k], feet[k + 1]
        gap = dist2(f0, f1)
        seg_dir = unit2(sub2(f1, f0)) if gap > 1e-9 else dim2
        if gap < arrow:
            out.append(Marker(MarkerKind.TICK, f0, seg_dir, arrow, st.color))
            out.append(Marker(MarkerKind.TICK, f1, seg_dir, arrow, st.color))
        elif gap < 2.0 * arrow:
            out.append(Marker(MarkerKind.ARROW, f0, seg_dir, arrow, st.color))
            out.append(Marker(MarkerKind.ARROW, f1, mul2(seg_dir, -1.0), arrow, st.color))
        else:
            out.append(Marker(MarkerKind.ARROW, f0, mul2(seg_dir, -1.0), arrow, st.color))
            out.append(Marker(MarkerKind.ARROW, f1, seg_dir, arrow, st.color))
        mid = mul2(add2(f0, f1), 0.5)
        at = add2(mid, mul2(n2, dim.text_offset))
        w = text_width(text, dfont)
        anchor = sub2(at, mul2(seg_dir, w / 2.0))
        out.append(GlyphText(text, anchor, dfont, st.color, round(angle, 9)))
    return out


# -- elevation marks -----------------------------------------------------------

def format_elevation(z_nature: float) -> str:
    """Height value in metres: explicit sign, three decimals, GOST zero."""
    metres = z_nature / 1000.0
    if abs(metres) < 5e-4:
        return "±0.000"
    sign = "+" if metres > 0 else "−"
    return f"{sign}{abs(metres):.3f}"


def layout_elevation(view: OffsetView, proj: Projection, mark) -> list[Primitive]:
    scheme = view.scheme
    st = scheme.settings.elevation
    if mark.target_kind is TargetKind.PIPE:
        anchor3 = model.pipe_point_at(scheme, mark.target, mark.t)
        img = _pipe_pos_img(view, proj, mark.target, mark.t)
    else:
        anchor3 = model.block_anchor_point(scheme, mark.target)
        img = _block_origin_img(view, proj, mark.target)
    e2 = _axis_image(proj, mark.ext_axis)
    if e2 is None:
        return []
    arrow_at = add2(img, mul2(e2, mark.arrow_shift))
    out: list[Primitive] = [
        Stroke((img, arrow_at), st.color, mark.line_type),
        Marker(MarkerKind.ARROW, arrow_at, mul2(e2, -1.0), st.arrow_len, st.color),
    ]
    s2 = _axis_image(proj, mark.shelf_dir.axis)
    if s2 is None:
        return out
    shelf_dir = mul2(s2, mark.shelf_dir.sign)
    shelf_base = (arrow_at[0], arrow_at[1] + mark.shelf_shift)
    text = format_elevation(anchor3[2])
    efont = font_key(st.font)
    w = text_width(text, efont)
    shelf_end = add2(shelf_base, mul2(shelf_dir, w))
    out.append(Stroke((arrow_at, shelf_base), st.color, mark.line_type))
    out.append(Stroke((shelf_base, shelf_end), st.color, mark.line_type))
    tx = min(shelf_base[0], shelf_end[0])
    out.append(GlyphText(text, (tx, shelf_base[1] + 0.5), efont, st.color))
    return out


# -- slope marks ------------------------------------------------------------------

def layout_slope(view: OffsetView, proj: Projection, mark) -> list[Primitive]:
    """Slope arrow pointing downhill plus the formatted value text."""
    scheme = view.scheme
    st = scheme.settings.slope
    rise, run = edit.pipe_slope(scheme, mark.pipe)
    if run == 0.0 and mark.format is not SlopeFormat.ANGLE:
        raise LayoutError(
            f"slope mark on a vertical pipe cannot use {mark.format.value} format")
    value = edit.format_slope(rise, run, mark.format, _digits(mark.precision))
    if value is None:
        raise LayoutError("slope value is not representable in the stored format")
    at = _pipe_pos_img(view, proj, mark.pipe, mark.t)
    a, b = model.pipe_ends(scheme, mark.pipe)
    (du, dv), _ = geometry.project_point(proj, (b[0] - a[0], b[1] - a[1], b[2] - a[2]))
    if norm2((du, dv)) < 1e-12:
        return []
    d2 = unit2((du, dv))
    n2 = rot90(d2)
    pos = add2(at, mul2(n2, mark.shift))
    out: list[Primitive] = []
    sfont = font_key(st.font)
    if rise != 0.0 and run != 0.0:
        downhill = d2 if rise < 0 else mul2(d2, -1.0)
        tail = sub2(pos, mul2(downhill, st.arrow_len / 2.0))
        head = add2(pos, mul2(downhill, st.arrow_len / 2.0))
        out.append(Stroke((tail, head), st.color))
        out.append(Marker(MarkerKind.ARROW, head, downhill, st.arrow_span * 2.5, st.color))
    angle = math.degrees(math.atan2(d2[1], d2[0]))
    if not (-90.0 < angle <= 90.0):
        angle = math.degrees(math.atan2(-d2[1], -d2[0]))
    w = text_width(value, sfont)
    anchor = add2(add2(pos, mul2(n2, 0.8)), mul2(d2, -w / 2.0))
    out.append(GlyphText(value, anchor, sfont, st.color, round(angle, 9)))
    return out


# -- texts and position marks -------------------------------------------------------

def _leader_indicated_img(view: OffsetView, proj: Projection, kind: TargetKind,
                          leader_id: int) -> Vec2:
    if kind is TargetKind.PIPE:
        ld = view.scheme.pipe_leaders[leader_id]
        return _pipe_pos_img(view, proj, ld.pipe, ld.t)
    ld = view.scheme.block_leaders[leader_id]
    tf = _block_to_paper(view, proj, ld.block)
    return tf(ld.anchor[0], ld.anchor[1])


def layout_texts_and_marks(view: OffsetView, proj: Projection,
                           sel: Selection) -> list[Primitive]:
    """Texts with shelf and leaders; position marks with their numbers."""
    scheme = view.scheme
    vis = scheme.settings.visibility
    scale = scheme.settings.scale
    out: list[Primitive] = []

    if vis.texts:
        # each text's leaders, pipe leaders before block leaders, in id order
        leaders: dict[int, list[tuple[TargetKind, int]]] = {}
        for kind, store, ids in ((TargetKind.PIPE, scheme.pipe_leaders, sel.pipe_leaders),
                                 (TargetKind.BLOCK, scheme.block_leaders, sel.block_leaders)):
            for lid in sorted(ids):
                leaders.setdefault(store[lid].text, []).append((kind, lid))
        for tid in sorted(sel.texts):
            txt = scheme.texts[tid]
            main_img = _leader_indicated_img(view, proj, *txt.main_leader)
            # offset_vec is nature mm: scaled to paper, never re-rotated
            origin = add2(main_img, mul2(txt.offset_vec, scale))
            tfont = font_key(txt.font)
            width = max((text_width(ln, tfont) for ln in txt.lines), default=0.0)
            shelf_from = scheme.settings.text.shelf_from
            tail = origin if shelf_from is ShelfFrom.START else (origin[0] + width, origin[1])
            out.append(Stroke((origin, (origin[0] + width, origin[1])), txt.color))
            if len(txt.lines) == 2 and scheme.settings.text.second_shelf:
                y2 = origin[1] - txt.line_step
                out.append(Stroke(((origin[0], y2), (origin[0] + width, y2)), txt.color))
            for i, line in enumerate(txt.lines):
                out.append(GlyphText(line, (origin[0], origin[1] + 0.5 - i * txt.line_step),
                                     tfont, txt.color))
            for kind, lid in leaders.get(tid, ()):
                out.append(Stroke((_leader_indicated_img(view, proj, kind, lid), tail),
                                  txt.color))

    if vis.position_marks:
        for mid in sorted(sel.position_marks):
            mark = scheme.position_marks[mid]
            if not mark.visible and not vis.hidden_marks:
                continue
            if mark.target_kind is TargetKind.PIPE:
                at = _pipe_pos_img(view, proj, mark.target, mark.anchor_t)
            else:
                tf = _block_to_paper(view, proj, mark.target)
                at = tf(mark.anchor_xy[0], mark.anchor_xy[1])
            origin = add2(at, mul2(mark.offset_vec, scale))
            mfont = font_key(mark.font)
            labels = [str(scheme.spec_props[ref].position)
                      for ref in mark.props if ref in scheme.spec_props]
            width = max((text_width(s, mfont) for s in labels), default=0.0)
            out.append(Stroke((origin, (origin[0] + width, origin[1])), mark.color))
            tail = origin if mark.shelf_from is ShelfFrom.START else (origin[0] + width, origin[1])
            out.append(Stroke((at, tail), mark.color))
            for i, s in enumerate(labels):
                out.append(GlyphText(s, (origin[0], origin[1] + 0.5 - i * mark.line_step),
                                     mfont, mark.color))
    return out


# -- axis grid ------------------------------------------------------------------

GRID_LETTERS = "АБВГДЕЖЗКЛМНПРСТУФЦЧШЩЭЮЯ"


def grid_letter(first: str, i: int) -> str:
    base = len(GRID_LETTERS)
    start = GRID_LETTERS.find(first)
    if start < 0:
        start = 0
    n = start + i + 1
    out = ""
    while n > 0:
        n, rem = divmod(n - 1, base)
        out = GRID_LETTERS[rem] + out
    return out


def _axis_positions(groups) -> list[float]:
    out: list[float] = []
    pos = 0.0
    for g in groups:
        for _ in range(g.count):
            if out:
                pos += g.step
            out.append(pos)
    return out


def layout_axis_grid(scheme: Scheme, proj: Projection) -> list[Primitive]:
    """Visible building axes in the plane z = plane_z with circled labels,
    bent label risers and optional overall dimensions."""
    grid = scheme.axis_grid
    if grid is None:
        return []
    gs = grid.settings
    scale = scheme.settings.scale
    xs = _axis_positions(grid.x_groups)
    ys = _axis_positions(grid.y_groups)
    if not gs.dir_positive_x:
        xs = [-x for x in xs]
    if not gs.dir_positive_y:
        ys = [-y for y in ys]
    x_range = (min(xs), max(xs)) if xs else (0.0, 0.0)
    y_range = (min(ys), max(ys)) if ys else (0.0, 0.0)
    z0 = gs.plane_z
    label_font = font_key(scheme.settings.text.font)
    ez2 = _axis_image(proj, Axis.Z) or (0.0, 1.0)
    out: list[Primitive] = []

    def emit_axes(values: list[float], visible: set[int], along: Axis,
                  cross_range: tuple[float, float], lead_len: float,
                  labels_digits: bool, overall: bool, dim_offset: float) -> None:
        lo, hi = cross_range
        feet = []
        for i, v in enumerate(values):
            index = i + 1
            if visible and index not in visible:
                continue
            if along is Axis.X:
                p0, p1 = (v, lo, z0), (v, hi, z0)
            else:
                p0, p1 = (lo, v, z0), (hi, v, z0)
            a = _paper(scheme, proj, p0)
            b = _paper(scheme, proj, p1)
            end, other = (a, b) if gs.labels_at_first else (b, a)
            axis_dir = unit2(sub2(end, other)) if dist2(a, b) > 1e-9 else (0.0, -1.0)
            lead_end = add2(end, mul2(axis_dir, lead_len))
            out.append(Stroke((other, end), gs.color, LineType.DASH_DOT))
            out.append(Stroke((end, lead_end), gs.color))
            tip = lead_end
            if abs(gs.bend_shift_z) > 1e-9:
                tip = add2(lead_end, mul2(ez2, gs.bend_shift_z))
                out.append(Stroke((lead_end, tip), gs.color))
                centre = add2(tip, mul2(ez2, math.copysign(GRID_CIRCLE_R, gs.bend_shift_z)))
            else:
                centre = add2(tip, mul2(axis_dir, GRID_CIRCLE_R))
            out.append(ArcStroke(centre, GRID_CIRCLE_R, 0.0, 360.0, gs.color))
            label = (str(gs.first_number + i) if labels_digits
                     else grid_letter(gs.first_letter, i))
            out.append(_centered_label(label, centre, label_font, gs.color))
            feet.append((v, end))
        if overall and len(feet) >= 2:
            _overall_dim(out, scheme, feet, dim_offset)

    emit_axes(xs, gs.visible_x, Axis.X, y_range, gs.lead_len_x,
              gs.digits_label_x, gs.overall_dim_x, gs.dim_offset_x)
    emit_axes(ys, gs.visible_y, Axis.Y, x_range, gs.lead_len_y,
              not gs.digits_label_x, gs.overall_dim_y, gs.dim_offset_y)
    return out


def _overall_dim(out: list, scheme: Scheme, feet, dim_offset: float) -> None:
    st = scheme.settings.dimension
    first_v, first_img = feet[0]
    last_v, last_img = feet[-1]
    if dist2(first_img, last_img) < 1e-9:
        return
    d2 = unit2(sub2(last_img, first_img))
    n2 = rot90(d2)
    # push the dimension line outward, away from the grid body
    n2 = mul2(n2, -1.0 if n2[1] > 0 else 1.0)
    a = add2(first_img, mul2(n2, dim_offset))
    b = add2(last_img, mul2(n2, dim_offset))
    out.append(Stroke((first_img, add2(a, mul2(n2, st.ext_overshoot))), st.color))
    out.append(Stroke((last_img, add2(b, mul2(n2, st.ext_overshoot))), st.color))
    out.append(Stroke((a, b), st.color))
    out.append(Marker(MarkerKind.ARROW, a, mul2(d2, -1.0), st.arrow_len, st.color))
    out.append(Marker(MarkerKind.ARROW, b, d2, st.arrow_len, st.color))
    text = f"{abs(last_v - first_v):.{_digits(st.precision)}f}"
    dfont = font_key(st.font)
    mid = mul2(add2(a, b), 0.5)
    at = add2(mid, mul2(rot90(d2), st.text_offset))
    out.append(GlyphText(text, sub2(at, mul2(d2, text_width(text, dfont) / 2.0)),
                         dfont, st.color))


# -- axes icon --------------------------------------------------------------------

def _axes_icon(scheme: Scheme, proj: Projection, at: Vec2) -> list[Primitive]:
    st = scheme.settings
    font = font_key(st.text.font)
    out: list[Primitive] = []
    for axis, label in ((Axis.X, "X"), (Axis.Y, "Y"), (Axis.Z, "Z")):
        img = _axis_image(proj, axis)
        if img is None:
            continue
        tip = add2(at, mul2(img, AXES_ICON_LEN))
        out.append(Stroke((at, tip), 0))
        out.append(Marker(MarkerKind.ARROW, tip, img, 2.5, 0))
        out.append(_centered_label(label, add2(tip, mul2(img, 3.0)), font, 0))
    return out


# -- whole scheme -----------------------------------------------------------------

def layout_scheme(scheme: Scheme, proj: Projection, slc: Slice | None = None) -> list[Primitive]:
    """Deterministic concatenation: grid, pipes and breaks, blocks,
    dimensions, elevations, slopes, texts and marks, corner axes icon."""
    slc = slc if slc is not None else Slice()
    sel = geometry.slice_scheme(scheme, slc)
    view = OffsetView(scheme)
    vis = scheme.settings.visibility
    out: list[Primitive] = []
    if vis.grid and sel.grid:
        out.extend(layout_axis_grid(scheme, proj))
    out.extend(layout_pipes(view, proj, sel))
    if vis.blocks:
        out.extend(layout_blocks(view, proj, sel))
    if vis.dimensions:
        for did in sorted(sel.dimensions):
            out.extend(layout_dimension(view, proj, scheme.dimensions[did]))
    if vis.elevations:
        for eid in sorted(sel.elevation_marks):
            out.extend(layout_elevation(view, proj, scheme.elevation_marks[eid]))
    if vis.slopes:
        for sid in sorted(sel.slope_marks):
            out.extend(layout_slope(view, proj, scheme.slope_marks[sid]))
    out.extend(layout_texts_and_marks(view, proj, sel))
    if vis.axes_icon:
        out.extend(_axes_icon(scheme, proj, _icon_anchor(view, proj, sel)))
    return out


def _icon_anchor(view: OffsetView, proj: Projection, sel: Selection) -> Vec2:
    """Corner position for the axes icon.

    Derived from the selected model geometry only, so visibility flags never
    move it.
    """
    scheme = view.scheme
    pts = [_paper(scheme, proj, view.displaced_pipe_pos(pid, t))
           for pid in sorted(sel.pipes)
           for t in (0.0, view.pipe(pid)[3])]
    if scheme.axis_grid is not None and sel.grid:
        gs = scheme.axis_grid.settings
        pts.append(_paper(scheme, proj, (0.0, 0.0, gs.plane_z)))
    if not pts:
        return (0.0, 0.0)
    return (min(p[0] for p in pts) - 25.0, min(p[1] for p in pts))


def _prim_points(p: Primitive):
    if isinstance(p, Stroke):
        return p.points
    if isinstance(p, ArcStroke):
        return ((p.center[0] - p.radius, p.center[1] - p.radius),
                (p.center[0] + p.radius, p.center[1] + p.radius))
    if isinstance(p, DotRun):
        return (p.p0, p.p1)
    if isinstance(p, WavePair):
        return ((p.center[0] - p.diameter, p.center[1] - p.diameter),
                (p.center[0] + p.diameter, p.center[1] + p.diameter))
    if isinstance(p, GlyphText):
        w = text_width(p.text, p.font)
        return (p.anchor, (p.anchor[0] + w, p.anchor[1] + p.font[1]))
    return (p.at,)


def bounds(primitives) -> tuple[float, float, float, float] | None:
    """(min_x, min_y, max_x, max_y) over all primitives, None when empty."""
    pts = [q for p in primitives for q in _prim_points(p)]
    if not pts:
        return None
    return (min(q[0] for q in pts), min(q[1] for q in pts),
            max(q[0] for q in pts), max(q[1] for q in pts))
