"""Projection catalog, 3D->2D transform, offset sidedness and displacement
(one ``OffsetView`` per layout, validation or edit), drawn pipe chains,
block coverage, height-layer slicing and occlusion-gap computation.

The catalog covers the thirteen standard axonometric projections, the six
plain orthographic views, six extra oblique frontal projections receding
into the first quadrant, and one parametric custom entry.  Axis images are
pinned numeric literals so output never depends on the platform's libm.
"""

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from . import model
from .model import BreakLine, DimPoint, DimPointKind, OffsetKind, Scheme, Slice
from .vectors import Vec2, Vec3, add3, along3, cross3, dist2, dist3, dot3, grid_pairs, mul3, norm3, unit3


@dataclass(frozen=True)
class Projection:
    """2D images of the unit axes plus the depth-ordering direction.

    ``depth = p . view_dir`` grows toward the viewer: at a drawn crossing the
    segment with the smaller depth passes behind.
    """

    name: str
    ex: Vec2
    ey: Vec2
    ez: Vec2
    view_dir: Vec3


def _row(name, ex, ey, ez, view_dir) -> Projection:
    return Projection(name, ex, ey, ez, view_dir)


_CATALOG: tuple[Projection, ...] = (
    # -- 13 axonometric projections --
    _row("isometric",
         (-0.866025403784, -0.5), (0.866025403784, -0.5), (0, 1),
         (0.57735026919, 0.57735026919, 0.57735026919)),
    _row("dimetric",
         (-0.992187449333, -0.12475602345), (0.374959335037, -0.330765017904), (0, 1),
         (0.333333333333, 0.881917103688, 0.333333333333)),
    _row("dimetric-left",
         (0.992187449333, -0.12475602345), (-0.374959335037, -0.330765017904), (0, 1),
         (-0.333333333333, 0.881917103688, 0.333333333333)),
    _row("frontal-isometric-30",
         (1, 0), (-0.866025403784, -0.5), (0, 1),
         (-0.612372435696, -0.707106781187, -0.353553390593)),
    _row("frontal-isometric-45",
         (1, 0), (-0.707106781187, -0.707106781187), (0, 1),
         (-0.5, -0.707106781187, -0.5)),
    _row("frontal-isometric-60",
         (1, 0), (-0.5, -0.866025403784), (0, 1),
         (-0.353553390593, -0.707106781187, -0.612372435696)),
    _row("horizontal-isometric-30",
         (0.866025403784, -0.5), (0.5, 0.866025403784), (0, 1),
         (0.353553390593, -0.612372435696, 0.707106781187)),
    _row("horizontal-isometric-45",
         (0.707106781187, -0.707106781187), (0.707106781187, 0.707106781187), (0, 1),
         (0.5, -0.5, 0.707106781187)),
    _row("horizontal-isometric-60",
         (0.5, -0.866025403784), (0.866025403784, 0.5), (0, 1),
         (0.612372435696, -0.353553390593, 0.707106781187)),
    _row("frontal-dimetric-30",
         (1, 0), (-0.433012701892, -0.25), (0, 1),
         (-0.387298334621, -0.894427191, -0.22360679775)),
    _row("frontal-dimetric-45",
         (1, 0), (-0.353553390593, -0.353553390593), (0, 1),
         (-0.316227766017, -0.894427191, -0.316227766017)),
    _row("frontal-dimetric-60",
         (1, 0), (-0.25, -0.433012701892), (0, 1),
         (-0.22360679775, -0.894427191, -0.387298334621)),
    _row("frontal-dimetric-45-left",
         (1, 0), (0.353553390593, -0.353553390593), (0, 1),
         (0.316227766017, -0.894427191, -0.316227766017)),
    # -- 6 orthographic views --
    _row("view-front", (1, 0), (0, 0), (0, 1), (0, -1, 0)),
    _row("view-back", (-1, 0), (0, 0), (0, 1), (0, 1, 0)),
    _row("view-top", (1, 0), (0, 1), (0, 0), (0, 0, 1)),
    _row("view-bottom", (1, 0), (0, -1), (0, 0), (0, 0, -1)),
    _row("view-left", (0, 0), (-1, 0), (0, 1), (-1, 0, 0)),
    _row("view-right", (0, 0), (1, 0), (0, 1), (1, 0, 0)),
    # -- 6 extra oblique frontal projections, Y receding into quadrant I --
    _row("frontal-isometric-q1-30",
         (1, 0), (0.866025403784, 0.5), (0, 1),
         (0.612372435696, -0.707106781187, 0.353553390593)),
    _row("frontal-isometric-q1-45",
         (1, 0), (0.707106781187, 0.707106781187), (0, 1),
         (0.5, -0.707106781187, 0.5)),
    _row("frontal-isometric-q1-60",
         (1, 0), (0.5, 0.866025403784), (0, 1),
         (0.353553390593, -0.707106781187, 0.612372435696)),
    _row("frontal-dimetric-q1-30",
         (1, 0), (0.433012701892, 0.25), (0, 1),
         (0.387298334621, -0.894427191, 0.22360679775)),
    _row("frontal-dimetric-q1-45",
         (1, 0), (0.353553390593, 0.353553390593), (0, 1),
         (0.316227766017, -0.894427191, 0.316227766017)),
    _row("frontal-dimetric-q1-60",
         (1, 0), (0.25, 0.433012701892), (0, 1),
         (0.22360679775, -0.894427191, 0.387298334621)),
)


def custom_projection(view_dir: Vec3, up: Vec3 = (0.0, 0.0, 1.0),
                      name: str = "custom") -> Projection:
    """True orthographic projection along user-given spatial axes."""
    w = unit3(view_dir)
    h = cross3(up, w)
    if norm3(h) < 1e-12:  # viewing straight along up: fall back to world X
        h = cross3((1.0, 0.0, 0.0), w)
    h = unit3(h)
    v = cross3(w, h)
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    ex, ey, ez = ((dot3(a, h), dot3(a, v)) for a in axes)
    return Projection(name, ex, ey, ez, w)


def projection_catalog() -> list[Projection]:
    """The full named catalog: 13 axonometric + 6 views + 6 oblique + custom."""
    return list(_CATALOG) + [custom_projection((1.0, 1.0, 1.0))]


def projection_by_name(name: str) -> Projection:
    for proj in projection_catalog():
        if proj.name == name:
            return proj
    known = ", ".join(p.name for p in projection_catalog())
    raise KeyError(f"unknown projection {name!r}; catalog: {known}")


def project_point(proj: Projection, p: Vec3) -> tuple[Vec2, float]:
    """Map a nature point to the drawing plane (nature-scale mm) plus depth."""
    u = p[0] * proj.ex[0] + p[1] * proj.ey[0] + p[2] * proj.ez[0]
    v = p[0] * proj.ex[1] + p[1] * proj.ey[1] + p[2] * proj.ez[1]
    return (u, v), dot3(p, proj.view_dir)


# -- offsets ----------------------------------------------------------------
#
# Offsets move points, and every drawn object follows the points it hangs
# off: the side of an offset a point or pipe position is on, and where it
# ends up, is decided here and nowhere else, by ``OffsetSide``.  Only an
# ``OffsetView`` builds one, so a layout, a validation or an edit resolves
# each offset once and a query there is dict lookups plus arithmetic.

class OffsetSide:
    """One offset's sidedness data, resolved once by an ``OffsetView``.

    ``disp`` is the displacement the offset adds; a general offset with a
    plane axis keeps that axis' coordinate index, the plane coordinate and
    the sign of ``ort`` along the axis.  ``index`` is None for a local
    offset and for a general offset without an axis, which moves nothing.
    """

    __slots__ = ("off", "disp", "local", "index", "plane", "sign")

    def __init__(self, off):
        self.off = off
        self.disp = mul3(off.ort, off.magnitude)
        self.local = off.kind is OffsetKind.LOCAL
        self.index = None
        if not self.local and off.axis is not None:
            self.index = off.axis.index
            self.plane = off.plane_coord
            self.sign = dot3(off.ort, off.axis.unit())

    def side(self, p: Vec3) -> bool:
        """True when ``p`` is strictly on the displaced side of the plane."""
        return (p[self.index] - self.plane) * self.sign > 0.0

    def affects_point(self, scheme: Scheme, point_id: int) -> bool:
        if self.local:
            return point_id in self.off.displaced_points
        return self.index is not None and self.side(scheme.point(point_id).as_tuple())

    def affects_pipe_pos(self, pipe, brk: BreakLine | None, t: float, p: Vec3) -> bool:
        """Whether the point ``p`` at arc length ``t`` on ``pipe`` moves;
        ``brk`` is this offset's break line on the pipe, or None."""
        if self.local:
            if brk is not None and t > brk.placement:
                return pipe.end in self.off.displaced_points
            return pipe.start in self.off.displaced_points
        return self.index is not None and self.side(p)

    def crosses(self, scheme: Scheme, pipe) -> bool:
        """A pipe crosses the offset when its endpoints displace differently."""
        return self.affects_point(scheme, pipe.start) != self.affects_point(scheme, pipe.end)

    def crossing_pipes(self, scheme: Scheme) -> list[int]:
        """Ids of the pipes the offset crosses: ``crosses`` over every pipe,
        reading each end's displaced-set membership or one coordinate."""
        if self.local:
            moved = self.off.displaced_points
            return [pid for pid, pipe in scheme.pipes.items()
                    if (pipe.start in moved) != (pipe.end in moved)]
        if self.index is None:
            return []
        coord, plane, sign = attrgetter("xyz"[self.index]), self.plane, self.sign
        pts = scheme.points
        return [pid for pid, pipe in scheme.pipes.items()
                if ((coord(pts[pipe.start]) - plane) * sign > 0.0)
                != ((coord(pts[pipe.end]) - plane) * sign > 0.0)]

    def split_at(self, a: Vec3, b: Vec3, length: float,
                 brk: BreakLine | None) -> float | None:
        """Arc length where this offset breaks a pipe from ``a`` to ``b``
        that it crosses: the plane crossing, or the break position."""
        if self.local:
            return None if brk is None else brk.placement
        denom = b[self.index] - a[self.index]
        if denom == 0.0:
            return None
        frac = (self.plane - a[self.index]) / denom
        return min(max(frac, 0.0), 1.0) * length


def break_index(scheme: Scheme) -> dict[tuple[int, int], BreakLine]:
    """The break line per (offset id, pipe id): the first in ``scheme.breaks``
    order.  Keys run in the order of each pair's first break."""
    index: dict[tuple[int, int], BreakLine] = {}
    for brk in scheme.breaks.values():
        index.setdefault((brk.offset, brk.pipe), brk)
    return index


def point_displacements(scheme: Scheme) -> dict[int, Vec3]:
    """Displacement vector per point id."""
    view = OffsetView(scheme)
    return {pid: view.point_displacement(pid) for pid in scheme.points}


def displacement_on_pipe(scheme: Scheme, pipe_id: int, t: float) -> Vec3:
    """Displacement of the point at arc length ``t`` on a pipe."""
    return OffsetView(scheme).displacement_on_pipe(pipe_id, t)


@dataclass
class DrawnSpan:
    """One rigidly displaced piece of a pipe's drawn image.

    2D coordinates are nature-scale drawing-plane mm (not yet paper-scaled);
    ``t0``/``t1`` are the nature arc-length bounds on the pipe.
    """

    p0: Vec2
    p1: Vec2
    t0: float
    t1: float
    split_offset: int | None = None  # offset causing the gap before this span


def pipe_drawn_spans(scheme: Scheme, proj: Projection, pipe_id: int) -> list[DrawnSpan]:
    return OffsetView(scheme).drawn_spans(proj, pipe_id)


@dataclass
class DrawnChain:
    """A pipe's drawn image on paper: its spans, each span's two ends in
    paper mm, and the cumulative paper length at each span boundary."""

    spans: list[DrawnSpan]
    paper: list[tuple[Vec2, Vec2]]
    acc: list[float]  # len(spans) + 1 entries


class OffsetView:
    """Every offset of one scheme resolved once, for one layout, validation
    or edit check.

    It holds each offset's ``OffsetSide``, the ``break_index``, each pipe's
    ends and length, and each point's displacement, all filled in as they
    are asked for: a check of one offset builds one side, and a check of a
    candidate pipe, which has no break lines, builds no index.  It reads the
    scheme as it was when built: build a new one after an edit.
    """

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        self._sides: dict[int, OffsetSide] = {}
        self._pipes: dict[int, tuple] = {}  # id -> (pipe, start, end, length)
        self._points: dict[int, Vec3] = {}  # id -> displacement

    def side(self, offset_id: int) -> OffsetSide:
        got = self._sides.get(offset_id)
        if got is None:
            got = self._sides[offset_id] = OffsetSide(self.scheme.offsets[offset_id])
        return got

    @cached_property
    def sides(self) -> dict[int, OffsetSide]:
        """Every offset's side, in ``scheme.offsets`` order."""
        return {oid: self.side(oid) for oid in self.scheme.offsets}

    @cached_property
    def breaks(self) -> dict[tuple[int, int], BreakLine]:
        return break_index(self.scheme)

    def pipe(self, pipe_id: int) -> tuple:
        """(pipe, start position, end position, length)."""
        got = self._pipes.get(pipe_id)
        if got is None:
            pipe = self.scheme.pipe(pipe_id)
            a = self.scheme.point(pipe.start).as_tuple()
            b = self.scheme.point(pipe.end).as_tuple()
            got = self._pipes[pipe_id] = (pipe, a, b, dist3(a, b))
        return got

    def point_at(self, pipe_id: int, t: float) -> Vec3:
        """``model.pipe_point_at``."""
        _, a, b, length = self.pipe(pipe_id)
        return along3(a, b, length, t)

    def point_displacement(self, point_id: int) -> Vec3:
        """The offsets that move a point, summed."""
        d = self._points.get(point_id)
        if d is None:
            d = (0.0, 0.0, 0.0)
            for side in self.sides.values():
                if side.affects_point(self.scheme, point_id):
                    d = add3(d, side.disp)
            self._points[point_id] = d
        return d

    def affects_pipe_pos(self, offset_id: int, pipe_id: int, t: float) -> bool:
        pipe, a, b, length = self.pipe(pipe_id)
        return self.side(offset_id).affects_pipe_pos(
            pipe, self.breaks.get((offset_id, pipe_id)), t, along3(a, b, length, t))

    def affects_dim_point(self, offset_id: int, dp: DimPoint) -> bool:
        """Whether the offset moves a dimension point: its point, or its
        block's anchor on the host pipe."""
        if dp.kind is DimPointKind.POINT:
            return self.side(offset_id).affects_point(self.scheme, dp.ref)
        blk = self.scheme.block(dp.ref)
        return self.affects_pipe_pos(offset_id, blk.pipe, blk.dist_from_start)

    def crosses(self, offset_id: int, pipe) -> bool:
        """Whether a pipe, stored or a candidate, crosses the offset."""
        return self.side(offset_id).crosses(self.scheme, pipe)

    def crossing_pipes(self, offset_id: int) -> list[int]:
        """Ids of the stored pipes that cross the offset, in ``scheme.pipes`` order."""
        return self.side(offset_id).crossing_pipes(self.scheme)

    def displacement_on_pipe(self, pipe_id: int, t: float) -> Vec3:
        pipe, a, b, length = self.pipe(pipe_id)
        p = along3(a, b, length, t)
        d = (0.0, 0.0, 0.0)
        breaks = self.breaks  # read once: a cached property is slow to read in a loop
        for oid, side in self.sides.items():
            if side.affects_pipe_pos(pipe, breaks.get((oid, pipe_id)), t, p):
                d = add3(d, side.disp)
        return d

    def displaced_pipe_pos(self, pipe_id: int, t: float) -> Vec3:
        return add3(self.point_at(pipe_id, t), self.displacement_on_pipe(pipe_id, t))

    def split_params(self, pipe_id: int) -> list[tuple[float, int]]:
        """Arc-length positions where offsets break a pipe, with offset ids:
        general offsets at the plane crossing, local ones at their break
        position.  Sorted; at most one entry per offset."""
        pipe, a, b, length = self.pipe(pipe_id)
        splits: list[tuple[float, int]] = []
        for oid, side in self.sides.items():
            if not side.crosses(self.scheme, pipe):
                continue
            t = side.split_at(a, b, length, self.breaks.get((oid, pipe_id)))
            if t is not None:
                splits.append((t, oid))
        splits.sort()
        return splits

    def drawn_spans(self, proj: Projection, pipe_id: int) -> list[DrawnSpan]:
        """A pipe's rigidly displaced pieces between its split positions."""
        splits = self.split_params(pipe_id)
        bounds = [0.0] + [t for t, _ in splits] + [self.pipe(pipe_id)[3]]
        spans: list[DrawnSpan] = []
        for i in range(len(bounds) - 1):
            t0, t1 = bounds[i], bounds[i + 1]
            d = self.displacement_on_pipe(pipe_id, 0.5 * (t0 + t1))
            u0, _ = project_point(proj, add3(self.point_at(pipe_id, t0), d))
            u1, _ = project_point(proj, add3(self.point_at(pipe_id, t1), d))
            gap_offset = splits[i - 1][1] if i > 0 else None
            spans.append(DrawnSpan(u0, u1, t0, t1, gap_offset))
        return spans

    def drawn_chains(self, proj: Projection, pipe_ids) -> dict[int, DrawnChain]:
        """The drawn chain of every pipe of nonzero length among ``pipe_ids``."""
        s = self.scheme.settings.scale
        chains: dict[int, DrawnChain] = {}
        for pid in pipe_ids:
            if self.pipe(pid)[3] == 0.0:
                continue
            spans = self.drawn_spans(proj, pid)
            paper = [((a.p0[0] * s, a.p0[1] * s), (a.p1[0] * s, a.p1[1] * s)) for a in spans]
            acc = [0.0]
            for p0, p1 in paper:
                acc.append(acc[-1] + dist2(p0, p1))
            chains[pid] = DrawnChain(spans, paper, acc)
        return chains


# -- block coverage ----------------------------------------------------------

def block_coverage(scheme: Scheme) -> dict[int, list[tuple[float, float]]]:
    """Merged nature-mm spans hidden by blocks, per pipe, in one walk over the
    blocks; a pipe no block covers has no entry.

    Each symbol leg removes ``cut_length / scale`` of pipe centred at its
    attachment point, clipped to the pipe extent.  The cost is linear in
    blocks plus covered intervals.
    """
    scale = scheme.settings.scale
    raw: dict[int, list[tuple[float, float]]] = {}
    for bid, blk in scheme.blocks.items():
        sym = scheme.symbols.get(blk.symbol)
        if sym is None:
            continue
        legs: list[tuple[int, float, float]] = [
            (blk.pipe, blk.dist_from_start, sym.cut_lengths[0])]
        anchor = model.block_anchor_point(scheme, bid)
        for i, ref in enumerate((blk.pipe2, blk.pipe3), start=1):
            if ref is None or i >= len(sym.cut_lengths) or ref not in scheme.pipes:
                continue
            e0, e1 = model.pipe_ends(scheme, ref)
            at = 0.0 if dist3(anchor, e0) <= dist3(anchor, e1) else model.pipe_length(scheme, ref)
            legs.append((ref, at, sym.cut_lengths[i]))
        for leg_pipe, centre, cut_paper in legs:
            if cut_paper <= 0.0:
                continue
            half = cut_paper / scale * blk.stretch / 2.0
            lo = max(0.0, centre - half)
            hi = min(model.pipe_length(scheme, leg_pipe), centre + half)
            if hi > lo:
                raw.setdefault(leg_pipe, []).append((lo, hi))
    coverage: dict[int, list[tuple[float, float]]] = {}
    for pid, intervals in raw.items():
        intervals.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        coverage[pid] = merged
    return coverage


def coverage_intervals(scheme: Scheme, pipe_id: int) -> list[tuple[float, float]]:
    """Merged nature-mm spans of one pipe hidden by blocks (see
    ``block_coverage``, which answers for every pipe in the same time)."""
    scheme.pipe(pipe_id)  # raises on unknown id
    return block_coverage(scheme).get(pipe_id, [])


def fully_covered(spans: list[tuple[float, float]], length: float) -> bool:
    """True if ``coverage_intervals`` of a pipe of ``length`` cover all of it."""
    return len(spans) == 1 and spans[0][0] <= 0.0 and spans[0][1] >= length


# -- slicing ----------------------------------------------------------------

@dataclass
class Selection:
    """Per-class id sets picked by a height slab."""

    pipes: set[int] = field(default_factory=set)
    joints: set[int] = field(default_factory=set)
    breaks: set[int] = field(default_factory=set)
    blocks: set[int] = field(default_factory=set)
    texts: set[int] = field(default_factory=set)
    pipe_leaders: set[int] = field(default_factory=set)
    block_leaders: set[int] = field(default_factory=set)
    position_marks: set[int] = field(default_factory=set)
    dimensions: set[int] = field(default_factory=set)
    elevation_marks: set[int] = field(default_factory=set)
    slope_marks: set[int] = field(default_factory=set)
    grid: bool = False


def slice_scheme(scheme: Scheme, slc: Slice) -> Selection:
    """Select the sub-scheme touched by a height slab.

    Pipes are in when their z-range touches the slab; blocks, elevation and
    slope marks when their indicated point is inside; dimensions when at
    least one dimensioned point is inside; joints, breaks, leaders, texts and
    position marks follow their targets; the grid when its plane is inside.
    """
    sel = Selection()

    def inside(z: float) -> bool:
        return slc.contains(z)

    for pid, pipe in scheme.pipes.items():
        za = scheme.point(pipe.start).z
        zb = scheme.point(pipe.end).z
        if slc.is_all or (min(za, zb) <= slc.z_max and max(za, zb) >= slc.z_min):
            sel.pipes.add(pid)
    for jid, joint in scheme.joints.items():
        if joint.pipe_a in sel.pipes and joint.pipe_b in sel.pipes:
            sel.joints.add(jid)
    for bid, brk in scheme.breaks.items():
        if brk.pipe in sel.pipes:
            sel.breaks.add(bid)
    for bid, blk in scheme.blocks.items():
        if inside(model.block_anchor_point(scheme, bid)[2]):
            sel.blocks.add(bid)
    for lid, ld in scheme.pipe_leaders.items():
        if ld.pipe in sel.pipes:
            sel.pipe_leaders.add(lid)
            sel.texts.add(ld.text)
    for lid, ld in scheme.block_leaders.items():
        if ld.block in sel.blocks:
            sel.block_leaders.add(lid)
            sel.texts.add(ld.text)
    for mid, mark in scheme.position_marks.items():
        store = sel.pipes if mark.target_kind is model.TargetKind.PIPE else sel.blocks
        if mark.target in store:
            sel.position_marks.add(mid)
    for did, dim in scheme.dimensions.items():
        for dp in dim.points:
            if inside(model.dim_point_at(scheme, dp)[2]):
                sel.dimensions.add(did)
                break
    for eid, mark in scheme.elevation_marks.items():
        if mark.target_kind is model.TargetKind.PIPE:
            z = model.pipe_point_at(scheme, mark.target, mark.t)[2]
        else:
            z = model.block_anchor_point(scheme, mark.target)[2]
        if inside(z):
            sel.elevation_marks.add(eid)
    for sid, mark in scheme.slope_marks.items():
        if inside(model.pipe_point_at(scheme, mark.pipe, mark.t)[2]):
            sel.slope_marks.add(sid)
    if scheme.axis_grid is not None and inside(scheme.axis_grid.settings.plane_z):
        sel.grid = True
    return sel


# -- occlusion --------------------------------------------------------------

def _segment_crossing(a0: Vec2, a1: Vec2, b0: Vec2, b1: Vec2):
    """Interior crossing params (s, t) of two 2D segments, or None.

    Endpoint touches and (anti)parallel segments do not count.
    """
    d1 = (a1[0] - a0[0], a1[1] - a0[1])
    d2 = (b1[0] - b0[0], b1[1] - b0[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    scale = max(abs(d1[0]), abs(d1[1]), abs(d2[0]), abs(d2[1]), 1e-30)
    if abs(denom) <= 1e-12 * scale * scale:
        return None
    r = (b0[0] - a0[0], b0[1] - a0[1])
    s = (r[0] * d2[1] - r[1] * d2[0]) / denom
    t = (r[0] * d1[1] - r[1] * d1[0]) / denom
    eps = 1e-9
    if eps < s < 1.0 - eps and eps < t < 1.0 - eps:
        return s, t
    return None


# Margin per unit of 2D span length that makes the grown spans of every pair
# ``_segment_crossing`` accepts meet (see ``chain_occlusion_gaps``).
_CROSSING_MARGIN = 1e-2


def chain_occlusion_gaps(scheme: Scheme, proj: Projection,
                         chains: dict[int, DrawnChain]) -> list[tuple[int, tuple[float, float]]]:
    """Paper-mm gap intervals where a pipe passes behind another.

    For every interior 2D crossing of two drawn pipe images, the pipe that is
    farther from the viewer receives a gap of ``Settings.occlusion_gap_len``
    centred at the crossing.  Intervals are measured along the pipe's drawn
    chain in paper mm, sorted by (pipe, interval).  Empty when occlusion
    visibility is off.

    Only the span pairs that ``vectors.grid_pairs`` returns are tested: the
    spans, each grown by a margin, are filed in the grid cells they pass
    through, and a pair is tested only when they share a cell and their
    grown boxes touch.  So the cost is linear in spans plus candidate pairs,
    also where long and short spans mix (under 20 candidates per pipe on a
    600-pipe lattice, against 300 for every pair).  The filter is
    conservative, so the gaps are to the last bit those of testing every
    pair.  ``_segment_crossing`` accepts a pair only with both parameters in
    (0, 1) and ``|d1 x d2| > 1e-12 max|d|^2`` (and above 1e-72, clear of
    underflow), so each computed parameter is within
    ``4.5e-4 (|r| + |d|) / |d|`` of exact, r being the offset between the
    span starts.  The two points the computed parameters name, one on each
    span, are then at most ``1.4e-3 (|d1| + |d2|)`` apart; a margin of
    ``_CROSSING_MARGIN`` times its length on each span covers that seven
    times over.  The error is real: spans end to end on nearly one line, up
    to about 1e-5 of their length apart, can be accepted.  A zero-length
    span never crosses and is left out, so a view in which many pipes
    shrink to points keeps its cell size.  A span with a non-finite end is
    paired with every other span.
    """
    if not scheme.settings.visibility.occlusion:
        return []
    scale = scheme.settings.scale
    gap = scheme.settings.occlusion_gap_len

    # gap centres are measured along nature span lengths times the scale,
    # which can differ from the chain's paper lengths in the last bit
    offsets_paper: dict[int, list[float]] = {}
    items: list[tuple[int, int, DrawnSpan]] = []  # (pipe, span index, span)
    segments = []
    for pid in sorted(chains):
        acc = [0.0]
        for i, span in enumerate(chains[pid].spans):
            length = dist2(span.p0, span.p1)
            acc.append(acc[-1] + length * scale)
            if length == 0.0:
                continue
            items.append((pid, i, span))
            segments.append((span.p0, span.p1, _CROSSING_MARGIN * length))
        offsets_paper[pid] = acc

    def true_depth(pipe_id: int, span: DrawnSpan, s: float) -> float:
        t = span.t0 + s * (span.t1 - span.t0)
        p = model.pipe_point_at(scheme, pipe_id, t)
        return dot3(p, proj.view_dir)

    out: list[tuple[int, tuple[float, float]]] = []
    for i, j in grid_pairs(segments):
        (pa, ia, sa), (pb, ib, sb) = items[i], items[j]
        if pa == pb:
            continue  # a pipe does not hide itself
        hit = _segment_crossing(sa.p0, sa.p1, sb.p0, sb.p1)
        if hit is None:
            continue
        s, t = hit
        da = true_depth(pa, sa, s)
        db = true_depth(pb, sb, t)
        if abs(da - db) <= 1e-9:
            continue  # a true 3D meeting point: nothing hides
        if da < db:
            victim, span, vspan_i, vs = pa, sa, ia, s
        else:
            victim, span, vspan_i, vs = pb, sb, ib, t
        centre = offsets_paper[victim][vspan_i] + vs * dist2(span.p0, span.p1) * scale
        total = offsets_paper[victim][-1]
        lo = max(0.0, centre - gap / 2.0)
        hi = min(total, centre + gap / 2.0)
        out.append((victim, (lo, hi)))
    out.sort(key=lambda g: (g[0], g[1]))
    return out


def occlusion_gaps(scheme: Scheme, proj: Projection,
                   include: set[int] | None = None) -> list[tuple[int, tuple[float, float]]]:
    """``chain_occlusion_gaps`` over the pipes in ``include`` (default all)."""
    if not scheme.settings.visibility.occlusion:
        return []
    ids = [pid for pid in scheme.pipes if include is None or pid in include]
    return chain_occlusion_gaps(scheme, proj, OffsetView(scheme).drawn_chains(proj, ids))
