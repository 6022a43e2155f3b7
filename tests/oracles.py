"""Independent oracles for the property suites.

Each oracle restates its rule directly from first principles, structured
differently from the library implementation: the dimension oracle tests
every candidate pair against each textual rule separately using exact
integer arithmetic; the slice oracle re-reads the per-class membership
rules; the occlusion oracle brute-forces all segment pairs with orientation
predicates; the cascade oracle rescans every stored reference; the pair
oracle tests every point pair and every pipe pair with the library's exact
predicates, as the integrity check did before it filtered candidate pairs.
The all-pairs occlusion-gap and per-pipe coverage oracles are the drawing
kernels as they were before occlusion filtered span pairs through a grid
and coverage was gathered in one walk over the blocks; they must agree to
the last bit.  The offset oracles are the per-query loops offsets were
resolved with before a layout built its break index and per-pipe and
per-offset data once: each query rescans the offsets and break lines.  The
local-cut oracle is the component walk the cut check made before it became
one pass over the pipes.  The overlap and merge oracles are ``add_pipe``'s
overlap check and ``add_point`` as they were before both asked the scheme's
spatial index: each tests every stored pipe or point in dict order.  The
move oracle is ``move_point`` as it was before it checked only the move's
reach: it runs the whole ``integrity_check``.  The tokenizer oracle is
the text loader's line tokenizer as it was before bare lines were split
without a regex: it matches each line whole with one regex, then finds its
pairs with a second.
"""

import math
import re
from fractions import Fraction

from axoscheme import model
from axoscheme.edit import sync_slope_texts
from axoscheme.geometry import DrawnSpan, _segment_crossing, pipe_drawn_spans
from axoscheme.model import (
    MERGE_EPS,
    Axis,
    DimDirection,
    DimPointKind,
    EditError,
    OffsetKind,
    Point3,
    Scheme,
    TargetKind,
    Violation,
)
from axoscheme.persist import ParseError
from axoscheme.persist.codec import ESCAPES
from axoscheme.vectors import add3, dist2, dist3, dot3, mul3

AXES = (Axis.X, Axis.Y, Axis.Z)


# -- dimension orientation oracle (integer coordinates only) -------------------

def _icross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _isub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _collinear_dir(pts):
    """Integer direction if all points lie on one line, else None."""
    base = pts[0]
    d = None
    for p in pts[1:]:
        v = _isub(p, base)
        if v != (0, 0, 0):
            d = v
            break
    if d is None:
        return None  # all coincident (caught earlier)
    for p in pts:
        if _icross(_isub(p, base), d) != (0, 0, 0):
            return None
    return d


def _plane_normal_int(pts):
    """Integer normal if points are coplanar and not collinear, else None."""
    base = pts[0]
    n = None
    for i in range(1, len(pts)):
        for j in range(i + 1, len(pts)):
            c = _icross(_isub(pts[i], base), _isub(pts[j], base))
            if c != (0, 0, 0):
                n = c
                break
        if n is not None:
            break
    if n is None:
        return None
    for p in pts:
        v = _isub(p, base)
        if v[0] * n[0] + v[1] * n[1] + v[2] * n[2] != 0:
            return "skew"
    return n


def _axis_parallel(v) -> Axis | None:
    nz = [i for i, c in enumerate(v) if c != 0]
    if len(nz) == 1:
        return AXES[nz[0]]
    return None


def _pipe_line_int(scheme: Scheme, pid: int):
    p = scheme.pipes[pid]
    a = scheme.points[p.start]
    b = scheme.points[p.end]
    ai = (int(a.x), int(a.y), int(a.z))
    bi = (int(b.x), int(b.y), int(b.z))
    return ai, _isub(bi, ai)


def oracle_dimension_orientations(scheme: Scheme, pts):
    """Legal (ext, dim) set per the textual rules; integer lattice points."""
    pts = [tuple(int(c) for c in p) for p in pts]
    result = set()
    if len(pts) < 2:
        return result
    # rule: no coincident points
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if a == b:
                return result

    line_dir = _collinear_dir(pts)
    normal = None
    if line_dir is None:
        normal = _plane_normal_int(pts)
        if normal == "skew":
            return result  # rule: points must lie in one plane

    # rule: offsets moving part of the points must act within the plane/axis
    for off in scheme.offsets.values():
        flags = []
        for p in pts:
            if off.kind is OffsetKind.GENERAL:
                sign = 1 if off.ort[off.axis.index] > 0 else -1
                flags.append((p[off.axis.index] - off.plane_coord) * sign > 0)
            else:
                hit = False
                for pid in off.displaced_points:
                    sp = scheme.points[pid]
                    if (int(sp.x), int(sp.y), int(sp.z)) == p:
                        hit = True
                flags.append(hit)
        if any(flags) and not all(flags):
            ortf = tuple(Fraction(c).limit_denominator(10**9) for c in off.ort)
            if line_dir is not None:
                c = _icross(line_dir, ortf)
                if any(x != 0 for x in c):
                    return result
            else:
                dot = sum(Fraction(n) * o for n, o in zip(normal, ortf))
                if dot != 0:
                    return result

    collinear_pipes = []
    if line_dir is not None:
        for pid in scheme.pipes:
            base, d = _pipe_line_int(scheme, pid)
            if _icross(d, line_dir) != (0, 0, 0):
                continue
            if _icross(_isub(pts[0], base), d) != (0, 0, 0):
                continue
            collinear_pipes.append(pid)

    candidates = [DimDirection(axis=a) for a in AXES]
    candidates += [DimDirection(pipe=pid) for pid in scheme.pipes]
    for ext in AXES:
        for dim in candidates:
            if _candidate_legal(scheme, pts, ext, dim, line_dir, normal,
                                collinear_pipes):
                result.add((ext, dim))
    return result


def _candidate_legal(scheme, pts, ext, dim, line_dir, normal, collinear_pipes):
    # rule: extension direction must differ from the dimension direction
    if dim.axis is ext:
        return False
    if dim.pipe is not None:
        _, d = _pipe_line_int(scheme, dim.pipe)
        if _axis_parallel(d) is ext:
            return False

    if line_dir is None:
        # non-collinear: plane must parallel a coordinate plane, and neither
        # the dimension nor the extensions may run perpendicular to it
        perp = _axis_parallel(normal)
        if perp is None:
            return False
        if dim.pipe is not None:
            return False  # only the two in-plane axis alternations remain
        if dim.axis is perp or ext is perp:
            return False
        return True

    axis = _axis_parallel(line_dir)
    if axis is not None:
        # on a coordinate axis: the dimension may run only along it
        return dim.axis is axis and ext is not axis
    if not collinear_pipes:
        return False  # the line must be the axis of an existing pipe
    zero_axes = [a for a in AXES if line_dir[a.index] == 0]
    if not zero_axes:
        # parallel to no coordinate plane: dimension only along the pipe,
        # extensions along all three axes
        return dim.pipe in collinear_pipes
    perp = zero_axes[0]
    # parallel to one coordinate plane: its perpendicular axis is banned
    if ext is perp or dim.axis is perp:
        return False
    if dim.pipe is not None:
        return dim.pipe in collinear_pipes
    return True  # dim on one in-plane axis, ext forced onto the other


# -- slice membership oracle ----------------------------------------------------

def oracle_slice(scheme: Scheme, z_min, z_max):
    """Per-class membership restated rule by rule; None bounds mean all."""
    def inside(z):
        return z_min is None or (z_min <= z <= z_max)

    def pipe_touches(pid):
        if z_min is None:
            return True
        p = scheme.pipes[pid]
        za = scheme.points[p.start].z
        zb = scheme.points[p.end].z
        return not (max(za, zb) < z_min or min(za, zb) > z_max)

    pipes = {pid for pid in scheme.pipes if pipe_touches(pid)}
    joints = {jid for jid, j in scheme.joints.items()
              if j.pipe_a in pipes and j.pipe_b in pipes}
    breaks = {bid for bid, b in scheme.breaks.items() if b.pipe in pipes}

    def pos_on_pipe(pid, t):
        p = scheme.pipes[pid]
        a = scheme.points[p.start]
        b = scheme.points[p.end]
        length = ((b.x - a.x) ** 2 + (b.y - a.y) ** 2 + (b.z - a.z) ** 2) ** 0.5
        f = 0.0 if length == 0 else t / length
        return a.z + (b.z - a.z) * f

    def block_z(bid):
        blk = scheme.blocks[bid]
        return pos_on_pipe(blk.pipe, blk.dist_from_start)

    blocks = {bid for bid in scheme.blocks if inside(block_z(bid))}
    texts = set()
    pipe_leaders = set()
    block_leaders = set()
    for lid, ld in scheme.pipe_leaders.items():
        if ld.pipe in pipes:
            pipe_leaders.add(lid)
            texts.add(ld.text)
    for lid, ld in scheme.block_leaders.items():
        if ld.block in blocks:
            block_leaders.add(lid)
            texts.add(ld.text)
    marks = set()
    for mid, mk in scheme.position_marks.items():
        ok = (mk.target in pipes if mk.target_kind is TargetKind.PIPE
              else mk.target in blocks)
        if ok:
            marks.add(mid)
    dims = set()
    for did, dim in scheme.dimensions.items():
        for dp in dim.points:
            if dp.kind is DimPointKind.POINT:
                z = scheme.points[dp.ref].z
            else:
                z = block_z(dp.ref)
            if inside(z):
                dims.add(did)
                break
    elevations = set()
    for eid, mk in scheme.elevation_marks.items():
        z = (pos_on_pipe(mk.target, mk.t)
             if mk.target_kind is TargetKind.PIPE else block_z(mk.target))
        if inside(z):
            elevations.add(eid)
    slopes = {sid for sid, mk in scheme.slope_marks.items()
              if inside(pos_on_pipe(mk.pipe, mk.t))}
    grid = scheme.axis_grid is not None and inside(scheme.axis_grid.settings.plane_z)
    return {
        "pipes": pipes, "joints": joints, "breaks": breaks, "blocks": blocks,
        "texts": texts, "pipe_leaders": pipe_leaders,
        "block_leaders": block_leaders, "position_marks": marks,
        "dimensions": dims, "elevation_marks": elevations,
        "slope_marks": slopes, "grid": grid,
    }


# -- occlusion oracle -------------------------------------------------------------

def _ccw(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def oracle_occlusion(scheme: Scheme, proj):
    """(victim pipe, crossing centre in paper mm) for straight pipes without
    offsets, via orientation predicates and parametric intersection."""
    scale = scheme.settings.scale

    segs = {}
    for pid, pipe in scheme.pipes.items():
        a = scheme.points[pipe.start]
        b = scheme.points[pipe.end]
        pa = ((a.x, a.y, a.z))
        pb = ((b.x, b.y, b.z))

        def img(p):
            u = p[0] * proj.ex[0] + p[1] * proj.ey[0] + p[2] * proj.ez[0]
            v = p[0] * proj.ex[1] + p[1] * proj.ey[1] + p[2] * proj.ez[1]
            return (u * scale, v * scale)

        segs[pid] = (img(pa), img(pb), pa, pb)

    hits = []
    ids = sorted(segs)
    for i, pa_id in enumerate(ids):
        a0, a1, A0, A1 = segs[pa_id]
        for pb_id in ids[i + 1:]:
            b0, b1, B0, B1 = segs[pb_id]
            d1 = _ccw(a0, a1, b0)
            d2 = _ccw(a0, a1, b1)
            d3 = _ccw(b0, b1, a0)
            d4 = _ccw(b0, b1, a1)
            if not ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)):
                continue  # no strict interior crossing
            if 0 in (d1, d2, d3, d4):
                continue
            s = d3 / (d3 - d4)  # param on a
            t = d1 / (d1 - d2)  # param on b
            eps = 1e-9
            if not (eps < s < 1 - eps and eps < t < 1 - eps):
                continue

            def depth(P0, P1, f):
                p = tuple(P0[k] + (P1[k] - P0[k]) * f for k in range(3))
                return sum(p[k] * proj.view_dir[k] for k in range(3))

            da = depth(A0, A1, s)
            db = depth(B0, B1, t)
            if abs(da - db) <= 1e-9:
                continue
            if da < db:
                victim, f, (p0, p1) = pa_id, s, (a0, a1)
            else:
                victim, f, (p0, p1) = pb_id, t, (b0, b1)
            seg_len = ((p1[0] - p0[0]) ** 2 + (p1[1] - p0[1]) ** 2) ** 0.5
            hits.append((victim, f * seg_len))
    hits.sort()
    return hits


def oracle_occlusion_gaps(scheme: Scheme, proj,
                          include: set[int] | None = None) -> list[tuple[int, tuple[float, float]]]:
    """``geometry.occlusion_gaps`` testing every pair of drawn spans."""
    if not scheme.settings.visibility.occlusion:
        return []
    scale = scheme.settings.scale
    gap = scheme.settings.occlusion_gap_len

    chains: dict[int, list[DrawnSpan]] = {}
    offsets_paper: dict[int, list[float]] = {}
    for pid in scheme.pipes:
        if include is not None and pid not in include:
            continue
        if model.pipe_length(scheme, pid) == 0.0:
            continue
        spans = pipe_drawn_spans(scheme, proj, pid)
        chains[pid] = spans
        acc = [0.0]
        for s in spans:
            acc.append(acc[-1] + dist2(s.p0, s.p1) * scale)
        offsets_paper[pid] = acc

    def true_depth(pipe_id: int, span: DrawnSpan, s: float) -> float:
        t = span.t0 + s * (span.t1 - span.t0)
        p = model.pipe_point_at(scheme, pipe_id, t)
        return dot3(p, proj.view_dir)

    out: list[tuple[int, tuple[float, float]]] = []
    ids = sorted(chains)
    for i, pa in enumerate(ids):
        for pb in ids[i + 1:]:
            for ia, sa in enumerate(chains[pa]):
                for ib, sb in enumerate(chains[pb]):
                    hit = _segment_crossing(sa.p0, sa.p1, sb.p0, sb.p1)
                    if hit is None:
                        continue
                    s, t = hit
                    da = true_depth(pa, sa, s)
                    db = true_depth(pb, sb, t)
                    if abs(da - db) <= 1e-9:
                        continue  # a true 3D meeting point: nothing hides
                    if da < db:
                        victim, vspan_i, vs = pa, ia, s
                    else:
                        victim, vspan_i, vs = pb, ib, t
                    spans = chains[victim]
                    span = spans[vspan_i]
                    centre = offsets_paper[victim][vspan_i] + vs * dist2(span.p0, span.p1) * scale
                    total = offsets_paper[victim][-1]
                    lo = max(0.0, centre - gap / 2.0)
                    hi = min(total, centre + gap / 2.0)
                    out.append((victim, (lo, hi)))
    out.sort(key=lambda g: (g[0], g[1]))
    return out


# -- per-pipe block coverage oracle ---------------------------------------------

def oracle_coverage_intervals(scheme: Scheme, pipe_id: int) -> list[tuple[float, float]]:
    """``geometry.coverage_intervals`` walking every block for one pipe."""
    scale = scheme.settings.scale
    length = model.pipe_length(scheme, pipe_id)
    raw: list[tuple[float, float]] = []
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
            if leg_pipe != pipe_id or cut_paper <= 0.0:
                continue
            half = cut_paper / scale * blk.stretch / 2.0
            lo = max(0.0, centre - half)
            hi = min(length, centre + half)
            if hi > lo:
                raw.append((lo, hi))
    raw.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# -- per-query offset resolution oracle ------------------------------------------

def oracle_general_side(off, p) -> bool:
    """True when ``p`` is strictly on the displaced side of a general offset."""
    sign = dot3(off.ort, off.axis.unit())
    return (p[off.axis.index] - off.plane_coord) * sign > 0.0


def oracle_break_on(scheme: Scheme, off, pipe_id: int):
    """The break line of offset ``off`` on a pipe, or None."""
    for brk in scheme.breaks.values():
        if brk.pipe == pipe_id and scheme.offsets.get(brk.offset) is off:
            return brk
    return None


def oracle_offset_affects_point(scheme: Scheme, off, point_id: int) -> bool:
    if off.kind is OffsetKind.GENERAL:
        if off.axis is None:
            return False
        return oracle_general_side(off, scheme.point(point_id).as_tuple())
    return point_id in off.displaced_points


def oracle_offset_affects_pipe_pos(scheme: Scheme, off, pipe_id: int, t: float) -> bool:
    """Whether the offset displaces the point at arc length ``t`` on a pipe."""
    if off.kind is OffsetKind.GENERAL:
        if off.axis is None:
            return False
        return oracle_general_side(off, model.pipe_point_at(scheme, pipe_id, t))
    pipe = scheme.pipe(pipe_id)
    brk = oracle_break_on(scheme, off, pipe_id)
    if brk is not None and t > brk.placement:
        return pipe.end in off.displaced_points
    return pipe.start in off.displaced_points


def oracle_pipe_crosses_offset(scheme: Scheme, off, pipe_id: int) -> bool:
    """A pipe is affected when its endpoints displace differently."""
    pipe = scheme.pipe(pipe_id)
    return (oracle_offset_affects_point(scheme, off, pipe.start)
            != oracle_offset_affects_point(scheme, off, pipe.end))


def oracle_point_displacement(scheme: Scheme, point_id: int):
    """Displacement vector of one point; offsets affecting it sum up."""
    d = (0.0, 0.0, 0.0)
    for off in scheme.offsets.values():
        if oracle_offset_affects_point(scheme, off, point_id):
            d = add3(d, mul3(off.ort, off.magnitude))
    return d


def oracle_displacement_on_pipe(scheme: Scheme, pipe_id: int, t: float):
    """Displacement of the point at arc length ``t`` on a pipe."""
    d = (0.0, 0.0, 0.0)
    for off in scheme.offsets.values():
        if oracle_offset_affects_pipe_pos(scheme, off, pipe_id, t):
            d = add3(d, mul3(off.ort, off.magnitude))
    return d


def oracle_pipe_split_params(scheme: Scheme, pipe_id: int) -> list[tuple[float, int]]:
    """Arc-length positions where offsets break this pipe, with offset ids.

    General offsets split at the plane crossing, local offsets at their break
    position.  Sorted ascending; at most one entry per offset.
    """
    a, b = model.pipe_ends(scheme, pipe_id)
    length = model.pipe_length(scheme, pipe_id)
    splits: list[tuple[float, int]] = []
    for oid, off in scheme.offsets.items():
        if not oracle_pipe_crosses_offset(scheme, off, pipe_id):
            continue
        if off.kind is OffsetKind.GENERAL:
            denom = b[off.axis.index] - a[off.axis.index]
            if denom == 0.0:
                continue
            frac = (off.plane_coord - a[off.axis.index]) / denom
            splits.append((min(max(frac, 0.0), 1.0) * length, oid))
        else:
            brk = oracle_break_on(scheme, off, pipe_id)
            if brk is not None:
                splits.append((brk.placement, oid))
    splits.sort()
    return splits


# -- local offset cut oracle -------------------------------------------------------

def oracle_local_cut(scheme: Scheme, offset_id: int) -> list[Violation]:
    """Validate that a local offset's breaks form a clean graph cut.

    Removing the broken pipes must separate the displaced point set from its
    complement, with every break sitting on the boundary.
    """
    off = scheme.offset(offset_id)

    def cut_violation(message: str) -> list[Violation]:
        return [Violation("offset-local-cut", f"offset:{offset_id}", message)]

    breaks = [b for b in scheme.breaks.values() if b.offset == offset_id]
    if not breaks:
        return cut_violation("local offset has no break lines (empty cut)")
    broken_pipes = {b.pipe for b in breaks}
    displaced = off.displaced_points

    for b in breaks:
        pipe = scheme.pipe(b.pipe)
        if (pipe.start in displaced) == (pipe.end in displaced):
            return cut_violation(f"break on pipe {b.pipe} does not lie on the cut boundary")

    # components of the point graph with the broken pipes removed
    adjacency: dict[int, list[int]] = {pid: [] for pid in scheme.points}
    for pid, pipe in scheme.pipes.items():
        if pid in broken_pipes:
            continue
        adjacency[pipe.start].append(pipe.end)
        adjacency[pipe.end].append(pipe.start)
    seen: set[int] = set()
    for root in scheme.points:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            cur = stack.pop()
            for nxt in adjacency[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        inside = comp & displaced
        if inside and inside != comp:
            return cut_violation("a pipe joins the displaced and fixed sides without a break")
    return []


# -- cascade reachability oracle -----------------------------------------------

def oracle_dangling(scheme: Scheme) -> list[str]:
    """Every stored reference re-walked against the stores, plus orphan rules."""
    bad = []

    def need(store, ref, what):
        if ref is not None and ref not in store:
            bad.append(f"{what} -> {ref}")

    for pid, p in scheme.pipes.items():
        need(scheme.points, p.start, f"pipe {pid} start")
        need(scheme.points, p.end, f"pipe {pid} end")
    for jid, j in scheme.joints.items():
        need(scheme.pipes, j.pipe_a, f"joint {jid} a")
        need(scheme.pipes, j.pipe_b, f"joint {jid} b")
    for oid, off in scheme.offsets.items():
        for r in off.displaced_points:
            need(scheme.points, r, f"offset {oid} displaced")
        if off.kind is OffsetKind.LOCAL:
            if not any(b.offset == oid for b in scheme.breaks.values()):
                bad.append(f"offset {oid} has no breaks")
    for bid, b in scheme.breaks.items():
        need(scheme.pipes, b.pipe, f"break {bid} pipe")
        need(scheme.offsets, b.offset, f"break {bid} offset")
    for bid, b in scheme.blocks.items():
        need(scheme.symbols, b.symbol, f"block {bid} symbol")
        need(scheme.pipes, b.pipe, f"block {bid} pipe")
        need(scheme.pipes, b.pipe2, f"block {bid} pipe2")
        need(scheme.pipes, b.pipe3, f"block {bid} pipe3")
    leaders_per_text = {tid: 0 for tid in scheme.texts}
    for lid, ld in scheme.pipe_leaders.items():
        need(scheme.texts, ld.text, f"pipe leader {lid} text")
        need(scheme.pipes, ld.pipe, f"pipe leader {lid} pipe")
        if ld.text in leaders_per_text:
            leaders_per_text[ld.text] += 1
    for lid, ld in scheme.block_leaders.items():
        need(scheme.texts, ld.text, f"block leader {lid} text")
        need(scheme.blocks, ld.block, f"block leader {lid} block")
        if ld.text in leaders_per_text:
            leaders_per_text[ld.text] += 1
    for tid, count in leaders_per_text.items():
        if count == 0:
            bad.append(f"text {tid} has no leaders")
    for tid, t in scheme.texts.items():
        kind, lid = t.main_leader
        store = scheme.pipe_leaders if kind is TargetKind.PIPE else scheme.block_leaders
        if lid not in store or store[lid].text != tid:
            bad.append(f"text {tid} main leader invalid")
    referenced_props = set()
    for mid, mk in scheme.position_marks.items():
        store = scheme.pipes if mk.target_kind is TargetKind.PIPE else scheme.blocks
        need(store, mk.target, f"mark {mid} target")
        for r in mk.props:
            need(scheme.spec_props, r, f"mark {mid} props")
            referenced_props.add(r)
    for sid in scheme.spec_props:
        if sid not in referenced_props:
            bad.append(f"spec props {sid} unreferenced")
    for did, d in scheme.dimensions.items():
        if len(d.points) < 2:
            bad.append(f"dimension {did} has fewer than two points")
        for dp in d.points:
            store = scheme.points if dp.kind is DimPointKind.POINT else scheme.blocks
            need(store, dp.ref, f"dimension {did} point")
        if d.dim_dir.pipe is not None:
            need(scheme.pipes, d.dim_dir.pipe, f"dimension {did} direction")
    for eid, e in scheme.elevation_marks.items():
        store = scheme.pipes if e.target_kind is TargetKind.PIPE else scheme.blocks
        need(store, e.target, f"elevation {eid} target")
    for sid, sm in scheme.slope_marks.items():
        need(scheme.pipes, sm.pipe, f"slope {sid} pipe")
    return bad


# -- all-pairs coincidence and overlap oracle -----------------------------------

def oracle_pair_violations(scheme: Scheme) -> list[tuple[str, str, str]]:
    """``point-coincident`` and ``pipe-overlap`` as (rule, subject, message),
    from every point pair and every pipe pair in nested-loop order."""
    out = []
    pts = scheme.points
    ids = list(pts)
    for i, pid in enumerate(ids):
        for qid in ids[i + 1:]:
            if dist3(pts[pid].as_tuple(), pts[qid].as_tuple()) < MERGE_EPS:
                out.append(("point-coincident", f"point:{qid}",
                            f"coincides with point {pid}"))
    pipe_ids = [pid for pid, p in scheme.pipes.items()
                if p.start in pts and p.end in pts and p.start != p.end]
    for i, pa in enumerate(pipe_ids):
        a0, a1 = model.pipe_ends(scheme, pa)
        for pb in pipe_ids[i + 1:]:
            b0, b1 = model.pipe_ends(scheme, pb)
            if model._segments_overlap(a0, a1, b0, b1):
                out.append(("pipe-overlap", f"pipe:{pb}",
                            f"collinear overlap with pipe {pa}"))
    return out


# -- edit-time scans -------------------------------------------------------------

def oracle_check_pipe_overlap(scheme: Scheme, start: int, end: int) -> list[Violation]:
    """Validate a candidate pipe between two existing points.

    A violation is reported for a zero-length candidate or for a collinear
    overlap of positive length with any stored pipe; a shared endpoint alone
    is fine.
    """
    a = scheme.point(start).as_tuple()
    b = scheme.point(end).as_tuple()
    subject = f"pipe:{start}-{end}"
    if start == end or dist3(a, b) < model.MERGE_EPS:
        return [Violation("pipe-zero-length", subject, "zero-length pipes are forbidden")]
    for pid in scheme.pipes:
        b0, b1 = model.pipe_ends(scheme, pid)
        if model._segments_overlap(a, b, b0, b1):
            return [Violation("pipe-overlap", subject, f"collinear overlap with pipe {pid}")]
    return []


def oracle_add_point(scheme: Scheme, x: float, y: float, z: float) -> int:
    """Insert a point, merging with an existing one within the tolerance."""
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise EditError("point coordinates must be finite")
    for pid, p in scheme.points.items():
        if dist3(p.as_tuple(), (x, y, z)) < model.MERGE_EPS:
            return pid
    return scheme.insert("points", Point3(x, y, z))


def oracle_move_point(scheme: Scheme, point_id: int, x: float, y: float, z: float) -> None:
    """Relocate a point, then resync slope texts of the pipes at it.

    The move is transactional: if any invariant would break (coincidence,
    zero-length or overlapping pipes, out-of-range anchors, a dimension left
    without a legal orientation), the point is restored and the edit rejected.
    """
    pt = scheme.point(point_id)
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise EditError("point coordinates must be finite")
    old = (pt.x, pt.y, pt.z)
    pt.x, pt.y, pt.z = x, y, z
    try:
        problems = model.integrity_check(scheme)
    except BaseException:
        pt.x, pt.y, pt.z = old
        raise
    if problems:
        pt.x, pt.y, pt.z = old
        raise EditError("; ".join(map(str, problems[:3])))
    pipes = [pid for pid, pipe in scheme.pipes.items() if point_id in (pipe.start, pipe.end)]
    scheme.refile(point_id, pipes)
    for pid in pipes:
        sync_slope_texts(scheme, pid)


# -- text tokenizer oracle -------------------------------------------------------

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


def oracle_tokenize(line: str, no: int) -> tuple[str, dict] | None:
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
