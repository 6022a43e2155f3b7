"""The resolved offset view against the per-query loops it replaced.

``geometry.OffsetView`` resolves a scheme's offsets once: a break index, each
pipe's ends and each point's displacement.  Every answer it gives, to layout
and to the checks alike, and every per-query function that goes through it,
must be to the last bit what the oracles' rescanning loops give: at both
pipe ends, just before and after every split, at every span midpoint and at
every block anchor, on generated, sample and mutated schemes.  Floats are
compared by ``repr``, so a difference in sign of zero counts too.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import geometry, model, samples
from axoscheme.model import Axis, BreakLine, DimPoint, DimPointKind, Offset, OffsetKind, Pipe, Point3
from axoscheme.vectors import add3
from genschemes import random_scheme, riser_scheme
from oracles import (
    oracle_break_on,
    oracle_displacement_on_pipe,
    oracle_offset_affects_pipe_pos,
    oracle_offset_affects_point,
    oracle_pipe_crosses_offset,
    oracle_pipe_split_params,
    oracle_point_displacement,
)
from samples_for_tests import build_offset_scheme, build_rich_scheme

SAMPLES = [samples.reference_scheme, samples.golden_straight_run,
           samples.golden_tee_assembly, samples.golden_axis_grid,
           build_rich_scheme, build_offset_scheme, riser_scheme]


def positions(scheme, pid) -> list[float]:
    """Both ends, every split +-1e-7 and every span midpoint of a pipe."""
    length = model.pipe_length(scheme, pid)
    splits = [t for t, _ in oracle_pipe_split_params(scheme, pid)]
    bounds = [0.0] + splits + [length]
    out = [0.0, length]
    for t in splits:
        out += [t - 1e-7, t + 1e-7]
    out += [0.5 * (t0 + t1) for t0, t1 in zip(bounds, bounds[1:])]
    return out


def assert_view_matches(scheme) -> int:
    """Compare every answer of one view, and of the per-query functions, with
    the oracles; return the number of positions compared."""
    view = geometry.OffsetView(scheme)
    compared = 0
    for pid in scheme.pipes:
        splits = repr(oracle_pipe_split_params(scheme, pid))
        assert repr(view.split_params(pid)) == splits, pid
        for oid, off in scheme.offsets.items():
            assert view.breaks.get((oid, pid)) is oracle_break_on(scheme, off, pid)
            assert (view.crosses(oid, scheme.pipe(pid))
                    is oracle_pipe_crosses_offset(scheme, off, pid))
        for t in positions(scheme, pid):
            compared += 1
            want = oracle_displacement_on_pipe(scheme, pid, t)
            assert repr(view.displacement_on_pipe(pid, t)) == repr(want), (pid, t)
            assert repr(geometry.displacement_on_pipe(scheme, pid, t)) == repr(want)
            pos = repr(add3(model.pipe_point_at(scheme, pid, t), want))
            assert repr(view.displaced_pipe_pos(pid, t)) == pos
            for oid, off in scheme.offsets.items():
                hit = oracle_offset_affects_pipe_pos(scheme, off, pid, t)
                assert view.affects_pipe_pos(oid, pid, t) is hit, (pid, oid, t)
    for oid, off in scheme.offsets.items():
        assert view.crossing_pipes(oid) == [
            pid for pid in scheme.pipes if oracle_pipe_crosses_offset(scheme, off, pid)]
        for bid, blk in scheme.blocks.items():
            hit = oracle_offset_affects_pipe_pos(scheme, off, blk.pipe, blk.dist_from_start)
            assert view.affects_dim_point(oid, DimPoint(DimPointKind.BLOCK, bid)) is hit
    for point_id in scheme.points:
        want = repr(oracle_point_displacement(scheme, point_id))
        assert repr(view.point_displacement(point_id)) == want, point_id
        for oid, off in scheme.offsets.items():
            hit = oracle_offset_affects_point(scheme, off, point_id)
            assert view.affects_dim_point(oid, DimPoint(DimPointKind.POINT, point_id)) is hit
    assert repr(geometry.point_displacements(scheme)) == repr(
        {p: oracle_point_displacement(scheme, p) for p in scheme.points})
    return compared


def test_random_schemes_match_per_query_loops():
    compared = offsets = 0
    for seed in range(200):
        s = random_scheme(seed)
        offsets += len(s.offsets)
        compared += assert_view_matches(s)
    assert offsets > 50 and compared > 1000


def test_sample_schemes_match_per_query_loops():
    for build in SAMPLES:
        assert_view_matches(build())


def test_first_break_wins_like_the_scan():
    s = build_offset_scheme()
    brk = next(b for b in s.breaks.values() if s.offsets[b.offset].kind is OffsetKind.LOCAL)
    s.insert("breaks", BreakLine(brk.pipe, brk.offset, brk.paper_len, 100.0))
    view = geometry.OffsetView(s)
    assert view.breaks[(brk.offset, brk.pipe)] is brk
    assert view.split_params(brk.pipe) == [(brk.placement, brk.offset)]
    assert_view_matches(s)


def test_validation_resolves_offsets_once(monkeypatch):
    """One ``integrity_check`` builds the break index once and each offset's
    side once, on the offset sample and on a riser stack."""
    builds, sides = [], []
    index, side = geometry.break_index, geometry.OffsetSide

    def counted_index(scheme):
        builds.append(scheme)
        return index(scheme)

    def counted_side(off):
        sides.append(off)
        return side(off)

    monkeypatch.setattr(geometry, "break_index", counted_index)
    monkeypatch.setattr(geometry, "OffsetSide", counted_side)
    for s in (build_offset_scheme(), riser_scheme()):
        assert s.breaks and s.dimensions
        builds.clear()
        sides.clear()
        assert model.integrity_check(s) == []
        assert builds == [s]
        assert sorted(map(id, sides)) == sorted(map(id, s.offsets.values()))


# -- mutations ----------------------------------------------------------------------

def _some(ids, k: int):
    ids = sorted(ids)
    return ids[k % len(ids)] if ids else None


def second_break(s, k: int, frac: float) -> None:
    """A second break of an offset on a pipe that already has one; the first
    in ``scheme.breaks`` order must win."""
    bid = _some(s.breaks, k)
    if bid is None:
        return
    brk = s.breaks[bid]
    s.insert("breaks", BreakLine(brk.pipe, brk.offset, brk.paper_len,
                                 frac * model.pipe_length(s, brk.pipe)))


def stray_break(s, k: int, frac: float) -> None:
    """A break of an offset on a pipe that offset does not cross."""
    oid, pid = _some(s.offsets, k), _some(s.pipes, k // 3)
    if oid is None or pid is None:
        return
    s.insert("breaks", BreakLine(pid, oid, 5.0, frac * model.pipe_length(s, pid)))


def axisless_general(s, k: int, frac: float) -> None:
    """A general offset without a plane axis, with a break line of its own."""
    oid = s.insert("offsets", Offset("Ж", (0.0, 0.0, 1.0), 300.0, OffsetKind.GENERAL,
                                     plane_coord=frac * 1000.0))
    pid = _some(s.pipes, k)
    if pid is not None:
        s.insert("breaks", BreakLine(pid, oid, 5.0, 0.0))


def plane_through_endpoint(s, k: int, frac: float) -> None:
    """A general offset whose plane passes exactly through a pipe end."""
    pid = _some(s.pipes, k)
    if pid is None:
        return
    axis = (Axis.X, Axis.Y, Axis.Z)[k % 3]
    end = model.pipe_ends(s, pid)[k % 2]
    ort = axis.unit() if frac < 0.5 else tuple(-c for c in axis.unit())
    oid = s.insert("offsets", Offset("Ю", ort, -250.0 if k % 2 else 250.0,
                                     OffsetKind.GENERAL, axis=axis, plane_coord=end[axis.index]))
    s.insert("breaks", BreakLine(pid, oid, 5.0, 0.0))


def zero_length_pipe(s, k: int, frac: float) -> None:
    """A pipe whose two ends coincide, on a point or between twins."""
    point_id = _some(s.points, k)
    if point_id is None:
        return
    if frac < 0.5:
        s.insert("pipes", Pipe(point_id, point_id))
        return
    p = s.points[point_id]
    twin = s.insert("points", Point3(p.x, p.y, p.z))
    pid = s.insert("pipes", Pipe(point_id, twin))
    oid = _some(s.offsets, k)
    if oid is not None:
        s.insert("breaks", BreakLine(pid, oid, 5.0, 0.0))


def zero_magnitude(s, k: int, frac: float) -> None:
    """An offset that displaces by nothing."""
    oid = _some(s.offsets, k)
    if oid is not None:
        s.offsets[oid].magnitude = 0.0


def three_stacked(s, k: int, frac: float) -> None:
    """Three offsets on one pipe: two planes across it, and a local offset
    that displaces its end, broken at ``frac`` of its length."""
    pid = _some(s.pipes, k)
    if pid is None:
        return
    a, b = model.pipe_ends(s, pid)
    length = model.pipe_length(s, pid)
    axis = max((Axis.X, Axis.Y, Axis.Z), key=lambda ax: abs(b[ax.index] - a[ax.index]))
    i = axis.index
    for f, mag in ((0.25, 300.0), (0.75, -200.0)):
        oid = s.insert("offsets", Offset("Ъ", axis.unit(), mag, OffsetKind.GENERAL,
                                         axis=axis, plane_coord=a[i] + f * (b[i] - a[i])))
        s.insert("breaks", BreakLine(pid, oid, 5.0, 0.0))
    end = s.pipes[pid].end
    oid = s.insert("offsets", Offset("Ы", (0.0, 1.0, 0.0), 400.0 * (frac - 0.5),
                                     OffsetKind.LOCAL, displaced_points={end}))
    s.insert("breaks", BreakLine(pid, oid, 5.0, frac * length))


MUTATIONS = [second_break, stray_break, axisless_general, plane_through_endpoint,
             zero_length_pipe, zero_magnitude, three_stacked]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 200),
    mutations=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 1000),
                  st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.5])),
        min_size=1, max_size=4),
)
def test_mutated_schemes_match_per_query_loops(seed, mutations):
    s = build_offset_scheme() if seed == 200 else random_scheme(seed)
    for mutate, k, frac in mutations:
        mutate(s, k, frac)
    assert_view_matches(s)


def test_every_mutation_reaches_an_offset_scheme():
    """Each mutation applies to the offset sample and still matches."""
    for mutate in MUTATIONS:
        for k in range(6):
            for frac in (0.0, 0.5, 1.0):
                s = build_offset_scheme()
                before = copy.deepcopy(s)
                mutate(s, k, frac)
                assert s != before, (mutate.__name__, k, frac)
                assert_view_matches(s)
