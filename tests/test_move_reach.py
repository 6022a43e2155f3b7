"""``move_point`` checks only what the move reaches, against the whole check.

``edit.move_point`` runs the rule passes of ``integrity_check`` over the
move's reach (``edit._move_reach``) instead of the whole document.  On a
valid scheme it must accept and refuse as ``oracles.oracle_move_point``,
which runs the whole check: the same refusal text, the same saved text, an
index that answers as a scan, and ``model.check_reach`` giving the whole
list of ``integrity_check`` after the move.  The moves are drawn to hit each
class of the reach: onto or beside a point, onto the line of a pipe, two
pipes at the point folded onto each other, a host pipe shortened under what
it carries, a block leg moved off its anchor, a pipe across a general plane,
a dimension point moved, and the only carrier pipe of an oblique dimension
moved off its line.
"""

import copy
import random
from functools import partial

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from axoscheme import edit, model, persist, samples, vectors
from axoscheme.model import (
    MERGE_EPS,
    Axis,
    Dimension,
    DimDirection,
    DimPoint,
    DimPointKind,
    EditError,
    OffsetKind,
    Point3,
    TargetKind,
    integrity_check,
    new_scheme,
)
from genschemes import lattice_scheme, random_scheme, riser_scheme
from oracles import oracle_move_point
from samples_for_tests import build_offset_scheme, build_rich_scheme
from test_integrity_pairs import near_parallel, near_point, split_pipe, tiny_along_long
from test_spatial_index import assert_index_answers_as_a_scan


def carrier_scheme(carriers: int = 1):
    """Points 1 and 2 on the oblique line x = y of the plane z = 0, with a
    dimension along the X axis that only the pipes on that line make legal:
    ``carriers`` pipes from (2000, 2000, 0) on, and an L-shaped run from
    point 1 to point 2 that carries nothing."""
    s = new_scheme()
    a = edit.add_point(s, 0.0, 0.0, 0.0)
    b = edit.add_point(s, 1000.0, 1000.0, 0.0)
    corner = edit.add_point(s, 1000.0, 0.0, 0.0)
    edit.add_pipe(s, a, corner)
    edit.add_pipe(s, corner, b)
    ends = [edit.add_point(s, 1000.0 * k, 1000.0 * k, 0.0) for k in range(2, 3 + carriers)]
    for p, q in zip(ends, ends[1:]):
        edit.add_pipe(s, p, q)
    s.insert("dimensions", Dimension([DimPoint(DimPointKind.POINT, a),
                                      DimPoint(DimPointKind.POINT, b)],
                                     Axis.Y, DimDirection(axis=Axis.X)))
    assert integrity_check(s) == []
    return s


def moved(fn, scheme, pid, xyz):
    """A copy of the scheme after the move, and the refusal text or None."""
    s = copy.deepcopy(scheme)
    try:
        fn(s, pid, *xyz)
    except EditError as e:
        return s, str(e)
    return s, None


def assert_moves_as_the_oracle(scheme, pid, xyz, rng=None):
    assert integrity_check(scheme) == []
    got, refusal = moved(edit.move_point, scheme, pid, xyz)
    want, want_refusal = moved(oracle_move_point, scheme, pid, xyz)
    assert refusal == want_refusal, (pid, xyz)
    assert persist.save_text(got) == persist.save_text(want)
    assert_index_answers_as_a_scan(got, rng or random.Random(pid), 6)
    # the whole list, not only the first three violations
    s = copy.deepcopy(scheme)
    reach = edit._move_reach(s, pid)
    s.index()
    pt = s.points[pid]
    pt.x, pt.y, pt.z = xyz
    assert model.check_reach(s, reach) == integrity_check(s), (pid, xyz)
    return refusal


# -- where the moves go --------------------------------------------------------------

def _on(a, b, f):
    return tuple(p + (q - p) * f for p, q in zip(a, b))


def _at(s, pid):
    return s.points[pid].as_tuple()


def _pipes_at(s, pid):
    return [p for p in s.pipes.values() if pid in (p.start, p.end)]


def _other(pipe, pid):
    return pipe.end if pipe.start == pid else pipe.start


def interesting_points(s) -> list[int]:
    """Points that something hangs off: ends of pipes that carry blocks,
    leaders, marks or breaks (a general plane's break marks a pipe that
    crosses it), ends of block legs and of dimension pipes, and dimension
    points."""
    pipes = {b.pipe for b in s.blocks.values()}
    pipes |= {b.pipe2 for b in s.blocks.values()} | {b.pipe3 for b in s.blocks.values()}
    pipes |= {x.pipe for x in s.pipe_leaders.values()} | {x.pipe for x in s.breaks.values()}
    pipes |= {x.pipe for x in s.slope_marks.values()}
    pipes |= {x.target for x in s.position_marks.values() if x.target_kind is TargetKind.PIPE}
    pipes |= {x.target for x in s.elevation_marks.values() if x.target_kind is TargetKind.PIPE}
    pipes |= {d.dim_dir.pipe for d in s.dimensions.values()}
    found = {end for pid in pipes if pid in s.pipes
             for end in (s.pipes[pid].start, s.pipes[pid].end)}
    found |= {dp.ref for d in s.dimensions.values() for dp in d.points
              if dp.kind is DimPointKind.POINT}
    return sorted(found) or sorted(s.points)


FACTORS = st.sampled_from([-0.5, 0.0, 0.05, 0.25, 0.5, 0.9, 1.0, 1.2, 1.5, 2.0])
NUDGES = st.sampled_from([0.0, 0.5, 0.99, 1.01, 1.5, 2.0, -0.99, -1.01])
SHIFTS = st.sampled_from([-100.0, -1e-3, 0.0, 1e-3, 100.0, 250.0])


def draw_move(data, s):
    """A point and where to move it, drawn from one class of the reach."""
    pid = data.draw(st.sampled_from(sorted(s.points)) | st.sampled_from(interesting_points(s)))
    here = _at(s, pid)
    kind = data.draw(st.sampled_from(
        ["onto", "line", "fold", "shorten", "nudge", "plane", "free"]))
    if kind == "onto":  # onto a point, or within a few MERGE_EPS of one
        c = list(_at(s, data.draw(st.sampled_from(sorted(s.points)))))
        c[data.draw(st.integers(0, 2))] += data.draw(NUDGES) * MERGE_EPS
        return pid, tuple(c)
    if kind == "line" and s.pipes:  # onto the line of a pipe: overlap
        pipe = s.pipes[data.draw(st.sampled_from(sorted(s.pipes)))]
        return pid, _on(_at(s, pipe.start), _at(s, pipe.end), data.draw(FACTORS))
    mine = _pipes_at(s, pid)
    if kind == "fold" and len(mine) >= 2:  # the point's pipes onto each other
        a, b = data.draw(st.lists(st.sampled_from(mine), min_size=2, max_size=2, unique_by=id))
        return pid, _on(_at(s, _other(b, pid)), _at(s, _other(a, pid)),
                        data.draw(st.sampled_from([-1.0, -0.5, 1.5, 2.0])))
    if kind in ("fold", "shorten") and mine:  # a host pipe shortened or stretched
        far = _at(s, _other(data.draw(st.sampled_from(mine)), pid))
        return pid, _on(far, here, data.draw(FACTORS))
    if kind == "nudge":  # a short way: a block leg off its anchor, a dimension point
        step = data.draw(st.sampled_from([1e-7, 2 * MERGE_EPS, 1.0, 10.0, 300.0]))
        axis = data.draw(st.integers(0, 2))
        return pid, tuple(c + step * (k == axis) for k, c in enumerate(here))
    general = [o for o in s.offsets.values()
               if o.kind is OffsetKind.GENERAL and o.axis is not None]
    if kind == "plane" and general:  # across a plane, square or oblique
        off = data.draw(st.sampled_from(general))
        c = list(here)
        c[off.axis.index] = off.plane_coord + data.draw(SHIFTS)
        if data.draw(st.booleans()):
            c[(off.axis.index + 1) % 3] += data.draw(SHIFTS)
        return pid, tuple(c)
    coord = st.integers(-8, 24).map(lambda k: k * 250.0) | st.floats(-3000.0, 7000.0)
    return pid, data.draw(st.tuples(coord, coord, coord))


def check_moves(data, s, n: int = 4):
    for _ in range(n if s.points else 0):
        pid, xyz = draw_move(data, s)
        assert_moves_as_the_oracle(s, pid, xyz)


EQUIVALENCE = settings(max_examples=150, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow,
                                              HealthCheck.filter_too_much])


@EQUIVALENCE
@given(st.integers(0, 4999), st.data())
def test_moves_on_random_schemes_match_the_oracle(seed, data):
    check_moves(data, random_scheme(seed))


BUILT = [samples.reference_scheme, samples.golden_straight_run,
         samples.golden_tee_assembly, samples.golden_axis_grid, build_rich_scheme,
         build_offset_scheme, riser_scheme, carrier_scheme, partial(carrier_scheme, 2)]


@EQUIVALENCE
@given(st.sampled_from(BUILT), st.data())
def test_moves_on_samples_match_the_oracle(build, data):
    check_moves(data, build())


VALID_MUTATIONS = st.one_of(
    st.tuples(st.just(near_point), st.integers(0, 60), st.integers(0, 60),
              st.just(1.5), st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
    st.tuples(st.just(split_pipe), st.integers(0, 60), st.integers(2, 4), st.just(False)),
    st.tuples(st.just(tiny_along_long), st.floats(0.0, 1.0),
              st.sampled_from([1.5, 2.0, 2.5, 4.0, -2.0, 100.0]),
              st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.booleans()),
    st.tuples(st.just(near_parallel), st.integers(0, 60),
              st.sampled_from([-0.5, 0.3, 1.0]),
              st.sampled_from([1.5, 2.0, 4.0, -2.0]), st.sampled_from([1.5, 2.0, 4.0, -2.0])),
)


@EQUIVALENCE
@given(st.integers(0, 199), st.lists(VALID_MUTATIONS, min_size=1, max_size=3), st.data())
def test_moves_on_mutated_valid_schemes_match_the_oracle(seed, mutations, data):
    """Points just outside the merge tolerance, pipes split in place, a
    1e-5 mm pipe beside a 1e5 mm one, and near-parallel copies of pipes,
    kept when the scheme stays valid."""
    s = random_scheme(seed)
    s.index()
    for fn, *args in mutations:
        fn(s, *args)
    assume(integrity_check(s) == [])
    check_moves(data, s)


# -- the named cases -----------------------------------------------------------------

def test_moving_the_only_carrier_off_an_oblique_dimension_line_is_refused():
    """The dimension refers to neither the pipe nor its points, yet its
    orientation is legal only while a pipe carries its line."""
    s = carrier_scheme()
    carrier_end = max(s.points)
    assert s.dimensions[1] and carrier_end not in {dp.ref for dp in s.dimensions[1].points}
    refusal = assert_moves_as_the_oracle(s, carrier_end, (3000.0, 3100.0, 0.0))
    assert refusal.startswith("dim-orientation dim:1")
    # along the line, or with a second carrier left, the move stands
    assert assert_moves_as_the_oracle(s, carrier_end, (3500.0, 3500.0, 0.0)) is None
    s2 = carrier_scheme(2)
    assert assert_moves_as_the_oracle(s2, max(s2.points), (4000.0, 4100.0, 0.0)) is None


def test_folding_two_pipes_at_the_point_onto_each_other_is_refused():
    """The index still holds both pipes' old boxes while the move is
    checked; their pair is tested directly."""
    s = new_scheme()
    p = edit.add_point(s, 0.0, 0.0, 0.0)
    a = edit.add_point(s, 1000.0, 0.0, 0.0)
    b = edit.add_point(s, 0.0, 1000.0, 0.0)
    first = edit.add_pipe(s, p, a)
    second = edit.add_pipe(s, p, b)
    refusal = assert_moves_as_the_oracle(s, p, (2000.0, -1000.0, 0.0))
    assert refusal == f"pipe-overlap pipe:{second}: collinear overlap with pipe {first}"


@pytest.mark.parametrize("short_first", [True, False])
def test_a_long_pipe_moved_beside_a_short_one_is_judged_in_dict_order(short_first):
    """``_segments_overlap`` of a 1e-3 mm pipe and a 1e5 mm pipe 100 mm off
    its line holds with the short one first and fails the other way round:
    the moved pipe's probe must reach that far, and the pair must be tested
    in the order of the whole check."""
    s = new_scheme()
    short = [edit.add_point(s, x, 0.0, 0.0) for x in (0.0, 1e-3)]
    q = edit.add_point(s, -5e4, 100.0, 0.0)
    p = edit.add_point(s, -5e4, 1e5 + 100.0, 0.0)
    pairs = [short, [q, p]] if short_first else [[q, p], short]
    first, second = (edit.add_pipe(s, *pair) for pair in pairs)
    refusal = assert_moves_as_the_oracle(s, p, (5e4, 100.0, 0.0))
    if short_first:
        assert refusal == f"pipe-overlap pipe:{second}: collinear overlap with pipe {first}"
    else:
        assert refusal is None


@pytest.mark.parametrize("build", [carrier_scheme, build_rich_scheme, build_offset_scheme])
def test_every_point_moved_everywhere_matches_the_oracle(build):
    """Each point onto each other point, beside it, and to each of a few
    fixed places."""
    s = build()
    places = [(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0), (2000.0, 0.0, 1500.0),
              (3000.0, 3000.0, 0.0), (-500.0, 250.0, 750.0)]
    for q in s.points.values():
        places += [q.as_tuple(), tuple(c + 0.5 * MERGE_EPS for c in q.as_tuple())]
    for pid in s.points:
        for xyz in places:
            assert_moves_as_the_oracle(s, pid, xyz)


# -- what the move no longer runs ----------------------------------------------------

def test_a_move_runs_neither_the_whole_check_nor_the_pair_grid(monkeypatch):
    s = lattice_scheme(600)
    at = next(iter(s.points))
    end = edit.add_point(s, -300.0, -200.0, -250.0)
    edit.add_pipe(s, at, end)

    def whole(*args):
        raise AssertionError("the whole document was checked")

    monkeypatch.setattr(model, "integrity_check", whole)
    monkeypatch.setattr(model, "grid_pairs", whole)
    monkeypatch.setattr(vectors, "grid_pairs", whole)
    edit.move_point(s, end, -400.0, -300.0, -350.0)
    assert s.points[end].as_tuple() == (-400.0, -300.0, -350.0)
    with pytest.raises(EditError, match="point-coincident"):
        edit.move_point(s, end, *s.points[at].as_tuple())
    assert s.points[end].as_tuple() == (-400.0, -300.0, -350.0)


# -- an invalid scheme -----------------------------------------------------------------

def test_a_move_on_an_invalid_scheme_is_judged_by_what_it_changes():
    """Two coincident points elsewhere no longer refuse the move: it is
    accepted, their violation stays and none is added.  The whole check
    refused every move on such a scheme."""
    s = build_rich_scheme()
    s.insert("points", Point3(9000.0, 9000.0, 9000.0))
    s.insert("points", Point3(9000.0, 9000.0, 9000.0))
    before = [str(v) for v in integrity_check(s)]
    assert [v.split(":")[0] for v in before] == ["point-coincident point"]
    end = s.pipes[4].end
    xyz = (4000.0, 1500.0, 1600.0)
    with pytest.raises(EditError, match="point-coincident"):
        oracle_move_point(copy.deepcopy(s), end, *xyz)
    edit.move_point(s, end, *xyz)
    assert s.points[end].as_tuple() == xyz
    assert [str(v) for v in integrity_check(s)] == before
