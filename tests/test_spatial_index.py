"""The scheme's spatial index against the scans it replaced.

``add_pipe``'s overlap check and ``add_point``'s merge ask the index which
stored pipes and points to test.  Their answers must be those of testing
every stored object in dict order (``oracles.oracle_check_pipe_overlap``,
``oracles.oracle_add_point``): on built, copied, loaded and mutated
schemes, including coincident points, overlapping pipes and non-finite
coordinates.
"""

import copy
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import constraints, edit, model, persist, samples
from axoscheme.model import MERGE_EPS, Pipe, Point3, new_scheme
from axoscheme.vectors import SegmentGrid
from genschemes import lattice_scheme, mains_and_stubs, random_scheme
from oracles import oracle_add_point, oracle_check_pipe_overlap
from test_integrity_pairs import MUTATIONS

# offsets from a stored point, in MERGE_EPS, on both sides of the tolerance
NUDGES = (0.0, 0.5, 0.99, 1.01, 1.5, 2.0, -0.99, -1.01)


def outcome(fn, *args):
    """What a call gives: its result, or the type and text of its error."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the oracle's error is the answer
        return type(e).__name__, str(e)


def probes(scheme, rng: random.Random, n: int = 12):
    """``n`` candidate pipes (pairs of stored point ids, a pair of one point
    now and then) and ``n`` coordinates at and around stored points."""
    ids = list(scheme.points)
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(n)] if ids else []
    coords = []
    for _ in range(n):
        if ids and rng.random() < 0.8:
            c = list(scheme.points[rng.choice(ids)].as_tuple())
            c[rng.randrange(3)] += rng.choice(NUDGES) * MERGE_EPS
        else:
            c = [rng.randrange(-8, 25) * 250.0 for _ in range(3)]
        coords.append(tuple(c))
    return pairs, coords


def assert_index_answers_as_a_scan(scheme, rng: random.Random, n: int = 12) -> None:
    """The overlap check and the merge give the oracles' answers.  The
    merges run one after another on copies, so that each copy's index also
    takes in the points it merges or inserts."""
    pairs, coords = probes(scheme, rng, n)
    for a, b in pairs:
        assert (outcome(constraints.check_pipe_overlap, scheme, a, b)
                == outcome(oracle_check_pipe_overlap, scheme, a, b)), (a, b)
    got, want = copy.deepcopy(scheme), copy.deepcopy(scheme)
    for c in coords:
        assert outcome(edit.add_point, got, *c) == outcome(oracle_add_point, want, *c), c


# -- asymptotics -----------------------------------------------------------------

def test_building_a_lattice_tests_few_pairs_per_pipe(monkeypatch):
    """Building a 600-pipe lattice through ``add_pipe`` makes fewer than 10
    overlap tests per pipe; testing every stored pipe makes 179,700."""
    n = 600
    lattice = lattice_scheme(n)
    s = new_scheme()
    ids = {pid: edit.add_point(s, *p.as_tuple()) for pid, p in lattice.points.items()}

    calls = 0
    exact = model._segments_overlap

    def counted(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    monkeypatch.setattr(model, "_segments_overlap", counted)
    for pipe in lattice.pipes.values():
        edit.add_pipe(s, ids[pipe.start], ids[pipe.end])
    assert len(s.pipes) == n
    assert 0 < calls < 10 * n


# -- copies, loads and direct writes -----------------------------------------------

def test_a_copied_and_a_loaded_scheme_answer_on_their_first_probe():
    s = random_scheme(7, n_pipes=30)
    s.index()
    moved = copy.deepcopy(s)
    pid = next(iter(moved.points))
    edit.move_point(moved, pid, -1750.0, -1750.0, -1750.0)
    assert moved.points[pid].as_tuple() == (-1750.0, -1750.0, -1750.0)
    assert s.points[pid].as_tuple() != (-1750.0, -1750.0, -1750.0)
    assert edit.add_point(copy.deepcopy(moved), -1750.0, -1750.0, -1750.0) == pid
    assert edit.add_point(copy.deepcopy(s), -1750.0, -1750.0, -1750.0) != pid
    for scheme in (s, moved, persist.load_text(persist.save_text(moved)),
                   persist.load_binary(persist.save_binary(s))):
        assert_index_answers_as_a_scan(scheme, random.Random(1), 40)


def test_drop_index_after_a_write_in_place():
    """A point written in place is found again once the index is dropped."""
    s = new_scheme()
    a = edit.add_point(s, 0.0, 0.0, 0.0)
    b = edit.add_point(s, 1000.0, 0.0, 0.0)
    c = edit.add_point(s, 3000.0, 0.0, 0.0)
    edit.add_pipe(s, a, b)
    s.points[b].x = 2000.0
    s.drop_index()
    assert edit.add_point(s, 2000.0, 0.0, 0.0) == b
    assert [v.rule for v in constraints.check_pipe_overlap(s, c, b)] == []
    assert [v.rule for v in constraints.check_pipe_overlap(s, a, c)] == ["pipe-overlap"]


def test_insert_skips_the_ids_already_stored():
    """With the id counter behind the stored ids, as after direct dict
    writes, ``insert`` takes the next free id and replaces nothing; the
    index files the new objects."""
    s = new_scheme()
    s.points[1] = Point3(0.0, 0.0, 0.0)
    s.points[2] = Point3(1000.0, 0.0, 0.0)
    s.pipes[1] = Pipe(1, 2)
    s.index()
    assert s.insert("points", Point3(3000.0, 0.0, 0.0)) == 3
    assert s.insert("pipes", Pipe(2, 3)) == 2
    assert s.points[1] == Point3(0.0, 0.0, 0.0) and s.pipes[1] == Pipe(1, 2)
    assert edit.add_point(s, 3000.0, 0.0, 0.0) == 3
    assert edit.add_point(s, 0.0, 0.0, 0.0) == 1
    assert edit.add_point(s, 5000.0, 0.0, 0.0) == 4
    assert_index_answers_as_a_scan(s, random.Random(4), 40)


def test_edits_keep_the_index_of_what_they_change():
    """Inserts, moves and deletes are filed as they happen; the index is
    built once and never again."""
    s = samples.reference_scheme()
    idx = s.index()
    q = edit.add_point(s, -1000.0, 0.0, 0.0)
    edit.add_pipe(s, 1, q)
    edit.move_point(s, q, -1500.0, 0.0, 0.0)
    s.insert("points", Point3(9000.0, 9000.0, 9000.0))
    edit.delete_point(s, q)
    assert s.index() is idx
    assert_index_answers_as_a_scan(s, random.Random(2), 40)


def test_far_and_non_finite_points_are_tested_on_every_probe():
    s = new_scheme()
    far = s.insert("points", Point3(1.7e308, 0.0, 0.0))
    nan = s.insert("points", Point3(math.nan, 0.0, 0.0))
    big = s.insert("points", Point3(3.4e38, -3.4e38, 1e30))
    assert edit.add_point(s, 1.7e308, 0.0, 0.0) == far
    assert edit.add_point(s, 3.4e38, -3.4e38, 1e30) == big
    assert edit.add_point(s, 0.0, 0.0, 0.0) not in (far, nan, big)
    s.insert("pipes", Pipe(far, big))
    s.insert("pipes", Pipe(nan, big))
    assert_index_answers_as_a_scan(s, random.Random(3), 40)


# -- mutated schemes ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 199), st.lists(MUTATIONS, min_size=1, max_size=4), st.randoms())
def test_mutated_schemes_answer_as_a_scan(seed, mutations, rng):
    """Coincident points, overlapping pipes and non-finite coordinates; the
    mutations that write in place drop the index, the others insert."""
    s = random_scheme(seed)
    s.index()
    for fn, *args in mutations:
        fn(s, *args)
    assert_index_answers_as_a_scan(s, rng)


# -- the grid ----------------------------------------------------------------------

def test_box_grid_answers_in_filing_order():
    grid = SegmentGrid(cell=1.0)
    grid.add("far", (0.0, 0.0), (1e6, 1e6))    # more cells than segments: loose
    grid.add("a", (0.5, 0.5), (0.5, 0.5))
    grid.add("nan", (math.nan, 0.0), (math.nan, 0.0))
    grid.add("b", (0.6, 0.6), (2.5, 0.6))
    grid.add("away", (5.0, 5.0), (6.0, 6.0))
    assert grid.near((0.4, 0.4), (0.7, 0.7)) == ["far", "a", "nan", "b"]
    grid.add("a", (5.5, 5.5), (5.5, 5.5))       # re-filed: its rank stays
    assert grid.near((0.4, 0.4), (0.7, 0.7)) == ["far", "nan", "b"]
    assert grid.near((5.0, 5.0), (5.6, 5.6)) == ["far", "a", "nan", "away"]
    assert grid.near((0.0, 0.0), (math.inf, 1.0)) == ["far", "a", "nan", "b", "away"]
    grid.discard("far")
    grid.discard("far")
    assert grid.near((0.4, 0.4), (0.7, 0.7)) == ["nan", "b"]
    assert len(grid) == 4


def test_a_long_segment_is_filed_along_its_path():
    """Among enough segments a long diagonal is filed in the cells along it:
    a probe in its box but off its path does not return it."""
    grid = SegmentGrid([(k, (1e4 + 3.0 * k, 0.0), (1e4 + 3.0 * k, 0.0), 0.5)
                        for k in range(1000)])
    grid.add("long", (0.0, 0.0), (200.0, 200.0))
    assert grid.near((100.5, 100.0), (100.5, 100.0)) == ["long"]
    assert grid.near((150.0, 50.0), (150.0, 50.0), 1.0) == []
    grid.add("long", (0.0, 200.0), (200.0, 0.0))  # re-filed along its new path
    assert grid.near((150.0, 50.0), (150.0, 50.0), 1.0) == ["long"]
    assert grid.near((100.5, 100.0), (100.5, 100.0)) == ["long"]
    assert grid.near((20.0, 20.0), (20.0, 20.0), 1.0) == []


def test_mains_and_stubs_answer_as_a_scan():
    """Mains 80 times as long as the stubs: probes along and across them,
    and at their points, answer as the scans do."""
    s = mains_and_stubs(200)
    assert_index_answers_as_a_scan(s, random.Random(6), 60)
    ids = list(s.points)
    mid = edit.add_point(s, 20000.0, 300.0, 0.0)  # on the second main
    for other in (ids[2], ids[3], ids[-1]):
        assert (outcome(constraints.check_pipe_overlap, s, mid, other)
                == outcome(oracle_check_pipe_overlap, s, mid, other))
