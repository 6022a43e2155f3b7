"""The candidate-pair filter of ``integrity_check`` against the all-pairs oracle.

Point coincidence and pipe overlap must come out exactly as testing every
pair would give them, in the same order, on generated, sample and mutated
schemes; the mutations aim at the predicates' tolerance edges.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axoscheme import model, samples
from axoscheme.model import MERGE_EPS, Pipe, Point3, integrity_check
from axoscheme.vectors import add3, cross3, mul3, norm3, sub3, unit3
from genschemes import lattice_scheme, random_scheme
from oracles import oracle_pair_violations

PAIR_RULES = ("point-coincident", "pipe-overlap")


def assert_same_as_all_pairs(scheme):
    got = [(v.rule, v.subject, v.message) for v in integrity_check(scheme)
           if v.rule in PAIR_RULES]
    assert got == oracle_pair_violations(scheme)


def test_random_schemes_match_all_pairs():
    for seed in range(200):
        assert_same_as_all_pairs(random_scheme(seed))


@pytest.mark.parametrize("build", [samples.reference_scheme,
                                   samples.golden_straight_run,
                                   samples.golden_tee_assembly,
                                   samples.golden_axis_grid])
def test_sample_schemes_match_all_pairs(build):
    assert_same_as_all_pairs(build())



@pytest.mark.parametrize("far", [1e30, -1e30, 3.4e38])
def test_far_point_is_reported_not_raised(far):
    """A point far enough out spans more grid cells than a range can count;
    the check still returns its report."""
    s = samples.golden_tee_assembly()
    _point(s, (far, 0.0, 0.0))
    pid = _point(s, (0.0, far, 0.0))
    s.insert("pipes", Pipe(1, pid))
    assert isinstance(integrity_check(s), list)
    assert_same_as_all_pairs(s)

# -- mutations -------------------------------------------------------------------

def _point(s, c) -> int:
    return s.insert("points", Point3(*c))


def _pick(store, k):
    ids = list(store)
    return ids[k % len(ids)]


def _normal(u):
    """A unit vector perpendicular to the unit vector ``u``."""
    helper = (0.0, 0.0, 1.0) if abs(u[2]) < 0.9 else (1.0, 0.0, 0.0)
    return unit3(cross3(u, helper))


def _direction(d):
    return unit3(d) if norm3(d) > 1e-3 else (1.0, 0.0, 0.0)


def dup_pipe(s, k, reverse):
    p = s.pipes[_pick(s.pipes, k)]
    s.insert("pipes", Pipe(p.end, p.start) if reverse else Pipe(p.start, p.end))


def near_point(s, k, j, factor, d):
    anchor = s.points[_pick(s.points, k)].as_tuple()
    moved = s.points[_pick(s.points, j)]
    x, y, z = add3(anchor, mul3(_direction(d), factor * MERGE_EPS))
    moved.x, moved.y, moved.z = x, y, z
    s.drop_index()  # a point moved in place


def split_pipe(s, k, pieces, keep):
    """Collinear pieces of a pipe, added beside it, or with the pipe itself
    shortened to the first piece."""
    pid = _pick(s.pipes, k)
    pipe = s.pipes[pid]
    a0, a1 = model.pipe_ends(s, pid)
    ids = [pipe.start]
    ids += [_point(s, add3(a0, mul3(sub3(a1, a0), i / pieces))) for i in range(1, pieces)]
    ids.append(pipe.end)
    if not keep:
        pipe.end = ids[1]
        s.drop_index()  # a pipe's end changed in place
        del ids[0]
    for a, b in zip(ids, ids[1:]):
        s.insert("pipes", Pipe(a, b))


def tiny_along_long(s, t, off, d, tiny_first):
    """A 1e-5 mm pipe at fraction ``t`` of a 1e5 mm pipe, ``off`` units of
    the long pipe's tolerance (1e-9 of its length) off its line."""
    u = _direction(d)
    base = (1234.5, -678.25, 90.0)
    at = add3(add3(base, mul3(u, t * 1e5)), mul3(_normal(u), off * 1e-4))
    long_ends = (base, add3(base, mul3(u, 1e5)))
    tiny_ends = (at, add3(at, mul3(u, 1e-5)))
    for a, b in (tiny_ends, long_ends) if tiny_first else (long_ends, tiny_ends):
        s.insert("pipes", Pipe(_point(s, a), _point(s, b)))


def near_parallel(s, k, shift, f0, f1):
    """A copy of a pipe shifted ``shift`` lengths along itself, its ends
    ``f0`` and ``f1`` units of tolerance (1e-9 of its length) off its line;
    nothing when earlier mutations have put both ends on one spot."""
    a0, a1 = model.pipe_ends(s, _pick(s.pipes, k))
    length = norm3(sub3(a1, a0))
    if length == 0.0:
        return
    u = unit3(sub3(a1, a0))
    n = _normal(u)
    along = mul3(u, shift * length)
    b0 = add3(add3(a0, along), mul3(n, f0 * 1e-9 * length))
    b1 = add3(add3(a1, along), mul3(n, f1 * 1e-9 * length))
    s.insert("pipes", Pipe(_point(s, b0), _point(s, b1)))


def non_finite(s, k, axis, value):
    setattr(s.points[_pick(s.points, k)], "xyz"[axis], value)
    s.drop_index()


_index = st.integers(0, 60)
_vec = st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)])
_tolerance_edge = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 2.5, 4.0, -1.0, -2.0])

MUTATIONS = st.one_of(
    st.tuples(st.just(dup_pipe), _index, st.booleans()),
    st.tuples(st.just(near_point), _index, _index, st.sampled_from([0.5, 1.5]), _vec),
    st.tuples(st.just(split_pipe), _index, st.integers(2, 4), st.booleans()),
    st.tuples(st.just(tiny_along_long), st.floats(0.0, 1.0), _tolerance_edge, _vec,
              st.booleans()),
    st.tuples(st.just(near_parallel), _index,
              st.sampled_from([-0.5, 0.0, 0.3, 0.999999, 1.0]),
              _tolerance_edge, _tolerance_edge),
    st.tuples(st.just(non_finite), _index, st.integers(0, 2),
              st.sampled_from([math.nan, math.inf, -math.inf])),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 199), st.lists(MUTATIONS, min_size=1, max_size=4))
@example(seed=194, mutations=[(near_point, 1, 0, 1.5, (0.0, 0.0, 0.0)),
                              (near_point, 1, 51, 1.5, (0.0, 0.0, 0.0)),
                              (near_parallel, 1, -0.5, 0.0, 0.0)])
def test_mutated_schemes_match_all_pairs(seed, mutations):
    s = random_scheme(seed)
    for fn, *args in mutations:
        fn(s, *args)
    assert_same_as_all_pairs(s)


# -- asymptotics -----------------------------------------------------------------

def test_overlap_candidates_linear_on_lattice(monkeypatch):
    """One check of a 600-pipe lattice tests fewer than 10 pairs per pipe."""
    n = 600
    s = lattice_scheme(n)

    calls = 0
    exact = model._segments_overlap

    def counted(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    monkeypatch.setattr(model, "_segments_overlap", counted)
    assert not integrity_check(s)
    assert 0 < calls < 10 * n
