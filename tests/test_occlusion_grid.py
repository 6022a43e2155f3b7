"""The grid-filtered drawing kernels against their all-pairs oracles.

Occlusion gaps must come out exactly as testing every pair of drawn spans
gives them: the same floats in the same order, on generated, sample and
mutated schemes.  The mutations aim at the grid's cell corners, at the
tolerance edges of ``_segment_crossing`` and at long spans, which are filed
along their paths.  Block coverage gathered in one walk over the blocks must
equal walking every block for each pipe.  The lattice guards pin what one
layout costs.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import edit, geometry, model, samples, vectors
from axoscheme.geometry import occlusion_gaps, projection_by_name
from axoscheme.layout import layout_scheme
from axoscheme.model import Axis, Block, EditError, Pipe, Point3, Slice, SymbolDef, SymbolSegment
from axoscheme.vectors import add3, cross3, dist2, dot3, mul3, unit3
from genschemes import lattice_scheme, random_scheme
from oracles import oracle_coverage_intervals, oracle_occlusion_gaps
from samples_for_tests import build_offset_scheme, build_rich_scheme
from test_segment_grid import assert_pairs_as_brute_force

PROJECTIONS = ["isometric", "dimetric", "view-top", "frontal-dimetric-45"]
SAMPLES = [samples.reference_scheme, samples.golden_straight_run,
           samples.golden_tee_assembly, samples.golden_axis_grid,
           build_rich_scheme, build_offset_scheme]


def assert_same_as_all_pairs(scheme, proj, include=None) -> int:
    got = occlusion_gaps(scheme, proj, include)
    assert got == oracle_occlusion_gaps(scheme, proj, include)
    return len(got)


@pytest.mark.parametrize("name", PROJECTIONS)
def test_random_schemes_match_all_pairs(name):
    proj = projection_by_name(name)
    gaps = 0
    for seed in range(100):
        gaps += assert_same_as_all_pairs(random_scheme(seed), proj)
        gaps += assert_same_as_all_pairs(random_scheme(seed, with_offsets=False), proj)
    for seed in range(10):
        gaps += assert_same_as_all_pairs(random_scheme(seed, n_pipes=60), proj)
    assert gaps > 0


@pytest.mark.parametrize("name", PROJECTIONS)
@pytest.mark.parametrize("build", SAMPLES)
def test_sample_schemes_match_all_pairs(build, name):
    s = build()
    proj = projection_by_name(name)
    assert_same_as_all_pairs(s, proj)
    sel = geometry.slice_scheme(s, Slice(-500.0, 1500.0))
    assert_same_as_all_pairs(s, proj, sel.pipes)


# -- mutations -------------------------------------------------------------------

def _rows(proj):
    return ((proj.ex[0], proj.ey[0], proj.ez[0]), (proj.ex[1], proj.ey[1], proj.ez[1]))


def _lift(proj, q, depth=0.0):
    """A nature point whose image is ``q`` (to rounding), moved ``depth`` mm
    along the direction the projection maps to nothing."""
    ru, rv = _rows(proj)
    a, b, d = dot3(ru, ru), dot3(ru, rv), dot3(rv, rv)
    det = a * d - b * b
    c0 = (d * q[0] - b * q[1]) / det
    c1 = (a * q[1] - b * q[0]) / det
    p = add3(mul3(ru, c0), mul3(rv, c1))
    return add3(p, mul3(unit3(cross3(ru, rv)), depth))


def _add_image_pipe(s, proj, u0, u1, depth):
    a = s.insert("points", Point3(*_lift(proj, u0, depth)))
    b = s.insert("points", Point3(*_lift(proj, u1, depth)))
    s.insert("pipes", Pipe(a, b))


def _images(s, proj):
    return [(span.p0, span.p1)
            for chain in geometry.OffsetView(s).drawn_chains(proj, s.pipes).values()
            for span in chain.spans]


def _image_box(s, proj):
    pts = [p for seg in _images(s, proj) for p in seg] or [(0.0, 0.0)]
    return (min(p[0] for p in pts), min(p[1] for p in pts),
            max(p[0] for p in pts), max(p[1] for p in pts))


def _grid_cell(s, proj) -> float:
    """The cell ``vectors.grid_pairs`` picks for the scheme's spans: the
    median size of the grown, outward-rounded boxes."""
    sizes = []
    for p0, p1 in _images(s, proj):
        length = dist2(p0, p1)
        if length == 0.0:
            continue
        m = geometry._CROSSING_MARGIN * length
        size = max(math.nextafter(max(a, b) + m, math.inf)
                   - math.nextafter(min(a, b) - m, -math.inf) for a, b in zip(p0, p1))
        if math.isfinite(size):
            sizes.append(size)
    sizes.sort()
    return sizes[len(sizes) // 2] if sizes else 1.0


def _at(q, angle, length, frac):
    """Ends of an image segment of ``length`` at ``angle`` that has ``q`` at
    fraction ``frac`` of its length."""
    d = (math.cos(angle), math.sin(angle))
    return ((q[0] - d[0] * length * frac, q[1] - d[1] * length * frac),
            (q[0] + d[0] * length * (1.0 - frac), q[1] + d[1] * length * (1.0 - frac)))


def general_offset(s, proj, axis, frac, magnitude):
    """Displaced spans: a general offset through the scheme, where legal."""
    pts = [p.as_tuple()[axis.index] for p in s.points.values()]
    plane = min(pts) + frac * (max(pts) - min(pts)) + 0.5
    try:
        edit.add_offset(s, edit.GeneralOffsetSpec(axis, plane, magnitude))
    except EditError:
        pass


def crossing_pair(s, proj, fx, fy, angles, lengths, fracs, depth):
    """Two pipes whose images cross at a point of the scheme's image box,
    each 1e-5 to 1e5 mm long, one ``depth`` mm behind the other."""
    x0, y0, x1, y1 = _image_box(s, proj)
    q = (x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
    for angle, length, frac, z in zip(angles, lengths, fracs, (0.0, depth)):
        _add_image_pipe(s, proj, *_at(q, angle, length, frac), z)


def near_parallel(s, proj, k, theta, f0, f1, depth):
    """A copy of a pipe's image whose ends are ``f0`` and ``f1`` times
    ``theta`` lengths off it: the two cross, if at all, at an angle near
    ``theta``, around the 1e-12 parallel threshold of ``_segment_crossing``."""
    images = [seg for seg in _images(s, proj) if dist2(*seg) > 0.0]
    if not images:
        return
    (u0, u1) = images[k % len(images)]
    length = dist2(u0, u1)
    n = (-(u1[1] - u0[1]) / length, (u1[0] - u0[0]) / length)
    b0 = (u0[0] + n[0] * f0 * theta * length, u0[1] + n[1] * f0 * theta * length)
    b1 = (u1[0] + n[0] * f1 * theta * length, u1[1] + n[1] * f1 * theta * length)
    _add_image_pipe(s, proj, b0, b1, depth)


def long_diagonal(s, proj, fx, angle, cells, depth):
    """A pipe whose image is ``cells`` grid cells long: filed along its
    path, or loose when that is more cells than there are spans."""
    cell = _grid_cell(s, proj)
    x0, y0, x1, y1 = _image_box(s, proj)
    q = (x0 + fx * (x1 - x0), y0 + fx * (y1 - y0))
    _add_image_pipe(s, proj, *_at(q, angle, cells * cell, 0.5), depth)


def through_corner(s, proj, i, j, angles, frac, depth):
    """Two pipes whose images cross exactly at a corner of the grid's cells:
    one shorter and one longer than a cell, so the median box size, and with
    it the cell, stays as it was."""
    cell = _grid_cell(s, proj)
    x0, y0, _, _ = _image_box(s, proj)
    q = ((math.floor(x0 / cell) + i) * cell, (math.floor(y0 / cell) + j) * cell)
    _add_image_pipe(s, proj, *_at(q, angles[0], 0.3 * cell, 0.5), 0.0)
    _add_image_pipe(s, proj, *_at(q, angles[1], 3.0 * cell, frac), depth)


_angle = st.floats(0.0, 2.0 * math.pi)
_frac = st.floats(0.0, 1.0)
_depth = st.sampled_from([-300.0, -1e-6, 0.0, 1e-6, 250.0])
_length = st.sampled_from([1e-5, 1.0, 700.0, 1e5])
_tolerance_edge = st.sampled_from([0.0, 0.5, 1.0, -0.5, -1.0, 2.0, -2.0])

# offsets first, so later pipes are drawn as they are; corners last, so the
# cell they aim at is the one the grid uses
OFFSETS = st.tuples(st.just(general_offset), st.sampled_from(list(Axis)), _frac,
                    st.sampled_from([-400.0, 300.0]))
PIPES = st.one_of(
    st.tuples(st.just(crossing_pair), _frac, _frac, st.tuples(_angle, _angle),
              st.tuples(_length, _length), st.tuples(_frac, _frac), _depth),
    st.tuples(st.just(near_parallel), st.integers(0, 60),
              st.sampled_from([1e-6, 1e-9, 1e-11, 1e-12, 2e-12, 5e-13, 1e-13]),
              _tolerance_edge, _tolerance_edge, _depth),
    st.tuples(st.just(long_diagonal), _frac, _angle, st.sampled_from([12.0, 40.0]), _depth),
)
CORNERS = st.tuples(st.just(through_corner), st.integers(-1, 4), st.integers(-1, 4),
                    st.tuples(_angle, _angle), _frac, _depth)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 199), st.integers(2, 30), st.sampled_from(PROJECTIONS),
       st.lists(OFFSETS, max_size=1), st.lists(PIPES, max_size=4),
       st.lists(CORNERS, max_size=2))
def test_mutated_schemes_match_all_pairs(seed, n_pipes, name, offsets, pipes, corners):
    s = random_scheme(seed, n_pipes=n_pipes)
    proj = projection_by_name(name)
    for fn, *args in offsets + pipes + corners:
        fn(s, proj, *args)
    assert_same_as_all_pairs(s, proj)


def _end_to_end(rng, gap_at):
    """Two image segments on nearly one line, one ending and the other
    starting a tiny gap either side of ``gap_at``, where their lines cross."""
    length = 10 ** rng.uniform(2.0, 3.0)
    angle = math.pi / 4 + rng.uniform(-0.3, 0.3)
    d = (math.cos(angle), math.sin(angle))
    theta = 10 ** rng.uniform(-12.3, -11.0)
    e = (d[0] - theta * d[1], d[1] + theta * d[0])
    half = 10 ** rng.uniform(-8.0, -5.0) * length / 2.0
    a = ((gap_at[0] - d[0] * (half + length), gap_at[1] - d[1] * (half + length)),
         (gap_at[0] - d[0] * half, gap_at[1] - d[1] * half))
    b = ((gap_at[0] + e[0] * half, gap_at[1] + e[1] * half),
         (gap_at[0] + e[0] * (half + length), gap_at[1] + e[1] * (half + length)))
    return a, b


def test_near_parallel_spans_either_side_of_a_cell_corner():
    """Two spans end to end on nearly one line, a tiny gap apart at a cell
    corner, share no cell; yet ``_segment_crossing`` accepts some such pairs,
    its parameters being off by up to about 1e-4 near its parallel
    threshold.  The box margin must pair them all the same."""
    proj = projection_by_name("view-top")
    s = model.new_scheme()
    for i in range(41):  # identical boxes fix the cell
        _add_image_pipe(s, proj, (-5000.0, 300.0 * i), (-4000.0, 300.0 * i), 0.0)
    cell = _grid_cell(s, proj)
    corner = (3 * cell, 3 * cell)
    rng = random.Random(5)
    accepted = [pair for pair in (_end_to_end(rng, corner) for _ in range(50_000))
                if geometry._segment_crossing(*pair[0], *pair[1]) is not None]
    # the widest gap is the hardest for the margin
    a, b = max(accepted, key=lambda pair: dist2(pair[0][1], pair[1][0]) / dist2(*pair[0]))
    assert dist2(a[1], b[0]) > 4e-6 * dist2(*a)
    assert a[1][0] < corner[0] < b[0][0] and a[1][1] < corner[1] < b[0][1]
    _add_image_pipe(s, proj, *a, 0.0)
    _add_image_pipe(s, proj, *b, 100.0)
    assert _grid_cell(s, proj) == cell
    assert assert_same_as_all_pairs(s, proj) == 1


def test_long_diagonal_is_filed_along_its_path_and_matches_all_pairs():
    """A diagonal over 40 cells, whose box holds some 1,000, enters the cells
    along its image only, and still hides and is hidden as testing every
    pair gives."""
    s = lattice_scheme(200)
    proj = projection_by_name("dimetric")
    long_diagonal(s, proj, 0.5, 0.7, 40.0, 250.0)
    pid = max(s.pipes)
    (span,) = geometry.OffsetView(s).drawn_chains(proj, [pid])[pid].spans
    cell = _grid_cell(s, proj)
    in_box = math.prod(abs(b - a) / cell for a, b in zip(span.p0, span.p1))
    margin = geometry._CROSSING_MARGIN * dist2(span.p0, span.p1)
    box = vectors._grown(span.p0, span.p1, margin)
    entered = vectors._cells(span.p0, span.p1, margin, box, cell, 10**6)
    assert in_box > 500 and 40 < len(entered) < 200
    assert any(victim == pid for victim, _ in oracle_occlusion_gaps(s, proj))
    assert_same_as_all_pairs(s, proj)


# -- the grid on its own ---------------------------------------------------------

# near coordinates share cells; far ones are loose
_coord = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e30, 1e30))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.lists(
    st.tuples(st.tuples(*[_coord] * dim), st.tuples(*[_coord] * dim),
              st.sampled_from([0.0, 1e-9, 1.0])),
    max_size=30)))
def test_grid_pairs_holds_every_touching_pair(boxes):
    """Every pair of grown segments that meet, and no pair whose boxes do
    not touch (``test_segment_grid``)."""
    assert_pairs_as_brute_force(boxes)


# -- block coverage ----------------------------------------------------------------

def _pipe_ref(s, k):
    """None, a missing pipe id, or an existing pipe."""
    if k == -1:
        return None
    if k == -2:
        return 10**6
    ids = list(s.pipes)
    return ids[k % len(ids)]


def add_block(s, k, frac, cuts, pipe2, pipe3, stretch):
    """A block at fraction ``frac`` of a pipe; its symbol has ``cuts`` as cut
    lengths, so an attached pipe may lie past them."""
    sym = s.insert("symbols", SymbolDef("c", [SymbolSegment(-1, 0, 1, 0)], cut_lengths=cuts))
    host = _pipe_ref(s, k)
    s.insert("blocks", Block(sym, host, frac * model.pipe_length(s, host),
                             _pipe_ref(s, pipe2), _pipe_ref(s, pipe3), stretch=stretch))


def orphan_block(s, k):
    """A block whose symbol is missing."""
    s.insert("blocks", Block(10**6, _pipe_ref(s, k), 0.0))


_ref = st.integers(-2, 40)
BLOCKS = st.one_of(
    st.tuples(st.just(add_block), st.integers(0, 40), st.sampled_from([0.0, 0.5, 1.0, 0.25]),
              st.lists(st.sampled_from([0.0, 3.0, 40.0, 1e6]), min_size=1, max_size=3)
              .map(tuple), _ref, _ref, st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just(orphan_block), st.integers(0, 40)),
)


def assert_coverage_same_as_per_pipe(s):
    coverage = geometry.block_coverage(s)
    for pid in s.pipes:
        want = oracle_coverage_intervals(s, pid)
        assert coverage.get(pid, []) == want
        assert geometry.coverage_intervals(s, pid) == want
    assert set(coverage) <= set(s.pipes)


@pytest.mark.parametrize("build", SAMPLES)
def test_sample_coverage_matches_per_pipe(build):
    assert_coverage_same_as_per_pipe(build())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 199), st.lists(BLOCKS, max_size=6))
def test_mutated_coverage_matches_per_pipe(seed, blocks):
    s = random_scheme(seed)
    for fn, *args in blocks:
        fn(s, *args)
    assert_coverage_same_as_per_pipe(s)


# -- cost guards ------------------------------------------------------------------

@pytest.mark.parametrize("name", PROJECTIONS)
def test_crossing_tests_per_pipe_bounded_on_lattice(name, monkeypatch):
    """One layout of a 600-pipe lattice tests fewer than 40 span pairs per
    pipe for crossings (testing every pair would be 300 per pipe)."""
    n = 600
    s = lattice_scheme(n)
    calls = 0
    exact = geometry._segment_crossing

    def counted(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    monkeypatch.setattr(geometry, "_segment_crossing", counted)
    layout_scheme(s, projection_by_name(name))
    assert 0 < calls < 40 * n
