"""The segment grid of ``vectors`` against brute force, and what it costs on
long mains among short stubs.

``grid_pairs`` and ``SegmentGrid.near`` file each segment, grown by its
margin, in the grid cells it passes through.  Two grown segments *meet*
when some point of one lies within the sum of the margins of some point of
the other on every axis.  For finite segments the pairs returned are every
pair that meets, decided here exactly in rational arithmetic, and no pair
whose grown boxes (bounds rounded outward) do not touch; for segments along
an axis, and points, the two sets are one, so the result equals the set of
touching pairs exactly.  A pair with a non-finite segment is always returned.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import geometry, model, vectors
from axoscheme.geometry import projection_by_name
from axoscheme.layout import layout_scheme
from axoscheme.model import Pipe, Point3, integrity_check
from axoscheme.vectors import SegmentGrid, grid_pairs
from genschemes import mains_and_stubs
from oracles import oracle_occlusion_gaps

# -- brute force -------------------------------------------------------------------


def _finite(seg) -> bool:
    p, q, m = seg
    return all(math.isfinite(v) for v in (*p, *q, m))


def meet(a, b) -> bool:
    """Whether the grown segments meet, in exact arithmetic: is there (s, t)
    in [0, 1]^2 with |pa + s da - pb - t db| <= ma + mb on every axis?
    Fourier-Motzkin elimination of t, then an interval for s."""
    (p, q, m), (r, t, n) = a, b
    F = Fraction
    big = F(m) + F(n)
    rows = [(F(1), F(0), F(1)), (F(-1), F(0), F(0)), (F(0), F(1), F(1)), (F(0), F(-1), F(0))]
    for k in range(len(p)):  # rows (alpha, beta, gamma): alpha s + beta t <= gamma
        w, da, db = F(p[k]) - F(r[k]), F(q[k]) - F(p[k]), F(t[k]) - F(r[k])
        rows += [(da, -db, big - w), (-da, db, big + w)]
    on_s = [(al, ga) for al, be, ga in rows if be == 0]
    for ap, bp, gp in (row for row in rows if row[1] > 0):
        for an, bn, gn in (row for row in rows if row[1] < 0):
            on_s.append((ap * -bn + an * bp, gp * -bn + gn * bp))
    lo, hi = F(0), F(1)
    for al, ga in on_s:
        if al > 0:
            hi = min(hi, ga / al)
        elif al < 0:
            lo = max(lo, ga / al)
        elif ga < 0:
            return False
    return lo <= hi


def _box(seg):
    p, q, m = seg
    lo = [math.nextafter(min(a, b) - m, -math.inf) if m else min(a, b) for a, b in zip(p, q)]
    hi = [math.nextafter(max(a, b) + m, math.inf) if m else max(a, b) for a, b in zip(p, q)]
    return lo, hi


def boxes_touch(a, b) -> bool:
    (alo, ahi), (blo, bhi) = _box(a), _box(b)
    return all(x0 <= y1 and y0 <= x1 for x0, x1, y0, y1 in zip(alo, ahi, blo, bhi))


def _along_an_axis(seg) -> bool:
    p, q, _ = seg
    return sum(a != b for a, b in zip(p, q)) <= 1


def far_points(count: int, dim: int, size: float) -> list:
    """``count`` points of extent ``size``, far from every drawn segment and
    apart from one another.  They set the cell, and they let a segment enter
    as many cells as there are segments before it is loose."""
    return [((1e7 + 2.0 * size * k,) + (1e7,) * (dim - 1),) * 2 + (size / 2.0,)
            for k in range(count)]


def assert_pairs_as_brute_force(segments, far: int = 0, size: float = 1.0) -> None:
    """``grid_pairs`` of the segments and ``far`` far points, against every
    pair of the segments."""
    dim = len(segments[0][0]) if segments else 2
    every_seg = segments + far_points(far, dim, size)
    got = grid_pairs(every_seg)
    assert got == sorted(set(got)) and all(i < j for i, j in got)
    got = set(got)
    n = len(segments)
    bad = [i for i in range(n) if not _finite(segments[i])]
    wild = {(min(i, j), max(i, j)) for i in bad for j in range(len(every_seg)) if j != i}
    assert wild <= got
    assert all(j < n for _, j in got - wild)  # far points meet nothing
    every = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in wild]
    touching = {(i, j) for i, j in every if boxes_touch(segments[i], segments[j])}
    assert got - wild <= touching
    assert {(i, j) for i, j in touching if meet(segments[i], segments[j])} <= got
    if all(map(_along_an_axis, segments)):
        assert got - wild == touching


# -- strategies ---------------------------------------------------------------------

_coord = st.floats(-1e4, 1e4)
# lengths from 1e-2 to 1e3 mm: a ratio of 10^5
_length = st.sampled_from([1e-2, 0.1, 1.0, 30.0, 300.0, 1e3])


@st.composite
def segments(draw, dim):
    p = tuple(draw(st.tuples(*[_coord] * dim)))
    kind = draw(st.sampled_from(["point", "axis", "slant"]))
    length = draw(_length)
    if kind == "point":
        q = p
    elif kind == "axis":
        k = draw(st.integers(0, dim - 1))
        q = tuple(v + (length if i == k else 0.0) for i, v in enumerate(p))
    else:
        d = draw(st.tuples(*[st.floats(-1.0, 1.0)] * dim))
        norm = math.sqrt(sum(v * v for v in d)) or 1.0
        q = tuple(v + length * w / norm for v, w in zip(p, d))
    margin = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-2 * length, 0.3 * length]))
    return p, q, margin


def near_parallel_mains(dim, count, length, tilt):
    """``count`` mains of ``length`` 300 mm apart, each turned ``tilt``
    radians further off the x axis than the one before."""
    out = []
    for k in range(count):
        a = k * tilt
        p = (0.0, 300.0 * k) + (0.0,) * (dim - 2)
        q = (length * math.cos(a), 300.0 * k + length * math.sin(a)) + (0.0,) * (dim - 2)
        out.append((p, q, 1e-6))
    return out


_wild = st.sampled_from([math.nan, math.inf, -math.inf])


# -- grid_pairs --------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.lists(segments(dim), max_size=25)))
def test_pairs_are_the_segments_that_meet(segs):
    """With a cell of 1 and room for 400 cells, segments up to 300 long are
    filed along their paths and longer ones are loose."""
    assert_pairs_as_brute_force(segs)
    assert_pairs_as_brute_force(segs, far=400)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 8), st.sampled_from([4e4, 1e5]),
       st.sampled_from([0.0, 1e-6, 1e-3]),
       st.lists(st.integers(0, 7).flatmap(lambda k: st.tuples(
           st.just(k), st.floats(0.0, 1.0), st.sampled_from([0.5, 100.0, 500.0]))),
           max_size=12))
def test_near_parallel_mains_and_stubs_pair_as_brute_force(dim, count, length, tilt, stubs):
    """Mains 40-100 m long, 300 mm apart and nearly parallel, with short
    stubs across them: a main is filed along its path, not by its box."""
    segs = near_parallel_mains(dim, count, length, tilt)
    for k, f, size in stubs:
        (p, q, _) = segs[k % count]
        foot = tuple(a + f * (b - a) for a, b in zip(p, q))
        segs.append((foot, (foot[0], foot[1] + size) + foot[2:], 1e-6))
    assert_pairs_as_brute_force(segs, far=300, size=500.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.tuples(
    st.lists(segments(dim), max_size=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2 * dim - 1), _wild), max_size=3))))
def test_non_finite_ends_pair_with_every_segment(case):
    segs, spoil = case
    for k, i, value in spoil:
        if segs:
            p, q, m = segs[k % len(segs)]
            ends = list(p + q)
            ends[i] = value
            segs[k % len(segs)] = (tuple(ends[:len(p)]), tuple(ends[len(p):]), m)
    assert_pairs_as_brute_force(segs, far=100)


def test_a_long_diagonal_is_filed_along_its_path():
    """A diagonal over 1,000 cells of each axis enters fewer than 3,000
    cells, not the million of its box, and is paired only with the points
    on its path."""
    segs = [((float(i), float(j)), (float(i), float(j)), 0.4)
            for i in range(0, 1000, 7) for j in range(0, 1000, 7)]
    segs.append(((0.0, 0.0), (1000.0, 1000.0), 0.0))
    cell = vectors._median_cell([vectors._grown(*s) for s in segs])
    box = vectors._grown(*segs[-1])
    cells = vectors._cells(*segs[-1][:3], box, cell, len(segs))
    assert cells is not None and len(cells) < 3 * 1000 / cell
    got = {i for i, j in grid_pairs(segs) if j == len(segs) - 1}
    assert got == {i for i in range(len(segs) - 1) if segs[i][0][0] == segs[i][0][1]}


def test_a_segment_over_more_cells_than_segments_is_loose_and_box_tested():
    segs = [((0.0, 0.0), (1e6, 1e6), 0.0), ((0.5, 0.5), (0.5, 0.5), 0.25),
            ((10.0, 10.0), (10.5, 10.0), 0.0), ((5e5, 0.0), (5e5, 0.0), 0.25),
            ((-5.0, -5.0), (-5.0, -5.0), 0.25)]
    assert vectors._cells(*segs[0], vectors._grown(*segs[0]), 1.0, len(segs)) is None
    assert grid_pairs(segs) == [(0, 1), (0, 2), (0, 3)]


# -- probes ------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.tuples(
    st.lists(segments(dim), min_size=1, max_size=15),
    st.lists(st.tuples(st.sampled_from(["add", "discard"]), st.integers(0, 20), segments(dim)),
             max_size=10),
    st.lists(segments(dim), min_size=1, max_size=5))))
def test_probes_answer_as_brute_force(case):
    """Built in one pass, then changed one segment at a time: a probe
    returns, in filing order, every stored segment it meets, and none whose
    box it does not touch."""
    first, changes, probes = case
    # far points, keyed below 0, set a cell of 1 and room for 300 cells
    first = dict(enumerate(first)) | dict(enumerate(far_points(300, len(first[0][0]), 1.0), -300))
    grid = SegmentGrid((k, *seg) for k, seg in first.items())
    stored = dict(first)
    order = list(stored)
    for op, key, seg in changes:
        if op == "add":
            grid.add(key, *seg)
            stored[key] = seg
            if key not in order:
                order.append(key)
        else:
            grid.discard(key)
            stored.pop(key, None)
            if key in order:
                order.remove(key)
    assert len(grid) == len(stored)
    assert sorted(stored, key=grid.rank) == order
    for probe in probes:
        got = grid.near(*probe)
        assert got == [k for k in order if k in got]
        assert len(set(got)) == len(got) and set(got) <= set(stored)
        if not _finite(probe):
            assert got == order
            continue
        wild = {k for k in order if not _finite(stored[k])}
        assert wild <= set(got)
        assert {k for k in set(got) - wild if not boxes_touch(stored[k], probe)} == set()
        assert {k for k in order if k not in wild and meet(stored[k], probe)} <= set(got)


# -- long mains among short stubs -----------------------------------------------------

def _stage_candidates(n: int, monkeypatch) -> dict[str, int]:
    """Candidates of each stage on ``mains_and_stubs(n)``: those the spatial
    index returns while it is built, and the pairs ``grid_pairs`` returns to
    ``integrity_check`` and to an isometric layout."""
    counts = {"build": 0, "integrity": 0, "layout": 0}

    def counting(stage, fn):
        def counted(*args):
            found = fn(*args)
            counts[stage] += len(found)
            return found
        return counted

    with monkeypatch.context() as m:
        m.setattr(model.SpatialIndex, "pipes_near",
                  counting("build", model.SpatialIndex.pipes_near))
        m.setattr(model.SpatialIndex, "points_near",
                  counting("build", model.SpatialIndex.points_near))
        s = mains_and_stubs(n)
    with monkeypatch.context() as m:
        m.setattr(model, "grid_pairs", counting("integrity", vectors.grid_pairs))
        assert integrity_check(s) == []
    with monkeypatch.context() as m:
        m.setattr(geometry, "grid_pairs", counting("layout", vectors.grid_pairs))
        layout_scheme(s, projection_by_name("isometric"))
    return counts


def test_mains_and_stubs_candidates_grow_linearly(monkeypatch):
    """From 1,000 to 2,000 pipes the candidates of each stage grow by at
    most 2.3 times; a loose 40 m main would make them grow 4 times."""
    small = _stage_candidates(1000, monkeypatch)
    large = _stage_candidates(2000, monkeypatch)
    for stage in small:
        assert 0 < large[stage] <= 2.3 * small[stage], (stage, small, large)


@pytest.mark.parametrize("name", ["isometric", "view-top"])
def test_mains_and_stubs_gaps_match_all_pairs(name):
    proj = projection_by_name(name)
    s = mains_and_stubs(120)
    assert geometry.occlusion_gaps(s, proj) == oracle_occlusion_gaps(s, proj)


def test_quadratically_many_crossings_are_all_found():
    """Twelve pipes along X under twelve along Y cross 144 times in a top
    view; each crossing gives one gap, as testing every pair does."""
    s = model.new_scheme()
    for i in range(12):
        a = s.insert("points", Point3(-200.0, 400.0 * i, 0.0))
        b = s.insert("points", Point3(4800.0, 400.0 * i, 0.0))
        s.insert("pipes", Pipe(a, b))
    for j in range(12):
        a = s.insert("points", Point3(400.0 * j + 200.0, -200.0, 1000.0))
        b = s.insert("points", Point3(400.0 * j + 200.0, 4800.0, 1000.0))
        s.insert("pipes", Pipe(a, b))
    proj = projection_by_name("view-top")
    gaps = geometry.occlusion_gaps(s, proj)
    assert len(gaps) == 144
    assert gaps == oracle_occlusion_gaps(s, proj)
