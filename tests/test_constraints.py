import math
import random

import pytest

from axoscheme import edit, model
from axoscheme.constraints import (
    check_general_offset,
    check_local_offset,
    check_pipe_overlap,
    enumerate_block_orientations,
    legal_dimension_orientations,
    resolve_block_frame,
)
from axoscheme.geometry import OffsetView
from axoscheme.model import (
    Attach,
    Axis,
    BreakLine,
    DimPoint,
    DimPointKind,
    Offset,
    OffsetKind,
    SymbolDef,
    SymbolSegment,
    UpDir,
    new_scheme,
)
from oracles import oracle_dimension_orientations


def scheme_with(points, pipes):
    s = new_scheme()
    ids = [edit.add_point(s, *p) for p in points]
    pipe_ids = [edit.add_pipe(s, ids[a], ids[b]) for a, b in pipes]
    return s, ids, pipe_ids


def rules(violations):
    return [v.rule for v in violations]


# -- pipe overlap -------------------------------------------------------------

def test_zero_length_pipe_rejected():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    assert rules(check_pipe_overlap(s, a, a)) == ["pipe-zero-length"]


def test_collinear_overlap_rejected():
    # 1D interval oracle: [0,100] and [50,150] share 50 units of axis
    s, ids, _ = scheme_with([(0, 0, 0), (100, 0, 0), (50, 0, 0), (150, 0, 0)],
                            [(0, 1)])
    assert rules(check_pipe_overlap(s, ids[2], ids[3])) == ["pipe-overlap"]


def test_shared_endpoint_is_fine():
    s, ids, _ = scheme_with([(0, 0, 0), (100, 0, 0), (0, 100, 0)], [(0, 1)])
    assert check_pipe_overlap(s, ids[0], ids[2]) == []


def test_touching_collinear_segments_are_fine():
    s, ids, _ = scheme_with([(0, 0, 0), (100, 0, 0), (200, 0, 0)], [(0, 1)])
    assert check_pipe_overlap(s, ids[1], ids[2]) == []


# -- general offsets -----------------------------------------------------------

def test_normal_crossing_pipe_is_ok():
    s, ids, pipes = scheme_with([(0, 0, 0), (0, 0, 1000)], [(0, 1)])
    oid = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    assert check_general_offset(OffsetView(s), oid) == []


def test_oblique_crossing_pipe_flagged():
    s, ids, pipes = scheme_with([(0, 0, 0), (0, 1000, 1000)], [(0, 1)])
    off = s.insert("offsets", Offset("а", (0, 0, 1.0), 300.0,
                                     OffsetKind.GENERAL, Axis.Z, 500.0))
    reports = check_general_offset(OffsetView(s), off)
    assert any(r.rule == "offset-oblique-pipe" for r in reports)


def test_missing_break_flagged():
    s, ids, pipes = scheme_with([(0, 0, 0), (0, 0, 1000)], [(0, 1)])
    off = s.insert("offsets", Offset("а", (0, 0, 1.0), 300.0,
                                     OffsetKind.GENERAL, Axis.Z, 500.0))
    reports = check_general_offset(OffsetView(s), off)
    assert any(r.rule == "offset-missing-break" for r in reports)


def test_add_offset_rejects_oblique_crossing():
    s, ids, pipes = scheme_with([(0, 0, 0), (0, 1000, 1000)], [(0, 1)])
    with pytest.raises(model.EditError):
        edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    assert not s.offsets and not s.breaks


# -- local offsets ----------------------------------------------------------------

def t_network():
    # stem A-B, branches B-C and B-D
    return scheme_with(
        [(0, 0, 0), (1000, 0, 0), (2000, 0, 0), (1000, 1000, 0)],
        [(0, 1), (1, 2), (1, 3)])


def test_local_offset_clean_cut():
    s, ids, pipes = t_network()
    oid = edit.add_offset(s, edit.LocalOffsetSpec(
        (1.0, 0, 0), 300.0, [(pipes[0], 500.0)], displaced_seed=ids[1]))
    assert check_local_offset(OffsetView(s), oid) == []
    assert s.offsets[oid].displaced_points == {ids[1], ids[2], ids[3]}


def test_local_offset_mixed_sides_rejected():
    s, ids, pipes = t_network()
    off = s.insert("offsets", Offset("а", (1.0, 0, 0), 300.0, OffsetKind.LOCAL,
                                     displaced_points={ids[0], ids[2]}))
    s.insert("breaks", BreakLine(pipes[0], off, 6.0, 500.0))
    assert rules(check_local_offset(OffsetView(s), off)) == ["offset-local-cut"]


def test_local_offset_without_breaks_rejected():
    s, ids, pipes = t_network()
    off = s.insert("offsets", Offset("а", (1.0, 0, 0), 300.0, OffsetKind.LOCAL,
                                     displaced_points={ids[2]}))
    assert rules(check_local_offset(OffsetView(s), off)) == ["offset-local-cut"]


def test_local_offset_separation_property():
    # whenever the check accepts, every full-graph path between a displaced
    # and a fixed point crosses a broken pipe
    rng = random.Random(42)
    accepted = 0
    for _ in range(200):
        from genschemes import random_scheme

        s = random_scheme(rng.randrange(10_000), with_offsets=False)
        pipe_ids = sorted(s.pipes)
        if not pipe_ids:
            continue
        broken = set(rng.sample(pipe_ids, min(len(pipe_ids),
                                              rng.randrange(1, 3))))
        seed_point = s.pipes[sorted(broken)[0]].end
        try:
            oid = edit.add_offset(s, edit.LocalOffsetSpec(
                (0.0, 0.0, 1.0), 250.0,
                [(p, model.pipe_length(s, p) / 2) for p in sorted(broken)],
                displaced_seed=seed_point))
        except model.EditError:
            continue
        accepted += 1
        displaced = s.offsets[oid].displaced_points
        adjacency = {}
        for pid, pipe in s.pipes.items():
            if pid in broken:
                continue
            adjacency.setdefault(pipe.start, []).append(pipe.end)
            adjacency.setdefault(pipe.end, []).append(pipe.start)
        for start in displaced:
            reach = {start}
            stack = [start]
            while stack:
                for nxt in adjacency.get(stack.pop(), ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        stack.append(nxt)
            assert reach <= displaced  # never escapes without a break
    assert accepted > 20


def test_local_offset_unbroken_bridge_rejected():
    # a second path joins the sides without a break
    s, ids, pipe_ids = scheme_with(
        [(0, 0, 0), (1000, 0, 0), (0, 1000, 0), (1000, 1000, 0)],
        [(0, 1), (0, 2), (2, 3), (3, 1)])
    off = s.insert("offsets", Offset("а", (1.0, 0, 0), 300.0, OffsetKind.LOCAL,
                                     displaced_points={ids[1]}))
    s.insert("breaks", BreakLine(pipe_ids[0], off, 6.0, 500.0))
    assert rules(check_local_offset(OffsetView(s), off)) == ["offset-local-cut"]


# -- dimension orientation legality ---------------------------------------------

def legal_at(s, coords):
    """The calculus over the stored points at ``coords``, each added to the
    scheme unless a point is already there."""
    pts = [DimPoint(DimPointKind.POINT, edit.add_point(s, *c)) for c in coords]
    return legal_dimension_orientations(OffsetView(s), pts)


def names(orientations):
    out = set()
    for ext, dim in orientations:
        tag = dim.axis.value if dim.axis is not None else f"pipe{dim.pipe}"
        out.add((ext.value, tag))
    return out


def test_points_on_coordinate_axis():
    s = new_scheme()
    got = legal_at(s, [(0, 0, 0), (100, 0, 0), (200, 0, 0)])
    assert names(got) == {("y", "x"), ("z", "x")}


def test_points_in_coordinate_plane():
    s = new_scheme()
    got = legal_at(s, [(0, 0, 0), (100, 0, 0), (100, 50, 0)])
    assert names(got) == {("x", "y"), ("y", "x")}


def test_points_on_fully_oblique_pipe():
    s, ids, pipes = scheme_with([(0, 0, 0), (100, 100, 100)], [(0, 1)])
    got = legal_at(s, [(0, 0, 0), (100, 100, 100)])
    tag = f"pipe{pipes[0]}"
    assert names(got) == {("x", tag), ("y", tag), ("z", tag)}


def test_points_on_plane_parallel_pipe():
    s, ids, pipes = scheme_with([(0, 0, 0), (100, 100, 0)], [(0, 1)])
    got = legal_at(s, [(0, 0, 0), (100, 100, 0)])
    tag = f"pipe{pipes[0]}"
    assert names(got) == {("x", tag), ("y", tag), ("x", "y"), ("y", "x")}


def test_coincident_points_are_illegal():
    s = new_scheme()
    assert legal_at(s, [(0, 0, 0), (0, 0, 0)]) == set()


def test_non_coplanar_points_are_illegal():
    s = new_scheme()
    pts = [(0, 0, 0), (100, 0, 0), (0, 100, 0), (0, 0, 100), (100, 100, 100)]
    assert legal_at(s, pts) == set()


def test_oblique_line_without_pipe_is_illegal():
    s = new_scheme()
    assert legal_at(s, [(0, 0, 0), (100, 100, 100)]) == set()


def test_offset_along_the_line_keeps_set_legal():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.X, 1000.0, 300.0))
    # the x-offset stretches the set along its own line: still legal
    got = legal_at(s, [(0.0, 0.0, 0.0), (2000.0, 0.0, 0.0)])
    assert names(got) == {("y", "x"), ("z", "x")}


def test_offset_off_axis_makes_set_illegal():
    # an oblique line crossed by an x-plane offset: part of the points would
    # leave the common axis, so no orientation is legal
    s, ids, pipes = scheme_with([(0, 0, 0), (2000, 2000, 0)], [(0, 1)])
    s.insert("offsets", Offset("а", (1.0, 0.0, 0.0), 300.0,
                               OffsetKind.GENERAL, Axis.X, 1000.0))
    got = legal_at(s, [(0.0, 0.0, 0.0), (2000.0, 2000.0, 0.0)])
    assert got == set()


def test_offset_out_of_plane_makes_set_illegal():
    # local offset lifting one corner of a planar set out of its plane
    s, ids, pipes = scheme_with(
        [(0, 0, 0), (1000, 0, 0), (1000, 500, 0)], [(0, 1), (1, 2)])
    s.insert("offsets", Offset("а", (0.0, 0.0, 1.0), 300.0, OffsetKind.LOCAL,
                               displaced_points={ids[2]}))
    s.insert("breaks", BreakLine(pipes[1], 1, 6.0, 250.0))
    pts = [(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0), (1000.0, 500.0, 0.0)]
    assert legal_at(s, pts) == set()


def test_agrees_with_rule_oracle_on_lattice_sample():
    s = new_scheme()
    rng = random.Random(7)
    lattice = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    for _ in range(400):
        k = rng.randrange(2, 6)
        pts = rng.sample(lattice, k)
        got = legal_at(s, [tuple(map(float, p)) for p in pts])
        want = oracle_dimension_orientations(s, pts)
        assert got == want, f"points {pts}"


def test_agrees_with_rule_oracle_with_pipes():
    s, ids, pipes = scheme_with(
        [(0, 0, 0), (4, 4, 4), (0, 0, 2), (4, 4, 2), (2, 0, 0), (2, 4, 0)],
        [(0, 1), (2, 3), (4, 5)])
    cases = [
        [(0, 0, 0), (1, 1, 1), (3, 3, 3)],
        [(1, 1, 2), (2, 2, 2), (3, 3, 2)],
        [(0, 0, 2), (2, 2, 2)],
        [(2, 0, 0), (2, 2, 0), (2, 3, 0)],
        [(0, 0, 0), (2, 2, 2), (4, 4, 4), (1, 1, 1)],
    ]
    for pts in cases:
        got = legal_at(s, [tuple(map(float, p)) for p in pts])
        want = oracle_dimension_orientations(s, pts)
        assert got == want, f"points {pts}"


# -- block orientations ------------------------------------------------------------

def axial_scheme(sym_axis=False, sym_normal=False, pipe_dir=(0, 0, 1)):
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000 * pipe_dir[0], 1000 * pipe_dir[1],
                       1000 * pipe_dir[2])
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-1, 0, 1, 0)], Attach.AXIAL, (0.0,),
        sym_axis=sym_axis, sym_normal=sym_normal))
    return s, sym, pid


def test_axial_on_vertical_pipe_eight_variants():
    s, sym, pid = axial_scheme()
    got = enumerate_block_orientations(s, sym, pid)
    assert len(got) == 8
    assert {ud for _, ud in got} == {UpDir.XP, UpDir.XM, UpDir.YP, UpDir.YM}


def test_tee_on_oblique_pipe_sixteen_variants():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 700, 400)
    c = edit.add_point(s, 1000, 700, 1400)
    d = edit.add_point(s, 1000, 1700, 400)
    host = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    p3 = edit.add_pipe(s, b, d)
    sym = s.insert("symbols", SymbolDef(
        "tee", [SymbolSegment(-1, 0, 1, 0)], Attach.TEE, (0.0, 0.0, 0.0)))
    got = enumerate_block_orientations(
        s, sym, host, pipe2=p2, pipe3=p3,
        dist_from_start=model.pipe_length(s, host))
    assert len(got) == 16


def test_both_symmetries_two_variants():
    s, sym, pid = axial_scheme(sym_axis=True, sym_normal=True)
    got = enumerate_block_orientations(s, sym, pid)
    assert got == [(False, UpDir.XP), (False, UpDir.YP)]


def test_orientation_bound_random(subtests=None):
    rng = random.Random(21)
    for _ in range(300):
        direction = (rng.randrange(-2, 3), rng.randrange(-2, 3),
                     rng.randrange(-2, 3))
        if direction == (0, 0, 0):
            continue
        s, sym, pid = axial_scheme(
            sym_axis=rng.random() < 0.5, sym_normal=rng.random() < 0.5,
            pipe_dir=direction)
        got = enumerate_block_orientations(s, sym, pid)
        assert 0 < len(got) <= 16


# -- block frames -------------------------------------------------------------------

def place(s, sym, pid, flip, updir, dist=500.0):
    return edit.place_block(s, sym, pid, dist, flip, updir)


def test_frame_orthogonal_target():
    s, sym, pid = axial_scheme(pipe_dir=(1, 0, 0))
    bid = place(s, sym, pid, False, UpDir.ZP)
    origin, ex, ey, ez = resolve_block_frame(s, bid)
    assert ex == pytest.approx((1, 0, 0))
    assert ey == pytest.approx((0, 0, 1))
    assert ez == pytest.approx((0, -1, 0))


def test_frame_flip_negates_ex():
    s, sym, pid = axial_scheme(pipe_dir=(1, 0, 0))
    bid = place(s, sym, pid, True, UpDir.ZP)
    _, ex, ey, _ = resolve_block_frame(s, bid)
    assert ex == pytest.approx((-1, 0, 0))
    assert ey == pytest.approx((0, 0, 1))


def test_frame_gram_schmidt():
    # pipe along (1,0,1)/sqrt2, updir +Z: ey = (-0.70711, 0, 0.70711)
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 1000)
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-1, 0, 1, 0)], Attach.AXIAL, (0.0,)))
    bid = place(s, sym, pid, False, UpDir.ZP)
    _, ex, ey, ez = resolve_block_frame(s, bid)
    r = math.sqrt(0.5)
    assert ey == pytest.approx((-r, 0.0, r), abs=1e-9)
    # right-handed orthonormal with acute angle toward the target
    assert sum(x * y for x, y in zip(ex, ey)) == pytest.approx(0, abs=1e-12)
    assert ey[2] > 0
