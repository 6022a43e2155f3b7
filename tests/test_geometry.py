import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import edit, geometry, model
from axoscheme.geometry import (
    OffsetView,
    occlusion_gaps,
    project_point,
    projection_by_name,
    projection_catalog,
    slice_scheme,
)
from axoscheme.model import Axis, Slice, new_scheme
from axoscheme.vectors import add3
from genschemes import random_scheme
from oracles import oracle_occlusion, oracle_slice


# -- catalog ---------------------------------------------------------------------

def test_catalog_size_and_families():
    cat = projection_catalog()
    assert len(cat) == 26  # 13 axonometric + 6 views + 6 oblique + custom
    names = [p.name for p in cat]
    assert len(set(names)) == 26
    views = [n for n in names if n.startswith("view-")]
    q1 = [n for n in names if "-q1-" in n]
    assert len(views) == 6 and len(q1) == 6
    assert "custom" in names
    assert len(names) - len(views) - len(q1) - 1 == 13


def test_isometric_axis_images():
    iso = projection_by_name("isometric")
    assert iso.ex == pytest.approx((-0.86603, -0.5), abs=5e-6)
    assert iso.ey == pytest.approx((0.86603, -0.5), abs=5e-6)
    assert iso.ez == (0, 1)


def test_isometric_angles_and_norms():
    iso = projection_by_name("isometric")
    axes = (iso.ex, iso.ey, iso.ez)
    norms = [math.hypot(*a) for a in axes]
    assert norms[0] == pytest.approx(norms[1], abs=1e-9)
    assert norms[1] == pytest.approx(norms[2], abs=1e-9)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        dot = axes[a][0] * axes[b][0] + axes[a][1] * axes[b][1]
        ang = math.degrees(math.acos(dot / (norms[a] * norms[b])))
        assert ang == pytest.approx(120.0, abs=1e-9)


def test_frontal_dimetric_45_receding_axis():
    p = projection_by_name("frontal-dimetric-45")
    assert p.ex == (1, 0) and p.ez == (0, 1)
    assert p.ey == pytest.approx((-0.35355, -0.35355), abs=5e-6)


def test_view_front_drops_y():
    p = projection_by_name("view-front")
    assert p.ex == (1, 0) and p.ey == (0, 0) and p.ez == (0, 1)
    assert project_point(p, (3, 7, 2))[0] == (3, 2)


def test_q1_obliques_recede_into_first_quadrant():
    for name in ("frontal-isometric-q1-30", "frontal-dimetric-q1-60"):
        p = projection_by_name(name)
        assert p.ex == (1, 0)
        assert p.ey[0] > 0 and p.ey[1] > 0


def test_view_dirs_unit_length():
    for p in projection_catalog():
        assert math.sqrt(sum(c * c for c in p.view_dir)) == pytest.approx(
            1.0, abs=1e-9)


def test_project_isometric_unit_x():
    iso = projection_by_name("isometric")
    (u, v), depth = project_point(iso, (1, 0, 0))
    assert (u, v) == pytest.approx((-0.86603, -0.5), abs=5e-6)
    assert depth == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_project_origin():
    for p in projection_catalog():
        assert project_point(p, (0, 0, 0)) == ((0, 0), 0)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.floats(-1e4, 1e4) for _ in range(6)]),
       st.floats(-3, 3), st.floats(-3, 3))
def test_projection_linearity(coords, alpha, beta):
    iso = projection_by_name("isometric")
    p = coords[:3]
    q = coords[3:]
    combo = tuple(alpha * a + beta * b for a, b in zip(p, q))
    (u, v), d = project_point(iso, combo)
    (up, vp), dp = project_point(iso, p)
    (uq, vq), dq = project_point(iso, q)
    assert u == pytest.approx(alpha * up + beta * uq, abs=1e-6)
    assert v == pytest.approx(alpha * vp + beta * vq, abs=1e-6)
    assert d == pytest.approx(alpha * dp + beta * dq, abs=1e-6)


def test_custom_projection_along_up_falls_back():
    p = geometry.custom_projection((0.0, 0.0, 1.0))
    assert math.hypot(*p.ex) > 0 or math.hypot(*p.ey) > 0


# -- offsets ------------------------------------------------------------------------

def apply_offsets(s):
    """Displaced position per point id, from one view of the scheme."""
    view = OffsetView(s)
    return {pid: add3(p.as_tuple(), view.point_displacement(pid)) for pid, p in s.points.items()}


def test_apply_offsets_displaces_far_side():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    table = apply_offsets(s)
    assert table[b] == (0, 0, 1300.0)
    assert table[a] == (0, 0, 0)


def test_apply_offsets_stack_additively():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 400.0, 300.0))
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 600.0, -100.0))
    table = apply_offsets(s)
    assert table[b] == (0, 0, 1200.0)  # +300 - 100


def test_apply_offsets_zero_magnitude_is_identity():
    s = random_scheme(11, with_offsets=True)
    for off in s.offsets.values():
        off.magnitude = 0.0
    table = apply_offsets(s)
    for pid, pos in table.items():
        assert pos == s.points[pid].as_tuple()


def test_displacement_on_pipe_sides():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    assert geometry.displacement_on_pipe(s, 1, 100.0) == (0, 0, 0)
    assert geometry.displacement_on_pipe(s, 1, 900.0) == (0, 0, 300.0)


# -- slicing -------------------------------------------------------------------------

def test_slice_pipe_touching_slab():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, -500)
    b = edit.add_point(s, 0, 0, 500)
    pid = edit.add_pipe(s, a, b)
    sel = slice_scheme(s, Slice(0.0, 3000.0))
    assert pid in sel.pipes


def test_slice_block_outside_excluded():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 4000)
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", model.SymbolDef(
        "v", [model.SymbolSegment(-1, 0, 1, 0)], model.Attach.AXIAL, (0.0,)))
    bid = edit.place_block(s, sym, pid, 3500.0, updir=model.UpDir.XP)
    sel = slice_scheme(s, Slice(0.0, 3000.0))
    assert pid in sel.pipes and bid not in sel.blocks


def test_slice_all_selects_everything():
    s = random_scheme(5)
    sel = slice_scheme(s, Slice())
    assert sel.pipes == set(s.pipes)
    assert sel.blocks == set(s.blocks)
    assert sel.dimensions == set(s.dimensions)
    assert sel.texts == set(s.texts)
    assert sel.grid == (s.axis_grid is not None)


def test_slice_matches_oracle_on_random_schemes():
    for seed in range(120):
        s = random_scheme(seed)
        rng = random.Random(seed + 999)
        z_min = rng.randrange(-4, 2) * 250.0
        z_max = z_min + rng.randrange(1, 6) * 250.0
        sel = slice_scheme(s, Slice(z_min, z_max))
        want = oracle_slice(s, z_min, z_max)
        assert sel.pipes == want["pipes"]
        assert sel.joints == want["joints"]
        assert sel.breaks == want["breaks"]
        assert sel.blocks == want["blocks"]
        assert sel.texts == want["texts"]
        assert sel.pipe_leaders == want["pipe_leaders"]
        assert sel.block_leaders == want["block_leaders"]
        assert sel.position_marks == want["position_marks"]
        assert sel.dimensions == want["dimensions"]
        assert sel.elevation_marks == want["elevation_marks"]
        assert sel.slope_marks == want["slope_marks"]
        assert sel.grid == want["grid"]


# -- occlusion ------------------------------------------------------------------------

def crossing_scheme():
    s = new_scheme()
    s.settings.scale = 0.02
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 500, -800, 300)
    d = edit.add_point(s, 500, 800, 300)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, c, d)
    return s, p1, p2


def test_occlusion_gap_on_farther_pipe():
    s, p1, p2 = crossing_scheme()
    iso = projection_by_name("isometric")
    gaps = occlusion_gaps(s, iso)
    assert len(gaps) == 1
    victim, (lo, hi) = gaps[0]
    assert victim == p1  # the lower pipe passes behind
    # crossing at 20% of pipe 1: centre 0.2 * 1000mm * 0.02 = 4mm paper
    assert (lo + hi) / 2 == pytest.approx(4.0, abs=1e-6)
    assert hi - lo == pytest.approx(s.settings.occlusion_gap_len, abs=1e-9)


def test_occlusion_shared_point_no_gap():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 0, 1000, 0)
    edit.add_pipe(s, a, b)
    edit.add_pipe(s, a, c)
    assert occlusion_gaps(s, projection_by_name("isometric")) == []


def test_occlusion_parallel_no_gap():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 0, 500, 0)
    d = edit.add_point(s, 1000, 500, 0)
    edit.add_pipe(s, a, b)
    edit.add_pipe(s, c, d)
    assert occlusion_gaps(s, projection_by_name("isometric")) == []


def test_occlusion_visibility_off_suppresses():
    s, _, _ = crossing_scheme()
    s.settings.visibility.occlusion = False
    assert occlusion_gaps(s, projection_by_name("isometric")) == []


def test_occlusion_matches_oracle_on_random_schemes():
    iso = projection_by_name("isometric")
    for seed in range(150):
        s = random_scheme(seed, with_offsets=False)
        got = occlusion_gaps(s, iso)
        want = oracle_occlusion(s, iso)
        assert len(got) == len(want), f"seed {seed}"
        got_sorted = sorted((pid, (lo + hi) / 2) for pid, (lo, hi) in got)
        for (gp, gc), (wp, wc) in zip(got_sorted, want):
            assert gp == wp and gc == pytest.approx(wc, abs=1e-6), f"seed {seed}"
