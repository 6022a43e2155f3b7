"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import itertools
import math
import random
import time
from pathlib import Path

from axoscheme import constraints, edit, geometry, layout, model, persist, render_svg, samples
from axoscheme.constraints import (
    enumerate_block_orientations,
    legal_dimension_orientations,
    resolve_block_frame,
)
from axoscheme.model import (
    Attach,
    DimPoint,
    DimPointKind,
    Slice,
    SlopeFormat,
    SymbolDef,
    SymbolSegment,
    new_scheme,
)
from genschemes import random_scheme
from oracles import (
    oracle_dangling,
    oracle_dimension_orientations,
    oracle_occlusion,
    oracle_slice,
)
from samples_for_tests import build_offset_scheme

GOLDEN_DIR = Path(__file__).parent / "golden"

# Regression constant: byte size of the committed 40-object reference scheme.
REFERENCE_BINARY_SIZE = 1214


def report(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1. round-trip ------------------------------------------------------------

def test_criterion_01_roundtrip_10k():
    t0 = time.time()
    for seed in range(10_000):
        s = random_scheme(seed)
        assert persist.load_binary(persist.save_binary(s)) == s, f"seed {seed}"
        assert persist.load_text(persist.save_text(s)) == s, f"seed {seed}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"10,000 random schemes round-trip both formats in {elapsed:.1f}s")


# -- 2. compactness anchor ------------------------------------------------------

def test_criterion_02_compactness_anchor():
    blob = persist.save_binary(samples.reference_scheme())
    assert len(blob) <= 2500
    assert len(blob) == REFERENCE_BINARY_SIZE
    report(2, f"40-object reference scheme serializes to {len(blob)} bytes (<= 2500)")


# -- 3. dimension legality oracle ------------------------------------------------

def _stored(scheme, lattice):
    """The scheme, with a stored point at every lattice point (an existing
    one where it is there already): its view, and the dimension point of
    each lattice point."""
    ids = {p: DimPoint(DimPointKind.POINT, edit.add_point(scheme, *map(float, p)))
           for p in lattice}
    return geometry.OffsetView(scheme), ids


def _check_case(stored, pts):
    view, ids = stored
    got = legal_dimension_orientations(view, [ids[p] for p in pts])
    want = oracle_dimension_orientations(view.scheme, pts)
    assert got == want, f"points {pts}: impl {got} oracle {want}"


def test_criterion_03_dimension_legality_oracle():
    t0 = time.time()
    lattice5 = [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]
    lattice3 = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    empty = _stored(new_scheme(), lattice5)

    cases = 0
    for pts in itertools.combinations(lattice5, 2):
        _check_case(empty, list(pts))
        cases += 1
    for pts in itertools.combinations(lattice5, 3):
        _check_case(empty, list(pts))
        cases += 1
    for k in (4, 5):
        for pts in itertools.combinations(lattice3, k):
            _check_case(empty, list(pts))
            cases += 1

    # size 4-5 subsets of the 5x5x5 lattice, sampled plane by plane
    rng = random.Random(1234)
    for _ in range(4000):
        tri = rng.sample(lattice5, 3)
        base = tri[0]
        n = _int_normal(tri)
        if n is None:
            plane_pts = [p for p in lattice5
                         if _on_line(base, tri[1], p) or p in tri]
        else:
            plane_pts = [p for p in lattice5 if _int_dot(_sub(p, base), n) == 0]
        for k in (4, 5):
            if len(plane_pts) < k:
                continue
            for _ in range(3):
                _check_case(empty, rng.sample(plane_pts, k))
                cases += 1

    # pipe-carrying cases: oblique pipe axes make AlongPipe options appear
    piped = new_scheme()
    for a, b in (((0, 0, 0), (4, 4, 4)), ((0, 0, 2), (4, 4, 2)),
                 ((0, 0, 0), (4, 2, 0)), ((2, 0, 0), (2, 4, 0))):
        pa = edit.add_point(piped, *map(float, a))
        pb = edit.add_point(piped, *map(float, b))
        edit.add_pipe(piped, pa, pb)
    piped = _stored(piped, lattice5)
    for _ in range(20_000):
        k = rng.randrange(2, 6)
        _check_case(piped, rng.sample(lattice5, k))
        cases += 1
    for line in (((0, 0, 0), (1, 1, 1)), ((0, 0, 2), (1, 1, 0)),
                 ((0, 0, 0), (2, 1, 0)), ((2, 0, 0), (0, 1, 0))):
        base, step = line
        on_line = [tuple(base[i] + step[i] * t for i in range(3))
                   for t in range(5)]
        on_line = [p for p in on_line if all(0 <= c <= 4 for c in p)]
        for k in range(2, min(5, len(on_line)) + 1):
            for pts in itertools.combinations(on_line, k):
                _check_case(piped, list(pts))
                cases += 1

    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(3, f"{cases} lattice point sets agree with the rule-by-rule oracle "
              f"in {elapsed:.1f}s")


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _int_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _int_normal(tri):
    u = _sub(tri[1], tri[0])
    v = _sub(tri[2], tri[0])
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
         u[0] * v[1] - u[1] * v[0])
    return None if n == (0, 0, 0) else n


def _on_line(a, b, p):
    d = _sub(b, a)
    w = _sub(p, a)
    return (d[1] * w[2] - d[2] * w[1] == 0 and d[2] * w[0] - d[0] * w[2] == 0
            and d[0] * w[1] - d[1] * w[0] == 0)


# -- 4. cascade closure ------------------------------------------------------------

def test_criterion_04_cascade_closure():
    for seed in range(1000):
        s = random_scheme(seed)
        rng = random.Random(seed * 31 + 7)
        for _ in range(rng.randrange(1, 4)):
            if not s.points:
                break
            edit.delete_point(s, rng.choice(sorted(s.points)))
        assert model.integrity_check(s) == [], f"seed {seed}"
        assert oracle_dangling(s) == [], f"seed {seed}"
    report(4, "1,000 fuzzed edit sequences ending in delete_point leave no "
              "dangling references")


# -- 5. orientation bound --------------------------------------------------------

def _random_block_config(rng):
    s = new_scheme()
    while True:
        d = (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
        if d != (0, 0, 0):
            break
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, d[0] * 500.0, d[1] * 500.0, d[2] * 500.0)
    host = edit.add_pipe(s, a, b)
    attach = rng.choice((Attach.AXIAL, Attach.ANGULAR, Attach.TEE))
    cuts = tuple(0.0 for _ in range(attach.legs))
    sym = s.insert("symbols", SymbolDef(
        "x", [SymbolSegment(-1, 0, 1, 0)], attach, cuts,
        sym_axis=rng.random() < 0.5, sym_normal=rng.random() < 0.5))
    pipe2 = pipe3 = None
    anchor_end = b
    if attach in (Attach.ANGULAR, Attach.TEE):
        pipe2 = _attached_pipe(rng, s, anchor_end, d)
        if pipe2 is None:
            return None
    if attach is Attach.TEE:
        pipe3 = _attached_pipe(rng, s, anchor_end, d)
        if pipe3 is None:
            return None
    dist = model.pipe_length(s, host)
    return s, sym, host, pipe2, pipe3, dist


def _attached_pipe(rng, s, from_point, host_dir):
    for _ in range(20):
        d = (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
        if d == (0, 0, 0):
            continue
        base = s.points[from_point]
        try:
            far = edit.add_point(s, base.x + d[0] * 500.0,
                                 base.y + d[1] * 500.0, base.z + d[2] * 500.0)
            if far == from_point:
                continue
            return edit.add_pipe(s, from_point, far)
        except model.EditError:
            continue
    return None


def test_criterion_05_orientation_bound_and_frames():
    rng = random.Random(99)
    checked = 0
    while checked < 10_000:
        config = _random_block_config(rng)
        if config is None:
            continue
        s, sym, host, pipe2, pipe3, dist = config
        options = enumerate_block_orientations(
            s, sym, host, pipe2, pipe3, dist_from_start=dist)
        assert len(options) <= 16
        for flip, updir in options:
            try:
                bid = edit.place_block(s, sym, host, dist, flip, updir,
                                       pipe2=pipe2, pipe3=pipe3)
            except model.EditError:
                raise AssertionError("enumerated orientation rejected")
            origin, ex, ey, ez = resolve_block_frame(s, bid)
            for v in (ex, ey, ez):
                assert abs(math.sqrt(sum(c * c for c in v)) - 1.0) <= 1e-9
            assert abs(sum(a * b for a, b in zip(ex, ey))) <= 1e-9
            assert abs(sum(a * b for a, b in zip(ey, ez))) <= 1e-9
            cross = (ex[1] * ey[2] - ex[2] * ey[1],
                     ex[2] * ey[0] - ex[0] * ey[2],
                     ex[0] * ey[1] - ex[1] * ey[0])
            assert all(abs(c - z) <= 1e-9 for c, z in zip(cross, ez))
            target = constraints._updir_target(s, updir, origin, pipe2, pipe3)
            assert sum(a * b for a, b in zip(ey, target)) > 1e-9
            del s.blocks[bid]
        checked += 1
    report(5, "10,000 block/pipe configs stay within 16 variants with "
              "orthonormal right-handed acute frames (tol 1e-9)")


# -- 6. projection geometry --------------------------------------------------------

def test_criterion_06_projection_geometry():
    iso = geometry.projection_by_name("isometric")
    axes = (iso.ex, iso.ey, iso.ez)
    norms = [math.hypot(*a) for a in axes]
    assert max(norms) - min(norms) <= 1e-9
    for i, j in ((0, 1), (1, 2), (2, 0)):
        dot = axes[i][0] * axes[j][0] + axes[i][1] * axes[j][1]
        ang = math.acos(max(-1.0, min(1.0, dot / (norms[i] * norms[j]))))
        assert abs(math.degrees(ang) - 120.0) <= 1e-9
    rng = random.Random(5)
    for _ in range(2000):
        p = tuple(rng.uniform(-100, 100) for _ in range(3))
        q = tuple(rng.uniform(-100, 100) for _ in range(3))
        alpha = rng.uniform(-2, 2)
        beta = rng.uniform(-2, 2)
        combo = tuple(alpha * a + beta * b for a, b in zip(p, q))
        (u, v), d = geometry.project_point(iso, combo)
        (up, vp), dp = geometry.project_point(iso, p)
        (uq, vq), dq = geometry.project_point(iso, q)
        assert abs(u - (alpha * up + beta * uq)) <= 1e-9
        assert abs(v - (alpha * vp + beta * vq)) <= 1e-9
        assert abs(d - (alpha * dp + beta * dq)) <= 1e-9
    report(6, "isometric axes at 120 deg with equal norms; projection linear "
              "on 2,000 random inputs (tol 1e-9)")


# -- 7. slicing equivalence ----------------------------------------------------------

def test_criterion_07_slicing_equivalence():
    for seed in range(1000):
        s = random_scheme(seed)
        rng = random.Random(seed + 4242)
        z_min = rng.randrange(-4, 3) * 250.0
        z_max = z_min + rng.randrange(1, 8) * 250.0
        sel = geometry.slice_scheme(s, Slice(z_min, z_max))
        want = oracle_slice(s, z_min, z_max)
        assert sel.pipes == want["pipes"], f"seed {seed}"
        assert sel.joints == want["joints"], f"seed {seed}"
        assert sel.breaks == want["breaks"], f"seed {seed}"
        assert sel.blocks == want["blocks"], f"seed {seed}"
        assert sel.texts == want["texts"], f"seed {seed}"
        assert sel.pipe_leaders == want["pipe_leaders"], f"seed {seed}"
        assert sel.block_leaders == want["block_leaders"], f"seed {seed}"
        assert sel.position_marks == want["position_marks"], f"seed {seed}"
        assert sel.dimensions == want["dimensions"], f"seed {seed}"
        assert sel.elevation_marks == want["elevation_marks"], f"seed {seed}"
        assert sel.slope_marks == want["slope_marks"], f"seed {seed}"
        assert sel.grid == want["grid"], f"seed {seed}"
    report(7, "slice membership matches the per-rule oracle on 1,000 random "
              "schemes and slabs")


# -- 8. slope sync ---------------------------------------------------------------------

def _expected_slope_text(dz, run, fmt, precision):
    # independent of edit.format_slope: restated from the formatting rules
    if run == 0.0:
        if fmt is SlopeFormat.ANGLE:
            return f"{90.0:.{precision}f}" + model.DEGREE
        return None
    slope = abs(dz) / run
    if slope == 0.0:
        return {SlopeFormat.ANGLE: "0" + model.DEGREE,
                SlopeFormat.PERCENT: "0%",
                SlopeFormat.RATIO: None}[fmt]
    if fmt is SlopeFormat.ANGLE:
        return f"{math.degrees(math.atan(slope)):.{precision}f}" + model.DEGREE
    if fmt is SlopeFormat.PERCENT:
        return f"{slope * 100.0:.{precision}f}%"
    return f"1:{1.0 / slope:.{precision}f}"


def test_criterion_08_slope_sync():
    rng = random.Random(17)
    checked = 0
    for _ in range(600):
        s = new_scheme()
        precision = rng.randrange(0, 3)
        s.settings.slope.precision = precision
        a = edit.add_point(s, 0, 0, 0)
        b = edit.add_point(s, 1000, 0, 0)
        pid = edit.add_pipe(s, a, b)
        texts = {}
        for fmt in SlopeFormat:
            tid = s.insert("texts", model.Text(
                [model.SLOPE_RIGHT + "1%"], (model.TargetKind.PIPE, 0),
                slope_format=fmt))
            lid = s.insert("pipe_leaders", model.LeaderToPipe(tid, pid, 100.0))
            s.texts[tid].main_leader = (model.TargetKind.PIPE, lid)
            texts[fmt] = tid
        # random endpoint move (vertical pipes included)
        new_end = (rng.choice((0.0, 500.0, 1000.0, 2000.0)),
                   rng.choice((0.0, 500.0)),
                   rng.choice((-500.0, -20.0, 0.0, 40.0, 1000.0)))
        if new_end == (0.0, 0.0, 0.0):
            continue
        try:
            edit.move_point(s, b, *new_end)
        except model.EditError:
            continue
        dz = new_end[2]
        run = math.hypot(new_end[0], new_end[1])
        for fmt, tid in texts.items():
            want = _expected_slope_text(dz, run, fmt, precision)
            line = s.texts[tid].lines[0]
            if want is None:
                assert line == model.SLOPE_RIGHT + "1%"  # flagged, untouched
            else:
                assert line == model.SLOPE_RIGHT + want, (fmt, new_end)
            checked += 1
    assert checked > 1000
    report(8, f"{checked} slope texts match the recomputed value string-"
              "exactly after random endpoint moves")


# -- 9. renumbering --------------------------------------------------------------------

def test_criterion_09_renumbering():
    rng = random.Random(3)
    for _ in range(300):
        s = new_scheme()
        tags = {}
        pipes = []
        for i in range(rng.randrange(2, 7)):
            a = edit.add_point(s, 0, i * 1000.0, 0)
            b = edit.add_point(s, 1000, i * 1000.0, 0)
            pipes.append((edit.add_pipe(s, a, b), a))
        for i, (pid, _) in enumerate(pipes):
            sp = s.insert("spec_props", model.SpecProps(
                i + 1, model.SpecKind.FOR_PIPE, name=f"tag{i}"))
            tags[sp] = i
            s.insert("position_marks", model.PositionMark(
                model.TargetKind.PIPE, pid, [sp], anchor_t=500.0))
        order_before = [sp for sp, _ in sorted(
            tags.items(), key=lambda kv: s.spec_props[kv[0]].position)]
        victims = rng.sample(pipes, rng.randrange(1, len(pipes)))
        for pid, pt in victims:
            if pt in s.points:
                edit.delete_point(s, pt)
        positions = sorted(p.position for p in s.spec_props.values())
        assert positions == list(range(1, len(positions) + 1))
        survivors = [sp for sp in order_before if sp in s.spec_props]
        resorted = sorted(survivors, key=lambda sp: s.spec_props[sp].position)
        assert survivors == resorted  # relative order preserved
        assert model.integrity_check(s) == []
    report(9, "positions stay dense 1..K and order-preserving across 300 "
              "random add/delete sequences")


# -- 10. occlusion ----------------------------------------------------------------------

def test_criterion_10_occlusion():
    iso = geometry.projection_by_name("isometric")
    total = 0
    for seed in range(500):
        s = random_scheme(seed, n_pipes=12, with_offsets=False)
        got = sorted((pid, (lo + hi) / 2.0)
                     for pid, (lo, hi) in geometry.occlusion_gaps(s, iso))
        want = oracle_occlusion(s, iso)
        assert len(got) == len(want), f"seed {seed}"
        for (gp, gc), (wp, wc) in zip(got, want):
            assert gp == wp and abs(gc - wc) <= 1e-6, f"seed {seed}"
        total += len(got)
    assert total > 50  # the sample actually exercises crossings
    report(10, f"gap count and placement match the brute-force oracle on 500 "
               f"random schemes ({total} gaps)")


# -- 11. golden SVG ----------------------------------------------------------------------

GOLDENS = (
    ("straight_run", samples.golden_straight_run, "isometric"),
    ("tee_assembly", samples.golden_tee_assembly, "isometric"),
    ("axis_grid", samples.golden_axis_grid, "frontal-dimetric-45"),
    ("offsets", build_offset_scheme, "isometric"),
)


def test_criterion_11_golden_svg():
    for name, builder, proj_name in GOLDENS:
        scheme = builder()
        proj = geometry.projection_by_name(proj_name)
        first = render_svg.render(layout.layout_scheme(scheme, proj))
        second = render_svg.render(layout.layout_scheme(builder(), proj))
        assert first == second, f"{name}: two runs differ"
        golden = (GOLDEN_DIR / f"{name}.svg").read_text(encoding="utf-8")
        assert first == golden, f"{name}: output differs from the golden file"
    report(11, "four curated schemes render byte-identically to the "
               "reviewed golden files across two runs")


# -- 12. spec sums -----------------------------------------------------------------------

def test_criterion_12_spec_sums():
    from axoscheme.specgen import generate_spec

    table = generate_spec(samples.reference_scheme(), "six")
    # hand computation: position 1 = (1000 + 2340)/1000 m; position 2 = one
    # valve of qty 1; position 3 = one mark of qty 8; position 4 =
    # sqrt(2000^2 + 40^2)/1000 m rounded to 2 decimals
    want = {
        "1": "3.34",
        "2": "1",
        "3": "8",
        "4": f"{math.hypot(2000.0, 40.0) / 1000.0:.2f}",
    }
    got = {row[0]: row[3] for row in table.rows}
    assert got == want
    assert want["4"] == "2.00"
    report(12, "reference-scheme quantities match the hand-computed table")
