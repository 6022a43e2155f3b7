import pytest

from axoscheme import edit, geometry, layout, model, samples
from axoscheme.geometry import OffsetView
from axoscheme.layout import (
    ArcStroke,
    DotRun,
    GlyphText,
    Marker,
    MarkerKind,
    Stroke,
    WavePair,
    layout_axis_grid,
    layout_dimension,
    layout_elevation,
    layout_pipes,
    layout_scheme,
    layout_slope,
    layout_texts_and_marks,
)
from axoscheme.model import (
    Attach,
    Axis,
    BreakGlyph,
    Dimension,
    DimDirection,
    DimPoint,
    DimPointKind,
    ElevationMark,
    LeaderToBlock,
    LeaderToPipe,
    PositionMark,
    ShelfDir,
    Slice,
    SlopeFormat,
    SlopeMark,
    SpecKind,
    SpecProps,
    SymbolDef,
    SymbolSegment,
    TargetKind,
    Text,
    UpDir,
    new_scheme,
)

from genschemes import riser_scheme
from samples_for_tests import build_offset_scheme

ISO = geometry.projection_by_name("isometric")


def whole(s):
    """The selection of the whole scheme, as ``layout_scheme`` slices it."""
    return geometry.slice_scheme(s, Slice())


def texts_of(prims):
    return [p.text for p in prims if isinstance(p, GlyphText)]


# -- pipes and breaks ------------------------------------------------------------

def test_plain_pipe_single_stroke():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    edit.add_pipe(s, a, b)
    prims = layout_pipes(OffsetView(s), ISO, whole(s))
    strokes = [p for p in prims if isinstance(p, Stroke)]
    assert len(strokes) == 1


def test_stretch_break_solid_dots_solid():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    prims = layout_pipes(OffsetView(s), ISO, whole(s))
    strokes = [p for p in prims if isinstance(p, Stroke)]
    dots = [p for p in prims if isinstance(p, DotRun)]
    assert len(strokes) == 2 and len(dots) == 1
    # the dotted span covers the pulled-apart gap: 300mm * scale
    run = dots[0]
    length = ((run.p1[0] - run.p0[0]) ** 2 + (run.p1[1] - run.p0[1]) ** 2) ** 0.5
    assert length == pytest.approx(300.0 * s.settings.scale, rel=1e-6)


def test_compression_break_wave_pair():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, -200.0))
    for brk in s.breaks.values():
        brk.glyph = BreakGlyph.WAVES
    prims = layout_pipes(OffsetView(s), ISO, whole(s))
    waves = [p for p in prims if isinstance(p, WavePair)]
    assert len(waves) == 1
    assert waves[0].diameter == s.settings.breaks.wave_diameter


def test_compression_break_dotted_gap():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, -200.0))
    prims = layout_pipes(OffsetView(s), ISO, whole(s))
    strokes = [p for p in prims if isinstance(p, Stroke)]
    dots = [p for p in prims if isinstance(p, DotRun)]
    assert len(strokes) == 2 and len(dots) == 1
    # cut of paper_len around the break centre on both overlapping halves
    paper_len = next(iter(s.breaks.values())).paper_len
    run = dots[0]
    length = ((run.p1[0] - run.p0[0]) ** 2 + (run.p1[1] - run.p0[1]) ** 2) ** 0.5
    assert length == pytest.approx(paper_len, rel=1e-6)


def test_break_letters_symmetric_and_toggle():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    prims = layout_pipes(OffsetView(s), ISO, whole(s))
    letters = [p for p in prims if isinstance(p, GlyphText)]
    assert [p.text for p in letters] == ["а", "а"]
    s.settings.visibility.break_letters = False
    prims = layout_pipes(OffsetView(s), ISO, whole(s))
    assert not [p for p in prims if isinstance(p, GlyphText)]


def test_covered_pipe_hidden_until_enabled():
    s = new_scheme()
    s.settings.scale = 0.02
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 100, 0, 0)
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", SymbolDef(
        "big", [SymbolSegment(-2, 0, 2, 0)], Attach.AXIAL, (10.0,)))
    edit.place_block(s, sym, pid, 50.0, updir=UpDir.ZP)
    assert geometry.fully_covered(geometry.coverage_intervals(s, pid), 100.0)
    assert not [p for p in layout_pipes(OffsetView(s), ISO, whole(s)) if isinstance(p, Stroke)]
    s.settings.visibility.covered_pipes = True
    # drawn again, minus the coverage cut (everything is covered so only the
    # glyph-free strokes inside remain suppressed)
    assert layout_pipes(OffsetView(s), ISO, whole(s)) == []


def test_layout_walks_blocks_for_coverage_once(monkeypatch):
    """One layout gathers every pipe's coverage in a single walk over the
    blocks (one anchor per block) and never asks pipe by pipe."""
    s = samples.reference_scheme()
    assert len(s.blocks) > 1
    walks = []
    anchors = 0
    one_walk = geometry.block_coverage
    anchor = model.block_anchor_point

    def counted_anchor(scheme, bid):
        nonlocal anchors
        anchors += 1
        return anchor(scheme, bid)

    def counted_walk(scheme):
        before = anchors
        result = one_walk(scheme)
        walks.append(anchors - before)
        return result

    def per_pipe(scheme, pid):
        raise AssertionError("coverage asked pipe by pipe")

    monkeypatch.setattr(model, "block_anchor_point", counted_anchor)
    monkeypatch.setattr(geometry, "block_coverage", counted_walk)
    monkeypatch.setattr(geometry, "coverage_intervals", per_pipe)
    layout_scheme(s, ISO)
    assert walks == [len(s.blocks)]


def test_layout_resolves_offsets_once(monkeypatch):
    """One layout builds the break index once and reads it, on the offset
    sample and on a riser stack."""
    builds = []
    index = geometry.break_index

    def counted_index(scheme):
        builds.append(scheme)
        return index(scheme)

    monkeypatch.setattr(geometry, "break_index", counted_index)
    for s in (build_offset_scheme(), riser_scheme()):
        assert s.breaks
        builds.clear()
        layout_scheme(s, ISO)
        assert builds == [s]


def test_fillet_joint_arc():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 1000, 0, 1000)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    s.insert("joints", model.Joint(p1, p2, model.JointKind.FILLET, 100.0))
    arcs = [p for p in layout_pipes(OffsetView(s), ISO, whole(s)) if isinstance(p, ArcStroke)]
    assert len(arcs) == 1
    assert arcs[0].radius == pytest.approx(100.0 * s.settings.scale)


# -- dimensions ----------------------------------------------------------------------

def chain_scheme():
    s = new_scheme()
    ids = [edit.add_point(s, x, 0, 0) for x in (0, 100, 250)]
    edit.add_pipe(s, ids[0], ids[2])
    dim = Dimension([DimPoint(DimPointKind.POINT, p) for p in ids],
                    Axis.Y, DimDirection(axis=Axis.X), line_offset=10.0)
    return s, dim


def test_chain_dimension_true_values():
    s, dim = chain_scheme()
    prims = layout_dimension(OffsetView(s), ISO, dim)
    assert texts_of(prims) == ["100", "150"]


def test_two_point_dimension_single_value():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    edit.add_pipe(s, a, b)
    dim = Dimension([DimPoint(DimPointKind.POINT, a),
                     DimPoint(DimPointKind.POINT, b)],
                    Axis.Y, DimDirection(axis=Axis.X))
    assert texts_of(layout_dimension(OffsetView(s), ISO, dim)) == ["2000"]


def test_dimension_values_are_model_not_paper():
    # oblique pipe in an oblique projection: the text still shows 3D length
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 300, 400, 0)  # length 500 in the z=0 plane
    pid = edit.add_pipe(s, a, b)
    dim = Dimension([DimPoint(DimPointKind.POINT, a),
                     DimPoint(DimPointKind.POINT, b)],
                    Axis.X, DimDirection(pipe=pid))
    assert texts_of(layout_dimension(OffsetView(s), ISO, dim)) == ["500"]


def _arrow_markers(prims):
    return [p for p in prims if isinstance(p, Marker)]


def test_arrow_substitution_thresholds():
    view = geometry.projection_by_name("view-top")

    def dim_for(gap_mm_nature):
        s = new_scheme()
        s.settings.scale = 0.02
        a = edit.add_point(s, 0, 0, 0)
        b = edit.add_point(s, gap_mm_nature, 0, 0)
        edit.add_pipe(s, a, b)
        dim = Dimension([DimPoint(DimPointKind.POINT, a),
                         DimPoint(DimPointKind.POINT, b)],
                        Axis.Y, DimDirection(axis=Axis.X))
        return layout_dimension(OffsetView(s), view, dim)

    # paper gap 10mm >= 2*2.5: inside arrows point outward
    markers = _arrow_markers(dim_for(500))
    assert [m.kind for m in markers] == [MarkerKind.ARROW, MarkerKind.ARROW]
    assert markers[0].direction[0] == pytest.approx(-1.0)
    assert markers[1].direction[0] == pytest.approx(1.0)
    # paper gap 4mm < 5: outside arrows point inward
    markers = _arrow_markers(dim_for(200))
    assert [m.kind for m in markers] == [MarkerKind.ARROW, MarkerKind.ARROW]
    assert markers[0].direction[0] == pytest.approx(1.0)
    assert markers[1].direction[0] == pytest.approx(-1.0)
    # paper gap 2mm < 2.5: ticks
    markers = _arrow_markers(dim_for(100))
    assert [m.kind for m in markers] == [MarkerKind.TICK, MarkerKind.TICK]


# -- elevation marks --------------------------------------------------------------------

def elevation_case(z):
    s = new_scheme()
    a = edit.add_point(s, 0, 0, z)
    b = edit.add_point(s, 1000, 0, z)
    pid = edit.add_pipe(s, a, b)
    mark = ElevationMark(TargetKind.PIPE, pid, 500.0, Axis.X, ShelfDir.XP)
    return texts_of(layout_elevation(OffsetView(s), ISO, mark))


def test_elevation_value_positive():
    assert elevation_case(2500.0) == ["+2.500"]


def test_elevation_value_zero():
    assert elevation_case(0.0) == ["±0.000"]


def test_elevation_value_negative():
    assert elevation_case(-300.0) == ["−0.300"]


# -- slope marks ---------------------------------------------------------------------------

def slope_case(dz, fmt=SlopeFormat.PERCENT, precision=1, dx=1000.0):
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, dx, 0, dz)
    pid = edit.add_pipe(s, a, b)
    mark = SlopeMark(pid, 500.0, 3.0, fmt, precision)
    return s, layout_slope(OffsetView(s), ISO, mark)


def test_slope_text_and_downhill_arrow():
    s, prims = slope_case(-20.0)
    assert texts_of(prims) == ["2.0%"]
    markers = [p for p in prims if isinstance(p, Marker)]
    assert len(markers) == 1
    # pipe descends start->end; downhill is the +x axis image (down-left)
    assert markers[0].direction[0] < 0


def test_zero_slope_arrow_suppressed():
    s, prims = slope_case(0.0)
    assert texts_of(prims) == ["0%"]
    assert not [p for p in prims if isinstance(p, Marker)]


def test_slope_angle_one_degree():
    import math

    s, prims = slope_case(math.tan(math.radians(1.0)) * 1000.0,
                          fmt=SlopeFormat.ANGLE, precision=0)
    assert texts_of(prims) == ["1" + model.DEGREE]


def test_vertical_ratio_slope_raises():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    pid = edit.add_pipe(s, a, b)
    with pytest.raises(layout.LayoutError):
        layout_slope(OffsetView(s), ISO, SlopeMark(pid, 500.0, 3.0, SlopeFormat.RATIO, 0))


# -- texts and marks -------------------------------------------------------------------------

def test_single_leader_text():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    tid = s.insert("texts", Text(["Ду50"], (TargetKind.PIPE, 0),
                                 offset_vec=(200.0, 300.0)))
    lid = s.insert("pipe_leaders", LeaderToPipe(tid, pid, 500.0))
    s.texts[tid].main_leader = (TargetKind.PIPE, lid)
    prims = layout_texts_and_marks(OffsetView(s), ISO, whole(s))
    strokes = [p for p in prims if isinstance(p, Stroke)]
    assert texts_of(prims) == ["Ду50"]
    assert len(strokes) == 2  # shelf + one leader


def test_three_leader_text_one_shelf():
    s = new_scheme()
    pts = [edit.add_point(s, x, 0, 0) for x in (0, 1000, 2000, 3000)]
    pipes = [edit.add_pipe(s, pts[i], pts[i + 1]) for i in range(3)]
    tid = s.insert("texts", Text(["сталь"], (TargetKind.PIPE, 0),
                                 offset_vec=(100.0, 400.0)))
    lids = [s.insert("pipe_leaders", LeaderToPipe(tid, p, 500.0))
            for p in pipes]
    s.texts[tid].main_leader = (TargetKind.PIPE, lids[0])
    prims = layout_texts_and_marks(OffsetView(s), ISO, whole(s))
    strokes = [p for p in prims if isinstance(p, Stroke)]
    assert len(strokes) == 4  # one shelf + three leaders
    assert texts_of(prims) == ["сталь"]


def test_second_shelf_under_two_line_text():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    tid = s.insert("texts", Text(["Ду50", "сталь 20"], (TargetKind.PIPE, 0),
                                 offset_vec=(200.0, 300.0)))
    lid = s.insert("pipe_leaders", LeaderToPipe(tid, pid, 500.0))
    s.texts[tid].main_leader = (TargetKind.PIPE, lid)
    one = [p for p in layout_texts_and_marks(OffsetView(s), ISO, whole(s)) if isinstance(p, Stroke)]
    s.settings.text.second_shelf = True
    two = [p for p in layout_texts_and_marks(OffsetView(s), ISO, whole(s)) if isinstance(p, Stroke)]
    assert len(two) == len(one) + 1


def test_hidden_mark_filtered_until_enabled():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    sp = s.insert("spec_props", SpecProps(1, SpecKind.FOR_PIPE))
    s.insert("position_marks", PositionMark(
        TargetKind.PIPE, pid, [sp], anchor_t=500.0, visible=False))
    assert layout_texts_and_marks(OffsetView(s), ISO, whole(s)) == []
    s.settings.visibility.hidden_marks = True
    prims = layout_texts_and_marks(OffsetView(s), ISO, whole(s))
    assert texts_of(prims) == ["1"]


def test_text_leaders_keep_id_order_per_text():
    """Each text's leader strokes follow its shelf: its pipe leaders, then
    its block leaders, each in id order, however the ids interleave."""
    s = samples.reference_scheme()
    s.settings.visibility.position_marks = False
    pipes, blocks, texts = sorted(s.pipes), sorted(s.blocks), sorted(s.texts)
    for k in range(6):
        tid = texts[k % len(texts)]
        s.insert("pipe_leaders", LeaderToPipe(tid, pipes[k % len(pipes)], 100.0 + k))
        s.insert("block_leaders", LeaderToBlock(tid, blocks[k % len(blocks)], (1.0, float(k))))
    view = geometry.OffsetView(s)
    want = []
    for tid in texts:
        for kind, store in ((TargetKind.PIPE, s.pipe_leaders),
                            (TargetKind.BLOCK, s.block_leaders)):
            want += [layout._leader_indicated_img(view, ISO, kind, lid)
                     for lid in sorted(store) if store[lid].text == tid]
    starts = [p.points[0] for p in layout_texts_and_marks(view, ISO, whole(s))
              if isinstance(p, Stroke)]
    assert [p for p in starts if p in set(want)] == want
    assert len(want) > 12


# -- axis grid ----------------------------------------------------------------------------------

def grid_scheme(**kw):
    s = new_scheme()
    s.axis_grid = model.AxisGrid(
        [model.AxisGroup(3, 6000.0)], [],
        model.GridSettings(plane_z=0.0, bend_shift_z=0.0, **kw))
    return s


def test_grid_axis_positions_and_labels():
    s = grid_scheme()
    prims = layout_axis_grid(s, ISO)
    assert texts_of(prims) == ["1", "2", "3"]
    circles = [p for p in prims if isinstance(p, ArcStroke)]
    assert len(circles) == 3


def test_grid_visible_subset_keeps_labels():
    s = grid_scheme(visible_x={1, 3})
    prims = layout_axis_grid(s, ISO)
    assert texts_of(prims) == ["1", "3"]


def test_grid_overall_dimension():
    s = grid_scheme(overall_dim_x=True)
    prims = layout_axis_grid(s, ISO)
    assert "12000" in texts_of(prims)


def test_grid_letter_labels_on_y():
    s = new_scheme()
    s.axis_grid = model.AxisGrid(
        [], [model.AxisGroup(2, 4000.0)],
        model.GridSettings(bend_shift_z=0.0))
    prims = layout_axis_grid(s, ISO)
    assert texts_of(prims) == ["А", "Б"]


# -- whole scheme ---------------------------------------------------------------------------------

def test_layout_scheme_deterministic():
    from samples_for_tests import build_rich_scheme

    s = build_rich_scheme()
    a = layout_scheme(s, ISO)
    b = layout_scheme(s, ISO)
    assert a == b


def test_empty_scheme_axes_icon_only():
    s = new_scheme()
    prims = layout_scheme(s, ISO)
    assert prims  # the corner axes picture
    assert all(isinstance(p, (Stroke, Marker, GlyphText)) for p in prims)
    assert texts_of(prims) == ["X", "Y", "Z"]
    s.settings.visibility.axes_icon = False
    assert layout_scheme(s, ISO) == []


def test_visibility_flags_isolate_classes():
    from samples_for_tests import build_rich_scheme

    flags = ("blocks", "dimensions", "elevations", "slopes", "grid")
    for flag in flags:
        s = build_rich_scheme()
        base = layout_scheme(s, ISO)
        setattr(s.settings.visibility, flag, False)
        reduced = layout_scheme(s, ISO)
        assert len(reduced) < len(base)
        # everything that survived is a primitive from the original list,
        # in the original order
        it = iter(base)
        assert all(p in it for p in reduced), flag


def test_slice_applies_before_layout():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 0, 0, 5000)
    d = edit.add_point(s, 1000, 0, 5000)
    edit.add_pipe(s, a, b)
    edit.add_pipe(s, c, d)
    s.settings.visibility.axes_icon = False
    low = layout_scheme(s, ISO, Slice(-100.0, 100.0))
    full = layout_scheme(s, ISO)
    assert len(low) == 1 and len(full) == 2
