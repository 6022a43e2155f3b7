import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import edit, model, persist, samples
from axoscheme.model import (
    Attach,
    Axis,
    DimDirection,
    Dimension,
    DimPoint,
    DimPointKind,
    EditError,
    LeaderToPipe,
    LineStyle,
    LineType,
    Pipe,
    PositionMark,
    SlopeFormat,
    SpecKind,
    SpecProps,
    SymbolDef,
    SymbolSegment,
    TargetKind,
    Text,
    UpDir,
    integrity_check,
    new_scheme,
)
from oracles import oracle_dangling


# -- pipes --------------------------------------------------------------------

def test_add_pipe_defaults_from_settings():
    s = new_scheme()
    s.settings.pipe_style = LineStyle(3, LineType.DASHED)
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    assert s.pipes[pid].style == LineStyle(3, LineType.DASHED)
    assert s.pipes[pid].style is not s.settings.pipe_style


def test_add_pipe_explicit_style_kept():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b, LineStyle(5, LineType.DOTTED))
    assert s.pipes[pid].style == LineStyle(5, LineType.DOTTED)


def test_add_pipe_overlap_rejected():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 500, 0, 0)
    d = edit.add_point(s, 1500, 0, 0)
    edit.add_pipe(s, a, b)
    with pytest.raises(EditError):
        edit.add_pipe(s, c, d)


# -- offset letters -----------------------------------------------------------

def test_letter_sequence_first_three():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    letters = []
    for coord in (200.0, 400.0, 600.0):
        oid = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, coord, 100.0))
        letters.append(s.offsets[oid].letter)
    assert letters == ["а", "б", "в"]


def test_letter_sequence_28_letters_then_doubles():
    seq = [edit.offset_letter(i) for i in range(30)]
    assert seq[0] == "а" and seq[27] == "я"
    assert seq[28] == "аа" and seq[29] == "аб"
    assert len(set(seq)) == 30
    assert "й" not in "".join(seq[:28]) and "ь" not in "".join(seq[:28])


def test_deleted_letter_is_reused_first():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    edit.add_pipe(s, a, b)
    o1 = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 200.0, 100.0))
    o2 = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 400.0, 100.0))
    edit._remove_offset(s, o1)
    o3 = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 600.0, 100.0))
    assert s.offsets[o3].letter == "а"


def test_general_offset_auto_breaks_two_pipes():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    c = edit.add_point(s, 500, 0, 0)
    d = edit.add_point(s, 500, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_pipe(s, c, d)
    oid = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 300.0, 250.0))
    assert len(s.breaks) == 2
    assert all(brk.offset == oid for brk in s.breaks.values())
    assert integrity_check(s) == []


# -- cascade deletion -----------------------------------------------------------

def valve_symbol(s):
    return s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-2, -1, 2, 1)], Attach.AXIAL, (4.0,)))


def test_cascade_block_leader_text():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    sym = valve_symbol(s)
    bid = edit.place_block(s, sym, pid, 500.0, updir=UpDir.ZP)
    tid = s.insert("texts", Text(["кран"], (TargetKind.PIPE, 0)))
    lid = s.insert("block_leaders", model.LeaderToBlock(tid, bid, (0.0, 0.0)))
    s.texts[tid].main_leader = (TargetKind.BLOCK, lid)
    assert integrity_check(s) == []

    rep = edit.delete_point(s, a)
    assert rep.pipes == {pid} and rep.blocks == {bid}
    assert rep.block_leaders == {lid} and rep.texts == {tid}
    assert not s.pipes and not s.blocks and not s.texts
    assert s.symbols  # the library entry stays
    assert integrity_check(s) == []
    assert oracle_dangling(s) == []


def test_text_survives_with_other_leader():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 0, 2000, 0)
    d = edit.add_point(s, 1000, 2000, 0)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, c, d)
    tid = s.insert("texts", Text(["общий"], (TargetKind.PIPE, 0)))
    l1 = s.insert("pipe_leaders", LeaderToPipe(tid, p1, 100.0))
    l2 = s.insert("pipe_leaders", LeaderToPipe(tid, p2, 100.0))
    s.texts[tid].main_leader = (TargetKind.PIPE, l1)
    assert integrity_check(s) == []

    edit.delete_point(s, a)  # removes p1 and the main leader
    assert tid in s.texts
    assert s.texts[tid].main_leader == (TargetKind.PIPE, l2)
    assert integrity_check(s) == []


def test_chain_dimension_shrinks_then_dies():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 2500, 0, 0)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    did = s.insert("dimensions", model.Dimension(
        [model.DimPoint(model.DimPointKind.POINT, a),
         model.DimPoint(model.DimPointKind.POINT, b),
         model.DimPoint(model.DimPointKind.POINT, c)],
        Axis.Y, model.DimDirection(axis=Axis.X)))
    assert integrity_check(s) == []

    edit.delete_point(s, a)
    assert did in s.dimensions and len(s.dimensions[did].points) == 2
    edit.delete_point(s, b)
    assert did not in s.dimensions
    assert integrity_check(s) == []


def test_cascade_removes_spec_props_with_last_mark():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    sp = s.insert("spec_props", SpecProps(1, SpecKind.FOR_PIPE))
    s.insert("position_marks", PositionMark(TargetKind.PIPE, pid, [sp],
                                            anchor_t=500.0))
    assert integrity_check(s) == []
    rep = edit.delete_point(s, a)
    assert rep.spec_props == {sp}
    assert not s.spec_props and not s.position_marks


def test_cascade_renumbers_positions():
    s = new_scheme()
    pts = [edit.add_point(s, 0, y, 0) for y in (0, 1000)]
    far = [edit.add_point(s, 5000, y, 0) for y in (0, 1000)]
    p1 = edit.add_pipe(s, pts[0], pts[1])
    p2 = edit.add_pipe(s, far[0], far[1])
    sp1 = s.insert("spec_props", SpecProps(1, SpecKind.FOR_PIPE))
    sp2 = s.insert("spec_props", SpecProps(2, SpecKind.FOR_PIPE))
    sp3 = s.insert("spec_props", SpecProps(3, SpecKind.FOR_PIPE))
    s.insert("position_marks", PositionMark(TargetKind.PIPE, p1, [sp2],
                                            anchor_t=100.0))
    s.insert("position_marks", PositionMark(TargetKind.PIPE, p2, [sp1],
                                            anchor_t=100.0))
    s.insert("position_marks", PositionMark(TargetKind.PIPE, p2, [sp3],
                                            anchor_t=900.0))
    assert integrity_check(s) == []
    rep = edit.delete_point(s, pts[0])  # kills p1, its mark, and position 2
    assert rep.renumbered == {1: 1, 3: 2}
    assert sorted(p.position for p in s.spec_props.values()) == [1, 2]
    assert integrity_check(s) == []


def test_cascade_drops_a_dimension_its_remaining_points_make_illegal():
    """An L of three points dimensioned (x, dir y): without its corner's far
    end the two left lie on the X axis, where (x, dir y) is not legal."""
    s = new_scheme()
    a, b, c = (edit.add_point(s, *xyz) for xyz in
               ((0, 0, 0), (1000, 0, 0), (1000, 1000, 0)))
    edit.add_pipe(s, a, b)
    edit.add_pipe(s, b, c)
    did = s.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, p) for p in (a, b, c)], Axis.X, DimDirection(axis=Axis.Y)))
    assert integrity_check(s) == []
    rep = edit.delete_point(s, c)
    assert rep.dimensions == {did}
    assert not s.dimensions
    assert integrity_check(s) == []


def test_cascade_drops_an_oblique_dimension_that_lost_its_only_carrier():
    """A and B on an oblique line in the XY plane are dimensioned only while
    a pipe runs along that line; the pipe goes with its far end X."""
    s = new_scheme()
    a, b, x = (edit.add_point(s, *xyz) for xyz in
               ((0, 0, 0), (1000, 1000, 0), (2000, 2000, 0)))
    edit.add_pipe(s, a, x)
    did = s.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, a), DimPoint(DimPointKind.POINT, b)],
        Axis.X, DimDirection(axis=Axis.Y)))
    assert integrity_check(s) == []
    rep = edit.delete_point(s, x)
    assert rep.pipes == {1} and rep.dimensions == {did}
    assert not s.dimensions
    assert integrity_check(s) == []


# -- renumbering ----------------------------------------------------------------

def test_renumber_dense_identity():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    for pos in (1, 2):
        sp = s.insert("spec_props", SpecProps(pos, SpecKind.FOR_PIPE))
        s.insert("position_marks", PositionMark(TargetKind.PIPE, pid, [sp],
                                                anchor_t=100.0 * pos))
    assert edit.renumber_positions(s) == {1: 1, 2: 2}


def test_renumber_refuses_in_manual_mode():
    s = new_scheme()
    s.settings.autonumber = False
    sp = s.insert("spec_props", SpecProps(7, SpecKind.FOR_PIPE))
    assert edit.renumber_positions(s) is None
    assert s.spec_props[sp].position == 7


def test_renumber_closes_gap():
    s = new_scheme()
    s.settings.autonumber = True
    ids = [s.insert("spec_props", SpecProps(p, SpecKind.FOR_PIPE))
           for p in (1, 2, 3)]
    del s.spec_props[ids[1]]
    assert edit.renumber_positions(s) == {1: 1, 3: 2}
    assert [s.spec_props[i].position for i in (ids[0], ids[2])] == [1, 2]


# -- slope text sync ---------------------------------------------------------------

def slope_scheme(end, fmt, precision=1, body=None):
    s = new_scheme()
    s.settings.slope.precision = precision
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, *end)
    pid = edit.add_pipe(s, a, b)
    tid = s.insert("texts", Text(
        [body if body is not None else model.SLOPE_RIGHT + "9.9%"],
        (TargetKind.PIPE, 0), slope_format=fmt))
    lid = s.insert("pipe_leaders", LeaderToPipe(tid, pid, 100.0))
    s.texts[tid].main_leader = (TargetKind.PIPE, lid)
    return s, pid, tid


def test_sync_percent_value():
    s, pid, tid = slope_scheme((1000, 0, 20), SlopeFormat.PERCENT)
    rep = edit.sync_slope_texts(s, pid)
    assert rep.updated == 1 and not rep.flagged
    assert s.texts[tid].lines == [model.SLOPE_RIGHT + "2.0%"]


def test_sync_zero_slope():
    s, pid, tid = slope_scheme((1000, 0, 0), SlopeFormat.PERCENT)
    edit.sync_slope_texts(s, pid)
    assert s.texts[tid].lines == [model.SLOPE_RIGHT + "0%"]
    assert model.SLOPE_RIGHT in s.texts[tid].lines[0]


def test_sync_ratio_value():
    s, pid, tid = slope_scheme((1000, 0, 100), SlopeFormat.RATIO, precision=0,
                               body=model.SLOPE_LEFT + "1:7")
    edit.sync_slope_texts(s, pid)
    assert s.texts[tid].lines == [model.SLOPE_LEFT + "1:10"]


def test_sync_angle_value():
    s, pid, tid = slope_scheme((1000, 0, 1000), SlopeFormat.ANGLE, precision=0,
                               body=model.SLOPE_RIGHT + "30" + model.DEGREE)
    edit.sync_slope_texts(s, pid)
    assert s.texts[tid].lines == [model.SLOPE_RIGHT + "45" + model.DEGREE]


def test_sync_vertical_pipe_flagged():
    s, pid, tid = slope_scheme((0, 0, 1000), SlopeFormat.PERCENT)
    before = list(s.texts[tid].lines)
    rep = edit.sync_slope_texts(s, pid)
    assert rep.updated == 0 and rep.flagged == [tid]
    assert s.texts[tid].lines == before


def test_sync_preserves_surrounding_text():
    s, pid, tid = slope_scheme((1000, 0, 20), SlopeFormat.PERCENT,
                               body="уклон " + model.SLOPE_RIGHT + "1.0% труб")
    edit.sync_slope_texts(s, pid)
    assert s.texts[tid].lines == ["уклон " + model.SLOPE_RIGHT + "2.0% труб"]


def test_move_point_resyncs():
    s, pid, tid = slope_scheme((1000, 0, 20), SlopeFormat.PERCENT)
    edit.move_point(s, s.pipes[pid].end, 1000, 0, 50)
    assert s.texts[tid].lines == [model.SLOPE_RIGHT + "5.0%"]


def test_move_point_rejects_breaking_dependents():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    s.insert("pipe_leaders", LeaderToPipe(
        s.insert("texts", Text(["x"], (TargetKind.PIPE, 0))), pid, 1800.0))
    s.texts[1].main_leader = (TargetKind.PIPE, 1)
    assert integrity_check(s) == []
    with pytest.raises(EditError):  # leader at 1800 falls off a 1000mm pipe
        edit.move_point(s, b, 1000, 0, 0)
    assert s.points[b].x == 2000  # rolled back
    edit.move_point(s, b, 1900, 0, 0)  # still long enough: accepted
    assert s.points[b].x == 1900


def test_move_point_onto_tee_leg_end_is_refused_unchanged():
    """Collapsing the tee's third pipe is reported, not raised, and undone."""
    s = samples.golden_tee_assembly()
    before = persist.save_text(s)
    with pytest.raises(EditError, match="pipe-zero-length pipe:3"):
        edit.move_point(s, 2, 1500.0, 2000.0, 100.0)
    assert persist.save_text(s) == before
    assert integrity_check(s) == []


@pytest.mark.parametrize("build", [samples.reference_scheme,
                                   samples.golden_straight_run,
                                   samples.golden_tee_assembly,
                                   samples.golden_axis_grid])
def test_move_point_onto_any_point_is_refused_unchanged(build):
    """Moving a point onto another one always coincides: every such move
    must end in EditError with the document unchanged, never an exception."""
    s = build()
    before = persist.save_text(s)
    coords = {pid: s.points[pid].as_tuple() for pid in s.points}
    for pid in coords:
        for other, xyz in coords.items():
            if other == pid:
                continue
            with pytest.raises(EditError):
                edit.move_point(s, pid, *xyz)
            assert persist.save_text(s) == before, (pid, other)



@pytest.mark.parametrize("far", [1e30, -1e30])
def test_move_point_far_away_is_an_edit_or_an_edit_error(far):
    s = samples.golden_tee_assembly()
    before = persist.save_text(s)
    try:
        edit.move_point(s, 2, far, 0.0, 0.0)
    except EditError:
        assert persist.save_text(s) == before
    else:
        assert s.points[2].as_tuple() == (far, 0.0, 0.0)

def test_move_point_restores_the_point_when_the_check_raises(monkeypatch):
    s = samples.golden_tee_assembly()
    before = persist.save_text(s)

    def broken(scheme, reach):
        raise ZeroDivisionError("check failed")

    monkeypatch.setattr(model, "check_reach", broken)
    with pytest.raises(ZeroDivisionError):
        edit.move_point(s, 2, 1500.0, 2000.0, 100.0)
    assert persist.save_text(s) == before


def test_cascade_main_reassignment_drops_slope_format():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 20)
    far = edit.add_point(s, 0, 5000, 0)
    far2 = edit.add_point(s, 1000, 5000, 0)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, far, far2)
    sym = valve_symbol(s)
    bid = edit.place_block(s, sym, p2, 500.0, updir=UpDir.ZP)
    tid = s.insert("texts", Text([model.SLOPE_RIGHT + "2.0%"],
                                 (TargetKind.PIPE, 0),
                                 slope_format=SlopeFormat.PERCENT))
    main = s.insert("pipe_leaders", LeaderToPipe(tid, p1, 500.0))
    s.insert("block_leaders", model.LeaderToBlock(tid, bid, (0.0, 0.0)))
    s.texts[tid].main_leader = (TargetKind.PIPE, main)
    assert integrity_check(s) == []

    edit.delete_point(s, a)  # the slope pipe goes; main falls to the block
    assert tid in s.texts
    assert s.texts[tid].main_leader[0] is TargetKind.BLOCK
    assert s.texts[tid].slope_format is None
    assert integrity_check(s) == []


# -- block placement ----------------------------------------------------------------

def test_place_block_coverage_interval():
    s = new_scheme()
    s.settings.scale = 0.02
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-2, -1, 2, 1)], Attach.AXIAL, (6.0,)))
    edit.place_block(s, sym, pid, 1000.0, updir=UpDir.ZP)
    from axoscheme import geometry

    assert geometry.coverage_intervals(s, pid) == [(850.0, 1150.0)]


def test_place_block_at_end_clips_coverage():
    s = new_scheme()
    s.settings.scale = 0.02
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-2, -1, 2, 1)], Attach.AXIAL, (6.0,)))
    edit.place_block(s, sym, pid, 0.0, updir=UpDir.ZP)
    from axoscheme import geometry

    assert geometry.coverage_intervals(s, pid) == [(0.0, 150.0)]


def test_tee_block_requires_pipe3():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 1000, 1000, 0)
    host = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    sym = s.insert("symbols", SymbolDef(
        "tee", [SymbolSegment(-2, 0, 2, 0)], Attach.TEE, (4.0, 4.0, 4.0)))
    with pytest.raises(EditError):
        edit.place_block(s, sym, host, 1000.0, updir=UpDir.ZP, pipe2=p2)


def test_place_block_rejects_illegal_orientation():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 0, 0, 1000)
    pid = edit.add_pipe(s, a, b)
    sym = s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-2, -1, 2, 1)], Attach.AXIAL, (4.0,)))
    with pytest.raises(EditError):  # updir parallel to a vertical pipe
        edit.place_block(s, sym, pid, 500.0, updir=UpDir.ZP)


# -- properties --------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2000))
def test_offset_letters_unique_and_total(n):
    assert edit.offset_letter(n) != edit.offset_letter(n + 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fuzzed_edits_keep_integrity(seed):
    from genschemes import random_scheme

    s = random_scheme(seed % 5000)
    rng = random.Random(seed)
    for _ in range(3):
        if not s.points:
            break
        victim = rng.choice(sorted(s.points))
        edit.delete_point(s, victim)
        assert integrity_check(s) == []
        assert oracle_dangling(s) == []


# -- edits refuse by the rules of integrity_check ------------------------------------

def _cross_the_plane(s):
    p = edit.add_point(s, 2500, 1000, 1000)
    return lambda: edit.add_pipe(s, 2, p)


def _join_a_local_cut(s):
    edit.add_offset(s, edit.LocalOffsetSpec((0.0, 0.0, 1.0), 200.0, [(5, 1000.0)], 6))
    q = edit.add_point(s, 5340, 0, 1000)
    edit.add_pipe(s, 3, q)
    return lambda: edit.add_pipe(s, q, 6)


@pytest.mark.parametrize("setup, rule", [
    (_cross_the_plane, "offset-missing-break"),
    (_join_a_local_cut, "offset-local-cut"),
    (lambda s: lambda: edit.place_block(s, 1, 2, 500.0, updir=UpDir.ZP, stretch=-1.0),
     "block-stretch"),
    (lambda s: lambda: edit.place_block(s, 1, 2, 500.0, updir=UpDir.ZP,
                                        style=LineStyle(99, LineType.SOLID)),
     "style-palette"),
    (lambda s: lambda: edit.add_offset(s, edit.LocalOffsetSpec(
        (1.0, 0.0, 0.0), 200.0, [(3, 750.0)], 4)), "dim-orientation"),
    (lambda s: lambda: edit.add_offset(s, edit.LocalOffsetSpec(
        (1.0, 0.0, 0.0), 200.0, [(3, 9999.0)], 4)), "break-unaffected"),
    (lambda s: lambda: edit.add_offset(s, edit.LocalOffsetSpec(
        (2.0, 0.0, 0.0), 200.0, [(5, 1000.0)], 6)), "offset-ort"),
    (lambda s: lambda: edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 2500.0, 300.0)),
     "break-unaffected"),
    (lambda s: lambda: edit.move_point(s, 5, 1500.0, 2000.0, 2500.0), "offset-oblique-pipe"),
])
def test_edit_refused_by_an_integrity_rule_leaves_the_scheme_unchanged(setup, rule):
    s = samples.reference_scheme()
    refused = setup(s)
    assert integrity_check(s) == []
    before = persist.save_text(s)
    with pytest.raises(EditError, match=rule):
        refused()
    assert persist.save_text(s) == before


def _saved_without(s, collection, oid) -> str:
    s = copy.deepcopy(s)
    del getattr(s, collection)[oid]
    return persist.save_text(s)


@pytest.mark.parametrize("refused", [
    lambda s, p: edit.add_pipe(s, 1, p),
    lambda s, p: edit.add_offset(s, edit.GeneralOffsetSpec(Axis.X, -5000.0, 100.0)),
    lambda s, p: edit.add_offset(s, edit.LocalOffsetSpec((0.0, 0.0, 1.0), 100.0, [(1, 10.0)], 1)),
])
def test_an_edit_that_reads_a_pipe_with_a_missing_end_refuses_by_dangling_ref(refused):
    """The spatial index returns a pipe with a missing end for every query,
    and an offset reads every pipe: the edit refuses, it does not crash."""
    s = samples.reference_scheme()
    dangling = s.insert("pipes", Pipe(1, 999))
    p = edit.add_point(s, -700.0, 0.0, 0.0)
    before = _saved_without(s, "pipes", dangling)
    with pytest.raises(EditError, match="dangling-ref: end references missing point 999"):
        refused(s, p)
    assert _saved_without(s, "pipes", dangling) == before


def test_a_dimension_along_a_collapsed_pipe_is_reported_not_raised():
    """A general plane splits a dimension that runs along a pipe the move
    collapses: the pipe has no direction to test the dimension by, so
    integrity_check reports the pipe and the move is refused, not crashed."""
    s = new_scheme()
    a, b, c = (edit.add_point(s, x, 0, 0) for x in (0, 1000, 3000))
    ab = edit.add_pipe(s, a, b)
    edit.add_pipe(s, b, c)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.X, 2000.0, 300.0))
    s.insert("dimensions", Dimension([DimPoint(DimPointKind.POINT, a),
                                      DimPoint(DimPointKind.POINT, c)],
                                     Axis.Y, DimDirection(pipe=ab)))
    before = persist.save_text(s)
    with pytest.raises(EditError):
        edit.move_point(s, b, 0.0, 0.0, 0.0)
    assert persist.save_text(s) == before
    s.point(b).x = 0.0
    assert "pipe-zero-length" in {v.rule for v in integrity_check(s)}


@pytest.mark.parametrize("refused", [
    lambda s: edit.add_offset(s, edit.GeneralOffsetSpec(Axis.X, -5000.0, 100.0)),
    lambda s: edit.move_point(s, 1, -100.0, 0.0, 0.0),
    lambda s: edit.delete_point(s, 6),
], ids=["add_offset", "move_point", "delete_point"])
def test_an_edit_that_places_a_dimension_point_that_is_missing_refuses_by_dangling_ref(refused):
    """These edits place every dimension's points: one whose point is
    missing refuses the edit by ``dangling-ref``, as integrity_check reports
    it, and the scheme stays as it was."""
    s = samples.reference_scheme()
    did = s.insert("dimensions", Dimension([DimPoint(DimPointKind.POINT, 1),
                                            DimPoint(DimPointKind.POINT, 999)],
                                           Axis.Y, DimDirection(axis=Axis.X)))
    assert [str(v) for v in integrity_check(s) if v.rule == "dangling-ref"] == [
        f"dangling-ref dim:{did}: points references missing point 999"]
    before = _saved_without(s, "dimensions", did)
    with pytest.raises(EditError, match="dangling-ref: points references missing point 999"):
        refused(s)
    assert _saved_without(s, "dimensions", did) == before
