"""A dense hand-built scheme exercising every object class at once."""

from axoscheme import edit, model
from axoscheme.model import (
    Attach,
    Axis,
    Dimension,
    DimDirection,
    DimPoint,
    DimPointKind,
    ElevationMark,
    LeaderToPipe,
    PositionMark,
    ShelfDir,
    SlopeFormat,
    SlopeMark,
    SpecKind,
    SpecProps,
    SymbolDef,
    SymbolSegment,
    TargetKind,
    Text,
    UpDir,
)


def build_rich_scheme():
    s = model.new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    c = edit.add_point(s, 2000, 0, 1500)
    d = edit.add_point(s, 2000, 1500, 1500)
    e = edit.add_point(s, 4000, 1500, 1540)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    p3 = edit.add_pipe(s, c, d)
    p4 = edit.add_pipe(s, d, e)
    s.insert("joints", model.Joint(p1, p2, model.JointKind.FILLET, 80.0))
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.X, 1000.0, 300.0))

    sym = s.insert("symbols", SymbolDef(
        "v", [SymbolSegment(-3, -1.5, 3, 1.5), SymbolSegment(-3, 1.5, 3, -1.5)],
        Attach.AXIAL, (6.0,), sym_axis=True))
    blk = edit.place_block(s, sym, p3, 700.0, updir=UpDir.ZP)

    tid = s.insert("texts", Text(["Ду50"], (TargetKind.PIPE, 0),
                                 offset_vec=(150.0, 250.0)))
    lid = s.insert("pipe_leaders", LeaderToPipe(tid, p1, 600.0))
    s.texts[tid].main_leader = (TargetKind.PIPE, lid)

    sp = s.insert("spec_props", SpecProps(1, SpecKind.FOR_PIPE, name="Труба"))
    s.insert("position_marks", PositionMark(TargetKind.PIPE, p1, [sp],
                                            anchor_t=300.0,
                                            offset_vec=(100.0, 200.0)))

    s.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, a), DimPoint(DimPointKind.POINT, b)],
        Axis.Y, DimDirection(axis=Axis.X)))
    s.insert("elevation_marks", ElevationMark(
        TargetKind.PIPE, p3, 0.0, Axis.X, ShelfDir.XP))
    s.insert("slope_marks", SlopeMark(p4, 1000.0, 3.0, SlopeFormat.PERCENT, 1))
    s.axis_grid = model.AxisGrid(
        [model.AxisGroup(2, 6000.0)], [model.AxisGroup(2, 6000.0)],
        model.GridSettings())
    assert model.integrity_check(s) == []
    return s


def build_offset_scheme():
    """Offsets that move drawn objects: a compressing general offset drawn
    with waves, a compressing local offset, a fillet at a displaced point and
    chain dimensions across both offsets."""
    s = model.new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 2000, 0, 0)
    c = edit.add_point(s, 4000, 0, 0)
    d = edit.add_point(s, 4000, 0, 1500)
    e = edit.add_point(s, 4000, 1500, 1500)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    p3 = edit.add_pipe(s, c, d)
    p4 = edit.add_pipe(s, d, e)
    s.insert("joints", model.Joint(p2, p3, model.JointKind.FILLET, 120.0))
    general = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.X, 1000.0, -400.0))
    brk = next(x for x in s.breaks.values() if x.offset == general)
    brk.glyph = model.BreakGlyph.WAVES
    brk.placement = -150.0
    edit.add_offset(s, edit.LocalOffsetSpec((0.0, 1.0, 0.0), -300.0, [(p4, 700.0)], e))
    assert [x.pipe for x in s.breaks.values()] == [p1, p4]
    s.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, a), DimPoint(DimPointKind.POINT, b),
         DimPoint(DimPointKind.POINT, c)],
        Axis.Y, DimDirection(axis=Axis.X), line_offset=12.0))
    s.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, d), DimPoint(DimPointKind.POINT, e)],
        Axis.Z, DimDirection(axis=Axis.Y), line_offset=10.0))
    assert model.integrity_check(s) == []
    return s
