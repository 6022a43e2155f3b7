"""Seeded random generator of valid schemes for round-trip and fuzz suites.

Pipes are laid on a coarse lattice (axis-aligned and unit-diagonal steps
between adjacent cells), which rules out collinear overlaps by construction.
Every float is quantized to 32-bit storage precision so binary round-trips
are exact.
"""

import random

from axoscheme import constraints, edit, geometry, model
from axoscheme.model import (
    Attach,
    Axis,
    Dimension,
    DimPoint,
    DimPointKind,
    ElevationMark,
    JointKind,
    LeaderToPipe,
    LeaderToBlock,
    PositionMark,
    Scheme,
    ShelfDir,
    SlopeFormat,
    SlopeMark,
    SpecKind,
    SpecProps,
    SymbolDef,
    SymbolSegment,
    TargetKind,
    Text,
)
from axoscheme.persist.common import q32
from oracles import oracle_pipe_crosses_offset

CELL = 250.0  # lattice pitch, f32-exact

_STEPS = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (-1, 1, 0), (0, -1, 1),
]


def _pipe_skeleton(rng: random.Random, scheme: Scheme, n_pipes: int) -> list[int]:
    cells = {(0, 0, 0)}
    cell_points = {(0, 0, 0): edit.add_point(scheme, 0.0, 0.0, 0.0)}
    edges = set()
    pipes = []
    guard = 0
    while len(pipes) < n_pipes and guard < n_pipes * 30:
        guard += 1
        origin = rng.choice(sorted(cells))
        step = rng.choice(_STEPS)
        target = (origin[0] + step[0], origin[1] + step[1], origin[2] + step[2])
        edge = frozenset((origin, target))
        if edge in edges:
            continue
        edges.add(edge)
        if target not in cell_points:
            cell_points[target] = edit.add_point(
                scheme, target[0] * CELL, target[1] * CELL, target[2] * CELL)
            cells.add(target)
        a, b = cell_points[origin], cell_points[target]
        try:
            pipes.append(edit.add_pipe(scheme, a, b))
        except model.EditError:
            continue  # diagonal landed on an existing collinear span
    return pipes


def _add_joints(rng: random.Random, scheme: Scheme) -> None:
    by_point: dict[int, list[int]] = {}
    for pid, pipe in scheme.pipes.items():
        by_point.setdefault(pipe.start, []).append(pid)
        by_point.setdefault(pipe.end, []).append(pid)
    seen = set()
    for pids in by_point.values():
        if len(pids) < 2 or rng.random() < 0.5:
            continue
        a, b = sorted(rng.sample(pids, 2))
        if (a, b) in seen:
            continue
        shared = ({scheme.pipes[a].start, scheme.pipes[a].end}
                  & {scheme.pipes[b].start, scheme.pipes[b].end})
        if len(shared) != 1:
            continue
        seen.add((a, b))
        if rng.random() < 0.5:
            scheme.insert("joints", model.Joint(a, b, JointKind.BUTT))
        else:
            scheme.insert("joints", model.Joint(a, b, JointKind.FILLET,
                                                q32(rng.choice((50.0, 100.0)))))


def _try_general_offset(rng: random.Random, scheme: Scheme) -> None:
    axis = rng.choice(list(Axis))
    plane = q32((rng.randrange(-2, 3) + 0.5) * CELL)
    off = model.Offset("?", axis.unit(), 1.0, model.OffsetKind.GENERAL,
                       axis=axis, plane_coord=plane)
    for pid in scheme.pipes:
        if oracle_pipe_crosses_offset(scheme, off, pid):
            d = model.pipe_direction(scheme, pid)
            from axoscheme.vectors import cross3, norm3

            if norm3(cross3(d, axis.unit())) > 1e-9:
                return  # an oblique pipe crosses: this plane is illegal
    magnitude = q32(rng.choice((250.0, 500.0, -250.0)))
    try:
        edit.add_offset(scheme, edit.GeneralOffsetSpec(
            axis, plane, magnitude, toward_positive=rng.random() < 0.5))
    except model.EditError:
        pass


def _try_local_offset(rng: random.Random, scheme: Scheme) -> None:
    pipes = sorted(scheme.pipes)
    if not pipes:
        return
    pid = rng.choice(pipes)
    ort = rng.choice(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    try:
        edit.add_offset(scheme, edit.LocalOffsetSpec(
            ort, q32(rng.choice((250.0, -250.0))),
            [(pid, q32(model.pipe_length(scheme, pid) * 0.5))],
            displaced_seed=scheme.pipes[pid].end))
    except model.EditError:
        pass  # the single break does not cut the graph here


def _add_symbol_and_blocks(rng: random.Random, scheme: Scheme) -> None:
    sym = scheme.insert("symbols", SymbolDef(
        "s" + str(rng.randrange(100)),
        [SymbolSegment(-2.0, -1.0, 2.0, 1.0), SymbolSegment(-2.0, 1.0, 2.0, -1.0)],
        Attach.AXIAL, (q32(rng.choice((0.0, 4.0, 6.0))),),
        sym_axis=rng.random() < 0.5, sym_normal=rng.random() < 0.5))
    for pid in scheme.pipes:
        if rng.random() < 0.25:
            length = model.pipe_length(scheme, pid)
            dist = q32(length * rng.choice((0.25, 0.5, 0.75)))
            options = constraints.enumerate_block_orientations(scheme, sym, pid)
            if not options:
                continue
            flip, updir = rng.choice(options)
            try:
                edit.place_block(scheme, sym, pid, dist, flip, updir)
            except model.EditError:
                continue


def _add_texts(rng: random.Random, scheme: Scheme) -> None:
    for pid in list(scheme.pipes):
        if rng.random() < 0.3:
            tid = scheme.insert("texts", Text(
                [f"Ду{rng.choice((25, 40, 50))}"], (TargetKind.PIPE, 0),
                offset_vec=(q32(100.0), q32(150.0))))
            t = q32(model.pipe_length(scheme, pid) * 0.5)
            lid = scheme.insert("pipe_leaders", LeaderToPipe(tid, pid, t))
            scheme.texts[tid].main_leader = (TargetKind.PIPE, lid)
    for bid in list(scheme.blocks):
        if rng.random() < 0.3:
            tid = scheme.insert("texts", Text(
                ["блок"], (TargetKind.PIPE, 0), offset_vec=(q32(80.0), q32(-120.0))))
            lid = scheme.insert("block_leaders", LeaderToBlock(tid, bid, (0.0, 1.0)))
            scheme.texts[tid].main_leader = (TargetKind.BLOCK, lid)


def _add_slope_text(rng: random.Random, scheme: Scheme) -> None:
    sloped = [pid for pid in scheme.pipes
              if edit.pipe_slope(scheme, pid)[1] > 0]
    if not sloped:
        return
    pid = rng.choice(sloped)
    fmt = rng.choice(list(SlopeFormat))
    rise, run = edit.pipe_slope(scheme, pid)
    value = edit.format_slope(rise, run, fmt, scheme.settings.slope.precision)
    if value is None:
        return
    tid = scheme.insert("texts", Text(
        [rng.choice((model.SLOPE_LEFT, model.SLOPE_RIGHT)) + value],
        (TargetKind.PIPE, 0), offset_vec=(q32(50.0), q32(200.0)),
        slope_format=fmt))
    t = q32(model.pipe_length(scheme, pid) * 0.25)
    lid = scheme.insert("pipe_leaders", LeaderToPipe(tid, pid, t))
    scheme.texts[tid].main_leader = (TargetKind.PIPE, lid)


def _add_marks(rng: random.Random, scheme: Scheme) -> None:
    n_props = rng.randrange(0, 4)
    if not n_props or not scheme.pipes:
        return
    prop_ids = []
    for i in range(n_props):
        kind = rng.choice((SpecKind.FOR_PIPE, SpecKind.FOR_BLOCK))
        qty = float(rng.randrange(1, 5)) if kind is SpecKind.FOR_BLOCK else 1.0
        prop_ids.append(scheme.insert("spec_props", SpecProps(
            i + 1, kind, qty=qty,
            designation=f"ГОСТ-{rng.randrange(1000)}", name="элемент",
            unit_mass_kg=q32(rng.choice((0.5, 1.25, 4.0))))))
    for ref in prop_ids:
        pid = rng.choice(sorted(scheme.pipes))
        t = q32(model.pipe_length(scheme, pid) * 0.5)
        scheme.insert("position_marks", PositionMark(
            TargetKind.PIPE, pid, [ref], anchor_t=t,
            offset_vec=(q32(120.0), q32(180.0)),
            visible=rng.random() < 0.8))


def _add_dimension(rng: random.Random, scheme: Scheme) -> None:
    pipe_ids = sorted(scheme.pipes)
    if not pipe_ids:
        return
    pid = rng.choice(pipe_ids)
    pipe = scheme.pipes[pid]
    pts = [DimPoint(DimPointKind.POINT, pipe.start),
           DimPoint(DimPointKind.POINT, pipe.end)]
    legal = sorted(
        constraints.legal_dimension_orientations(geometry.OffsetView(scheme), pts),
        key=lambda k: (k[0].value, k[1].axis.value if k[1].axis else "",
                       k[1].pipe or 0))
    if not legal:
        return
    ext, dim_dir = rng.choice(legal)
    scheme.insert("dimensions", Dimension(
        pts, ext, dim_dir, line_offset=q32(rng.choice((8.0, 12.0))),
        text_offset=1.5))


def _add_height_marks(rng: random.Random, scheme: Scheme) -> None:
    for pid in scheme.pipes:
        if rng.random() < 0.2:
            scheme.insert("elevation_marks", ElevationMark(
                TargetKind.PIPE, pid, q32(model.pipe_length(scheme, pid) * 0.5),
                rng.choice((Axis.X, Axis.Y)), rng.choice(list(ShelfDir))))
        if rng.random() < 0.2:
            rise, run = edit.pipe_slope(scheme, pid)
            if run > 0 and rise != 0:
                scheme.insert("slope_marks", SlopeMark(
                    pid, q32(model.pipe_length(scheme, pid) * 0.5),
                    q32(3.0), SlopeFormat.PERCENT, 1))


def random_scheme(seed: int, n_pipes: int | None = None,
                  with_offsets: bool = True) -> Scheme:
    """A structurally valid random scheme (integrity_check comes back empty)."""
    rng = random.Random(seed)
    scheme = model.new_scheme()
    _pipe_skeleton(rng, scheme, n_pipes if n_pipes is not None
                   else rng.randrange(2, 8))
    _add_joints(rng, scheme)
    if with_offsets and rng.random() < 0.5:
        _try_general_offset(rng, scheme)
    if with_offsets and rng.random() < 0.3:
        _try_local_offset(rng, scheme)
    if rng.random() < 0.6:
        _add_symbol_and_blocks(rng, scheme)
    _add_texts(rng, scheme)
    _add_slope_text(rng, scheme)
    _add_marks(rng, scheme)
    _add_dimension(rng, scheme)
    _add_height_marks(rng, scheme)
    if rng.random() < 0.3:
        scheme.axis_grid = model.AxisGrid(
            [model.AxisGroup(rng.randrange(1, 4), q32(6000.0))],
            [model.AxisGroup(rng.randrange(1, 3), q32(4500.0))],
            model.GridSettings())
    if rng.random() < 0.3:
        scheme.settings.slice = model.Slice(q32(-500.0), q32(1500.0))
    if rng.random() < 0.3:
        scheme.settings.spec_extended = True
        for sp in scheme.spec_props.values():
            sp.extended = model.ExtendedProps(unit_name="м")
    return scheme


def lattice_scheme(n: int = 600) -> Scheme:
    """``n`` pipes on a 6 x 6 x 6 lattice of corners 250 mm apart: the 540
    axis edges, then face diagonals, and nothing else."""
    s = model.new_scheme()
    size = 6
    corner = {(x, y, z): s.insert("points", model.Point3(CELL * x, CELL * y, CELL * z))
              for x in range(size) for y in range(size) for z in range(size)}
    for step in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]:
        for (x, y, z), pid in corner.items():
            other = corner.get((x + step[0], y + step[1], z + step[2]))
            if other is not None and len(s.pipes) < n:
                s.insert("pipes", model.Pipe(pid, other))
    assert len(s.pipes) == n
    return s


def riser_scheme(risers: int = 3, floors: int = 4) -> Scheme:
    """Vertical risers 6 m apart on a collector along X, a 1.5 m branch
    along +Y with a fillet on every floor and a dimension up the first
    riser.  General offsets cut every storey and the branches; local offsets
    displace the ends of the top floor's branches, each broken at 1 m."""
    s = model.new_scheme()
    base = [edit.add_point(s, 6000.0 * r, 0.0, 0.0) for r in range(risers)]
    for r in range(risers - 1):
        edit.add_pipe(s, base[r], base[r + 1])
    column = [base[0]]
    tops: list[tuple[int, int]] = []  # (branch, its end point) on the top floor
    for r in range(risers):
        below = base[r]
        for f in range(1, floors + 1):
            node = edit.add_point(s, 6000.0 * r, 0.0, 3000.0 * f)
            riser = edit.add_pipe(s, below, node)
            end = edit.add_point(s, 6000.0 * r, 1500.0, 3000.0 * f)
            branch = edit.add_pipe(s, node, end)
            s.insert("joints", model.Joint(riser, branch, JointKind.FILLET, 150.0))
            if r == 0:
                column.append(node)
            below = node
        tops.append((branch, end))
    s.insert("dimensions", Dimension([DimPoint(DimPointKind.POINT, p) for p in column],
                                     Axis.X, model.DimDirection(axis=Axis.Z), line_offset=10.0))
    for f in range(floors):
        edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 3000.0 * f + 1500.0,
                                                  (-1000.0, 500.0)[f % 2]))
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Y, 400.0, -300.0))
    for k, (branch, end) in enumerate(tops):
        edit.add_offset(s, edit.LocalOffsetSpec((0.0, 1.0, 0.0), (-300.0, 400.0)[k % 2],
                                                [(branch, 1000.0)], end))
    assert model.integrity_check(s) == []
    return s


def mains_and_stubs(n: int) -> Scheme:
    """``n`` pipes (``n >= 4``), built only through ``edit.add_point`` and
    ``edit.add_pipe``, with no violation: a quarter are parallel mains along
    X, 40 m long and 300 mm apart; the rest are 0.5 m stubs rising from
    them, 300 mm apart along each main.  A main is 80 times as long as a
    stub, so one grid cell cannot suit both."""
    s = model.new_scheme()
    mains = n // 4
    for k in range(mains):
        edit.add_pipe(s, edit.add_point(s, 0.0, 300.0 * k, 0.0),
                      edit.add_point(s, 40000.0, 300.0 * k, 0.0))
    for j in range(n - mains):
        k = j % mains
        x = 150.0 + 300.0 * ((j // mains) * 40 + k % 40)
        edit.add_pipe(s, edit.add_point(s, x, 300.0 * k, 0.0),
                      edit.add_point(s, x, 300.0 * k, 500.0))
    return s
