"""Seeded generator of the benchmark's documents and edit scripts.

The generator is the benchmark's own; it does not share code with the test
suite's generator, so the benchmark inputs stay fixed while that one changes.
Documents are built the way a drawing session builds them: points, pipes,
offsets and blocks through ``axoscheme.edit``, annotation records inserted
directly.  Every coordinate and length is a whole number of millimetres, so
both file formats store the documents exactly.

The seed moves coordinates and picks which pipes carry blocks, texts and
marks.  It never changes how many objects of each kind a document holds, so
the work per run hardly depends on the seed.

Regenerate the inputs of one seed into a directory:

    PYTHONPATH=src python3 benchmark/gen.py --seed 1 --out .bench_work/inputs
"""

import argparse
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from axoscheme import constraints, edit, model, persist
from axoscheme.model import (
    Attach,
    Axis,
    Dimension,
    DimDirection,
    DimPoint,
    DimPointKind,
    ElevationMark,
    ExtendedProps,
    Joint,
    JointKind,
    LeaderToBlock,
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
)

WORKLOADS = ("plant", "risers", "sessions")


# -- documents ------------------------------------------------------------------

@dataclass
class Doc:
    """A generated document and what its generator knows about it.

    ``built`` counts the objects per collection as the generator made them;
    its ``breaks`` entry is the number of offset-plane crossings computed from
    point coordinates plus the explicit local breaks.
    """

    name: str
    scheme: model.Scheme
    built: dict[str, int] = field(default_factory=dict)
    extended: bool = False
    occlusion_sample: bool = False  # no offsets: the occlusion oracle applies


class _Build:
    """Builds one scheme and counts what it builds."""

    def __init__(self, name: str, rng: random.Random):
        self.rng = rng
        self.doc = Doc(name, model.new_scheme(),
                       {c: 0 for c in model.COLLECTIONS})
        self.s = self.doc.scheme

    def _count(self, collection: str, n: int = 1) -> None:
        self.doc.built[collection] += n

    def point(self, x: float, y: float, z: float) -> int:
        self._count("points")
        return edit.add_point(self.s, float(x), float(y), float(z))

    def pipe(self, a: int, b: int) -> int:
        self._count("pipes")
        return edit.add_pipe(self.s, a, b)

    def insert(self, collection: str, obj) -> int:
        self._count(collection)
        return self.s.insert(collection, obj)

    def general_offset(self, axis: Axis, plane: float, magnitude: float) -> int:
        self._count("offsets")
        self._count("breaks", plane_crossings(self.s, axis, plane))
        return edit.add_offset(self.s, edit.GeneralOffsetSpec(
            axis, float(plane), float(magnitude)))

    def local_offset(self, ort, magnitude: float, pipe: int, pos: float,
                     seed_point: int) -> int:
        self._count("offsets")
        self._count("breaks")
        return edit.add_offset(self.s, edit.LocalOffsetSpec(
            ort, float(magnitude), [(pipe, float(pos))], seed_point))

    def block(self, symbol: int, pipe: int, dist: float) -> int:
        options = constraints.enumerate_block_orientations(
            self.s, symbol, pipe, dist_from_start=dist)
        flip, updir = self.rng.choice(options)
        self._count("blocks")
        return edit.place_block(self.s, symbol, pipe, float(dist), flip, updir)

    def pipe_text(self, pipe: int, lines: list[str], t: float,
                  offset=(300.0, 300.0), slope_format=None) -> int:
        tid = self.insert("texts", Text(lines, (TargetKind.PIPE, 0),
                                        offset_vec=offset,
                                        slope_format=slope_format))
        lid = self.insert("pipe_leaders", LeaderToPipe(tid, pipe, float(t)))
        self.s.texts[tid].main_leader = (TargetKind.PIPE, lid)
        return tid

    def block_text(self, block: int, lines: list[str]) -> int:
        tid = self.insert("texts", Text(lines, (TargetKind.PIPE, 0),
                                        offset_vec=(250.0, -300.0)))
        lid = self.insert("block_leaders", LeaderToBlock(tid, block, (0.0, 1.5)))
        self.s.texts[tid].main_leader = (TargetKind.BLOCK, lid)
        return tid

    def props(self, position: int, kind: SpecKind, designation: str, name: str,
              mass: float, qty: float = 1.0) -> int:
        ext = None
        if self.doc.extended:
            ext = ExtendedProps(type_mark=designation, name_and_spec=name,
                                unit_name="м" if kind is SpecKind.FOR_PIPE else "шт")
        return self.insert("spec_props", SpecProps(
            position, kind, qty=qty, designation=designation, name=name,
            unit_mass_kg=mass, extended=ext))

    def pipe_mark(self, pipe: int, props: int, t: float) -> int:
        return self.insert("position_marks", PositionMark(
            TargetKind.PIPE, pipe, [props], anchor_t=float(t),
            offset_vec=(150.0, 250.0)))

    def block_mark(self, block: int, props: int) -> int:
        return self.insert("position_marks", PositionMark(
            TargetKind.BLOCK, block, [props], anchor_xy=(0.0, 1.5),
            offset_vec=(100.0, 300.0)))


def plane_crossings(scheme: model.Scheme, axis: Axis, plane: float) -> int:
    """Pipes whose end points lie strictly on opposite sides of the plane."""
    k = axis.index
    n = 0
    for pipe in scheme.pipes.values():
        c0 = scheme.points[pipe.start].as_tuple()[k] - plane
        c1 = scheme.points[pipe.end].as_tuple()[k] - plane
        if min(c0, c1) < 0.0 < max(c0, c1):
            n += 1
    return n


def _valve() -> SymbolDef:
    return SymbolDef("valve", [
        SymbolSegment(-3.0, -1.5, 3.0, 1.5), SymbolSegment(-3.0, 1.5, 3.0, -1.5),
        SymbolSegment(-3.0, -1.5, -3.0, 1.5), SymbolSegment(3.0, -1.5, 3.0, 1.5),
    ], Attach.AXIAL, (6.0,), sym_axis=True)


def _support() -> SymbolDef:
    return SymbolDef("support", [
        SymbolSegment(-2.0, 0.0, 2.0, 0.0), SymbolSegment(0.0, 0.0, 0.0, -3.0),
        SymbolSegment(-1.5, -3.0, 1.5, -3.0), SymbolSegment(-1.5, 1.5, 1.5, 1.5),
    ], Attach.AXIAL, (0.0,))


def _ladder(rng: random.Random, n: int, lo: int, hi: int, start: int = 0) -> list[int]:
    """n increasing coordinates with random steps in [lo, hi], 10 mm grid."""
    out = [start]
    for _ in range(n - 1):
        out.append(out[-1] + rng.randrange(lo, hi + 1, 10))
    return out


def _half(length: float) -> float:
    return float(int(length / 2.0))


# Lattice plant: an nx x ny x nz lattice of nodes with irregular spacing.  Runs
# along X rise SLOPE_RISE mm per bay, so they carry slope; runs along Y and Z
# are exact.  The irregular spacing gives the isometric image many crossings.
SLOPE_RISE = 30


def build_plant(rng: random.Random, name: str, nx: int, ny: int, nz: int,
                n_pipes: int, extended: bool = False) -> Doc:
    b = _Build(name, rng)
    b.doc.extended = extended
    b.doc.occlusion_sample = True
    s = b.s
    s.settings.spec_extended = extended
    xs = _ladder(rng, nx, 2400, 3600)
    ys = _ladder(rng, ny, 2000, 3200)
    zs = _ladder(rng, nz, 2600, 3400)
    node = {}
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                node[i, j, k] = b.point(xs[i], ys[j], zs[k] + SLOPE_RISE * i)

    edges = []
    for (i, j, k) in node:
        for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            nxt = (i + di, j + dj, k + dk)
            if nxt in node:
                edges.append(((i, j, k), nxt))
    rng.shuffle(edges)
    # a random spanning tree first, so every node is on the plant, then the
    # remaining lattice edges in random order up to the pipe budget
    parent = {n: n for n in node}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    chosen, rest = [], []
    for e in edges:
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            parent[ra] = rb
            chosen.append(e)
        else:
            rest.append(e)
    chosen += rest[:n_pipes - len(chosen)]
    assert len(chosen) == n_pipes, "lattice too small for the pipe budget"
    pipes = [b.pipe(node[a], node[c]) for a, c in chosen]
    x_runs = [p for p, (a, c) in zip(pipes, chosen) if a[0] != c[0]]

    # fillet and butt joints where pipes of different axes meet
    at_node: dict[int, list[tuple[int, int]]] = {}
    for p, (a, c) in zip(pipes, chosen):
        axis = 0 if a[0] != c[0] else (1 if a[1] != c[1] else 2)
        at_node.setdefault(node[a], []).append((p, axis))
        at_node.setdefault(node[c], []).append((p, axis))
    corners = [(lst[0][0], lst[1][0]) for lst in at_node.values()
               if len(lst) >= 2 and lst[0][1] != lst[1][1]]
    rng.shuffle(corners)
    n_joints = n_pipes // 8
    for idx, (pa, pb) in enumerate(sorted(corners[:n_joints])):
        if idx % 4 == 3:
            b.insert("joints", Joint(pa, pb, JointKind.BUTT))
        else:
            b.insert("joints", Joint(pa, pb, JointKind.FILLET, 100.0))

    valve = b.insert("symbols", _valve())
    hosts = sorted(rng.sample(pipes, n_pipes // 4))
    blocks = [b.block(valve, p, _half(model.pipe_length(s, p))) for p in hosts]

    texted = sorted(rng.sample(pipes, n_pipes // 10))
    for p in texted:
        b.pipe_text(p, [f"Ду{rng.choice((50, 65, 80, 100))}"],
                    int(model.pipe_length(s, p) * 0.4))
    for blk in sorted(rng.sample(blocks, len(blocks) // 8)):
        b.block_text(blk, ["Задвижка"])
    for p in sorted(rng.sample(x_runs, 3)):
        rise, run = edit.pipe_slope(s, p)
        value = edit.format_slope(rise, run, SlopeFormat.PERCENT, s.settings.slope.precision)
        b.pipe_text(p, [model.SLOPE_RIGHT + value], int(model.pipe_length(s, p) * 0.25),
                    offset=(200.0, 400.0), slope_format=SlopeFormat.PERCENT)

    pos = 0
    for dn in (50, 80, 100):
        pos += 1
        sp = b.props(pos, SpecKind.FOR_PIPE, "ГОСТ 10704-91", f"Труба Ду{dn}", 5.5)
        for p in sorted(rng.sample(pipes, max(1, n_pipes // 30))):
            b.pipe_mark(p, sp, int(model.pipe_length(s, p) * 0.6))
    for qty, label, share in ((1.0, "Задвижка Ду80", 4), (4.0, "Болт М16", 8)):
        pos += 1
        sp = b.props(pos, SpecKind.FOR_BLOCK, "30с41нж", label, 12.5, qty)
        for blk in sorted(rng.sample(blocks, max(1, len(blocks) // share))):
            b.block_mark(blk, sp)

    for p in sorted(rng.sample(pipes, n_pipes // 15)):
        b.insert("elevation_marks", ElevationMark(
            TargetKind.PIPE, p, 0.0, rng.choice((Axis.X, Axis.Y)),
            rng.choice(list(ShelfDir))))
    for p in sorted(rng.sample(x_runs, max(2, n_pipes // 30))):
        b.insert("slope_marks", SlopeMark(p, _half(model.pipe_length(s, p)), 3.0,
                                          SlopeFormat.PERCENT, 1))

    row = [DimPoint(DimPointKind.POINT, node[0, j, 0]) for j in range(ny)]
    b.insert("dimensions", Dimension(row, Axis.X, DimDirection(axis=Axis.Y),
                                     line_offset=12.0))
    s.axis_grid = model.AxisGrid(
        [model.AxisGroup(nx // 2, 3000.0), model.AxisGroup(nx - nx // 2, 3000.0)],
        [model.AxisGroup(ny, 2500.0)],
        model.GridSettings(visible_x=set(range(1, nx + 1)),
                           visible_y=set(range(1, ny + 1))))
    return b.doc


# Riser building: `risers` vertical risers on a collector along X.  Each
# floor of each riser has a branch along +Y (valve, fillet at the riser,
# elevation mark), then a sloped tail with a text, slope mark and, on every
# second floor, a vertical stub.  General offsets cut every storey (Z planes)
# and the branches (Y planes); local offsets displace branch tails.
def build_risers(rng: random.Random, name: str, risers: int, floors: int,
                 y_planes: int, local_offsets: int, extended: bool = False,
                 grid: bool = False) -> Doc:
    b = _Build(name, rng)
    b.doc.extended = extended
    s = b.s
    s.settings.spec_extended = extended
    s.settings.projection = "frontal-dimetric-45"
    xr = _ladder(rng, risers, 5000, 7000)
    zf = _ladder(rng, floors + 1, 2800, 3300)
    source = b.point(-2000, 0, 0)
    base = [b.point(x, 0, 0) for x in xr]
    collector = [b.pipe(source, base[0])]
    collector += [b.pipe(base[r], base[r + 1]) for r in range(risers - 1)]

    valve = b.insert("symbols", _valve())
    b.insert("symbols", _support())
    sp_riser = b.props(1, SpecKind.FOR_PIPE, "ГОСТ 3262-75", "Труба Ду50", 4.5)
    sp_branch = b.props(2, SpecKind.FOR_PIPE, "ГОСТ 3262-75", "Труба Ду25", 2.5)
    sp_valve = b.props(3, SpecKind.FOR_BLOCK, "15б3р", "Вентиль Ду25", 1.5)
    for p in collector:
        b.pipe_mark(p, sp_riser, 500)

    riser_pipes: list[list[int]] = []
    tails: list[tuple[int, int]] = []  # (tail pipe, tail end point)
    for r, x in enumerate(xr):
        nodes = [base[r]] + [b.point(x, 0, z) for z in zf[1:]]
        column = [b.pipe(nodes[f], nodes[f + 1]) for f in range(floors)]
        riser_pipes.append(column)
        for f in range(floors):
            b.pipe_mark(column[f], sp_riser, 400)
            z = zf[f + 1]
            l1 = rng.randrange(1500, 2001, 10)
            l2 = rng.randrange(1200, 1601, 10)
            drop = rng.randrange(20, 41, 5)
            p1 = b.point(x, l1, z)
            p2 = b.point(x, l1 + l2, z - drop)
            branch = b.pipe(nodes[f + 1], p1)
            tail = b.pipe(p1, p2)
            tails.append((tail, p2))
            b.insert("joints", Joint(column[f], branch, JointKind.FILLET, 150.0))
            blk = b.block(valve, branch, int(l1 * 0.75))
            b.block_mark(blk, sp_valve)
            b.pipe_mark(tail, sp_branch, _half(model.pipe_length(s, tail)))
            b.pipe_text(tail, ["Ду25"], int(l2 * 0.3))
            b.insert("elevation_marks", ElevationMark(
                TargetKind.PIPE, branch, 0.0, Axis.X, ShelfDir.XP))
            b.insert("slope_marks", SlopeMark(tail, _half(model.pipe_length(s, tail)),
                                              3.0, SlopeFormat.PERCENT, 1))
            if f % 2 == 1:
                stub_end = b.point(x, l1 + l2, z - drop - 400)
                b.pipe(p2, stub_end)

    b.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, source)]
        + [DimPoint(DimPointKind.POINT, p) for p in base],
        Axis.Y, DimDirection(axis=Axis.X), line_offset=14.0))
    column0 = [s.pipes[p].start for p in riser_pipes[0]] + [s.pipes[riser_pipes[0][-1]].end]
    b.insert("dimensions", Dimension(
        [DimPoint(DimPointKind.POINT, p) for p in column0],
        Axis.X, DimDirection(axis=Axis.Z), line_offset=10.0))

    # magnitudes follow a fixed pattern: stretches draw a dot per paper mm,
    # so a random choice would make the drawing's size depend on the seed
    for f in range(floors):
        plane = zf[f] + (zf[f + 1] - zf[f]) // 2
        b.general_offset(Axis.Z, plane, (-1000, 500, -1500)[f % 3])
    for k in range(y_planes):
        b.general_offset(Axis.Y, 400 + 350 * k, (-500, 300)[k % 2])
    for k, (tail, end) in enumerate(sorted(rng.sample(tails, local_offsets))):
        b.local_offset((0.0, 1.0, 0.0), (-300, 400)[k % 2], tail,
                       _half(model.pipe_length(s, tail)), end)
    if grid:
        s.axis_grid = model.AxisGrid(
            [model.AxisGroup(risers, 6000.0)], [model.AxisGroup(2, 3000.0)],
            model.GridSettings(visible_x=set(range(1, risers + 1)), visible_y={1, 2}))
    return b.doc


def build_documents(workload: str, seed: int) -> list[Doc]:
    """The workload's documents for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "plant":
        return [build_plant(rng, "plant", 10, 9, 3, 600, extended=True)]
    if workload == "risers":
        return [build_risers(rng, "risers", 4, 9, 2, 24, grid=True)]
    if workload == "sessions":
        docs = []
        for i, (nx, ny, nz, n) in enumerate(((3, 3, 2, 20), (4, 4, 2, 40),
                                             (5, 4, 3, 80), (7, 6, 3, 150))):
            docs.append(build_plant(rng, f"plant{i}", nx, ny, nz, n,
                                    extended=i % 2 == 1))
        for i, (r, f, y, loc) in enumerate(((2, 2, 1, 2), (2, 3, 1, 3),
                                            (3, 3, 1, 4), (3, 4, 2, 6))):
            docs.append(build_risers(rng, f"risers{i}", r, f, y, loc,
                                     extended=i % 2 == 0))
        return docs
    raise ValueError(f"unknown workload {workload!r}")


# -- edit scripts -----------------------------------------------------------------

# An edit is a tuple whose first item names its kind:
#   ("branch", point, (x, y, z))     add a point and a pipe to it
#   ("move", ref, (x, y, z))         move a point
#   ("delete", ref)                  delete a leaf point and its one pipe
#   ("block", symbol, pipe, dist, flip, updir)   place a block
#   ("offset", axis, plane, magnitude, crossings)   add a general offset
#   ("local", k, ort, magnitude)     add a local offset displacing the end of
#                                    the k-th branch, its break mid-branch
# A ref is a point id of the loaded document or ("new", k), the point added
# by the k-th branch of the same pass.
def _oblique(rng: random.Random, length: int):
    while True:
        d = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        if min(abs(c) for c in d) > 0.25:
            break
    n = math.sqrt(sum(c * c for c in d))
    return [c / n * length for c in d]


def _along(p, d, f: float) -> tuple[int, int, int]:
    return (round(p.x + d[0] * f), round(p.y + d[1] * f), round(p.z + d[2] * f))


def _branch_ops(rng: random.Random, scheme: model.Scheme, n_branch: int,
                n_move: int, n_delete: int) -> list[tuple]:
    """Oblique branches from lattice nodes, then moves and deletions of their
    free ends.  An oblique direction never overlaps a lattice run."""
    nodes = sorted(scheme.points)
    ops, ends = [], []
    for _ in range(n_branch):
        at = rng.choice(nodes)
        p = scheme.points[at]
        d = _oblique(rng, rng.randrange(400, 700))
        ends.append((p, d))
        ops.append(("branch", at, _along(p, d, 1.0)))
    movable = n_branch - n_delete
    later = [("move", ("new", k % movable),
              _along(*ends[k % movable], rng.choice((0.6, 0.8, 1.3, 1.5))))
             for k in range(n_move)]
    later += [("delete", ("new", k)) for k in range(movable, n_branch)]
    rng.shuffle(later)
    return ops + later


def _riser_ops(rng: random.Random, scheme: model.Scheme, n_offset: int,
               n_block: int, n_move: int, n_delete: int) -> list[tuple]:
    """New Z-plane offsets inside storeys, support blocks on risers, and
    moves and deletions of stub ends."""
    risers = sorted(pid for pid, p in scheme.pipes.items()
                    if _axis_of(scheme, pid) == 2
                    and scheme.points[p.start].y == 0.0)
    stubs = sorted(pid for pid, p in scheme.pipes.items()
                   if _axis_of(scheme, pid) == 2
                   and scheme.points[p.start].y != 0.0)
    ops = []
    used_planes = {o.plane_coord for o in scheme.offsets.values()
                   if o.axis is Axis.Z}
    for pid in sorted(rng.sample(risers, n_offset)):
        a = scheme.points[scheme.pipes[pid].start].z
        c = scheme.points[scheme.pipes[pid].end].z
        lo, hi = min(a, c), max(a, c)
        plane = lo + (hi - lo) // 4
        while plane in used_planes:
            plane += 10.0
        used_planes.add(plane)
        ops.append(("offset", Axis.Z, plane, (-400, 300)[len(ops) % 2],
                    plane_crossings(scheme, Axis.Z, plane)))
    support = next(sid for sid, sym in scheme.symbols.items() if sym.name == "support")
    for pid in sorted(rng.sample(risers, n_block)):
        dist = float(int(model.pipe_length(scheme, pid) * rng.choice((0.2, 0.8))))
        flip, updir = constraints.enumerate_block_orientations(
            scheme, support, pid, dist_from_start=dist)[0]
        ops.append(("block", support, pid, dist, flip, updir))
    picked = rng.sample(stubs, n_move + n_delete)
    for pid in picked[:n_move]:
        end = scheme.pipes[pid].end
        p = scheme.points[end]
        ops.append(("move", end, (p.x, p.y, p.z + rng.choice((100, 150, 200)))))
    for pid in picked[n_move:]:
        ops.append(("delete", scheme.pipes[pid].end))
    rng.shuffle(ops)
    return ops


def _plant_offset_and_block(rng: random.Random, scheme: model.Scheme) -> tuple[tuple, tuple]:
    """A general offset in the first gap between storeys, clear of every
    branch the script adds, and a valve on a pipe that has none."""
    zs = sorted({p.z for p in scheme.points.values()})
    lo, hi = next((a, c) for a, c in zip(zs, zs[1:]) if c - a > 2000.0)
    plane = float(round((lo + hi) / 2.0))
    offset = ("offset", Axis.Z, plane, 400.0, plane_crossings(scheme, Axis.Z, plane))
    valve = next(iter(scheme.symbols))
    bare = sorted(set(scheme.pipes) - {b.pipe for b in scheme.blocks.values()})
    pid = rng.choice(bare)
    dist = _half(model.pipe_length(scheme, pid))
    flip, updir = constraints.enumerate_block_orientations(
        scheme, valve, pid, dist_from_start=dist)[0]
    return offset, ("block", valve, pid, dist, flip, updir)


def _riser_stub(rng: random.Random, scheme: model.Scheme) -> tuple:
    """A new 300 mm drop from a branch tail that has none and that no local
    offset displaces."""
    degree: dict[int, int] = {}
    for pipe in scheme.pipes.values():
        for end in (pipe.start, pipe.end):
            degree[end] = degree.get(end, 0) + 1
    displaced = set().union(*(o.displaced_points for o in scheme.offsets.values()))
    ends = sorted(p.end for pid, p in scheme.pipes.items()
                  if _axis_of(scheme, pid) is None and degree[p.end] == 1
                  and p.end not in displaced and scheme.points[p.end].y > 0.0)
    at = rng.choice(ends)
    p = scheme.points[at]
    return ("branch", at, (p.x, p.y, p.z - 300.0))


def _axis_of(scheme: model.Scheme, pid: int) -> int | None:
    a, c = model.pipe_ends(scheme, pid)
    moving = [k for k in range(3) if a[k] != c[k]]
    return moving[0] if len(moving) == 1 else None


def edit_script(workload: str, seed: int, doc_name: str,
                scheme: model.Scheme) -> list[tuple]:
    """The fixed edit script of one document, against its loaded ids."""
    rng = random.Random(f"{workload}:{seed}:{doc_name}:edits")
    if workload == "plant":
        # the offsets and the block make the edits reach every edit function
        offset, block = _plant_offset_and_block(rng, scheme)
        ops = _branch_ops(rng, scheme, 22, 5, 4)
        return [offset] + ops[:22] + [("local", 0, (1.0, 0.0, 0.0), 200.0), block] + ops[22:]
    if workload == "risers":
        ops = _riser_ops(rng, scheme, 8, 3, 3, 1)
        ops.insert(rng.randrange(len(ops) + 1), _riser_stub(rng, scheme))
        return ops
    if doc_name == "plant3":
        # the largest session document takes most of the moves, so the slowest
        # tenth of all session edits is one kind of edit on one document size
        return _branch_ops(rng, scheme, 12, 20, 2)
    if doc_name.startswith("plant"):
        return _branch_ops(rng, scheme, 10, 2, 2)
    return _riser_ops(rng, scheme, 2, 3, 1, 1)


# -- command line -------------------------------------------------------------------

def write_inputs(workload: str, seed: int, out: Path) -> list[Doc]:
    """Build the workload's documents and write each as .asts and .astsb."""
    docs = build_documents(workload, seed)
    for doc in docs:
        (out / f"{doc.name}.asts").write_text(persist.save_text(doc.scheme),
                                              encoding="utf-8")
        (out / f"{doc.name}.astsb").write_bytes(persist.save_binary(doc.scheme))
    return docs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    for wl in WORKLOADS:
        (args.out / wl).mkdir(parents=True, exist_ok=True)
        for doc in write_inputs(wl, args.seed, args.out / wl):
            print(args.out / wl / f"{doc.name}.asts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
