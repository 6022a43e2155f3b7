"""Mutating operations: merging point insertion, validated pipe/offset/block
placement, cascade deletion, position renumbering, slope-text sync.

An edit of a valid scheme leaves it valid, or raises ``EditError`` and
leaves it unchanged: each edit checks only what it can change, with the rule
code of ``integrity_check``.  On a scheme that is already invalid, what is
wrong elsewhere neither refuses an edit nor is reported by it; a pipe whose
geometry the edit must read but whose end is missing refuses it by
``dangling-ref``, and so does a dimension point it must place
(``model.unplaced_dimension_points``): ``add_offset``, ``move_point`` and
``delete_point`` read every dimension.

``add_point`` and ``add_pipe`` ask the scheme's spatial index
(``Scheme.index``) which stored points and pipes to test, and the edits
keep it up to date.  Code that writes a stored point's coordinates or a
pipe's ends in place, or replaces an entry under the same id, calls
``scheme.drop_index()`` before the next edit.
"""

import math
import re
from dataclasses import dataclass, field

from . import constraints, geometry, model
from .model import (
    Axis,
    BreakLine,
    EditError,
    LineStyle,
    Offset,
    OffsetKind,
    Pipe,
    Point3,
    Scheme,
    SlopeFormat,
    TargetKind,
    UpDir,
    Violation,
)
from .vectors import Vec3, dist3, mul3

# Drafting letter run: Cyrillic а..я without the unused ъ, ы, ь, й.
OFFSET_LETTERS = "абвгдежзиклмнопрстуфхцчшщэюя"


def offset_letter(n: int) -> str:
    """n-th letter of the offset sequence (0-based), doubling after я: аа, аб, ..."""
    base = len(OFFSET_LETTERS)
    out = ""
    n += 1
    while n > 0:
        n, rem = divmod(n - 1, base)
        out = OFFSET_LETTERS[rem] + out
    return out


def next_offset_letter(scheme: Scheme) -> str:
    used = {off.letter for off in scheme.offsets.values()}
    n = 0
    while offset_letter(n) in used:
        n += 1
    return offset_letter(n)


def _rejected(problems: list[Violation]) -> EditError:
    """The error refusing an edit that a legality check reports against."""
    return EditError("; ".join(f"{v.rule}: {v.message}" for v in problems))


# -- points and pipes --------------------------------------------------------

def add_point(scheme: Scheme, x: float, y: float, z: float) -> int:
    """Insert a point, merging with the first stored one (in dict order)
    within the tolerance; the spatial index names the points to test."""
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise EditError("point coordinates must be finite")
    for pid in scheme.index().points_near((x, y, z)):
        if dist3(scheme.points[pid].as_tuple(), (x, y, z)) < model.MERGE_EPS:
            return pid
    return scheme.insert("points", Point3(x, y, z))


def add_pipe(scheme: Scheme, a: int, b: int, style: LineStyle | None = None) -> int:
    if style is None:
        st = scheme.settings.pipe_style
        style = LineStyle(st.color, st.line_type)
    problems = (constraints.check_pipe_overlap(scheme, a, b)
                + constraints.check_pipe_offsets(geometry.OffsetView(scheme), a, b))
    model._check_style(problems, f"pipe:{a}-{b}", style)
    if problems:
        raise _rejected(problems)
    return scheme.insert("pipes", Pipe(a, b, style))


def move_point(scheme: Scheme, point_id: int, x: float, y: float, z: float) -> None:
    """Relocate a point, then resync slope texts of the pipes at it.

    The move is transactional: if any invariant would break (coincidence,
    zero-length or overlapping pipes, out-of-range anchors, a dimension left
    without a legal orientation), the point is restored and the edit rejected
    with the first three violations.  Only the move's reach
    (``_move_reach``) is checked, by ``model.check_reach``; on a valid
    scheme that gives the violations of the whole ``integrity_check``.
    """
    pt = scheme.point(point_id)
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise EditError("point coordinates must be finite")
    unplaced = model.unplaced_dimension_points(scheme)
    if unplaced:
        raise _rejected(unplaced)
    reach = _move_reach(scheme, point_id)
    scheme.index()  # filed before the move, so a refused move leaves it right
    old = (pt.x, pt.y, pt.z)
    pt.x, pt.y, pt.z = x, y, z
    try:
        problems = model.check_reach(scheme, reach)
    except BaseException:
        pt.x, pt.y, pt.z = old
        raise
    if problems:
        pt.x, pt.y, pt.z = old
        raise EditError("; ".join(map(str, problems[:3])))
    scheme.refile(point_id, reach["pipes"])
    for pid in reach["pipes"]:
        sync_slope_texts(scheme, pid)


def _move_reach(scheme: Scheme, point_id: int) -> dict[str, set[int]]:
    """Every object whose verdict a move of the point can change, read
    before the move: the point; every object that refers to it, directly or
    through other objects (its pipes, their joints, breaks, blocks, leaders
    and marks, the dimensions on any of these, a local offset that displaces
    it and that offset's breaks); the dimensions whose oblique line those
    pipes carry; and every general offset, whose plane the pipes or the
    dimensions may now cross."""
    reach = {name: set() for name in model.COLLECTIONS}
    reach["points"].add(point_id)
    model.close_over_referrers(scheme, reach, model.REFERENCES)
    reach["dimensions"] |= constraints.carried_dimensions(scheme, reach["pipes"])
    reach["offsets"] |= {oid for oid, off in scheme.offsets.items()
                         if off.kind is OffsetKind.GENERAL}
    return reach


# -- offsets -----------------------------------------------------------------

@dataclass
class GeneralOffsetSpec:
    axis: Axis
    plane_coord: float
    magnitude: float  # positive stretches, negative compresses
    toward_positive: bool = True  # displaced side lies on the +axis side


@dataclass
class LocalOffsetSpec:
    ort: Vec3
    magnitude: float
    breaks: list[tuple[int, float]]  # (pipe id, break position from start)
    displaced_seed: int              # a point on the displaced side


def add_offset(scheme: Scheme, spec: GeneralOffsetSpec | LocalOffsetSpec) -> int:
    """Add an offset with an auto-assigned letter.

    General offsets auto-create break lines with scheme defaults on every
    crossing pipe; local offsets derive their displaced point set from the
    seed point.  Violations reject the edit unchanged.  Both read every
    pipe and every dimension, so a pipe with a missing end or a dimension
    point without a place refuses the edit by ``dangling-ref``.
    """
    dangling = (model.dangling_pipe_ends(scheme, scheme.pipes)
                + model.unplaced_dimension_points(scheme))
    if dangling:
        raise _rejected(dangling)
    letter = next_offset_letter(scheme)
    if isinstance(spec, GeneralOffsetSpec):
        sign = 1.0 if spec.toward_positive else -1.0
        off = Offset(letter, mul3(spec.axis.unit(), sign), spec.magnitude,
                     OffsetKind.GENERAL, axis=spec.axis, plane_coord=spec.plane_coord)
        legality = constraints.check_general_offset
    else:
        scheme.point(spec.displaced_seed)
        broken = {pipe for pipe, _ in spec.breaks}
        for pipe in broken:
            scheme.pipe(pipe)  # raises on an unknown id, before any change
        off = Offset(letter, spec.ort, spec.magnitude, OffsetKind.LOCAL,
                     displaced_points=_reachable_points(scheme, spec.displaced_seed, broken))
        breaks = spec.breaks
        legality = constraints.check_local_offset
    oid = scheme.insert("offsets", off)
    if isinstance(spec, GeneralOffsetSpec):  # a break line on every pipe the plane crosses
        breaks = [(pid, 0.0) for pid in geometry.OffsetView(scheme).crossing_pipes(oid)]
    st = scheme.settings.breaks
    problems: list[Violation] = []
    model._check_offset(problems, oid, off, {})  # its letter is a new one
    for pipe, pos in breaks:
        brk = BreakLine(pipe, oid, st.paper_len, pos, st.label_shift_axial, st.label_shift_normal)
        bid = scheme.insert("breaks", brk)
        model._check_break(problems, scheme, f"break:{bid}", brk)
    view = geometry.OffsetView(scheme)
    problems += legality(view, oid) + constraints.check_offset_dimensions(view, oid)
    if problems:
        _remove_offset(scheme, oid)
        raise _rejected(problems)
    return oid


def _remove_offset(scheme: Scheme, offset_id: int) -> None:
    for bid in [b for b, brk in scheme.breaks.items() if brk.offset == offset_id]:
        del scheme.breaks[bid]
    scheme.offsets.pop(offset_id, None)


def _reachable_points(scheme: Scheme, seed: int, broken_pipes: set[int]) -> set[int]:
    adjacency: dict[int, list[int]] = {}
    for pid, pipe in scheme.pipes.items():
        if pid in broken_pipes:
            continue
        adjacency.setdefault(pipe.start, []).append(pipe.end)
        adjacency.setdefault(pipe.end, []).append(pipe.start)
    seen = {seed}
    stack = [seed]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# -- blocks -------------------------------------------------------------------

def place_block(scheme: Scheme, symbol: int, pipe: int, dist: float,
                flip: bool = False, updir: UpDir = UpDir.ZP,
                style: LineStyle | None = None,
                pipe2: int | None = None, pipe3: int | None = None,
                stretch: float | None = None) -> int:
    """Place a library symbol on a pipe; coverage is derived at render time."""
    sym = scheme.symbol(symbol)
    if style is None:
        st = scheme.settings.block.style
        style = LineStyle(st.color, st.line_type)
    blk = model.Block(symbol, pipe, dist, pipe2, pipe3, style, flip, updir,
                      sym.stretch_default if stretch is None else stretch)
    problems = constraints.check_block(scheme, "block:new", blk)
    if problems:
        raise _rejected(problems)
    return scheme.insert("blocks", blk)


# -- cascade deletion ---------------------------------------------------------

# Deleting an object takes along every object with a single reference to it
# (one id, or a dimension's direction pipe), and drops it from id lists and
# sets.  Texts are not cascaded: a survival rule decides.
_MEMBERS = tuple(ref for ref in model.REFERENCES if ref.shape in (list, set))
_CASCADE = tuple(ref for ref in model.REFERENCES
                 if ref not in _MEMBERS and ref.collection != "texts")


@dataclass
class DeletionReport:
    points: set[int] = field(default_factory=set)
    pipes: set[int] = field(default_factory=set)
    joints: set[int] = field(default_factory=set)
    breaks: set[int] = field(default_factory=set)
    offsets: set[int] = field(default_factory=set)
    blocks: set[int] = field(default_factory=set)
    texts: set[int] = field(default_factory=set)
    pipe_leaders: set[int] = field(default_factory=set)
    block_leaders: set[int] = field(default_factory=set)
    position_marks: set[int] = field(default_factory=set)
    spec_props: set[int] = field(default_factory=set)
    dimensions: set[int] = field(default_factory=set)
    elevation_marks: set[int] = field(default_factory=set)
    slope_marks: set[int] = field(default_factory=set)
    renumbered: dict[int, int] | None = None


def delete_point(scheme: Scheme, point_id: int) -> DeletionReport:
    """Delete a point and everything that transitively depends on it.

    Every object whose single reference (one id, or a dimension's direction
    pipe) resolves into the deleted set goes too, transitively;
    deleted ids are dropped from id lists and sets.  Four survival rules
    settle the rest: a text goes with its last leader, else its main leader
    moves to a surviving one; spec props go when no mark lists them; a local
    offset goes with its last break; a dimension goes when fewer than two of
    its points remain.  Last, once those objects are removed, a dimension
    goes when its orientation is no longer legal for what is left (its
    remaining points, or a line that lost its only carrier pipe).  Afterwards
    the scheme passes ``integrity_check``.
    """
    scheme.point(point_id)
    unplaced = model.unplaced_dimension_points(scheme)
    if unplaced:
        raise _rejected(unplaced)
    gone: dict[str, set[int]] = {name: set() for name in model.COLLECTIONS}
    gone["points"].add(point_id)
    model.close_over_referrers(scheme, gone, _CASCADE)

    # 1. a text goes with its last leader, else keeps or moves its main leader
    survivors: dict[int, list[tuple[TargetKind, int]]] = {}
    lost: set[tuple[TargetKind, int]] = set()
    for kind, name in model.LEADERS.items():
        for lid, ld in getattr(scheme, name).items():
            if lid in gone[name]:
                lost.add((kind, lid))
            else:
                survivors.setdefault(ld.text, []).append((kind, lid))
    for tid, txt in scheme.texts.items():
        if tid not in survivors:
            gone["texts"].add(tid)
        elif txt.main_leader in lost:
            txt.main_leader = survivors[tid][0]
            _fix_slope_format(scheme, tid, txt)

    # 2. spec props go when no mark lists them
    listed = {ref for mid, mark in scheme.position_marks.items()
              if mid not in gone["position_marks"] for ref in mark.props}
    gone["spec_props"] = set(scheme.spec_props) - listed

    # 3. a local offset goes with its last break
    cut = {b.offset for bid, b in scheme.breaks.items() if bid not in gone["breaks"]}
    gone["offsets"] = {oid for oid, off in scheme.offsets.items()
                       if off.kind is OffsetKind.LOCAL and oid not in cut}

    def kept(target: str, oid: int) -> int | None:
        return None if oid in gone[target] else oid

    npoints = {did: len(dim.points) for did, dim in scheme.dimensions.items()}

    for ref in _MEMBERS:
        for obj in getattr(scheme, ref.collection).values():
            if any(oid in gone[target] for target, oid in ref.ids(obj)):
                setattr(obj, ref.field, ref.mapped(obj, kept))

    # 4. a dimension goes when fewer than two of its points remain
    gone["dimensions"] |= {did for did, dim in scheme.dimensions.items()
                           if len(dim.points) < 2}

    # nothing refers to what the rules removed, so there is no further cascade
    for name, ids in gone.items():
        for oid in ids:
            scheme.remove(name, oid)

    # 5. a dimension goes when what is left gives it no legal orientation.
    # One that kept its points keeps each offset's verdict on them (rule (f)),
    # so only its shape and its line's carrier pipes are tested again
    view = geometry.OffsetView(scheme)
    for did, dim in list(scheme.dimensions.items()):
        offsets = () if len(dim.points) == npoints[did] else None
        if constraints.check_dimension_orientation(view, f"dim:{did}", dim, offsets):
            del scheme.dimensions[did]
            gone["dimensions"].add(did)

    rep = DeletionReport(**{name: ids for name, ids in gone.items() if name != "symbols"})
    if scheme.settings.autonumber and rep.spec_props:
        rep.renumbered = renumber_positions(scheme)
    return rep


def _fix_slope_format(scheme: Scheme, text_id: int, txt) -> None:
    has_sym = any(model.SLOPE_LEFT in ln or model.SLOPE_RIGHT in ln
                  for ln in txt.lines)
    want = txt.main_leader[0] is TargetKind.PIPE and has_sym
    if want and txt.slope_format is None:
        txt.slope_format = scheme.settings.slope.format
    if not want:
        txt.slope_format = None


# -- position numbering --------------------------------------------------------

def renumber_positions(scheme: Scheme) -> dict[int, int] | None:
    """Relabel positions order-preservingly onto 1..K; None in manual mode."""
    if not scheme.settings.autonumber:
        return None
    old = sorted(p.position for p in scheme.spec_props.values())
    mapping = {pos: i + 1 for i, pos in enumerate(old)}
    for props in scheme.spec_props.values():
        props.position = mapping[props.position]
    return mapping


# -- slope texts ----------------------------------------------------------------

@dataclass
class SlopeSyncReport:
    updated: int = 0
    flagged: list[int] = field(default_factory=list)  # text ids not updatable


def pipe_slope(scheme: Scheme, pipe_id: int) -> tuple[float, float]:
    """(rise, horizontal run) of a pipe, nature mm."""
    a, b = model.pipe_ends(scheme, pipe_id)
    return b[2] - a[2], math.hypot(b[0] - a[0], b[1] - a[1])


def format_slope(rise: float, run: float, fmt: SlopeFormat, precision: int) -> str | None:
    """Slope value text, or None when the format cannot express it."""
    if run == 0.0:
        if fmt is SlopeFormat.ANGLE:
            return f"{90.0:.{precision}f}" + model.DEGREE
        return None  # ratio/percent cannot express a vertical pipe
    slope = abs(rise) / run
    if slope == 0.0:
        if fmt is SlopeFormat.ANGLE:
            return "0" + model.DEGREE
        if fmt is SlopeFormat.PERCENT:
            return "0%"
        return None  # a level pipe has no 1:n ratio
    if fmt is SlopeFormat.ANGLE:
        return f"{math.degrees(math.atan(slope)):.{precision}f}" + model.DEGREE
    if fmt is SlopeFormat.PERCENT:
        return f"{slope * 100.0:.{precision}f}%"
    return f"1:{1.0 / slope:.{precision}f}"


_VALUE_RE = re.compile(rf"( ?)([0-9][0-9.:]*[%{model.DEGREE}]?|0[%{model.DEGREE}]?)")


def _rewrite_slope_line(line: str, value: str) -> tuple[str, bool]:
    for sym in (model.SLOPE_LEFT, model.SLOPE_RIGHT):
        idx = line.find(sym)
        if idx >= 0:
            head, rest = line[:idx + 1], line[idx + 1:]
            m = _VALUE_RE.match(rest)
            if m:
                return head + m.group(1) + value + rest[m.end():], True
            return head + value + rest, True
    return line, False


def sync_slope_texts(scheme: Scheme, changed_pipe: int) -> SlopeSyncReport:
    """Rewrite the slope value in every text led from the changed pipe.

    The direction symbol is kept as authored; only the numeric value changes,
    formatted per the text's stored format at the scheme-wide precision.
    Texts whose format cannot express the new slope are flagged untouched.
    """
    scheme.pipe(changed_pipe)
    rep = SlopeSyncReport()
    rise, run = pipe_slope(scheme, changed_pipe)
    precision = scheme.settings.slope.precision
    for tid, txt in scheme.texts.items():
        if txt.slope_format is None:
            continue
        kind, lid = txt.main_leader
        if kind is not TargetKind.PIPE:
            continue
        leader = scheme.pipe_leaders.get(lid)
        if leader is None or leader.pipe != changed_pipe:
            continue
        value = format_slope(rise, run, txt.slope_format, precision)
        if value is None:
            rep.flagged.append(tid)
            continue
        changed = False
        for i, line in enumerate(txt.lines):
            new_line, hit = _rewrite_slope_line(line, value)
            if hit:
                txt.lines[i] = new_line
                changed = True
        if changed:
            rep.updated += 1
    return rep
