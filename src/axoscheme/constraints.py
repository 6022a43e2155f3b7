"""Legality calculus: pipe overlap, offset legality, dimension
orientation legality and block orientation enumeration.

Everything here is a pure function over a scheme snapshot; the checks return
``model.Violation`` lists, empty when the subject is legal; both
``model.integrity_check`` and the edits run them.  The offset checks and the
dimension calculus take a ``geometry.OffsetView`` of the scheme, the one
that decides, for layout as well, which side of an offset a point,
dimension point or pipe position lies on; the caller builds it once.
Collinearity and coplanarity use a tolerance of 1e-6 relative to the
point-set diameter; unit-vector parallelism uses an absolute 1e-9.
"""

from . import model
from .geometry import OffsetView
from .model import (
    MERGE_EPS,
    Attach,
    Axis,
    DimDirection,
    DimPoint,
    Scheme,
    UpDir,
    Violation,
)
from .vectors import Vec3, cross3, dist3, dot3, mul3, norm3, sub3, unit3

REL_TOL = 1e-6       # relative to point-set diameter
PARALLEL_TOL = 1e-9  # for unit vectors


# -- pipe overlap -----------------------------------------------------------

def check_pipe_overlap(scheme: Scheme, start: int, end: int) -> list[Violation]:
    """Validate a candidate pipe between two existing points.

    A violation is reported for a zero-length candidate or for a collinear
    overlap of positive length with any stored pipe; a shared endpoint alone
    is fine.  Only the pipes the scheme's spatial index returns are tested;
    they come in dict order, so the pipe named is the first that overlaps.
    A returned pipe with a missing end is reported by ``dangling-ref``.
    """
    a = scheme.point(start).as_tuple()
    b = scheme.point(end).as_tuple()
    subject = f"pipe:{start}-{end}"
    if start == end or dist3(a, b) < model.MERGE_EPS:
        return [Violation("pipe-zero-length", subject, "zero-length pipes are forbidden")]
    near = scheme.index().pipes_near(a, b)
    dangling = model.dangling_pipe_ends(scheme, {pid: scheme.pipes[pid] for pid in near})
    if dangling:
        return dangling
    for pid in near:
        b0, b1 = model.pipe_ends(scheme, pid)
        if model._segments_overlap(a, b, b0, b1):
            return [Violation("pipe-overlap", subject, f"collinear overlap with pipe {pid}")]
    return []


# -- offsets ----------------------------------------------------------------

_JOINS = "a pipe joins the displaced and fixed sides without a break"


def check_pipe_offsets(view: OffsetView, start: int, end: int) -> list[Violation]:
    """Offset legality of a candidate pipe between two existing points: it
    has no break line, so it may not cross a general offset plane nor join
    the two sides of a local cut.  One side test per offset."""
    pipe = model.Pipe(start, end)
    out: list[Violation] = []
    for oid, off in view.scheme.offsets.items():
        if not view.crosses(oid, pipe):
            continue
        if view.side(oid).local:
            out.append(Violation("offset-local-cut", f"offset:{oid}", _JOINS))
        else:
            out.append(Violation("offset-missing-break", f"pipe:{start}-{end}",
                                 f"crossing pipe lacks a break line of offset {off.letter!r}"))
    return out


def check_general_offset(view: OffsetView, offset_id: int, pipes=None,
                         dimensions=None) -> list[Violation]:
    """Check every pipe and dimension line crossed by a general offset plane,
    or those among the pipe ids ``pipes`` and the (id, dimension) pairs
    ``dimensions``, each given in dict order.

    Crossing pipes and crossing dimension lines must run along the plane
    normal; crossing pipes must carry a break line of this offset.
    """
    scheme = view.scheme
    off = scheme.offset(offset_id)
    out: list[Violation] = []
    axis_u = off.axis.unit()
    crossing = (view.crossing_pipes(offset_id) if pipes is None else
                [pid for pid in pipes if view.crosses(offset_id, scheme.pipes[pid])])
    for pid in crossing:
        d = model.pipe_direction(scheme, pid)
        if norm3(cross3(d, axis_u)) > PARALLEL_TOL:
            out.append(Violation("offset-oblique-pipe", f"pipe:{pid}",
                                 f"pipe crosses offset {off.letter!r} obliquely"))
        if (offset_id, pid) not in view.breaks:
            out.append(Violation("offset-missing-break", f"pipe:{pid}",
                                 f"crossing pipe lacks a break line of offset {off.letter!r}"))
    for did, dim in scheme.dimensions.items() if dimensions is None else dimensions:
        if not _splits(view, offset_id, dim.points):
            continue
        if dim.dim_dir.along_pipe:
            if model.pipe_length(scheme, dim.dim_dir.pipe) == 0.0:
                continue  # no direction to test (see pipe-zero-length)
            d = model.pipe_direction(scheme, dim.dim_dir.pipe)
        else:
            d = dim.dim_dir.axis.unit()
        if norm3(cross3(d, axis_u)) > PARALLEL_TOL:
            out.append(Violation("offset-oblique-dimension", f"dim:{did}",
                                 f"dimension line crosses offset {off.letter!r} obliquely"))
    return out


def _splits(view: OffsetView, offset_id: int, dim_points: list[DimPoint]) -> bool:
    """Whether the offset moves some but not all of a dimension's points."""
    return len({view.affects_dim_point(offset_id, dp) for dp in dim_points}) == 2


def check_local_offset(view: OffsetView, offset_id: int) -> list[Violation]:
    """Validate that a local offset's breaks form a clean graph cut.

    Removing the broken pipes must separate the displaced point set from its
    complement, with every break sitting on the boundary.  A component mixes
    the two sides exactly when one of its pipes has one end on each.
    """
    scheme = view.scheme
    scheme.offset(offset_id)  # raises on an unknown id

    def cut_violation(message: str) -> list[Violation]:
        return [Violation("offset-local-cut", f"offset:{offset_id}", message)]

    broken = [pid for oid, pid in view.breaks if oid == offset_id]
    if not broken:
        return cut_violation("local offset has no break lines (empty cut)")
    for pid in broken:
        if not view.crosses(offset_id, scheme.pipe(pid)):
            return cut_violation(f"break on pipe {pid} does not lie on the cut boundary")
    if not set(view.crossing_pipes(offset_id)) <= set(broken):
        return cut_violation(_JOINS)
    return []


def check_offset_dimensions(view: OffsetView, offset_id: int) -> list[Violation]:
    """The orientation rule of each dimension the offset splits, with rule
    (f) for this offset alone: on a valid scheme, all that adding it can
    break.  Rule (f) over every offset would give the same answer and
    double the time of ``add_offset`` on a scheme of 35 offsets."""
    return [v for did, dim in view.scheme.dimensions.items()
            if _splits(view, offset_id, dim.points)
            for v in check_dimension_orientation(view, f"dim:{did}", dim, [offset_id])]


# -- dimension orientation legality ----------------------------------------

def _diameter(coords: list[Vec3]) -> float:
    best = 0.0
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            d = dist3(a, b)
            if d > best:
                best = d
    return best


def _line_direction(coords: list[Vec3], tol: float) -> Vec3 | None:
    """Unit direction when all points are collinear, else None."""
    base = coords[0]
    far = None
    far_d = 0.0
    for c in coords[1:]:
        d = dist3(base, c)
        if d > far_d:
            far_d = d
            far = c
    if far is None or far_d <= tol:
        return None
    u = unit3(sub3(far, base))
    for c in coords:
        if norm3(cross3(sub3(c, base), u)) > tol:
            return None
    return u


def _plane_normal(coords: list[Vec3], tol: float) -> Vec3 | None:
    """Unit normal when all points are coplanar (and not collinear), else None."""
    base = coords[0]
    normal = None
    best = 0.0
    for i in range(1, len(coords)):
        for j in range(i + 1, len(coords)):
            n = cross3(sub3(coords[i], base), sub3(coords[j], base))
            m = norm3(n)
            if m > best:
                best = m
                normal = n
    if normal is None or best <= tol * tol:
        return None
    nu = unit3(normal)
    for c in coords:
        if abs(dot3(sub3(c, base), nu)) > tol:
            return None
    return nu


def _axis_of(u: Vec3, tol: float) -> Axis | None:
    for axis in Axis:
        if norm3(cross3(u, axis.unit())) <= tol:
            return axis
    return None


def _pipes_on_line(scheme: Scheme, base: Vec3, u: Vec3, tol: float,
                   pipe_ids=None) -> list[int]:
    """The pipes, of every pipe or of ``pipe_ids``, that carry the line."""
    found = []
    for pid in scheme.pipes if pipe_ids is None else pipe_ids:
        a, b = model.pipe_ends(scheme, pid)
        d = sub3(b, a)
        if norm3(d) == 0.0:
            continue
        du = unit3(d)
        if norm3(cross3(du, u)) > tol:
            continue
        if norm3(cross3(sub3(a, base), u)) > tol:
            continue
        found.append(pid)
    return found


def _tolerance(coords: list[Vec3]) -> float:
    """The collinearity and coplanarity tolerance of a dimension's points."""
    return max(REL_TOL * _diameter(coords), model.MERGE_EPS)


def carried_dimensions(scheme: Scheme, pipe_ids) -> set[int]:
    """Ids of the dimensions whose points lie on an oblique line that one of
    ``pipe_ids`` carries.  Their legal orientations depend on those pipes
    through ``_pipes_on_line``, although they refer to none of them."""
    found: set[int] = set()
    if not pipe_ids:
        return found
    for did, dim in scheme.dimensions.items():
        if len(dim.points) < 2:
            continue
        coords = [model.dim_point_at(scheme, dp) for dp in dim.points]
        tol = _tolerance(coords)
        line_u = _line_direction(coords, tol)
        if (line_u is not None and _axis_of(line_u, PARALLEL_TOL) is None
                and _pipes_on_line(scheme, coords[0], line_u, tol, pipe_ids)):
            found.add(did)
    return found


def legal_dimension_orientations(
    view: OffsetView, dim_points: list[DimPoint], offsets=None
) -> set[tuple[Axis, DimDirection]]:
    """All (extension axis, dimension direction) pairs legal for the points
    of ``view.scheme``, with rule (f) over the offset ids in ``offsets``
    (default: every offset of the scheme)."""
    scheme = view.scheme
    coords = [model.dim_point_at(scheme, dp) for dp in dim_points]
    empty: set[tuple[Axis, DimDirection]] = set()
    if len(coords) < 2:
        return empty
    tol = _tolerance(coords)

    # (a) coincident points are always illegal
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            if dist3(a, b) < tol:
                return empty

    line_u = _line_direction(coords, tol)

    # (f) offsets moving a strict subset must stay within the plane/axis
    for oid in scheme.offsets if offsets is None else offsets:
        if not _splits(view, oid, dim_points):
            continue
        ort = scheme.offsets[oid].ort
        if line_u is not None:
            if norm3(cross3(ort, line_u)) > PARALLEL_TOL:
                return empty
        else:
            normal = _plane_normal(coords, tol)
            if normal is None or abs(dot3(ort, normal)) > PARALLEL_TOL:
                return empty

    if line_u is None:
        # non-collinear: the plane must be parallel to a coordinate plane
        normal = _plane_normal(coords, tol)
        if normal is None:
            return empty  # non-coplanar
        perp = _axis_of(normal, PARALLEL_TOL)
        if perp is None:
            return empty  # plane not parallel to a coordinate plane
        in_plane = [a for a in Axis if a is not perp]
        return {
            (in_plane[0], DimDirection(axis=in_plane[1])),
            (in_plane[1], DimDirection(axis=in_plane[0])),
        }

    # collinear cases
    axis = _axis_of(line_u, PARALLEL_TOL)
    if axis is not None:
        others = [a for a in Axis if a is not axis]
        return {(e, DimDirection(axis=axis)) for e in others}

    pipes = _pipes_on_line(scheme, coords[0], line_u, tol)
    if not pipes:
        return empty  # a free oblique line is not a legal carrier
    zero_components = [a for a in Axis if abs(line_u[a.index]) <= PARALLEL_TOL]
    result: set[tuple[Axis, DimDirection]] = set()
    if not zero_components:
        # parallel to no coordinate plane: dimension only along the pipe
        for pid in pipes:
            for ext in Axis:
                result.add((ext, DimDirection(pipe=pid)))
        return result
    # parallel to exactly one coordinate plane: its perpendicular axis is out
    perp = zero_components[0]
    in_plane = [a for a in Axis if a is not perp]
    for pid in pipes:
        for ext in in_plane:
            result.add((ext, DimDirection(pipe=pid)))
    result.add((in_plane[0], DimDirection(axis=in_plane[1])))
    result.add((in_plane[1], DimDirection(axis=in_plane[0])))
    return result


def check_dimension_orientation(view: OffsetView, subject: str, dim: model.Dimension,
                                offsets=None) -> list[Violation]:
    """A dimension of two or more points must have a legal orientation;
    ``offsets`` as in ``legal_dimension_orientations``."""
    if (dim.ext_axis, dim.dim_dir) in legal_dimension_orientations(view, dim.points, offsets):
        return []
    how = "pipe" if dim.dim_dir.along_pipe else dim.dim_dir.axis.value
    return [Violation("dim-orientation", subject, f"({dim.ext_axis.value}, {how})"
                      " is not a legal orientation for these points")]


# -- block orientation ------------------------------------------------------

_UPDIR_ORDER = (UpDir.XP, UpDir.XM, UpDir.YP, UpDir.YM, UpDir.ZP, UpDir.ZM,
                UpDir.PIPE2, UpDir.PIPE3)
_NEGATIVE_UPDIRS = (UpDir.XM, UpDir.YM, UpDir.ZM)


def attached_pipe_direction(scheme: Scheme, anchor: Vec3, pipe_id: int) -> Vec3:
    """Unit direction of an attached pipe, pointing away from the anchor."""
    a, b = model.pipe_ends(scheme, pipe_id)
    if dist3(anchor, a) <= dist3(anchor, b):
        return unit3(sub3(b, a))
    return unit3(sub3(a, b))


def _updir_target(scheme: Scheme, updir: UpDir, anchor: Vec3,
                  pipe2: int | None, pipe3: int | None) -> Vec3 | None:
    if updir.is_axis:
        return updir.axis_vector()
    ref = pipe2 if updir is UpDir.PIPE2 else pipe3
    if ref is None:
        return None
    return attached_pipe_direction(scheme, anchor, ref)


def enumerate_block_orientations(
    scheme: Scheme,
    symbol_id: int,
    pipe_id: int,
    pipe2: int | None = None,
    pipe3: int | None = None,
    dist_from_start: float = 0.0,
) -> list[tuple[bool, UpDir]]:
    """All legal (flip, updir) pairs for placing a symbol on a pipe.

    Updir choices parallel to the host pipe are excluded (their normal is
    degenerate); the symbol's symmetry flags quotient the list, keeping the
    first representative in enumeration order.  Never exceeds 16 entries.
    """
    sym = scheme.symbol(symbol_id)
    host_u = model.pipe_direction(scheme, pipe_id)
    anchor = model.pipe_point_at(scheme, pipe_id, dist_from_start)

    updirs: list[UpDir] = []
    for ud in _UPDIR_ORDER:
        if ud is UpDir.PIPE2 and (pipe2 is None or sym.attach is Attach.AXIAL):
            continue
        if ud is UpDir.PIPE3 and (pipe3 is None or sym.attach is not Attach.TEE):
            continue
        if sym.sym_normal and ud in _NEGATIVE_UPDIRS:
            continue
        target = _updir_target(scheme, ud, anchor, pipe2, pipe3)
        if target is None:
            continue
        if norm3(cross3(target, host_u)) <= PARALLEL_TOL:
            continue  # degenerate: no normal component
        updirs.append(ud)

    flips = (False,) if sym.sym_axis else (False, True)
    return [(flip, ud) for flip in flips for ud in updirs]


def resolve_block_frame(scheme: Scheme, block_id: int):
    """Orthonormal right-handed frame (origin, ex, ey, ez) of a placed block.

    ``ex`` follows the host pipe (negated by flip); ``ey`` is the updir
    target's component orthogonal to ``ex`` and makes an acute angle with it.
    """
    blk = scheme.block(block_id)
    origin = model.pipe_point_at(scheme, blk.pipe, blk.dist_from_start)
    ex = model.pipe_direction(scheme, blk.pipe)
    if blk.flip:
        ex = mul3(ex, -1.0)
    target = _updir_target(scheme, blk.updir, origin, blk.pipe2, blk.pipe3)
    if target is None:
        raise model.EditError(f"block {block_id}: updir target is missing")
    perp = sub3(target, mul3(ex, dot3(target, ex)))
    n = norm3(perp)
    if n <= PARALLEL_TOL:
        raise model.EditError(f"block {block_id}: updir parallel to the pipe axis")
    ey = mul3(perp, 1.0 / n)
    ez = cross3(ex, ey)
    return origin, ex, ey, ez


def check_block(scheme: Scheme, subject: str, blk: model.Block) -> list[Violation]:
    """The rules of a placed block, stored or a candidate."""
    out: list[Violation] = []

    def bad(rule: str, message: str) -> None:
        out.append(Violation(rule, subject, message))

    sym = scheme.symbols[blk.symbol]
    needs2 = sym.attach in (Attach.ANGULAR, Attach.TEE)
    needs3 = sym.attach is Attach.TEE
    if (blk.pipe2 is not None) != needs2:
        bad("block-pipes", "pipe2 must be present iff attach is angular/tee")
    if (blk.pipe3 is not None) != needs3:
        bad("block-pipes", "pipe3 must be present iff attach is tee")
    if not (0.0 <= blk.dist_from_start <= model.pipe_length(scheme, blk.pipe) + MERGE_EPS):
        bad("block-dist", "attachment point outside the host pipe")
    else:
        anchor = model.pipe_point_at(scheme, blk.pipe, blk.dist_from_start)
        for ref in (blk.pipe2, blk.pipe3):
            if ref is None:
                continue
            e0, e1 = model.pipe_ends(scheme, ref)
            if min(dist3(anchor, e0), dist3(anchor, e1)) > MERGE_EPS:
                bad("block-pipes", f"attached pipe {ref} does not meet the attachment point")
    if blk.updir in (UpDir.PIPE2, UpDir.PIPE3) and sym.attach is Attach.AXIAL:
        bad("block-updir", "pipe updir requires angular/tee attach")
    if blk.updir is UpDir.PIPE3 and sym.attach is not Attach.TEE:
        bad("block-updir", "pipe3 updir requires tee attach")
    if not blk.stretch > 0:
        bad("block-stretch", "stretch ratio must be positive")
    model._check_style(out, subject, blk.style)
    # a zero-length attached pipe has no direction to orient by; it is
    # reported as pipe-zero-length
    attached_zero = any(model.pipe_length(scheme, ref) == 0.0
                        for ref in (blk.pipe2, blk.pipe3) if ref is not None)
    if model.pipe_length(scheme, blk.pipe) > 0 and not attached_zero:
        legal = enumerate_block_orientations(
            scheme, blk.symbol, blk.pipe, blk.pipe2, blk.pipe3,
            dist_from_start=blk.dist_from_start)
        if (blk.flip, blk.updir) not in legal:
            bad("block-orientation",
                f"orientation ({blk.flip}, {blk.updir.value}) not in the legal set")
    return out
