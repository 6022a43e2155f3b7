"""Tuple-based 2D/3D vector helpers used across the kernel, and the uniform
grid that finds the segments that may touch among many, at once or one
probe at a time."""

import itertools
import math

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]


def add3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mul3(a: Vec3, k: float) -> Vec3:
    return (a[0] * k, a[1] * k, a[2] * k)


def dot3(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm3(a: Vec3) -> float:
    return math.sqrt(dot3(a, a))


def dist3(a: Vec3, b: Vec3) -> float:
    return norm3(sub3(a, b))


def unit3(a: Vec3) -> Vec3:
    n = norm3(a)
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def lerp3(a: Vec3, b: Vec3, t: float) -> Vec3:
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t, a[2] + (b[2] - a[2]) * t)


def along3(a: Vec3, b: Vec3, length: float, t: float) -> Vec3:
    """Point ``t`` from ``a`` toward ``b``, ``length = dist3(a, b)`` apart."""
    return a if length == 0.0 else lerp3(a, b, t / length)


def add2(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])


def sub2(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def mul2(a: Vec2, k: float) -> Vec2:
    return (a[0] * k, a[1] * k)


def dot2(a: Vec2, b: Vec2) -> float:
    return a[0] * b[0] + a[1] * b[1]


def norm2(a: Vec2) -> float:
    return math.hypot(a[0], a[1])


def dist2(a: Vec2, b: Vec2) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def unit2(a: Vec2) -> Vec2:
    n = norm2(a)
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize zero vector")
    return (a[0] / n, a[1] / n)


def rot90(a: Vec2) -> Vec2:
    """Counter-clockwise quarter turn."""
    return (-a[1], a[0])


# -- segment grid -------------------------------------------------------------
#
# One kernel finds the segments that may touch, among many at once
# (``grid_pairs``) or for one probe at a time (``SegmentGrid.near``).  Each
# segment, grown by its margin, is filed in the cells of a uniform grid that
# it passes through, found slab by slab along its longest axis (Amanatides &
# Woo 1987, "A fast voxel traversal algorithm for ray tracing"; Ericson 2004,
# *Real-Time Collision Detection*, §7.2).  A point is a segment of length
# zero, and a 2D segment lies in the plane z = 0.  A candidate met again in
# another cell is skipped by a per-segment last-seen mark ("mailboxing"),
# and only candidates whose grown boxes touch are returned.

_INF = math.inf


def _grown(p, q, margin: float) -> tuple:
    """The box of the segment from ``p`` to ``q`` grown by ``margin`` on every
    side, (x0, y0, z0, x1, y1, z1), its bounds rounded outward unless the
    margin is 0; a 2D segment's z bounds are 0.  A NaN end gives a NaN
    bound."""
    if len(p) == 2:
        (a, b), (c, d) = p, q
        e = f = 0.0
    else:
        (a, b, e), (c, d, f) = p, q
    box = (a if a < c else c, b if b < d else d, e if e < f else f,
           c if a < c else a, d if b < d else b, f if e < f else e)
    if margin == 0.0:  # exact: nothing to round
        return box
    up, m = math.nextafter, margin
    z = (up(box[2] - m, -_INF), up(box[5] + m, _INF)) if len(p) == 3 else (0.0, 0.0)
    return (up(box[0] - m, -_INF), up(box[1] - m, -_INF), z[0],
            up(box[3] + m, _INF), up(box[4] + m, _INF), z[1])


def _cells(p, q, margin: float, box: tuple, cell: float, limit: int) -> list | None:
    """The keys of the cells of side ``cell`` that the segment from ``p`` to
    ``q``, grown by ``margin`` to ``box``, passes through, or None when the
    segment is loose: its box is not finite, or it enters more than
    ``limit`` cells.

    A point, a segment along an axis, or one whose box spans at most four
    cells enters the cells of its box.  Any other is followed slab by slab
    along the axis it runs farthest on: in each slab it enters the cells its
    grown part there spans on the other axes.  The slabs and those spans are
    widened by 1e-12 of the box's greatest coordinate, far more than their
    rounding, so every cell that a point of the grown segment falls in, as
    ``floor(x / cell)`` places it, is entered.
    """
    floor = math.floor
    try:
        x0, y0, z0, x1, y1, z1 = lo = [floor(v / cell) for v in box]
    except (OverflowError, ValueError):  # an infinite or NaN bound
        return None
    n = (x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1)
    if n <= 4:
        if n > limit:
            return None
        if n <= 2:  # the cells of the box's corners
            return [(x0, y0, z0)] if n == 1 else [(x0, y0, z0), (x1, y1, z1)]
        return list(itertools.product(range(x0, x1 + 1), range(y0, y1 + 1), range(z0, z1 + 1)))
    # the grown segment enters every slab of its box along each axis
    if max(x1 - x0, y1 - y0, z1 - z0) >= limit:
        return None
    ranges = [range(x0, x1 + 1), range(y0, y1 + 1), range(z0, z1 + 1)]
    d = [b - a for a, b in zip(p, q)] + [0.0] * (3 - len(p))
    if (d[0] != 0.0) + (d[1] != 0.0) + (d[2] != 0.0) <= 1:
        return None if n > limit else list(itertools.product(*ranges))

    p = (*p, 0.0) if len(p) == 2 else p
    ax = max(range(3), key=lambda k: abs(d[k]))
    run = d[ax]
    pad = 1e-12 * max(map(abs, box)) + 1e-300
    keys: list = []
    hi = lo[3:]
    for i in range(lo[ax], hi[ax] + 1):
        # the parameters where the segment is within margin of slab i
        t0 = (i * cell - pad - margin - p[ax]) / run
        t1 = ((i + 1) * cell + pad + margin - p[ax]) / run
        if t0 > t1:
            t0, t1 = t1, t0
        t0 = max(t0, 0.0)
        t1 = min(t1, 1.0)
        if t0 > t1:
            continue
        for k in range(3):
            if k == ax:
                ranges[k] = range(i, i + 1)
                continue
            c0 = p[k] + t0 * d[k]
            c1 = p[k] + t1 * d[k]
            if c0 > c1:
                c0, c1 = c1, c0
            ranges[k] = range(max(lo[k], floor((c0 - margin - pad) / cell)),
                              min(hi[k], floor((c1 + margin + pad) / cell)) + 1)
        keys += itertools.product(*ranges)
        if len(keys) > limit:
            return None
    return keys


def _median_cell(boxes: list[tuple]) -> float:
    """The median extent of the finite boxes of positive size, or 1.0 when
    there is none."""
    sizes = sorted(s for s in (max(b[3] - b[0], b[4] - b[1], b[5] - b[2]) for b in boxes)
                   if 0.0 < s < _INF)
    return sizes[len(sizes) // 2] if sizes else 1.0


def _finite(box: tuple) -> bool:
    return all(map(math.isfinite, box))


def _touch(a: tuple, b: tuple) -> bool:
    """Whether two boxes of ``_grown`` touch."""
    return (a[0] <= b[3] and b[0] <= a[3] and a[1] <= b[4] and b[1] <= a[4]
            and a[2] <= b[5] and b[2] <= a[5])


class SegmentGrid:
    """Segments filed under keys in one uniform grid, for one probe at a
    time.

    A segment is its two ends and a margin.  It is filed in the cells its
    grown path enters (``_cells``), unless it is loose: a non-finite segment,
    or one that would enter more cells than the grid holds segments.  A probe
    tests each loose segment's box, which costs no more than filing it
    would, and a non-finite segment is returned by every probe.  The cell,
    unless given, is the median extent of the grown boxes of the segments
    filed at construction, so that a segment of common length enters one to
    four cells.  Each key keeps the rank of its first filing, and probes
    answer in rank order.
    """

    def __init__(self, segments=(), cell: float | None = None):
        """File ``segments``, (key, p, q, margin) each, of distinct keys, in
        one pass."""
        segments = list(segments)
        boxes = [_grown(p, q, m) for _, p, q, m in segments]
        cell = self.cell = _median_cell(boxes) if cell is None else cell
        n = len(segments)
        self._keys = [seg[0] for seg in segments]  # rank -> key, None once discarded
        self._rank = {key: r for r, key in enumerate(self._keys)}
        self._boxes = boxes                        # rank -> grown box
        # rank -> cell keys, None when loose
        self._cells = [_cells(p, q, m, box, cell, n) for (_, p, q, m), box in zip(segments, boxes)]
        self._loose = {r for r, cells in enumerate(self._cells) if cells is None}
        self._mark = [-1] * n                      # rank -> the last probe that met it
        self._probe = 0
        self._grid: dict[tuple, list[int]] = {}
        for r, cells in enumerate(self._cells):
            self._enter(r, cells or ())

    def __len__(self) -> int:
        return len(self._rank)

    def _enter(self, rank: int, cells) -> None:
        grid = self._grid
        for c in cells:
            members = grid.get(c)
            if members is None:
                grid[c] = [rank]
            else:
                members.append(rank)

    def _unfile(self, rank: int) -> None:
        self._loose.discard(rank)
        for c in self._cells[rank] or ():
            members = self._grid[c]
            members.remove(rank)
            if not members:
                del self._grid[c]

    def add(self, key, p, q, margin: float = 0.0) -> None:
        """File a segment under a new key, or file a key's segment again,
        keeping its rank."""
        rank = self._rank.get(key)
        if rank is None:
            rank = self._rank[key] = len(self._keys)
            self._keys.append(key)
            self._boxes.append(None)
            self._cells.append(None)
            self._mark.append(-1)
        else:
            self._unfile(rank)
        box = self._boxes[rank] = _grown(p, q, margin)
        cells = self._cells[rank] = _cells(p, q, margin, box, self.cell, len(self._rank))
        if cells is None:
            self._loose.add(rank)
        else:
            self._enter(rank, cells)

    def rank(self, key) -> int:
        """The place of a filed key in filing order."""
        return self._rank[key]

    def discard(self, key) -> None:
        rank = self._rank.pop(key, None)
        if rank is not None:
            self._unfile(rank)
            self._keys[rank] = self._cells[rank] = None

    def near(self, p, q, margin: float = 0.0) -> list:
        """Keys of the filed segments that may touch the probe segment from
        ``p`` to ``q`` grown by ``margin``, in rank order: every one whose
        grown path meets the probe's and whose box touches it, and every
        non-finite one.  A loose probe tests every box; a non-finite probe
        returns every key."""
        keys, boxes = self._keys, self._boxes
        box = _grown(p, q, margin)
        if not _finite(box):
            return [k for k in keys if k is not None]
        cells = _cells(p, q, margin, box, self.cell, len(self._rank))
        if cells is None:
            found = [r for r, k in enumerate(keys) if k is not None]
        else:
            self._probe += 1
            probe, mark, grid = self._probe, self._mark, self._grid
            found = list(self._loose)
            for c in cells:
                for r in grid.get(c, ()):
                    if mark[r] != probe:
                        mark[r] = probe
                        found.append(r)
            found.sort()
        return [keys[r] for r in found if _touch(boxes[r], box) or not _finite(boxes[r])]


def grid_pairs(segments: list[tuple[tuple, tuple, float]]) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of the segments that may touch.

    Each segment is ``(p, q, margin)``: the segment from ``p`` to ``q``, of
    two or three dimensions, grown by ``margin`` on every side.  Every pair
    of segments that come within the sum of their margins of each other on
    every axis is returned, and no pair whose grown boxes do not touch,
    except a pair with a non-finite segment, which is always returned.  The
    segments are filed one by one, as ``SegmentGrid`` files them, each
    meeting those filed before it in the cells it enters; so each pair is
    met once per shared cell, and each segment's later partners come in
    order.  A loose segment is tested against every other.
    """
    boxes = [_grown(p, q, m) for p, q, m in segments]
    cell = _median_cell(boxes)
    n = len(segments)
    later: list[list[int]] = [[] for _ in range(n)]  # later[i]: the j > i paired with i
    mark = [-1] * n  # mark[i]: the last segment that met segment i
    grid: dict[tuple, list[int]] = {}
    loose = []
    for j, (p, q, m) in enumerate(segments):
        cells = _cells(p, q, m, boxes[j], cell, n)
        if cells is None:
            loose.append(j)
            continue
        x0, y0, z0, x1, y1, z1 = boxes[j]
        for c in cells:
            members = grid.get(c)
            if members is None:
                grid[c] = [j]
                continue
            for i in members:
                if mark[i] != j:
                    mark[i] = j
                    a0, b0, c0, a1, b1, c1 = boxes[i]
                    if a0 <= x1 and x0 <= a1 and b0 <= y1 and y0 <= b1 and c0 <= z1 and z0 <= c1:
                        later[i].append(j)
            members.append(j)
    if loose:
        finite = list(map(_finite, boxes))
        done: set[int] = set()
        for j in loose:
            done.add(j)
            box = boxes[j]
            for i in range(n):
                if i in done:
                    continue
                if finite[i] and finite[j] and not _touch(boxes[i], box):
                    continue
                later[min(i, j)].append(max(i, j))
        for partners in later:
            partners.sort()
    return [(i, j) for i, partners in enumerate(later) for j in partners]
