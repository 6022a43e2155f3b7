"""Tuple-based 2D/3D vector helpers used across the kernel, and the uniform
grid that finds the boxes that may touch among many, at once or one query
at a time."""

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


# -- uniform grid -------------------------------------------------------------

# A box that would be entered in more grid cells than this is paired with
# every other box instead.
GRID_MAX_CELLS = 64


def _cells(lo, hi, cell: float):
    """The keys of the grid cells the box from ``lo`` to ``hi`` enters, or
    None when it cannot be entered: a non-finite bound, or more than
    ``GRID_MAX_CELLS`` cells."""
    try:
        ranges = [range(math.floor(a / cell), math.floor(b / cell) + 1)
                  for a, b in zip(lo, hi)]
    except (OverflowError, ValueError):  # an infinite or NaN bound
        return None
    # counted in Python ints: a box may span more cells than a range holds
    if math.prod(r.stop - r.start for r in ranges) > GRID_MAX_CELLS:
        return None
    return itertools.product(*ranges)


def grid_pairs(boxes: list[tuple[tuple, tuple, float]]) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of boxes that may touch.

    Each box is ``(corner, opposite corner, margin)``: the axis-aligned box
    spanned by two points of any one dimension, grown by ``margin`` on every
    side.  Boxes are entered in a uniform grid whose cell is the median box
    size; two boxes are a candidate pair when they share a cell (Akman,
    Franklin, Kankanhalli & Narayanaswami 1989, "Geometric computing and
    uniform grid technique").  Every pair of boxes that touch is returned:
    box bounds are rounded outward, and a box that cannot be entered
    (non-finite, or over ``GRID_MAX_CELLS`` cells) is paired with every other
    box.
    """
    bounds = []
    for p, q, margin in boxes:
        lo = [math.nextafter(min(a, b) - margin, -math.inf) for a, b in zip(p, q)]
        hi = [math.nextafter(max(a, b) + margin, math.inf) for a, b in zip(p, q)]
        bounds.append((lo, hi))
    # outward rounding makes every finite box size positive
    sizes = sorted(d for d in (max(h - l for l, h in zip(lo, hi)) for lo, hi in bounds)
                   if math.isfinite(d))
    cell = sizes[len(sizes) // 2] if sizes else 1.0

    grid: dict[tuple[int, ...], list[int]] = {}
    loose: list[int] = []
    for i, (lo, hi) in enumerate(bounds):
        cells = _cells(lo, hi, cell)
        if cells is None:
            loose.append(i)
            continue
        for key in cells:
            grid.setdefault(key, []).append(i)

    pairs: set[tuple[int, int]] = set()
    for members in grid.values():
        for k, i in enumerate(members):
            for j in members[k + 1:]:
                pairs.add((i, j))
    for i in loose:
        for j in range(len(boxes)):
            if j != i:
                pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


class BoxGrid:
    """Boxes filed under keys in a uniform grid of a fixed cell, for one
    query box at a time.

    A box is given by its corners of least and greatest coordinates.  Each
    key keeps the rank of its first filing, so that ``near`` answers in
    filing order.  A box that cannot be entered (non-finite, or over
    ``GRID_MAX_CELLS`` cells) is kept loose, and every query returns it.
    """

    def __init__(self, cell: float):
        self.cell = cell
        self.boxes: dict = {}  # key -> (rank, lo, hi)
        self._grid: dict[tuple[int, ...], list] = {}
        self._loose: set = set()
        self._next_rank = 0

    def __len__(self) -> int:
        return len(self.boxes)

    def _enter(self, key, lo, hi) -> None:
        cells = _cells(lo, hi, self.cell)
        if cells is None:
            self._loose.add(key)
            return
        for c in cells:
            self._grid.setdefault(c, []).append(key)

    def _leave(self, key, lo, hi) -> None:
        cells = _cells(lo, hi, self.cell)
        if cells is None:
            self._loose.discard(key)
            return
        for c in cells:
            members = self._grid[c]
            members.remove(key)
            if not members:
                del self._grid[c]

    def add(self, key, lo, hi) -> None:
        """File a box under a new key, or file a key's box again, keeping
        its rank."""
        old = self.boxes.get(key)
        if old is None:
            rank = self._next_rank
            self._next_rank += 1
        else:
            rank = old[0]
            self._leave(key, old[1], old[2])
        self.boxes[key] = (rank, lo, hi)
        self._enter(key, lo, hi)

    def rank(self, key) -> int:
        """The place of a filed key in filing order."""
        return self.boxes[key][0]

    def discard(self, key) -> None:
        old = self.boxes.pop(key, None)
        if old is not None:
            self._leave(key, old[1], old[2])

    def near(self, lo, hi) -> list:
        """Keys of the boxes that may touch the query box, in rank order:
        every filed box that touches it, and every loose box.  When the
        query cannot be entered, every key."""
        cells = _cells(lo, hi, self.cell)
        if cells is None:
            found = set(self.boxes)
        else:
            found = set(self._loose)
            for c in cells:
                for key in self._grid.get(c, ()):
                    if key not in found:
                        _, a, b = self.boxes[key]
                        if all(p <= qh and ql <= q for p, q, ql, qh in zip(a, b, lo, hi)):
                            found.add(key)
        return sorted(found, key=lambda k: self.boxes[k][0])
