"""Tuple-based 2D/3D vector helpers used across the kernel, and the uniform
grid that finds the boxes that may touch among many."""

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
        try:
            first = tuple([math.floor(v / cell) for v in lo])
            last = tuple([math.floor(v / cell) for v in hi])
        except (OverflowError, ValueError):  # an infinite or NaN bound
            loose.append(i)
            continue
        # counted in Python ints: a box may span more cells than a range holds
        if math.prod(b - a + 1 for a, b in zip(first, last)) > GRID_MAX_CELLS:
            loose.append(i)
            continue
        for key in itertools.product(*[range(a, b + 1) for a, b in zip(first, last)]):
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
