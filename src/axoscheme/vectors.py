"""Tuple-based 2D/3D vector helpers used across the kernel."""

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
