"""Deterministic SVG serialization of the drawing primitive list.

Coordinates are printed with fixed three-decimal formatting and a fixed
attribute order, so identical primitives give byte-identical documents on
every platform.  Uses the SVG 1.1 subset: path, circle, text, g.
"""

import math

from . import layout, model
from .layout import (
    ArcStroke,
    DotRun,
    GlyphText,
    Marker,
    MarkerKind,
    Stroke,
    WavePair,
)
from .model import LineType

# 16-colour palette (classic CAD indices); documented in docs/FORMATS.md.
PALETTE = (
    "#000000", "#0000aa", "#00aa00", "#00aaaa",
    "#aa0000", "#aa00aa", "#aa5500", "#aaaaaa",
    "#555555", "#5555ff", "#55ff55", "#55ffff",
    "#ff5555", "#ff55ff", "#ffff55", "#ffffff",
)

DASHES = {
    LineType.SOLID: None,
    LineType.DASHED: "4,2",
    LineType.DASH_DOT: "8,2,1.5,2",
    LineType.DOTTED: "0.5,1.5",
}

DOT_RADIUS = 0.25
TICK_ROT = math.sqrt(0.5)  # 45 degrees


MARGIN = 10.0        # paper mm around the drawing's bounds
STROKE_WIDTH = 0.35  # paper mm


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _color(idx: int) -> str:
    return PALETTE[idx % len(PALETTE)]


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _xy(p) -> tuple[float, float]:
    return (p[0], -p[1])  # paper y-up to SVG y-down


class _Doc:
    def __init__(self):
        self.lines: list[str] = []

    def path(self, d: str, color: str, line_type: LineType = LineType.SOLID,
             fill: str = "none", width: float | None = None) -> None:
        w = STROKE_WIDTH if width is None else width
        dash = DASHES[line_type]
        attrs = [f'd="{d}"', f'fill="{fill}"', f'stroke="{color}"',
                 f'stroke-width="{_fmt(w)}"']
        if fill != "none":
            attrs[2] = f'stroke="none"'
            attrs.pop(3)
        if dash is not None:
            attrs.append(f'stroke-dasharray="{dash}"')
        self.lines.append("<path " + " ".join(attrs) + "/>")

    def circle(self, cx: float, cy: float, r: float, color: str) -> None:
        self.lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}"/>')

    def text(self, x: float, y: float, s: str, font: tuple, color: str) -> None:
        face, height, width_factor, slant = font
        attrs = [f'x="{_fmt(x)}"', f'y="{_fmt(y)}"',
                 f'font-family="{_esc(face)}"', f'font-size="{_fmt(height)}"']
        if slant:
            attrs.append('font-style="italic"')
        attrs.append(f'fill="{color}"')
        self.lines.append("<text " + " ".join(attrs) + f">{_esc(s)}</text>")


def _emit_stroke(doc: _Doc, p: Stroke) -> None:
    pts = [_xy(q) for q in p.points]
    d = f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])}" + "".join(
        f" L {_fmt(x)} {_fmt(y)}" for x, y in pts[1:])
    doc.path(d, _color(p.color), p.line_type)


def _emit_arc(doc: _Doc, p: ArcStroke) -> None:
    sweep = (p.a1 - p.a0) % 360.0
    if sweep == 0.0:
        sweep = 360.0
    cx, cy = _xy(p.center)
    if sweep >= 360.0:
        # full circle as two half arcs
        x0, y0 = cx + p.radius, cy
        x1, y1 = cx - p.radius, cy
        d = (f"M {_fmt(x0)} {_fmt(y0)}"
             f" A {_fmt(p.radius)} {_fmt(p.radius)} 0 0 0 {_fmt(x1)} {_fmt(y1)}"
             f" A {_fmt(p.radius)} {_fmt(p.radius)} 0 0 0 {_fmt(x0)} {_fmt(y0)}")
        doc.path(d, _color(p.color), p.line_type)
        return
    a0 = math.radians(p.a0)
    a1 = math.radians(p.a0 + sweep)
    x0 = p.center[0] + p.radius * math.cos(a0)
    y0 = p.center[1] + p.radius * math.sin(a0)
    x1 = p.center[0] + p.radius * math.cos(a1)
    y1 = p.center[1] + p.radius * math.sin(a1)
    (sx0, sy0), (sx1, sy1) = _xy((x0, y0)), _xy((x1, y1))
    large = 1 if sweep > 180.0 else 0
    # counter-clockwise in paper space is sweep flag 0 in y-down SVG space
    d = (f"M {_fmt(sx0)} {_fmt(sy0)}"
         f" A {_fmt(p.radius)} {_fmt(p.radius)} 0 {large} 0 {_fmt(sx1)} {_fmt(sy1)}")
    doc.path(d, _color(p.color), p.line_type)


def _emit_dot_run(doc: _Doc, p: DotRun) -> None:
    n = p.whole_steps()
    length = math.hypot(p.p1[0] - p.p0[0], p.p1[1] - p.p0[1])
    color = _color(p.color)
    if length < 1e-12 or p.step <= 0.0:
        x, y = _xy(p.p0)
        doc.circle(x, y, DOT_RADIUS, color)
        return
    ux = (p.p1[0] - p.p0[0]) / length
    uy = (p.p1[1] - p.p0[1]) / length
    for i in range(n + 1):
        x, y = _xy((p.p0[0] + ux * p.step * i, p.p0[1] + uy * p.step * i))
        doc.circle(x, y, DOT_RADIUS, color)


def _emit_wave_pair(doc: _Doc, p: WavePair) -> None:
    d = p.direction
    r = p.diameter / 4.0
    half = p.diameter / 2.0
    a = (p.center[0] - d[0] * half, p.center[1] - d[1] * half)
    b = p.center
    c = (p.center[0] + d[0] * half, p.center[1] + d[1] * half)
    (ax, ay), (bx, by), (cx, cy) = _xy(a), _xy(b), _xy(c)
    path = (f"M {_fmt(ax)} {_fmt(ay)}"
            f" A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(bx)} {_fmt(by)}"
            f" A {_fmt(r)} {_fmt(r)} 0 0 0 {_fmt(cx)} {_fmt(cy)}")
    doc.path(path, _color(p.color))


def _emit_marker(doc: _Doc, p: Marker) -> None:
    color = _color(p.color)
    dx, dy = p.direction
    if p.kind is MarkerKind.ARROW:
        nx, ny = -dy, dx
        tip = p.at
        base = (tip[0] - dx * p.size, tip[1] - dy * p.size)
        w = p.size / 3.0
        p1 = (base[0] + nx * w, base[1] + ny * w)
        p2 = (base[0] - nx * w, base[1] - ny * w)
        (tx, ty), (x1, y1), (x2, y2) = _xy(tip), _xy(p1), _xy(p2)
        d = (f"M {_fmt(tx)} {_fmt(ty)} L {_fmt(x1)} {_fmt(y1)}"
             f" L {_fmt(x2)} {_fmt(y2)} Z")
        doc.path(d, color, fill=color)
    else:
        ux = (dx - dy) * TICK_ROT
        uy = (dx + dy) * TICK_ROT
        a = (p.at[0] - ux * p.size / 2.0, p.at[1] - uy * p.size / 2.0)
        b = (p.at[0] + ux * p.size / 2.0, p.at[1] + uy * p.size / 2.0)
        (ax, ay), (bx, by) = _xy(a), _xy(b)
        doc.path(f"M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}", color)


def _slope_wedge(doc: _Doc, x: float, y: float, cw: float, h: float,
                 left: bool, color: str) -> None:
    """Stroke-built slope glyph occupying one character cell at the baseline."""
    w = cw * 0.9
    base0, base1 = (x, y), (x + w, y)
    apex = (x, y + h * 0.5) if not left else (x + w, y + h * 0.5)
    far = base1 if not left else base0
    for a, b in ((base0, base1), (apex, far)):
        (ax, ay), (bx, by) = _xy(a), _xy(b)
        doc.path(f"M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}", color,
                 width=STROKE_WIDTH * 0.8)


def _emit_text(doc: _Doc, p: GlyphText) -> None:
    color = _color(p.color)
    rotated = p.angle != 0.0
    if rotated:
        ax, ay = _xy(p.anchor)
        doc.lines.append(
            f'<g transform="rotate({_fmt(-p.angle)} {_fmt(ax)} {_fmt(ay)})">')
    _, height, width_factor, _ = p.font
    cw = layout.CHAR_WIDTH_FACTOR * height * width_factor
    x = p.anchor[0]
    y = p.anchor[1]
    run = ""
    for ch in p.text + "\0":
        if ch in (model.SLOPE_LEFT, model.SLOPE_RIGHT, "\0"):
            if run:
                sx, sy = _xy((x, y))
                doc.text(sx, sy, run.replace(model.DEGREE, "°")
                         .replace(model.DIAMETER, "∅"), p.font, color)
                x += cw * len(run)
                run = ""
            if ch == "\0":
                break
            _slope_wedge(doc, x, y, cw, height, ch == model.SLOPE_LEFT, color)
            x += cw
        else:
            run += ch
    if rotated:
        doc.lines.append("</g>")


_EMITTERS = (
    (Stroke, _emit_stroke),
    (ArcStroke, _emit_arc),
    (DotRun, _emit_dot_run),
    (WavePair, _emit_wave_pair),
    (Marker, _emit_marker),
    (GlyphText, _emit_text),
)


def render(primitives) -> str:
    """Serialize primitives to a standalone SVG document string."""
    bb = layout.bounds(primitives)
    if bb is None:
        bb = (0.0, 0.0, 0.0, 0.0)
    min_x, min_y, max_x, max_y = bb
    vb_x = min_x - MARGIN
    vb_y = -max_y - MARGIN  # SVG y-down
    vb_w = (max_x - min_x) + 2 * MARGIN
    vb_h = (max_y - min_y) + 2 * MARGIN

    doc = _Doc()
    for prim in primitives:
        for cls, emit in _EMITTERS:
            if isinstance(prim, cls):
                emit(doc, prim)
                break
        else:
            raise TypeError(f"unknown primitive {type(prim).__name__}")

    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vb_x)} {_fmt(vb_y)} {_fmt(vb_w)} {_fmt(vb_h)}" '
        f'width="{_fmt(vb_w)}mm" height="{_fmt(vb_h)}mm">\n'
        '<g stroke-linecap="round">\n'
    )
    return head + "".join(line + "\n" for line in doc.lines) + "</g>\n</svg>\n"
