"""Checks of the kernel's outputs against computations made apart from it.

Nothing here compares with a stored copy of earlier output.  Each function
returns an error message, or None when the output is right.
"""

import math
import re
import xml.etree.ElementTree as ET

from axoscheme import model
from axoscheme.model import SpecKind, TargetKind

from oracles import oracle_dangling, oracle_occlusion


def counts(scheme: model.Scheme) -> dict[str, int]:
    return {c: len(getattr(scheme, c)) for c in model.COLLECTIONS}


def same_counts(got: dict[str, int], want: dict[str, int]) -> str | None:
    diff = {c: (got[c], want[c]) for c in want if got[c] != want[c]}
    return f"object counts (got, want): {diff}" if diff else None


def svg_ok(data: bytes) -> str | None:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        return f"SVG does not parse: {e}"
    if not root.tag.endswith("svg"):
        return f"root element is {root.tag!r}, not svg"
    return None


def _length_mm(scheme: model.Scheme, pid: int) -> float:
    pipe = scheme.pipes[pid]
    a = scheme.points[pipe.start]
    b = scheme.points[pipe.end]
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def spec_ok(scheme: model.Scheme, tsv: str, mode: str) -> str | None:
    """Pipe rows carry the marked pipe lengths in metres, block rows marks x qty."""
    lines = tsv.rstrip("\n").split("\n")
    rows = [ln.split("\t") for ln in lines[3:]]
    want_cols = 11 if mode == "extended" else 6
    props = sorted(scheme.spec_props.items(), key=lambda kv: kv[1].position)
    if len(rows) != len(props):
        return f"{len(rows)} spec rows for {len(props)} positions"
    marks: dict[int, list] = {}
    for mark in scheme.position_marks.values():
        for ref in mark.props:
            marks.setdefault(ref, []).append(mark)
    for row, (sid, sp) in zip(rows, props):
        if len(row) != want_cols:
            return f"position {sp.position}: {len(row)} columns, want {want_cols}"
        if row[0] != str(sp.position):
            return f"row for position {row[0]}, want {sp.position}"
        qty = float(row[3])
        mine = marks.get(sid, [])
        if sp.kind is SpecKind.FOR_PIPE:
            pipes = {m.target for m in mine if m.target_kind is TargetKind.PIPE}
            want = sum(_length_mm(scheme, p) for p in pipes) / 1000.0
            if abs(qty - want) > 0.005 + 1e-9:
                return f"position {sp.position}: {qty} m, want {want:.4f} m"
        elif qty != sp.qty * len(mine):
            return f"position {sp.position}: quantity {qty}, want {sp.qty * len(mine)}"
    return None


def validate_fault(code: int, out: str, rule: str, want_code: int = 1) -> str | None:
    if code != want_code:
        return f"exit {code}, want {want_code} for {rule!r}"
    if rule not in out:
        return f"output does not name {rule!r}: {out[:200]!r}"
    return None


# -- faults injected into a copy of a document's text --------------------------------

_RECORD = re.compile(r"^(\w+) id=(\d+) (.*)$", re.M)


def _records(text: str, kind: str) -> list[re.Match]:
    return [m for m in _RECORD.finditer(text) if m.group(1) == kind]


def _next_id(text: str, kind: str) -> int:
    return max(int(m.group(2)) for m in _records(text, kind)) + 1


def faults(text: str) -> list[tuple[str, str, int, str]]:
    """(name, faulty text, expected exit code, expected rule or message)."""
    out = []
    pipe = _records(text, "pipe")[0]
    out.append(("duplicate-pipe",
                text + f"pipe id={_next_id(text, 'pipe')} {pipe.group(3)}\n",
                1, "pipe-overlap"))
    point = _records(text, "point")[len(_records(text, "point")) // 2]
    out.append(("coincident-point",
                text + f"point id={_next_id(text, 'point')} {point.group(3)}\n",
                1, "point-coincident"))
    # a leader hanging past the end of its pipe
    leader = _records(text, "leaderp")[0]
    body = re.sub(r"\bt=[-0-9.e]+", "t=1000000.0", leader.group(3))
    out.append(("leader-off-pipe",
                text.replace(leader.group(0), f"leaderp id={leader.group(2)} {body}"),
                1, "leader-range"))
    # a leader to a pipe that does not exist: the loader refuses the file
    missing = _next_id(text, "pipe")
    body = re.sub(r"pipe=\d+", f"pipe={missing}", leader.group(3))
    out.append(("leader-dangling",
                text.replace(leader.group(0), f"leaderp id={leader.group(2)} {body}"),
                3, f"references missing pipe {missing}"))
    return out


def occlusion_ok(scheme: model.Scheme, proj, got) -> str | None:
    """Gap intervals equal those centred on the brute-force oracle's
    crossings, clipped to the victim's drawn length."""
    half = scheme.settings.occlusion_gap_len / 2.0
    scale = scheme.settings.scale
    want = []
    for victim, centre in oracle_occlusion(scheme, proj):
        pipe = scheme.pipes[victim]
        ends = [scheme.points[pipe.start], scheme.points[pipe.end]]
        uv = [(p.x * proj.ex[0] + p.y * proj.ey[0] + p.z * proj.ez[0],
               p.x * proj.ex[1] + p.y * proj.ey[1] + p.z * proj.ez[1]) for p in ends]
        drawn = math.dist(uv[0], uv[1]) * scale
        want.append((victim, (max(0.0, centre - half), min(drawn, centre + half))))
    got = sorted(got)
    want.sort()
    if len(got) != len(want):
        return f"{len(got)} occlusion gaps, oracle finds {len(want)}"
    for (gp, (glo, ghi)), (wp, (wlo, whi)) in zip(got, want):
        if gp != wp or abs(glo - wlo) > 1e-6 or abs(ghi - whi) > 1e-6:
            return (f"gap on pipe {gp} at [{glo:.6f}, {ghi:.6f}], "
                    f"oracle: pipe {wp} at [{wlo:.6f}, {whi:.6f}]")
    return None


def dangling(scheme: model.Scheme) -> str | None:
    bad = oracle_dangling(scheme)
    return f"dangling references: {bad[:3]}" if bad else None


def point_at(scheme: model.Scheme, pid: int, xyz) -> str | None:
    p = scheme.points.get(pid)
    if p is None:
        return f"point {pid} is gone"
    if (p.x, p.y, p.z) != tuple(float(c) for c in xyz):
        return f"point {pid} at {(p.x, p.y, p.z)}, want {tuple(xyz)}"
    return None
