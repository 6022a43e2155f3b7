"""One definition of valid.

The local-cut check agrees with the component walk it replaced, and
``axoscheme validate`` prints exactly ``model.integrity_check``: on the
samples, on random schemes and on schemes that edits now refuse to make.
"""

import dataclasses

import pytest
from genschemes import random_scheme
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_local_cut
from samples_for_tests import build_offset_scheme, build_rich_scheme

from axoscheme import cli, edit, persist, samples, specgen
from axoscheme.constraints import check_local_offset
from axoscheme.geometry import OffsetView
from axoscheme.model import (
    Block,
    BreakLine,
    EditError,
    JointKind,
    LineStyle,
    LineType,
    Offset,
    OffsetKind,
    Pipe,
    Point3,
    SpecKind,
    UpDir,
    integrity_check,
)

SAMPLES = (samples.reference_scheme, samples.golden_straight_run,
           samples.golden_tee_assembly, samples.golden_axis_grid,
           build_rich_scheme, build_offset_scheme)


def corpus():
    for build in SAMPLES:
        yield build.__name__, build()
    for seed in range(200):
        yield f"random_scheme({seed})", random_scheme(seed)


# -- the local cut against the component walk ------------------------------------

def test_local_cut_matches_the_component_walk():
    checked = 0
    for name, s in corpus():
        for oid, off in s.offsets.items():
            if off.kind is OffsetKind.LOCAL:
                assert check_local_offset(OffsetView(s), oid) == oracle_local_cut(s, oid), name
                checked += 1
    assert checked >= 20


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 199), data=st.data())
def test_local_cut_matches_the_component_walk_on_mutated_cuts(seed, data):
    """Random break sets, and displaced sets that are either random or the
    part of the graph a break set cuts off (so that clean cuts occur)."""
    s = random_scheme(seed)
    pipes, points = sorted(s.pipes), sorted(s.points)
    broken = data.draw(st.lists(st.sampled_from(pipes), max_size=4))
    if data.draw(st.booleans()):
        displaced = data.draw(st.sets(st.sampled_from(points)))
    else:
        displaced = edit._reachable_points(s, data.draw(st.sampled_from(points)), set(broken))
    oid = s.insert("offsets", Offset("ю", (1.0, 0.0, 0.0), 100.0, OffsetKind.LOCAL,
                                     displaced_points=displaced))
    for pid in broken:
        s.insert("breaks", BreakLine(pid, oid, 6.0, 0.0))
    assert check_local_offset(OffsetView(s), oid) == oracle_local_cut(s, oid)


# -- the library and the command line agree ---------------------------------------

def validate_lines(scheme, tmp_path, capsys) -> list[str]:
    path = tmp_path / "scheme.asts"
    path.write_text(persist.save_text(scheme), encoding="utf-8")
    code = cli.main(["validate", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == (1 if lines != ["OK"] else 0)
    return [] if lines == ["OK"] else lines


def library_lines(scheme) -> list[str]:
    # what the file holds: ids renumbered densely, floats at storage precision
    return [str(v) for v in integrity_check(persist.load_text(persist.save_text(scheme)))]


def test_validate_prints_integrity_check(tmp_path, capsys):
    for name, s in corpus():
        assert validate_lines(s, tmp_path, capsys) == library_lines(s), name


def crossing_pipe(s):
    p = s.insert("points", Point3(2500.0, 1000.0, 1000.0))
    s.insert("pipes", Pipe(2, p))


def local_offset_on_riser(s):
    oid = s.insert("offsets", Offset("б", (1.0, 0.0, 0.0), 200.0, OffsetKind.LOCAL,
                                     displaced_points={4, 5, 6}))
    s.insert("breaks", BreakLine(3, oid, 6.0, 750.0))


def pipes_across_a_local_cut(s):
    oid = s.insert("offsets", Offset("б", (0.0, 0.0, 1.0), 200.0, OffsetKind.LOCAL,
                                     displaced_points={6}))
    s.insert("breaks", BreakLine(5, oid, 6.0, 1000.0))
    q = s.insert("points", Point3(5340.0, 0.0, 1000.0))
    s.insert("pipes", Pipe(3, q))
    s.insert("pipes", Pipe(q, 6))


def block(stretch=1.0, color=0):
    def place(s):
        s.insert("blocks", Block(1, 2, 500.0, style=LineStyle(color), updir=UpDir.ZP,
                                 stretch=stretch))
    return place


# each edit refused in test_edit, applied without its checks to the reference
# sample, with the violations validate then reports
REFUSED = [
    (crossing_pipe, ["offset-oblique-pipe pipe:6", "offset-missing-break pipe:6"]),
    (block(stretch=-1.0), ["block-stretch block:3"]),
    (block(color=99), ["style-palette block:3"]),
    (local_offset_on_riser, ["dim-orientation dim:2"]),
    (pipes_across_a_local_cut, ["offset-local-cut offset:2"]),
]


def test_validate_agrees_on_what_edits_refuse(tmp_path, capsys):
    for apply, want in REFUSED:
        s = samples.reference_scheme()
        apply(s)
        found = integrity_check(s)
        assert [f"{v.rule} {v.subject}" for v in found] == want, apply.__name__
        assert validate_lines(s, tmp_path, capsys) == library_lines(s) == list(map(str, found))


# -- a NaN or a colour of the wrong type fails its rule --------------------------

NAN = float("nan")


def first(store):
    return next(iter(store.values()))


def fillet(s):
    return next(j for j in s.joints.values() if j.kind is JointKind.FILLET)


def nan_font(**change):
    def apply(s):
        txt = first(s.texts)
        txt.font = dataclasses.replace(txt.font, **change)
    return apply


def for_block(s):
    return next(p for p in s.spec_props.values() if p.kind is SpecKind.FOR_BLOCK)


NAN_RULES = [
    ("block-stretch", lambda s: setattr(first(s.blocks), "stretch", NAN)),
    ("symbol-stretch", lambda s: setattr(first(s.symbols), "stretch_default", NAN)),
    ("symbol-cuts", lambda s: setattr(first(s.symbols), "cut_lengths",
                                      (NAN,) * len(first(s.symbols).cut_lengths))),
    ("joint-radius", lambda s: setattr(fillet(s), "radius", NAN)),
    ("font-invalid", nan_font(height=NAN)),
    ("font-invalid", nan_font(width_factor=NAN)),
    ("grid-group", lambda s: setattr(s.axis_grid.x_groups[0], "step", NAN)),
    ("props-qty", lambda s: setattr(for_block(s), "qty", NAN)),
    ("settings-invalid", lambda s: setattr(s.settings, "occlusion_gap_len", NAN)),
    ("settings-invalid", lambda s: setattr(s.settings, "scale", NAN)),
    ("offset-magnitude", lambda s: setattr(first(s.offsets), "magnitude", NAN)),
    ("offset-ort", lambda s: setattr(first(s.offsets), "ort", (NAN, 0.0, 0.0))),
]


@pytest.mark.parametrize("rule, apply", NAN_RULES,
                         ids=[f"{rule}-{i}" for i, (rule, _) in enumerate(NAN_RULES)])
def test_nan_fails_the_rule_of_its_field(rule, apply):
    s = samples.reference_scheme()
    assert integrity_check(s) == []
    apply(s)
    assert rule in {v.rule for v in integrity_check(s)}


def test_place_block_refuses_a_nan_stretch():
    s = samples.reference_scheme()
    before = persist.save_text(s)
    with pytest.raises(EditError, match="block-stretch"):
        edit.place_block(s, 1, 2, 500.0, updir=UpDir.ZP, stretch=NAN)
    assert persist.save_text(s) == before


@pytest.mark.parametrize("color", [None, "1", 1.0])
def test_a_colour_that_is_not_an_int_is_a_palette_violation(color):
    s = samples.reference_scheme()
    s.pipes[1].style.color = color
    assert [f"{v.rule} {v.subject}" for v in integrity_check(s)] == ["style-palette pipe:1"]
    s = samples.reference_scheme()
    q = edit.add_point(s, -1000.0, 0.0, 0.0)
    before = persist.save_text(s)
    with pytest.raises(EditError, match="style-palette"):
        edit.add_pipe(s, 1, q, LineStyle(color, LineType.SOLID))
    assert persist.save_text(s) == before


# -- values that validated, then crashed a command ---------------------------------

@pytest.mark.parametrize("qty", [float("inf"), float("-inf"), NAN])
def test_a_block_quantity_that_is_not_finite_fails_validate_and_spec(qty, tmp_path, capsys):
    s = samples.reference_scheme()
    for_block(s).qty = qty
    sid = next(sid for sid, p in s.spec_props.items() if p is for_block(s))
    assert [str(v) for v in integrity_check(s)] == [
        f"props-qty props:{sid}: block quantity must be positive"]
    with pytest.raises(specgen.SpecGenError, match="no finite total"):
        specgen.generate_spec(s)
    assert validate_lines(s, tmp_path, capsys) == library_lines(s)
    assert cli.main(["spec", str(tmp_path / "scheme.asts")]) == 1
    assert "no finite total" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["dimension", "slope"])
def test_a_negative_precision_fails_validate(name, tmp_path, capsys):
    s = samples.reference_scheme()
    getattr(s.settings, name).precision = -1
    assert [str(v) for v in integrity_check(s)] == [
        f"settings-invalid settings: {name} precision must be non-negative"]
    assert validate_lines(s, tmp_path, capsys) == library_lines(s)


@pytest.mark.parametrize("name, message", [("scale", "scale must be positive"), (
    "occlusion_gap_len", "occlusion gap length must be positive")])
def test_an_infinite_scale_or_gap_fails_validate(name, message, tmp_path, capsys):
    """The same rule as the command line's ``--scale``/``--occlusion-gap``:
    finite and positive."""
    s = samples.reference_scheme()
    setattr(s.settings, name, float("inf"))
    assert [str(v) for v in integrity_check(s)] == [f"settings-invalid settings: {message}"]
    assert validate_lines(s, tmp_path, capsys) == library_lines(s)


def test_move_point_refuses_a_move_under_a_negative_slope_precision():
    """Pipe 5 of the reference sample carries a slope text; its slope
    would have been written at precision -1 after the point had moved."""
    s = samples.reference_scheme()
    s.settings.slope.precision = -1
    before = persist.save_text(s)
    with pytest.raises(EditError, match="settings-invalid"):
        edit.move_point(s, 6, 5340.0, 2000.0, 2440.0)
    assert persist.save_text(s) == before
