import pytest

from axoscheme import edit, model
from axoscheme.model import (
    Axis,
    LineStyle,
    Pipe,
    UnknownIdError,
    connected_component,
    integrity_check,
    new_scheme,
)
from genschemes import random_scheme
from oracles import oracle_dangling


def two_pipe_scheme():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 1000, 0, 1000)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, b, c)
    return s, (a, b, c), (p1, p2)


def test_fresh_scheme_is_consistent():
    s, _, _ = two_pipe_scheme()
    assert integrity_check(s) == []


def test_dangling_reference_reported():
    s, (a, b, c), _ = two_pipe_scheme()
    del s.points[c]
    rules = [v.rule for v in integrity_check(s)]
    assert "dangling-ref" in rules


def test_break_on_a_deleted_pipe_is_reported_not_raised():
    # break 1 of this scheme, a local offset's only break, sits on pipe 2
    s = random_scheme(49)
    del s.pipes[2]
    violations = integrity_check(s)
    assert ("dangling-ref", "break:1") in {(v.rule, v.subject) for v in violations}


def test_deleting_any_object_reports_every_reference_left_dangling():
    # integrity_check returns violations for whatever a deletion leaves
    # behind and never raises; the oracle says whether anything referred to
    # the deleted object
    for seed in range(200):
        s = random_scheme(seed)
        for name in ("points", "pipes", "blocks", "texts", "offsets", "symbols"):
            store = getattr(s, name)
            whole = dict(store)
            for oid in whole:
                del store[oid]
                rules = {v.rule for v in integrity_check(s)}
                referred = any("->" in line for line in oracle_dangling(s))
                assert ("dangling-ref" in rules) == referred, (seed, name, oid)
                store.clear()
                store.update(whole)


def test_duplicate_joint_single_violation():
    s, _, (p1, p2) = two_pipe_scheme()
    s.insert("joints", model.Joint(p1, p2))
    s.insert("joints", model.Joint(p2, p1))
    violations = [v for v in integrity_check(s) if v.rule == "joint-duplicate"]
    assert len(violations) == 1


def test_joint_must_share_one_endpoint():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 0, 1000, 0)
    d = edit.add_point(s, 1000, 1000, 0)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, c, d)
    s.insert("joints", model.Joint(p1, p2))
    assert any(v.rule == "joint-not-adjacent" for v in integrity_check(s))


def test_pipe_overlap_detected_in_integrity():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 500, 0, 0)
    d = edit.add_point(s, 1500, 0, 0)
    edit.add_pipe(s, a, b)
    s.pipes[99] = Pipe(c, d, LineStyle())  # bypass the edit-time guard
    assert any(v.rule == "pipe-overlap" for v in integrity_check(s))


def test_point_coincidence_reported():
    s = new_scheme()
    edit.add_point(s, 0, 0, 0)
    s.points[50] = model.Point3(0.0, 0.0, 5e-8)
    assert any(v.rule == "point-coincident" for v in integrity_check(s))


def test_offset_letter_uniqueness_checked():
    s, _, (p1, p2) = two_pipe_scheme()
    o1 = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    o2 = edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 700.0, 200.0))
    s.offsets[o2].letter = s.offsets[o1].letter
    assert any(v.rule == "offset-letter" for v in integrity_check(s))


def test_waves_glyph_needs_compression():
    s, _, _ = two_pipe_scheme()
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 300.0))
    for brk in s.breaks.values():
        brk.glyph = model.BreakGlyph.WAVES
    assert any(v.rule == "break-glyph" for v in integrity_check(s))


def test_connected_component_chain():
    s, _, (p1, p2) = two_pipe_scheme()
    assert connected_component(s, p1) == {p1, p2}


def test_connected_component_disjoint():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 0, 2000, 0)
    d = edit.add_point(s, 1000, 2000, 0)
    p1 = edit.add_pipe(s, a, b)
    p2 = edit.add_pipe(s, c, d)
    assert connected_component(s, p1) == {p1}
    assert connected_component(s, p2) == {p2}


def test_connectivity_ignores_joint_records():
    # sharing a point connects pipes even without a joint record
    s, _, (p1, p2) = two_pipe_scheme()
    assert not s.joints
    assert connected_component(s, p2) == {p1, p2}


def test_connected_component_unknown_pipe():
    s, _, _ = two_pipe_scheme()
    with pytest.raises(UnknownIdError):
        connected_component(s, 999)


def test_add_point_merges_within_tolerance():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    assert edit.add_point(s, 0, 0, 0) == a
    assert len(s.points) == 1
    assert edit.add_point(s, 0, 0, 5e-7) == a
    b = edit.add_point(s, 0, 0, 0.5)
    assert b != a and len(s.points) == 2


def test_settings_invariants_checked():
    s = new_scheme()
    s.settings.occlusion_gap_len = 0.0
    assert any(v.rule == "settings-invalid" for v in integrity_check(s))
