import copy
import dataclasses
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import edit, model, samples
from axoscheme.model import Axis, LineType, new_scheme
from axoscheme.persist import (
    BadMagicError,
    CorruptError,
    DanglingIndexError,
    ParseError,
    PersistError,
    TruncatedError,
    VersionError,
    load_binary,
    load_text,
    save_binary,
    save_text,
)
from axoscheme.persist import binary, codec, spec
from axoscheme.persist.codec import LINES, STR, Record
from genschemes import random_scheme
from samples_for_tests import build_offset_scheme

DATA = Path(__file__).parent / "data"


def small_scheme():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    c = edit.add_point(s, 1000, 0, 1000)
    edit.add_pipe(s, a, b)
    edit.add_pipe(s, b, c)
    edit.add_offset(s, edit.GeneralOffsetSpec(Axis.Z, 500.0, 250.0))
    return s


def edge_schemes():
    """Schemes with the values one format once handled and the other did not:
    a general offset without an axis, and empty lists of every kind."""
    axis_less = build_offset_scheme()
    next(o for o in axis_less.offsets.values()
         if o.kind is model.OffsetKind.GENERAL).axis = None
    s = small_scheme()
    s.insert("symbols", model.SymbolDef("bare", [], cut_lengths=()))
    for lines in ([], [""], ["", ""]):
        tid = s.insert("texts", model.Text(lines, (model.TargetKind.PIPE, 0)))
        lid = s.insert("pipe_leaders", model.LeaderToPipe(tid, 1, 250.0))
        s.texts[tid].main_leader = (model.TargetKind.PIPE, lid)
    s.insert("dimensions", model.Dimension([], Axis.X, model.DimDirection(axis=Axis.Y)))
    return [axis_less, s]


# -- binary ---------------------------------------------------------------------

def test_empty_scheme_header_plus_settings_only():
    blob = save_binary(new_scheme())
    assert len(blob) < 200
    assert blob[:4] == b"ASTS"
    assert load_binary(blob) == new_scheme()


def test_reference_scheme_compactness():
    blob = save_binary(samples.reference_scheme())
    assert len(blob) <= 2500


def test_reference_corpus_file_matches_builder():
    committed = (DATA / "reference40.asts").read_text(encoding="utf-8")
    assert committed == save_text(samples.reference_scheme())
    assert load_text(committed) == load_binary(
        save_binary(samples.reference_scheme()))
    # the binary golden pins the field order, not only the size
    golden = (DATA / "reference40.astsb").read_bytes()
    assert save_binary(samples.reference_scheme()) == golden
    assert load_binary(golden) == load_text(committed)
    # records end at a line feed; a carriage return before it is dropped
    assert load_text(committed.replace("\n", "\r\n")) == load_text(committed)


def test_binary_roundtrip_equality():
    s = small_scheme()
    assert load_binary(save_binary(s)) == s


def test_truncated_stream_rejected_without_partial_scheme():
    blob = save_binary(small_scheme())
    with pytest.raises(TruncatedError):
        load_binary(blob[: len(blob) // 2])


def test_bad_magic():
    with pytest.raises(BadMagicError):
        load_binary(b"NOPE" + b"\x00" * 16)


def test_version_too_new():
    with pytest.raises(VersionError):
        load_binary(b"ASTS\xff\x7f")


def test_dangling_index_detected():
    # patch a pipe endpoint index inside a cleanly saved stream: the pipes
    # section is tag 2, u32 length, varint count, then (u16 a, u16 b, style)
    clean = save_binary(small_scheme())
    section = clean.find(bytes([2]), 6)
    first_pipe = section + 5 + 1
    patched = bytearray(clean)
    patched[first_pipe + 2:first_pipe + 4] = (999).to_bytes(2, "little")
    with pytest.raises(DanglingIndexError):
        load_binary(bytes(patched))


def test_values_beyond_binary_fields_raise_persist_error():
    s = small_scheme()
    s.pipes[1].style.color = 300  # a u8 field
    with pytest.raises(PersistError, match="300"):
        save_binary(s)
    s = small_scheme()
    s.points[2].x = 1e39  # beyond the f32 range
    for save in (save_binary, save_text):
        with pytest.raises(PersistError):
            save(s)


def test_savers_reject_dangling_references():
    s = small_scheme()
    del s.points[3]
    for save in (save_binary, save_text):
        with pytest.raises(DanglingIndexError, match="references missing point 3"):
            save(s)


def test_corrupt_bytes_raise_persist_errors_only():
    # only PersistError may escape; a changed byte may still load cleanly
    for seed in range(100):
        clean = save_binary(random_scheme(seed))
        rng = random.Random(seed)
        for _ in range(20):
            mutated = bytearray(clean)
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                load_binary(bytes(mutated))
            except PersistError:
                pass


def test_corrupt_string_and_enum_codes():
    blob = save_binary(samples.reference_scheme())
    with pytest.raises(CorruptError):
        load_binary(blob.replace(b"valve", b"\xffalve", 1))
    with pytest.raises(CorruptError):
        codec.enum(LineType).read(binary._R(bytes([len(LineType)])))
    # optional enums store code + 1, with 0 for none
    assert codec.opt_enum(Axis).read(binary._R(bytes([0]))) is None
    assert codec.opt_enum(Axis).read(binary._R(bytes([3]))) is Axis.Z
    with pytest.raises(CorruptError):
        codec.opt_enum(Axis).read(binary._R(bytes([4])))


def test_unknown_future_section_skipped():
    blob = save_binary(small_scheme())
    # append an unknown section tag 200 with 3 payload bytes
    extra = bytes([200]) + (3).to_bytes(4, "little") + b"xyz"
    s = load_binary(blob + extra)
    assert s == small_scheme()


def test_size_monotone_under_additions():
    s = new_scheme()
    sizes = [len(save_binary(s))]
    a = edit.add_point(s, 0, 0, 0)
    sizes.append(len(save_binary(s)))
    b = edit.add_point(s, 1000, 0, 0)
    sizes.append(len(save_binary(s)))
    edit.add_pipe(s, a, b)
    sizes.append(len(save_binary(s)))
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


# -- text -----------------------------------------------------------------------

def test_minimal_text_document_parses():
    doc = """
# tiny
scheme version=1
point id=1 x=0.0 y=0.0 z=0.0
point id=2 x=1000.0 y=0.0 z=0.0
pipe id=1 a=1 b=2 color=0 line=solid
"""
    s = load_text(doc)
    assert len(s.points) == 2 and len(s.pipes) == 1
    assert model.integrity_check(s) == []


def test_unknown_record_kind_reports_line():
    doc = "scheme version=1\nbogus id=1\n"
    with pytest.raises(ParseError) as err:
        load_text(doc)
    assert err.value.line == 2
    assert "bogus" in str(err.value)


def test_number_beyond_f32_range_reports_line():
    doc = "scheme version=1\npoint id=1 x=1e39 y=0 z=0\n"
    with pytest.raises(ParseError) as err:
        load_text(doc)
    assert err.value.line == 2


def test_text_reference_to_missing_object_rejected():
    doc = ("scheme version=1\npoint id=1 x=0 y=0 z=0\n"
           "pipe id=1 a=1 b=2 color=0 line=solid\n")
    with pytest.raises(DanglingIndexError, match="pipe:1 end references missing point 2"):
        load_text(doc)


def test_unknown_key_rejected():
    doc = "scheme version=1\npoint id=1 x=0 y=0 z=0 w=1\n"
    with pytest.raises(ParseError) as err:
        load_text(doc)
    assert "'w'" in str(err.value)


def test_a_record_before_the_scheme_record_reports_its_line():
    for doc, line in (("point id=1 x=0 y=0 z=0\nscheme version=1\n", 1),
                      ("# c\n\nbogus\nscheme version=1\n", 3)):
        with pytest.raises(ParseError, match="before the 'scheme version=...' record") as err:
            load_text(doc)
        assert err.value.line == line


def test_a_second_scheme_record_reports_its_line():
    doc = "scheme version=1\npoint id=1 x=0 y=0 z=0\n# c\nscheme version=1\n"
    with pytest.raises(ParseError, match="scheme: declared twice") as err:
        load_text(doc)
    assert err.value.line == 4


def _objects(value):
    """Every model object in ``value``, nested ones included."""
    if dataclasses.is_dataclass(value):
        yield value
        for v in vars(value).values():
            yield from _objects(v)
    elif isinstance(value, (list, tuple, set)):
        for v in value:
            yield from _objects(v)


def test_loaders_build_objects_through_their_constructors():
    # an object whose dict is filled another way keeps a dict of its own,
    # whose size differs from that of the key-sharing dict the constructor
    # makes; all the key-sharing dicts of a class report one size at a time
    schemes = [random_scheme(seed) for seed in range(10)] + [samples.reference_scheme()]
    for save, load in ((save_text, load_text), (save_binary, load_binary)):
        seen = set()
        for s in schemes:
            loaded = load(save(s))
            objs = [loaded.settings, loaded.axis_grid]
            objs += [obj for name in model.COLLECTIONS for obj in getattr(loaded, name).values()]
            for obj in _objects(objs):
                built = vars(type(obj)(**vars(obj)))
                assert sys.getsizeof(vars(obj)) == sys.getsizeof(built), obj
                seen.add(type(obj))
        assert {section.record.cls for section in spec.SECTIONS} <= seen


def test_text_normalization_idempotent():
    for seed in range(40):
        s = random_scheme(seed)
        t1 = save_text(s)
        t2 = save_text(load_text(t1))
        assert t1 == t2


def test_special_symbols_escape_roundtrip():
    s = new_scheme()
    a = edit.add_point(s, 0, 0, 0)
    b = edit.add_point(s, 1000, 0, 0)
    pid = edit.add_pipe(s, a, b)
    tid = s.insert("texts", model.Text(
        [model.SLOPE_LEFT + "5%", model.DIAMETER + "57" + model.DEGREE,
         'quote " and \\ back'],
        (model.TargetKind.PIPE, 0)))
    lid = s.insert("pipe_leaders", model.LeaderToPipe(tid, pid, 500.0))
    s.texts[tid].main_leader = (model.TargetKind.PIPE, lid)
    s.texts[tid].slope_format = model.SlopeFormat.PERCENT
    t = save_text(s)
    assert model.SLOPE_LEFT not in t  # travels as an escape
    assert "\\sl" in t and "\\dia" in t and "\\deg" in t
    assert load_text(t).texts[1].lines == s.texts[tid].lines


# -- cross-format ------------------------------------------------------------------

def test_cross_format_equivalence():
    for seed, s in enumerate([random_scheme(seed) for seed in range(60)] + edge_schemes()):
        via_text = load_text(save_text(s))
        via_binary = load_binary(save_binary(s))
        assert via_text == via_binary, f"seed {seed}"


def test_roundtrip_fuzz():
    for seed, s in enumerate([random_scheme(seed) for seed in range(200)] + edge_schemes()):
        assert load_binary(save_binary(s)) == s, f"seed {seed}"
        assert load_text(save_text(s)) == s, f"seed {seed}"


def test_modified_settings_roundtrip_both_formats():
    s = new_scheme()
    st = s.settings
    st.pipe_style = model.LineStyle(4, model.LineType.DASHED)
    st.joint = model.JointDefaults(model.JointKind.FILLET, 80.0)
    st.breaks.paper_len = 8.0
    st.breaks.label_font = model.FontSetting("gost-b", 7.0, 1.5, True)
    st.text.second_shelf = True
    st.mark.shelf_from = model.ShelfFrom.END
    st.dimension.precision = 2
    st.elevation.shelf_dir = model.ShelfDir.YM
    st.slope.format = model.SlopeFormat.RATIO
    st.grid.first_letter = "Б"
    st.flange_positions = 5
    st.occlusion_gap_len = 3.5
    st.current_param_file = "последний.astsb"
    st.projection = "dimetric"
    st.slice = model.Slice(-250.0, 750.0)
    st.visibility.texts = False
    st.visibility.covered_pipes = True
    st.work_temperature = 150.0
    st.work_pressure = 1.5
    st.autonumber = False
    st.spec_extended = True
    st.scale = 0.03125  # f32-exact
    via_binary = load_binary(save_binary(s))
    via_text = load_text(save_text(s))
    assert via_binary == s
    assert via_text == s


def test_sample_schemes_roundtrip():
    # covers tee blocks, fillet joints, grids and slope texts at once
    for build in (samples.reference_scheme, samples.golden_straight_run,
                  samples.golden_tee_assembly, samples.golden_axis_grid):
        s = build()
        normal = load_binary(save_binary(s))
        assert load_binary(save_binary(normal)) == normal, build.__name__
        assert load_text(save_text(normal)) == normal, build.__name__


def _set_strings(obj, record: Record, value: str) -> None:
    """Store ``value`` in every string field of ``obj`` and its nested records."""
    for f in record.fields:
        if f.codec is STR:
            setattr(obj, f.attr, value)
        elif f.codec is LINES:
            setattr(obj, f.attr, [value, value])
        elif isinstance(f.codec, Record) and getattr(obj, f.attr) is not None:
            _set_strings(getattr(obj, f.attr), f.codec, value)


_STRING_BASE = samples.reference_scheme()
next(iter(_STRING_BASE.spec_props.values())).extended = model.ExtendedProps()
_STRING_BASE = load_binary(save_binary(_STRING_BASE))


@settings(max_examples=150, deadline=None)
@given(st.text())
def test_any_string_roundtrips_in_every_string_field(value):
    s = load_binary(save_binary(_STRING_BASE))
    for section in spec.SECTIONS:
        for obj in getattr(s, section.collection).values():
            _set_strings(obj, section.record, value)
    _set_strings(s.axis_grid, spec.AXIS_GRID.record, value)
    _set_strings(s.settings, spec.SETTINGS, value)
    assert load_text(save_text(s)) == s
    assert load_binary(save_binary(s)) == s


def test_savers_refuse_a_value_of_the_wrong_type_in_a_string_field():
    s = samples.reference_scheme()
    s.offsets[1].letter = 5
    for save in (save_text, save_binary):
        with pytest.raises(PersistError, match="is not a string"):
            save(s)


def _block_flip(s, value):
    next(iter(s.blocks.values())).flip = value


def _visibility_pipes(s, value):
    s.settings.visibility.pipes = value


@pytest.mark.parametrize("put", [_block_flip, _visibility_pipes])
@pytest.mark.parametrize("value", [None, "no"])
def test_savers_refuse_a_value_of_the_wrong_type_in_a_flag(put, value):
    """A flag is saved only from a bool, not by the truth of what it holds."""
    s = samples.reference_scheme()
    put(s, value)
    for save in (save_text, save_binary):
        with pytest.raises(PersistError, match="is not a flag"):
            save(s)


def test_a_none_record_is_a_persist_error_that_keeps_its_cause():
    s = samples.reference_scheme()
    s.pipes[1].style = None
    for save in (save_text, save_binary):
        with pytest.raises(PersistError) as info:
            save(s)
        assert isinstance(info.value.__cause__, AttributeError)


def _takes_none(codec) -> bool:
    """Whether a field's codec stores None (``none`` in text)."""
    try:
        return codec.parse("none") is None
    except Exception:
        return False


def _required_paths(record: Record, path: tuple = ()):
    """Attribute paths of every field that must hold a value, nested
    records' fields included."""
    for f in record.fields:
        if f.sparse or _takes_none(f.codec):
            continue
        for attr in f.attr if isinstance(f.attr, tuple) else (f.attr,):
            yield path + (attr,)
            if isinstance(f.codec, Record):
                yield from _required_paths(f.codec, path + (attr,))


def _none_cases():
    """(label, scheme) with one required field of one stored object set to
    None, for every required field of every object of two samples."""
    for build in (samples.reference_scheme, build_offset_scheme):
        base = build()
        owners = [((section.collection, oid), section.record)
                  for section in spec.SECTIONS for oid in getattr(base, section.collection)]
        owners.append((("settings",), spec.SETTINGS))
        if base.axis_grid is not None:
            owners.append((("axis_grid",), spec.AXIS_GRID.record))
        for owner, record in owners:
            for path in _required_paths(record):
                s = copy.deepcopy(base)
                obj = getattr(s, owner[0])
                if len(owner) > 1:
                    obj = obj[owner[1]]
                for attr in path[:-1]:
                    obj = getattr(obj, attr)
                setattr(obj, path[-1], None)
                yield f"{build.__name__} {owner} {'.'.join(path)}", s


def test_savers_refuse_none_in_a_required_field_with_persist_error():
    """A saver raises only PersistError, and what it writes loads back."""
    for label, s in _none_cases():
        for save, load in ((save_text, load_text), (save_binary, load_binary)):
            try:
                out = save(s)
            except PersistError:
                continue
            except Exception as e:
                raise AssertionError(f"{label}: {save.__name__} raised {e!r}") from None
            try:
                load(out)
            except PersistError as e:
                raise AssertionError(f"{label}: {save.__name__} wrote what "
                                     f"{load.__name__} rejects: {e}") from None
