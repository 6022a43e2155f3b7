"""Every field of every record the savers write is in the persistence spec.

Both formats are derived from ``persist.spec``, so a model field that no
spec field names would be dropped by both savers without a failing round
trip.  The record classes are found from ``Scheme`` itself, and nested ones
through the spec's nested records.
"""

import dataclasses
import typing

from axoscheme import model
from axoscheme.persist import spec
from axoscheme.persist.codec import Record

ID_CODECS = (spec.ID, spec.OPT_ID, spec.ID_SET, spec.ID_LIST, spec.TARGET,
             spec.DIM_POINTS, spec.DIM_DIR)


def top_records():
    """(Scheme field, Record) of each object collection, the grid and the settings."""
    return ([(s.collection, s.record) for s in spec.SECTIONS]
            + [(spec.AXIS_GRID.collection, spec.AXIS_GRID.record), ("settings", spec.SETTINGS)])


def all_records():
    """(where, Record) of every record written, nested ones included."""
    todo = top_records() + [("symbol graphics", spec.SEGMENT), ("symbol graphics", spec.ARC)]
    while todo:
        where, record = todo.pop()
        yield where, record
        todo += [(f"{where}.{f.name}", f.codec) for f in record.fields
                 if isinstance(f.codec, Record)]


def attrs(field) -> tuple[str, ...]:
    return field.attr if isinstance(field.attr, tuple) else (field.attr,)


def keys(field) -> tuple[str, ...]:
    """Every text key the field writes."""
    if isinstance(field.codec, Record):
        return tuple(k for f in field.codec.text_fields for k in keys(f))
    return field.key if isinstance(field.key, tuple) else (field.key,)


def test_records_cover_the_scheme():
    hints = typing.get_type_hints(model.Scheme)
    stored = [f.name for f in dataclasses.fields(model.Scheme) if f.compare]
    assert sorted(name for name, _ in top_records()) == sorted(stored)
    for name, record in top_records():
        want = hints[name]
        if typing.get_origin(want) is dict:
            want = typing.get_args(want)[1]
        assert record.cls in typing.get_args(want) + (want,), name


def test_every_model_field_is_named_by_exactly_one_spec_field():
    for where, record in all_records():
        named = [a for f in record.fields for a in attrs(f)]
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(record.cls)), where


def test_text_carries_every_field_under_its_own_keys():
    for where, record in all_records():
        assert {f.name for f in record.fields if f.codec is not spec.GRAPHICS} == {
            f.name for f in record.text_fields}, where
    lines = [name for names in spec.SETTINGS_LINES.values() for name in names]
    assert sorted(lines) == sorted(f.name for f in spec.SETTINGS.fields)
    by_name = {f.name: f for f in spec.SETTINGS.fields}
    text_lines = [(where, record.text_fields) for where, record in top_records()[:-1]]
    text_lines += [(kind, [by_name[n] for n in names])
                   for kind, names in spec.SETTINGS_LINES.items()]
    for where, fields in text_lines:
        line = [k for f in fields for k in keys(f)]
        assert len(line) == len(set(line)) and "id" not in line, where


def test_id_fields_are_the_reference_table():
    ids = {(s.collection, f.attr) for s in spec.SECTIONS for f in s.record.fields
           if f.codec in ID_CODECS}
    assert ids == {(ref.collection, (ref.kind_field, ref.field) if ref.kind_field else ref.field)
                   for ref in model.REFERENCES}
    for where, record in all_records():
        if "." in where or where in ("axis_grid", "settings", "symbol graphics"):
            assert not any(f.codec in ID_CODECS for f in record.fields), where
