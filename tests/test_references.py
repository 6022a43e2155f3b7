"""Every stored id is known to the reference table.

The id slots of each object are found by type alone (every integer field,
id list, id set, kind-tagged id and dimension direction pipe, except the
integer fields below that are values), so a reference field missing from
``model.REFERENCES`` makes one of these slots go unnoticed by
``integrity_check`` or the savers.
"""

import dataclasses
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import model, samples
from axoscheme.model import DimDirection, DimPoint, integrity_check
from axoscheme.persist import DanglingIndexError, save_binary, save_text
from genschemes import random_scheme
from oracles import oracle_dangling

# integer fields that hold values, not ids
VALUE_FIELDS = {"position", "precision", "color"}

SUBJECT = {
    "points": "point", "pipes": "pipe", "joints": "joint", "offsets": "offset",
    "breaks": "break", "symbols": "symbol", "blocks": "block", "texts": "text",
    "pipe_leaders": "pipe_leader", "block_leaders": "block_leader",
    "position_marks": "mark", "spec_props": "props", "dimensions": "dim",
    "elevation_marks": "elevation", "slope_marks": "slope",
}

UNUSED = 60000


def id_slots(obj):
    """(field, id, swap) for each id ``obj`` stores; ``swap(new)`` stores
    ``new`` in place of that id and returns the id it replaced."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in VALUE_FIELDS or isinstance(value, bool):
            continue
        if isinstance(value, int):
            yield f.name, value, _attr_swap(obj, f.name, lambda v, new: new)
        elif isinstance(value, DimDirection) and value.pipe is not None:
            yield f.name, value.pipe, _attr_swap(
                obj, f.name, lambda v, new: DimDirection(v.axis, new))
        elif (isinstance(value, tuple) and len(value) == 2
              and isinstance(value[0], Enum) and isinstance(value[1], int)):
            yield f.name, value[1], _attr_swap(obj, f.name, lambda v, new: (v[0], new))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, DimPoint):
                    yield f.name, item.ref, _item_swap(
                        value, i, lambda v, new: DimPoint(v.kind, new))
                elif isinstance(item, int):
                    yield f.name, item, _item_swap(value, i, lambda v, new: new)
        elif isinstance(value, set):
            for item in sorted(value):
                yield f.name, item, _member_swap(value, item)


def _attr_swap(obj, name, rebuild):
    def swap(new):
        old = getattr(obj, name)
        setattr(obj, name, rebuild(old, new))
        return old
    return lambda new: _plain(swap(new))


def _item_swap(items, i, rebuild):
    def swap(new):
        old = items[i]
        items[i] = rebuild(old, new)
        return old
    return lambda new: _plain(swap(new))


def _member_swap(members, item):
    current = [item]

    def swap(new):
        members.discard(current[0])
        members.add(new)
        old, current[0] = current[0], new
        return old
    return swap


def _plain(value) -> int:
    if isinstance(value, DimDirection):
        return value.pipe
    if isinstance(value, DimPoint):
        return value.ref
    return value[1] if isinstance(value, tuple) else value


def check_every_slot(scheme):
    assert oracle_dangling(scheme) == []
    assert all(UNUSED not in getattr(scheme, name) for name in model.COLLECTIONS)
    for name, subject in SUBJECT.items():
        for oid, obj in getattr(scheme, name).items():
            slots = list(id_slots(obj))
            assert sorted((ref.field, i) for ref in model.REFERENCES
                          if ref.collection == name for _, i in ref.ids(obj)) == sorted(
                (f, i) for f, i, _ in slots)
            for field_name, _, swap in slots:
                old = swap(UNUSED)
                where = f"{subject}:{oid} {field_name}"
                assert oracle_dangling(scheme), where
                assert ("dangling-ref", f"{subject}:{oid}") in {
                    (v.rule, v.subject) for v in integrity_check(scheme)}, where
                for save in (save_text, save_binary):
                    with pytest.raises(DanglingIndexError):
                        save(scheme)
                swap(old)
    assert oracle_dangling(scheme) == []


def test_every_stored_id_is_in_the_table():
    schemes = [samples.reference_scheme(), samples.golden_straight_run(),
               samples.golden_tee_assembly(), samples.golden_axis_grid()]
    schemes += [random_scheme(seed) for seed in range(50)]
    fields = set()
    for scheme in schemes:
        check_every_slot(scheme)
        for name in SUBJECT:
            for obj in getattr(scheme, name).values():
                fields.update((name, f) for f, _, _ in id_slots(obj))
    # the schemes reach every reference field of the table
    assert fields == {(ref.collection, ref.field) for ref in model.REFERENCES}


# -- the dangling references ---------------------------------------------------------

def _dangling_by_ids(scheme):
    """``model.dangling_refs`` as each row reads through ``Ref.ids``."""
    for ref in model.REFERENCES:
        for oid, obj in getattr(scheme, ref.collection).items():
            for target, rid in ref.ids(obj):
                if rid not in getattr(scheme, target):
                    yield ref.collection, oid, ref.field, target, rid


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 199), st.lists(st.tuples(
    st.sampled_from(["points", "pipes", "offsets", "symbols", "blocks", "texts",
                     "pipe_leaders", "block_leaders", "spec_props"]),
    st.integers(0, 60)), max_size=5))
def test_dangling_refs_read_as_every_row_does(seed, removals):
    """Objects removed from under their referrers: the missing references
    come in the order and with the fields of reading every row through
    ``Ref.ids``, and they are those the oracle re-walks."""
    s = random_scheme(seed)
    for name, k in removals:
        ids = list(getattr(s, name))
        if ids:
            del getattr(s, name)[ids[k % len(ids)]]
    got = list(model.dangling_refs(s))
    assert got == list(_dangling_by_ids(s))
    walked = [line for line in oracle_dangling(s) if "->" in line]
    assert len(walked) == sum(1 for row in got if row[:3:2] != ("texts", "main_leader"))
