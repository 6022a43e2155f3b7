"""Random edit sequences on the samples and on random schemes.

A Hypothesis state machine (MacIver, Hatfield-Dodds et al. 2019, "Hypothesis:
A new approach to property-based testing", JOSS 4(43)) runs ``add_point``,
``add_pipe``, ``add_offset`` of both kinds, ``place_block``, ``move_point``
and ``delete_point`` with arguments that are often illegal, and inserts
dimensions in an orientation that is legal for their points, so that later
edits meet them.  It also inserts points and pipes directly, unchecked, and
replaces the scheme by its saved and loaded text.  After every step:

- an accepted edit adds no ``integrity_check`` violation;
- an ``EditError`` leaves the saved text unchanged;
- no other exception escapes (Hypothesis fails the run on one);
- on a valid scheme, ``move_point`` gives the outcome and the saved text of
  ``oracle_move_point``, the move that ran the whole ``integrity_check``;
- the spatial index answers as a scan: for candidate pipes and points drawn
  from a seeded generator, ``check_pipe_overlap`` and ``add_point`` give
  the answers of ``oracle_check_pipe_overlap`` and ``oracle_add_point``.
"""

import copy
import random
from functools import partial

from genschemes import random_scheme
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from oracles import oracle_move_point
from samples_for_tests import build_offset_scheme, build_rich_scheme
from test_spatial_index import assert_index_answers_as_a_scan, outcome

from axoscheme import constraints, edit, geometry, persist, samples
from axoscheme.model import (
    Attach,
    Axis,
    Dimension,
    DimPoint,
    DimPointKind,
    EditError,
    LineStyle,
    LineType,
    Pipe,
    Point3,
    SymbolDef,
    SymbolSegment,
    UpDir,
    integrity_check,
)

STARTS = st.one_of(
    st.sampled_from([samples.reference_scheme, samples.golden_straight_run,
                     samples.golden_tee_assembly, samples.golden_axis_grid,
                     build_rich_scheme, build_offset_scheme]),
    st.integers(0, 4999).map(lambda seed: partial(random_scheme, seed)))

# on the 250 mm lattice of the random schemes and the round figures of the
# samples, so that points meet, pipes overlap and planes pass through points
COORDS = st.one_of(st.integers(-8, 24).map(lambda k: k * 250.0),
                   st.sampled_from([1000.0, 2000.0, 3340.0, 5340.0, 2540.0]),
                   st.floats(-3000.0, 7000.0))
POINTS = st.tuples(COORDS, COORDS, COORDS)
ORTS = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0),
                        (0.6, 0.8, 0.0), (1.0, 1.0, 0.0), (2.0, 0.0, 0.0)])
MAGNITUDES = st.sampled_from([250.0, -250.0, 400.0, 0.0])
# a distance along a pipe: often inside it, sometimes past either end
ALONG = st.one_of(st.floats(0.0, 1.0), st.floats(-0.2, 1.5))


class EditMachine(RuleBasedStateMachine):

    @initialize(build=STARTS)
    def start(self, build):
        self.s = build()
        if not self.s.symbols:
            self.s.insert("symbols", SymbolDef(
                "v", [SymbolSegment(-2.0, -1.0, 2.0, 1.0)], Attach.AXIAL, (4.0,)))
        assert integrity_check(self.s) == []
        self.probes = random.Random(0)

    def edit(self, fn, *args, **kwargs) -> str | None:
        """Run the edit and check its outcome; the refusal text, or None."""
        before_text = persist.save_text(self.s)
        before = set(map(str, integrity_check(self.s)))
        try:
            fn(self.s, *args, **kwargs)
        except EditError as e:
            assert persist.save_text(self.s) == before_text
            return str(e)
        added = set(map(str, integrity_check(self.s))) - before
        assert not added, (fn.__name__, args, kwargs, sorted(added))
        return None

    def pick(self, data, collection: str, optional: bool = False):
        ids = sorted(getattr(self.s, collection))
        pick = st.sampled_from(ids)
        return data.draw(st.none() | pick if optional else pick)

    def along(self, data, pipe: int) -> float:
        a, b = (self.s.points[end].as_tuple() for end in
                (self.s.pipes[pipe].start, self.s.pipes[pipe].end))
        length = sum((p - q) ** 2 for p, q in zip(a, b)) ** 0.5
        return data.draw(ALONG) * length

    @rule(xyz=POINTS)
    def add_point(self, xyz):
        self.edit(edit.add_point, *xyz)

    @precondition(lambda self: self.s.points)
    @rule(data=st.data(), xyz=st.none() | POINTS, color=st.integers(-2, 18))
    def add_pipe(self, data, xyz, color):
        a = self.pick(data, "points")
        b = edit.add_point(self.s, *xyz) if xyz else self.pick(data, "points")
        self.edit(edit.add_pipe, a, b, LineStyle(color, LineType.DASHED)
                  if data.draw(st.booleans()) else None)

    @rule(axis=st.sampled_from(list(Axis)), plane=COORDS, magnitude=MAGNITUDES,
          toward_positive=st.booleans())
    def add_general_offset(self, axis, plane, magnitude, toward_positive):
        self.edit(edit.add_offset, edit.GeneralOffsetSpec(axis, plane, magnitude,
                                                          toward_positive))

    @precondition(lambda self: self.s.pipes)
    @rule(data=st.data(), ort=ORTS, magnitude=MAGNITUDES)
    def add_local_offset(self, data, ort, magnitude):
        pipes = data.draw(st.lists(st.sampled_from(sorted(self.s.pipes)),
                                   min_size=1, max_size=3))
        breaks = [(pid, self.along(data, pid)) for pid in pipes]
        seed = data.draw(st.sampled_from(
            [end for pid in pipes for end in (self.s.pipes[pid].start,
                                              self.s.pipes[pid].end)]))
        self.edit(edit.add_offset, edit.LocalOffsetSpec(ort, magnitude, breaks, seed))

    @precondition(lambda self: self.s.pipes)
    @rule(data=st.data(), flip=st.booleans(), updir=st.sampled_from(list(UpDir)),
          stretch=st.none() | st.floats(-2.0, 3.0), color=st.integers(-2, 18))
    def place_block(self, data, flip, updir, stretch, color):
        pipe = self.pick(data, "pipes")
        self.edit(edit.place_block, self.pick(data, "symbols"), pipe,
                  self.along(data, pipe), flip, updir, LineStyle(color, LineType.SOLID),
                  self.pick(data, "pipes", optional=True),
                  self.pick(data, "pipes", optional=True), stretch)

    @precondition(lambda self: self.s.points)
    @rule(data=st.data(), xyz=POINTS)
    def move_point(self, data, xyz):
        pid = self.pick(data, "points")
        oracle = copy.deepcopy(self.s) if integrity_check(self.s) == [] else None
        got = self.edit(edit.move_point, pid, *xyz)
        if oracle is not None:
            want = outcome(oracle_move_point, oracle, pid, *xyz)
            assert want == (None if got is None else ("EditError", got)), (pid, xyz)
            assert persist.save_text(self.s) == persist.save_text(oracle)

    @precondition(lambda self: len(self.s.points) >= 2)
    @rule(data=st.data())
    def add_dimension(self, data):
        ids = data.draw(st.lists(st.sampled_from(sorted(self.s.points)),
                                 min_size=2, max_size=3, unique=True))
        points = [DimPoint(DimPointKind.POINT, pid) for pid in ids]
        view = geometry.OffsetView(self.s)
        legal = sorted(constraints.legal_dimension_orientations(view, points), key=repr)
        if not legal:
            return
        ext, direction = data.draw(st.sampled_from(legal))
        before = set(map(str, integrity_check(self.s)))
        did = self.s.insert("dimensions", Dimension(points, ext, direction))
        if set(map(str, integrity_check(self.s))) - before:
            # legal for its points, but a general plane splits it obliquely
            del self.s.dimensions[did]

    @precondition(lambda self: self.s.points)
    @rule(data=st.data())
    def delete_point(self, data):
        self.edit(edit.delete_point, self.pick(data, "points"))

    # unchecked writes: a point may coincide with another, a pipe overlap one

    @rule(xyz=POINTS)
    def insert_point(self, xyz):
        self.s.insert("points", Point3(*xyz))

    @precondition(lambda self: len(self.s.points) >= 2)
    @rule(data=st.data())
    def insert_pipe(self, data):
        a, b = data.draw(st.lists(st.sampled_from(sorted(self.s.points)),
                                  min_size=2, max_size=2, unique=True))
        self.s.insert("pipes", Pipe(a, b))

    @rule()
    def save_and_load(self):
        self.s = persist.load_text(persist.save_text(self.s))

    @invariant()
    def the_index_answers_as_a_scan(self):
        assert_index_answers_as_a_scan(self.s, self.probes, 6)


EditMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
test_edits_keep_the_scheme_valid = EditMachine.TestCase
