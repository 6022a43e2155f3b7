"""Object model for axonometric piping-scheme documents.

A scheme is a plain value: plain dataclasses held in per-class dicts keyed by
stable integer identifiers.  Identifiers are allocated by a per-class counter
and never reused within a session; persistence renumbers them densely.

All 3D coordinates are model millimetres ("nature"); sheet-space millimetres
("paper") relate to them through ``Settings.scale``.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .vectors import (
    SegmentGrid,
    Vec2,
    Vec3,
    along3,
    cross3,
    dist3,
    dot3,
    grid_pairs,
    norm3,
    sub3,
    unit3,
)

# Point coincidence tolerance, model mm: closer than this merges to one point.
MERGE_EPS = 1e-6

PALETTE_SIZE = 16

# Special text symbols, stored as private-use codepoints; the renderer maps
# them to real glyphs (degree/diameter) or to stroke-built slope wedges.
SLOPE_LEFT = ""
SLOPE_RIGHT = ""
DEGREE = ""
DIAMETER = ""
SPECIAL_SYMBOLS = (SLOPE_LEFT, SLOPE_RIGHT, DEGREE, DIAMETER)


class SchemeError(Exception):
    """Base class for kernel errors."""


class UnknownIdError(SchemeError):
    """A referenced identifier does not resolve."""


class EditError(SchemeError):
    """An edit was rejected by a compatibility rule."""


class Axis(Enum):
    X = "x"
    Y = "y"
    Z = "z"

    def unit(self) -> Vec3:
        return _AXIS_UNIT[self._value_]

    @property
    def index(self) -> int:
        return _AXIS_INDEX[self._value_]


# keyed by value, not member: an Enum member hashes through a Python call
_AXIS_UNIT = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


class LineType(Enum):
    SOLID = "solid"
    DASHED = "dashed"
    DASH_DOT = "dash-dot"
    DOTTED = "dotted"


@dataclass
class LineStyle:
    color: int = 0
    line_type: LineType = LineType.SOLID


@dataclass
class Point3:
    x: float
    y: float
    z: float

    def as_tuple(self) -> Vec3:
        return (self.x, self.y, self.z)


@dataclass
class Pipe:
    start: int
    end: int
    style: LineStyle = field(default_factory=LineStyle)


class JointKind(Enum):
    BUTT = "butt"
    FILLET = "fillet"


@dataclass
class Joint:
    pipe_a: int
    pipe_b: int
    kind: JointKind = JointKind.BUTT
    radius: float = 0.0  # fillet radius, nature mm; meaningful for FILLET only


class OffsetKind(Enum):
    GENERAL = "general"
    LOCAL = "local"


@dataclass
class Offset:
    """Non-metric stretch/compression of one side of the scheme.

    ``ort`` points from the fixed side into the displaced side; a positive
    magnitude stretches the drawing apart, a negative one compresses it.
    General offsets cut space with an axis-aligned plane; local offsets
    displace an explicit point set bounded by their break lines.
    """

    letter: str
    ort: Vec3
    magnitude: float
    kind: OffsetKind
    axis: Axis | None = None      # GENERAL: plane normal axis
    plane_coord: float = 0.0      # GENERAL: plane position on that axis
    displaced_points: set[int] = field(default_factory=set)  # LOCAL


class BreakGlyph(Enum):
    DOTS = "dots"
    WAVES = "waves"


@dataclass
class BreakLine:
    pipe: int
    offset: int
    paper_len: float
    # GENERAL offset: shift of the break centre from the cutting plane along
    # ort, nature mm.  LOCAL offset: break position on the pipe from its
    # start, nature mm.
    placement: float = 0.0
    label_shift_axial: float = 0.0
    label_shift_normal: float = 0.0
    glyph: BreakGlyph = BreakGlyph.DOTS


class Attach(Enum):
    AXIAL = "axial"
    ANGULAR = "angular"
    TEE = "tee"

    @property
    def legs(self) -> int:
        return {Attach.AXIAL: 1, Attach.ANGULAR: 2, Attach.TEE: 3}[self]


@dataclass
class SymbolSegment:
    x1: float
    y1: float
    x2: float
    y2: float


@dataclass
class SymbolArc:
    cx: float
    cy: float
    r: float
    a0: float  # degrees, counter-clockwise from +X
    a1: float


@dataclass
class SymbolDef:
    name: str
    graphics: list
    attach: Attach = Attach.AXIAL
    cut_lengths: tuple[float, ...] = (0.0,)  # paper mm, one per leg
    sym_axis: bool = False
    sym_normal: bool = False
    stretch_default: float = 1.0


class UpDir(Enum):
    XP = "x+"
    XM = "x-"
    YP = "y+"
    YM = "y-"
    ZP = "z+"
    ZM = "z-"
    PIPE2 = "pipe2"
    PIPE3 = "pipe3"

    @property
    def is_axis(self) -> bool:
        return self not in (UpDir.PIPE2, UpDir.PIPE3)

    def axis_vector(self) -> Vec3:
        return {
            UpDir.XP: (1.0, 0.0, 0.0), UpDir.XM: (-1.0, 0.0, 0.0),
            UpDir.YP: (0.0, 1.0, 0.0), UpDir.YM: (0.0, -1.0, 0.0),
            UpDir.ZP: (0.0, 0.0, 1.0), UpDir.ZM: (0.0, 0.0, -1.0),
        }[self]


@dataclass
class Block:
    symbol: int
    pipe: int
    dist_from_start: float = 0.0
    pipe2: int | None = None
    pipe3: int | None = None
    style: LineStyle = field(default_factory=LineStyle)
    flip: bool = False
    updir: UpDir = UpDir.ZP
    stretch: float = 1.0


@dataclass
class FontSetting:
    face: str = "gost-a"
    height: float = 3.5  # paper mm
    width_factor: float = 1.0
    slant: bool = False


class SlopeFormat(Enum):
    ANGLE = "angle"
    RATIO = "ratio"
    PERCENT = "percent"


class TargetKind(Enum):
    PIPE = "pipe"
    BLOCK = "block"


class ShelfFrom(Enum):
    START = "start"
    END = "end"


@dataclass
class Text:
    lines: list[str]
    main_leader: tuple[TargetKind, int]
    font: FontSetting = field(default_factory=FontSetting)
    line_step: float = 5.0
    color: int = 0
    offset_vec: Vec2 = (0.0, 0.0)  # nature mm from indicated point to text origin
    slope_format: SlopeFormat | None = None


@dataclass
class LeaderToPipe:
    text: int
    pipe: int
    t: float  # nature mm from pipe start


@dataclass
class LeaderToBlock:
    text: int
    block: int
    anchor: Vec2  # paper mm on the symbol's library image


@dataclass
class PositionMark:
    target_kind: TargetKind
    target: int
    props: list[int]
    anchor_t: float = 0.0          # pipe target
    anchor_xy: Vec2 = (0.0, 0.0)   # block target
    font: FontSetting = field(default_factory=FontSetting)
    line_step: float = 5.0
    color: int = 0
    offset_vec: Vec2 = (0.0, 0.0)
    shelf_from: ShelfFrom = ShelfFrom.START
    visible: bool = True


class SpecKind(Enum):
    FOR_PIPE = "pipe"
    FOR_BLOCK = "block"


@dataclass
class ExtendedProps:
    type_mark: str = ""
    name_and_spec: str = ""
    unit_name: str = ""
    manufacturer: str = ""
    equipment_code: str = ""


@dataclass
class SpecProps:
    position: int
    kind: SpecKind
    qty: float = 1.0  # FOR_BLOCK only, per mark
    designation: str = ""
    name: str = ""
    unit_mass_kg: float = 0.0
    note: str = ""
    extended: ExtendedProps | None = None


class DimPointKind(Enum):
    POINT = "point"
    BLOCK = "block"


@dataclass(frozen=True)
class DimPoint:
    kind: DimPointKind
    ref: int


@dataclass(frozen=True)
class DimDirection:
    axis: Axis | None = None
    pipe: int | None = None

    @property
    def along_pipe(self) -> bool:
        return self.pipe is not None


@dataclass
class Dimension:
    points: list[DimPoint]
    ext_axis: Axis
    dim_dir: DimDirection
    line_offset: float = 10.0  # paper mm from the first stored point
    text_offset: float = 1.5   # paper mm from the dimension line


class ShelfDir(Enum):
    XP = "x+"
    XM = "x-"
    YP = "y+"
    YM = "y-"

    @property
    def axis(self) -> Axis:
        return Axis.X if self in (ShelfDir.XP, ShelfDir.XM) else Axis.Y

    @property
    def sign(self) -> float:
        return 1.0 if self in (ShelfDir.XP, ShelfDir.YP) else -1.0


@dataclass
class ElevationMark:
    target_kind: TargetKind
    target: int
    t: float = 0.0  # pipe target only
    ext_axis: Axis = Axis.X
    shelf_dir: ShelfDir = ShelfDir.XP
    arrow_shift: float = 10.0
    shelf_shift: float = 5.0
    line_type: LineType = LineType.SOLID


@dataclass
class SlopeMark:
    pipe: int
    t: float
    shift: float = 3.0
    format: SlopeFormat = SlopeFormat.PERCENT
    precision: int = 1


@dataclass
class AxisGroup:
    count: int
    step: float  # nature mm


@dataclass
class GridSettings:
    digits_label_x: bool = True
    plane_z: float = 0.0
    bend_shift_z: float = 10.0  # paper mm
    visible_x: set[int] = field(default_factory=set)  # 1-based axis indices
    visible_y: set[int] = field(default_factory=set)
    dim_offset_x: float = 10.0
    dim_offset_y: float = 10.0
    lead_len_x: float = 6.0
    lead_len_y: float = 6.0
    first_number: int = 1
    first_letter: str = "А"
    overall_dim_x: bool = False
    overall_dim_y: bool = False
    dir_positive_x: bool = True
    dir_positive_y: bool = True
    labels_at_first: bool = True
    color: int = 0


@dataclass
class AxisGrid:
    x_groups: list[AxisGroup]
    y_groups: list[AxisGroup]
    settings: GridSettings = field(default_factory=GridSettings)


@dataclass
class Slice:
    """Height slab selecting part of the scheme; both bounds None means all."""

    z_min: float | None = None
    z_max: float | None = None

    @property
    def is_all(self) -> bool:
        return self.z_min is None and self.z_max is None

    def contains(self, z: float) -> bool:
        if self.is_all:
            return True
        return self.z_min <= z <= self.z_max


@dataclass
class Visibility:
    pipes: bool = True
    joints: bool = True
    breaks: bool = True
    blocks: bool = True
    texts: bool = True
    position_marks: bool = True
    dimensions: bool = True
    elevations: bool = True
    slopes: bool = True
    grid: bool = True
    axes_icon: bool = True
    occlusion: bool = True
    break_letters: bool = True
    covered_pipes: bool = False
    hidden_marks: bool = False


@dataclass
class JointDefaults:
    kind: JointKind = JointKind.BUTT
    radius: float = 100.0


@dataclass
class BreakSettings:
    paper_len: float = 6.0
    label_shift_axial: float = 2.0
    label_shift_normal: float = 2.0
    dot_step: float = 1.0        # scheme-wide
    wave_diameter: float = 8.0   # scheme-wide
    label_font: FontSetting = field(default_factory=lambda: FontSetting(height=5.0))


@dataclass
class BlockDefaults:
    stretch: float = 1.0
    style: LineStyle = field(default_factory=LineStyle)


@dataclass
class TextDefaults:
    font: FontSetting = field(default_factory=FontSetting)
    color: int = 0
    line_step: float = 5.0
    shelf_from: ShelfFrom = ShelfFrom.START
    second_shelf: bool = False


@dataclass
class MarkDefaults:
    font: FontSetting = field(default_factory=FontSetting)
    color: int = 0
    line_step: float = 5.0
    shelf_from: ShelfFrom = ShelfFrom.START


@dataclass
class DimensionSettings:
    font: FontSetting = field(default_factory=FontSetting)
    arrow_len: float = 2.5
    precision: int = 0
    color: int = 0
    text_offset: float = 1.5
    ext_overshoot: float = 2.0  # extension line past the dimension line


@dataclass
class ElevationSettings:
    line_type: LineType = LineType.SOLID
    ext_axis: Axis = Axis.X
    shelf_dir: ShelfDir = ShelfDir.XP
    arrow_shift: float = 10.0
    shelf_shift: float = 5.0
    font: FontSetting = field(default_factory=FontSetting)
    arrow_len: float = 4.0
    color: int = 0


@dataclass
class SlopeSettings:
    shift: float = 3.0
    format: SlopeFormat = SlopeFormat.PERCENT
    precision: int = 1
    font: FontSetting = field(default_factory=FontSetting)
    arrow_len: float = 5.0
    arrow_span: float = 1.0
    color: int = 0


@dataclass
class Settings:
    # object defaults
    pipe_style: LineStyle = field(default_factory=LineStyle)
    joint: JointDefaults = field(default_factory=JointDefaults)
    breaks: BreakSettings = field(default_factory=BreakSettings)
    block: BlockDefaults = field(default_factory=BlockDefaults)
    text: TextDefaults = field(default_factory=TextDefaults)
    mark: MarkDefaults = field(default_factory=MarkDefaults)
    dimension: DimensionSettings = field(default_factory=DimensionSettings)
    elevation: ElevationSettings = field(default_factory=ElevationSettings)
    slope: SlopeSettings = field(default_factory=SlopeSettings)
    grid: GridSettings = field(default_factory=GridSettings)
    flange_positions: int = 3
    # working mode
    occlusion_gap_len: float = 2.0
    current_param_file: str = ""
    projection: str = "isometric"
    slice: Slice = field(default_factory=Slice)
    visibility: Visibility = field(default_factory=Visibility)
    work_temperature: float = 0.0
    work_pressure: float = 0.0
    autonumber: bool = True
    spec_extended: bool = False
    # paper mm per nature mm, 1:50; pinned to 32-bit storage precision
    scale: float = 0.019999999552965164


# Collection names, in a fixed order shared by persistence and integrity.
COLLECTIONS = (
    "points", "pipes", "joints", "offsets", "breaks", "symbols", "blocks",
    "texts", "pipe_leaders", "block_leaders", "position_marks", "spec_props",
    "dimensions", "elevation_marks", "slope_marks",
)


@dataclass
class Scheme:
    points: dict[int, Point3] = field(default_factory=dict)
    pipes: dict[int, Pipe] = field(default_factory=dict)
    joints: dict[int, Joint] = field(default_factory=dict)
    offsets: dict[int, Offset] = field(default_factory=dict)
    breaks: dict[int, BreakLine] = field(default_factory=dict)
    symbols: dict[int, SymbolDef] = field(default_factory=dict)
    blocks: dict[int, Block] = field(default_factory=dict)
    texts: dict[int, Text] = field(default_factory=dict)
    pipe_leaders: dict[int, LeaderToPipe] = field(default_factory=dict)
    block_leaders: dict[int, LeaderToBlock] = field(default_factory=dict)
    position_marks: dict[int, PositionMark] = field(default_factory=dict)
    spec_props: dict[int, SpecProps] = field(default_factory=dict)
    dimensions: dict[int, Dimension] = field(default_factory=dict)
    elevation_marks: dict[int, ElevationMark] = field(default_factory=dict)
    slope_marks: dict[int, SlopeMark] = field(default_factory=dict)
    axis_grid: AxisGrid | None = None
    settings: Settings = field(default_factory=Settings)
    # allocation counters are session state, not document content
    next_ids: dict[str, int] = field(default_factory=dict, compare=False)
    # the spatial index the edits probe, session state too; see index()
    _index: "SpatialIndex | None" = field(default=None, init=False, repr=False,
                                          compare=False)

    # -- identifier allocation ------------------------------------------

    def new_id(self, collection: str) -> int:
        """The next free id: past the counter and every stored id, so that
        ``insert`` never replaces an object."""
        stored = getattr(self, collection)
        nid = self.next_ids.get(collection, 1)
        while nid in stored:
            nid += 1
        self.next_ids[collection] = nid + 1
        return nid

    def insert(self, collection: str, obj) -> int:
        nid = self.new_id(collection)
        getattr(self, collection)[nid] = obj
        if self._index is not None:
            self._index.add(self, collection, nid)
        return nid

    def remove(self, collection: str, oid: int) -> None:
        del getattr(self, collection)[oid]
        if self._index is not None:
            self._index.discard(collection, oid)

    # -- spatial index ----------------------------------------------------

    def index(self) -> "SpatialIndex":
        """The spatial index of the points and pipes, for the edits' probes.

        It is built on first use, and built again when the size of either
        collection differs from what it holds.  ``insert``, ``remove`` and
        ``refile`` keep it up to date; a caller that writes a stored
        point's coordinates or a pipe's ends in place, or replaces an entry
        under the same id, calls ``drop_index`` before the next edit.
        """
        idx = self._index
        if (idx is None or len(idx.points) != len(self.points)
                or len(idx.pipes) != len(self.pipes)):
            idx = self._index = SpatialIndex(self)
        return idx

    def drop_index(self) -> None:
        """Forget the spatial index; the next probe builds it afresh."""
        self._index = None

    def refile(self, point_id: int, pipe_ids) -> None:
        """File a point that moved, and its pipes, again in the index."""
        if self._index is not None:
            self._index.add(self, "points", point_id)
            for pid in pipe_ids:
                self._index.add(self, "pipes", pid)

    # -- checked accessors ----------------------------------------------

    def _get(self, collection: str, oid: int):
        try:
            return getattr(self, collection)[oid]
        except KeyError:
            raise UnknownIdError(f"unknown {collection[:-1]} id {oid}") from None

    def point(self, oid: int) -> Point3:
        return self._get("points", oid)

    def pipe(self, oid: int) -> Pipe:
        return self._get("pipes", oid)

    def joint(self, oid: int) -> Joint:
        return self._get("joints", oid)

    def offset(self, oid: int) -> Offset:
        return self._get("offsets", oid)

    def symbol(self, oid: int) -> SymbolDef:
        return self._get("symbols", oid)

    def block(self, oid: int) -> Block:
        return self._get("blocks", oid)

    def text(self, oid: int) -> Text:
        return self._get("texts", oid)

    def spec_prop(self, oid: int) -> SpecProps:
        return self._get("spec_props", oid)


def new_scheme() -> Scheme:
    return Scheme()


# -- references ----------------------------------------------------------------
#
# Points are the only objects holding coordinates; everything else hangs off
# them by id.  REFERENCES is the one list of fields that hold ids: renumbering,
# the loaders' index check, the dangling-ref rule and the delete cascade are
# all read from it.

@dataclass(frozen=True)
class Ref:
    """Field ``field`` of the objects in ``collection`` holds ids of ``target``.

    ``target`` is a collection name or a dict from kind to collection name.
    With a dict, the kind is the owner's ``kind_field`` when that is given;
    otherwise each stored value carries its own kind, as a ``(kind, id)``
    tuple (a text's main leader) or as a ``DimPoint``.  ``shape`` is the
    container of the ids: None for one id (or None), ``list``, ``set``, or
    ``DimDirection``, whose pipe is one id (or None).
    """

    collection: str
    field: str
    target: str | dict
    shape: type | None = None
    kind_field: str | None = None

    @property
    def targets(self) -> tuple[str, ...]:
        """Every collection the field may name."""
        return (self.target,) if isinstance(self.target, str) else tuple(self.target.values())

    def _split(self, obj, value) -> tuple[str, int]:
        """(target collection, id) of one stored value."""
        if isinstance(self.target, str):
            return self.target, value
        if self.kind_field is not None:
            return self.target[getattr(obj, self.kind_field)], value
        kind, rid = (value.kind, value.ref) if isinstance(value, DimPoint) else value
        return self.target[kind], rid

    def ids(self, obj) -> list[tuple[str, int]]:
        """(target collection, id) of every id the field stores in ``obj``."""
        value = getattr(obj, self.field)
        if self.shape is DimDirection:
            value = value.pipe
        elif self.shape is not None:  # a list or a set
            return [self._split(obj, v) for v in value]
        return [] if value is None else [self._split(obj, value)]

    def mapped(self, obj, fn):
        """The field's value in ``obj`` with each id replaced by ``fn(target, id)``;
        list and set members mapped to None are dropped."""
        def one(v):
            new = fn(*self._split(obj, v))
            if new is None or isinstance(v, int):
                return new
            return DimPoint(v.kind, new) if isinstance(v, DimPoint) else (v[0], new)

        value = getattr(obj, self.field)
        if self.shape is list or self.shape is set:
            return self.shape(m for m in map(one, value) if m is not None)
        if self.shape is DimDirection:
            return value if value.pipe is None else DimDirection(value.axis, one(value.pipe))
        return None if value is None else one(value)


_ON_TARGET = {TargetKind.PIPE: "pipes", TargetKind.BLOCK: "blocks"}
LEADERS = {TargetKind.PIPE: "pipe_leaders", TargetKind.BLOCK: "block_leaders"}

REFERENCES = (
    Ref("pipes", "start", "points"),
    Ref("pipes", "end", "points"),
    Ref("joints", "pipe_a", "pipes"),
    Ref("joints", "pipe_b", "pipes"),
    Ref("offsets", "displaced_points", "points", set),
    Ref("breaks", "pipe", "pipes"),
    Ref("breaks", "offset", "offsets"),
    Ref("blocks", "symbol", "symbols"),
    Ref("blocks", "pipe", "pipes"),
    Ref("blocks", "pipe2", "pipes"),
    Ref("blocks", "pipe3", "pipes"),
    Ref("texts", "main_leader", LEADERS),
    Ref("pipe_leaders", "text", "texts"),
    Ref("pipe_leaders", "pipe", "pipes"),
    Ref("block_leaders", "text", "texts"),
    Ref("block_leaders", "block", "blocks"),
    Ref("position_marks", "target", _ON_TARGET, kind_field="target_kind"),
    Ref("position_marks", "props", "spec_props", list),
    Ref("dimensions", "points",
        {DimPointKind.POINT: "points", DimPointKind.BLOCK: "blocks"}, list),
    Ref("dimensions", "dim_dir", "pipes", DimDirection),
    Ref("elevation_marks", "target", _ON_TARGET, kind_field="target_kind"),
    Ref("slope_marks", "pipe", "pipes"),
)

# subject prefix of each collection's objects in violations
SUBJECTS = {name: name[:-1] for name in COLLECTIONS} | {
    "position_marks": "mark", "spec_props": "props", "dimensions": "dim",
    "elevation_marks": "elevation", "slope_marks": "slope"}


def _in_dict_order(objs: dict, ids) -> list:
    """(id, object) of each of ``ids`` in ``objs``, in dict order."""
    if len(ids) > 1:
        ids = [oid for oid in objs if oid in ids]
    return [(oid, objs[oid]) for oid in ids]


def dangling_refs(scheme: Scheme, reach: dict[str, set[int]] | None = None):
    """(collection, id, field, target, missing id) of every unresolved
    reference, or of those that the objects in ``reach`` hold."""
    for ref in REFERENCES:
        objs = getattr(scheme, ref.collection)
        items = objs.items() if reach is None else _in_dict_order(objs, reach[ref.collection])
        if ref.shape is None and isinstance(ref.target, str):
            # one id or None, read without ids(), as in close_over_referrers
            stored, get = getattr(scheme, ref.target), attrgetter(ref.field)
            for oid, obj in items:
                rid = get(obj)
                if rid is not None and rid not in stored:
                    yield ref.collection, oid, ref.field, ref.target, rid
            continue
        for oid, obj in items:
            for target, rid in ref.ids(obj):
                if rid not in getattr(scheme, target):
                    yield ref.collection, oid, ref.field, target, rid


def close_over_referrers(scheme: Scheme, found: dict[str, set[int]], rows) -> None:
    """Add to ``found`` each object that refers through one of ``rows`` to an
    object in ``found``, until no more do."""
    again = True
    while again:
        again = False
        for i, ref in enumerate(rows):
            if not any(found[t] for t in ref.targets):
                continue
            owners = found[ref.collection]
            before = len(owners)
            items = getattr(scheme, ref.collection).items()
            if ref.shape is None and isinstance(ref.target, str):
                # one id of one collection, read without ids(): a delete scans
                # every pipe twice, and an ids() call per object doubled the
                # time of delete_point on documents of 20-150 pipes
                hit = found[ref.target]
                owners.update(oid for oid, obj in items if getattr(obj, ref.field) in hit)
            else:
                hit = {(t, rid) for t in ref.targets for rid in found[t]}
                owners.update(oid for oid, obj in items if not hit.isdisjoint(ref.ids(obj)))
            # a row already passed may refer to the new owners
            again |= len(owners) > before and any(
                ref.collection in r.targets for r in rows[:i + 1])


# -- pipe geometry helpers ------------------------------------------------

def pipe_ends(scheme: Scheme, pipe_id: int) -> tuple[Vec3, Vec3]:
    p = scheme.pipe(pipe_id)
    return scheme.point(p.start).as_tuple(), scheme.point(p.end).as_tuple()


def pipe_length(scheme: Scheme, pipe_id: int) -> float:
    a, b = pipe_ends(scheme, pipe_id)
    return dist3(a, b)


def pipe_direction(scheme: Scheme, pipe_id: int) -> Vec3:
    a, b = pipe_ends(scheme, pipe_id)
    return unit3(sub3(b, a))


def pipe_point_at(scheme: Scheme, pipe_id: int, t: float) -> Vec3:
    """Point at arc length ``t`` (nature mm) from the pipe start."""
    a, b = pipe_ends(scheme, pipe_id)
    return along3(a, b, dist3(a, b), t)


def block_anchor_point(scheme: Scheme, block_id: int) -> Vec3:
    blk = scheme.block(block_id)
    return pipe_point_at(scheme, blk.pipe, blk.dist_from_start)


def dim_point_at(scheme: Scheme, dp: DimPoint) -> Vec3:
    """Where a dimension point sits: its point, or its block's anchor."""
    if dp.kind is DimPointKind.POINT:
        return scheme.point(dp.ref).as_tuple()
    return block_anchor_point(scheme, dp.ref)


def symbol_bbox(sym: SymbolDef) -> tuple[float, float, float, float]:
    """Bounding box (xmin, ymin, xmax, ymax) of the symbol graphics."""
    xs: list[float] = []
    ys: list[float] = []
    for g in sym.graphics:
        if isinstance(g, SymbolSegment):
            xs += [g.x1, g.x2]
            ys += [g.y1, g.y2]
        elif isinstance(g, SymbolArc):
            xs += [g.cx - g.r, g.cx + g.r]
            ys += [g.cy - g.r, g.cy + g.r]
    if not xs:
        return (0.0, 0.0, 0.0, 0.0)
    return (min(xs), min(ys), max(xs), max(ys))


# -- integrity -------------------------------------------------------------

@dataclass
class Violation:
    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule} {self.subject}: {self.message}"


def _bad(out: list[Violation], rule: str, subject: str, message: str) -> None:
    out.append(Violation(rule, subject, message))


def _dangling(name: str, oid: int, field_name: str, target: str, rid: int) -> Violation:
    """The ``dangling-ref`` violation of one unresolved reference."""
    return Violation("dangling-ref", f"{SUBJECTS[name]}:{oid}",
                     f"{field_name} references missing {target[:-1]} {rid}")


def dangling_pipe_ends(scheme: Scheme, pipes: dict[int, Pipe]) -> list[Violation]:
    """The ``dangling-ref`` violations of those of ``pipes`` ({id: pipe})
    that have a missing end, as ``integrity_check`` reports them: an edit
    that must read these pipes' geometry refuses by them.  One membership
    test per end."""
    pts = scheme.points
    bad = {pid for pid, pipe in pipes.items() if pipe.start not in pts or pipe.end not in pts}
    if not bad:
        return []
    reach = {name: set() for name in COLLECTIONS} | {"pipes": bad}
    return [_dangling(*ref) for ref in dangling_refs(scheme, reach)]


# the fields read to place a dimension's points: a point, or a block's anchor
# on its pipe
_PLACING = {("dimensions", "points"), ("blocks", "pipe"), ("pipes", "start"), ("pipes", "end")}


def unplaced_dimension_points(scheme: Scheme) -> list[Violation]:
    """The ``dangling-ref`` violations that leave a dimension point without a
    place, as ``integrity_check`` reports them: a missing point or block,
    or a missing pipe or pipe end under one of its blocks.  An edit that
    must place every dimension's points refuses by them."""
    pts, pipes = scheme.points, scheme.pipes

    def placed(dp: DimPoint) -> bool:
        if dp.kind is DimPointKind.POINT:
            return dp.ref in pts
        blk = scheme.blocks.get(dp.ref)
        pipe = None if blk is None else pipes.get(blk.pipe)
        return pipe is not None and pipe.start in pts and pipe.end in pts

    if all(placed(dp) for dim in scheme.dimensions.values() for dp in dim.points):
        return []
    blocks = {dp.ref for dim in scheme.dimensions.values() for dp in dim.points
              if dp.kind is DimPointKind.BLOCK and dp.ref in scheme.blocks}
    reach = {name: set() for name in COLLECTIONS} | {
        "dimensions": set(scheme.dimensions), "blocks": blocks,
        "pipes": {scheme.blocks[b].pipe for b in blocks} & pipes.keys()}
    return [_dangling(*ref) for ref in dangling_refs(scheme, reach)
            if (ref[0], ref[2]) in _PLACING]


def _check_style(out: list[Violation], subject: str, style: LineStyle) -> None:
    if not (type(style.color) is int and 0 <= style.color < PALETTE_SIZE):
        _bad(out, "style-palette", subject, f"color index {style.color} outside palette")


def _check_font(out: list[Violation], subject: str, font: FontSetting) -> None:
    if not (font.height > 0 and font.width_factor > 0):
        _bad(out, "font-invalid", subject, "font height and width factor must be positive")


def _check_offset(out: list[Violation], oid: int, off: Offset,
                  letters: dict[str, int]) -> None:
    """An offset's rules; ``letters`` maps earlier offsets' letters to ids."""
    subject = f"offset:{oid}"
    if not abs(norm3(off.ort) - 1.0) <= 1e-9:
        _bad(out, "offset-ort", subject, "ort is not unit length")
    if not abs(off.magnitude) > 0.0:
        _bad(out, "offset-magnitude", subject, "magnitude must be nonzero")
    if off.letter in letters:
        _bad(out, "offset-letter", subject,
             f"letter {off.letter!r} already used by offset {letters[off.letter]}")
    else:
        letters[off.letter] = oid
    if off.kind is OffsetKind.GENERAL:
        if off.axis is None:
            _bad(out, "offset-general-axis", subject, "general offset needs a plane axis")
        else:
            au = off.axis.unit()
            if abs(abs(dot3(off.ort, au)) - 1.0) > 1e-9:
                _bad(out, "offset-general-axis", subject,
                     "ort must be the plane normal (either sign)")


def _check_break(out: list[Violation], scheme: Scheme, subject: str, brk: BreakLine) -> None:
    """A break line's glyph, and its place on the pipe its offset crosses."""
    off = scheme.offsets[brk.offset]
    if brk.glyph is BreakGlyph.WAVES and off.magnitude >= 0:
        _bad(out, "break-glyph", subject, "wave glyph allowed only for compression")
    if off.kind is OffsetKind.GENERAL and off.axis is not None:
        a0, a1 = pipe_ends(scheme, brk.pipe)
        c0 = a0[off.axis.index] - off.plane_coord
        c1 = a1[off.axis.index] - off.plane_coord
        if not (min(c0, c1) < 0.0 < max(c0, c1)):
            _bad(out, "break-unaffected", subject,
                 "pipe does not cross the offset plane")
    if off.kind is OffsetKind.LOCAL:
        if not (0.0 <= brk.placement <= pipe_length(scheme, brk.pipe)):
            _bad(out, "break-unaffected", subject, "break position outside the pipe")


def _segments_overlap(a0: Vec3, a1: Vec3, b0: Vec3, b1: Vec3) -> bool:
    """True if two segments share a collinear sub-segment of positive length."""
    da = sub3(a1, a0)
    db = sub3(b1, b0)
    la = norm3(da)
    lb = norm3(db)
    if la == 0.0 or lb == 0.0:
        return False
    scale = max(la, lb)
    tol = 1e-9 * scale
    if norm3(cross3(da, db)) > tol * scale:
        return False  # not parallel
    if norm3(cross3(da, sub3(b0, a0))) > tol * scale:
        return False  # parallel but not on the same line
    # project b onto a's axis
    ua = (da[0] / la, da[1] / la, da[2] / la)
    s0 = dot3(sub3(b0, a0), ua)
    s1 = dot3(sub3(b1, a0), ua)
    lo, hi = min(s0, s1), max(s0, s1)
    return min(la, hi) - max(0.0, lo) > tol


def _pipe_margin(length: float, lmax: float) -> float:
    """Grid margin for a pipe of ``length`` among pipes no longer than ``lmax``.

    ``_segments_overlap(a, b)`` holds only if some point of b lies within
    2e-9 * max(la, lb)**2 / la of a point of a: b's start is within half
    that of a's line, and b turns away from the line by at most the other
    half.  Twice that bound, with lmax for max(la, lb), makes the grown
    segments of any such pair meet, with room for the predicate's own
    rounding.
    """
    return 4e-9 * lmax * (lmax / length + 1.0)


# -- spatial index ---------------------------------------------------------------
#
# Adding a point or a pipe probes a grid of the stored points and pipes
# (``vectors.SegmentGrid``) instead of testing every one.  A probe returns
# candidates in dict order, and a superset of the hits, so its first hit is
# the first hit of a scan.

# Points are filed in cells of this size.  A probe grows its query point by
# 2 * MERGE_EPS: dist3 < MERGE_EPS holds only within MERGE_EPS and its
# rounding, and rounding is monotone, so no hit falls outside.
POINT_CELL = 4 * MERGE_EPS


def _pipe_segment(scheme: Scheme, pipe: Pipe) -> tuple[Vec3, Vec3]:
    """A pipe's ends, all NaN for a missing end."""
    pts = scheme.points
    if pipe.start not in pts or pipe.end not in pts:
        return (math.nan,) * 3, (math.nan,) * 3
    return pts[pipe.start].as_tuple(), pts[pipe.end].as_tuple()


class SpatialIndex:
    """The points and pipes of a scheme, each in a ``vectors.SegmentGrid``.

    Points are filed as segments of length zero, and pipes as their bare
    segments, so a pipe with a missing or non-finite end is loose.  Each
    grid is filed in one pass when the index is built.  The pipe grid's cell
    is the median extent of the pipes, and the grid is filed again in one
    pass each time the number of pipes doubles, which costs amortised O(1)
    per pipe.  ``lmax`` is at least the longest finite stored pipe and
    ``lmin`` at most the shortest of nonzero length; neither moves back on a
    move or a delete, which only widens a probe.  A key's rank in either
    grid is its place in dict order.
    """

    def __init__(self, scheme: Scheme):
        coords = [(pid, p.as_tuple()) for pid, p in scheme.points.items()]
        self.points = SegmentGrid(((pid, c, c, 0.0) for pid, c in coords), POINT_CELL)
        self._rebucket(scheme)

    def _rebucket(self, scheme: Scheme) -> None:
        segs = [(pid, *_pipe_segment(scheme, pipe), 0.0) for pid, pipe in scheme.pipes.items()]
        self.pipes = SegmentGrid(segs)
        lengths = [length for length in (dist3(a, b) for _, a, b, _ in segs) if length < math.inf]
        self.lmax = max(lengths, default=0.0)
        self.lmin = min((length for length in lengths if length > 0.0), default=math.inf)
        self._bucketed = len(segs)

    def add(self, scheme: Scheme, collection: str, oid: int) -> None:
        """File a stored point or pipe, or file it again after it moved."""
        if collection == "points":
            c = scheme.points[oid].as_tuple()
            self.points.add(oid, c, c)
        elif collection == "pipes":
            a, b = _pipe_segment(scheme, scheme.pipes[oid])
            self.pipes.add(oid, a, b)
            length = dist3(a, b)
            if length < math.inf:
                self.lmax = max(self.lmax, length)
                if length > 0.0:
                    self.lmin = min(self.lmin, length)
            if len(self.pipes) >= 2 * self._bucketed:
                self._rebucket(scheme)

    def discard(self, collection: str, oid: int) -> None:
        if collection in ("points", "pipes"):
            getattr(self, collection).discard(oid)

    def points_near(self, c: Vec3) -> list[int]:
        """Ids of the points that may lie within MERGE_EPS of c, in dict order."""
        return self.points.near(c, c, 2 * MERGE_EPS)

    def pipes_near(self, a: Vec3, b: Vec3) -> list[int]:
        """Ids of the pipes that ``_segments_overlap`` of the candidate from
        ``a`` to ``b`` and the pipe, in either order, may accept, in dict
        order, for a candidate of nonzero length.  The candidate grows by
        ``_pipe_margin`` for the shorter and the longer of the two."""
        length = dist3(a, b)
        return self.pipes.near(a, b, _pipe_margin(min(self.lmin, length),
                                                  max(self.lmax, length)))


def _pairs_near(grid: SegmentGrid, mine: list[tuple], near) -> list[tuple]:
    """The pairs of the items in ``mine`` with one another and with the items
    ``near(item)`` returns that are not in ``mine``, each item a tuple led by
    its id in ``grid``.  Each pair comes (earlier, later) in filing order,
    sorted as ``grid_pairs`` sorts: as a scan of every pair would meet them."""
    rank = grid.rank
    own = {item[0] for item in mine}
    found: dict[tuple[int, int], tuple] = {}
    for k, a in enumerate(mine):
        ra = rank(a[0])
        for b in mine[k + 1:] + [b for b in near(a) if b[0] not in own]:
            rb = rank(b[0])
            if ra < rb:
                found[ra, rb] = (a, b)
            else:
                found[rb, ra] = (b, a)
    return [found[key] for key in sorted(found)]


def integrity_check(scheme: Scheme) -> list[Violation]:
    """Validate referential integrity and every per-type invariant.

    Returns an empty list for a consistent scheme; violations are data, not
    exceptions, so a broken document can still be inspected.  A rule that a
    value be positive or non-negative is written so that NaN fails it.

    Point coincidence and pipe overlap test only the candidate pairs that
    ``vectors.grid_pairs`` returns, so they cost time linear in the number of
    points, pipes and candidates rather than quadratic.  Each point and pipe
    is filed in the grid cells its grown segment passes through, so a pipe
    has a bounded number of candidates also where long mains and short
    stubs mix (fewer than 6 per pipe on a 600-pipe lattice).  The filter is
    conservative: every pair the exact predicates (``dist3 < MERGE_EPS``,
    ``_segments_overlap``) would accept is a candidate, on any input, so the
    violations and their order are those of testing every pair.  A
    non-finite point or pipe is paired with every other, which adds O(n)
    candidates per such object.
    """
    return check_reach(scheme, None)


def check_reach(scheme: Scheme, reach: dict[str, set[int]] | None) -> list[Violation]:
    """The rule passes of ``integrity_check``, in its order, over the objects
    whose ids ``reach`` holds per collection, or over every object when it
    is None.

    With a reach, a point or pipe of the reach is paired with the others of
    the reach and with those the scheme's spatial index returns near it, so
    the index may still hold the reach's own old segments.  The rules of the
    document as a whole (dense positions, the axis grid, the settings) run
    either way.  When every object whose verdict changed since the scheme
    was valid is in ``reach``, the result is that of ``integrity_check``.
    """
    out: list[Violation] = []
    pts = scheme.points
    pipes = scheme.pipes

    # references: each missing id is reported once; an object broken by one,
    # directly or through what it references, skips every check below
    broken: dict[str, set[int]] = {name: set() for name in COLLECTIONS}
    for name, oid, field_name, target, rid in dangling_refs(scheme, reach):
        out.append(_dangling(name, oid, field_name, target, rid))
        broken[name].add(oid)
    if out:
        close_over_referrers(scheme, broken, REFERENCES)

    def intact(name: str) -> list:
        objs = getattr(scheme, name)
        items = objs.items() if reach is None else _in_dict_order(objs, reach[name])
        return [(oid, obj) for oid, obj in items if oid not in broken[name]]

    # points: finite, pairwise distinct
    mine = [(pid, p.as_tuple()) for pid, p in intact("points")]
    for pid, c in mine:
        if not all(math.isfinite(v) for v in c):
            _bad(out, "point-finite", f"point:{pid}", "non-finite coordinate")
    if reach is None:
        grown = [(c, c, MERGE_EPS) for _, c in mine]
        pairs = [(mine[i], mine[j]) for i, j in grid_pairs(grown)]
    else:
        idx = scheme.index()
        pairs = _pairs_near(idx.points, mine, lambda a: [
            (q, pts[q].as_tuple()) for q in idx.points_near(a[1])])
    for (pa, a), (pb, b) in pairs:
        if dist3(a, b) < MERGE_EPS:
            _bad(out, "point-coincident", f"point:{pb}", f"coincides with point {pa}")

    # pipes; _segments_overlap rejects a zero-length pipe, so only pipes of
    # nonzero length are paired
    segs = []
    for pid, pipe in intact("pipes"):
        sub = f"pipe:{pid}"
        if pipe.start == pipe.end:
            _bad(out, "pipe-zero-length", sub, "start and end are the same point")
        elif dist3(pts[pipe.start].as_tuple(), pts[pipe.end].as_tuple()) < MERGE_EPS:
            _bad(out, "pipe-zero-length", sub, "endpoints coincide")
        _check_style(out, sub, pipe.style)
        a0, a1 = pipe_ends(scheme, pid)
        length = norm3(sub3(a1, a0))
        if length != 0.0:
            segs.append((pid, a0, a1, length))
    if reach is None:
        lmax = max((seg[3] for seg in segs if math.isfinite(seg[3])), default=0.0)
        grown = [(a0, a1, _pipe_margin(length, lmax)) for _, a0, a1, length in segs]
        pairs = [(segs[i], segs[j]) for i, j in grid_pairs(grown)]
    else:
        idx = scheme.index()

        def near(seg):
            found = []
            for pid in idx.pipes_near(seg[1], seg[2]):
                pipe = pipes[pid]
                if pipe.start in pts and pipe.end in pts:  # else broken: not paired
                    found.append((pid, pts[pipe.start].as_tuple(), pts[pipe.end].as_tuple()))
            return found

        pairs = _pairs_near(idx.pipes, segs, near)
    for a, b in pairs:  # (id, start, end, ...)
        if _segments_overlap(a[1], a[2], b[1], b[2]):
            _bad(out, "pipe-overlap", f"pipe:{b[0]}",
                 f"collinear overlap with pipe {a[0]}")

    # joints
    seen_pairs: dict[frozenset, int] = {}
    for jid, joint in intact("joints"):
        sub = f"joint:{jid}"
        if joint.pipe_a == joint.pipe_b:
            _bad(out, "joint-degenerate", sub, "joins a pipe with itself")
            continue
        pair = frozenset((joint.pipe_a, joint.pipe_b))
        if pair in seen_pairs:
            _bad(out, "joint-duplicate", sub,
                 f"second joint on pipe pair (first: joint {seen_pairs[pair]})")
        else:
            seen_pairs[pair] = jid
        a = pipes[joint.pipe_a]
        b = pipes[joint.pipe_b]
        shared = {a.start, a.end} & {b.start, b.end}
        if len(shared) != 1:
            _bad(out, "joint-not-adjacent", sub,
                 "joined pipes must share exactly one endpoint")
        if joint.kind is JointKind.FILLET and not joint.radius > 0:
            _bad(out, "joint-radius", sub, "fillet radius must be positive")

    # offsets
    letters: dict[str, int] = {}
    for oid, off in intact("offsets"):
        _check_offset(out, oid, off, letters)

    # break lines
    for bid, brk in intact("breaks"):
        _check_break(out, scheme, f"break:{bid}", brk)

    # local offset cuts read every pipe and the offset's breaks
    from . import constraints, geometry  # deferred: both import this module

    view = geometry.OffsetView(scheme)  # every offset pass asks this one view
    cut_damaged = {scheme.breaks[bid].offset for bid in broken["breaks"]}
    for oid, off in intact("offsets"):
        if off.kind is not OffsetKind.LOCAL or broken["pipes"] or oid in cut_damaged:
            continue
        out.extend(constraints.check_local_offset(view, oid))

    # symbol defs
    for sid, sym in intact("symbols"):
        sub = f"symbol:{sid}"
        if not sym.graphics:
            _bad(out, "symbol-empty", sub, "symbol has no graphics")
        if len(sym.cut_lengths) != sym.attach.legs:
            _bad(out, "symbol-cuts", sub,
                 f"{sym.attach.value} attach needs {sym.attach.legs} cut lengths")
        if any(not c >= 0 for c in sym.cut_lengths):
            _bad(out, "symbol-cuts", sub, "cut lengths must be non-negative")
        if not sym.stretch_default > 0:
            _bad(out, "symbol-stretch", sub, "stretch ratio must be positive")

    # blocks
    for bid, blk in intact("blocks"):
        out += constraints.check_block(scheme, f"block:{bid}", blk)

    # texts and leaders
    leaders_by_text: dict[int, list[tuple[TargetKind, int]]] = {}
    for lid, ld in intact("pipe_leaders"):
        sub = f"pipe_leader:{lid}"
        leaders_by_text.setdefault(ld.text, []).append((TargetKind.PIPE, lid))
        if not (0.0 <= ld.t <= pipe_length(scheme, ld.pipe)):
            _bad(out, "leader-range", sub, "pipe coordinate outside the pipe")
    for lid, ld in intact("block_leaders"):
        sub = f"block_leader:{lid}"
        leaders_by_text.setdefault(ld.text, []).append((TargetKind.BLOCK, lid))
        x0, y0, x1, y1 = symbol_bbox(scheme.symbols[scheme.blocks[ld.block].symbol])
        ax, ay = ld.anchor
        if not (x0 - 1e-9 <= ax <= x1 + 1e-9 and y0 - 1e-9 <= ay <= y1 + 1e-9):
            _bad(out, "leader-anchor", sub, "anchor outside the symbol bounding box")
    for tid, txt in intact("texts"):
        sub = f"text:{tid}"
        mine = leaders_by_text.get(tid, [])
        if not mine:
            _bad(out, "text-leaderless", sub, "no leader references this text")
            continue
        if txt.main_leader not in mine:
            _bad(out, "text-main", sub, "main leader does not reference this text")
        has_slope_sym = any(SLOPE_LEFT in ln or SLOPE_RIGHT in ln for ln in txt.lines)
        main_is_pipe = txt.main_leader[0] is TargetKind.PIPE
        want_format = main_is_pipe and has_slope_sym
        if (txt.slope_format is not None) != want_format:
            _bad(out, "text-slope-format", sub,
                 "slope format present iff main leader targets a pipe and"
                 " a line carries a slope symbol")
        _check_font(out, sub, txt.font)

    # position marks
    for mid, mark in intact("position_marks"):
        sub = f"mark:{mid}"
        if mark.target_kind is TargetKind.PIPE and not (
            0.0 <= mark.anchor_t <= pipe_length(scheme, mark.target)
        ):
            _bad(out, "leader-range", sub, "pipe coordinate outside the pipe")
        if not (1 <= len(mark.props) <= 8):
            _bad(out, "mark-props", sub, "a mark carries 1..8 positions")
        _check_font(out, sub, mark.font)

    # spec props
    seen_positions: dict[int, int] = {}
    for sid, props in intact("spec_props"):
        sub = f"props:{sid}"
        if props.position < 1:
            _bad(out, "props-position", sub, "position must be positive")
        if props.position in seen_positions:
            _bad(out, "props-position", sub,
                 f"position {props.position} already used by props {seen_positions[props.position]}")
        else:
            seen_positions[props.position] = sid
        if props.kind is SpecKind.FOR_BLOCK and not 0 < props.qty < math.inf:
            _bad(out, "props-qty", sub, "block quantity must be positive")
        if (props.extended is not None) != scheme.settings.spec_extended:
            _bad(out, "props-extended", sub,
                 "extended fields present iff the extended mode is set")
    if scheme.settings.autonumber and scheme.spec_props:
        have = sorted(p.position for p in scheme.spec_props.values())
        if have != list(range(1, len(have) + 1)):
            _bad(out, "props-dense", "props:*",
                 f"autonumbered positions must be exactly 1..{len(have)}, got {have}")

    # dimensions
    for did, dim in intact("dimensions"):
        sub = f"dim:{did}"
        if len(dim.points) < 2:
            _bad(out, "dim-points", sub, "a dimension needs at least two points")
            continue
        if broken["pipes"]:
            continue  # the orientation calculus scans every pipe
        out += constraints.check_dimension_orientation(view, sub, dim)

    # elevation marks
    for eid, mark in intact("elevation_marks"):
        sub = f"elevation:{eid}"
        if mark.target_kind is TargetKind.PIPE and not (
            0.0 <= mark.t <= pipe_length(scheme, mark.target)
        ):
            _bad(out, "leader-range", sub, "pipe coordinate outside the pipe")
        if mark.ext_axis is Axis.Z:
            _bad(out, "elevation-axis", sub, "extension axis must be X or Y")

    # slope marks
    for sid, mark in intact("slope_marks"):
        sub = f"slope:{sid}"
        if not (0.0 <= mark.t <= pipe_length(scheme, mark.pipe)):
            _bad(out, "leader-range", sub, "pipe coordinate outside the pipe")
        if mark.precision < 0:
            _bad(out, "slope-precision", sub, "precision must be non-negative")

    # axis grid
    grid = scheme.axis_grid
    if grid is not None:
        sub = "grid"
        if not grid.x_groups and not grid.y_groups:
            _bad(out, "grid-empty", sub, "grid needs groups on at least one axis")
        for groups in (grid.x_groups, grid.y_groups):
            for g in groups:
                if g.count < 1:
                    _bad(out, "grid-group", sub, "group count must be positive")
                if not g.step > 0:
                    _bad(out, "grid-group", sub, "group step must be positive")
        nx = sum(g.count for g in grid.x_groups)
        ny = sum(g.count for g in grid.y_groups)
        if any(i < 1 or i > nx for i in grid.settings.visible_x):
            _bad(out, "grid-visible", sub, "visible X indices outside the axis range")
        if any(i < 1 or i > ny for i in grid.settings.visible_y):
            _bad(out, "grid-visible", sub, "visible Y indices outside the axis range")

    # settings
    st = scheme.settings
    if not 0 < st.occlusion_gap_len < math.inf:
        _bad(out, "settings-invalid", "settings", "occlusion gap length must be positive")
    if not 0 < st.scale < math.inf:
        _bad(out, "settings-invalid", "settings", "scale must be positive")
    if st.dimension.precision < 0:
        _bad(out, "settings-invalid", "settings", "dimension precision must be non-negative")
    if st.slope.precision < 0:
        _bad(out, "settings-invalid", "settings", "slope precision must be non-negative")
    if st.slice.z_min is not None and st.slice.z_max is not None and not (
        st.slice.z_min < st.slice.z_max
    ):
        _bad(out, "settings-invalid", "settings", "slice bounds must be ordered")
    _check_style(out, "settings", st.pipe_style)

    # general offset planes, last: the pass reads every pipe and dimension,
    # or those of the reach
    if not any(broken.values()):
        in_pipes = in_dims = None
        if reach is not None:
            in_pipes = [pid for pid, _ in intact("pipes")]
            in_dims = intact("dimensions")
        for oid, off in intact("offsets"):
            if off.kind is OffsetKind.GENERAL and off.axis is not None:
                out += constraints.check_general_offset(view, oid, in_pipes, in_dims)
    return out


def connected_component(scheme: Scheme, pipe_id: int) -> set[int]:
    """Pipes transitively sharing endpoints with ``pipe_id``.

    Joint records are ignored: sharing a point is what connects pipes.
    """
    scheme.pipe(pipe_id)  # raises on unknown id
    by_point: dict[int, list[int]] = {}
    for pid, pipe in scheme.pipes.items():
        by_point.setdefault(pipe.start, []).append(pid)
        by_point.setdefault(pipe.end, []).append(pid)
    seen = {pipe_id}
    queue = [pipe_id]
    while queue:
        cur = queue.pop()
        pipe = scheme.pipes[cur]
        for pt in (pipe.start, pipe.end):
            for nxt in by_point.get(pt, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen
