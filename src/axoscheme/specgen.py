"""Specification (bill of materials) generation from position marks.

Quantities aggregate at model level: pipe positions sum true pipe lengths in
metres, block positions sum per-mark quantities.  Hidden marks contribute;
visibility is a drawing matter only.
"""

import math
from dataclasses import dataclass

from . import model
from .model import Scheme, SchemeError, SpecKind, TargetKind

SIX_HEADERS = ("Поз.", "Обозначение", "Наименование", "Кол.", "Масса ед.", "Примеч.")
EXTENDED_HEADERS = SIX_HEADERS + (
    "Тип, марка", "Наименование и техническая характеристика", "ЕдИзм",
    "Завод-изготовитель", "Код оборудов.")


class SpecGenError(SchemeError):
    pass


@dataclass
class SpecTable:
    mode: str
    headers: tuple[str, ...]
    rows: list[tuple[str, ...]]
    work_temperature: float
    work_pressure: float

    def to_tsv(self) -> str:
        out = [f"# work_temperature={self.work_temperature:g}",
               f"# work_pressure={self.work_pressure:g}",
               "\t".join(self.headers)]
        out += ["\t".join(row) for row in self.rows]
        return "\n".join(out) + "\n"


def _qty_number(q: float) -> str:
    return str(int(q)) if q == int(q) else f"{q:g}"


def generate_spec(scheme: Scheme, mode: str = "six") -> SpecTable:
    """One row per position, ascending, quantities computed automatically."""
    if mode not in ("six", "extended"):
        raise SpecGenError(f"unknown spec mode {mode!r}")
    if mode == "extended":
        missing = sorted(p.position for p in scheme.spec_props.values()
                         if p.extended is None)
        if missing:
            raise SpecGenError(
                "extended data missing for positions "
                + ", ".join(str(p) for p in missing))

    marks_by_props: dict[int, list] = {}
    for mark in scheme.position_marks.values():
        for ref in mark.props:
            marks_by_props.setdefault(ref, []).append(mark)

    rows: list[tuple[str, ...]] = []
    for pid, props in sorted(scheme.spec_props.items(),
                             key=lambda kv: kv[1].position):
        marks = marks_by_props.get(pid, [])
        if props.kind is SpecKind.FOR_PIPE:
            pipes = {mk.target for mk in marks
                     if mk.target_kind is TargetKind.PIPE
                     and mk.target in scheme.pipes}
            total_m = sum(model.pipe_length(scheme, p) for p in pipes) / 1000.0
            qty = f"{total_m:.2f}"
        else:
            total = props.qty * len(marks)
            if not math.isfinite(total):
                raise SpecGenError(f"position {props.position}: block quantity"
                                   f" {props.qty:g} gives no finite total")
            qty = _qty_number(total)
        row = [str(props.position), props.designation, props.name, qty,
               f"{props.unit_mass_kg:g}", props.note]
        if mode == "extended":
            e = props.extended
            row += [e.type_mark, e.name_and_spec, e.unit_name,
                    e.manufacturer, e.equipment_code]
        rows.append(tuple(row))

    return SpecTable(mode, EXTENDED_HEADERS if mode == "extended" else SIX_HEADERS,
                     rows, scheme.settings.work_temperature,
                     scheme.settings.work_pressure)


# -- local property catalog ---------------------------------------------------

@dataclass
class CatalogEntry:
    """A row of the local lookup table standing in for electronic catalogs."""

    designation: str
    name: str
    unit_mass_kg: float = 0.0
    max_temperature: float = 0.0  # 0 = unrated
    max_pressure: float = 0.0
    extended: model.ExtendedProps | None = None


def filter_catalog(entries: list[CatalogEntry], temperature: float,
                   pressure: float) -> list[CatalogEntry]:
    """Entries rated for the working temperature and pressure (0 = any)."""
    return [e for e in entries
            if (temperature <= 0.0 or e.max_temperature <= 0.0
                or e.max_temperature >= temperature)
            and (pressure <= 0.0 or e.max_pressure <= 0.0
                 or e.max_pressure >= pressure)]


def apply_catalog_entry(scheme: Scheme, props_id: int, entry: CatalogEntry) -> None:
    """Fill a spec-props record from a catalog row (direct entry stays possible)."""
    props = scheme.spec_prop(props_id)
    props.designation = entry.designation
    props.name = entry.name
    props.unit_mass_kg = entry.unit_mass_kg
    if scheme.settings.spec_extended:
        ext = entry.extended or model.ExtendedProps()
        props.extended = model.ExtendedProps(
            ext.type_mark, ext.name_and_spec, ext.unit_name,
            ext.manufacturer, ext.equipment_code)
