"""Command-line front end: validate, render, spec, convert, projections, stats.

Exit codes: 0 success, 1 validation failure, 2 argument error, 3 parse or
format error, 4 I/O error.
"""

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import geometry, layout, model, persist, render_svg, specgen
from .model import Scheme, Slice, Visibility

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ARGS = 2
EXIT_PARSE = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def load_scheme(path: str) -> Scheme:
    p = Path(path)
    if p.suffix == ".asts":
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as e:
            raise CliError(f"cannot read {path}: {e}", EXIT_IO) from e
        except UnicodeDecodeError as e:
            raise CliError(f"{path}: not UTF-8 text: {e}", EXIT_PARSE) from e
        try:
            return persist.load_text(text)
        except persist.PersistError as e:
            raise CliError(f"{path}: {e}", EXIT_PARSE) from e
    if p.suffix == ".astsb":
        try:
            data = p.read_bytes()
        except OSError as e:
            raise CliError(f"cannot read {path}: {e}", EXIT_IO) from e
        try:
            return persist.load_binary(data)
        except persist.PersistError as e:
            raise CliError(f"{path}: {e}", EXIT_PARSE) from e
    raise CliError(f"{path}: unknown extension (use .asts or .astsb)", EXIT_ARGS)


def save_scheme(scheme: Scheme, path: str) -> None:
    p = Path(path)
    try:
        if p.suffix == ".asts":
            p.write_text(persist.save_text(scheme), encoding="utf-8")
        elif p.suffix == ".astsb":
            p.write_bytes(persist.save_binary(scheme))
        else:
            raise CliError(f"{path}: unknown extension (use .asts or .astsb)",
                           EXIT_ARGS)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EXIT_IO) from e
    except persist.PersistError as e:
        raise CliError(f"{path}: {e}", EXIT_PARSE) from e


def collect_violations(scheme: Scheme) -> list[str]:
    """``model.integrity_check``, as printable lines."""
    return [str(v) for v in model.integrity_check(scheme)]


def cmd_validate(args) -> int:
    scheme = load_scheme(args.file)
    problems = collect_violations(scheme)
    if problems:
        for line in problems:
            print(line)
        return EXIT_VALIDATION
    print("OK")
    return EXIT_OK


def _write_out(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EXIT_IO) from e


def cmd_render(args) -> int:
    scheme = load_scheme(args.file)
    # the document's settings carry its current projection
    name = scheme.settings.projection if args.projection is None else args.projection
    try:
        proj = geometry.projection_by_name(name)
    except KeyError as e:
        raise CliError(str(e.args[0]), EXIT_ARGS) from e
    slc = scheme.settings.slice  # the stored working-mode slice
    if args.slice:
        if args.slice == "all":
            slc = Slice()
        else:
            lo, sep, hi = args.slice.partition(":")
            if not sep:
                raise CliError("--slice expects zmin:zmax or all", EXIT_ARGS)
            try:
                slc = Slice(float(lo), float(hi))
            except ValueError:
                raise CliError("--slice expects numbers", EXIT_ARGS) from None
            if not slc.z_min < slc.z_max:
                raise CliError("--slice bounds must be ordered", EXIT_ARGS)
    known = {f.name for f in fields(Visibility)}
    for raw, value in ((args.hide, False), (args.show, True)):
        if not raw:
            continue
        for name in raw.split(","):
            if name not in known:
                raise CliError(f"unknown class {name!r}; known: "
                               + ", ".join(sorted(known)), EXIT_ARGS)
            setattr(scheme.settings.visibility, name, value)
    if args.show_hidden_marks:
        scheme.settings.visibility.hidden_marks = True
    if args.occlusion_gap is not None:
        if not 0 < args.occlusion_gap < math.inf:
            raise CliError("--occlusion-gap must be finite and positive", EXIT_ARGS)
        scheme.settings.occlusion_gap_len = args.occlusion_gap
    if args.scale is not None:
        if not 0 < args.scale < math.inf:
            raise CliError("--scale must be finite and positive", EXIT_ARGS)
        scheme.settings.scale = args.scale
    try:
        prims = layout.layout_scheme(scheme, proj, slc)
    except layout.LayoutError as e:
        print(f"layout failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_out(render_svg.render(prims), args.output)
    return EXIT_OK


def cmd_spec(args) -> int:
    scheme = load_scheme(args.file)
    if args.temperature is not None:
        scheme.settings.work_temperature = args.temperature
    if args.pressure is not None:
        scheme.settings.work_pressure = args.pressure
    try:
        table = specgen.generate_spec(scheme, args.mode)
    except specgen.SpecGenError as e:
        print(str(e), file=sys.stderr)
        return EXIT_VALIDATION
    _write_out(table.to_tsv(), args.output)
    return EXIT_OK


def cmd_convert(args) -> int:
    scheme = load_scheme(args.file)
    save_scheme(scheme, args.output)
    return EXIT_OK


def cmd_projections(args) -> int:
    def v2(v):
        return f"({v[0]:+.5f},{v[1]:+.5f})"

    print(f"{'name':34} {'ex':22} {'ey':22} {'ez':22} view_dir")
    for proj in geometry.projection_catalog():
        vd = f"({proj.view_dir[0]:+.5f},{proj.view_dir[1]:+.5f},{proj.view_dir[2]:+.5f})"
        print(f"{proj.name:34} {v2(proj.ex):22} {v2(proj.ey):22} "
              f"{v2(proj.ez):22} {vd}")
    return EXIT_OK


def cmd_stats(args) -> int:
    scheme = load_scheme(args.file)
    for name in model.COLLECTIONS:
        count = len(getattr(scheme, name))
        if count:
            print(f"{name}: {count}")
    if scheme.axis_grid is not None:
        print("axis_grid: 1")
    print(f"binary_bytes: {len(persist.save_binary(scheme))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axoscheme",
        description="Parametric kernel for axonometric piping-scheme drawings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check integrity and constraints")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render a scheme to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--projection", default=None,
                   help="catalog projection name (default: scheme setting)")
    p.add_argument("--slice", default=None, metavar="ZMIN:ZMAX")
    p.add_argument("--hide", default=None, metavar="CLASS[,CLASS...]")
    p.add_argument("--show", default=None, metavar="CLASS[,CLASS...]")
    p.add_argument("--show-hidden-marks", action="store_true")
    p.add_argument("--occlusion-gap", type=float, default=None, metavar="MM")
    p.add_argument("--scale", type=float, default=None,
                   metavar="RATIO", help="paper mm per nature mm")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("spec", help="generate the specification table")
    p.add_argument("file")
    p.add_argument("--mode", choices=("six", "extended"), default="six")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--pressure", type=float, default=None)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("convert", help="convert between .asts and .astsb")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("projections", help="print the projection catalog")
    p.set_defaults(func=cmd_projections)

    p = sub.add_parser("stats", help="object counts and binary size")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
