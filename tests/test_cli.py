import contextlib
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from axoscheme import cli, persist, samples
from axoscheme.cli import main
from genschemes import random_scheme


@pytest.fixture
def ref_file(tmp_path):
    path = tmp_path / "ref.asts"
    path.write_text(persist.save_text(samples.reference_scheme()),
                    encoding="utf-8")
    return path


def test_validate_ok(ref_file, capsys):
    assert main(["validate", str(ref_file)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_violations(tmp_path, capsys):
    s = samples.reference_scheme()
    s.pipes[1].style.color = 99
    bad = tmp_path / "bad.asts"
    bad.write_text(persist.save_text(s), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "style-palette" in capsys.readouterr().out


def test_render_deterministic(ref_file, tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    argv = ["render", str(ref_file), "--projection", "isometric"]
    assert main(argv + ["-o", str(out1)]) == 0
    assert main(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_render_unknown_projection_hints_catalog(ref_file, tmp_path, capsys):
    code = main(["render", str(ref_file), "--projection", "bogus",
                 "-o", str(tmp_path / "x.svg")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "isometric" in err  # catalog hint


def test_render_slice_and_hide(ref_file, tmp_path):
    full = tmp_path / "full.svg"
    cut = tmp_path / "cut.svg"
    main(["render", str(ref_file), "--projection", "isometric", "-o", str(full)])
    main(["render", str(ref_file), "--projection", "isometric",
          "--slice", "0:1200", "--hide", "grid,texts", "-o", str(cut)])
    assert len(cut.read_text()) < len(full.read_text())


def test_render_uses_scheme_projection_by_default(ref_file, tmp_path):
    out = tmp_path / "d.svg"
    assert main(["render", str(ref_file), "-o", str(out)]) == 0
    assert out.exists()


def test_render_loads_input_once(ref_file, tmp_path, monkeypatch):
    loads = []
    load = cli.load_scheme
    monkeypatch.setattr(cli, "load_scheme", lambda path: loads.append(path) or load(path))
    assert main(["render", str(ref_file), "-o", str(tmp_path / "a.svg")]) == 0
    assert main(["render", str(ref_file), "-o", str(tmp_path / "b.svg"),
                 "--projection", "isometric"]) == 0
    assert loads == [str(ref_file)] * 2
    assert (tmp_path / "a.svg").read_text() == (tmp_path / "b.svg").read_text()


def test_spec_to_stdout(ref_file, capsys):
    assert main(["spec", str(ref_file), "--mode", "six"]) == 0
    out = capsys.readouterr().out
    assert "Поз." in out and "3.34" in out


def test_spec_extended_without_data_fails(ref_file, capsys):
    assert main(["spec", str(ref_file), "--mode", "extended"]) == 1
    assert "positions" in capsys.readouterr().err


def test_convert_roundtrip_fixed_point(ref_file, tmp_path):
    binary = tmp_path / "ref.astsb"
    text2 = tmp_path / "ref2.asts"
    assert main(["convert", str(ref_file), "-o", str(binary)]) == 0
    assert main(["convert", str(binary), "-o", str(text2)]) == 0
    normalized = persist.save_text(persist.load_text(
        ref_file.read_text(encoding="utf-8")))
    assert text2.read_text(encoding="utf-8") == normalized


def test_projections_table(capsys):
    assert main(["projections"]) == 0
    out = capsys.readouterr().out
    assert "isometric" in out and "view-front" in out and "custom" in out
    assert len(out.strip().splitlines()) == 27  # header + 26 rows


def test_stats(ref_file, capsys):
    assert main(["stats", str(ref_file)]) == 0
    out = capsys.readouterr().out
    assert "points: 6" in out and "binary_bytes:" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.asts"
    bad.write_text("scheme version=1\nwat id=1\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_text_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.asts"
    bad.write_bytes(b"\xff\xfe")
    assert main(["validate", str(bad)]) == 3
    assert str(bad) in capsys.readouterr().err


def test_corrupt_binary_exit_code(tmp_path, capsys):
    blob = persist.save_binary(samples.reference_scheme())
    bad = tmp_path / "bad.astsb"
    bad.write_bytes(blob.replace(b"valve", b"\xffalve", 1))
    assert main(["validate", str(bad)]) == 3
    assert "UTF-8" in capsys.readouterr().err


def test_number_beyond_f32_range_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.asts"
    bad.write_text("scheme version=1\npoint id=1 x=1e39 y=0 z=0\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_convert_value_beyond_binary_field_exit_code(tmp_path, capsys):
    s = samples.reference_scheme()
    s.pipes[1].style.color = 300  # loads from text, does not fit a u8
    wide = tmp_path / "wide.asts"
    wide.write_text(persist.save_text(s), encoding="utf-8")
    out = tmp_path / "x.astsb"
    assert main(["convert", str(wide), "-o", str(out)]) == 3
    assert "300" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "none.asts")]) == 4


def test_unknown_extension_exit_code(tmp_path):
    f = tmp_path / "x.dat"
    f.write_text("", encoding="utf-8")
    assert main(["validate", str(f)]) == 2


def test_unknown_hide_class(ref_file, tmp_path, capsys):
    code = main(["render", str(ref_file), "--projection", "isometric",
                 "--hide", "widgets", "-o", str(tmp_path / "x.svg")])
    assert code == 2
    assert "widgets" in capsys.readouterr().err


def test_render_mode_flags(ref_file, tmp_path):
    base = tmp_path / "base.svg"
    scaled = tmp_path / "scaled.svg"
    main(["render", str(ref_file), "--projection", "isometric",
          "-o", str(base)])
    main(["render", str(ref_file), "--projection", "isometric",
          "--scale", "0.04", "--occlusion-gap", "3",
          "--show", "covered_pipes", "-o", str(scaled)])
    assert base.read_text() != scaled.read_text()
    code = main(["render", str(ref_file), "--projection", "isometric",
                 "--scale", "-1", "-o", str(tmp_path / "x.svg")])
    assert code == 2


@pytest.mark.parametrize("flag", ["--scale", "--occlusion-gap"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_render_refuses_a_scale_or_gap_that_is_not_finite_and_positive(
        flag, value, ref_file, tmp_path, capsys):
    out = tmp_path / "x.svg"
    code = main(["render", str(ref_file), f"{flag}={value}", "-o", str(out)])
    assert code == 2
    assert f"{flag} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def negative_dimension_precision(s):
    s.settings.dimension.precision = -1


def negative_slope_mark_precision(s):
    next(iter(s.slope_marks.values())).precision = -1


@pytest.mark.parametrize("spoil", [negative_dimension_precision,
                                   negative_slope_mark_precision])
def test_render_of_a_negative_precision_is_a_layout_failure(spoil, tmp_path, capsys):
    """A precision that validate rejects ends render with exit 1, not a
    traceback from the number format."""
    s = samples.reference_scheme()
    spoil(s)
    path = tmp_path / "bad.asts"
    path.write_text(persist.save_text(s), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    out = tmp_path / "bad.svg"
    assert main(["render", str(path), "-o", str(out)]) == 1
    assert "layout failure: precision -1 is negative" in capsys.readouterr().err
    assert not out.exists()


def test_spec_filter_overrides(ref_file, capsys):
    assert main(["spec", str(ref_file), "--temperature", "150",
                 "--pressure", "2.5"]) == 0
    out = capsys.readouterr().out
    assert "# work_temperature=150" in out and "# work_pressure=2.5" in out


def test_committed_corpus_file_validates(capsys):
    corpus = Path(__file__).parent / "data" / "reference40.asts"
    assert main(["validate", str(corpus)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


@pytest.mark.parametrize("scale", ["6e6", "6e18"])
def test_render_refuses_unbounded_dot_runs(scale, tmp_path, capsys):
    """A scale that validates but would need billions of break dots is a
    layout failure (exit 1) within seconds, not an endless render."""
    corpus = Path(__file__).parent / "data" / "reference40.asts"
    text = corpus.read_text(encoding="utf-8")
    assert "scale=0.019999999552965164" in text
    big = tmp_path / "big.asts"
    big.write_text(text.replace("scale=0.019999999552965164", f"scale={scale}"),
                   encoding="utf-8")
    assert main(["validate", str(big)]) == 0
    capsys.readouterr()

    def overrun(signum, frame):
        raise TimeoutError("render ran past its time bound")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        start = time.perf_counter()
        code = main(["render", str(big), "-o", str(tmp_path / "big.svg")])
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert "layout failure" in capsys.readouterr().err
    assert not (tmp_path / "big.svg").exists()
    assert elapsed < 5.0



def test_far_pipe_validates_and_renders(tmp_path, capsys):
    """A pipe up to z=1e30 (a finite f32) is checked and drawn without a
    traceback: the grids of validation and occlusion pair it with every box."""
    corpus = Path(__file__).parent / "data" / "reference40.asts"
    text = corpus.read_text(encoding="utf-8")
    assert "\npoint id=1 " in text and "\npipe id=1 " in text
    text = text.replace("\npoint id=1 ", "\npoint id=100 x=0.0 y=0.0 z=1e30\npoint id=1 ", 1)
    text = text.replace("\npipe id=1 ", "\npipe id=100 a=1 b=100 color=0 line=solid\npipe id=1 ", 1)
    far = tmp_path / "far.asts"
    far.write_text(text, encoding="utf-8")
    assert main(["validate", str(far)]) == 0
    assert main(["render", str(far), "-o", str(tmp_path / "far.svg")]) == 0
    assert (tmp_path / "far.svg").exists()

def test_collect_violations_reports_dangling_reference():
    scheme = random_scheme(0)
    del scheme.points[1]
    lines = cli.collect_violations(scheme)
    assert any(line.startswith("dangling-ref ") for line in lines)


@pytest.mark.parametrize("argv, joined", [
    (["render", "ref.asts", "--slice", "-2000:-100", "-o", "{out}.svg"],
     ["render", "ref.asts", "--slice=-2000:-100", "-o", "{out}.svg"]),
    (["render", "ref.asts", "--slice", "-100:2000", "-o", "{out}.svg"],
     ["render", "ref.asts", "--slice=-100:2000", "-o", "{out}.svg"]),
    (["render", "ref.asts", "--sl", "-100:2000", "-o", "{out}.svg"],
     ["render", "ref.asts", "--slice=-100:2000", "-o", "{out}.svg"]),
    (["spec", "ref.asts", "--temperature", "-1e3", "--pressure", "-.5", "-o", "{out}.tsv"],
     ["spec", "ref.asts", "--temperature=-1e3", "--pressure=-.5", "-o", "{out}.tsv"]),
])
def test_a_negative_value_may_follow_its_option_after_a_blank(argv, joined, ref_file,
                                                              monkeypatch):
    monkeypatch.chdir(ref_file.parent)
    for words, out in ((argv, "spaced"), (joined, "joined")):
        assert main([w.format(out=out) for w in words]) == 0
    suffix = Path(argv[-1]).suffix
    spaced = (ref_file.parent / f"spaced{suffix}").read_bytes()
    assert spaced == (ref_file.parent / f"joined{suffix}").read_bytes()
    if suffix == ".tsv":
        assert b"# work_temperature=-1000" in spaced


def test_a_value_that_starts_with_a_dash_may_name_the_output(ref_file, monkeypatch):
    monkeypatch.chdir(ref_file.parent)
    assert main(["convert", "ref.asts", "-o", "-ref.astsb"]) == 0
    assert (ref_file.parent / "-ref.astsb").read_bytes() == persist.save_binary(
        samples.reference_scheme())


@pytest.mark.parametrize("argv", [["--slice", "--hide", "texts"], ["--slice", "-h"],
                                  ["--slice", "--", "0:1"], ["--slice"]])
def test_an_option_is_not_taken_for_a_value(argv, ref_file, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["render", str(ref_file), *argv])
    assert exit_.value.code == 2
    assert "argument --slice: expected one argument" in capsys.readouterr().err


# One call of each kind, with an argument error and --help, in a directory
# that holds ref.asts; paths are relative, so outputs do not name the directory.
SESSION = [
    ["validate", "ref.asts"],
    ["render", "ref.asts", "-o", "ref.svg", "--projection", "isometric"],
    ["render", "ref.asts", "--slice", "-100:2000", "--hide", "texts"],
    ["spec", "ref.asts", "--mode", "six", "-o", "six.tsv"],
    ["spec", "ref.asts", "--mode", "extended"],
    ["convert", "ref.asts", "-o", "ref.astsb"],
    ["convert", "ref.astsb", "-o", "back.asts"],
    ["stats", "ref.asts"],
    ["projections"],
    ["render", "ref.asts", "--slice"],
    ["validate", "missing.asts"],
    ["--help"],
]


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def run_in_subprocess(argv, cwd, env):
    done = subprocess.run([sys.executable, "-m", "axoscheme.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=60)
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


def session_dir(parent: Path, name: str) -> Path:
    d = parent / name
    d.mkdir()
    (d / "ref.asts").write_text(persist.save_text(samples.reference_scheme()),
                                encoding="utf-8")
    return d


def written(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.fixture
def parser_builds(monkeypatch):
    """The names of the parsers built while the test runs, from an empty
    parser cache; the cache is emptied again after it."""
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    yield built
    cli.build_parser.cache_clear()


def test_repeated_calls_build_the_parser_once_and_repeat_their_outputs(
        parser_builds, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help and usage wrap at the same width
    rounds = []
    for name in ("first", "second"):
        d = session_dir(tmp_path, name)
        monkeypatch.chdir(d)
        rounds.append(([run_in_process(argv) for argv in SESSION], written(d)))
    assert parser_builds == ["axoscheme"] + [
        f"axoscheme {command}"
        for command in ("validate", "render", "spec", "convert", "projections", "stats")]
    assert rounds[0] == rounds[1]

    results, files = rounds[0]
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 4, 0]
    assert {"ref.svg", "six.tsv", "ref.astsb", "back.asts"} <= set(files)
    d = session_dir(tmp_path, "fresh")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONIOENCODING="utf-8")
    assert [run_in_subprocess(argv, d, env) for argv in SESSION] == results
    assert written(d) == files


def test_importing_the_cli_builds_no_parser():
    code = ("import axoscheme.cli as cli, sys; "
            "sys.exit(cli.build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
