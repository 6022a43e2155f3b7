"""End-to-end benchmark of the axoscheme kernel.

    python3 benchmark/run.py --workload plant --seed 1 --seconds 30 --trace 0

One process runs one workload as a single-threaded closed loop with one
caller: the next operation starts when the previous one has returned.  The
run builds the workload's documents from the seed (set-up), then repeats
whole rounds of the same operations for about ``--seconds`` seconds:

* edit passes: each document freshly loaded, then its fixed edit script,
  every edit timed on its own;
* ``axoscheme validate``, ``render``, ``spec`` and ``convert`` passes over the
  workload's documents, each call made in-process through ``cli.main``;
* the checks of ``checks.py`` on every output.

Times are scaled to a reference interpreter speed (see ``speed.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
Every run also writes its samples, and a traced run its per-layer table, to
``.bench_work/results/``.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# One round per workload: a unit of passes, repeated, then the document
# checks.  The counts balance the time spent on each metric and spread each
# metric's samples over the run; every round is whole, so a run attempts the
# same mix of operations whatever its length.
ROUND = {
    "plant": (3, {"edit": 1, "validate": 4, "render": 2, "spec": 4, "convert": 3}),
    "risers": (2, {"edit": 2, "validate": 3, "render": 1, "spec": 4, "convert": 2}),
    "sessions": (1, {"edit": 1, "validate": 2, "render": 1, "spec": 4, "convert": 2}),
}
PASSES = ("edit", "validate", "render", "spec", "convert")
MIN_EDITS = 100
SETUP_REPEATS = 5
# the kernel's import, timed in a fresh interpreter for every sample
IMPORT_PROBE = """import sys
sys.path[:0] = sys.argv[1:]
import speed
stopwatch = speed.Stopwatch()
stopwatch.recalibrate(2)
with stopwatch:
    import axoscheme
print(stopwatch.scaled(stopwatch.interval))
"""


def _quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    def __init__(self, name: str, seed: int, work: Path, clock):
        self.name = name
        self.seed = seed
        self.work = work
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.intervals: dict[str, list[tuple[float, float]]] = {k: [] for k in PASSES}
        self.svg_bytes: list[int] = []
        self.edit_kinds: list[str] = []  # kind of each edit interval
        self.tracer = None
        # sessions read their edited results; the other workloads their inputs
        self.edited = name == "sessions"
        self.edited_schemes: dict[str, object] = {}

    # -- bookkeeping ------------------------------------------------------------

    def op(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {what}: {error}", file=sys.stderr)

    def _sample(self, kind: str) -> None:
        self.intervals[kind].append(self.clock.interval)

    @staticmethod
    def cli(*argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Trace kernel calls under ``name`` (a no-op in an untraced run)."""
        if self.tracer is None:
            yield
            return
        self.tracer.phase = name
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> list[tuple[float, float]]:
        """Build and write the documents; the timed interval of each repeat."""
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            self.clock.recalibrate(3)
            with self.clock:
                docs = gen.write_inputs(self.name, self.seed, self.work)
            times.append(self.clock.interval)
        self.docs = docs
        self.texts = {d.name: (self.work / f"{d.name}.asts").read_text(encoding="utf-8")
                      for d in docs}
        self.loaded = {name: persist.load_text(text) for name, text in self.texts.items()}
        self.scripts = {d.name: gen.edit_script(self.name, self.seed, d.name,
                                                self.loaded[d.name]) for d in docs}
        return times

    def _read_path(self, doc) -> str:
        stem = f"{doc.name}.edited" if self.edited else doc.name
        return str(self.work / f"{stem}.asts")

    def _scheme(self, doc):
        """The document as the read passes see it."""
        return (self.edited_schemes if self.edited else self.loaded)[doc.name]

    # -- edits ------------------------------------------------------------------

    def edit_pass(self) -> None:
        for doc in self.docs:
            with self.phase("edit"):
                scheme = persist.load_text(self.texts[doc.name])
            gc.collect()
            self.clock.recalibrate(3)
            want = dict(doc.built)
            new: list[tuple[int, int]] = []  # (point, pipe) of each branch
            for op in self.scripts[doc.name]:
                self._edit(scheme, op, want, new)
            if self.edited:
                self.edited_schemes[doc.name] = scheme
                Path(self._read_path(doc)).write_text(
                    persist.save_text(scheme), encoding="utf-8")

    def _edit(self, scheme, op, want: dict[str, int], new: list[tuple[int, int]]) -> None:
        kind = op[0]
        pid = None
        if kind in ("move", "delete"):
            pid = new[op[1][1]][0] if isinstance(op[1], tuple) else op[1]
        elif kind == "local":
            point, pipe = new[op[1]]
            spec = edit.LocalOffsetSpec(op[2], op[3], [(pipe, float(int(
                model.pipe_length(scheme, pipe) / 2.0)))], point)
        with self.phase("edit"), self.clock:
            if kind == "branch":
                pid = edit.add_point(scheme, *map(float, op[2]))
                new.append((pid, edit.add_pipe(scheme, op[1], pid)))
            elif kind == "local":
                edit.add_offset(scheme, spec)
            elif kind == "move":
                edit.move_point(scheme, pid, *map(float, op[2]))
            elif kind == "delete":
                edit.delete_point(scheme, pid)
            elif kind == "block":
                edit.place_block(scheme, *op[1:])
            elif kind == "offset":
                edit.add_offset(scheme, edit.GeneralOffsetSpec(*op[1:4]))
        self._sample("edit")
        self.edit_kinds.append(kind)

        if kind == "branch":
            want["points"] += 1
            want["pipes"] += 1
        elif kind == "delete":
            want["points"] -= 1
            want["pipes"] -= 1
        elif kind == "block":
            want["blocks"] += 1
        elif kind == "offset":
            want["offsets"] += 1
            want["breaks"] += op[4]
        elif kind == "local":
            want["offsets"] += 1
            want["breaks"] += 1
        error = (checks.same_counts(checks.counts(scheme), want)
                 or checks.dangling(scheme))
        if error is None and kind in ("branch", "move"):
            error = checks.point_at(scheme, pid, op[2])
        if error is None and kind == "delete" and pid in scheme.points:
            error = f"point {pid} survived its deletion"
        self.op(error, f"{kind} edit")

    # -- command passes ---------------------------------------------------------

    def _timed(self, kind: str, calls) -> list[tuple[int, str]]:
        gc.collect()
        self.clock.recalibrate(3)
        with self.phase(kind), self.clock:
            results = [self.cli(*argv) for argv in calls]
        self._sample(kind)
        return results

    def validate_pass(self) -> None:
        results = self._timed("validate", [("validate", self._read_path(d))
                                           for d in self.docs])
        for doc, (code, out) in zip(self.docs, results):
            self.op(None if (code, out) == (0, "OK\n")
                    else f"exit {code}: {out[:300]!r}", f"validate {doc.name}")

    def render_pass(self) -> None:
        svgs = [self.work / f"{d.name}.svg" for d in self.docs]
        results = self._timed("render", [("render", self._read_path(d), "-o", str(svg))
                                         for d, svg in zip(self.docs, svgs)])
        total = 0
        for doc, svg, (code, out) in zip(self.docs, svgs, results):
            data = svg.read_bytes() if code == 0 else b""
            total += len(data)
            self.op(f"exit {code}: {out[:300]!r}" if code else checks.svg_ok(data),
                    f"render {doc.name}")
        self.svg_bytes.append(total)

    def spec_pass(self) -> None:
        calls = [(d, mode, self.work / f"{d.name}.{mode}.tsv") for d in self.docs
                 for mode in (("six", "extended") if d.extended else ("six",))]
        results = self._timed("spec", [("spec", self._read_path(d), "--mode", mode,
                                        "-o", str(tsv)) for d, mode, tsv in calls])
        for (doc, mode, tsv), (code, out) in zip(calls, results):
            error = (f"exit {code}: {out[:300]!r}" if code
                     else checks.spec_ok(self._scheme(doc),
                                         tsv.read_text(encoding="utf-8"), mode))
            self.op(error, f"spec {mode} {doc.name}")

    def convert_pass(self) -> None:
        """.asts -> .astsb -> .asts for every document."""
        calls = []
        for d in self.docs:
            binary = self.work / f"{d.name}.conv.astsb"
            calls.append(("convert", self._read_path(d), "-o", str(binary)))
            calls.append(("convert", str(binary), "-o", str(self.work / f"{d.name}.conv.asts")))
        results = self._timed("convert", calls)
        for i, doc in enumerate(self.docs):
            codes = [results[2 * i][0], results[2 * i + 1][0]]
            if codes != [0, 0]:
                error = f"exits {codes}: {results[2 * i][1][:200]!r}"
            else:
                back = (self.work / f"{doc.name}.conv.asts").read_text(encoding="utf-8")
                source = Path(self._read_path(doc)).read_text(encoding="utf-8")
                error = None if back == source else ".asts -> .astsb -> .asts changed the text"
            self.op(error, f"convert {doc.name}")

    # -- checks made once per round ------------------------------------------------

    def document_checks(self) -> None:
        """Inputs validate, injected faults are reported, counts and break
        lines equal the generator's, occlusion equals the oracle on a sample."""
        for doc in self.docs:
            if self.edited:  # else the validate passes read the inputs
                code, out = self.cli("validate", str(self.work / f"{doc.name}.asts"))
                self.op(None if (code, out) == (0, "OK\n")
                        else f"exit {code}: {out[:300]!r}", f"validate input {doc.name}")
            for name, text, want_code, rule in checks.faults(self.texts[doc.name]):
                bad = self.work / f"{doc.name}.{name}.asts"
                bad.write_text(text, encoding="utf-8")
                code, out = self.cli("validate", str(bad))
                self.op(checks.validate_fault(code, out, rule, want_code),
                        f"validate {name} {doc.name}")
            loaded = self.loaded[doc.name]
            self.op(checks.same_counts(checks.counts(loaded), doc.built),
                    f"object and break-line counts {doc.name}")
            if doc.occlusion_sample:
                sample = occlusion_sample(loaded)
                proj = geometry.projection_by_name(loaded.settings.projection)
                self.op(checks.occlusion_ok(sample, proj,
                                            geometry.occlusion_gaps(sample, proj)),
                        f"occlusion sample {doc.name}")

    # -- the run ----------------------------------------------------------------

    def round(self) -> None:
        reps, unit = ROUND[self.name]
        for _ in range(reps):
            for kind in PASSES:
                for _ in range(unit[kind]):
                    getattr(self, f"{kind}_pass")()
        self.document_checks()

    def run(self, seconds: float) -> int:
        """Whole rounds for about ``seconds``; at least MIN_EDITS edits."""
        reps, unit = ROUND[self.name]
        edits_per_round = reps * unit["edit"] * sum(len(s) for s in self.scripts.values())
        t0 = time.perf_counter()
        self.round()
        first = time.perf_counter() - t0
        rounds = max(round(seconds / first), math.ceil(MIN_EDITS / edits_per_round))
        for _ in range(rounds - 1):
            self.round()
        return rounds


OCCLUSION_SAMPLE_PIPES = 120


def occlusion_sample(scheme):
    """The first OCCLUSION_SAMPLE_PIPES pipes (by id) with their points, nothing else."""
    sample = model.new_scheme()
    sample.settings = scheme.settings
    for pid in sorted(scheme.pipes)[:OCCLUSION_SAMPLE_PIPES]:
        pipe = scheme.pipes[pid]
        sample.pipes[pid] = pipe
        for end in (pipe.start, pipe.end):
            sample.points[end] = scheme.points[end]
    return sample


def _kind_ranks(samples: list[tuple[float, str]]) -> dict[str, list[float]]:
    """Where each edit kind starts and ends in the sorted edit samples."""
    ordered = [k for _, k in sorted(samples)]
    n = len(ordered)
    out: dict[str, list[float]] = {}
    for i, kind in enumerate(ordered):
        span = out.setdefault(kind, [i / n, (i + 1) / n])
        span[1] = (i + 1) / n
    return {k: [round(lo, 3), round(hi, 3)] for k, (lo, hi) in out.items()}


def per_layer(table, rounds: int, wl: Workload) -> dict:
    """Per-layer metrics per round: self time, calls and result sizes."""
    totals: dict[str, dict[str, float]] = {}
    for rows in table.values():
        for name, row in rows.items():
            acc = totals.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0.0) + value
    out = {}
    for name in spans.metric_names():
        if name.endswith("_calls"):
            value, unit = totals.get(name[:-len("_calls")], {}).get("calls", 0), "count"
        elif name.endswith("_s"):
            value, unit = totals.get(name[:-len("_s")], {}).get("self_s", 0.0), "s"
        elif name == "edit.ops":
            value, unit = len(wl.edit_kinds), "count"
        else:
            value = totals.get(name, {}).get("size", 0)
            unit = "B" if name.endswith("_bytes") else "count"
        out[name] = {"value": value / rounds, "unit": unit}
    return out


def import_seconds() -> float:
    """Median scaled seconds of ``import axoscheme`` in a new interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_all(args) -> int:
    """Each workload in a child process; a table, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ROUND:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, check=True)
        sys.stderr.write(out.stderr)
        res = json.loads(out.stdout.splitlines()[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(ROUND) + ("all",),
                    help="'all' runs each workload in its own process, one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock = speed.Stopwatch()
    import_s = import_seconds()
    wl = Workload(args.workload, args.seed, work, clock)
    setup_intervals = wl.setup()
    if args.trace:
        wl.tracer = spans.Tracer()
        wl.tracer.install()
    rounds = wl.run(args.seconds)
    if wl.tracer is not None:
        wl.tracer.uninstall()

    samples = {k: [clock.scaled(iv) for iv in v] for k, v in wl.intervals.items()}
    med = {k: statistics.median(v) for k, v in samples.items()}
    setup_s = import_s + statistics.median(clock.scaled(iv) for iv in setup_intervals)
    e2e = {
        "setup_s": (setup_s, "s"),
        "validate_s": (med["validate"], "s"),
        "render_s": (med["render"], "s"),
        "spec_s": (med["spec"], "s"),
        "convert_s": (med["convert"], "s"),
        "edit_p50_ms": (1000.0 * med["edit"], "ms"),
        "edit_p90_ms": (1000.0 * _quantile(samples["edit"], 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "svg_bytes": (statistics.median(wl.svg_bytes), "B"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "attempted": wl.attempted, "failed": wl.failed,
        "samples": {k: len(v) for k, v in samples.items()},
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "setup_parts_s": [import_s] + [clock.scaled(iv) for iv in setup_intervals],
        "raw_median_s": {k: statistics.median(t1 - t0 for t0, t1 in v)
                         for k, v in wl.intervals.items()},
        "edit_kinds": _kind_ranks(list(zip(samples["edit"], wl.edit_kinds))),
        "scaled_s": {k: [round(x, 6) for x in v] for k, v in samples.items()},
    }
    if wl.tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        record["per_layer_table"] = wl.tracer.table()
        metrics = per_layer(record["per_layer_table"], rounds, wl)
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, ensure_ascii=False))

    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "axoscheme").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"run from a checkout of the repository: {ROOT} has no "
                 "src/axoscheme or tests/oracles.py")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from axoscheme import cli, edit, geometry, model, persist

    import checks
    import gen
    import spans
    import speed

    sys.exit(main())
