"""Span tracer that wraps the kernel's public functions from outside.

Each wrapped function is replaced by its module attribute with a wrapper that
records a span (name, phase, start, end, parent span).  The kernel calls most
of these functions through their module attribute, so the wrappers also see
calls made inside the kernel, for example ``layout`` calling
``geometry.point_displacements``.  Spans stay in memory; ``table`` turns them
into self times, call counts and result sizes when the run ends.
"""

import functools
import time

from axoscheme import cli, constraints, edit, geometry, layout, model, persist
from axoscheme import render_svg, specgen

# (module, function name, size counter over the result or None)
TARGETS = [
    (persist, "load_text", None),
    (persist, "save_text", ("persist.text_bytes", lambda r: len(r.encode("utf-8")))),
    (persist, "load_binary", None),
    (persist, "save_binary", ("persist.binary_bytes", len)),
    (model, "integrity_check", None),
    (constraints, "check_pipe_overlap", None),
    (constraints, "check_general_offset", None),
    (constraints, "check_local_offset", None),
    (constraints, "legal_dimension_orientations", None),
    (constraints, "enumerate_block_orientations", None),
    (geometry, "slice_scheme", None),
    (geometry, "occlusion_gaps", ("geometry.occlusion_gaps", len)),
    (geometry, "point_displacements", None),
    (geometry, "pipe_drawn_spans", None),
    (geometry, "displacement_on_pipe", None),
    (geometry, "coverage_intervals", None),
    (layout, "layout_scheme", ("layout.primitives", len)),
    (layout, "layout_pipes", None),
    (layout, "layout_blocks", None),
    (layout, "layout_dimension", None),
    (layout, "layout_elevation", None),
    (layout, "layout_slope", None),
    (layout, "layout_texts_and_marks", None),
    (layout, "layout_axis_grid", None),
    (render_svg, "render", None),
    (specgen, "generate_spec", ("specgen.rows", lambda r: len(r.rows))),
    (edit, "add_point", None),
    (edit, "add_pipe", None),
    (edit, "add_offset", None),
    (edit, "place_block", None),
    (edit, "move_point", None),
    (edit, "delete_point", None),
    (cli, "load_scheme", None),
    (cli, "collect_violations", None),
]

# Per-layer metrics the benchmark reports: self time per round for every
# target, call counts where a change in the count is the expected win.
CALL_COUNTS = ("model.integrity_check", "constraints.check_pipe_overlap",
               "geometry.point_displacements", "geometry.coverage_intervals",
               "cli.load_scheme")
SIZES = ("persist.text_bytes", "persist.binary_bytes", "geometry.occlusion_gaps",
         "layout.primitives", "specgen.rows", "edit.ops")


def _layer(module) -> str:
    return module.__name__.split(".")[-1]


def metric_names() -> list[str]:
    names = [f"{_layer(m)}.{fn}_s" for m, fn, _ in TARGETS]
    names += [f"{n}_calls" for n in CALL_COUNTS]
    return names + list(SIZES)


class Tracer:
    """Records spans while active; ``install``/``uninstall`` swap the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, phase, start, end, parent index]
        self.sizes: dict[tuple[str, str], int] = {}
        self.phase = ""
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, name, size in TARGETS:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(f"{_layer(module)}.{name}", fn, size))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, span_name: str, fn, size):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [span_name, tracer.phase, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size is not None:
                key = (size[0], tracer.phase)
                tracer.sizes[key] = tracer.sizes.get(key, 0) + size[1](result)
            return result

        return traced

    def table(self) -> dict[str, dict[str, dict[str, float]]]:
        """{phase: {span name: {"self_s", "total_s", "calls"}}} plus sizes,
        summed over the whole traced run."""
        child = [0.0] * len(self.spans)
        for name, phase, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, dict[str, float]]] = {}
        for i, (name, phase, t0, t1, parent) in enumerate(self.spans):
            row = out.setdefault(phase, {}).setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += (t1 - t0) - child[i]
            row["total_s"] += t1 - t0
            row["calls"] += 1
        for (name, phase), value in self.sizes.items():
            out.setdefault(phase, {}).setdefault(name, {})["size"] = value
        return out
