"""The benchmark's span tracer still reaches the kernel functions it names.

``benchmark/spans.py`` wraps each ``TARGETS`` entry by its module attribute.
A target that was removed or renamed fails its ``install``, and a layout
step that ``layout_scheme`` stopped calling by name gets no span, so both
would show only in a traced benchmark run.  The tracer is loaded from its
file, unedited.
"""

import importlib.util
from pathlib import Path

from axoscheme import geometry, layout, samples

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"

LAYOUT_STEPS = sorted(name for name in vars(layout)
                      if name.startswith("layout_") and name != "layout_scheme")


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_uninstall_restores_it():
    spans = load_spans()
    originals = [(module, name, getattr(module, name)) for module, name, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, name, fn in originals:
            wrapped = getattr(module, name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, name
    finally:
        tracer.uninstall()
    for module, name, fn in originals:
        assert getattr(module, name) is fn, name


def test_a_traced_layout_records_every_layout_step():
    spans = load_spans()
    s = samples.reference_scheme()
    for name in ("dimensions", "elevation_marks", "slope_marks", "texts", "blocks"):
        assert getattr(s, name), name
    assert s.axis_grid is not None
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.phase = "render"
        layout.layout_scheme(s, geometry.projection_by_name("isometric"))
    finally:
        tracer.active = False
        tracer.uninstall()
    seen = set(tracer.table()["render"])
    assert {f"layout.{step}" for step in LAYOUT_STEPS + ["layout_scheme"]} <= seen
    assert len(LAYOUT_STEPS) == 7
