import xml.dom.minidom

from axoscheme import geometry, layout, model
from axoscheme.layout import DotRun, GlyphText, Marker, MarkerKind, Stroke
from axoscheme.render_svg import render
from samples_for_tests import build_rich_scheme

FONT = ("gost-a", 3.5, 1.0, False)


def test_empty_list_minimal_document():
    svg = render([])
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert svg.endswith("</svg>\n")
    xml.dom.minidom.parseString(svg)
    assert 'viewBox="-10.000 -10.000 20.000 20.000"' in svg


def test_single_stroke_paths_and_viewbox():
    svg = render([Stroke(((0.0, 0.0), (10.0, 0.0)), 0)])
    xml.dom.minidom.parseString(svg)
    assert '<path d="M 0.000 0.000 L 10.000 0.000"' in svg
    assert 'stroke="#000000"' in svg
    assert 'viewBox="-10.000 -10.000 30.000 20.000"' in svg


def test_dot_run_fencepost():
    svg = render([DotRun((0.0, 0.0), (8.0, 0.0), 1.0, 0)])
    assert svg.count("<circle") == 9


def test_dashed_line_type():
    svg = render([Stroke(((0.0, 0.0), (5.0, 0.0)), 1, model.LineType.DASHED)])
    assert 'stroke-dasharray="4,2"' in svg
    assert 'stroke="#0000aa"' in svg


def test_special_symbols_mapped():
    svg = render([GlyphText(model.DIAMETER + "50" + model.DEGREE,
                            (0.0, 0.0), FONT, 0)])
    assert "∅" in svg and "°" in svg
    assert model.DIAMETER not in svg and model.DEGREE not in svg


def test_slope_symbol_becomes_strokes():
    svg = render([GlyphText(model.SLOPE_RIGHT + "2%", (0.0, 0.0), FONT, 0)])
    assert model.SLOPE_RIGHT not in svg
    assert svg.count("<path") == 2  # the two wedge strokes
    assert ">2%</text>" in svg


def test_xml_escaping():
    svg = render([GlyphText("a<b&c>", (0.0, 0.0), FONT, 0)])
    assert ">a&lt;b&amp;c&gt;</text>" in svg


def test_marker_arrow_and_tick():
    svg = render([
        Marker(MarkerKind.ARROW, (0.0, 0.0), (1.0, 0.0), 2.5, 0),
        Marker(MarkerKind.TICK, (5.0, 0.0), (1.0, 0.0), 2.5, 0),
    ])
    assert 'fill="#000000"' in svg  # filled arrow head
    xml.dom.minidom.parseString(svg)


def test_negative_zero_normalized():
    svg = render([Stroke(((-1e-9, 0.0), (10.0, 0.0)), 0)])
    assert "-0.000" not in svg


def test_render_byte_identical_across_runs():
    s = build_rich_scheme()
    iso = geometry.projection_by_name("isometric")
    svg1 = render(layout.layout_scheme(s, iso))
    svg2 = render(layout.layout_scheme(s, iso))
    assert svg1 == svg2
    xml.dom.minidom.parseString(svg1)


def test_rotated_text_group():
    svg = render([GlyphText("100", (0.0, 0.0), FONT, 0, angle=30.0)])
    assert '<g transform="rotate(-30.000 0.000 0.000)">' in svg
    assert svg.count("</g>") == 2  # rotation group + top-level group
