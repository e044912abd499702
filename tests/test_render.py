import math
import random

import pytest

import weldlab.render as rd
from weldlab.bowen_series import bowen_series_map, tiles
from weldlab.fuchsian import build_group
from weldlab.hyperbolic import geodesic_between
from weldlab.mating_schema import assemble, paper_example
from weldlab.welding import weld, welding_graph


def test_empty_scene_valid():
    svg = rd.render_svg(rd.RenderScene())
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert "circle" in svg  # the disk frame


def test_scene_deterministic():
    def build():
        sc = rd.RenderScene()
        sc.add(rd.GeodesicArc(geodesic_between(0.0, math.pi / 2), rd.Style()))
        sc.add(rd.Dot(0.5 + 0.1j, label="x"))
        return rd.render_svg(sc)
    assert build() == build()


def test_geodesic_paths():
    diam = geodesic_between(0.0, math.pi)
    assert rd.geodesic_path(diam).count("L") == 1
    arc = geodesic_between(0.0, math.pi / 2)
    assert " A " in rd.geodesic_path(arc)


def test_linspace_matches_numpy_bit_for_bit():
    np = pytest.importorskip("numpy")

    def bits(xs):
        return [float(x).hex() for x in xs]
    rng = random.Random(20260)
    for _ in range(20_000):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 20.0) * rng.random()
        count = rng.randrange(2, 80)
        assert bits(rd._linspace(lo, hi, count)) == bits(np.linspace(lo, hi, count)), \
            (lo, hi, count)
    # the scenes' own ranges: [0, 1] and pocket arcs inside [0, 4 pi)
    for _ in range(2_000):
        lo = rng.uniform(0.0, 2 * math.pi)
        hi = lo + rng.uniform(0.0, 2 * math.pi)
        assert bits(rd._linspace(lo, hi, 24)) == bits(np.linspace(lo, hi, 24))
    assert bits(rd._linspace(0.0, 1.0, 48)) == bits(np.linspace(0.0, 1.0, 48))


def test_clamp_rejects_outside_points():
    sc = rd.RenderScene()
    sc.add(rd.Dot(2.0 + 0j))
    with pytest.raises(ValueError):
        rd.render_svg(sc)


def test_polygon_scene_runs():
    svg = rd.render_svg(rd.polygon_scene(build_group(3, 1)))
    assert svg.count("<path") >= 3


def test_tiles_scene_factor():
    m = bowen_series_map(3, 1, factor=True)
    svg = rd.render_svg(rd.tiles_scene(tiles(m, 2), factor=True, n=3))
    assert "<polyline" in svg


def test_hole_diagram_and_graph_scenes():
    slots, contact, _ = paper_example("5.3")
    bc = assemble(slots, contact)
    svg = rd.render_svg(rd.hole_diagram_scene(bc))
    assert svg.count("<circle") >= 3
    g = welding_graph(bc)
    svg2 = rd.render_svg(rd.welding_graph_scene(g))
    assert "v0+" in svg2 and "v1-" in svg2
