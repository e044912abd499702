import math
import random

import pytest

import weldlab.render as rd
from weldlab.bowen_series import bowen_series_map, tiles
from weldlab.fuchsian import build_group
from weldlab.hyperbolic import Geodesic, geodesic_between
from weldlab.mating_schema import assemble, paper_example
from weldlab.welding import weld, welding_graph


def svg(elements):
    return "".join(rd.svg_document(elements))


def test_empty_scene_valid():
    doc = svg([])
    assert doc.startswith("<?xml")
    assert doc.rstrip().endswith("</svg>")
    assert "circle" not in doc
    assert "circle" in svg(rd.tiles_scene([]))  # the disk frame


def test_scene_deterministic():
    def build():
        return svg([rd.geodesic_arc(geodesic_between(0.0, math.pi / 2), rd.style()),
                    rd.dot(0.5 + 0.1j, rd.style(fill="#000000"), label="x")])
    assert build() == build()
    assert build().count("\n") == 7


def test_document_is_written_as_the_scene_makes_it():
    made = []

    def scene():
        made.append(rd.dot(0j, rd.style()))
        yield made[-1]
        raise RuntimeError("the scene fails after its first element")
    lines = rd.svg_document(scene())
    head = [next(lines) for _ in range(4)]
    assert head[0].startswith("<?xml") and head[3] == made[0] + "\n"
    with pytest.raises(RuntimeError):
        next(lines)


def test_geodesic_paths():
    diam = geodesic_between(0.0, math.pi)
    assert rd.geodesic_path(diam).count("L") == 1
    arc = geodesic_between(0.0, math.pi / 2)
    assert " A " in rd.geodesic_path(arc)


def test_geodesic_samples_sweep_once(monkeypatch):
    # the endpoints and sweep are found once per geodesic, not once per
    # sample, and each sample is point_at's point bit for bit
    geos = [geodesic_between(0.3, 2.1), geodesic_between(0.0, math.pi),
            geodesic_between(5.9, 0.4)]
    want = [[g.point_at(t) for t in rd._linspace(0.0, 1.0, 48)] for g in geos]
    calls = []
    sweep = Geodesic.sweep

    def counted(g, z1, z2):
        calls.append(g)
        return sweep(g, z1, z2)

    monkeypatch.setattr(Geodesic, "sweep", counted)
    assert [rd._geodesic_samples(g) for g in geos] == want
    assert calls == [geos[0], geos[2]]        # a diameter needs no sweep


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
    with pytest.raises(ValueError):
        rd.dot(2.0 + 0j, rd.style())
    with pytest.raises(ValueError):
        rd.polyline([0j, 2.0 + 0j], rd.style())


def test_polygon_scene_runs():
    doc = svg(rd.polygon_scene(build_group(3, 1)))
    assert doc.count("<path") >= 3


def test_tiles_scene_factor():
    m = bowen_series_map(3, 1, factor=True)
    doc = svg(rd.tiles_scene(tiles(m, 2), factor=True, n=3))
    assert "<polyline" in doc


def test_hole_diagram_and_graph_scenes():
    slots, contact, _ = paper_example("5.3")
    bc = assemble(slots, contact)
    doc = svg(rd.hole_diagram_scene(bc))
    assert doc.count("<circle") >= 3
    g = welding_graph(bc)
    doc2 = svg(rd.welding_graph_scene(g))
    assert "v0+" in doc2 and "v1-" in doc2
