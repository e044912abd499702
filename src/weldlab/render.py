"""Deterministic SVG rendering of disks, polygons, pockets, tessellations,
hole diagrams and welding graphs.

Geodesics are drawn as exact circular arcs; scenes are plain layer lists and
identical scenes produce byte-identical documents.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import CoincidentEndpoints
from .hyperbolic import Geodesic, TAU, geodesic_between, norm_angle

SIZE = 1000.0
MARGIN = 40.0
CLAMP_TOL = 1e-6


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _xy(z: complex):
    # unit disk to viewport, y flipped
    scale = (SIZE - 2 * MARGIN) / 2.0
    return SIZE / 2 + scale * z.real, SIZE / 2 - scale * z.imag


def _clamp_disk(z: complex) -> complex:
    r = abs(z)
    if r > 1.0 + CLAMP_TOL:
        raise ValueError(f"point {z} outside the closed disk")
    if r > 1.0:
        z = z / r
    return z


class Style(NamedTuple):
    stroke: str = "#333333"
    width: float = 1.5
    fill: str = "none"
    opacity: float = 1.0

    def attrs(self):
        return (f'stroke="{self.stroke}" stroke-width="{_fmt(self.width)}" '
                f'fill="{self.fill}" opacity="{_fmt(self.opacity)}"')


class CirclePrim(NamedTuple):
    center: complex
    radius: float
    style: Style


class GeodesicArc(NamedTuple):
    geodesic: Geodesic
    style: Style


class Polyline(NamedTuple):
    points: list
    style: Style
    closed: bool = False


class Dot(NamedTuple):
    point: complex
    label: str = ""
    style: Style = Style(fill="#000000")     # shared safely: a Style is immutable


class RenderScene:
    """Layer list over a unit-disk viewport.

    A plain class, not a record: each scene owns a fresh layer list, where a
    record's default would be one list shared by every scene.
    """

    __slots__ = ("layers", "disk_frame")

    def __init__(self, disk_frame: bool = True):
        self.layers = []
        self.disk_frame = disk_frame

    def add(self, prim):
        self.layers.append(prim)
        return self


def geodesic_path(g: Geodesic) -> str:
    z1, z2 = (_clamp_disk(z) for z in g.endpoints)
    x1, y1 = _xy(z1)
    x2, y2 = _xy(z2)
    if g.is_diameter:
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    scale = (SIZE - 2 * MARGIN) / 2.0
    r = g.radius * scale
    # the geodesic is the arc on the side of the chord nearer the origin;
    # pick the sweep flag by testing the midpoint
    a1 = cmath.phase(z1 - g.center)
    a2 = cmath.phase(z2 - g.center)
    d = a2 - a1
    while d > math.pi:
        d -= TAU
    while d < -math.pi:
        d += TAU
    sweep = 0 if d > 0 else 1  # viewport y-flip inverts orientation
    return (f"M {_fmt(x1)} {_fmt(y1)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} "
            f"{_fmt(x2)} {_fmt(y2)}")


def render_svg(scene: RenderScene) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="#ffffff"/>',
    ]
    if scene.disk_frame:
        cx, cy = _xy(0j)
        r = (SIZE - 2 * MARGIN) / 2.0
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                     'stroke="#888888" stroke-width="1.0" fill="none"/>')
    for prim in scene.layers:
        if isinstance(prim, CirclePrim):
            cx, cy = _xy(prim.center)
            r = prim.radius * (SIZE - 2 * MARGIN) / 2.0
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                         f'{prim.style.attrs()}/>')
        elif isinstance(prim, GeodesicArc):
            parts.append(f'<path d="{geodesic_path(prim.geodesic)}" '
                         f'{prim.style.attrs()}/>')
        elif isinstance(prim, Polyline):
            pts = [_clamp_disk(z) for z in prim.points]
            coords = " ".join("{},{}".format(_fmt(x), _fmt(y))
                              for x, y in (_xy(z) for z in pts))
            tag = "polygon" if prim.closed else "polyline"
            parts.append(f'<{tag} points="{coords}" {prim.style.attrs()}/>')
        elif isinstance(prim, Dot):
            x, y = _xy(_clamp_disk(prim.point))
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.0" '
                         f'{prim.style.attrs()}/>')
            if prim.label:
                parts.append(f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" '
                             f'font-size="18">{prim.label}</text>')
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- scene builders ----------------------------------------------------------------

_PALETTE = ("#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")


def _linspace(lo: float, hi: float, count: int):
    """count evenly spaced floats from lo to hi, both ends included: the
    same doubles as numpy.linspace(lo, hi, count) for count >= 2."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _geodesic_samples(g: Geodesic, count: int = 48):
    return [g.point_at(t) for t in _linspace(0.0, 1.0, count)]


def polygon_scene(preset) -> RenderScene:
    """Fundamental polygon with its pockets shaded."""
    sc = RenderScene()
    for i, side in enumerate(preset.sides):
        pts = _geodesic_samples(side)
        lo = side.theta1
        hi = side.theta2
        arc = [cmath.exp(1j * t) for t in
               _linspace(lo, lo + ((hi - lo) % TAU), 24)]
        sty = Style(stroke="none", fill=_PALETTE[i % len(_PALETTE)], opacity=0.35)
        sc.add(Polyline(pts + arc[::-1], sty, closed=True))
    for side in preset.sides:
        sc.add(GeodesicArc(side, Style(stroke="#222222", width=2.0)))
    sc.add(GeodesicArc(preset.axis, Style(stroke="#2ca02c", width=1.5)))
    return sc


def tiles_scene(tile_levels, factor: bool = False, n: int = 1) -> RenderScene:
    """Tessellation by tiles; factor tiles are drawn as z^n images sampled
    along the boundary geodesics."""
    sc = RenderScene()
    for li, level in enumerate(tile_levels):
        sty = Style(stroke=_PALETTE[li % len(_PALETTE)], width=1.2)
        for tile in level:
            verts = list(tile.vertices)
            k = len(verts)
            for i in range(k):
                seg = _boundary_samples(verts[i], verts[(i + 1) % k])
                if factor:
                    seg = [z ** n for z in seg]
                sc.add(Polyline(seg, sty))
    return sc


def _boundary_samples(z1, z2, count: int = 24):
    # sample the geodesic between two tile vertices
    t1 = norm_angle(cmath.phase(z1))
    t2 = norm_angle(cmath.phase(z2))
    try:
        g = geodesic_between(t1, t2)
    except CoincidentEndpoints:
        return [z1, z2]
    return _geodesic_samples(g, count)


def hole_diagram_scene(bc) -> RenderScene:
    """Schematic of the holes: one circle per hole, corners marked, wedge
    classes drawn as chords to a shared dot."""
    sc = RenderScene(disk_frame=False)
    holes = sorted(bc.holes)
    k = len(holes)
    centers = {}
    for i, h in enumerate(holes):
        c = 0.55 * cmath.exp(1j * TAU * i / max(k, 1)) if k > 1 else 0j
        centers[h] = c
        sc.add(CirclePrim(c, 0.28, Style(stroke=_PALETTE[i % len(_PALETTE)], width=2.0)))
        hb = bc.holes[h]
        for corner in range(hb.p):
            z = c + 0.28 * cmath.exp(1j * TAU * corner / hb.p)
            sc.add(Dot(z, label=f"{h}.{corner}", style=Style(fill="#333333")))
    for ci, cls in enumerate(bc.contact.classes):
        pts = []
        for (h, corner) in cls:
            hb = bc.holes[h]
            pts.append(centers[h] + 0.28 * cmath.exp(1j * TAU * corner / hb.p))
        mid = sum(pts) / len(pts)
        for z in pts:
            sc.add(Polyline([z, mid], Style(stroke="#cc0000", width=1.0)))
        sc.add(Dot(mid, style=Style(fill="#cc0000")))
    return sc


def welding_graph_scene(graph) -> RenderScene:
    """Welding graph: minus copies on the left, plus copies on the right."""
    sc = RenderScene(disk_frame=False)
    k = graph.num_faces
    pos = {}
    for i in range(k):
        y = 0.8 - 1.6 * i / max(k - 1, 1) if k > 1 else 0.0
        pos[(i, -1)] = complex(-0.6, y)
        pos[(i, +1)] = complex(0.6, y)
    for (a, b) in sorted(graph.edges):
        sc.add(Polyline([pos[(a, -1)], pos[(b, +1)]], Style(stroke="#555555", width=1.2)))
    for v, z in sorted(pos.items()):
        lab = f"v{v[0]}{'+' if v[1] > 0 else '-'}"
        sc.add(Dot(z, label=lab, style=Style(fill="#1f77b4" if v[1] > 0 else "#d62728")))
    return sc
