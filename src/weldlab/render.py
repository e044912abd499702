"""Deterministic SVG rendering of disks, polygons, pockets, tessellations,
hole diagrams and welding graphs.

Each element is an SVG string, made by style() and one of circle(),
geodesic_arc(), polyline() and dot(); a scene is a generator of elements, and
svg_document() yields the document's lines as the scene makes them, so the
output is written while it is drawn.  Geodesics are drawn as exact circular
arcs, and identical scenes produce byte-identical documents.
"""

from __future__ import annotations

import cmath

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


def style(stroke="#333333", width=1.5, fill="none", opacity=1.0) -> str:
    """The presentation attributes of one element."""
    return (f'stroke="{stroke}" stroke-width="{_fmt(width)}" '
            f'fill="{fill}" opacity="{_fmt(opacity)}"')


def circle(center: complex, radius: float, attrs: str) -> str:
    cx, cy = _xy(center)
    r = radius * (SIZE - 2 * MARGIN) / 2.0
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {attrs}/>'


#: the unit circle, the first element of the disk scenes
_DISK_FRAME = circle(0j, 1.0, 'stroke="#888888" stroke-width="1.0" fill="none"')


def geodesic_arc(g: Geodesic, attrs: str) -> str:
    return f'<path d="{geodesic_path(g)}" {attrs}/>'


def polyline(points, attrs: str, closed: bool = False) -> str:
    coords = " ".join("{},{}".format(_fmt(x), _fmt(y))
                      for x, y in (_xy(_clamp_disk(z)) for z in points))
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" {attrs}/>'


def dot(point: complex, attrs: str, label: str = "") -> str:
    """A marked point, followed by its label if it has one."""
    x, y = _xy(_clamp_disk(point))
    mark = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.0" {attrs}/>'
    if not label:
        return mark
    return (f'{mark}\n<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" '
            f'font-size="18">{label}</text>')


def geodesic_path(g: Geodesic) -> str:
    z1, z2 = (_clamp_disk(z) for z in g.endpoints)
    x1, y1 = _xy(z1)
    x2, y2 = _xy(z2)
    if g.is_diameter:
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    scale = (SIZE - 2 * MARGIN) / 2.0
    r = g.radius * scale
    # the geodesic is the arc on the side of the chord nearer the origin
    _, d = g.sweep(z1, z2)
    sweep = 0 if d > 0 else 1  # viewport y-flip inverts orientation
    return (f"M {_fmt(x1)} {_fmt(y1)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} "
            f"{_fmt(x2)} {_fmt(y2)}")


def svg_document(elements):
    """The lines of the SVG document around the given element strings, each
    yielded as soon as it is made, so that no element or scene is held."""
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
           f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">\n')
    yield f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="#ffffff"/>\n'
    for element in elements:
        yield element + "\n"
    yield "</svg>\n"


# -- scene builders ----------------------------------------------------------------

_PALETTE = ("#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")


def _linspace(lo: float, hi: float, count: int):
    """count evenly spaced floats from lo to hi, both ends included: the
    same doubles as numpy.linspace(lo, hi, count) for count >= 2."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _geodesic_samples(g: Geodesic, count: int = 48):
    return g.points_at(_linspace(0.0, 1.0, count))


def polygon_scene(preset):
    """Fundamental polygon with its pockets shaded, in the disk frame."""
    yield _DISK_FRAME
    for i, side in enumerate(preset.sides):
        pts = _geodesic_samples(side)
        lo = side.theta1
        hi = side.theta2
        arc = [cmath.exp(1j * t) for t in
               _linspace(lo, lo + ((hi - lo) % TAU), 24)]
        yield polyline(pts + arc[::-1],
                       style(stroke="none", fill=_PALETTE[i % len(_PALETTE)], opacity=0.35),
                       closed=True)
    attrs = style(stroke="#222222", width=2.0)
    for side in preset.sides:
        yield geodesic_arc(side, attrs)
    yield geodesic_arc(preset.axis, style(stroke="#2ca02c", width=1.5))


def tiles_scene(tile_levels, factor: bool = False, n: int = 1):
    """Tessellation by tiles in the disk frame; factor tiles are drawn as z^n
    images sampled along the boundary geodesics."""
    yield _DISK_FRAME
    for li, level in enumerate(tile_levels):
        attrs = style(stroke=_PALETTE[li % len(_PALETTE)], width=1.2)
        for tile in level:
            verts = list(tile.vertices)
            k = len(verts)
            for i in range(k):
                seg = _boundary_samples(verts[i], verts[(i + 1) % k])
                if factor:
                    seg = [z ** n for z in seg]
                yield polyline(seg, attrs)


def _boundary_samples(z1, z2, count: int = 24):
    # sample the geodesic between two tile vertices
    t1 = norm_angle(cmath.phase(z1))
    t2 = norm_angle(cmath.phase(z2))
    try:
        g = geodesic_between(t1, t2)
    except CoincidentEndpoints:
        return [z1, z2]
    return _geodesic_samples(g, count)


def hole_diagram_scene(bc):
    """Schematic of the holes: one circle per hole, corners marked, wedge
    classes drawn as chords to a shared dot."""
    holes = [h for h, s in enumerate(bc.slots) if s.kind == "group"]
    k = len(holes)
    centers = {}
    for i, h in enumerate(holes):
        c = 0.55 * cmath.exp(1j * TAU * i / max(k, 1)) if k > 1 else 0j
        centers[h] = c
        yield circle(c, 0.28, style(stroke=_PALETTE[i % len(_PALETTE)], width=2.0))
        p = bc.slots[h].p
        for corner in range(p):
            z = c + 0.28 * cmath.exp(1j * TAU * corner / p)
            yield dot(z, style(fill="#333333"), label=f"{h}.{corner}")
    chord = style(stroke="#cc0000", width=1.0)
    for cls in bc.contact.classes:
        pts = [centers[h] + 0.28 * cmath.exp(1j * TAU * corner / bc.slots[h].p)
               for (h, corner) in cls]
        mid = sum(pts) / len(pts)
        for z in pts:
            yield polyline([z, mid], chord)
        yield dot(mid, style(fill="#cc0000"))


def welding_graph_scene(graph):
    """Welding graph: minus copies on the left, plus copies on the right."""
    k = graph.num_faces
    pos = {}
    for i in range(k):
        y = 0.8 - 1.6 * i / max(k - 1, 1) if k > 1 else 0.0
        pos[(i, -1)] = complex(-0.6, y)
        pos[(i, +1)] = complex(0.6, y)
    edge = style(stroke="#555555", width=1.2)
    for (a, b) in sorted(graph.edges):
        yield polyline([pos[(a, -1)], pos[(b, +1)]], edge)
    for v, z in sorted(pos.items()):
        lab = f"v{v[0]}{'+' if v[1] > 0 else '-'}"
        yield dot(z, style(fill="#1f77b4" if v[1] > 0 else "#d62728"), label=lab)
