"""Static SVG views of unit spheres.

Two-dimensional spaces are drawn directly: the sphere polygon, facet
labels, and, from a T-property report, the facet barycenters and the
two-sided distance witnesses. Higher-dimensional spaces get their facet
incidence graph instead (facets as nodes, ridges as edges). Output is plain SVG
text, byte-identical across runs for the same inputs: iteration follows
the canonical orders and coordinates are formatted to fixed precision.
Floats appear only in drawing coordinates, never in any verdict.
"""

import math
from xml.sax.saxutils import escape

from . import linalg
from .properties import TPropertyReport
from .space import PolyhedralSpace, Vector

_SIZE = 640
_PAD = 60.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_space_svg(space: PolyhedralSpace, report: TPropertyReport | None = None) -> str:
    if space.dim == 2:
        return _render_2d(space, report)
    return _render_incidence(space)


def _collect_witnesses(report: TPropertyReport | None) -> list[Vector]:
    if report is None:
        return []
    seen = set()
    points = []
    for rec in report.condition_iii:
        for w in (rec.witness_plus, rec.witness_minus):
            if w.coords not in seen:
                seen.add(w.coords)
                points.append(w)
    return points


def _render_2d(space, report) -> str:
    candidates = report.candidates if report is not None else ()
    witnesses = _collect_witnesses(report)
    xs = [float(v.coords[0]) for v in space.vrep]
    ys = [float(v.coords[1]) for v in space.vrep]
    span = max(max(map(abs, xs)), max(map(abs, ys))) * 1.3
    scale = (_SIZE - 2 * _PAD) / (2 * span)

    def sx(x: float) -> float:
        return _SIZE / 2 + x * scale

    def sy(y: float) -> float:
        return _SIZE / 2 - y * scale

    def pt(v: Vector) -> tuple[float, float]:
        return sx(float(v.coords[0])), sy(float(v.coords[1]))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<line x1="{_fmt(sx(-span))}" y1="{_fmt(sy(0))}" x2="{_fmt(sx(span))}" '
        f'y2="{_fmt(sy(0))}" stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{_fmt(sx(0))}" y1="{_fmt(sy(-span))}" x2="{_fmt(sx(0))}" '
        f'y2="{_fmt(sy(span))}" stroke="#cccccc" stroke-width="1"/>',
    ]

    ordered = sorted(
        space.vrep,
        key=lambda v: math.atan2(float(v.coords[1]), float(v.coords[0])),
    )
    path = " ".join(f"{_fmt(pt(v)[0])},{_fmt(pt(v)[1])}" for v in ordered)
    out.append(
        f'<polygon points="{path}" fill="#eef3fb" stroke="#1f4e98" stroke-width="2"/>'
    )

    for fid in range(len(space.hrep)):
        b = space.facet_barycenter(fid)
        lx = sx(float(b.coords[0]) * 1.18)
        ly = sy(float(b.coords[1]) * 1.18)
        out.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" fill="#1f4e98" '
            f'text-anchor="middle">f{fid} {escape(str(space.hrep[fid]))}</text>'
        )

    for v in space.vrep:
        x, y = pt(v)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#1f4e98"/>')
        out.append(
            f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 6)}" font-size="11" '
            f'fill="#333333">{v}</text>'
        )

    for w in witnesses:
        x, y = pt(w)
        out.append(
            f'<path d="M {_fmt(x - 4)} {_fmt(y)} L {_fmt(x + 4)} {_fmt(y)} '
            f'M {_fmt(x)} {_fmt(y - 4)} L {_fmt(x)} {_fmt(y + 4)}" '
            f'stroke="#b05910" stroke-width="2"/>'
        )

    for k, c in enumerate(candidates):
        x, y = pt(c)
        out.append(
            f'<rect x="{_fmt(x - 4)}" y="{_fmt(y - 4)}" width="8" height="8" '
            f'fill="#a02020" transform="rotate(45 {_fmt(x)} {_fmt(y)})"/>'
        )
        out.append(
            f'<text x="{_fmt(x + 8)}" y="{_fmt(y + 14)}" font-size="11" '
            f'fill="#a02020">x{k} {c}</text>'
        )

    label = space.summary()
    if candidates:
        label += f"; {len(candidates)} candidates"
    if witnesses:
        label += f"; {len(witnesses)} witness points"
    out.append(
        f'<text x="12" y="20" font-size="13" fill="#000000">{escape(label)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _ridge_pairs(space: PolyhedralSpace) -> list[tuple[int, int]]:
    """Facet pairs whose shared vertices span a ridge (affine dimension dim-2).

    The affine dimension of points is the rank of their homogenised rows
    minus one. The shared vertices lie on facet i, where f_i is one, so by
    the lemma of :mod:`polysphere.space` their integer rows have the rank
    of the homogenised rows: they span a ridge iff that rank is dim-1.
    """
    pairs = []
    m = len(space.hrep)
    for i in range(m):
        set_i = set(space.facet_index[i])
        for j in range(i + 1, m):
            shared = sorted(set_i & set(space.facet_index[j]))
            if not shared:
                continue
            if linalg.rank([space._points[k] for k in shared]) == space.dim - 1:
                pairs.append((i, j))
    return pairs


def _render_incidence(space: PolyhedralSpace) -> str:
    m = len(space.hrep)
    cx = cy = _SIZE / 2
    radius = _SIZE / 2 - _PAD - 40

    def node(i: int) -> tuple[float, float]:
        angle = 2 * math.pi * i / m - math.pi / 2
        return cx + radius * math.cos(angle), cy + radius * math.sin(angle)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="12" y="20" font-size="13" fill="#000000">'
        f"{escape(space.summary())}; facet incidence graph</text>",
    ]
    for i, j in _ridge_pairs(space):
        x1, y1 = node(i)
        x2, y2 = node(j)
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#9db3d4" stroke-width="1.5"/>'
        )
    for i in range(m):
        x, y = node(i)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="14" fill="#1f4e98"/>')
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4)}" font-size="11" fill="white" '
            f'text-anchor="middle">f{i}</text>'
        )
        lx = cx + (radius + 34) * math.cos(2 * math.pi * i / m - math.pi / 2)
        ly = cy + (radius + 34) * math.sin(2 * math.pi * i / m - math.pi / 2)
        out.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="10" fill="#333333" '
            f'text-anchor="middle">{escape(str(space.hrep[i]))}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
