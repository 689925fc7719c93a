"""Deterministic DOT and SVG renderings of cycle certificates."""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .certificates import CycleCertificate
from .core import MAX_ITEMS, incidence

_CELL = 22
_PAD = 14
_RADIUS = 7
_PANELS_PER_ROW = 6
# circle styles: a grid cell, an edge vertex, an edge vertex shared with a neighbour
_GREY = 'fill="#eeeeee" stroke="#cccccc" stroke-width="0.5"'
_WHITE = 'fill="white" stroke="black" stroke-width="1.5"'
_SHADED = 'fill="#999999" stroke="black" stroke-width="1.5"'


def _check_size(items: int, what: str) -> None:
    if items > MAX_ITEMS:
        raise ValueError(f"{what}: {items} exceeds the rendering limit of {MAX_ITEMS}")


def render_dot(cert: CycleCertificate) -> str:
    """Intersection graph of the cycle: one node per edge, an arc for every
    nonempty pairwise intersection labeled with its size.  The arcs are read
    off the vertex -> edge incidence index, each list without repeats (an
    Edge built directly may list a vertex twice); raises ValueError when the
    lists hold more edge pairs than the rendering limit."""
    lists = [dict.fromkeys(ids) for ids in incidence(cert.edges).values()]
    _check_size(sum(math.comb(len(ids), 2) for ids in lists), "dot edge pairs")
    shared = Counter(pair for ids in lists for pair in itertools.combinations(ids, 2))
    lines = ["graph cycle {"]
    lines += [f'  e{i} [label="e{i}"];' for i in range(len(cert.edges))]
    lines += [f'  e{i} -- e{j} [label="{size}"];' for (i, j), size in sorted(shared.items())]
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_svg(cert: CycleCertificate) -> str:
    """One q x n grid panel per cycle edge, rows drawn top-down.

    The panel's edge has its vertices outlined; vertices shared with the
    previous or next edge of the cycle are shaded; a vertex outside the
    grid is not drawn.  Raises ValueError when the cycle has no edges or
    when the panels hold more grid cells than the rendering limit.

    Each class of a panel is drawn by one join: the class's `<circle cx=`
    head, shared by every panel in that column of panels, joined over the
    `cy` strings of that row of panels, which carry the grey cell style.
    A class that holds edge vertices joins a copy of the list in which the
    edge's rows carry the outlined style.
    """
    H = cert.hypergraph
    n, q = H.n, H.q
    p = len(cert.edges)
    if not p:
        raise ValueError("svg: the cycle has no edges")
    _check_size(p * n * q, "svg grid cells")
    sets = [e.vertex_set() for e in cert.edges]
    panel_w = n * _CELL + _PAD
    panel_h = q * _CELL + _PAD + 12
    cols = min(p, _PANELS_PER_ROW)
    rows = (p + cols - 1) // cols
    width = cols * panel_w + _PAD
    height = rows * panel_h + _PAD
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<rect width="{width}" height="{height}" fill="white"/>'
    ]
    # heads[i % cols][c] starts every circle of class c in panel i
    heads = [
        [f'\n<circle cx="{_PAD + pc * panel_w + c * _CELL + _CELL // 2}" cy="' for c in range(n)]
        for pc in range(cols)
    ]
    for i in range(p):
        ox = _PAD + (i % cols) * panel_w
        oy = _PAD + (i // cols) * panel_h
        if i % cols == 0:
            first = oy + 8 + _CELL // 2
            grey, white, shaded = (
                [f'{cy}" r="{_RADIUS}" {style}/>' for cy in range(first, first + q * _CELL, _CELL)]
                for style in (_GREY, _WHITE, _SHADED)
            )
        shared = sets[i] & (sets[(i - 1) % p] | sets[(i + 1) % p])
        drawn: dict[int, list[str]] = {}
        for v in sets[i]:
            c, row = v
            if 0 <= c < n and 0 <= row < q:
                if c not in drawn:
                    drawn[c] = grey.copy()
                drawn[c][row] = (shaded if v in shared else white)[row]
        out.append(f'\n<text x="{ox}" y="{oy + 2}" font-size="10" font-family="monospace">e{i}</text>')
        for c, head in enumerate(heads[i % cols]):
            out += (head, head.join(drawn.get(c, grey)))
    out.append("\n</svg>\n")
    return "".join(out)
