"""Deterministic DOT and SVG renderings of cycle certificates."""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .certificates import CycleCertificate
from .core import incidence

_CELL = 22
_PAD = 14
_RADIUS = 7
_PANELS_PER_ROW = 6
# most DOT edge pairs or SVG grid cells a rendering may examine; the
# constructors cap a certificate's vertex slots (edges x r) at it too
_MAX_ITEMS = 1_000_000


def _check_size(items: int, what: str) -> None:
    if items > _MAX_ITEMS:
        raise ValueError(f"{what}: {items} exceeds the rendering limit of {_MAX_ITEMS}")


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
    previous or next edge of the cycle are shaded.  Raises ValueError when
    the panels hold more grid cells than the rendering limit.
    """
    H = cert.hypergraph
    p = len(cert.edges)
    _check_size(p * H.n * H.q, "svg grid cells")
    sets = [e.vertex_set() for e in cert.edges]
    panel_w = H.n * _CELL + _PAD
    panel_h = H.q * _CELL + _PAD + 12
    cols = min(p, _PANELS_PER_ROW)
    rows = (p + cols - 1) // cols
    width = cols * panel_w + _PAD
    height = rows * panel_h + _PAD
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(p):
        shared = sets[i] & (sets[(i - 1) % p] | sets[(i + 1) % p])
        ox = _PAD + (i % cols) * panel_w
        oy = _PAD + (i // cols) * panel_h
        out.append(f'<text x="{ox}" y="{oy + 2}" font-size="10" font-family="monospace">e{i}</text>')
        for c in range(H.n):
            for row in range(H.q):
                cx = ox + c * _CELL + _CELL // 2
                cy = oy + 8 + row * _CELL + _CELL // 2
                v = (c, row)
                if v in sets[i]:
                    fill = "#999999" if v in shared else "white"
                    out.append(
                        f'<circle cx="{cx}" cy="{cy}" r="{_RADIUS}" fill="{fill}" '
                        f'stroke="black" stroke-width="1.5"/>'
                    )
                else:
                    out.append(
                        f'<circle cx="{cx}" cy="{cy}" r="{_RADIUS}" fill="#eeeeee" '
                        f'stroke="#cccccc" stroke-width="0.5"/>'
                    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
