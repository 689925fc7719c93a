"""Grid-structured uniform hypergraphs.

Vertices live on a q x n grid: n classes (columns) of q vertices each,
row 0 at the top.  An r-subset of the grid is an edge exactly when the
sorted nonzero per-class intersection sizes equal a fixed partition of r.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import NoEdgesError

# (class_index, row_index), both 0-based; row 0 is the top of the grid.
GridVertex = tuple[int, int]


@dataclass(frozen=True)
class Partition:
    """A partition of r: positive parts stored in non-increasing order."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition must have at least one part")
        for a in self.parts:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"partition parts must be positive integers, got {a!r}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be non-increasing; use Partition.of to sort")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        """Build a partition from parts in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def r(self) -> int:
        return sum(self.parts)

    @property
    def s(self) -> int:
        return len(self.parts)

    @property
    def delta_max(self) -> int:
        return self.parts[0]

    @property
    def delta_min(self) -> int:
        return self.parts[-1]

    @property
    def gcd_parts(self) -> int:
        return math.gcd(*self.parts)

    @property
    def rectangular(self) -> bool:
        return self.parts[0] == self.parts[-1]

    @property
    def square(self) -> bool:
        return self.rectangular and self.delta_max == self.s

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.parts)


def parse_partition(text: str) -> Partition:
    """Parse comma-separated positive integers; order is not significant."""
    if not text or not text.strip():
        raise ValueError("empty partition")
    parts = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            a = int(tok)
        except ValueError:
            raise ValueError(f"non-integer partition part: {tok!r}") from None
        if a < 1:
            raise ValueError(f"partition parts must be >= 1, got {a}")
        parts.append(a)
    return Partition.of(parts)


@dataclass(frozen=True)
class SigmaHypergraph:
    """Hypergraph H(n, r, q | sigma) on an n-column, q-row vertex grid."""

    n: int
    q: int
    sigma: Partition

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 1:
            raise ValueError("n and q must be >= 1")
        if self.q < self.sigma.delta_max:
            raise NoEdgesError(f"q={self.q} < largest part {self.sigma.delta_max}: no edges")
        if self.n < self.sigma.s:
            raise NoEdgesError(f"n={self.n} < number of parts {self.sigma.s}: no edges")

    @property
    def r(self) -> int:
        return self.sigma.r

    @property
    def vertex_count(self) -> int:
        return self.n * self.q

    def vertices(self) -> Iterator[GridVertex]:
        for c in range(self.n):
            for row in range(self.q):
                yield (c, row)

    def in_bounds(self, v: GridVertex) -> bool:
        c, row = v
        return 0 <= c < self.n and 0 <= row < self.q

    def __str__(self) -> str:
        return f"H(n={self.n}, q={self.q}, sigma=({self.sigma}))"


def make_hypergraph(n: int, q: int, sigma: Partition) -> SigmaHypergraph:
    """Validate parameters and build the hypergraph.

    Raises NoEdgesError when q < largest part or n < number of parts.
    """
    return SigmaHypergraph(n, q, sigma)


@dataclass(frozen=True, slots=True)
class Edge:
    """An edge stored as its canonical vertex tuple, sorted by (class, row)."""

    vertices: tuple[GridVertex, ...]

    @classmethod
    def of(cls, vertices: Iterable[GridVertex]) -> "Edge":
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex in edge")
        return cls(vs)

    @property
    def parts(self) -> dict[int, int]:
        """Map class index -> nonzero intersection size."""
        counts: dict[int, int] = {}
        for c, _ in self.vertices:
            counts[c] = counts.get(c, 0) + 1
        return counts

    def part_sizes(self) -> tuple[int, ...]:
        """Nonzero class-intersection sizes, sorted non-increasing."""
        return tuple(sorted(self.parts.values(), reverse=True))

    def vertex_set(self) -> frozenset[GridVertex]:
        return frozenset(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: GridVertex) -> bool:
        return v in self.vertices


def incidence(edges: Sequence[Edge]) -> dict[GridVertex, list[int]]:
    """Map each vertex to the ascending indices of the edges that contain it.
    Two edges meet exactly when both indices sit in some vertex's list."""
    index: dict[GridVertex, list[int]] = defaultdict(list)
    for i, e in enumerate(edges):
        for v in e.vertices:
            index[v].append(i)
    return index


def is_edge(H: SigmaHypergraph, K: Iterable[GridVertex]) -> bool:
    """True iff K is an r-set whose sorted nonzero class sizes equal sigma."""
    vs = list(K)
    for v in vs:
        if not H.in_bounds(v):
            raise ValueError(f"vertex {v} out of bounds for {H}")
    if len(set(vs)) != len(vs) or len(vs) != H.r:
        return False
    counts = Counter(c for c, _ in vs)
    return tuple(sorted(counts.values(), reverse=True)) == H.sigma.parts


def enumerate_edges(H: SigmaHypergraph) -> Iterator[Edge]:
    """Yield every edge exactly once, in lexicographic order of the
    canonical vertex sequences.  Restartable; nothing is materialized.

    A recursion places the parts class by class.  Once one part is left,
    its placements in the remaining classes come from itertools.combinations
    over each class's vertices, mapped to edges without a generator frame
    per edge; no placement list is built, so the enumeration stays lazy."""

    sigma_parts = H.sigma.parts
    n, q = H.n, H.q
    columns = [tuple((c, row) for row in range(q)) for c in range(n)]
    # the sorted row choices depend only on the parts still to place
    choices_for: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def rec(c: int, remaining: tuple[int, ...], acc: tuple[GridVertex, ...]) -> Iterator[Edge]:
        if n - c < len(remaining):
            return
        if len(remaining) == 1:
            # the last part goes into one class; classes in order, rows
            # ascending, is the lexicographic order of the edges
            for column in columns[c:]:
                yield from map(Edge, map(acc.__add__, itertools.combinations(column, remaining[0])))
            return
        choices = choices_for.get(remaining)
        if choices is None:
            choices = [()]
            for a in set(remaining):
                choices.extend(itertools.combinations(range(q), a))
            # lexicographic on the induced vertex sequence: a choice that is a
            # strict prefix of another continues with a later class, so it
            # sorts after it, and the empty choice (skip this class) sorts
            # last; the sentinel q, above every row, gives both
            choices.sort(key=lambda rows: rows + (q,))
            choices_for[remaining] = choices
        for rows in choices:
            if rows:
                rest = list(remaining)
                rest.remove(len(rows))
                yield from rec(c + 1, tuple(rest), acc + tuple((c, rr) for rr in rows))
            else:
                yield from rec(c + 1, remaining, acc)

    return rec(0, sigma_parts, ())


def edge_count(H: SigmaHypergraph) -> int:
    """Closed-form edge count, exact integer arithmetic."""
    sigma = H.sigma
    class_ways = math.factorial(H.n) // math.factorial(H.n - sigma.s)
    for m in Counter(sigma.parts).values():
        class_ways //= math.factorial(m)
    row_ways = math.prod(math.comb(H.q, a) for a in sigma.parts)
    return class_ways * row_ways
