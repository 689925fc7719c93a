"""Grid-structured uniform hypergraphs.

Vertices live on a q x n grid: n classes (columns) of q vertices each,
row 0 at the top.  An r-subset of the grid is an edge exactly when the
sorted nonzero per-class intersection sizes equal a fixed partition of r.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from typing import Iterable, Iterator, Sequence

from .errors import NoEdgesError

# (class_index, row_index), both 0-based; row 0 is the top of the grid.
GridVertex = tuple[int, int]

# the size limit of the layers above: the constructors refuse a certificate
# with more vertex slots (edges x r), and export a rendering that would
# examine more DOT edge pairs or SVG grid cells
MAX_ITEMS = 1_000_000


class Record:
    """Base of the immutable value types.

    A subclass names its fields in __slots__.  Its __init__ takes them in
    that order, validates them and sets each once through object.__setattr__
    (_set).  Equality, hash, repr, pickling and replace() read the fields
    in __slots__ order, as a frozen dataclass's methods would; the hash is
    that of the field tuple.  Defined here rather than with dataclasses,
    whose import (inspect, ast, dis, ...) would dominate a short CLI call.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with some fields changed, validated by __init__ again."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    __replace__ = replace  # copy.replace, Python 3.13+


class Partition(Record):
    """A partition of r: positive int parts stored in non-increasing order.
    A bool is not a part."""

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        if not parts:
            raise ValueError("partition must have at least one part")
        for a in parts:
            if type(a) is not int or a < 1:
                raise ValueError(f"partition parts must be positive integers, got {a!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing, got {parts}")
        self._set(parts)

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
    def gcd_parts(self) -> int:
        return math.gcd(*self.parts)

    @property
    def rectangular(self) -> bool:
        return self.parts[0] == self.parts[-1]

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.parts)


def parse_partition(text: str) -> Partition:
    """Parse comma-separated integer parts in any order; Partition checks
    their values."""
    parts = []
    for tok in text.split(","):
        try:
            parts.append(int(tok))
        except ValueError:
            raise ValueError(f"non-integer partition part: {tok.strip()!r}") from None
    return Partition.of(parts)


class SigmaHypergraph(Record):
    """Hypergraph H(n, r, q | sigma) on an n-column, q-row vertex grid.

    n and q are ints >= 1 (not bools); NoEdgesError when q < largest part
    or n < number of parts."""

    __slots__ = ("n", "q", "sigma")
    n: int
    q: int
    sigma: Partition

    def __init__(self, n: int, q: int, sigma: Partition) -> None:
        if type(n) is not int or type(q) is not int or n < 1 or q < 1:
            raise ValueError("n and q must be integers >= 1")
        if q < sigma.delta_max:
            raise NoEdgesError(f"q={q} < largest part {sigma.delta_max}: no edges")
        if n < sigma.s:
            raise NoEdgesError(f"n={n} < number of parts {sigma.s}: no edges")
        self._set(n, q, sigma)

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


make_hypergraph = SigmaHypergraph


class Edge(Record):
    """An edge stored as its vertex tuple.  Edge.of sorts it by (class,
    row), the order of every built or parsed edge; Edge() keeps the order
    it is given."""

    __slots__ = ("vertices",)
    vertices: tuple[GridVertex, ...]

    def __init__(self, vertices: tuple[GridVertex, ...]) -> None:
        # not through _set: enumerate_edges builds one Edge per edge of H
        object.__setattr__(self, "vertices", vertices)

    @classmethod
    def of(cls, vertices: Iterable[GridVertex]) -> "Edge":
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex in edge")
        return cls(vs)

    def vertex_set(self) -> frozenset[GridVertex]:
        return frozenset(self.vertices)


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


# a class's vertices over a run of rows, ascending
_Column = tuple[GridVertex, ...]


def _columns(H: SigmaHypergraph, rows: range) -> list[_Column]:
    """The grid's vertex tuples over rows, one tuple per class: the
    enumeration and every recipe make them once per call and cut each part
    (the vertices of an edge in one class) from them."""
    return [tuple((c, row) for row in rows) for c in range(H.n)]


def _runs(columns: list[_Column], parts: tuple[int, ...]) -> Iterator[tuple[_Column, int, int]]:
    """Yield the edges whose parts are cut from the class columns as runs
    (prefix, cc, a), in lexicographic order of the canonical vertex
    sequences: a run stands for the edges that extend the vertex tuple
    prefix by every a-vertex choice in column cc, in
    itertools.combinations order.  A depth-first walk over an explicit stack
    of _moves, one per part placed, so the number of parts is not bounded by
    the recursion limit; once one part is left, each remaining class in
    order gives one run."""
    n = len(columns)
    stack = [iter([(0, parts, ())])]
    while stack:
        for c, remaining, acc in stack[-1]:
            if len(remaining) == 1:
                # the last part goes into one class; classes in order, rows
                # ascending, is the lexicographic order of the edges
                for cc in range(c, n):
                    yield acc, cc, remaining[0]
                continue
            stack.append(_moves(columns, c, remaining, acc))
            break
        else:
            stack.pop()


def _moves(columns: list[_Column], c: int, remaining: tuple, acc: tuple) -> Iterator[tuple]:
    """Yield (first free class, parts left, prefix) for each way to place one
    of the parts remaining, after the vertices acc, in a class cc >= c: one
    merge of the combinations streams of the part sizes left, per class."""
    from heapq import merge

    # a part that another part extends continues with a later class, so it
    # sorts after it; the sentinel pad, above every vertex, gives that
    pad = ((len(columns),),)
    # skipping class cc sorts after every part in it, so the classes go in
    # order; each leaves room for the other parts in the classes after it
    for cc in range(c, len(columns) - len(remaining) + 1):
        streams = [itertools.combinations(columns[cc], a) for a in set(remaining)]
        for part in merge(*streams, key=lambda part: part + pad):
            rest = list(remaining)
            rest.remove(len(part))
            yield cc + 1, tuple(rest), acc + part


def enumerate_edges(H: SigmaHypergraph) -> Iterator[Edge]:
    """Yield every edge exactly once, in lexicographic order of the
    canonical vertex sequences.  Restartable; no edge list is built: before
    the first edge the memory held is the class columns plus one choice
    stream per placed part.

    Each run of _runs maps itertools.combinations over its class's
    vertices to edges without a generator frame per edge."""
    columns = _columns(H, range(H.q))
    for acc, c, a in _runs(columns, H.sigma.parts):
        yield from map(Edge, map(acc.__add__, itertools.combinations(columns[c], a)))


def edge_count(H: SigmaHypergraph) -> int:
    """Closed-form edge count, exact integer arithmetic."""
    sigma = H.sigma
    class_ways = math.perm(H.n, sigma.s)
    for m in Counter(sigma.parts).values():
        class_ways //= math.factorial(m)
    row_ways = math.prod(math.comb(H.q, a) for a in sigma.parts)
    return class_ways * row_ways
