"""Certificate value types shared by constructors and verifiers."""

from __future__ import annotations

from typing import Optional

from .core import Edge, GridVertex, Record, SigmaHypergraph

KIND_BERGE = "berge"
KIND_SHARP = "sharp"
KIND_K_INTERSECTING = "k-intersecting"
KINDS = (KIND_BERGE, KIND_SHARP, KIND_K_INTERSECTING)


class SharpnessProfile(Record):
    """Measured consecutive-intersection sizes around a cycle.

    uniform_t / uniform_z are set when the sizes alternate (t, z, t, z, ...)
    over an even-length cycle.
    """

    __slots__ = ("pair_sizes", "uniform_t", "uniform_z")
    pair_sizes: tuple[int, ...]
    uniform_t: Optional[int]
    uniform_z: Optional[int]

    def __init__(
        self, pair_sizes: tuple[int, ...], uniform_t: Optional[int] = None, uniform_z: Optional[int] = None
    ) -> None:
        self._set(pair_sizes, uniform_t, uniform_z)

    @property
    def t_sharp(self) -> bool:
        return self.uniform_t is not None and self.uniform_t == self.uniform_z

    @classmethod
    def from_sizes(cls, pair_sizes: tuple[int, ...]) -> "SharpnessProfile":
        p = len(pair_sizes)
        if p >= 2 and p % 2 == 0:
            t, z = pair_sizes[0], pair_sizes[1]
            if all(pair_sizes[i] == (t if i % 2 == 0 else z) for i in range(p)):
                return cls(pair_sizes, t, z)
        return cls(pair_sizes)


def check_k(k: int) -> None:
    """The rule for k: an int (not a bool), at least 2."""
    if type(k) is not int or k < 2:
        raise ValueError("k must be an integer >= 2")


def check_split_index(split: int, s: int) -> None:
    """The rule for a split index: an int (not a bool) in 1..s-1."""
    if type(split) is not int or not 1 <= split < s:
        raise ValueError(f"split_index must be an integer in 1..{s - 1}")


class CycleCertificate(Record):
    """An ordered edge sequence with a claimed cycle kind.

    Berge certificates additionally carry the vertex sequence; sharp ones
    the split index used by the constructor; k-intersecting ones carry k.
    Claims are untrusted until checked by the matching verifier.

    __init__ checks the scalar fields, each type before its value (a bool
    is not an int): kind one of KINDS, an int k >= 2, an int split_index in
    1..s-1, a bool claimed_hamiltonian, ints claimed_t and claimed_z >= 0;
    the optional ones may be None.  The edges are not checked: whether they
    are edges of the hypergraph is the verifiers' first stage.
    """

    __slots__ = (
        "hypergraph", "kind", "edges", "k", "split_index", "vertex_sequence",
        "claimed_hamiltonian", "claimed_t", "claimed_z",
    )
    hypergraph: SigmaHypergraph
    kind: str
    edges: tuple[Edge, ...]
    k: Optional[int]
    split_index: Optional[int]
    vertex_sequence: Optional[tuple[GridVertex, ...]]
    claimed_hamiltonian: bool
    claimed_t: Optional[int]
    claimed_z: Optional[int]

    def __init__(
        self,
        hypergraph: SigmaHypergraph,
        kind: str,
        edges: tuple[Edge, ...],
        k: Optional[int] = None,
        split_index: Optional[int] = None,
        vertex_sequence: Optional[tuple[GridVertex, ...]] = None,
        claimed_hamiltonian: bool = False,
        claimed_t: Optional[int] = None,
        claimed_z: Optional[int] = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown cycle kind {kind!r}")
        if k is not None:
            check_k(k)
        if split_index is not None:
            check_split_index(split_index, hypergraph.sigma.s)
        if type(claimed_hamiltonian) is not bool:
            raise ValueError("claimed_hamiltonian must be a boolean")
        for claim in (claimed_t, claimed_z):
            if claim is not None and (type(claim) is not int or claim < 0):
                raise ValueError("claimed_t and claimed_z must be integers >= 0")
        self._set(
            hypergraph, kind, edges, k, split_index, vertex_sequence, claimed_hamiltonian, claimed_t, claimed_z
        )
