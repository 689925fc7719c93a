"""Hamiltonian cycle certificates for grid-structured uniform hypergraphs.

The public names load lazily (PEP 562): `import sigmacycles` imports no
submodule, and the first use of a name imports its home module and caches
the value here.
"""

import importlib

# home module -> the public names it exports
_EXPORTS = {
    "certificates": (
        "KIND_BERGE",
        "KIND_K_INTERSECTING",
        "KIND_SHARP",
        "CycleCertificate",
        "SharpnessProfile",
    ),
    "construct": (
        "construct_berge_hamiltonian",
        "construct_k_intersecting",
        "construct_sharp_hamiltonian",
        "diagonal_matching",
        "frobenius_decompose",
        "shifted_matching",
    ),
    "core": (
        "Edge",
        "GridVertex",
        "Partition",
        "SigmaHypergraph",
        "edge_count",
        "enumerate_edges",
        "is_edge",
        "make_hypergraph",
        "parse_partition",
    ),
    "errors": (
        "BudgetExceeded",
        "CertificateParseError",
        "ConstructionError",
        "NoCycle",
        "NoEdgesError",
        "NoRecipe",
    ),
    "verify": (
        "MaxMatchingResult",
        "SharpSearchResult",
        "VerificationReport",
        "brute_force_max_matching",
        "brute_force_sharp_hamiltonian_exists",
        "matching_upper_bound",
        "no_cycle_reason",
        "sharp_cycle_bounds",
        "verify_berge_hamiltonian",
        "verify_k_intersecting",
        "verify_matching",
        "verify_sharp_cycle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"certfile", "cli", "export"}

# the submodules resolve as attributes too; they are not part of the
# star-import surface
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
