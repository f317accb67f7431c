"""Generalized repetition codes: constructions, exact distance hierarchies,
bounds, code-table verification, and HARQ decoding simulation.

``geometry``, ``decoding`` and ``codetable`` are imported on first use of
one of their names (PEP 562), so ``import grclib`` compiles none of them."""

import importlib
import sys
import types

from .fields import Field, field_create
from .poly import (
    Poly,
    companion_matrix,
    factor_xn_minus_1,
    is_irreducible,
    kappa,
    poly_gcd,
    poly_mul_mod,
)
from .matrices import Matrix
from .perms import Permutation
from .codes import (
    Block,
    LinearCode,
    WeightDistribution,
    block_weight,
    hamming_weight,
)
from .kernels import DEFAULT_CAP, DimensionCapError
from .grc import (
    DistanceProfile,
    GrcCode,
    TypeI,
    TypeII,
    as_blocked,
    degeneracy_and_regularity,
    distance_profile,
    from_qc_generators,
    grc_from_text,
    grc_to_text,
    type1,
    type1_regular,
    type2,
)
from .bounds import (
    BoundReport,
    check_cyclic_lower_bound,
    check_qc_type2_bounds,
    classify_mds,
    griesmer_g,
    griesmer_gm,
    is_fractional_mds,
    levenshtein_min_channels,
    n_points,
    flat_count,
    qc_type1_sandwich,
    shdh_tradeoff_upper,
    singleton_block,
    singleton_bsymbol,
    type1_length_refinement,
    type1_upper,
)

# modules loaded on first use, and the package names each provides: a
# caller that needs none of them does not pay for compiling them
_LAZY = {
    "geometry": ("expand_projective", "pg_points", "simplex_code", "solomon_stiffler"),
    "decoding": (
        "AwgnBpskHard", "Bsc", "CrcVerifier", "GenieVerifier", "GrcDecoder", "SimConfig",
        "SimResult", "chase_combine", "fer_simulate", "md_decode", "multi_round_decode",
        "transmit",
    ),
    "codetable": (
        "CodeTableEntry", "hex_decode", "hex_encode", "load_table", "search_qc_type2",
        "verify_entry", "verify_table",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    # algebra
    "Field", "field_create",
    "Poly", "poly_gcd", "poly_mul_mod", "factor_xn_minus_1", "kappa",
    "companion_matrix", "is_irreducible",
    "Matrix", "Permutation",
    # codes
    "Block", "LinearCode", "WeightDistribution",
    "block_weight", "hamming_weight", "DEFAULT_CAP", "DimensionCapError",
    # repetition codes
    "GrcCode", "TypeI", "TypeII", "DistanceProfile",
    "type1", "type1_regular", "type2", "from_qc_generators", "as_blocked",
    "distance_profile", "degeneracy_and_regularity",
    "check_cyclic_lower_bound", "check_qc_type2_bounds",
    "grc_to_text", "grc_from_text",
    # bounds and geometry
    "BoundReport", "griesmer_g", "griesmer_gm", "n_points", "flat_count",
    "singleton_block", "singleton_bsymbol", "classify_mds", "is_fractional_mds",
    "type1_length_refinement", "type1_upper", "shdh_tradeoff_upper",
    "qc_type1_sandwich", "levenshtein_min_channels",
    "pg_points", "simplex_code", "expand_projective",
    "solomon_stiffler",
    # decoding and simulation
    "Bsc", "AwgnBpskHard", "GenieVerifier", "CrcVerifier", "transmit",
    "md_decode", "chase_combine", "multi_round_decode", "GrcDecoder",
    "SimConfig", "SimResult", "fer_simulate",
    # code table
    "CodeTableEntry", "load_table", "hex_encode", "hex_decode",
    "verify_entry", "verify_table", "search_qc_type2",
]

__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The package, which binds a lazy module's names when the import system
    binds the module on it, however the module was imported: after
    ``import grclib.decoding``, ``grclib.fer_simulate`` is in the package's
    namespace as an eager import would have put it."""

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        for export in _LAZY.get(name, ()):
            super().__setattr__(export, getattr(value, export))


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


sys.modules[__name__].__class__ = _Package
