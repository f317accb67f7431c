"""Generalized repetition codes: constructions, exact distance hierarchies,
bounds, code-table verification, and HARQ decoding simulation.

Every module is imported on first use of one of its package names
(PEP 562), so ``import grclib`` compiles no submodule and a caller pays
only for the modules it calls."""

import importlib
import sys
import types

# each module and the package names it provides
_EXPORTS = {
    "fields": ("Field", "field_create"),
    "poly": (
        "Poly", "companion_matrix", "factor_xn_minus_1", "is_irreducible", "kappa", "poly_gcd",
        "poly_mul_mod",
    ),
    "matrices": ("Matrix",),
    "perms": ("Permutation",),
    "codes": ("Block", "LinearCode", "WeightDistribution", "block_weight", "hamming_weight"),
    "kernels": ("DEFAULT_CAP", "DimensionCapError"),
    "grc": (
        "DistanceProfile", "GrcCode", "TypeI", "TypeII", "as_blocked",
        "degeneracy_and_regularity", "distance_profile", "from_qc_generators", "grc_from_text",
        "grc_to_text", "type1", "type1_regular", "type2",
    ),
    "bounds": (
        "BoundReport", "check_cyclic_lower_bound", "check_qc_type2_bounds", "classify_mds",
        "flat_count", "griesmer_g", "griesmer_gm", "is_fractional_mds",
        "levenshtein_min_channels", "n_points", "qc_type1_sandwich", "shdh_tradeoff_upper",
        "singleton_block", "singleton_bsymbol", "type1_length_refinement", "type1_upper",
    ),
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The package, which binds a module's names when the import system
    binds the module on it, however the module was imported: after
    ``import grclib.decoding``, the decoding names are in the package's
    namespace as an eager import would have put them."""

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


sys.modules[__name__].__class__ = _Package
