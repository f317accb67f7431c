"""Generalized repetition codes: constructions, exact distance hierarchies,
bounds, code-table verification, and HARQ decoding simulation."""

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
from .geometry import (
    expand_projective,
    pg_points,
    simplex_code,
    solomon_stiffler,
)
from .decoding import (
    AwgnBpskHard,
    Bsc,
    CrcVerifier,
    GenieVerifier,
    GrcDecoder,
    SimConfig,
    SimResult,
    chase_combine,
    fer_simulate,
    md_decode,
    multi_round_decode,
    transmit,
)
from .codetable import (
    CodeTableEntry,
    hex_decode,
    hex_encode,
    load_table,
    search_qc_type2,
    verify_entry,
    verify_table,
)

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
