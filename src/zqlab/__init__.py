"""Pseudorandom subsets of Z_q.

Constructions of residue sets (quadratic and power residues, primitive
roots, index and value ranges, character-argument sets, Fermat-quotient
sets), derived symbol sequences, exact correlation measures of the
balanced indicator, and closed-form count predictions with a
verification harness.
"""

# Set before the submodules load: reports read it at import time.
__version__ = "0.1.0"

from .errors import (
    BadWindowError,
    BudgetExceededError,
    ConfigError,
    ConstantPolynomialError,
    DegenerateDensityError,
    DegreeTooSmallError,
    EmptyGridError,
    EmptyPolynomialError,
    Error,
    InvalidParameterError,
    NotDivisorError,
    NotPrimeError,
    NotSquarefreeError,
    OrderTooLargeError,
    OutOfRangeError,
    PatternTooLongError,
    RangeTooLongError,
    TooFewElementsError,
    TooLargeError,
    UnknownKindError,
)
from .harness import (
    AnalysisSpec,
    BudgetSpec,
    DerivationSpec,
    ExperimentConfig,
    VerificationReport,
    config_hash,
    estimate_cost,
    run,
    sweep,
)
from .measures import (
    DEFAULT_BUDGET,
    CorrelationResult,
    SignVector,
    correlation_exact,
    correlation_oracle,
    correlation_sampled,
    correlation_up_to,
    pattern_counts,
    sign_pattern_count,
    symbol_counts,
)
from .numtheory import (
    Factorization,
    IndexTable,
    MultiplicativeCharacter,
    build_index_table,
    euler_phi,
    factorize,
    fermat_quotient,
    find_primitive_root,
    is_prime,
    legendre_symbol,
)
from .predictions import (
    BalanceThreshold,
    CardinalityPrediction,
    DeviationBudget,
    characteristic_pattern_main_term,
    gap_mod_pattern_main_term,
    gap_mod_symbol_main_term,
    gap_threshold_balance_point,
    gap_threshold_pattern_main_term,
    gap_threshold_symbol_main_term,
    predicted_cardinality,
    sign_pattern_main_term,
)
from .sequences import (
    DerivedSequence,
    derive_characteristic,
    derive_gap_mod,
    derive_gap_threshold,
)
from .subsets import (
    ConstructionSpec,
    ResidueSet,
    character_argument_set,
    construct,
    explicit_set,
    fermat_quotient_power_residue_set,
    fermat_quotient_primitive_root_set,
    index_range_set,
    inverse_range_set,
    poly_value_range_set,
    power_residue_set,
    primitive_root_power_set,
    primitive_root_set,
    quadratic_residue_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
