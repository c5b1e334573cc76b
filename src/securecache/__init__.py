"""Secure coded caching schemes as explicit linear codes, machine-checked.

The package builds the achievable schemes as matrices over small prime
fields, decides correctness and security by exact rank identities,
cross-checks those ranks against a brute-force entropy oracle, and
computes exact memory-rate tradeoff curves with converse bounds.
"""

from .constructions import (
    ShareSystem,
    assign_coefficients,
    build_scheme,
    build_shares,
)
from .entropy_oracle import (
    EnumerationCapError,
    OracleInvariantError,
    VariableRef,
    brute_entropy,
    check_rank_agreement,
    check_secret_sharing,
)
from .ff_linalg import (
    FieldMatrix,
    is_prime,
    rank,
    smallest_prime_at_least,
    stack,
)
from .scheme_model import (
    DemandVector,
    LinearScheme,
    Rational,
    VariableLayout,
    demands_iter,
    memory_of,
    randomness_of,
    worst_case_rate,
)
from .tradeoff import (
    ConverseConstraint,
    EnvelopeCurve,
    TradeoffDataset,
    TradeoffPoint,
    achievable_points,
    converse_constraints,
    emit_curves,
    lower_convex_envelope,
    prior_work_points,
    rate_lower_bound,
)
from .verifier import (
    CheckRecord,
    NotDecodableError,
    PreconditionError,
    SimulationResult,
    VerificationReport,
    check_lemma1_lemma2,
    check_lemma3_lemma4,
    decode,
    observed_matrix,
    simulate,
    verify_all,
)
