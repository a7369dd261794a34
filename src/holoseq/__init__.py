"""holoseq: a laboratory for holonomic (P-recursive) sequences.

Exact closure operations on annihilating operators, recurrence guessing
from term data, singularity classification of linear ODEs, Abelian
transfer of sequence asymptotics, high-precision alternating binomial
sums, prime-sequence asymptotics, and the witness experiments tying them
together.
"""

__version__ = "0.1.0"

from .kernel import Poly, RatFun, nullspace, poly_arith, rational_roots
from .annihilators import (
    DiffOp,
    LeadingCoefficientZero,
    Recurrence,
    SequenceStream,
    apply,
    ode_to_rec,
    rec_to_ode,
    singular_points,
    unroll,
)
from .closure import (
    DegenerateSubstitution,
    binomial_diff_seq,
    binomial_transform_op,
    closure_hadamard,
    closure_sum,
    substitute_rational,
)
from .guess import GuessResult, InsufficientTerms, guess_exact, guess_float
from .hpeval import (
    BigReal,
    PoleAtNonpositiveInteger,
    PrecisionExhausted,
    binomial_diff_eval,
    gamma,
    harmonic,
    lambert_w,
    log_seq,
    power_diff_eval,
)
from .singclass import (
    NonRationalPoint,
    SingularPointReport,
    classify_point,
    forbidden_asymptotics_check,
    indicial_polynomial,
    newton_polygon,
)
from .abelian import AlphaNegative, AsymptoticScale, SingularElement, transfer, verify_transfer
from .primes import CapExceeded, cipolla_residual, li, li_series, nth_prime, prime_pi, sieve
from .witness import WitnessReport, witness_log, witness_misc, witness_powers, witness_primes

__all__ = [
    "Poly", "RatFun", "nullspace", "poly_arith", "rational_roots",
    "Recurrence", "DiffOp", "SequenceStream", "LeadingCoefficientZero",
    "unroll", "apply", "rec_to_ode", "ode_to_rec", "singular_points",
    "closure_sum", "closure_hadamard", "binomial_diff_seq",
    "binomial_transform_op", "substitute_rational", "DegenerateSubstitution",
    "guess_exact", "guess_float", "GuessResult", "InsufficientTerms",
    "BigReal", "PrecisionExhausted", "PoleAtNonpositiveInteger",
    "binomial_diff_eval", "power_diff_eval", "log_seq", "gamma", "lambert_w", "harmonic",
    "classify_point", "indicial_polynomial", "newton_polygon",
    "forbidden_asymptotics_check", "SingularPointReport", "NonRationalPoint",
    "AsymptoticScale", "SingularElement", "transfer", "verify_transfer",
    "AlphaNegative",
    "sieve", "nth_prime", "prime_pi", "li", "li_series", "cipolla_residual",
    "CapExceeded",
    "witness_log", "witness_powers", "witness_primes", "witness_misc",
    "WitnessReport",
]
