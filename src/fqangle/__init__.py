"""Scalar-invariant Hamming angle over finite fields.

The angle between nonzero vectors u, v over GF(q) is the minimum Hamming
distance from u to the nonzero scalar multiples of v.  It satisfies the
metric axioms up to scalar equivalence, descends to an integer-valued
metric on projective space, and admits a single-pass algorithm.  On top
of it this package provides linear/Reed-Solomon code machinery, an
angular unique decoder, and exhaustive verification suites.
"""

from .angle import (
    ProjectivePoint,
    RatioCensus,
    angle_fast,
    angle_fast_rows,
    angle_naive,
    angle_naive_rows,
    argmin_scalar,
    build_census,
    is_max_angle,
    projective_distance,
    projectivize,
)
from .codes import (
    DecodeKind,
    DecodeOutcome,
    LinearCode,
    angle_to_code,
    angular_decode,
    decode_rows,
    dist_to_code,
    make_code,
    make_repetition_code,
    make_rs_code,
    min_distance,
    projective_list_decode,
)
from .errors import (
    CompositeP,
    DivisionByZero,
    DuplicatePoints,
    EnumerationTooLarge,
    FieldMismatch,
    FieldTooLarge,
    FqAngleError,
    InvalidInput,
    LengthMismatch,
    RankDeficient,
    SuiteTooLarge,
    TooManyPoints,
    UniqueDecodingViolated,
    ZeroVector,
)
from .experiments import (
    BenchRecord,
    SuiteReport,
    angle_vs_dist_census,
    bench_angle,
    verify_angular_decoding,
    verify_metric_axioms,
    verify_oracle_equivalence,
    verify_projective_descent,
)
from .gf import Field, field_from_order, make_field
from .vectors import (
    Vector,
    agreement,
    dot,
    format_vector,
    hamming_distance,
    hamming_weight,
    parse_vector,
    scalar_mul,
)

__version__ = "0.1.0"
