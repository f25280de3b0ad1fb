"""chaoscalc: exact Hermite-basis calculus and numerical normality diagnostics
for polynomials in independent Gaussian and general i.i.d. inputs."""

from .algebra import (
    ChaosPoly,
    MultiIndex,
    add,
    as_fraction,
    compose_hermite,
    evaluate,
    expectation,
    fresh_variables,
    gaussian,
    hermite_monomial,
    homogeneous_degree,
    inner_product,
    moment,
    mul,
    partial_derivative,
    poly_from_json,
    poly_to_json,
    project_chaos,
)
from .decompose import (
    DecompositionStep,
    IterationTrace,
    QuadraticCanonicalForm,
    canonical_quadratic,
    decompose_along,
    decompose_along_w1,
    iterate_decomposition,
    rotate_basis,
)
from .ensembles import (
    InputLaw,
    MultilinearPoly,
    OrthonormalEnsemble,
    TruncationResult,
    build_ensemble,
    multilinear_influences,
    substitute_gaussian,
    truncate_by_influence,
)
from .errors import (
    BasisSizeError,
    ChaosCalcError,
    MissingVariableError,
    ParseError,
    PreconditionError,
)
from .influence import (
    InfluenceResult,
    StrongestInfluence,
    rho_1,
    rho_q,
    strongest_influence,
)
from .malliavin import (
    IdentityReport,
    check_algebraic_identity,
    check_ipp,
    check_spectral_inequality,
    gamma_gradient,
    independence_score,
    ou_generator,
)
from .montecarlo import (
    GAUSSIAN_REFERENCE_STREAM,
    NormalityReport,
    SampleSet,
    excess_kurtosis,
    invariance_gap,
    normality_report,
    read_sample_file,
    sample,
    var_gamma,
    w2_1d,
    write_sample_file,
)

__version__ = "0.1.0"
