"""chaoscalc: exact Hermite-basis calculus and numerical normality diagnostics
for polynomials in independent Gaussian and general i.i.d. inputs."""

from .algebra import (
    ChaosPoly,
    as_fraction,
    expectation,
    hermite_monomial,
    homogeneous_degree,
    inner_product,
    moment,
    poly_from_json,
    project_chaos,
)
from .decompose import (
    DecompositionStep,
    IterationTrace,
    QuadraticCanonicalForm,
    canonical_quadratic,
    decompose_along,
    iterate_decomposition,
)
from .ensembles import (
    InputLaw,
    MultilinearPoly,
    OrthonormalEnsemble,
    build_ensemble,
    multilinear_influences,
    substitute_gaussian,
)
from .errors import (
    BasisSizeError,
    ChaosCalcError,
    ParseError,
    PreconditionError,
)
from .influence import (
    InfluenceResult,
    StrongestInfluence,
    rho_q,
    strongest_influence,
)
from .malliavin import (
    gamma_gradient,
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
)

__version__ = "0.1.0"
