"""Weighted quadrature rules for unnormalized target densities.

The central construction is a damped mean-shift iteration on an
interacting particle system whose fixed points minimize a regularized
squared maximum mean discrepancy; the resulting particles carry signed
quadrature weights. SVGD and consensus-based sampling baselines, exact
and sample-based evaluation metrics, and a config-driven experiment
harness share the same particle/weight conventions.
"""

from .baselines import (
    CbsParams,
    SvgdParams,
    cbs_step,
    median_bandwidth,
    run_cbs,
    run_svgd,
    svgd_step,
)
from .dynamics import (
    WEIGHT_FLOOR,
    MsipParams,
    ParticleConfiguration,
    iterate,
    msip_step,
    objective,
    objective_gradient,
    run_msip,
)
from .embeddings import (
    EmbeddingEstimate,
    estimate_embeddings,
    mc_inner_quadrature,
    one_point_rule,
)
from .errors import (
    AnalyticUnavailableError,
    ConfigError,
    DegenerateConsensusError,
    DegenerateWeightError,
    DivergedRunError,
    EstimatorUnavailableError,
    MsipError,
    NonFiniteDensityError,
    NonNormalizableError,
    SingularGramError,
    UnsupportedDimensionError,
)
from .harness import (
    RunConfig,
    TrialResult,
    emit_csv,
    emit_scatter_svg,
    parse_config,
    run_experiment,
    serialize_config,
    summarize,
    write_outputs,
)
from .kernel import KernelSpec, gram, log_omega, omega, se_kernel
from .metrics import (
    MetricsReport,
    Mmd,
    ksd,
    ksd2,
    mode_coverage,
    normalize_weights,
    weighted_loglik,
)
from .targets import (
    BENCHMARK_NAMES,
    GmmTarget,
    TargetDensity,
    from_gmm,
    gmm_c_pi,
    gmm_v0,
    gmm_v0_and_shift,
    make_benchmark,
    reference_samples,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
