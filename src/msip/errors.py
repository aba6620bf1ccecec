"""Error taxonomy shared across the library.

Every failure mode that callers are expected to branch on gets its own
exception type; message text carries the offending indices where the
contract promises them.
"""


class MsipError(Exception):
    """Base class for all library errors."""


class ConfigError(MsipError):
    """Invalid or inconsistent run configuration (path-qualified message)."""


class SingularGramError(MsipError):
    """Cholesky factorization failed (Gram matrix not positive definite)."""

    def __init__(self, message, index_pair=None):
        super().__init__(message)
        self.index_pair = index_pair


class DegenerateWeightError(MsipError):
    """Some optimal weight underflowed the representable range.

    ``particles`` lists the offending particle indices; callers decide the
    policy (the runner freezes them for the iteration).
    """

    def __init__(self, particles):
        particles = list(particles)
        super().__init__(
            "degenerate weight (|w| < weight floor) for particle(s) "
            f"{particles}"
        )
        self.particles = particles


class DivergedRunError(MsipError):
    """A particle update produced a non-finite coordinate."""


class EstimatorUnavailableError(MsipError):
    """The chosen estimator needs target features that are missing."""


class AnalyticUnavailableError(MsipError):
    """Exact kernel embeddings requested for a target without them."""


class NonFiniteDensityError(MsipError):
    """Target log-density returned a non-finite value at a probe point."""

    def __init__(self, particles):
        particles = list(particles)
        super().__init__(
            f"non-finite log-density at probe point(s) of particle(s) "
            f"{particles}"
        )
        self.particles = particles


class NonNormalizableError(MsipError):
    """Weight vector sums to (numerically) zero; cannot renormalize."""


class DegenerateConsensusError(MsipError):
    """All consensus weights vanished (every log-density is -inf)."""


class UnsupportedDimensionError(MsipError):
    """Operation defined only for a specific dimension (e.g. 2-D plots)."""
