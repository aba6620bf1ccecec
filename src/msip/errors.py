"""Error taxonomy shared across the library.

Every failure mode that callers are expected to branch on gets its own
exception type; message text carries the offending indices where the
contract promises them.
"""


def _at(iteration):
    """The message suffix naming the iteration of a run's failure."""
    return "" if iteration is None else f" at iteration {iteration}"


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

    ``particles`` lists the offending particle indices and ``iteration``
    the iteration of the step (None outside a run); callers decide the
    policy (the runner freezes them for the iteration).
    """

    def __init__(self, particles, iteration=None):
        particles = list(particles)
        super().__init__(
            "degenerate weight (|w| < weight floor) for particle(s) "
            f"{particles}{_at(iteration)}"
        )
        self.particles = particles
        self.iteration = iteration


class DivergedRunError(MsipError):
    """A particle update produced a non-finite coordinate."""


class EstimatorUnavailableError(MsipError):
    """The chosen estimator needs target features that are missing."""


class AnalyticUnavailableError(MsipError):
    """Exact kernel embeddings requested for a target without them."""


class NonFiniteDensityError(MsipError):
    """Target log-density returned a non-finite value at a probe point.

    ``particles`` lists the particles whose probe points it was, and
    ``iteration`` the iteration of the step (None outside a run).
    """

    def __init__(self, particles, iteration=None):
        particles = list(particles)
        super().__init__(
            f"non-finite log-density at probe point(s) of particle(s) "
            f"{particles}{_at(iteration)}"
        )
        self.particles = particles
        self.iteration = iteration


class NonNormalizableError(MsipError):
    """Weight vector sums to (numerically) zero; cannot renormalize."""


class DegenerateConsensusError(MsipError):
    """All consensus weights vanished (every log-density is -inf)."""


class UnsupportedDimensionError(MsipError):
    """Operation defined only for a specific dimension (e.g. 2-D plots)."""
