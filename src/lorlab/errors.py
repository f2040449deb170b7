"""Exception types shared across the package."""


class LorlabError(Exception):
    """Base class for all library errors."""


class DomainExceeded(LorlabError):
    """A time coordinate left the open interval where the profile is defined."""


class InvalidProfile(LorlabError):
    """Profile violates the term grammar or its declared positivity floor."""


class NotCausal(LorlabError):
    """Operation requires a causal (timelike or null) tangent vector."""


class NotChronological(LorlabError):
    """Operation requires a chronologically related pair p << q."""


class NotReducible(LorlabError):
    """Flat-time reduction requires the spatial coefficient b to be identically 1."""


class NotAChain(LorlabError):
    """Index sequence is not increasing with respect to the causal relation."""


class StepTooLarge(LorlabError):
    """Conserved-quantity drift exceeded the certification threshold."""


class ShootingFailed(LorlabError):
    """Kappa shooting found no endpoint-x sign change or did not converge."""


class RegionOutsideDomain(LorlabError):
    """Sampling rectangle is not strictly contained in the profile domain."""


class TooLarge(LorlabError):
    """Point count exceeds the exhaustive-check budget."""


class PremiseViolated(LorlabError):
    """A supplied probe sequence fails its own premises; the probe is malformed."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class QuadratureError(LorlabError):
    """Panel refinement or bracketing did not converge."""


class Inextendible(LorlabError):
    """Geodesic leaves the domain before the requested affine parameter.

    Carries the boundary-limit certificate describing how far the geodesic
    can be extended.
    """

    def __init__(self, certificate):
        super().__init__(
            "geodesic inextendible: affine parameter bound "
            f"{certificate.max_param!r}"
        )
        self.certificate = certificate
