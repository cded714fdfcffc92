"""Source distributions for tail-shape estimation benchmarks.

Densities, distribution / survival functions, quantiles and seeded samplers
for the three-parameter generalized Pareto distribution (GPD), the Pareto
Type I distribution, Student's t and the symmetric alpha-stable family.

All samplers draw from an :class:`RngStream`, a reproducible stream keyed by
``(seed, stream_id)``; a fixed key always reproduces the same sample, so one
stream per Monte Carlo replication makes serial and parallel runs agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GpdParams",
    "ParetoParams",
    "RngStream",
    "gpd_pdf",
    "gpd_cdf",
    "gpd_sf",
    "gpd_quantile",
    "sample_gpd",
    "pareto_pdf",
    "pareto_cdf",
    "pareto_sf",
    "pareto_quantile",
    "sample_pareto",
    "sample_student_t",
    "sample_symmetric_stable",
]

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class GpdParams:
    """Parameters of the heavy-tailed generalized Pareto distribution.

    ``mu`` is the location (lower support bound), ``sigma > 0`` the scale and
    ``xi > 0`` the shape.  The short-tailed branch ``xi <= 0`` is out of scope
    and rejected.  The tail index of the distribution is ``alpha = 1/xi``.
    """

    mu: float
    sigma: float
    xi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive real, got {self.sigma}")
        if not (math.isfinite(self.xi) and self.xi > 0):
            raise ValueError(
                f"xi must be a positive real (xi <= 0 unsupported), got {self.xi}"
            )

    @property
    def alpha(self) -> float:
        """Tail index 1/xi."""
        return 1.0 / self.xi


@dataclass(frozen=True)
class ParetoParams:
    """Pareto Type I parameters: scale ``mu > 0`` and tail index ``alpha > 0``."""

    mu: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be a positive real, got {self.mu}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a positive real, got {self.alpha}")

    @classmethod
    def from_gpd(cls, params: GpdParams) -> "ParetoParams":
        """Pareto parameters sharing support and tail index with ``params``."""
        return cls(mu=params.mu, alpha=1.0 / params.xi)


@dataclass
class RngStream:
    """Reproducible random stream keyed by ``(seed, stream_id)``.

    Streams with distinct keys are statistically independent (PCG64 seeded
    through a ``SeedSequence`` over both ids), and the same key reproduces the
    same draws bit for bit on a given build.  A stream owns its generator
    state; do not share one stream across threads without coordination.
    """

    seed: int
    stream_id: int = 0
    _generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit int, got {value}")
        seq = np.random.SeedSequence([int(self.seed), int(self.stream_id)])
        self._generator = np.random.Generator(np.random.PCG64(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator


def _check_count(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    return int(n)


def _points(x, lower: float, label: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < lower):
        raise ValueError(f"{label} below the support lower bound {lower}")
    return arr


def _probs(prob) -> np.ndarray:
    arr = np.asarray(prob, dtype=float)
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise ValueError("probabilities must lie in [0, 1)")
    return arr


def _maybe_scalar(out: np.ndarray, template) -> np.ndarray | float:
    return float(out) if np.ndim(template) == 0 else out


def gpd_pdf(params: GpdParams, x):
    """GPD density (1/sigma) * (1 + (xi/sigma)(x - mu))**(-1 - 1/xi) for x >= mu."""
    arr = _points(x, params.mu, "x")
    t = 1.0 + (params.xi / params.sigma) * (arr - params.mu)
    out = t ** (-1.0 - 1.0 / params.xi) / params.sigma
    return _maybe_scalar(out, x)


def gpd_sf(params: GpdParams, x):
    """GPD survival function (1 + (xi/sigma)(x - mu))**(-1/xi) for x >= mu."""
    arr = _points(x, params.mu, "x")
    t = 1.0 + (params.xi / params.sigma) * (arr - params.mu)
    out = t ** (-1.0 / params.xi)
    return _maybe_scalar(out, x)


def gpd_cdf(params: GpdParams, x):
    """GPD distribution function, the complement of :func:`gpd_sf`."""
    arr = _points(x, params.mu, "x")
    t = 1.0 + (params.xi / params.sigma) * (arr - params.mu)
    out = 1.0 - t ** (-1.0 / params.xi)
    return _maybe_scalar(out, x)


def gpd_quantile(params: GpdParams, prob):
    """Inverse of the GPD distribution function for prob in [0, 1)."""
    p = _probs(prob)
    out = params.mu + (params.sigma / params.xi) * ((1.0 - p) ** (-params.xi) - 1.0)
    return _maybe_scalar(out, prob)


def sample_gpd(params: GpdParams, n: int, rng: RngStream) -> np.ndarray:
    """Draw n GPD variates by inverse CDF applied to uniforms from ``rng``."""
    n = _check_count(n)
    u = rng.generator.random(n)
    return np.asarray(gpd_quantile(params, u))


def pareto_pdf(params: ParetoParams, z):
    """Pareto density alpha * mu**alpha / z**(alpha + 1) for z >= mu."""
    arr = _points(z, params.mu, "z")
    out = params.alpha * params.mu**params.alpha / arr ** (params.alpha + 1.0)
    return _maybe_scalar(out, z)


def pareto_sf(params: ParetoParams, z):
    """Pareto survival function (z/mu)**(-alpha) for z >= mu."""
    arr = _points(z, params.mu, "z")
    out = (arr / params.mu) ** (-params.alpha)
    return _maybe_scalar(out, z)


def pareto_cdf(params: ParetoParams, z):
    """Pareto distribution function, the complement of :func:`pareto_sf`."""
    arr = _points(z, params.mu, "z")
    out = 1.0 - (arr / params.mu) ** (-params.alpha)
    return _maybe_scalar(out, z)


def pareto_quantile(params: ParetoParams, prob):
    """Inverse of the Pareto distribution function: mu * (1 - p)**(-1/alpha)."""
    p = _probs(prob)
    out = params.mu * (1.0 - p) ** (-1.0 / params.alpha)
    return _maybe_scalar(out, prob)


def sample_pareto(params: ParetoParams, n: int, rng: RngStream) -> np.ndarray:
    """Draw n Pareto variates by inverse CDF applied to uniforms from ``rng``."""
    n = _check_count(n)
    u = rng.generator.random(n)
    return np.asarray(pareto_quantile(params, u))


def _check_df(df: float) -> None:
    if not (math.isfinite(df) and df > 0):
        raise ValueError(f"df must be a positive real, got {df}")


def _check_index(index: float) -> None:
    if not (math.isfinite(index) and 0 < index <= 2):
        raise ValueError(f"stability index must lie in (0, 2], got {index}")


def sample_student_t(df: float, n: int, rng: RngStream) -> np.ndarray:
    """Draw n standard Student's t variates with ``df`` degrees of freedom.

    Generated as standard normal over sqrt(chi-square(df)/df).  For tail
    purposes the implied GPD shape of threshold excesses is 1/df.
    """
    _check_df(df)
    n = _check_count(n)
    g = rng.generator
    z = g.standard_normal(n)
    w = g.chisquare(df, n)
    return z / np.sqrt(w / df)


def sample_symmetric_stable(index: float, n: int, rng: RngStream) -> np.ndarray:
    """Draw n standard symmetric alpha-stable variates with stability ``index``.

    Uses the Chambers-Mallows-Stuck construction with skewness zero:
    with Phi uniform on (-pi/2, pi/2) and W standard exponential,

        X = sin(index * Phi) / cos(Phi)**(1/index)
            * (cos((index - 1) * Phi) / W)**((1 - index)/index).

    The formula is continuous in the symmetric case, so index = 1 yields
    tan(Phi) (standard Cauchy) and index = 2 yields N(0, 2).
    """
    _check_index(index)
    n = _check_count(n)
    g = rng.generator
    phi = np.pi * (g.random(n) - 0.5)
    w = g.standard_exponential(n)
    return (
        np.sin(index * phi)
        / np.cos(phi) ** (1.0 / index)
        * (np.cos((index - 1.0) * phi) / w) ** ((1.0 - index) / index)
    )
