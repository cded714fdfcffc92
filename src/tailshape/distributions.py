"""Source distributions for tail-shape estimation benchmarks.

The GPD density, distribution / survival functions, quantiles and seeded
samplers for the three-parameter generalized Pareto distribution (GPD), the
Pareto Type I distribution, Student's t and the symmetric alpha-stable family.

All samplers draw from an :class:`RngStream`, a reproducible stream keyed by
``(seed, stream_id)``; a fixed key always reproduces the same sample, so one
stream per Monte Carlo replication makes serial and parallel runs agree.

Each sampler is written as its raw draws (uniforms; normals and chi-squares;
uniforms and exponentials) and a transform of them (the GPD or Pareto
quantile, the normal-over-chi-square ratio, Chambers-Mallows-Stuck).  The
replication engine passes the same samplers a private :class:`_StreamBlock`
in place of one stream: it hashes a block of stream keys in one pass, draws
each row's raw variates from its own stream and the sampler transforms the
whole stack at once, so row i is bit for bit the sample that
``RngStream(seed, ids[i])`` gives.  Every stream, one or in a block, is a
PCG64 that NumPy's C code seeds from its key's words of that hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import _is_int

__all__ = [
    "GpdParams",
    "ParetoParams",
    "RngStream",
    "gpd_pdf",
    "gpd_cdf",
    "gpd_sf",
    "gpd_quantile",
    "sample_gpd",
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

    The stream is the PCG64 that ``SeedSequence([seed, stream_id])`` would
    seed, seeded by NumPy from the key words :func:`_stream_keys` hashes, so
    streams with distinct keys are statistically independent and the same key
    reproduces the same draws bit for bit on a given build.  A stream pays the
    hash's whole fixed cost, several times NumPy's SeedSequence (README).  A
    stream owns its generator state; do not share one stream across threads
    without coordination.
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit int, got {value}")
        ids = range(int(self.stream_id), int(self.stream_id) + 1)
        (self.generator,) = _generators(_stream_keys(int(self.seed), ids))

    def draw(self, n: int, draws, *args) -> tuple[np.ndarray, ...]:
        """The raw draws ``draws(generator, n, *args)`` of a sampler."""
        return draws(self.generator, n, *args)


# NumPy's SeedSequence (pool of 4 uint32 words), as in
# numpy/random/bit_generator.pyx: the hash constants and the chain of
# multipliers each hash call advances.
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _chain(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and its ``count`` successors under multiplication by ``mult``
    mod 2^32, as a column of uint32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# hashmix i xors with _HASH_A[i] and multiplies by _HASH_A[i + 1]: 4 calls fill
# the pool, 12 mix it; generate_state does the same with _HASH_B for 8 words
_HASH_A = _chain(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _chain(0x8B51F9DD, 0x58F38DED, 8)


def _shift_xor(v: np.ndarray) -> np.ndarray:
    v ^= v >> np.uint32(16)
    return v


def _stream_keys(seed: int, ids: range) -> np.ndarray:
    """The words ``SeedSequence([seed, id]).generate_state(4, uint64)``
    gives PCG64 for each id, as a C-ordered (len(ids), 4) uint64 array: seed
    high and low, increment high and low.

    SeedSequence turns the key into little-endian uint32 words, one for a
    value below 2^32, else two; seed and id take at most four, so they fill
    the pool of four with zero words after them, and a zero word hashes as
    the padding does.  So the entropy of every id is the seed's words, then
    the id's low and high words, cut to four, whichever ids need two words.
    The hash runs on every id at once in uint32 arithmetic, which wraps as
    SeedSequence's does.
    """
    ids = np.fromiter(ids, dtype=np.uint64, count=len(ids))
    words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    words += [ids & np.uint64(0xFFFFFFFF), ids >> np.uint64(32), 0]
    pool = np.empty((4, ids.size), dtype=np.uint32)
    for row, word in enumerate(words[:4]):
        pool[row] = word
    # hashmix of each entropy word into the pool
    pool ^= _HASH_A[:4]
    pool *= _HASH_A[1:5]
    _shift_xor(pool)
    # every pool word mixed into every other: the source word is not written
    # while it is mixed into the other three, so those three hash at once
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = pool[src] ^ _HASH_A[4 + 3 * src : 7 + 3 * src]
        hashed *= _HASH_A[5 + 3 * src : 8 + 3 * src]
        pool[dst] = _shift_xor(_MIX_L * pool[dst] - _MIX_R * _shift_xor(hashed))
    # generate_state(4, uint64): 8 words cycling over the pool, paired low-high
    state = np.concatenate([pool, pool]) ^ _HASH_B[:8]
    state *= _HASH_B[1:]
    state = _shift_xor(state).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


class _StreamKey:
    """The seed sequence of one stream: it gives PCG64 the stream's row of
    :func:`_stream_keys`, a C-contiguous (4,) uint64 array whose buffer PCG64
    reads.  It is registered as NumPy's ``ISeedSequence`` at the first draw,
    as subclassing it here would load ``numpy.random`` on import."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=None) -> np.ndarray:
        return self.words


def _generators(keys: np.ndarray):
    """The generator of each stream whose key words are a row of ``keys``."""
    np.random.bit_generator.ISeedSequence.register(_StreamKey)
    for words in keys:
        yield np.random.Generator(np.random.PCG64(_StreamKey(words)))


@dataclass(frozen=True, eq=False)
class _StreamBlock:
    """The streams ``(seed, r)`` for a block of ids r, keyed at once.

    Row i draws exactly what ``RngStream(seed, ids[i])`` draws: :meth:`keyed`
    hashes every row's key words in one pass, and each row is drawn from a
    PCG64 seeded from its words.
    """

    keys: np.ndarray  # (rows, 4) words of _stream_keys

    @classmethod
    def keyed(cls, seed: int, ids: range) -> "_StreamBlock":
        return cls(_stream_keys(seed, ids))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, rows: slice) -> "_StreamBlock":
        """The streams of rows ``rows`` of the block."""
        return _StreamBlock(self.keys[rows])

    def draw(self, n: int, draws, *args) -> tuple[np.ndarray, ...]:
        """Per raw draw of the sampler ``draws(generator, n, *args)``, the
        (rows, n) stack of it, row i drawn from the block's stream i."""
        rows = [draws(generator, n, *args) for generator in _generators(self.keys)]
        if len(rows) == 1:  # a view: long samples are drawn one row at a time
            return tuple(raw[None] for raw in rows[0])
        return tuple(np.stack(raws) for raws in zip(*rows))


def _check_count(n: int) -> int:
    if not _is_int(n) or n < 1:
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
    return 1.0 - gpd_sf(params, x)


def _gpd_quantile(params: GpdParams, p: np.ndarray) -> np.ndarray:
    return params.mu + (params.sigma / params.xi) * ((1.0 - p) ** (-params.xi) - 1.0)


def gpd_quantile(params: GpdParams, prob):
    """Inverse of the GPD distribution function for prob in [0, 1)."""
    return _maybe_scalar(_gpd_quantile(params, _probs(prob)), prob)


def _uniform(g: np.random.Generator, n: int) -> tuple[np.ndarray]:
    return (g.random(n),)


def sample_gpd(params: GpdParams, n: int, rng: RngStream) -> np.ndarray:
    """Draw n GPD variates by inverse CDF applied to uniforms from ``rng``."""
    return _gpd_quantile(params, *rng.draw(_check_count(n), _uniform))


def pareto_sf(params: ParetoParams, z):
    """Pareto survival function (z/mu)**(-alpha) for z >= mu."""
    arr = _points(z, params.mu, "z")
    out = (arr / params.mu) ** (-params.alpha)
    return _maybe_scalar(out, z)


def pareto_cdf(params: ParetoParams, z):
    """Pareto distribution function, the complement of :func:`pareto_sf`."""
    return 1.0 - pareto_sf(params, z)


def _pareto_quantile(params: ParetoParams, p: np.ndarray) -> np.ndarray:
    return params.mu * (1.0 - p) ** (-1.0 / params.alpha)


def pareto_quantile(params: ParetoParams, prob):
    """Inverse of the Pareto distribution function: mu * (1 - p)**(-1/alpha)."""
    return _maybe_scalar(_pareto_quantile(params, _probs(prob)), prob)


def sample_pareto(params: ParetoParams, n: int, rng: RngStream) -> np.ndarray:
    """Draw n Pareto variates by inverse CDF applied to uniforms from ``rng``."""
    return _pareto_quantile(params, *rng.draw(_check_count(n), _uniform))


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
    z, w = rng.draw(_check_count(n), lambda g, n: (g.standard_normal(n), g.chisquare(df, n)))
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
    u, w = rng.draw(_check_count(n), lambda g, n: (g.random(n), g.standard_exponential(n)))
    phi = np.pi * (u - 0.5)
    return (
        np.sin(index * phi)
        / np.cos(phi) ** (1.0 / index)
        * (np.cos((index - 1.0) * phi) / w) ** ((1.0 - index) / index)
    )
