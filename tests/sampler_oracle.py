"""Test-only copy of the 1-D samplers as they were before sampling had one
path: each sample drawn from a PCG64 keyed through NumPy's ``SeedSequence``
and transformed by its own copy of the sampler's formula.  The tests compare
the package's stacked rows and public samplers against it bit for bit."""

from types import SimpleNamespace

import numpy as np

from tailshape import GpdParetoSource, GpdSource, StableSource, StudentTSource


def stream(seed, stream_id):
    """A stand-in for ``RngStream(seed, stream_id)``, keyed by SeedSequence."""
    seq = np.random.SeedSequence([int(seed), int(stream_id)])
    return SimpleNamespace(generator=np.random.Generator(np.random.PCG64(seq)))


def sample_gpd(params, n, rng):
    u = rng.generator.random(n)
    return params.mu + (params.sigma / params.xi) * ((1.0 - u) ** (-params.xi) - 1.0)


def sample_pareto(params, n, rng):
    u = rng.generator.random(n)
    return params.mu * (1.0 - u) ** (-1.0 / params.alpha)


def sample_student_t(df, n, rng):
    z, w = rng.generator.standard_normal(n), rng.generator.chisquare(df, n)
    return z / np.sqrt(w / df)


def sample_symmetric_stable(index, n, rng):
    u, w = rng.generator.random(n), rng.generator.standard_exponential(n)
    phi = np.pi * (u - 0.5)
    return (
        np.sin(index * phi)
        / np.cos(phi) ** (1.0 / index)
        * (np.cos((index - 1.0) * phi) / w) ** ((1.0 - index) / index)
    )


def sample(source, n, rng):
    """A source's sample of ``n`` drawn from ``rng``: the copies above for the
    package's sources, and a test source's own ``sample`` method."""
    if isinstance(source, (GpdSource, GpdParetoSource)):
        return sample_gpd(source.params, n, rng)
    if isinstance(source, StudentTSource):
        return sample_student_t(source.df, n, rng)
    if isinstance(source, StableSource):
        return sample_symmetric_stable(source.index, n, rng)
    return source.sample(n, rng)
