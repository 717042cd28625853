"""Input-function samplers and low-discrepancy point sets.

Gaussian random fields (RBF kernel, Cholesky factor), degree-3
polynomials, bi-trigonometric 2-d sources, range rescaling, and the
Hammersley sequence. Every sampler is a pure function of (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class SamplingError(RuntimeError):
    """Sampler could not produce a valid draw."""


@dataclass(frozen=True)
class GrfSpec:
    """RBF-kernel Gaussian random field: cov = variance*exp(-dx^2/(2 l^2)).

    jitter is the starting diagonal regularization for the Cholesky
    factorization; it escalates tenfold up to 1e-6 before giving up.
    """

    length_scale: float
    variance: float = 1.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.length_scale <= 0:
            raise ValueError("length_scale must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")


@dataclass
class FunctionSample:
    """An input function discretized on sensors, with provenance."""

    sensor_xs: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sensor_xs = np.asarray(self.sensor_xs, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.sensor_xs) != len(self.values):
            raise ValueError("sensor_xs and values must have equal length")
        if self.sensor_xs.ndim == 1:
            if np.any(np.diff(self.sensor_xs) <= 0):
                raise ValueError("sensor_xs must be strictly increasing")
            if self.sensor_xs[0] < 0.0 or self.sensor_xs[-1] > 1.0:
                raise ValueError("sensors must lie in [0, 1]")


def rbf_kernel(xs, length_scale, variance=1.0):
    xs = np.asarray(xs, dtype=np.float64)
    d2 = (xs[:, None] - xs[None, :]) ** 2
    return variance * np.exp(-d2 / (2.0 * length_scale ** 2))


# Escalation floor is small enough that numerically rank-one kernels (the
# fully correlated limit) stay constant to ~1e-7 after factorization.
_JITTER_CAP = 1e-6
_JITTER_FLOOR = 1e-14


def _chol_with_escalation(kernel, jitter):
    m = kernel.shape[0]
    current = jitter
    while True:
        try:
            return np.linalg.cholesky(kernel + current * np.eye(m)), current
        except np.linalg.LinAlgError:
            if current >= _JITTER_CAP:
                raise SamplingError(
                    f"Cholesky failed even with jitter {current:g}") from None
            current = _JITTER_FLOOR if current == 0.0 else current * 10.0


def sample_grf(spec: GrfSpec, sensor_xs, seed: int) -> FunctionSample:
    """Draw one field: values = L z with K = L L^T and z ~ N(0, I)."""
    xs = np.asarray(sensor_xs, dtype=np.float64)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sensors must be sorted strictly increasing")
    kernel = rbf_kernel(xs, spec.length_scale, spec.variance)
    chol, used_jitter = _chol_with_escalation(kernel, spec.jitter)
    z = np.random.default_rng(seed).standard_normal(len(xs))
    return FunctionSample(xs, chol @ z, meta={
        "kind": "grf", "seed": seed, "length_scale": spec.length_scale,
        "variance": spec.variance, "jitter": used_jitter,
    })


def sample_polynomial_deg3(coeff_range, sensor_xs, seed: int) -> FunctionSample:
    """f(x) = c0 + c1 x + c2 x^2 + c3 x^3, coefficients uniform in coeff_range."""
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if hi < lo:
        raise ValueError("coeff_range must satisfy lo <= hi")
    xs = np.asarray(sensor_xs, dtype=np.float64)
    coeffs = np.random.default_rng(seed).uniform(lo, hi, size=4)
    values = coeffs[0] + coeffs[1] * xs + coeffs[2] * xs ** 2 + coeffs[3] * xs ** 3
    return FunctionSample(xs, values, meta={
        "kind": "poly3", "seed": seed, "coeffs": coeffs,
    })


def bitrig_values(coeffs, points):
    """Evaluate sum_rs c_rs sin(r pi x) sin(s pi y) at (n, 2) points."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    r_modes, s_modes = coeffs.shape
    sx = np.sin(np.outer(pts[:, 0], np.pi * np.arange(1, r_modes + 1)))
    sy = np.sin(np.outer(pts[:, 1], np.pi * np.arange(1, s_modes + 1)))
    return np.einsum("rs,ir,is->i", coeffs, sx, sy)


def sample_bitrig(r_modes: int, s_modes: int, grid_2d, seed: int):
    """Standard-normal coefficients on a sine x sine basis.

    Returns (coeffs (R, S), FunctionSample over the 2-d grid); the
    coefficients are what the analytic Poisson oracle consumes.
    """
    if r_modes < 1 or s_modes < 1:
        raise ValueError("mode counts must be >= 1")
    coeffs = np.random.default_rng(seed).standard_normal((r_modes, s_modes))
    grid = np.asarray(grid_2d, dtype=np.float64)
    sample = FunctionSample(grid, bitrig_values(coeffs, grid), meta={
        "kind": "bitrig", "seed": seed, "r_modes": r_modes, "s_modes": s_modes,
    })
    return coeffs, sample


def rescale_to_range(sample: FunctionSample, lo: float, hi: float) -> FunctionSample:
    """Affine map sending (min, max) of values to (lo, hi).

    Constant inputs map to the interval midpoint rather than dividing by
    zero.
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    vmin, vmax = sample.values.min(), sample.values.max()
    if vmax == vmin:
        values = np.full_like(sample.values, 0.5 * (lo + hi))
    else:
        values = lo + (sample.values - vmin) * (hi - lo) / (vmax - vmin)
    meta = dict(sample.meta)
    meta["rescaled_to"] = (lo, hi)
    return FunctionSample(sample.sensor_xs, values, meta)


def van_der_corput_base2(n: int) -> np.ndarray:
    """Base-2 radical inverse of indices 0..n-1 (mirror the bits about
    the binary point). Every partial sum is a dyadic rational with at most
    53 significant bits, so the result is exact."""
    k = np.arange(n, dtype=np.int64)
    out = np.zeros(n)
    weight = 0.5
    while k.any():
        out += (k & 1) * weight
        k >>= 1
        weight *= 0.5
    return out


def hammersley(n: int, dim: int) -> np.ndarray:
    """Canonical Hammersley set in [0, 1)^dim.

    dim 1: {i/n}; dim 2: {(i/n, phi2(i))} with phi2 the base-2 radical
    inverse. Deterministic; returned in index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim == 1:
        return (np.arange(n) / n)[:, None]
    if dim == 2:
        return np.column_stack([np.arange(n) / n, van_der_corput_base2(n)])
    raise ValueError(f"unsupported dimension {dim}")


def hammersley_interior(n: int, dim: int) -> np.ndarray:
    """Hammersley points shifted to indices 1..n over denominator n+1.

    Every point is strictly inside (0, 1)^dim, which collocation layouts
    require.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(1, n + 1)
    first = idx / (n + 1)
    if dim == 1:
        return first[:, None]
    if dim == 2:
        return np.column_stack([first, van_der_corput_base2(n + 1)[1:]])
    raise ValueError(f"unsupported dimension {dim}")


def star_discrepancy_2d(points: np.ndarray) -> float:
    """Star discrepancy of a 2-d point set over corner-anchored boxes.

    Evaluates the local discrepancy at every box [0,u)x[0,v) with corners
    drawn from the point coordinates and 1, using both open and closed
    counts to bracket the supremum. Exact enough to compare set sizes.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    us = np.unique(np.concatenate([pts[:, 0], [1.0]]))
    vs = np.unique(np.concatenate([pts[:, 1], [1.0]]))
    worst = 0.0
    for u in us:
        in_x_open = pts[:, 0] < u
        in_x_closed = pts[:, 0] <= u
        for v in vs:
            vol = u * v
            open_count = np.count_nonzero(in_x_open & (pts[:, 1] < v))
            closed_count = np.count_nonzero(in_x_closed & (pts[:, 1] <= v))
            worst = max(worst, abs(open_count / n - vol),
                        abs(closed_count / n - vol))
    return worst
