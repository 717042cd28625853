"""Input-function samplers and low-discrepancy point sets.

Gaussian random fields (RBF kernel, Cholesky factor), degree-3
polynomials, bi-trigonometric 2-d sources, range rescaling, and the
Hammersley sequence. Every sampler is a pure function of (spec, seeds)
and draws an (n, m) block, row i from seeds[i] alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SamplingError(RuntimeError):
    """Sampler could not produce a valid draw."""


@dataclass(frozen=True)
class GrfSpec:
    """RBF-kernel Gaussian random field: cov = variance*exp(-dx^2/(2 l^2)).

    jitter is the starting diagonal regularization for the Cholesky
    factorization; it escalates through the powers of ten up to 1e-6
    before giving up.
    """

    length_scale: float
    variance: float = 1.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.length_scale <= 0:
            raise ValueError("length_scale must be positive")
        if not self.variance > 0:
            raise ValueError("variance must be positive")
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


def _chol_with_escalation(kernel, jitter):
    """Cholesky of kernel + jitter I, climbing the exact powers of ten
    1e-14 ... 1e-6 above jitter on failure. The 1e-14 floor keeps rank-one
    kernels (the fully correlated limit) constant to ~1e-7."""
    eye = np.eye(kernel.shape[0])
    powers = (10.0 ** k for k in range(-14, -5))
    for current in [jitter, *(p for p in powers if p > jitter)]:
        try:
            return np.linalg.cholesky(kernel + current * eye), current
        except np.linalg.LinAlgError:
            pass
    raise SamplingError(f"Cholesky failed even with jitter {current:g}")


def grf_block(spec: GrfSpec, sensor_xs, seeds):
    """One field per seed, as the rows of an (n, m) block: row i is L z
    with K = L L^T and z ~ N(0, I) drawn from seeds[i], the kernel
    factored once for the block. Returns (block, meta)."""
    xs = np.asarray(sensor_xs, dtype=np.float64)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sensors must be sorted strictly increasing")
    kernel = rbf_kernel(xs, spec.length_scale, spec.variance)
    chol, used_jitter = _chol_with_escalation(kernel, spec.jitter)
    rows = [chol @ np.random.default_rng(seed).standard_normal(len(xs))
            for seed in seeds]
    return np.array(rows), {"length_scale": spec.length_scale,
                            "variance": spec.variance, "jitter": used_jitter}


def poly3_block(coeff_range, sensor_xs, seeds):
    """Rows f(x) = c0 + c1 x + c2 x^2 + c3 x^3, one per seed, with the
    coefficients uniform in coeff_range. Returns (block, meta), with
    meta["coeffs"] of shape (n, 4)."""
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if hi < lo:
        raise ValueError("coeff_range must satisfy lo <= hi")
    xs = np.asarray(sensor_xs, dtype=np.float64)
    coeffs = np.array([np.random.default_rng(seed).uniform(lo, hi, size=4)
                       for seed in seeds])
    c0, c1, c2, c3 = (coeffs[:, k, None] for k in range(4))
    return c0 + c1 * xs + c2 * xs ** 2 + c3 * xs ** 3, {"coeffs": coeffs}


def bitrig_values(coeffs, points):
    """Evaluate sum_rs c_rs sin(r pi x) sin(s pi y) at (n, 2) points for
    each (R, S) coefficient set of a (k, R, S) stack; returns (k, n)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    _, r_modes, s_modes = coeffs.shape
    sx = np.sin(np.outer(pts[:, 0], np.pi * np.arange(1, r_modes + 1)))
    sy = np.sin(np.outer(pts[:, 1], np.pi * np.arange(1, s_modes + 1)))
    return np.array([np.einsum("rs,ir,is->i", c, sx, sy) for c in coeffs])


def bitrig_block(modes: int, grid_2d, seeds):
    """Standard-normal coefficients on a modes x modes sine basis, one
    set per seed. Returns (block over the 2-d grid, meta); meta["coeffs"]
    (n, R, S) is what the analytic Poisson oracle consumes."""
    if modes < 1:
        raise ValueError("mode counts must be >= 1")
    coeffs = np.array([np.random.default_rng(seed).standard_normal(
        (modes, modes)) for seed in seeds])
    return bitrig_values(coeffs, grid_2d), {"r_modes": modes, "s_modes": modes,
                                            "coeffs": coeffs}


def rescale_rows(values, lo: float, hi: float) -> np.ndarray:
    """Affine map sending each row's (min, max) to (lo, hi).

    Constant rows map to the interval midpoint rather than dividing by
    zero.
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    values = np.asarray(values, dtype=np.float64)
    vmin = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - vmin
    out = lo + (values - vmin) * (hi - lo) / np.where(span == 0, 1.0, span)
    out[span[:, 0] == 0] = 0.5 * (lo + hi)
    return out


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


def hammersley_interior(n: int, dim: int) -> np.ndarray:
    """The (n+1)-point Hammersley set {(i/(n+1), phi2(i))}, phi2 the
    base-2 radical inverse, without its corner point i = 0 (in 1-d just
    {i/(n+1)}); returned in index order.

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

