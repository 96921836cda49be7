"""Client-side zeroth-order machinery.

Scalar projections from seeded perturbed forwards, gradient reconstruction
from aggregated scalars, and the closed-form second-moment/bias constants
with their empirical checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, prng
from .errors import DimensionMismatchError, NumericalError
from .prng import gaussian_block, gaussian_vector


@dataclass(frozen=True)
class ZoConfig:
    """Perturbation count and smoothing scale for the client estimator."""

    P: int = 5
    mu: float = 1e-3

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be at least 1")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")


def zo_scalars(theta_c: np.ndarray, lam: np.ndarray, z_anchor: np.ndarray, batch,
               seeds, zo: ZoConfig, cfg: model.SplitModelConfig,
               perturb_fn=gaussian_vector) -> tuple:
    """Finite-difference projections along P seeded Gaussian directions.

    v_p = <lam, f_c(theta_c + mu * u_p) - z_anchor> with u_p regenerated
    from seeds[p]. The caller supplies z_anchor = f_c(theta_c); exactly P
    extra forward passes run here and theta_c is never modified. Returns
    the P scalars as floats; a non-finite one raises NumericalError.
    """
    seeds = list(seeds)
    if len(seeds) != zo.P:
        raise DimensionMismatchError(f"expected {zo.P} seeds, got {len(seeds)}")
    theta_c = np.asarray(theta_c, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    z_anchor = np.asarray(z_anchor, dtype=np.float64)
    if lam.shape != z_anchor.shape:
        raise DimensionMismatchError(
            f"lambda {lam.shape} and anchor {z_anchor.shape} disagree"
        )
    # one direction at a time, as a MeZO client holds it: no (P, d_c) block
    z_tilde = np.array([model.client_forward(theta_c + zo.mu * perturb_fn(seed, cfg.d_c),
                                             batch, cfg) for seed in seeds])
    values = np.einsum("nbd,bd->n", z_tilde - z_anchor, lam)
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite scalar projection")
    return tuple(values.tolist())


def reconstruct_gradient(aggregated_scalars, seeds, zo: ZoConfig, d_c: int,
                         perturb_fn=gaussian_vector) -> np.ndarray:
    """Rebuild client update directions for a stack of rounds.

    Takes (n, P) broadcast scalars and n tuples of P seeds; returns (n, d_c)
    with row i = (1 / (P * mu)) * sum_p v_ip * u_ip, scaled once at the end.
    Each row's P terms v_ip * u_ip are added in perturbation order, starting
    from 0.0, and every op is elementwise, so a row has the bits of its round
    rebuilt alone. This exact order is the replay contract: live rounds and
    catch-up replay both go through here. Every direction is fetched through
    perturb_fn, P per row, one perturbation index at a time.
    """
    scalars = np.asarray(aggregated_scalars, dtype=np.float64)
    seeds = list(seeds)
    n = len(seeds)
    if scalars.shape != (n, zo.P) or any(len(row) != zo.P for row in seeds):
        raise DimensionMismatchError(
            f"need ({n}, {zo.P}) scalars and {n} tuples of {zo.P} seeds, "
            f"got {scalars.shape} and {[len(row) for row in seeds]}"
        )
    # perturbation-major, so that each term below is one contiguous (n, d_c) block
    terms = np.array([perturb_fn(row[p], d_c) for p in range(zo.P) for row in seeds])
    terms = terms.reshape(zo.P, n, d_c)
    terms *= scalars.T[:, :, None]
    # 0.0 + term, then in place, one perturbation at a time: np.add.reduce
    # over the P axis sums a lone column (d_c = 1) pairwise once P >= 8,
    # which changes the bits
    acc = terms[0] + 0.0
    for p in range(1, zo.P):
        acc += terms[p]
    acc /= np.float64(zo.P * zo.mu)
    return acc


# -----------------------------------------------------------------------------
# Closed-form constants and empirical diagnostics
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryBounds:
    """Second-moment expansion factor, variance floor, and squared bias bound."""

    c1: float
    sigma_zo_sq: float
    bias_bound_sq: float


def theory_bounds(d_c: int, P: int, mu: float, gamma: float) -> TheoryBounds:
    """Closed-form constants governing the client estimator.

    c1 = 2 * (1 + (d_c + 1) / P)
    sigma_zo_sq = (mu^2 / 2) * d_c * (d_c + 2) * (d_c + 4) * gamma^4
    bias_bound_sq = (mu^2 * gamma^4 / 4) * (d_c + 3)^3
    """
    if d_c <= 0 or P <= 0 or mu <= 0 or gamma <= 0:
        raise ValueError("all inputs must be positive")
    c1 = 2.0 * (1.0 + (d_c + 1) / P)
    sigma_zo_sq = (mu ** 2 / 2.0) * d_c * (d_c + 2) * (d_c + 4) * gamma ** 4
    bias_bound_sq = (mu ** 2 * gamma ** 4 / 4.0) * (d_c + 3) ** 3
    return TheoryBounds(c1, sigma_zo_sq, bias_bound_sq)


def _anchor(theta, batch: model.Batch, cfg: model.SplitModelConfig):
    """(theta_c, z, lambda, g_c) at theta: the client half, its cut activation,
    the server's activation feedback and the exact client gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    theta_c = theta[: cfg.d_c]
    z = model.client_forward(theta_c, batch, cfg)
    _, _, lam = model.server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
    return theta_c, z, lam, model.client_backward_from_lambda(theta_c, batch, lam, cfg)


def measure_regularity_bound(theta: np.ndarray, batch: model.Batch,
                             cfg: model.SplitModelConfig, n_probe: int = 32,
                             step: float = 1e-4, seed: int = 0) -> float:
    """Instance-level regularity constant.

    Max of the feedback norm, the client Jacobian operator norm, and a
    finite-difference probe of the client Hessian operator norm along
    n_probe random unit directions, all probed in one stacked forward.
    """
    theta_c, z, lam, _ = _anchor(theta, batch, cfg)
    lam_norm = float(np.linalg.norm(lam))
    jac = model.client_jacobian(theta_c, batch, cfg).reshape(-1, cfg.d_c)
    jac_norm = float(np.linalg.norm(jac, 2))
    seeds = [prng.derive_stream(seed, prng.STREAM_PROBE, i) for i in range(n_probe)]
    u = gaussian_block(seeds, cfg.d_c)
    # one 1-D norm per row: norm(u, axis=1) sums in another order
    u /= np.array([np.linalg.norm(row) for row in u])[:, None]
    z_pm = model.client_forward(np.concatenate([theta_c + step * u, theta_c - step * u]),
                                batch, cfg)
    hvv = (z_pm[:n_probe] - 2.0 * z + z_pm[n_probe:]) / step ** 2
    hess = max([0.0] + [float(np.linalg.norm(h)) for h in hvv])
    return max(lam_norm, jac_norm, hess)


def _projection_block(theta_c, lam, z_anchor, batch, directions, mu, cfg):
    """v_i = <lam, f_c(theta_c + mu * U_i) - z_anchor> for a stack of directions."""
    z_tilde = model.client_forward(theta_c[None, :] + mu * directions, batch, cfg)
    return np.einsum("nbd,bd->n", z_tilde - z_anchor[None], lam)


# trials whose estimates estimator_diagnostics sums as one block. The chunks
# group its sums, so the reported figures depend on this value.
DIAG_CHUNK = 20000
# trials it draws and projects at once within a chunk: this bounds the
# directions, perturbed stack and activations it holds, and no figure
# depends on it
DIAG_BLOCK = 256


@dataclass(frozen=True)
class EstimatorDiagnostics:
    """Monte Carlo summary of the client estimator on one instance."""

    empirical_bias_sq: float
    empirical_second_moment: float
    true_g_c_norm_sq: float


def estimator_diagnostics(cfg: model.SplitModelConfig, theta: np.ndarray,
                          batch: model.Batch, zo: ZoConfig, n_trials: int,
                          seed: int = 0) -> EstimatorDiagnostics:
    """Monte Carlo over fresh seeds: mean estimate vs the analytic gradient.

    Each trial draws P fresh directions, forms the P-average estimate, and
    contributes to the running mean estimate and mean squared norm. The
    estimates of a chunk are built DIAG_BLOCK trials at a time, each row with
    the bits it has when the whole chunk is projected at once, and then
    summed over the chunk.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    theta_c, z, lam, g_true = _anchor(theta, batch, cfg)

    sum_g = np.zeros(cfg.d_c)
    sum_sq = 0.0
    done = 0
    while done < n_trials:
        n = min(DIAG_CHUNK, n_trials - done)
        g_hat = np.empty((n, cfg.d_c))
        for lo in range(0, n, DIAG_BLOCK):
            hi = min(n, lo + DIAG_BLOCK)
            seeds = [prng.derive_stream(seed, prng.STREAM_DIAG, done + t, p)
                     for t in range(lo, hi) for p in range(zo.P)]
            u = gaussian_block(seeds, cfg.d_c)
            v = _projection_block(theta_c, lam, z, batch, u, zo.mu, cfg)
            g_hat[lo:hi] = np.einsum("np,npd->nd", v.reshape(hi - lo, zo.P),
                                     u.reshape(hi - lo, zo.P, cfg.d_c)) / (zo.P * zo.mu)
        sum_g += g_hat.sum(axis=0)
        sum_sq += float(np.sum(g_hat * g_hat))
        done += n
    mean_g = sum_g / n_trials
    bias = mean_g - g_true
    return EstimatorDiagnostics(
        empirical_bias_sq=float(bias @ bias),
        empirical_second_moment=sum_sq / n_trials,
        true_g_c_norm_sq=float(g_true @ g_true),
    )


def bias_curve(cfg: model.SplitModelConfig, theta: np.ndarray, batch: model.Batch,
               mus, n_pairs: int = 20000, seed: int = 0) -> list:
    """Empirical estimator bias norm at each smoothing scale.

    Uses antithetic direction pairs with common random numbers across scales
    and subtracts the known linear term (standard variance reduction; the
    estimate of E[g_hat] - g_c stays unbiased). Returns one bias norm per mu.
    """
    theta_c, z, lam, g_true = _anchor(theta, batch, cfg)
    seeds = [prng.derive_stream(seed, prng.STREAM_DIAG, i) for i in range(n_pairs)]
    u = gaussian_block(seeds, cfg.d_c)
    lin = u @ g_true
    out = []
    for mu in mus:
        v_plus = _projection_block(theta_c, lam, z, batch, u, mu, cfg)
        v_minus = _projection_block(theta_c, lam, z, batch, -u, mu, cfg)
        resid = v_plus - v_minus - 2.0 * mu * lin
        bias_vec = (resid[:, None] * u).sum(axis=0) / (2.0 * n_pairs * mu)
        out.append(float(np.linalg.norm(bias_vec)))
    return out
