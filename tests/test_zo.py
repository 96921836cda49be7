"""Zeroth-order estimator: worked values, oracles, and theory-bound checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import model, prng, zo
from splitsim.errors import DimensionMismatchError, NumericalError
from splitsim.model import Batch, SplitModelConfig, client_forward
from splitsim.zo import (
    ZoConfig,
    estimator_diagnostics,
    measure_regularity_bound,
    reconstruct_gradient,
    theory_bounds,
    zo_scalars,
)

from oracles import estimator_diagnostics_reference


def _forced_ones(seed, dim):
    return np.ones(dim)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


LINEAR_1D = SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)


def _reference_scalars(theta_c, lam, z_anchor, batch, seeds, zo_cfg, cfg):
    # one perturbed forward and one einsum per direction, in seed order
    values = []
    for seed in seeds:
        u = prng.gaussian_vector(seed, cfg.d_c)
        z_tilde = client_forward(theta_c + zo_cfg.mu * u, batch, cfg)
        values.append(float(np.einsum("bd,bd->", lam, z_tilde - z_anchor)))
    return tuple(values)


def _reference_reconstruction(scalars, seeds, zo_cfg, d_c):
    # the sequential chain acc = v * u + acc from 0.0, scaled once
    acc = np.zeros(d_c)
    for v, seed in zip(scalars, seeds):
        acc = np.float64(v) * prng.gaussian_vector(seed, d_c) + acc
    return acc / np.float64(zo_cfg.P * zo_cfg.mu)


def _scalar_pattern(rng, p, case):
    # random magnitudes, some zeros and negative zeros, or all of one zero
    v = rng.standard_normal(p) * 10.0 ** rng.integers(-6, 6, p)
    if case == 1:
        v[rng.random(p) < 0.5] = 0.0
        v[rng.random(p) < 0.5] = -0.0
    elif case == 2:
        v[:] = 0.0
    elif case == 3:
        v[:] = -0.0
    return v.tolist()


class TestScalarProjections:
    def test_worked_linear_example(self):
        # z = theta * x with theta=2, x=1; lambda=3, mu=0.1, u=1 -> v = 3 * 0.1 = 0.3
        proj = zo_scalars(np.array([2.0]), np.array([[3.0]]), np.array([[2.0]]),
                          np.array([[1.0]]), [99], ZoConfig(P=1, mu=0.1), LINEAR_1D,
                          perturb_fn=_forced_ones)
        assert proj[0] == pytest.approx(0.3, rel=1e-12)

    def test_zero_feedback_zero_scalars(self):
        rng = _rng(0)
        cfg = SplitModelConfig((3, 4, 2), "tanh", 1)
        theta_c = rng.standard_normal(cfg.d_c)
        x = rng.standard_normal((2, 3))
        z = client_forward(theta_c, x, cfg)
        seeds = [prng.derive_stream(5, p) for p in range(4)]
        proj = zo_scalars(theta_c, np.zeros_like(z), z, x, seeds, ZoConfig(P=4, mu=1e-3), cfg)
        assert proj == (0.0, 0.0, 0.0, 0.0)

    def test_matches_definitional_oracle(self):
        # v_p literally equals lam . f(theta + mu u) - lam . f(theta)
        rng = _rng(1)
        cfg = SplitModelConfig((2, 3, 1), "tanh", 1)
        theta_c = rng.standard_normal(cfg.d_c)
        x = rng.standard_normal((3, 2))
        lam = rng.standard_normal((3, cfg.cut_width))
        z = client_forward(theta_c, x, cfg)
        mu = 1e-2
        seeds = [prng.derive_stream(6, p) for p in range(3)]
        proj = zo_scalars(theta_c, lam, z, x, seeds, ZoConfig(P=3, mu=mu), cfg)
        for p, seed in enumerate(seeds):
            u = prng.gaussian_vector(seed, cfg.d_c)
            direct = float(np.sum(lam * client_forward(theta_c + mu * u, x, cfg))
                           - np.sum(lam * z))
            assert abs(proj[p] - direct) <= 1e-12

    def test_theta_never_mutated(self):
        rng = _rng(2)
        cfg = SplitModelConfig((3, 3, 1), "relu", 1)
        theta_c = rng.standard_normal(cfg.d_c)
        before = theta_c.tobytes()
        x = rng.standard_normal((2, 3))
        z = client_forward(theta_c, x, cfg)
        zo_scalars(theta_c, np.ones_like(z), z, x, [1, 2], ZoConfig(P=2, mu=1e-3), cfg)
        assert theta_c.tobytes() == before

    def test_exactly_p_extra_forwards(self, monkeypatch):
        calls = {"n": 0}
        real = model.client_forward

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "client_forward", counting)
        rng = _rng(3)
        cfg = SplitModelConfig((2, 2, 1), "tanh", 1)
        theta_c = rng.standard_normal(cfg.d_c)
        x = rng.standard_normal((2, 2))
        z = real(theta_c, x, cfg)
        zo_scalars(theta_c, np.ones_like(z), z, x, list(range(7)), ZoConfig(P=7, mu=1e-3), cfg)
        assert calls["n"] == 7

    @pytest.mark.parametrize("cfg", [
        LINEAR_1D,                                                   # d_c = 1
        SplitModelConfig((3, 3, 2), "relu", 1, "squared_error", bias=False),  # d_c = 9
        SplitModelConfig((8, 16, 2), "tanh", 1, "softmax_cross_entropy"),   # d_c = 144
        SplitModelConfig((2, 4, 3, 2), "tanh", 2, "squared_error"),        # two client layers
    ])
    def test_matches_per_direction_reference_bytewise(self, cfg):
        rng = _rng(30 + cfg.d_c)
        for case in range(24):
            p, b = int(rng.integers(1, 10)), int(rng.integers(1, 6))
            theta_c = rng.standard_normal(cfg.d_c)
            x = rng.standard_normal((b, cfg.n_in))
            z = client_forward(theta_c, x, cfg)
            lam = np.array(_scalar_pattern(rng, z.size, case % 4)).reshape(z.shape)
            seeds = [prng.derive_stream(31, case, i) for i in range(p)]
            zcfg = ZoConfig(P=p, mu=float(10.0 ** -rng.integers(1, 5)))
            got = zo_scalars(theta_c, lam, z, x, seeds, zcfg, cfg)
            want = _reference_scalars(theta_c, lam, z, x, seeds, zcfg, cfg)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_non_finite_projection_raises(self):
        with pytest.raises(NumericalError):
            zo_scalars(np.array([2.0]), np.array([[3.0]]), np.array([[2.0]]),
                       np.array([[1.0]]), [99], ZoConfig(P=1, mu=0.1), LINEAR_1D,
                       perturb_fn=lambda seed, dim: np.full(dim, np.inf))

    def test_seed_count_must_match_p(self):
        with pytest.raises(DimensionMismatchError):
            zo_scalars(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)),
                       np.ones((1, 1)), [1, 2], ZoConfig(P=3, mu=1e-3), LINEAR_1D)


class TestWorkingSet:
    def test_zo_scalars_holds_one_direction_at_a_time(self, monkeypatch):
        # a MeZO-style client holds one direction and one perturbed copy
        # beyond theta_c; a (P, d_c) block alone would be 5 x 8 * d_c bytes
        cfg = SplitModelConfig((256, 512, 2), "tanh", 1)
        rng = _rng(3)
        theta_c = rng.standard_normal(cfg.d_c) / 16.0
        x = rng.standard_normal((16, 256))
        z = client_forward(theta_c, x, cfg)
        lam = rng.standard_normal(z.shape)
        seeds = [prng.derive_stream(9, p) for p in range(5)]
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        tracemalloc.start()
        try:
            zo_scalars(theta_c, lam, z, x, seeds, ZoConfig(P=5), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * cfg.d_c


class TestReconstruction:
    def test_zero_scalars_zero_vector(self):
        g = reconstruct_gradient([[0.0, 0.0]], [(1, 2)], ZoConfig(P=2, mu=1e-3), 5)
        assert g.shape == (1, 5)
        assert np.all(g == 0.0)

    def test_worked_example_recovers_true_gradient(self):
        # continues the linear example: v=0.3, u=1, mu=0.1 -> g = 3 = lambda * x
        g = reconstruct_gradient([[0.3]], [(99,)], ZoConfig(P=1, mu=0.1), 1,
                                 perturb_fn=_forced_ones)
        assert g.item() == pytest.approx(3.0, rel=1e-12)

    def test_linearity_doubling(self):
        seeds = [prng.derive_stream(9, p) for p in range(4)]
        v = [0.5, -1.25, 2.0, 0.125]
        cfgz = ZoConfig(P=4, mu=1e-2)
        a = reconstruct_gradient([v], [seeds], cfgz, 6)
        b = reconstruct_gradient([[2 * x for x in v]], [seeds], cfgz, 6)
        assert np.array_equal(2.0 * a, b)

    @pytest.mark.parametrize("d_c", [0, 1, 7, 143, 144])
    def test_matches_axpy_chain_bytewise(self, d_c):
        # P up to 25 covers d_c = 1 with P >= 8, where a pairwise sum of the
        # stacked rows would differ from the sequential chain
        rng = _rng(40 + d_c)
        for case in range(80):
            p = int(rng.integers(1, 26))
            seeds = [prng.derive_stream(41, d_c, case, i) for i in range(p)]
            scalars = _scalar_pattern(rng, p, case % 4)
            zcfg = ZoConfig(P=p, mu=float(10.0 ** -rng.integers(1, 5)))
            got = reconstruct_gradient([scalars], [seeds], zcfg, d_c)
            want = _reference_reconstruction(scalars, seeds, zcfg, d_c)
            assert got.shape == (1, d_c)
            assert got[0].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), p=st.integers(1, 25), d_c=st.sampled_from([0, 1, 2, 7, 33]),
           case=st.integers(0, 3), mu_exp=st.integers(1, 4), data=st.data())
    def test_stacked_rows_match_axpy_chain_bytewise(self, n, p, d_c, case, mu_exp, data):
        rng = _rng(data.draw(st.integers(0, 2 ** 32 - 1), label="rng"))
        seeds = [tuple(data.draw(st.integers(0, 2 ** 64 - 1), label="seed") for _ in range(p))
                 for _ in range(n)]
        scalars = [_scalar_pattern(rng, p, (case + i) % 4) for i in range(n)]
        zcfg = ZoConfig(P=p, mu=10.0 ** -mu_exp)
        got = reconstruct_gradient(scalars, seeds, zcfg, d_c)
        assert got.shape == (n, d_c)
        for row, v, s in zip(got, scalars, seeds):
            assert row.tobytes() == _reference_reconstruction(v, s, zcfg, d_c).tobytes()

    def test_every_direction_fetched_once_per_row(self):
        calls = []

        def counting(seed, dim):
            calls.append(seed)
            return prng.gaussian_vector(seed, dim)

        seeds = [(1, 2, 3), (4, 5, 6)]
        reconstruct_gradient([[0.1, 0.2, 0.3]] * 2, seeds, ZoConfig(P=3, mu=1e-3), 4,
                             perturb_fn=counting)
        assert calls == [1, 4, 2, 5, 3, 6]

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            reconstruct_gradient([[1.0]], [(1, 2)], ZoConfig(P=2, mu=1e-3), 3)
        with pytest.raises(DimensionMismatchError):
            reconstruct_gradient([[1.0, 2.0]], [(1, 2), (3, 4)], ZoConfig(P=2, mu=1e-3), 3)
        with pytest.raises(DimensionMismatchError):
            reconstruct_gradient([[1.0, 2.0]], [(1,)], ZoConfig(P=2, mu=1e-3), 3)

    def test_aggregation_reconstruction_commutes(self):
        # reconstructing from averaged scalars equals averaging reconstructions
        seeds = [prng.derive_stream(10, p) for p in range(3)]
        cfgz = ZoConfig(P=3, mu=1e-3)
        per_client = [[0.3, -0.1, 0.7], [0.2, 0.4, -0.5], [-0.9, 0.0, 0.1]]
        v_bar = [sum(col) / 3 for col in zip(*per_client)]
        direct = reconstruct_gradient([v_bar], [seeds], cfgz, 8)[0]
        averaged = np.mean(reconstruct_gradient(per_client, [seeds] * 3, cfgz, 8), axis=0)
        assert np.abs(direct - averaged).max() < 1e-12


class TestTheoryBounds:
    def test_expansion_factor_value(self):
        assert theory_bounds(3, 2, 1e-3, 1.0).c1 == 6.0

    def test_variance_floor_value(self):
        assert theory_bounds(1, 1, 0.1, 1.0).sigma_zo_sq == pytest.approx(0.075)

    def test_bias_bound_value(self):
        assert theory_bounds(1, 1, 0.1, 1.0).bias_bound_sq == pytest.approx(0.16)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            theory_bounds(0, 1, 0.1, 1.0)


def _shipped_geometry(seed):
    """The shipped model, 8 -> 16 -> 2 tanh (d_c = 144), at random
    parameters, with one batch of 16."""
    rng = _rng(seed)
    cfg = SplitModelConfig((8, 16, 2), "tanh", 1, "softmax_cross_entropy")
    batch = Batch(rng.standard_normal((16, 8)), rng.integers(0, 2, 16))
    return cfg, rng.standard_normal(cfg.d), batch


def _diag_bytes(diag) -> list:
    return [np.float64(v).tobytes() for v in vars(diag).values()]


class TestEstimatorDiagnostics:
    def test_blocks_match_whole_chunk_spelling(self, monkeypatch):
        cfg, theta, batch = _shipped_geometry(12)
        zo_cfg = ZoConfig(P=5, mu=1e-3)
        # chunks of 700, 700 and 600 trials, each ending inside a block
        monkeypatch.setattr(zo, "DIAG_CHUNK", 700)
        got = estimator_diagnostics(cfg, theta, batch, zo_cfg, n_trials=2000, seed=3)
        want = estimator_diagnostics_reference(cfg, theta, batch, zo_cfg, n_trials=2000,
                                               seed=3)
        assert _diag_bytes(got) == _diag_bytes(want)

    def test_blocks_bound_the_working_set(self, monkeypatch):
        # one chunk of 2,000 trials
        cfg, theta, batch = _shipped_geometry(13)
        zo_cfg, n = ZoConfig(P=5, mu=1e-3), 2000
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        tracemalloc.start()
        try:
            got = estimator_diagnostics(cfg, theta, batch, zo_cfg, n_trials=n, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _diag_bytes(got) == _diag_bytes(estimator_diagnostics_reference(
            cfg, theta, batch, zo_cfg, n_trials=n, seed=4))
        # built whole, the chunk's directions and two of its activation
        # arrays alone take 52 MB here
        whole = n * zo_cfg.P * (cfg.d_c + 2 * batch.size * cfg.cut_width) * 8
        assert peak <= whole / 4

    def test_linear_client_unbiased(self):
        # linear client: v = mu u.g exactly, so the estimator mean converges to g
        rng = _rng(5)
        cfg = SplitModelConfig((3, 2, 2), "identity", 1, "squared_error", bias=False)
        theta = rng.standard_normal(cfg.d)
        batch = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        diag = estimator_diagnostics(cfg, theta, batch, ZoConfig(P=1, mu=1e-3),
                                     n_trials=100000, seed=11)
        assert diag.empirical_bias_sq <= 1e-3 * diag.true_g_c_norm_sq

    def test_linear_client_mean_within_one_percent(self):
        # empirical mean over 1e5 fresh seeds lands within 1% of the true gradient
        rng = _rng(21)
        cfg = SplitModelConfig((2, 2, 1), "identity", 1, "squared_error", bias=False)
        theta = rng.standard_normal(cfg.d)
        batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
        diag = estimator_diagnostics(cfg, theta, batch, ZoConfig(P=1, mu=1e-3),
                                     n_trials=100000, seed=77)
        rel = np.sqrt(diag.empirical_bias_sq / diag.true_g_c_norm_sq)
        assert rel < 0.01

    def test_bias_shrinks_quadratically_in_mu(self):
        # curved client: bias norm scales like mu^2, so halving mu cuts
        # the squared bias by about 16x
        rng = _rng(6)
        cfg = SplitModelConfig((2, 3, 1), "tanh", 1, "squared_error", bias=True)
        theta = rng.standard_normal(cfg.d)
        batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
        hi, lo = zo.bias_curve(cfg, theta, batch, [2e-2, 1e-2], n_pairs=30000, seed=12)
        ratio = (hi / lo) ** 2
        assert 12.0 < ratio < 20.0

    def test_bias_log_log_slope_is_two(self):
        rng = _rng(7)
        cfg = SplitModelConfig((2, 3, 1), "tanh", 1, "squared_error", bias=True)
        theta = rng.standard_normal(cfg.d)
        batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
        mus = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        curve = zo.bias_curve(cfg, theta, batch, mus, n_pairs=20000, seed=13)
        slope = np.polyfit(np.log(mus), np.log(curve), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_variance_reduction_in_p(self):
        # total estimator variance shrinks by roughly P when P goes 1 -> 10
        rng = _rng(8)
        cfg = SplitModelConfig((3, 2, 1), "identity", 1, "squared_error", bias=False)
        theta = rng.standard_normal(cfg.d)
        batch = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 1)))
        out = {}
        for P in (1, 10):
            diag = estimator_diagnostics(cfg, theta, batch, ZoConfig(P=P, mu=1e-3),
                                         n_trials=40000, seed=14)
            out[P] = diag.empirical_second_moment - diag.true_g_c_norm_sq
        ratio = out[1] / out[10]
        assert 5.0 <= ratio <= 15.0

    def test_second_moment_within_bound_on_random_instances(self):
        rng = _rng(9)
        hits = 0
        for i in range(20):
            act = ("tanh", "identity", "relu")[i % 3]
            cfg = SplitModelConfig(
                (int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2),
                act, 1, "squared_error", bias=True,
            )
            theta = rng.standard_normal(cfg.d) * 0.7
            batch = Batch(rng.standard_normal((3, cfg.n_in)),
                          rng.standard_normal((3, 2)))
            zcfg = ZoConfig(P=4, mu=1e-3)
            diag = estimator_diagnostics(cfg, theta, batch, zcfg, n_trials=3000,
                                         seed=100 + i)
            gamma = measure_regularity_bound(theta, batch, cfg, seed=i)
            tb = theory_bounds(cfg.d_c, zcfg.P, zcfg.mu, gamma)
            if diag.empirical_second_moment <= tb.c1 * diag.true_g_c_norm_sq + tb.sigma_zo_sq:
                hits += 1
        assert hits >= 19
