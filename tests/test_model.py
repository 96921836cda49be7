"""Split network forward/backward against hand values and finite differences."""

import numpy as np
import pytest

from splitsim import model
from splitsim.errors import DimensionMismatchError, NumericalError
from splitsim.model import (
    Batch,
    SplitModelConfig,
    client_forward,
    client_jacobian,
    init_params,
    server_forward_backward,
    server_loss,
)

from oracles import analytic_client_gradient, full_loss

FD_STEP = 1e-5


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _random_instance(seed, activation="tanh", loss="squared_error"):
    rng = _rng(seed)
    dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4)))
    cfg = SplitModelConfig(dims, activation, 1, loss, bias=bool(rng.integers(0, 2)))
    theta = rng.standard_normal(cfg.d) * 0.6
    x = rng.standard_normal((4, cfg.n_in))
    if loss == "squared_error":
        labels = rng.standard_normal((4, cfg.n_out))
    else:
        labels = rng.integers(0, cfg.n_out, size=4)
    return cfg, theta, Batch(x, labels)


def _fd_gradient(theta, batch, cfg, idx):
    grad = np.zeros(len(idx))
    for j, i in enumerate(idx):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += FD_STEP
        tm[i] -= FD_STEP
        grad[j] = (full_loss(tp, batch, cfg) - full_loss(tm, batch, cfg)) / (2 * FD_STEP)
    return grad


class TestHandExamples:
    def test_identity_client_scales_input(self):
        cfg = SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        z = client_forward(np.array([2.0]), np.array([[3.0]]), cfg)
        assert z.item() == 6.0

    def test_zero_parameters_zero_activation(self):
        for act in ("identity", "tanh", "relu"):
            cfg = SplitModelConfig((3, 4, 1), act, 1, "squared_error", bias=False)
            z = client_forward(np.zeros(cfg.d_c), np.ones((2, 3)), cfg)
            assert np.all(z == 0.0)

    def test_server_identity_passthrough_at_fit(self):
        cfg = SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        loss, g_s, lam = server_forward_backward(
            np.array([1.0]), np.array([[1.5]]), np.array([[1.5]]), cfg
        )
        assert loss == 0.0
        assert np.all(lam == 0.0) and np.all(g_s == 0.0)

    def test_server_linear_hand_gradient(self):
        # server w=1 no bias, z=2, y=1: loss=(2-1)^2=1, lambda=2(yh-y)w=2, g_s=2(yh-y)z=4
        cfg = SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        loss, g_s, lam = server_forward_backward(
            np.array([1.0]), np.array([[2.0]]), np.array([[1.0]]), cfg
        )
        assert loss == 1.0
        assert lam.item() == 2.0
        assert g_s.item() == 4.0

    def test_full_loss_equals_composition(self):
        cfg, theta, batch = _random_instance(0)
        z = client_forward(theta[: cfg.d_c], batch, cfg)
        assert full_loss(theta, batch, cfg) == server_loss(theta[cfg.d_c:], z, batch.labels, cfg)

    def test_perfect_fit_zero_loss(self):
        cfg, theta, batch = _random_instance(1)
        z = client_forward(theta[: cfg.d_c], batch, cfg)
        _, hs, _ = model._server_forward_cached(theta[cfg.d_c:], z, cfg)
        fitted = Batch(batch.inputs, hs[-1])
        assert full_loss(theta, fitted, cfg) == 0.0

    def test_stationary_point_zero_client_gradient(self):
        cfg = SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        theta = np.array([2.0, 1.0])
        batch = Batch(np.array([[3.0]]), np.array([[6.0]]))  # yhat = 6 = y
        g = analytic_client_gradient(theta, batch, cfg)
        assert np.all(g == 0.0)


class TestOracleSecondImplementation:
    def test_client_forward_matches_direct_matrix_products(self):
        rng = _rng(7)
        cfg = SplitModelConfig((3, 5, 4, 2), "tanh", 2, "squared_error", bias=True)
        theta_c = rng.standard_normal(cfg.d_c)
        x = rng.standard_normal((6, 3))
        # independent unpack: walk the flat layout by hand
        o = 0
        w1 = theta_c[o:o + 15].reshape(3, 5); o += 15
        b1 = theta_c[o:o + 5]; o += 5
        w2 = theta_c[o:o + 20].reshape(5, 4); o += 20
        b2 = theta_c[o:o + 4]
        expected = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2)
        got = client_forward(theta_c, x, cfg)
        assert np.abs(got - expected).max() <= 1e-12

    def test_full_loss_matches_direct_evaluation(self):
        rng = _rng(8)
        cfg = SplitModelConfig((2, 3, 2), "identity", 1, "squared_error", bias=False)
        theta = rng.standard_normal(cfg.d)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        w1 = theta[:6].reshape(2, 3)
        w2 = theta[6:].reshape(3, 2)
        yh = x @ w1 @ w2
        expected = np.sum((yh - y) ** 2) / 5
        assert abs(full_loss(theta, Batch(x, y), cfg) - expected) <= 1e-12

    def test_multi_forward_matches_single(self):
        cfg, theta, batch = _random_instance(9)
        deep = SplitModelConfig((3, 4, 5, 2), "tanh", 2, "squared_error")
        for cfg, x in [(cfg, batch), (deep, _rng(11).standard_normal((6, 3)))]:
            thetas = _rng(10).standard_normal((8, cfg.d_c))
            stacked = client_forward(thetas, x, cfg)
            for i in range(8):
                single = client_forward(thetas[i], x, cfg)
                assert stacked[i].tobytes() == single.tobytes()


class TestGradientChecks:
    @pytest.mark.parametrize("seed", range(20))
    def test_both_gradients_match_finite_differences(self, seed):
        act = ("tanh", "identity")[seed % 2]
        loss = ("squared_error", "softmax_cross_entropy")[seed % 3 == 0]
        cfg, theta, batch = _random_instance(100 + seed, act, loss)
        assert cfg.d <= 50
        g_c = analytic_client_gradient(theta, batch, cfg)
        z = client_forward(theta[: cfg.d_c], batch, cfg)
        _, g_s, _ = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
        fd_c = _fd_gradient(theta, batch, cfg, range(cfg.d_c))
        fd_s = _fd_gradient(theta, batch, cfg, range(cfg.d_c, cfg.d))
        assert np.abs(g_c - fd_c).max() < 1e-6
        assert np.abs(g_s - fd_s).max() < 1e-6

    @pytest.mark.parametrize("loss", ["squared_error", "softmax_cross_entropy"])
    @pytest.mark.parametrize("act", ["tanh", "identity", "relu"])
    @pytest.mark.parametrize("dims,cut", [((3, 4, 5, 2), 1), ((3, 4, 5, 2), 2),
                                          ((2, 4, 3, 3, 2), 1), ((2, 4, 3, 3, 2), 3)],
                             ids=["3-4-5-2_cut1", "3-4-5-2_cut2", "2-4-3-3-2_cut1",
                                  "2-4-3-3-2_cut3"])
    def test_deep_split_gradients_match_finite_differences(self, dims, cut, act, loss):
        # both halves may hold several layers, so the activation derivative
        # is applied between layers on each side of the cut
        for seed in range(50):
            rng = _rng(300 + seed)
            cfg = SplitModelConfig(dims, act, cut, loss, bias=bool(seed % 2))
            theta = rng.standard_normal(cfg.d) * 0.6
            x = rng.standard_normal((4, cfg.n_in))
            labels = (rng.standard_normal((4, cfg.n_out)) if loss == "squared_error"
                      else rng.integers(0, cfg.n_out, size=4))
            batch = Batch(x, labels)
            _, c_hs, c_pres = model._client_forward_cached(theta[: cfg.d_c], batch, cfg)
            z = c_hs[-1]
            _, _, s_pres = model._server_forward_cached(theta[cfg.d_c:], z, cfg)
            kinks = [np.abs(p).min() for p in c_pres + s_pres[:-1]]
            if act != "relu" or min(kinks) > 1e-3:
                break
        else:
            pytest.fail("no relu instance away from kinks")
        g_c = analytic_client_gradient(theta, batch, cfg)
        _, g_s, lam = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
        assert np.abs(g_c - _fd_gradient(theta, batch, cfg, range(cfg.d_c))).max() < 1e-6
        assert np.abs(g_s - _fd_gradient(theta, batch, cfg, range(cfg.d_c, cfg.d))).max() < 1e-6
        jac = client_jacobian(theta[: cfg.d_c], batch, cfg)
        assert np.abs(np.einsum("bdk,bd->k", jac, lam) - g_c).max() < 1e-10

    def test_relu_gradient_away_from_kinks(self):
        rng = _rng(55)
        cfg = SplitModelConfig((3, 4, 2), "relu", 1, "squared_error", bias=True)
        for _ in range(20):
            theta = rng.standard_normal(cfg.d)
            batch = Batch(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
            pre = batch.inputs @ theta[:12].reshape(3, 4) + theta[12:16]
            if np.abs(pre).min() < 1e-3:
                continue
            g_c = analytic_client_gradient(theta, batch, cfg)
            fd_c = _fd_gradient(theta, batch, cfg, range(cfg.d_c))
            assert np.abs(g_c - fd_c).max() < 1e-6

    def test_lambda_matches_finite_differences_in_z(self):
        cfg, theta, batch = _random_instance(33)
        z = client_forward(theta[: cfg.d_c], batch, cfg)
        _, _, lam = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
        fd = np.zeros_like(z)
        for b in range(z.shape[0]):
            for k in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[b, k] += FD_STEP
                zm[b, k] -= FD_STEP
                fd[b, k] = (server_loss(theta[cfg.d_c:], zp, batch.labels, cfg)
                            - server_loss(theta[cfg.d_c:], zm, batch.labels, cfg)) / (2 * FD_STEP)
        assert np.abs(lam - fd).max() < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_rule_consistency(self, seed):
        # analytic client gradient equals the Jacobian-feedback product
        cfg, theta, batch = _random_instance(200 + seed)
        z = client_forward(theta[: cfg.d_c], batch, cfg)
        _, _, lam = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
        jac = client_jacobian(theta[: cfg.d_c], batch, cfg)
        via_jacobian = np.einsum("bdk,bd->k", jac, lam)
        g_c = analytic_client_gradient(theta, batch, cfg)
        assert np.abs(via_jacobian - g_c).max() < 1e-10

    def test_linear_client_gradient_is_jacobian_transpose_lambda(self):
        rng = _rng(77)
        cfg = SplitModelConfig((3, 2, 2), "identity", 1, "squared_error", bias=False)
        theta = rng.standard_normal(cfg.d)
        batch = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        z = client_forward(theta[: cfg.d_c], batch, cfg)
        _, _, lam = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
        # explicit Jacobian of z[b, j] = sum_i x[b, i] W[i, j] w.r.t. vec(W)
        w_grad = np.zeros(cfg.d_c)
        for i in range(3):
            for j in range(2):
                w_grad[i * 2 + j] = np.sum(batch.inputs[:, i] * lam[:, j])
        g_c = analytic_client_gradient(theta, batch, cfg)
        assert np.abs(w_grad - g_c).max() <= 1e-12


class TestErrorsAndDeterminism:
    def test_wrong_theta_length(self):
        cfg = SplitModelConfig((2, 2, 1), "tanh", 1)
        with pytest.raises(DimensionMismatchError):
            client_forward(np.zeros(3), np.ones((1, 2)), cfg)

    def test_wrong_input_width(self):
        cfg = SplitModelConfig((2, 2, 1), "tanh", 1)
        with pytest.raises(DimensionMismatchError):
            client_forward(np.zeros(cfg.d_c), np.ones((1, 5)), cfg)

    def test_non_finite_activation_names_layer(self):
        cfg = SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        with pytest.raises(NumericalError, match="server layer 1"):
            server_forward_backward(np.array([1.0]), np.array([[np.inf]]),
                                    np.array([[0.0]]), cfg)

    @pytest.mark.parametrize("call", [server_loss, server_forward_backward])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 16), (4, 15), (3, 4, 17), (16,)])
    def test_server_passes_reject_activation_shape(self, call, shape):
        # a 4-D stack or a wrong cut width, in either pass
        cfg = SplitModelConfig((8, 16, 2), "tanh", 1, "softmax_cross_entropy")
        labels = np.zeros(shape[:-1], dtype=np.int64)
        with pytest.raises(DimensionMismatchError, match="activation has shape"):
            call(np.zeros(cfg.d_s), np.ones(shape), labels, cfg)

    @pytest.mark.parametrize("shape", [(4, 3), (5, 2), (2,), (3, 4, 3), (3, 5, 2)])
    def test_feedback_with_wrong_trailing_shape(self, shape):
        # leading axes are free; the trailing axes must be the forward's (4, 2)
        cfg = SplitModelConfig((3, 2, 2), "tanh", 1)
        with pytest.raises(DimensionMismatchError, match="lambda has shape"):
            model.client_backward_from_lambda(np.zeros(cfg.d_c), np.ones((4, 3)),
                                              np.ones(shape), cfg)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 2), (2, 4, 2)])
    def test_backward_rejects_activation_of_other_shape(self, shape):
        # handed activations must be the (4, 2) the inputs' forward gives
        cfg = SplitModelConfig((3, 2, 2), "tanh", 1)
        with pytest.raises(DimensionMismatchError, match="activation has shape"):
            model.client_backward_from_lambda(np.zeros(cfg.d_c), np.ones((4, 3)),
                                              np.ones((4, 2)), cfg, np.ones(shape))

    def test_cut_index_validation(self):
        with pytest.raises(ValueError):
            SplitModelConfig((2, 2, 1), "tanh", 0)
        with pytest.raises(ValueError):
            SplitModelConfig((2, 2, 1), "tanh", 2)

    @pytest.mark.parametrize("dims", [(8, 16.9, 2), (8, True, 2)])
    def test_layer_widths_never_truncated(self, dims):
        with pytest.raises(ValueError, match="layer widths must be integers"):
            SplitModelConfig(dims)

    def test_integral_layer_widths_become_ints(self):
        cfg = SplitModelConfig((8, 16.0, np.int64(2)))
        assert cfg.layer_dims == (8, 16, 2)
        assert all(type(d) is int for d in cfg.layer_dims)

    def test_deterministic_outputs(self):
        cfg, theta, batch = _random_instance(4)
        a = analytic_client_gradient(theta, batch, cfg)
        b = analytic_client_gradient(theta, batch, cfg)
        assert a.tobytes() == b.tobytes()

    def test_init_params_deterministic(self):
        cfg = SplitModelConfig((4, 3, 2), "tanh", 1)
        assert init_params(cfg, 5).tobytes() == init_params(cfg, 5).tobytes()
        assert init_params(cfg, 5).tobytes() != init_params(cfg, 6).tobytes()

    def test_softmax_stable_at_huge_logits(self):
        cfg = SplitModelConfig((1, 1, 2), "identity", 1, "softmax_cross_entropy", bias=False)
        theta_s = np.array([500.0, -500.0])
        loss = server_loss(theta_s, np.array([[2.0]]), np.array([0]), cfg)
        assert np.isfinite(loss)

    def test_evaluate_model_accuracy(self):
        cfg = SplitModelConfig((2, 2, 2), "identity", 1, "softmax_cross_entropy", bias=False)
        theta = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
        batch = Batch(np.array([[5.0, 0.0], [0.0, 5.0]]), np.array([0, 1]))
        _, acc = model.evaluate_model(theta, batch, cfg)
        assert acc == 1.0
