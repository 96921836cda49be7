"""Acceptance suite: one test per criterion, one printed verdict line each.

Configurations are frozen; every run of this module is deterministic, so a
green criterion stays green. Each test prints its verdict before asserting
so failures still report their measurements.
"""

import time

import numpy as np

import splitsim.model as m
from splitsim import cli, prng, runner, zo
from splitsim.config import parse_config
from splitsim.latency import DeviceProfile, NetworkProfile, WorkloadProfile, round_timeline
from splitsim.model import Batch, SplitModelConfig
from splitsim.protocol import ClientState, HyperParams, ServerState, Simulation, client_sync, run_round
from splitsim.traffic import MessageKind, TrafficLedger
from splitsim.zo import ZoConfig, estimator_diagnostics, measure_regularity_bound, theory_bounds


def _verdict(num, ok, detail, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status}  {detail}  ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _random_small_model(seed, activation):
    rng = _rng(seed)
    dims = (int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4)))
    cfg = SplitModelConfig(dims, activation, 1, "squared_error", bias=bool(rng.integers(0, 2)))
    theta = rng.standard_normal(cfg.d) * 0.6
    batch = Batch(rng.standard_normal((3, cfg.n_in)), rng.standard_normal((3, cfg.n_out)))
    return cfg, theta, batch


def test_criterion_1_estimator_oracle_equivalence():
    """Mean reconstructed gradient matches the analytic one on 20 small models."""
    t0 = time.time()
    failures = []
    for i in range(10):  # linear clients: 2% relative tolerance
        cfg, theta, batch = _random_small_model(500 + i, "identity")
        assert cfg.d <= 50
        diag = estimator_diagnostics(cfg, theta, batch, ZoConfig(P=1, mu=1e-3),
                                     n_trials=100000, seed=i)
        rel = np.sqrt(diag.empirical_bias_sq / diag.true_g_c_norm_sq)
        if rel >= 0.02:
            failures.append(f"linear#{i} rel={rel:.4f}")
    for i in range(10):  # curved clients: the closed-form bias bound with measured gamma
        cfg, theta, batch = _random_small_model(600 + i, "tanh")
        assert cfg.d <= 50
        mu = 1e-2
        diag = estimator_diagnostics(cfg, theta, batch, ZoConfig(P=1, mu=mu),
                                     n_trials=100000, seed=100 + i)
        gamma = measure_regularity_bound(theta, batch, cfg, seed=i)
        bound = theory_bounds(cfg.d_c, 1, mu, gamma).bias_bound_sq
        if diag.empirical_bias_sq > bound:
            failures.append(f"tanh#{i} bias_sq={diag.empirical_bias_sq:.2e} bound={bound:.2e}")
    _verdict(1, not failures, f"20 models, failures: {failures or 'none'}", t0, 120)


def test_criterion_2_bias_scaling_law():
    """log bias vs log mu has slope 2 +- 0.2 on a fixed curved client."""
    t0 = time.time()
    rng = _rng(7)
    cfg = SplitModelConfig((2, 3, 1), "tanh", 1, "squared_error", bias=True)
    theta = rng.standard_normal(cfg.d)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    mus = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    curve = zo.bias_curve(cfg, theta, batch, mus, n_pairs=20000, seed=13)
    slope = float(np.polyfit(np.log(mus), np.log(curve), 1)[0])
    _verdict(2, abs(slope - 2.0) <= 0.2, f"slope={slope:.3f}", t0, 60)


def test_criterion_3_second_moment_bound():
    """E||g_hat||^2 within the closed-form bound on >=95 of 100 instances."""
    t0 = time.time()
    rng = _rng(9)
    hits = 0
    for i in range(100):
        act = ("tanh", "identity", "relu")[i % 3]
        cfg = SplitModelConfig(
            (int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2),
            act, 1, "squared_error", bias=True,
        )
        theta = rng.standard_normal(cfg.d) * 0.7
        batch = Batch(rng.standard_normal((3, cfg.n_in)), rng.standard_normal((3, 2)))
        zcfg = ZoConfig(P=4, mu=1e-3)
        diag = estimator_diagnostics(cfg, theta, batch, zcfg, n_trials=3000, seed=200 + i)
        gamma = measure_regularity_bound(theta, batch, cfg, seed=i)
        tb = theory_bounds(cfg.d_c, zcfg.P, zcfg.mu, gamma)
        if diag.empirical_second_moment <= tb.c1 * diag.true_g_c_norm_sq + tb.sigma_zo_sq:
            hits += 1
    _verdict(3, hits >= 95, f"bound held on {hits}/100 instances", t0, 120)

CATCHUP_CONFIG = """
protocol: hosfl
root_seed: 0
model: {layer_dims: [6, 4, 2], activation: tanh, cut_index: 1, loss: softmax_cross_entropy}
hp: {eta: 0.05, M: 6, K: 2, batch_size: 4, zo: {P: 2, mu: 1.0e-3}}
partition: {mode: iid}
data: {n: 240, separation: 2.5}
sample_budget: 1600
"""


def test_criterion_4_catchup_bit_exactness():
    """Stragglers replayed through history end bitwise equal to the shadow."""
    t0 = time.time()
    bad = 0
    stale_seen = 0
    for mask_seed in range(50):
        cfg = parse_config(CATCHUP_CONFIG.replace("root_seed: 0", f"root_seed: {mask_seed}"))
        sim = runner.run_experiment(cfg).sim
        stale_seen += sum(c.t_sync < sim.server.round for c in sim.clients.values())
        for client in sim.clients.values():
            client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c, sim.server.round)
            if client.theta_c.tobytes() != sim.server.theta_c_global.tobytes():
                bad += 1
    ok = bad == 0 and stale_seen > 0
    _verdict(4, ok, f"50 masks x 200 rounds, {stale_seen} stragglers synced, "
                    f"{bad} mismatches", t0, 60)


DIMFREE_CONFIG = """
protocol: hosfl
root_seed: 11
model: {layer_dims: [5, 2, 2], activation: identity, cut_index: 1, loss: softmax_cross_entropy, bias: false}
hp: {eta: 0.01, M: 3, K: 2, batch_size: 4, zo: {P: 5, mu: 1.0e-3}}
partition: {mode: iid}
data: {n: 60, separation: 3.0}
sample_budget: 24
"""


def _run_totals(text):
    cfg = parse_config(text)
    return cfg, dict(runner.run_experiment(cfg).sim.ledger.totals)


def test_criterion_5_dimension_free_aggregation():
    """Scalar uplink bytes identical at d_c = 10 and d_c = 10**4."""
    t0 = time.time()
    small_cfg, small = _run_totals(DIMFREE_CONFIG)
    big_text = DIMFREE_CONFIG.replace("layer_dims: [5, 2, 2]", "layer_dims: [5000, 2, 2]")
    big_cfg, big = _run_totals(big_text)
    assert small_cfg.model.d_c == 10 and big_cfg.model.d_c == 10 ** 4
    same_scalar = small[MessageKind.SCALAR_UP] == big[MessageKind.SCALAR_UP]

    _, sfl_small = _run_totals(DIMFREE_CONFIG.replace("protocol: hosfl", "protocol: sfl"))
    _, sfl_big = _run_totals(big_text.replace("protocol: hosfl", "protocol: sfl"))
    linear = (
        sfl_small[MessageKind.MODEL_UP] == 3 * 2 * 10 * 8
        and sfl_big[MessageKind.MODEL_UP] == 3 * 2 * 10 ** 4 * 8
        and sfl_big[MessageKind.MODEL_UP] == 1000 * sfl_small[MessageKind.MODEL_UP]
    )
    _verdict(5, same_scalar and linear,
             f"ScalarUp {small[MessageKind.SCALAR_UP]}B at both sizes; "
             f"ModelUp {sfl_small[MessageKind.MODEL_UP]} -> {sfl_big[MessageKind.MODEL_UP]}B",
             t0, 60)


def test_criterion_6_traffic_structure():
    """Recorded ratios between protocols match the reference breakdown shape."""
    t0 = time.time()
    _, ho = _run_totals(DIMFREE_CONFIG)
    _, sf = _run_totals(DIMFREE_CONFIG.replace("protocol: hosfl", "protocol: sfl"))
    _, z = _run_totals(DIMFREE_CONFIG.replace("protocol: hosfl", "protocol: zosfl"))
    checks = {
        "zosfl ActUp = 2x sfl": z[MessageKind.ACTIVATION_UP] == 2 * sf[MessageKind.ACTIVATION_UP],
        "hosfl ModelUp = 0": ho[MessageKind.MODEL_UP] == 0,
        "hosfl ModelDown = 0": ho[MessageKind.MODEL_DOWN] == 0,
        "zosfl GradDown = 0": z[MessageKind.GRAD_DOWN] == 0,
    }
    _verdict(6, all(checks.values()),
             "; ".join(k for k, v in checks.items() if not v) or "all ratios exact",
             t0, 60)


ORDERING_CONFIG = """
protocol: hosfl
root_seed: 0
model: {layer_dims: [8, 64, 2], activation: tanh, cut_index: 1, loss: softmax_cross_entropy}
hp: {eta: 0.1, M: 8, K: 1, batch_size: 16, zo: {P: 25, mu: 1.0e-3}}
partition: {mode: iid}
data: {n: 1200, separation: 1.5, eval_fraction: 0.25}
sample_budget: 800
"""


def test_criterion_7_convergence_ordering():
    """At equal sample budget: hybrid tracks first-order, two-point lags."""
    t0 = time.time()

    def final_loss(proto, seed, eta):
        text = ORDERING_CONFIG.replace("protocol: hosfl", f"protocol: {proto}")
        text = text.replace("eta: 0.1", f"eta: {eta}")
        text = text.replace("root_seed: 0", f"root_seed: {seed}")
        return runner.run_experiment(parse_config(text)).records[-1].eval_loss

    seeds = range(2000, 2010)
    hybrid = np.mean([final_loss("hosfl", s, 0.1) for s in seeds])
    first = np.mean([final_loss("sfl", s, 0.1) for s in seeds])
    two_point = np.mean([final_loss("zosfl", s, 0.02) for s in seeds])
    ok = hybrid <= 1.10 * first and two_point >= 1.5 * hybrid
    _verdict(7, ok, f"hosfl={hybrid:.4f} sfl={first:.4f} ({hybrid / first:.3f}x <= 1.10) "
                    f"zosfl={two_point:.4f} ({two_point / hybrid:.2f}x >= 1.5)", t0, 300)


# criterion 8 fixture: one frozen decay-to-zero quadratic, client-dominated
# (small client factor, large server factor) so estimator noise strictly
# slows contraction; arms share the same data columns

_QUAD_X = np.random.Generator(np.random.PCG64(43)).standard_normal((128, 32))


def _quad_sim(n_in, P, eta, run_seed):
    cfg = SplitModelConfig((n_in, 4, 1), "identity", 1, "squared_error", bias=False)
    hp = HyperParams(eta=eta, M=1, K=1, batch_size=128, zo=ZoConfig(P=P, mu=1e-3))
    x = _QUAD_X[:, :n_in]
    ds = Batch(x, np.zeros((128, 1)))
    theta0 = m.init_params(cfg, 555)
    theta_c = theta0[: cfg.d_c] / np.linalg.norm(theta0[: cfg.d_c]) * 0.3
    theta_s = theta0[cfg.d_c:] / np.linalg.norm(theta0[cfg.d_c:]) * 2.0
    server = ServerState(theta_s=theta_s.copy(), theta_c_global=theta_c.copy())
    clients = {1: ClientState(1, theta_c.copy(), np.arange(128))}
    sim = Simulation("hosfl", cfg, hp, ds, None, server, clients, TrafficLedger(), run_seed)
    return sim, cfg


def _quad_rounds_to_eps(n_in, P, eta, seed, t_max, reps=8, eps_rel=0.01):
    """First crossing of the replicate-mean loss curve below eps_rel * L0."""
    curves = []
    l0 = None
    for r in range(reps):
        sim, cfg = _quad_sim(n_in, P, eta, prng.derive_stream(seed, r))
        if l0 is None:
            theta0 = np.concatenate([sim.server.theta_c_global, sim.server.theta_s])
            l0, _ = m.evaluate_model(theta0, sim.dataset, cfg)
        losses = np.empty(t_max)
        for t in range(t_max):
            run_round(sim)
            theta = np.concatenate([sim.server.theta_c_global, sim.server.theta_s])
            losses[t], _ = m.evaluate_model(theta, sim.dataset, cfg)
        curves.append(losses)
    mean = np.mean(curves, axis=0)
    idx = np.nonzero(mean <= eps_rel * l0)[0]
    return int(idx[0]) + 1 if len(idx) else t_max + 1


def test_criterion_8_rate_scaling_trends():
    """Rounds-to-eps: non-increasing in P, non-decreasing in d_c, 9/10 seeds."""
    t0 = time.time()
    p_mono = 0
    for s in range(10):
        rp = [_quad_rounds_to_eps(32, P, 0.0026, 9000 + s, t_max=400) for P in (1, 5, 25)]
        p_mono += rp[0] >= rp[1] >= rp[2]
    d_mono = 0
    for s in range(10):
        rd = [_quad_rounds_to_eps(n_in, 5, 0.004, 9100 + s, t_max=300)
              for n_in in (2, 8, 32)]  # d_c = 8, 32, 128
        d_mono += rd[0] <= rd[1] <= rd[2]
    ok = p_mono >= 9 and d_mono >= 9
    _verdict(8, ok, f"P-trend monotone {p_mono}/10, d_c-trend monotone {d_mono}/10",
             t0, 300)


def test_criterion_9_latency_hiding():
    """Reference edge profile hides about four passes at four client layers."""
    t0 = time.time()
    net, dev, work = NetworkProfile(), DeviceProfile(), WorkloadProfile()
    at_four = round_timeline(net, dev, work, 4).p_max
    counts = [round_timeline(net, dev, work, lc).p_max for lc in range(2, 9)]
    mono = all(a >= b for a, b in zip(counts, counts[1:]))
    _verdict(9, at_four in (3, 4, 5) and mono,
             f"p_max(4 layers)={at_four}, depth column {counts}", t0, 1)


def test_criterion_10_full_run_determinism(tmp_path):
    """Identical config and root seed reproduce every emitted byte."""
    t0 = time.time()
    path = tmp_path / "exp.yaml"
    path.write_text(ORDERING_CONFIG.replace("sample_budget: 800", "sample_budget: 160"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics.jsonl", "traffic.csv", "checksum.txt")
    )
    _verdict(10, same, "metrics, traffic, and checksum files byte-identical", t0, 60)
