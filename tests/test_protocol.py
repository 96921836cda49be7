"""Round orchestration: worked values, replay equivalence, traffic laws."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsim.model as m
from splitsim import prng, runner
from splitsim.config import parse_config
from splitsim.errors import ProtocolViolationError, StalenessError
from splitsim.protocol import (
    AdamState,
    ClientState,
    HyperParams,
    RoundRecord,
    ServerState,
    Simulation,
    _opt_step,
    client_sync,
    draw_batch,
    planned_rounds,
    run_round,
    sample_clients,
)
from splitsim.traffic import MessageKind, TrafficLedger, closed_form_traffic
from splitsim.zo import ZoConfig

BASE_CONFIG = """
protocol: hosfl
root_seed: 4242
model: {layer_dims: [6, 4, 2], activation: tanh, cut_index: 1, loss: softmax_cross_entropy}
hp: {eta: 0.05, M: 6, K: 2, batch_size: 4, zo: {P: 2, mu: 1.0e-3}}
partition: {mode: iid}
data: {n: 240, separation: 2.5}
sample_budget: 320
"""


def _forced_ones(seed, dim):
    return np.ones(dim)


def _worked_instance():
    """The 1-D linear instance: client w=2, server w=1, x=1, y=0.5 -> lambda=3."""
    cfg = m.SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
    hp = HyperParams(eta=0.01, M=1, K=1, batch_size=1, zo=ZoConfig(P=1, mu=0.1))
    ds = m.Batch(np.array([[1.0]]), np.array([[0.5]]))
    server = ServerState(theta_s=np.array([1.0]), theta_c_global=np.array([2.0]))
    clients = {1: ClientState(1, np.array([2.0]), np.arange(1))}
    return Simulation("hosfl", cfg, hp, ds, None, server, clients, TrafficLedger(), 7), cfg, hp


class TestSampling:
    def test_full_set_when_k_equals_m(self):
        assert sample_clients(5, 5, 123) == [1, 2, 3, 4, 5]

    def test_deterministic_and_sorted(self):
        a = sample_clients(100, 10, 99)
        assert a == sample_clients(100, 10, 99)
        assert a == sorted(a)
        assert len(set(a)) == 10

    def test_k_greater_than_m_rejected(self):
        with pytest.raises(ValueError):
            sample_clients(3, 4, 0)

    def test_uniform_selection_frequency(self):
        m_cl, k = 10, 3
        counts = np.zeros(m_cl + 1)
        rounds = 10000
        for t in range(rounds):
            for cid in sample_clients(m_cl, k, prng.derive_stream(1, t)):
                counts[cid] += 1
        freq = counts[1:] / rounds
        assert np.all(np.abs(freq - k / m_cl) / (k / m_cl) < 0.10)


class TestWorkedRound:
    def test_hybrid_round_hand_values(self):
        sim, cfg, hp = _worked_instance()
        metrics = run_round(sim, perturb_fn=_forced_ones)
        # lambda = 2*(2-0.5)*1 = 3; v = 3*mu*u = 0.3; ghat = 3; step = 0.01*3
        assert sim.server.history[0].v_bar[0] == pytest.approx(0.3, rel=1e-12)
        assert sim.clients[1].theta_c.item() == pytest.approx(1.97, rel=1e-12)
        assert sim.server.theta_c_global.item() == pytest.approx(1.97, rel=1e-12)
        # g_s = 2*(2-0.5)*z = 6, so theta_s drops by 0.06
        assert sim.server.theta_s.item() == pytest.approx(0.94, rel=1e-12)
        assert metrics.train_loss == pytest.approx(2.25)

    def test_first_order_round_matches_hybrid_step(self):
        sim, cfg, hp = _worked_instance()
        sim.protocol = "sfl"
        run_round(sim)
        # exact g_c = lambda * x = 3 gives the same 0.03 step
        assert sim.server.theta_c_global.item() == pytest.approx(1.97, rel=1e-12)

    def test_perfect_fit_moves_nothing(self):
        cfg = m.SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        hp = HyperParams(eta=0.05, M=1, K=1, batch_size=1, zo=ZoConfig(P=3, mu=0.1))
        ds = m.Batch(np.array([[1.0]]), np.array([[2.0]]))
        server = ServerState(theta_s=np.array([1.0]), theta_c_global=np.array([2.0]))
        clients = {1: ClientState(1, np.array([2.0]), np.arange(1))}
        sim = Simulation("hosfl", cfg, hp, ds, None, server, clients, TrafficLedger(), 3)
        run_round(sim)
        assert sim.clients[1].theta_c.item() == 2.0
        assert sim.server.theta_s.item() == 1.0

    def test_two_point_round_exact_on_quadratic(self):
        # composite L(theta_c) = (theta_c - 2)^2 through a frozen-direction probe
        cfg = m.SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        hp = HyperParams(eta=0.01, M=1, K=1, batch_size=1, zo=ZoConfig(P=1, mu=0.1))
        ds = m.Batch(np.array([[1.0]]), np.array([[2.0]]))
        server = ServerState(theta_s=np.array([1.0]), theta_c_global=np.array([3.0]))
        clients = {1: ClientState(1, np.array([3.0]), np.arange(1))}
        sim = Simulation("zosfl", cfg, hp, ds, None, server, clients, TrafficLedger(), 5)
        calls = []

        def forced(seed, dim):
            calls.append(seed)
            # perturb the client only: u_c = 1, u_s = 0
            return np.ones(dim) if len(calls) % 2 == 1 else np.zeros(dim)

        run_round(sim, perturb_fn=forced)
        # dL/dtheta_c = 2*(theta_c*1 - 2)*1 = 2 at theta_c=3; central diff is exact
        assert sim.server.theta_c_global.item() == pytest.approx(3.0 - 0.01 * 2.0, rel=1e-9)
        assert sim.server.theta_s.item() == 1.0

    def test_two_point_round_zero_loss_frozen(self):
        cfg = m.SplitModelConfig((1, 1, 1), "identity", 1, "squared_error", bias=False)
        hp = HyperParams(eta=0.05, M=1, K=1, batch_size=1, zo=ZoConfig(P=1, mu=0.1))
        ds = m.Batch(np.zeros((1, 1)), np.zeros((1, 1)))
        server = ServerState(theta_s=np.array([1.5]), theta_c_global=np.array([2.5]))
        clients = {1: ClientState(1, np.array([2.5]), np.arange(1))}
        sim = Simulation("zosfl", cfg, hp, ds, None, server, clients, TrafficLedger(), 5)
        run_round(sim)
        assert sim.server.theta_c_global.item() == 2.5
        assert sim.server.theta_s.item() == 1.5


class TestDeterminismAndReplay:
    def test_identical_roots_identical_trajectories(self):
        cfg = parse_config(BASE_CONFIG)
        r1 = runner.run_experiment(cfg)
        r2 = runner.run_experiment(cfg)
        assert r1.sim.server.theta_c_global.tobytes() == r2.sim.server.theta_c_global.tobytes()
        assert r1.sim.server.theta_s.tobytes() == r2.sim.server.theta_s.tobytes()
        assert [a.train_loss for a in r1.records] == [b.train_loss for b in r2.records]

    def test_different_roots_differ(self):
        from dataclasses import replace
        cfg = parse_config(BASE_CONFIG)
        r1 = runner.run_experiment(cfg)
        r2 = runner.run_experiment(replace(cfg, root_seed=4243))
        assert r1.sim.server.theta_c_global.tobytes() != r2.sim.server.theta_c_global.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_catchup_bitwise_equals_continuous_participation(self, optimizer):
        text = BASE_CONFIG.replace("optimizer: sgd", "").replace(
            "batch_size: 4,", f"batch_size: 4, optimizer: {optimizer},")
        cfg = parse_config(text)
        sim = runner.run_experiment(cfg).sim
        stale = [c for c in sim.clients.values() if c.t_sync < sim.server.round]
        assert stale, "sampling never skipped anyone; config cannot exercise catch-up"
        for client in sim.clients.values():
            client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c,
                        sim.server.round)
            assert client.theta_c.tobytes() == sim.server.theta_c_global.tobytes()

    def test_sync_is_noop_when_current(self):
        cfg = parse_config(BASE_CONFIG)
        sim = runner.run_experiment(cfg).sim
        client = sim.clients[1]
        client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c, sim.server.round)
        before = client.theta_c.tobytes()
        client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c, sim.server.round)
        assert client.theta_c.tobytes() == before

    def test_sync_on_empty_history_at_round_zero(self):
        cfg = parse_config(BASE_CONFIG)
        sim = runner.build_simulation(cfg)
        client = sim.clients[1]
        before = client.theta_c.tobytes()
        client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c, 0)
        assert client.theta_c.tobytes() == before

    def test_missing_history_raises_staleness(self):
        cfg = parse_config(BASE_CONFIG)
        sim = runner.run_experiment(cfg).sim
        lagger = next(c for c in sim.clients.values() if c.t_sync < sim.server.round - 1)
        t_sync, theta = lagger.t_sync, lagger.theta_c.tobytes()
        # a gap after the first missed round, then at it: the raise comes
        # before any round is applied, so the client is left untouched
        for tau in (t_sync + 1, t_sync):
            del sim.server.history[tau]
            with pytest.raises(StalenessError):
                client_sync(lagger, sim.server.history, cfg.hp, cfg.model.d_c,
                            sim.server.round)
            assert lagger.t_sync == t_sync
            assert lagger.theta_c.tobytes() == theta

    def test_client_ahead_of_target_rejected(self):
        cfg = parse_config(BASE_CONFIG)
        sim = runner.run_experiment(cfg).sim
        client = sim.clients[1]
        client.t_sync = sim.server.round + 5
        with pytest.raises(ProtocolViolationError):
            client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c,
                        sim.server.round)


def _floats(n):
    return st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)


def _random_history(rng, rounds, p):
    return {tau: RoundRecord(tuple(int(s) for s in rng.integers(0, 2 ** 63, p)),
                             tuple(rng.standard_normal(p).tolist()))
            for tau in range(rounds)}


class TestBlockReplay:
    @settings(max_examples=80, deadline=None)
    @given(optimizer=st.sampled_from(["sgd", "adam"]), n=st.integers(1, 8),
           d=st.integers(0, 9), step0=st.integers(0, 50), data=st.data())
    def test_stacked_opt_step_equals_one_row_steps(self, optimizer, n, d, step0, data):
        grads = np.array([data.draw(_floats(d)) for _ in range(n)]).reshape(n, d)
        eta = data.draw(st.floats(1e-4, 1.0))
        theta = np.array(data.draw(_floats(d)))
        m0, v0 = np.array(data.draw(_floats(d))), np.abs(data.draw(_floats(d)))

        def state():
            return AdamState(m0.copy(), np.array(v0), step0) if optimizer == "adam" else None

        got, got_state = _opt_step(optimizer, state(), theta, grads, eta)
        want, want_state = theta, state()
        for i in range(n):
            want, want_state = _opt_step(optimizer, want_state, want, grads[i:i + 1], eta)
        assert got.tobytes() == want.tobytes()
        if optimizer == "adam":
            assert got_state.m.tobytes() == want_state.m.tobytes()
            assert got_state.v.tobytes() == want_state.v.tobytes()
            assert got_state.step == want_state.step == step0 + n

    @settings(max_examples=25, deadline=None)
    @given(optimizer=st.sampled_from(["sgd", "adam"]), rounds=st.integers(2, 30),
           p=st.integers(1, 6), d_c=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_chunked_replay_equals_one_block(self, optimizer, rounds, p, d_c, seed, data):
        chunk = data.draw(st.integers(1, rounds - 1), label="rounds per chunk")
        rng = np.random.default_rng(seed)
        history = _random_history(rng, rounds, p)
        hp = HyperParams(eta=data.draw(st.floats(1e-3, 0.2), label="eta"), M=1, K=1,
                         batch_size=1, zo=ZoConfig(P=p), optimizer=optimizer)
        theta0 = rng.standard_normal(d_c)

        def replay(memo_bytes):
            client = ClientState(1, theta0.copy(), np.arange(1))
            with mock.patch.object(prng, "MEMO_BYTES", memo_bytes):
                return client_sync(client, history, hp, d_c, rounds)

        block = replay(8 * p * d_c * rounds)
        # chunks of `chunk` rounds, and one round per chunk with no prefetch
        # when a round's directions exceed the memo
        for chunked in (replay(8 * p * d_c * chunk), replay(8 * p * d_c - 1)):
            assert block.t_sync == chunked.t_sync == rounds
            assert block.theta_c.tobytes() == chunked.theta_c.tobytes()
            if optimizer == "adam":
                assert block.opt_state.m.tobytes() == chunked.opt_state.m.tobytes()
                assert block.opt_state.v.tobytes() == chunked.opt_state.v.tobytes()
                assert block.opt_state.step == chunked.opt_state.step == rounds

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_stale_past_memo_window_one_block_per_chunk(self, optimizer, monkeypatch):
        text = BASE_CONFIG.replace("batch_size: 4,", f"batch_size: 4, optimizer: {optimizer},")
        cfg = parse_config(text)
        sim = runner.run_experiment(cfg).sim
        rounds, p, d_c = sim.server.round, cfg.hp.zo.P, cfg.model.d_c
        assert rounds == 40
        # a client that never took part
        client = ClientState(99, runner.build_simulation(cfg).server.theta_c_global,
                             np.arange(1))
        # a memo holding 8 rounds' directions, filled with rounds 4..11, so
        # the first chunk (rounds 0..7) finds half of its rows held and least
        # recently used: generating the other half must not evict them
        monkeypatch.setattr(prng, "MEMO_BYTES", 8 * p * d_c * 8)
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        warm = ClientState(98, sim.server.theta_c_global.copy(), np.arange(1), t_sync=4)
        client_sync(warm, sim.server.history, cfg.hp, d_c, 12)
        blocks = []
        real_block = prng.gaussian_block

        def counting_block(seeds, dim):
            blocks.append(len(seeds))
            return real_block(seeds, dim)

        monkeypatch.setattr(prng, "gaussian_block", counting_block)
        # it replays all 40 rounds in 5 chunks, one block each but the first
        client_sync(client, sim.server.history, cfg.hp, d_c, rounds)
        assert blocks == [4 * p] + [8 * p] * 4
        assert client.theta_c.tobytes() == sim.server.theta_c_global.tobytes()


class TestLargeDirections:
    @pytest.mark.parametrize("proto", ["hosfl", "zosfl"])
    def test_no_multi_row_block_when_directions_overflow_the_memo(self, proto, monkeypatch):
        # d_c = 140,000: a round's directions do not fit prng.MEMO_BYTES
        # together (nor do zosfl's two server directions at d_s = 40,002),
        # so a prefetched block would be evicted before it is read; each
        # direction is generated alone, where it is used
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}")
                           .replace("layer_dims: [6, 4, 2]", "layer_dims: [6, 20000, 2]"))
        assert 8 * cfg.hp.zo.P * cfg.model.d_c > prng.MEMO_BYTES
        sim = runner.build_simulation(cfg)
        rows = []
        real_block = prng.gaussian_block

        def counting_block(seeds, dim):
            rows.append(len(seeds))
            return real_block(seeds, dim)

        monkeypatch.setattr(prng, "gaussian_block", counting_block)
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        replayed = 0
        for t in range(4):
            selected = sample_clients(cfg.hp.M, cfg.hp.K,
                                      prng.derive_stream(cfg.root_seed, prng.STREAM_SAMPLING, t))
            replayed += sum(t - sim.clients[cid].t_sync for cid in selected)
            run_round(sim)
        assert rows and set(rows) == {1}
        assert replayed > 0  # under hosfl, catch-up replay ran too


class TestBatchingAndBudget:
    def test_draw_batch_deterministic(self):
        ds = m.Batch(np.arange(40, dtype=float).reshape(20, 2),
                     np.zeros((20, 1)))
        shard = np.arange(20)
        a = draw_batch(ds, shard, 8, 7)
        b = draw_batch(ds, shard, 8, 7)
        assert a.inputs.tobytes() == b.inputs.tobytes()

    def test_draw_batch_without_replacement(self):
        ds = m.Batch(np.arange(20, dtype=float).reshape(10, 2),
                     np.zeros((10, 1)))
        batch = draw_batch(ds, np.arange(10), 10, 3)
        assert sorted(batch.inputs[:, 0].tolist()) == [float(2 * i) for i in range(10)]

    def test_empty_shard_rejected(self):
        ds = m.Batch(np.ones((4, 1)), np.ones((4, 1)))
        with pytest.raises(ProtocolViolationError):
            draw_batch(ds, np.array([], dtype=np.int64), 2, 0)

    def test_budget_round_arithmetic(self):
        hp = HyperParams(eta=0.1, M=1, K=1, batch_size=32, zo=ZoConfig())
        assert planned_rounds(hp, 320) == 10
        assert planned_rounds(hp, 321) == 11
        assert planned_rounds(hp, 0) == 0

    def test_zero_rounds_returns_initial_state(self):
        cfg = parse_config(BASE_CONFIG.replace("sample_budget: 320", "sample_budget: 0"))
        theta0 = runner.build_simulation(cfg).server.theta_c_global.tobytes()
        result = runner.run_experiment(cfg)
        assert result.records == []
        assert result.sim.server.theta_c_global.tobytes() == theta0


class TestCallCounts:
    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_forward_and_gaussian_calls_per_round(self, proto, monkeypatch):
        # every direction is still requested and every forward still runs
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}")
                           .replace("sample_budget: 320", "sample_budget: 96"))
        hp = cfg.hp
        forwards, gaussians = [], []
        real_forward = m.client_forward

        def counting_forward(*args, **kwargs):
            forwards.append(1)
            return real_forward(*args, **kwargs)

        def counting_perturb(seed, dim):
            gaussians.append(seed)
            return prng.gaussian_vector(seed, dim)

        monkeypatch.setattr(m, "client_forward", counting_forward)
        runner.run_experiment(cfg, counting_perturb)
        # rounds a sampled client missed since it last took part
        replayed, synced = 0, {}
        rounds = planned_rounds(hp, cfg.sample_budget)
        for t in range(rounds):
            for cid in sample_clients(hp.M, hp.K,
                                      prng.derive_stream(cfg.root_seed, prng.STREAM_SAMPLING, t)):
                replayed += t - synced.get(cid, 0)
                synced[cid] = t + 1
        k, p = hp.K, hp.zo.P
        want = {
            "hosfl": (rounds * (k * (1 + p) + 1), rounds * (2 * k + 1) * p + p * replayed),
            "sfl": (rounds * (k + 1), 0),
            "zosfl": (rounds * (2 * k + 1), rounds * 2 * k),
        }[proto]
        assert (len(forwards), len(gaussians)) == want
        if proto == "hosfl":
            assert replayed > 0


class TestTrafficLaws:
    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_ledger_matches_closed_form_exactly(self, proto):
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}"))
        result = runner.run_experiment(cfg)
        per_round = closed_form_traffic(cfg.hp, cfg.model, proto)
        for kind in MessageKind:
            assert result.sim.ledger.totals[kind] == len(result.records) * per_round[kind]

    def test_scalar_uplink_independent_of_client_dimension(self):
        def scalar_up(dim_hidden):
            text = BASE_CONFIG.replace("layer_dims: [6, 4, 2]",
                                       f"layer_dims: [6, {dim_hidden}, 2]")
            cfg = parse_config(text.replace("sample_budget: 320", "sample_budget: 40"))
            return runner.run_experiment(cfg).sim.ledger.totals[MessageKind.SCALAR_UP]

        assert scalar_up(4) == scalar_up(400)

    def test_global_descent_all_protocols(self):
        # convex-ish blob task: trailing-decile loss below leading decile
        for proto, eta in [("hosfl", 0.05), ("sfl", 0.05), ("zosfl", 0.02)]:
            text = BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}")
            text = text.replace("eta: 0.05", f"eta: {eta}").replace("sample_budget: 320",
                                                                    "sample_budget: 480")
            cfg = parse_config(text)
            result = runner.run_experiment(cfg)
            losses = [r.train_loss for r in result.records]
            k = max(1, len(losses) // 10)
            assert np.mean(losses[-k:]) < np.mean(losses[:k]), proto

    def test_sfl_symmetric_clients_average_to_single_update(self):
        # identical data on both clients: the averaged model equals one
        # client's update, computed directly from theta0, its batch and its feedback
        cfg = m.SplitModelConfig((2, 2, 1), "identity", 1, "squared_error", bias=False)
        hp = HyperParams(eta=0.05, M=2, K=2, batch_size=2, zo=ZoConfig())
        x = np.array([[1.0, 0.5], [0.25, -1.0]])
        y = np.array([[1.0], [0.0]])
        ds = m.Batch(np.vstack([x, x]), np.vstack([y, y]))
        theta0 = m.init_params(cfg, 12)
        theta_c, theta_s = theta0[: cfg.d_c], theta0[cfg.d_c:]
        server = ServerState(theta_s=theta_s.copy(), theta_c_global=theta_c.copy())
        clients = {
            1: ClientState(1, theta_c.copy(), np.array([0, 1])),
            2: ClientState(2, theta_c.copy(), np.array([2, 3])),
        }
        sim = Simulation("sfl", cfg, hp, ds, None, server, clients, TrafficLedger(), 9)
        run_round(sim)
        batch = draw_batch(ds, clients[1].shard, hp.batch_size,
                           prng.derive_stream(9, prng.STREAM_BATCH, 0, 1))
        z = m.client_forward(theta_c, batch, cfg)
        lam = m.server_forward_backward(theta_s, z, batch.labels, cfg)[2]
        g_c = m.client_backward_from_lambda(theta_c, batch, lam, cfg)
        assert sim.server.theta_c_global.tobytes() == (theta_c - hp.eta * g_c).tobytes()

    @pytest.mark.parametrize("proto", ["sfl", "zosfl"])
    def test_baseline_rounds_leave_client_state_unchanged(self, proto):
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}"))
        sim = runner.build_simulation(cfg)
        before = {cid: (c.theta_c.tobytes(), c.t_sync, c.opt_state)
                  for cid, c in sim.clients.items()}
        for _ in range(3):
            run_round(sim)
        assert {cid: (c.theta_c.tobytes(), c.t_sync, c.opt_state)
                for cid, c in sim.clients.items()} == before
