"""Round orchestration: worked values, replay equivalence, traffic laws."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsim.model as m
from splitsim import prng, protocol, runner
from splitsim.config import parse_config
from splitsim.errors import NumericalError, ProtocolViolationError, StalenessError
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


def _hand_built(m_cl, k, optimizer="sgd", seed=5):
    """A hosfl Simulation built from its parts: m_cl clients of 8 rows each."""
    cfg = m.SplitModelConfig((3, 4, 2), "tanh", 1, "softmax_cross_entropy")
    hp = HyperParams(eta=0.05, M=m_cl, K=k, batch_size=2, zo=ZoConfig(P=2, mu=1e-3),
                     optimizer=optimizer)
    rng = np.random.default_rng(seed)
    ds = m.Batch(rng.standard_normal((8 * m_cl, 3)), rng.integers(0, 2, 8 * m_cl))
    theta = m.init_params(cfg, seed)
    theta_c = theta[:cfg.d_c]
    server = ServerState(theta_s=theta[cfg.d_c:].copy(), theta_c_global=theta_c.copy())
    clients = {cid: ClientState(cid, theta_c.copy(), np.arange(8 * cid - 8, 8 * cid))
               for cid in range(1, m_cl + 1)}
    return Simulation("hosfl", cfg, hp, ds, None, server, clients, TrafficLedger(), seed)


def _assert_caught_up(sim):
    """Every client syncs to the current round, equal to the server copy."""
    server = sim.server
    for client in sim.clients.values():
        client_sync(client, server.history, sim.hp, sim.model_cfg.d_c, server.round)
        assert client.theta_c.tobytes() == server.theta_c_global.tobytes()
        if sim.hp.optimizer == "adam":
            assert client.opt_state.m.tobytes() == server.opt_state_c.m.tobytes()
            assert client.opt_state.v.tobytes() == server.opt_state_c.v.tobytes()
            assert client.opt_state.step == server.opt_state_c.step == server.round


class TestSampling:
    def test_full_set_when_k_equals_m(self):
        assert sample_clients(5, 5, [123]).tolist() == [[1, 2, 3, 4, 5]]

    def test_deterministic_and_sorted(self):
        a = sample_clients(100, 10, [99])[0].tolist()
        assert a == sample_clients(100, 10, [99])[0].tolist()
        assert a == sorted(a)
        assert len(set(a)) == 10

    def test_k_greater_than_m_rejected(self):
        with pytest.raises(ValueError):
            sample_clients(3, 4, [0])

    def test_uniform_selection_frequency(self):
        m_cl, k = 10, 3
        counts = np.zeros(m_cl + 1)
        rounds = 10000
        for row in sample_clients(m_cl, k, [prng.derive_stream(1, t) for t in range(rounds)]):
            for cid in row:
                counts[cid] += 1
        freq = counts[1:] / rounds
        assert np.all(np.abs(freq - k / m_cl) / (k / m_cl) < 0.10)


class TestWorkedRound:
    def test_hybrid_round_hand_values(self):
        sim, cfg, hp = _worked_instance()
        # the one client is synced past round 0 when the round ends, so the
        # round drops its record: keep it as the round writes it
        written = []

        def record(seeds, v_bar):
            written.append(RoundRecord(seeds, v_bar))
            return written[-1]

        with mock.patch("splitsim.protocol.RoundRecord", side_effect=record):
            metrics = run_round(sim, perturb_fn=_forced_ones)
        assert sim.server.history == {}
        # lambda = 2*(2-0.5)*1 = 3; v = 3*mu*u = 0.3; ghat = 3; step = 0.01*3
        assert written[0].v_bar[0] == pytest.approx(0.3, rel=1e-12)
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

    def test_overflowing_scalar_mean_aborts_the_round(self):
        # finite scalars of two clients sum to inf in Python floats, silently
        sim = runner.build_simulation(parse_config(BASE_CONFIG))
        huge = (1e308,) * sim.hp.zo.P
        with mock.patch("splitsim.protocol.zo_scalars", return_value=huge):
            with pytest.raises(NumericalError, match="non-finite aggregated scalar"):
                run_round(sim)
        assert sim.server.history == {}


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

    @settings(max_examples=30, deadline=None)
    @given(optimizer=st.sampled_from(["sgd", "adam"]), m_cl=st.integers(1, 7),
           rounds=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_history_runs_from_the_stalest_client(self, optimizer, m_cl, rounds, seed, data):
        # after every round the history is exactly the rounds from the
        # stalest t_sync on, and every client still catches up bit for bit
        k = data.draw(st.integers(1, m_cl), label="K")
        sim = _hand_built(m_cl, k, optimizer, seed)
        for t in range(rounds):
            run_round(sim)
            floor = min(c.t_sync for c in sim.clients.values())
            assert sorted(sim.server.history) == list(range(floor, t + 1))
        _assert_caught_up(sim)

    def test_outside_sync_between_rounds_keeps_every_needed_round(self):
        # a client synced between rounds stays counted where its last round
        # left it: the history keeps its old rounds, never drops another's
        sim = _hand_built(5, 1)
        rng = np.random.default_rng(3)
        held_longer = 0
        for t in range(60):
            run_round(sim)
            moved = sim.clients[int(rng.integers(1, 6))]
            client_sync(moved, sim.server.history, sim.hp, sim.model_cfg.d_c, t + 1)
            for client in sim.clients.values():
                assert set(range(client.t_sync, t + 1)) <= set(sim.server.history)
            held_longer += min(sim.server.history, default=t + 1) < min(
                c.t_sync for c in sim.clients.values())
        assert held_longer > 0
        _assert_caught_up(sim)

    def test_client_ahead_of_target_rejected(self):
        cfg = parse_config(BASE_CONFIG)
        sim = runner.run_experiment(cfg).sim
        client = sim.clients[1]
        client.t_sync = sim.server.round + 5
        with pytest.raises(ProtocolViolationError):
            client_sync(client, sim.server.history, cfg.hp, cfg.model.d_c,
                        sim.server.round)


def _state_bytes(theta_c, opt_state):
    """A client state's bytes: theta_c, and adam's m, v and step."""
    if opt_state is None:
        return theta_c.tobytes(), None
    return theta_c.tobytes(), opt_state.m.tobytes(), opt_state.v.tobytes(), opt_state.step


def _sampled(sim, t):
    return sample_clients(sim.hp.M, sim.hp.K, [
        prng.derive_stream(sim.root_seed, prng.STREAM_SAMPLING, t)])[0].tolist()


class TestSharedClientState:
    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_fresh_clients_hold_the_server_copy(self, proto):
        sim = runner.build_simulation(
            parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}")))
        theta_c = sim.server.theta_c_global
        assert not theta_c.flags.writeable
        assert all(c.theta_c is theta_c for c in sim.clients.values())

    def test_setup_memory_does_not_grow_with_clients(self):
        # 500 copies of this theta_c (d_c = 9,216) would hold 36.9 MB
        cfg = parse_config(BASE_CONFIG.replace("M: 6", "M: 500").replace(
            "[6, 4, 2]", "[8, 1024, 2]").replace("n: 240", "n: 700"))
        tracemalloc.start()
        try:
            sim = runner.build_simulation(cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(sim.clients) == 500 and cfg.model.d_c == 9216
        assert held < 4 * 2 ** 20

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_clients_synced_to_a_round_share_one_state(self, optimizer):
        cfg = parse_config(BASE_CONFIG.replace("batch_size: 4,",
                                               f"batch_size: 4, optimizer: {optimizer},"))
        sim = runner.run_experiment(cfg).sim
        by_round = {}
        for client in sim.clients.values():
            by_round.setdefault(client.t_sync, []).append(client)
        assert any(len(group) > 1 for t, group in by_round.items() if t > 0)
        for group in by_round.values():
            assert all(c.theta_c is group[0].theta_c for c in group)
            assert all(c.opt_state is group[0].opt_state for c in group)
        assert len({id(c.theta_c) for c in sim.clients.values()}) <= len(by_round)
        current = by_round[sim.server.round]
        assert current[0].theta_c is sim.server.theta_c_global
        assert current[0].opt_state is sim.server.opt_state_c
        if optimizer == "adam":
            assert sim.server.opt_state_c.step == sim.server.round

    def test_sync_of_a_stale_client_writes_nothing_shared(self):
        cfg = parse_config(BASE_CONFIG.replace("batch_size: 4,",
                                               "batch_size: 4, optimizer: adam,"))
        sim = runner.build_simulation(cfg)
        server = sim.server

        def stale_and_shared():
            # a client behind the server copy, whose state another client holds too
            return [c for c in sim.clients.values() if 0 < c.t_sync < server.round
                    and any(o is not c and o.opt_state is c.opt_state
                            for o in sim.clients.values())]

        for _ in range(40):
            run_round(sim)
            if stale_and_shared():
                break
        stale = stale_and_shared()[0]
        held = stale.theta_c, stale.opt_state
        held_bytes = _state_bytes(*held)
        others = {cid: _state_bytes(c.theta_c, c.opt_state)
                  for cid, c in sim.clients.items() if c is not stale}
        copy = _state_bytes(server.theta_c_global, server.opt_state_c)
        client_sync(stale, server.history, cfg.hp, cfg.model.d_c, server.round)
        assert _state_bytes(stale.theta_c, stale.opt_state) == copy
        assert stale.theta_c is not held[0] and stale.opt_state is not held[1]
        assert _state_bytes(*held) == held_bytes
        assert _state_bytes(server.theta_c_global, server.opt_state_c) == copy
        assert {cid: _state_bytes(c.theta_c, c.opt_state)
                for cid, c in sim.clients.items() if c is not stale} == others

    def test_one_client_step_a_round(self, monkeypatch):
        # all three clients take part in every round, so none replays: the
        # client half is stepped once a round, on the server copy
        sim = _hand_built(3, 3)
        d_c, steps = sim.model_cfg.d_c, []
        real_step = protocol._opt_step

        def counting_step(optimizer, state, theta, grads, eta):
            steps.append(len(theta) == d_c)
            return real_step(optimizer, state, theta, grads, eta)

        monkeypatch.setattr(protocol, "_opt_step", counting_step)
        for _ in range(4):
            run_round(sim)
        assert steps == [False, True] * 4  # the server half, then the client half

    def test_client_one_ulp_off_is_a_violation(self):
        sim = _hand_built(2, 2)
        run_round(sim)
        theta_c = sim.clients[2].theta_c.copy()
        theta_c[0] = np.nextafter(theta_c[0], np.inf)
        sim.clients[2].theta_c = theta_c
        with pytest.raises(ProtocolViolationError,
                           match="client 2 differs from the server copy .* round 1"):
            run_round(sim)

    def test_adam_client_at_another_step_is_a_violation(self):
        sim = _hand_built(2, 2, "adam")
        run_round(sim)
        state = sim.clients[1].opt_state
        sim.clients[1].opt_state = AdamState(state.m, state.v, state.step + 1)
        with pytest.raises(ProtocolViolationError,
                           match="client 1 differs from the server copy .* round 1"):
            run_round(sim)

    def test_tampered_stale_record_is_a_violation(self):
        sim = runner.build_simulation(parse_config(BASE_CONFIG))
        history, t = sim.server.history, 0
        while not any(sim.clients[cid].t_sync < t for cid in _sampled(sim, t)):
            run_round(sim)
            t += 1
        lagger = next(sim.clients[cid] for cid in _sampled(sim, t)
                      if sim.clients[cid].t_sync < t)
        record = history[lagger.t_sync]
        history[lagger.t_sync] = RoundRecord(record.seeds,
                                             tuple(v + 1.0 for v in record.v_bar))
        with pytest.raises(ProtocolViolationError,
                           match=f"client {lagger.client_id} differs .* round {t}"):
            run_round(sim)

    def test_shared_state_is_read_only(self):
        cfg = parse_config(BASE_CONFIG.replace("batch_size: 4,",
                                               "batch_size: 4, optimizer: adam,"))
        sim = runner.build_simulation(cfg)
        with pytest.raises(ValueError, match="read-only"):
            sim.clients[1].theta_c[0] = 0.0
        for _ in range(3):
            run_round(sim)
        client = sim.clients[_sampled(sim, 2)[0]]
        for array in (client.theta_c, client.opt_state.m, client.opt_state.v):
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
        with pytest.raises(AttributeError):
            client.opt_state.step = 0


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

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_opt_step_writes_nothing_it_is_given(self, optimizer):
        rng = np.random.default_rng(8)
        theta, grads, m0, v0 = (rng.standard_normal(shape) for shape in (5, (3, 5), 5, 5))
        state = AdamState(m0, np.abs(v0), 7) if optimizer == "adam" else None
        given_arrays = [theta, grads] + ([] if state is None else [state.m, state.v])
        for array in given_arrays:
            array.flags.writeable = False
        given_bytes = [array.tobytes() for array in given_arrays]
        new_state = _opt_step(optimizer, state, theta, grads, 0.1)[1]
        assert [array.tobytes() for array in given_arrays] == given_bytes
        if optimizer == "adam":
            assert state.step == 7 and new_state.step == 10
            assert not (new_state.m.flags.writeable or new_state.v.flags.writeable)

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
        sim = runner.build_simulation(cfg)
        # a client that never took part, and one from round 4 on, both
        # registered before the rounds (never sampled: the ids pass M), so
        # the run keeps the history they replay
        client = ClientState(99, sim.server.theta_c_global.copy(), np.arange(1))
        warm = ClientState(98, sim.server.theta_c_global.copy(), np.arange(1), t_sync=4)
        sim.clients.update({98: warm, 99: client})
        for _ in range(planned_rounds(cfg.hp, cfg.sample_budget)):
            run_round(sim)
        rounds, p, d_c = sim.server.round, cfg.hp.zo.P, cfg.model.d_c
        assert rounds == 40
        # a memo holding 8 rounds' directions, filled with rounds 4..11, so
        # the first chunk (rounds 0..7) finds half of its rows held and least
        # recently used: generating the other half must not evict them
        monkeypatch.setattr(prng, "MEMO_BYTES", 8 * p * d_c * 8)
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
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
            selected = sample_clients(cfg.hp.M, cfg.hp.K, [
                prng.derive_stream(cfg.root_seed, prng.STREAM_SAMPLING, t)])[0].tolist()
            replayed += sum(t - sim.clients[cid].t_sync for cid in selected)
            run_round(sim)
        assert rows and set(rows) == {1}
        assert replayed > 0  # under hosfl, catch-up replay ran too


def _draw_one(ds, shard, batch_size, seed):
    """The batch of one draw_batch row."""
    rows = draw_batch([shard], batch_size, [seed])[0]
    return m.Batch(ds.inputs[rows], ds.labels[rows])


class TestBatchingAndBudget:
    def test_draw_batch_deterministic(self):
        ds = m.Batch(np.arange(40, dtype=float).reshape(20, 2),
                     np.zeros((20, 1)))
        shard = np.arange(20)
        a = _draw_one(ds, shard, 8, 7)
        b = _draw_one(ds, shard, 8, 7)
        assert a.inputs.tobytes() == b.inputs.tobytes()

    def test_draw_batch_without_replacement(self):
        ds = m.Batch(np.arange(20, dtype=float).reshape(10, 2),
                     np.zeros((10, 1)))
        batch = _draw_one(ds, np.arange(10), 10, 3)
        assert sorted(batch.inputs[:, 0].tolist()) == [float(2 * i) for i in range(10)]

    def test_draw_batch_with_replacement_from_a_small_shard(self):
        # a shard smaller than the batch is drawn from with replacement
        ds = m.Batch(np.arange(40, dtype=float).reshape(20, 2), np.zeros((20, 1)))
        shard = np.array([3, 7, 11])
        a = _draw_one(ds, shard, 8, 5)
        assert a.size == 8
        assert a.inputs.tobytes() == _draw_one(ds, shard, 8, 5).inputs.tobytes()
        assert set((a.inputs[:, 0] / 2).astype(int).tolist()) <= {3, 7, 11}

    def test_empty_shard_rejected(self):
        ds = m.Batch(np.ones((4, 1)), np.ones((4, 1)))
        with pytest.raises(ProtocolViolationError):
            _draw_one(ds, np.array([], dtype=np.int64), 2, 0)

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


class TestDrawWindow:
    def test_empty_shard_fails_in_the_round_that_samples_it(self):
        # the window drawn at round 0 would hold the first round that
        # samples the client sampled last; it ends before that round, which
        # then raises
        sim = _hand_built(4, 1)
        picks = sample_clients(4, 1, prng.derive_stream(
            sim.root_seed, prng.STREAM_SAMPLING, np.arange(100, dtype=np.uint64)))[:, 0]
        first, cid = max((picks.tolist().index(cid), cid) for cid in range(1, 5))
        assert first > 1
        sim.clients[cid].shard = np.arange(0)
        for _ in range(first):
            run_round(sim)
        with pytest.raises(ProtocolViolationError, match="empty data shard"):
            run_round(sim)
        assert sim.server.round == first

    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_one_draw_call_per_window(self, proto, monkeypatch):
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}"))
        hp = cfg.hp
        sim = runner.build_simulation(cfg)
        assert sim.window is None  # nothing is drawn before the first round
        index = np.min_scalar_type(sim.dataset.size - 1)
        # 5 rounds of the larger table: batch rows, or hosfl's P and zosfl's
        # 2K seeds (uint64) a round
        seeds = {"hosfl": hp.zo.P, "sfl": 0, "zosfl": 2 * hp.K}[proto]
        assert 8 * seeds != index.itemsize * hp.K * hp.batch_size
        monkeypatch.setattr(protocol, "WINDOW_BYTES",
                            5 * max(index.itemsize * hp.K * hp.batch_size, 8 * seeds))
        calls = {"sample_clients": 0, "draw_batch": 0}
        for name in calls:  # looked up in protocol's namespace, as the benchmark's hooks are
            def counting(*args, _real=getattr(protocol, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(protocol, name, counting)
        for _ in range(12):
            run_round(sim)
        assert calls == {"sample_clients": 3, "draw_batch": 3}
        start, clients, rows, window_seeds = sim.window
        assert (start, len(clients), len(rows)) == (10, 5, 5)
        assert window_seeds is None if proto == "sfl" else len(window_seeds) == 5

    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_window_size_changes_no_value(self, proto, monkeypatch):
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}"))

        def run():
            result = runner.run_experiment(cfg)
            server = result.sim.server
            return ([r.train_loss for r in result.records],
                    server.theta_c_global.tobytes(), server.theta_s.tobytes())

        whole = run()  # one window holds the run's 40 rounds
        monkeypatch.setattr(protocol, "WINDOW_BYTES", 1)  # one round a window
        assert run() == whole

    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_window_memory_is_bounded(self, proto):
        # M=5000, K=64, B=256 on 4,000 rows (uint16 indices): one round's
        # rows fill the window's bytes, so a window is one round, and its
        # pools are shuffled a few rows at a time. The peak is that round,
        # the pool of 5,000 client ids and one pool chunk; this round's
        # shards end to end are 0.9 MB, and its uniforms alone 128 KiB.
        # The round's seeds, 5 (hosfl) or 128 (zosfl), fit the bytes too
        m_cl, k, b = 5000, 64, 256
        base = np.arange(4000)
        clients = {cid: ClientState(cid, np.zeros(1), base[:100 + 37 * (cid % 100)])
                   for cid in range(1, m_cl + 1)}
        hp = HyperParams(eta=0.1, M=m_cl, K=k, batch_size=b)
        dataset = m.Batch(np.zeros((4000, 1)), np.zeros(4000, dtype=np.int64))
        sim = Simulation(proto, None, hp, dataset, None, None, clients, None, 11)
        protocol._round_draws(sim, 0)  # the counter tables, built once
        tracemalloc.start()
        try:
            protocol._round_draws(sim, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        start, clients, rows, seeds = sim.window
        one_round = 2 * k * b
        assert (start, len(clients), rows.nbytes) == (1, 1, one_round)
        assert one_round == protocol.WINDOW_BYTES
        if proto == "sfl":
            assert seeds is None
        else:
            assert len(seeds) == 1 and seeds.nbytes <= protocol.WINDOW_BYTES
        assert peak <= 6 * protocol.WINDOW_BYTES

    def test_seeds_bound_the_window(self):
        # zosfl at K=64, B=1 on 100 rows: a round's rows are 64 bytes
        # (uint8) and its 128 seeds 1 KiB, so the seeds fix the window at
        # 32 rounds, each table within the bytes
        clients = {cid: ClientState(cid, np.zeros(1), np.arange(100)) for cid in range(1, 65)}
        hp = HyperParams(eta=0.1, M=64, K=64, batch_size=1)
        dataset = m.Batch(np.zeros((100, 1)), np.zeros(100, dtype=np.int64))
        sim = Simulation("zosfl", None, hp, dataset, None, None, clients, None, 12)
        protocol._round_draws(sim, 0)
        start, clients, rows, seeds = sim.window
        assert (len(clients), rows.nbytes) == (32, 32 * 64)
        assert seeds.shape == (32, 64, 2) and seeds.nbytes == protocol.WINDOW_BYTES


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
            for cid in sample_clients(hp.M, hp.K, [
                    prng.derive_stream(cfg.root_seed, prng.STREAM_SAMPLING, t)])[0].tolist():
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


    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_one_gaussian_block_per_round(self, proto, monkeypatch):
        # a round generates its directions as one block (zosfl's at d_c and
        # d_s together), and catch-up finds the rounds it replays held
        cfg = parse_config(BASE_CONFIG.replace("protocol: hosfl", f"protocol: {proto}"))
        sim = runner.build_simulation(cfg)
        blocks = []
        real_block = prng.gaussian_block

        def counting_block(seeds, dim):
            blocks[-1] += 1
            return real_block(seeds, dim)

        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        monkeypatch.setattr(prng, "gaussian_block", counting_block)
        for _ in range(planned_rounds(cfg.hp, cfg.sample_budget)):
            blocks.append(0)
            run_round(sim)
        assert blocks == [0 if proto == "sfl" else 1] * 40


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
        batch = _draw_one(ds, clients[1].shard, hp.batch_size,
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
