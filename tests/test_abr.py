"""ABR environment correctness: buffer equation, QoE, BBA, bandwidth
generation, and the fake-replay safeguard.

Oracle for the buffer dynamics: an independently coded single-step update
applied alongside the session."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nonstat_rl.abr import (BITRATES_KBPS, MAX_BUFFER_S, USER_GROUPS, AbrEnv,
                            AbrSession, BandwidthGen, FakeReplayGuard,
                            UserGroupParams, VideoSpec, bba_action, guard_step,
                            load_bandwidth_csv, qoe, write_bandwidth_csv)
from nonstat_rl.errors import ConfigError


def flat_spec(sizes_s, bandwidth_kbps=1000.0, n_levels=2):
    """Chunks whose level sizes download in exactly `sizes_s` seconds at the
    reference bandwidth (level k takes k+1 times as long)."""
    rows = []
    for s in sizes_s:
        base = s * bandwidth_kbps * 1000.0 / 8.0
        rows.append([base * (k + 1) for k in range(n_levels)])
    return VideoSpec(4.0, tuple(300 * (k + 1) for k in range(n_levels)), np.array(rows))


class TestBufferEquation:
    def test_examples(self):
        spec = flat_spec([3.0, 5.0, 2.0])
        trace = np.full(100, 1000.0)

        s = AbrSession(spec, trace)
        s.buffer_s = 8.0
        info = s.step(0)  # downloads in 3 s
        assert info["download_s"] == pytest.approx(3.0)
        assert info["buffer_s"] == pytest.approx(9.0)
        assert info["rebuffer_s"] == 0.0

        s.buffer_s = 2.0
        info = s.step(0)  # 5 s download
        assert info["buffer_s"] == pytest.approx(4.0)
        assert info["rebuffer_s"] == pytest.approx(3.0)

        s.buffer_s = 0.0
        info = s.step(0)  # 2 s download
        assert info["rebuffer_s"] == pytest.approx(info["download_s"])

    def test_buffer_capped_at_request_threshold(self):
        spec = flat_spec([0.5] * 10)
        s = AbrSession(spec, np.full(100, 1000.0))
        assert MAX_BUFFER_S == 25.0
        s.buffer_s = 24.0
        clock_before = s.clock_s
        info = s.step(0)
        # 24 - 0.5 + 4 = 27.5 -> capped at 25, client idles 2.5 s
        assert info["buffer_s"] == pytest.approx(25.0)
        assert s.clock_s == pytest.approx(clock_before + 0.5 + 2.5)

    def test_harmonic_mean_download_over_varying_trace(self):
        # 1 s at 1000 kbps + remainder at 500 kbps for a 1500-kbit chunk
        spec = VideoSpec(4.0, (300, 600), np.array([[1500.0 * 125.0, 3000.0 * 125.0]]))
        trace = np.array([1000.0, 500.0, 500.0, 500.0])
        s = AbrSession(spec, trace)
        info = s.step(0)
        assert info["download_s"] == pytest.approx(2.0)  # 1000 + 1*500 = 1500 kbit
        assert info["throughput_kbps"] == pytest.approx(750.0)

    def test_random_sessions_match_independent_oracle(self):
        rng = np.random.default_rng(0)
        spec = VideoSpec.synth(seed=1)
        trace = BandwidthGen(USER_GROUPS["UG3"], rng).generate(1200)
        s = AbrSession(spec, trace)
        b = 0.0
        while not s.done:
            info = s.step(int(rng.integers(spec.n_levels)))
            d = info["download_s"]
            want_rebuffer = max(0.0, d - b)
            b = min(max(0.0, b - d) + spec.chunk_s, MAX_BUFFER_S)
            assert info["rebuffer_s"] == pytest.approx(want_rebuffer, abs=1e-9)
            assert info["buffer_s"] == pytest.approx(b, abs=1e-9)
            assert b >= 0.0

    def test_qoe_decomposition_identity(self):
        rng = np.random.default_rng(2)
        spec = VideoSpec.synth(seed=3)
        trace = BandwidthGen(USER_GROUPS["UG1"], rng).generate(1500)
        s = AbrSession(spec, trace, mu=4.3)
        while not s.done:
            s.step(int(rng.integers(spec.n_levels)))
        total = sum(r["qoe"] for r in s.rows)
        decomposed = (sum(r["quality"] for r in s.rows)
                      - sum(r["smoothness_penalty"] for r in s.rows)
                      - 4.3 * sum(r["rebuffer_s"] for r in s.rows))
        assert total == pytest.approx(decomposed, abs=1e-9)

    def test_session_csv(self, tmp_path):
        spec = flat_spec([1.0, 1.0])
        s = AbrSession(spec, np.full(10, 1000.0))
        s.step(0)
        s.step(1)
        path = tmp_path / "session.csv"
        s.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "chunk,level,download_s,rebuffer_s,buffer_s,qoe"


class TestQoe:
    def test_examples(self):
        assert qoe(3.0, 5.0, 0.0, 4.3) == pytest.approx(1.0)
        assert qoe(1.0, 1.0, 2.0, 4.3) == pytest.approx(-7.6)
        assert qoe(7.0, 7.0, 2.0, 0.0) == pytest.approx(7.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigError):
            AbrSession(flat_spec([1.0]), np.full(10, 1000.0), mu=-1.0)


class TestBba:
    def test_reservoir_floor(self):
        assert bba_action(2.0) == 0
        assert bba_action(5.0) == 0

    def test_above_cushion_ceiling(self):
        assert bba_action(20.0) == len(BITRATES_KBPS) - 1
        assert bba_action(15.0) == len(BITRATES_KBPS) - 1

    def test_linear_ladder_midpoint(self):
        ladder = (100, 200, 300, 400, 500, 600)
        assert bba_action(10.0, ladder) == 2

    def test_monotone_in_buffer(self):
        levels = [bba_action(b) for b in np.linspace(0, 25, 200)]
        assert all(a <= b for a, b in zip(levels, levels[1:]))


class TestBandwidthGen:
    def test_sigma_zero_piecewise_constant_at_states(self):
        params = UserGroupParams("t", (500, 1000, 2000), USER_GROUPS["UG1"].kernel,
                                 ou_sigma=0.0, ou_theta=0.3)
        trace = BandwidthGen(params, np.random.default_rng(0)).generate(500)
        assert set(np.unique(trace)) <= {500.0, 1000.0, 2000.0}

    def test_single_state_mean_converges(self):
        params = UserGroupParams("t", (1500,), ((1.0,),), ou_sigma=120.0, ou_theta=0.2)
        trace = BandwidthGen(params, np.random.default_rng(1)).generate(10_000)
        assert abs(trace.mean() - 1500.0) / 1500.0 < 0.05

    def test_ou_overlay_zero_drift_at_coarse_level(self):
        params = UserGroupParams("t", (2000,), ((1.0,),), ou_sigma=100.0, ou_theta=0.25)
        trace = BandwidthGen(params, np.random.default_rng(2)).generate(10_000)
        drift = np.diff(trace).mean()
        assert abs(drift) < 3 * 100.0 / np.sqrt(10_000)

    def test_kernel_rows_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            UserGroupParams("bad", (1, 2), ((0.5, 0.4), (0.5, 0.5)), 10.0, 0.2)

    def test_strictly_positive_output(self):
        params = UserGroupParams("t", (100,), ((1.0,),), ou_sigma=500.0, ou_theta=0.1,
                                 floor_kbps=50.0)
        trace = BandwidthGen(params, np.random.default_rng(3)).generate(2000)
        assert trace.min() >= 50.0

    def test_user_group_qualitative_matrix(self):
        rng = np.random.default_rng(4)
        stats = {}
        for name, params in USER_GROUPS.items():
            session_means, session_stds = [], []
            for _ in range(40):
                tr = BandwidthGen(params, rng).generate(400)
                session_means.append(tr.mean())
                session_stds.append(tr.std())
            stats[name] = {
                "mean": float(np.mean(session_means)),
                "diversity": float(np.std(session_means)),
                "indiv": float(np.median(session_stds)),
            }
        # average bandwidth: UG1 low < UG4 med-low < UG3 medium < UG2 high
        assert stats["UG1"]["mean"] < stats["UG4"]["mean"] < stats["UG3"]["mean"] < stats["UG2"]["mean"]
        assert stats["UG1"]["mean"] < stats["UG5"]["mean"] < stats["UG2"]["mean"]
        # cross-session diversity: UG5 highest everywhere
        assert all(stats["UG5"]["diversity"] > stats[k]["diversity"]
                   for k in ("UG1", "UG2", "UG3", "UG4"))
        assert stats["UG2"]["diversity"] > stats["UG3"]["diversity"]
        # per-trace variance: UG2 lowest, UG1/UG5 high
        assert all(stats["UG2"]["indiv"] < stats[k]["indiv"]
                   for k in ("UG1", "UG3", "UG4", "UG5"))
        assert stats["UG1"]["indiv"] > stats["UG3"]["indiv"]

    def test_bandwidth_csv_roundtrip(self, tmp_path):
        trace = BandwidthGen(USER_GROUPS["UG2"], np.random.default_rng(5)).generate(50)
        path = tmp_path / "bw.csv"
        write_bandwidth_csv(path, trace)
        back = load_bandwidth_csv(path)
        assert np.allclose(back, trace, atol=1e-3)


class TestVideoSpec:
    def test_synth_sizes_monotone(self):
        spec = VideoSpec.synth(seed=6)
        assert np.all(np.diff(spec.sizes_bytes, axis=1) > 0)
        assert spec.n_chunks == 49 and spec.n_levels == 6

    def test_non_monotone_sizes_rejected(self):
        with pytest.raises(ConfigError):
            VideoSpec(4.0, (300, 750), np.array([[100.0, 90.0]]))

    def test_csv_roundtrip(self, tmp_path):
        spec = VideoSpec.synth(seed=7)
        path = tmp_path / "chunks.csv"
        spec.to_csv(path)
        back = VideoSpec.from_csv(path)
        assert np.allclose(back.sizes_bytes, spec.sizes_bytes, rtol=1e-6)


class TestFakeReplayGuard:
    def make_guard(self, **kw):
        kw.setdefault("calibration_epochs", 0)
        kw.setdefault("anneal_epochs", 100)
        g = FakeReplayGuard(**kw)
        g.set_epoch(0)
        return g

    def test_threshold_zero_agent_controls_and_sees_real(self):
        g = self.make_guard()
        g.set_epoch(1000)  # past the anneal
        assert g.threshold() == 0.0
        executed, observed, who = guard_step(g, 7.5, 2, 0, np.random.default_rng(0))
        assert (executed, observed, who) == (2, 7.5, "agent")

    def test_agent_above_threshold_gets_uniform_fiction(self):
        rng = np.random.default_rng(1)
        draws = []
        for _ in range(500):
            g = self.make_guard(cap=8.0)
            executed, observed, who = guard_step(g, 12.0, 3, 0, rng)
            assert who == "agent" and executed == 3
            assert 0.0 <= observed <= 12.0
            draws.append(observed)
        # uniform on [0, 12]: mean 6, sd 12/sqrt(12)
        assert abs(np.mean(draws) - 6.0) < 4 * (12 / np.sqrt(12)) / np.sqrt(500)

    def test_below_threshold_default_controls_real_state(self):
        g = self.make_guard(cap=8.0)
        executed, observed, who = guard_step(g, 3.0, 5, 1, np.random.default_rng(2))
        assert (executed, observed, who) == (1, 3.0, "guard")

    def test_threshold_anneals_to_exactly_zero(self):
        g = FakeReplayGuard(cap=20.0, calibration_epochs=5, anneal_epochs=50)
        for e in range(5):
            g.set_epoch(e)
            g.gate(10.0, np.random.default_rng(0))
            assert g.threshold() == 20.0
        g.set_epoch(5)
        start = g.threshold()
        assert start == min(20.0, 10.0)
        values = []
        for e in range(5, 60):
            g.set_epoch(e)
            values.append(g.threshold())
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_calibration_uses_p99_of_first_episodes(self):
        g = FakeReplayGuard(cap=20.0, calibration_epochs=1, anneal_epochs=10)
        g.set_epoch(0)
        rng = np.random.default_rng(3)
        for b in np.linspace(0, 15, 100):
            g.gate(b, rng)
        g.set_epoch(1)
        assert g.threshold() == pytest.approx(min(20.0, 14.85), abs=0.2)

    def test_fiction_persists_until_real_drops_below_threshold(self):
        g = self.make_guard(cap=8.0)
        rng = np.random.default_rng(4)
        _, obs1, _ = guard_step(g, 12.0, 0, 0, rng)
        fict = g.fict_buffer
        g.note_download(2.0)
        _, obs2, who = guard_step(g, 11.0, 0, 0, rng)
        assert who == "agent"
        assert obs2 == pytest.approx(g.fict_buffer)
        # drop below: guard takes over, fiction cleared
        _, obs3, who = guard_step(g, 3.0, 0, 0, rng)
        assert who == "guard" and obs3 == 3.0 and g.fict_buffer is None

    @settings(max_examples=60, deadline=None)
    @given(start=hst.floats(0.0, MAX_BUFFER_S),
           sizes=hst.lists(hst.floats(0.01, 20.0), min_size=1, max_size=30),
           trace=hst.lists(hst.floats(100.0, 5000.0), min_size=1, max_size=20),
           levels=hst.lists(hst.integers(0, 1), min_size=30, max_size=30))
    def test_fictitious_buffer_follows_the_session(self, start, sizes, trace, levels):
        # the same start buffer and the same downloads: the fiction must
        # rebuffer, drain and cap exactly as the real session does
        s = AbrSession(flat_spec(sizes), np.asarray(trace))
        g = FakeReplayGuard()
        s.buffer_s = g.fict_buffer = start
        for level in levels[:len(sizes)]:
            info = s.step(level)
            assert g.note_download(info["download_s"]) == info["rebuffer_s"]
            assert g.fict_buffer == info["buffer_s"]

    def test_fictitious_buffer_never_above_real_at_assignment(self):
        rng = np.random.default_rng(5)
        for real in np.linspace(0.5, 24.0, 200):
            g = self.make_guard(cap=0.1)
            _, observed, _ = guard_step(g, real, 0, 0, rng)
            assert observed <= real


class TestAbrEnv:
    def test_fiction_never_leaks_into_real_dynamics(self):
        guard = FakeReplayGuard(cap=20.0, calibration_epochs=0, anneal_epochs=10**9)
        guard.set_epoch(0)
        env_g = AbrEnv(USER_GROUPS["UG1"], seed=42, guard=guard)
        guard_rng = np.random.default_rng(999)
        executed, real_buffers = [], []
        for _ in range(120):
            agent_action = 3
            action, _, _ = guard_step(guard, env_g.real_buffer(), agent_action,
                                      env_g.default_action(), guard_rng)
            res = env_g.step(action)
            executed.append(action)
            real_buffers.append(res.stats["buffer_s"])

        env_plain = AbrEnv(USER_GROUPS["UG1"], seed=42, guard=None)
        for action, want in zip(executed, real_buffers):
            res = env_plain.step(action)
            assert res.stats["buffer_s"] == pytest.approx(want, abs=1e-12)

    def test_observation_width_and_scaling(self):
        env = AbrEnv(USER_GROUPS["UG3"], seed=0)
        assert env.obs_dim == 2 * 9 + 3 + 6
        obs = env.observe()
        assert obs.shape == (27,)
        res = env.step(2)
        assert res.obs.shape == (27,)
        assert np.all(np.isfinite(res.obs))

    def test_done_flag_at_session_end(self):
        env = AbrEnv(USER_GROUPS["UG3"], seed=1)
        dones = []
        for _ in range(env.spec.n_chunks):
            dones.append(env.step(0).done)
        assert dones[-1] and not any(dones[:-1])

    def test_workload_features_shape(self):
        env = AbrEnv(USER_GROUPS["UG2"], seed=2)
        for _ in range(30):
            env.step(1)
        feats = env.workload_features()
        assert feats.shape == (4,)
        assert feats[0] > 0 and feats[2] > 0
