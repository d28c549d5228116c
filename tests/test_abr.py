"""ABR environment correctness: buffer equation, QoE, BBA, bandwidth
generation, and the fake-replay safeguard (driven per chunk by the harness's
ABR case, its only owner).

Oracle for the buffer dynamics: an independently coded single-step update
applied alongside the session."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nonstat_rl.abr import (BITRATES_KBPS, CHUNK_S, DEFAULT_MU, HISTORY_K,
                            MAX_BUFFER_S, USER_GROUPS, AbrEnv, AbrSession,
                            BandwidthGen, FakeReplayGuard, UserGroupParams,
                            VideoSpec, _sticky, bba_action, buffer_step, guard_step,
                            qoe)
from nonstat_rl.errors import ConfigError
from nonstat_rl.harness import _Abr, abr_defaults, scenario_stationary


def flat_spec(sizes_s, bandwidth_kbps=1000.0, n_levels=2):
    """Chunks whose level sizes download in exactly `sizes_s` seconds at the
    reference bandwidth (level k takes k+1 times as long)."""
    rows = []
    for s in sizes_s:
        base = s * bandwidth_kbps * 1000.0 / 8.0
        rows.append([base * (k + 1) for k in range(n_levels)])
    return VideoSpec(4.0, tuple(300 * (k + 1) for k in range(n_levels)), np.array(rows))


def guarded_case(guard, seed=0):
    """The harness's ABR case on UG1 in epoch 0, owning `guard`."""
    case = _Abr(abr_defaults(scenario_stationary("UG1", 1), seed=seed),
                guard_rng=np.random.default_rng(999))
    case.guard = guard
    case.start_epoch("UG1", 0)
    return case


def with_fiction(fict):
    """A guard leaving the agent in control while the real buffer is at
    least 1e-9 s, with a fiction of `fict` s already active."""
    g = FakeReplayGuard(cap=1e-9, calibration_epochs=0)
    g.controller, g.fict_buffer = "agent", fict
    return g


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
        rows = []
        while not s.done:
            rows.append(s.step(int(rng.integers(spec.n_levels))))
        total = sum(r["qoe"] for r in rows)
        decomposed = (sum(r["quality"] for r in rows)
                      - sum(r["smoothness_penalty"] for r in rows)
                      - 4.3 * sum(r["rebuffer_s"] for r in rows))
        assert total == pytest.approx(decomposed, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(trace=hst.lists(hst.floats(50.0, 10000.0), min_size=1, max_size=60),
           levels=hst.lists(hst.integers(0, len(BITRATES_KBPS) - 1),
                            min_size=1, max_size=49))
    def test_session_buffer_rebuffer_and_clock_stay_in_range(self, trace, levels):
        s = AbrSession(VideoSpec.synth(seed=0), np.asarray(trace))
        clock = s.clock_s
        for level in levels:
            info = s.step(level)
            assert 0.0 <= s.buffer_s <= MAX_BUFFER_S
            assert info["rebuffer_s"] >= 0.0
            assert s.clock_s >= clock
            clock = s.clock_s

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

    # each of these used to be accepted and then misread by the generator
    @pytest.mark.parametrize("field,value", [
        ("ou_sigma", -1.0),      # drew no noise at all
        ("dwell_s", 0.5),        # became a 1 s dwell
        ("dwell_s", 2.5),        # became a 2 s dwell
        ("floor_kbps", 0.0),     # let a trace reach 0, failing a later session
    ])
    def test_misread_parameters_rejected(self, field, value):
        kw = {"ou_sigma": 10.0, "ou_theta": 0.2, field: value}
        with pytest.raises(ConfigError):
            UserGroupParams("bad", (1000,), ((1.0,),), **kw)

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


class TestBandwidthDistribution:
    """Seeded checks that a trace follows its preset's Markov chain and OU
    overlay. Margins were fixed from each statistic's standard error before
    the first run (about 4-7 standard errors)."""

    @pytest.mark.parametrize("theta", [0.2, 0.5])
    def test_single_state_lag1_autocorrelation_is_one_minus_theta(self, theta):
        # one state far above the floor: the trace is the level plus an AR(1)
        # with coefficient 1 - theta (standard error about 0.006 at 20,000 s)
        params = UserGroupParams("t", (2000,), ((1.0,),), ou_sigma=100.0, ou_theta=theta)
        x = BandwidthGen(params, np.random.default_rng(11)).generate(20_000)
        assert x.min() > params.floor_kbps
        x = x - x.mean()
        r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(r1 - (1.0 - theta)) < 0.03

    def test_sigma_zero_time_share_is_the_stationary_distribution(self):
        # 10,000 dwells; the share's standard error is about 0.011
        kernel = ((0.8, 0.15, 0.05), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6))
        states = (500, 1000, 2000)
        params = UserGroupParams("t", states, kernel, ou_sigma=0.0, ou_theta=0.3)
        trace = BandwidthGen(params, np.random.default_rng(12)).generate(40_000)
        share = np.array([np.mean(trace == s) for s in states])
        assert share.sum() == 1.0
        # stationary pi solves pi K = pi, sum(pi) = 1
        k = np.asarray(kernel)
        a = np.vstack([k.T - np.eye(3), np.ones(3)])
        pi = np.linalg.lstsq(a, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
        assert np.all(np.abs(share - pi) < 0.05)

    def test_state_changes_only_at_dwell_boundaries_with_geometric_runs(self):
        # stay 0.75: runs of 1 / (1 - 0.75) = 4 dwells on average; about
        # 2,000 runs, so the mean's standard error is about 0.08
        dwell, stay = 5, 0.75
        params = UserGroupParams("t", (500, 1000, 2000), _sticky(3, stay), ou_sigma=0.0,
                                 ou_theta=0.3, dwell_s=dwell)
        trace = BandwidthGen(params, np.random.default_rng(13)).generate(40_000)
        changes = np.flatnonzero(np.diff(trace)) + 1
        assert len(changes) > 1000
        assert np.all(changes % dwell == 0)
        runs_s = np.diff(np.concatenate([[0], changes, [len(trace)]]))
        assert abs(runs_s.mean() / dwell - 1.0 / (1.0 - stay)) < 0.4

    @pytest.mark.parametrize("name", sorted(USER_GROUPS))
    def test_user_group_mean_is_the_state_mean_plus_the_floor_term(self, name):
        # A session starts from a uniform state, the stationary distribution
        # of every symmetric `_sticky` kernel, so each second's level is
        # uniform over the states. The OU term y_t is N(0, v_t), independent
        # of the level, with v_t its variance t seconds in. So a second's
        # expected bandwidth is the mean over levels L of
        # E[max(floor, L + y_t)] = L + a Phi(a / s) + s phi(a / s), with
        # a = floor - L and s = sqrt(v_t). A session's mean varies no more
        # than one second does, whose variance is below var(states) +
        # sigma^2 / (theta (2 - theta)); the margin is 4 such standard errors.
        p = USER_GROUPS[name]
        seconds, sessions = 200, 400
        gen = BandwidthGen(p, np.random.default_rng(21))
        got = np.mean([gen.generate(seconds).mean() for _ in range(sessions)])
        decay = (1.0 - p.ou_theta) ** 2
        want = 0.0
        for t in range(1, seconds + 1):
            s = p.ou_sigma * math.sqrt((1.0 - decay**t) / (1.0 - decay))
            for level in p.states_kbps:
                a = p.floor_kbps - level
                cdf = 0.5 * (1.0 + math.erf(a / s / math.sqrt(2.0)))
                pdf = math.exp(-0.5 * (a / s) ** 2) / math.sqrt(2.0 * math.pi)
                want += level + a * cdf + s * pdf
        want /= seconds * len(p.states_kbps)
        se = math.sqrt((np.var(p.states_kbps) + p.ou_sigma**2 / (1.0 - decay)) / sessions)
        assert abs(got - want) < 4 * se


class TestVideoSpec:
    def test_synth_sizes_monotone(self):
        spec = VideoSpec.synth(seed=6)
        assert np.all(np.diff(spec.sizes_bytes, axis=1) > 0)
        assert spec.n_chunks == 49 and spec.n_levels == 6

    def test_non_monotone_sizes_rejected(self):
        with pytest.raises(ConfigError):
            VideoSpec(4.0, (300, 750), np.array([[100.0, 90.0]]))

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
        executed, who = guard_step(g, 7.5, 2, 0, np.random.default_rng(0))
        assert (executed, who) == (2, "agent")
        assert g.fict_buffer is None

    def test_agent_above_threshold_gets_uniform_fiction(self):
        rng = np.random.default_rng(1)
        draws = []
        for _ in range(500):
            g = self.make_guard(cap=8.0)
            executed, who = guard_step(g, 12.0, 3, 0, rng)
            assert who == "agent" and executed == 3
            assert 0.0 <= g.fict_buffer <= 12.0
            draws.append(g.fict_buffer)
        # uniform on [0, 12]: mean 6, sd 12/sqrt(12)
        assert abs(np.mean(draws) - 6.0) < 4 * (12 / np.sqrt(12)) / np.sqrt(500)

    def test_below_threshold_default_controls_real_state(self):
        g = self.make_guard(cap=8.0)
        executed, who = guard_step(g, 3.0, 5, 1, np.random.default_rng(2))
        assert (executed, who) == (1, "guard")
        assert g.fict_buffer is None

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
        guard_step(g, 12.0, 0, 0, rng)
        g.note_download(2.0, 4.0)
        advanced = g.fict_buffer
        _, who = guard_step(g, 11.0, 0, 0, rng)
        assert who == "agent"
        assert g.fict_buffer == advanced  # kept, not redrawn
        # drop below: guard takes over, fiction cleared
        _, who = guard_step(g, 3.0, 0, 0, rng)
        assert who == "guard" and g.fict_buffer is None

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
            assert g.note_download(info["download_s"], s.spec.chunk_s) == info["rebuffer_s"]
            assert g.fict_buffer == info["buffer_s"]

    def test_fictitious_buffer_never_above_real_at_assignment(self):
        rng = np.random.default_rng(5)
        for real in np.linspace(0.5, 24.0, 200):
            g = self.make_guard(cap=0.1)
            guard_step(g, real, 0, 0, rng)
            assert g.fict_buffer <= real


class TestAbrEnv:
    def test_fiction_never_leaks_into_real_dynamics(self):
        # the guarded case's real chunks are those of a plain environment
        # replaying the executed actions
        guard = FakeReplayGuard(cap=8.0, calibration_epochs=0, anneal_epochs=10**9)
        case = guarded_case(guard, seed=42)
        executed, fictions = [], 0
        for _ in range(120):
            action, _, _, _, _ = case.window(lambda: 0)
            executed.append(action)
            fictions += guard.fict_buffer is not None
        assert 0 < fictions < 120 and len(set(executed)) > 1
        qoe_real, rebuffer_real = case._qoe, case._rebuffer

        env_plain = AbrEnv(USER_GROUPS["UG1"], seed=42)
        infos = [env_plain.step(action)[0] for action in executed]
        assert [info["qoe"] for info in infos] == qoe_real
        assert sum(info["rebuffer_s"] for info in infos) == rebuffer_real

    def test_fiction_follows_the_spec_chunk_length(self):
        # 2 s chunks at level 0 download in 0.2 s on a flat 3,000 kbps trace;
        # real and fictitious buffers start at 0.1 s (a 0.1 s rebuffer) and
        # must stay equal under the case's chunk loop
        sizes = np.tile(np.asarray(BITRATES_KBPS) * 1000.0 / 8.0 * 2.0, (4, 1))
        spec = VideoSpec(2.0, BITRATES_KBPS, sizes)
        guard = with_fiction(0.1)
        case = guarded_case(guard)
        case.env = env = AbrEnv(USER_GROUPS["UG1"], spec=spec)
        env.session = AbrSession(spec, np.full(100, 3000.0))
        env.session.buffer_s = 0.1
        for want in (2.0, 3.8, 5.6):
            _, who, reward, obs, _ = case.window(lambda: 0)
            assert who == "agent"
            assert env.session.buffer_s == pytest.approx(want)
            assert guard.fict_buffer == env.session.buffer_s
            assert reward == case._qoe[-1]  # the same rebuffer, real and fictitious
        assert case._rebuffer == pytest.approx(0.1)

    def test_observation_width_and_scaling(self):
        env = AbrEnv(USER_GROUPS["UG3"], seed=0)
        assert env.obs_dim == 2 * 9 + 3 + 6
        obs = env.observe()
        assert obs.shape == (27,)
        info, _ = env.step(2)
        obs = env.observe()
        assert obs.shape == (27,)
        assert np.all(np.isfinite(obs))
        assert obs[2 * HISTORY_K] == info["buffer_s"] / MAX_BUFFER_S
        assert env.observe(5.0)[2 * HISTORY_K] == 5.0 / MAX_BUFFER_S

    def test_done_flag_at_session_end(self):
        env = AbrEnv(USER_GROUPS["UG3"], seed=1)
        dones = []
        for _ in range(env.spec.n_chunks):
            dones.append(env.step(0)[1])
        assert dones[-1] and not any(dones[:-1])
        assert env.session.chunk == 0  # a new session has started

    def test_workload_features_shape(self):
        env = AbrEnv(USER_GROUPS["UG2"], seed=2)
        for _ in range(30):
            env.step(1)
        feats = env.workload_features()
        assert feats.shape == (4,)
        assert feats[0] > 0 and feats[2] > 0


class TestGuardedWindow:
    def test_active_fiction_sets_reward_and_observation_but_not_the_metric(self):
        # real buffer 10 s, fiction 0 s: a top-level chunk on UG1 rebuffers
        # in both, longer in the fiction
        case = guarded_case(with_fiction(0.0), seed=3)
        case.env.session.buffer_s = 10.0
        action, who, reward, obs, done = case.window(lambda: 5)
        assert (action, who, done) == (5, "agent", False)

        plain = AbrEnv(USER_GROUPS["UG1"], seed=3)
        plain.session.buffer_s = 10.0
        info, _ = plain.step(5)
        fict_rebuffer, fict_buffer, _ = buffer_step(0.0, info["download_s"], CHUNK_S)
        assert fict_rebuffer > info["rebuffer_s"] > 0
        assert reward == qoe(info["quality"], info["quality_prev"], fict_rebuffer,
                             DEFAULT_MU)
        assert case.guard.fict_buffer == fict_buffer
        assert obs[2 * HISTORY_K] == fict_buffer / MAX_BUFFER_S
        assert case.end_epoch() == (info["qoe"], info["rebuffer_s"])
