"""The ABR chunk path against straightforward reference implementations.

`reference_generate` is the per-second bandwidth loop (one Python iteration
and one draw per trace second) and `ReferenceObserver` the list-and-
concatenate observation. The environment's own code must match them bit for
bit and leave the random stream where they leave it, so a faster chunk path
can never move an ABR digest unnoticed."""

import numpy as np
import pytest

from nonstat_rl.abr import (HISTORY_K, MAX_BUFFER_S, SESSION_TRACE_S, USER_GROUPS,
                            AbrEnv, BandwidthGen, UserGroupParams, _sticky)


def reference_generate(gen, duration_s):
    """`duration_s` seconds of trace, drawn one second at a time from
    `gen`'s generator: a uniform initial state, then at every `dwell_s`
    boundary one `random()` for the next state, and every second one OU
    step with one `standard_normal()`."""
    p = gen.params
    n_states = len(p.states_kbps)
    state = int(gen.rng.integers(n_states))
    out = np.empty(int(duration_s))
    y = 0.0
    dwell = max(1, int(p.dwell_s))
    for t in range(len(out)):
        if t and t % dwell == 0:
            state = int(np.searchsorted(gen.cum[state], gen.rng.random()))
        level = p.states_kbps[state]
        y += p.ou_theta * (0.0 - y)
        if p.ou_sigma > 0:
            y += p.ou_sigma * gen.rng.standard_normal()
        out[t] = max(p.floor_kbps, level + y)
    return out


PRESETS = dict(USER_GROUPS)
# no OU noise: the state draws alone make the stream
PRESETS["sigma0"] = UserGroupParams("sigma0", (600, 1400, 3000), _sticky(3, 0.7),
                                    ou_sigma=0.0, ou_theta=0.3)
# 1,600 s is not a multiple of 3 s, so the last dwell is cut short
PRESETS["dwell3"] = UserGroupParams("dwell3", (800, 2000), _sticky(2, 0.6),
                                    ou_sigma=150.0, ou_theta=0.25, dwell_s=3)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_generate_matches_the_per_second_loop(name):
    params = PRESETS[name]
    for seed in (0, 1, 2, 29):
        fast = BandwidthGen(params, np.random.default_rng(seed))
        slow = BandwidthGen(params, np.random.default_rng(seed))
        for duration in (SESSION_TRACE_S, SESSION_TRACE_S, 7, SESSION_TRACE_S):
            got = fast.generate(duration)
            want = reference_generate(slow, duration)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
        assert fast.rng.random() == slow.rng.random()
        assert fast.rng.standard_normal() == slow.rng.standard_normal()


class ReferenceObserver:
    """The observation rebuilt from the chunk records alone: the last
    HISTORY_K download times and throughputs (zeros at a session's start),
    then the buffer, chunks left, previous level and next chunk's sizes."""

    def __init__(self):
        self.downloads = [0.0] * HISTORY_K
        self.tputs = [0.0] * HISTORY_K

    def note(self, info, done):
        if done:
            self.__init__()
            return
        self.downloads.pop(0)
        self.downloads.append(info["download_s"])
        self.tputs.pop(0)
        self.tputs.append(info["throughput_kbps"])

    def observe(self, env, observed_buffer=None):
        session, spec = env.session, env.spec
        buf = session.buffer_s if observed_buffer is None else observed_buffer
        next_sizes = spec.sizes_bytes[min(session.chunk, spec.n_chunks - 1)]
        size_scale = spec.bitrates_kbps[-1] * 1000.0 / 8.0 * spec.chunk_s
        return np.concatenate([
            np.asarray(self.downloads) / 10.0,
            np.asarray(self.tputs) / 5000.0,
            [buf / MAX_BUFFER_S,
             (spec.n_chunks - session.chunk) / spec.n_chunks,
             session.prev_level / (spec.n_levels - 1)],
            next_sizes / size_scale,
        ])


@pytest.mark.parametrize("group,seed", [("UG1", 0), ("UG2", 5), ("UG5", 29)])
def test_observe_matches_the_concatenated_lists(group, seed):
    env = AbrEnv(USER_GROUPS[group], seed=seed)
    ref = ReferenceObserver()
    rng = np.random.default_rng(seed + 100)
    sessions = 0
    while sessions < 3:
        for shown in (None, float(rng.uniform(0.0, MAX_BUFFER_S))):
            got = env.observe(shown)
            want = ref.observe(env, shown)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        info, done = env.step(int(rng.integers(env.spec.n_levels)))
        ref.note(info, done)
        sessions += done
    # observations are copies: changing one leaves the next unchanged
    obs = env.observe()
    obs[:] = -1.0
    assert env.observe().tobytes() == ref.observe(env).tobytes()
