"""The ABR chunk path against straightforward reference implementations.

`reference_generate` is the per-second bandwidth loop (one Python iteration
and one draw per trace second) and `ReferenceObserver` the list-and-
concatenate observation. The environment's own code must match them bit for
bit and leave the random stream where they leave it, so a faster chunk path
can never move an ABR digest unnoticed. A session draws its trace in blocks
as it reads it; the blocks must join into the reference stream, and the
session must download over them as it would over the trace drawn up front."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nonstat_rl.abr import (BLOCK_S, CHUNK_S, HISTORY_K, MAX_BUFFER_S, USER_GROUPS,
                            AbrEnv, AbrSession, BandwidthGen, UserGroupParams, VideoSpec,
                            _sticky)


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
    """Independent traces, one generator each on a shared rng."""
    params = PRESETS[name]
    for seed in (0, 1, 2, 29):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for duration in (1600, 1600, 7, 1600):
            got = BandwidthGen(params, fast).generate(duration)
            want = reference_generate(BandwidthGen(params, slow), duration)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.random() == slow.random()
        assert fast.standard_normal() == slow.standard_normal()


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)), seed=st.integers(0, 2**32 - 1),
       blocks=st.lists(st.integers(1, 5) | st.integers(6, 2 * BLOCK_S),
                       min_size=1, max_size=12))
@example(name="dwell3", seed=0, blocks=[1] * 10)       # every second its own block
@example(name="UG1", seed=1, blocks=[2, 3, 3, 5, 1])   # splits inside dwells
@example(name="sigma0", seed=2, blocks=[BLOCK_S] * 4)
def test_blocks_join_into_one_stream(name, seed, blocks):
    """A trace drawn in blocks of any lengths, joined, is the trace drawn
    in one piece, and leaves the generator in the same state."""
    params = PRESETS[name]
    gen = BandwidthGen(params, np.random.default_rng(seed))
    parts = [gen.generate(n) for n in blocks]
    assert [len(part) for part in parts] == blocks
    slow = BandwidthGen(params, np.random.default_rng(seed))
    want = reference_generate(slow, sum(blocks))
    assert np.concatenate(parts).tobytes() == want.tobytes()
    assert gen.rng.bit_generator.state == slow.rng.bit_generator.state


def record(info):
    """A chunk record with each value as its exact hex."""
    return {k: float(v).hex() for k, v in info.items()}


def records(session, levels):
    return [record(session.step(int(level))) for level in levels]


@pytest.mark.parametrize("group,seed", [("UG1", 0), ("UG2", 5), ("UG3", 7), ("UG5", 29)])
def test_lazy_session_matches_the_trace_drawn_up_front(group, seed):
    spec = VideoSpec.synth(seed=0)
    levels = np.random.default_rng(seed + 1).integers(spec.n_levels, size=spec.n_chunks)
    params = USER_GROUPS[group]
    lazy = AbrSession(spec, BandwidthGen(params, np.random.default_rng(seed)))
    drawn = AbrSession(spec, BandwidthGen(params, np.random.default_rng(seed)).generate(1600))
    assert records(lazy, levels) == records(drawn, levels)
    assert 2 * BLOCK_S < lazy.clock_s < 1600


@pytest.mark.parametrize("group,seed", [("UG1", 3), ("UG2", 4), ("UG4", 8), ("UG5", 9)])
def test_each_session_draws_less_than_it_reads_plus_a_block(group, seed, monkeypatch):
    """Seconds read are the session's final clock, as the benchmark's
    tracer counts them. The last chunk's idle time (at most a chunk)
    moves the clock past the last second read without reading it."""
    generate, drawn = BandwidthGen.generate, [0]

    def counted(gen, seconds):
        drawn[0] += int(seconds)
        return generate(gen, seconds)

    monkeypatch.setattr(BandwidthGen, "generate", counted)
    env = AbrEnv(USER_GROUPS[group], seed=seed)
    rng = np.random.default_rng(seed)
    start, sessions = 0, 0
    while sessions < 6:
        session = env.session
        _, done = env.step(int(rng.integers(env.spec.n_levels)))
        if done:
            got = drawn[0] - start
            assert got % BLOCK_S == 0
            assert session.clock_s - CHUNK_S < got < session.clock_s + BLOCK_S
            start, sessions = drawn[0], sessions + 1


def test_a_session_past_1600_s_reads_fresh_bandwidth():
    """A trace drawn up front to 1,600 s is replayed from its start after
    1,600 s. A session fed as it reads draws new seconds instead: those of
    a longer trace drawn up front."""
    slow = UserGroupParams("slow", (30,), ((1.0,),), ou_sigma=3.0, ou_theta=0.2,
                           floor_kbps=10.0)
    spec = VideoSpec.synth(seed=0)
    lazy, long, short = (AbrSession(spec, trace) for trace in (
        BandwidthGen(slow, np.random.default_rng(6)),
        BandwidthGen(slow, np.random.default_rng(6)).generate(4000),
        BandwidthGen(slow, np.random.default_rng(6)).generate(1600)))
    diverged, past = False, 0
    while not lazy.done:
        start = lazy.clock_s
        got = record(lazy.step(0))
        assert got == record(long.step(0))
        replayed = record(short.step(0))
        if start + float.fromhex(got["download_s"]) <= 1600:
            assert replayed == got
        elif not diverged:  # the first chunk that reads past 1,600 s
            assert replayed != got
            diverged = True
        past += start > 1600
    assert diverged and past >= 4 and lazy.clock_s < 4000


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
