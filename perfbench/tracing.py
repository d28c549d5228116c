"""Spans around each layer's public calls, installed from outside the program.

`install(tracer)` replaces public methods of the layer classes (and the module
functions the harness looks up at call time) with wrappers that record one
span per call: name, start, end, parent span and agent-step index. Nothing
under `src/` changes. Spans stay in memory until `Tracer.save` writes them
once, after the run, and `layer_metrics` turns them into the per-layer
metrics listed in `PER_CALL`, `ONE_OFF` and `SPLIT`.
"""

import math
import time

import numpy as np

ROOT_SPAN = "harness.run_experiment"

# Spans reported with calls, self share and per-call p50/p99 in microseconds.
PER_CALL = (
    "straggler.step", "straggler.workload_features",
    "abr.env_step", "abr.bandwidth_generate", "abr.workload_features",
    "abr.guard_step",
    "nets.forward", "nets.forward_batch", "nets.forward_train", "nets.backward",
    "nets.adam_step",
    "a2c.act", "a2c.update",
    "dqn.act", "dqn.train_from",
    "replay.insert", "replay.sample",
    "framework.gmm_classify", "framework.gmm_posterior", "framework.monitor_step",
)
# Spans that run about once per run, reported as total ms and self share.
ONE_OFF = ("harness.write_artifacts", "framework.gmm_fit")
# `straggler.step` is recorded under these two names, split by whether the
# action's hedge timeout is finite.
SPLIT = {"straggler.step": ("straggler.step_hedging", "straggler.step_nohedge")}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, step index]
        self.stack = []
        self.steps = 0    # environment steps finished so far
        self.counts = {}
        self.sims = []
        self._session = None

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, inner_of=None, note=None, env_step=False):
        """`fn` recording a span per call. `name` may be a function of the
        call's arguments. A call made from inside a span whose name starts
        with `inner_of` records nothing: it is that span's own work. `note`
        sees the arguments before the call; `env_step` counts the call as
        one agent decision."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapped(*args, **kwargs):
            if inner_of and stack and spans[stack[-1]][0].startswith(inner_of):
                return fn(*args, **kwargs)
            if note is not None:
                note(args)
            rec = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                   stack[-1] if stack else -1, self.steps]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if env_step:
                    self.steps += 1

        return wrapped

    def arrays(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name_idx": np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            "start": np.array([s[1] for s in self.spans]),
            "end": np.array([s[2] for s in self.spans]),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
            "step": np.array([s[4] for s in self.spans], dtype=np.int64),
        }

    def save(self, path):
        """Write the spans once, after the run; returns them as arrays."""
        arr = self.arrays()
        np.savez_compressed(path, **arr)
        return arr

    # -- counts read from the program's own objects ---------------------------
    def session_started(self, session):
        """Called on each new ABR session; the previous one has finished."""
        if self._session is not None:
            self.add("abr.seconds_used", self._session.clock_s)
        self._session = session

    def finish(self):
        self.session_started(None)
        for sim in self.sims:
            self.add("straggler.arrivals", sim.arrived_total)
            self.add("straggler.events", sim.arrived_total + sim.completed_total
                     + sim.hedges_total)
            self.add("straggler.hedges", sim.hedges_total)


def _register(cls, hook):
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        hook(self)

    cls.__init__ = __init__


def install(tracer):
    """Wrap every traced call of the `nonstat_rl` layers in this process."""
    from nonstat_rl import a2c, abr, dqn, framework, harness, nets, replay, straggler

    t = tracer
    harness.run_experiment = t.wrap(ROOT_SPAN, harness.run_experiment)
    harness._write_artifacts = t.wrap("harness.write_artifacts",
                                      harness._write_artifacts)

    sim = straggler.StragglerSim
    hedge_name = lambda a: ("straggler.step_hedging"
                            if math.isfinite(a[0].timeouts[a[1]])
                            else "straggler.step_nohedge")
    sim.step = t.wrap(hedge_name, sim.step, env_step=True)
    sim.workload_features = t.wrap("straggler.workload_features",
                                   sim.workload_features)
    _register(sim, t.sims.append)

    abr.AbrEnv.step = t.wrap("abr.env_step", abr.AbrEnv.step, env_step=True)
    abr.AbrEnv.workload_features = t.wrap("abr.workload_features",
                                          abr.AbrEnv.workload_features)
    abr.BandwidthGen.generate = t.wrap(
        "abr.bandwidth_generate", abr.BandwidthGen.generate,
        note=lambda a: t.add("abr.seconds_generated", int(a[1])))
    abr.guard_step = t.wrap("abr.guard_step", abr.guard_step)
    _register(abr.AbrSession, t.session_started)

    def by_rows(a):
        return "nets.forward" if np.ndim(a[1]) == 1 else "nets.forward_batch"

    for cls in (nets.Mlp, nets.DeepSetsEncoder):
        cls.forward = t.wrap(by_rows, cls.forward, inner_of="nets.")
        cls.forward_train = t.wrap("nets.forward_train", cls.forward_train, inner_of="nets.")
        cls.backward = t.wrap("nets.backward", cls.backward, inner_of="nets.")
    nets.Adam.step = t.wrap("nets.adam_step", nets.Adam.step, inner_of="nets.")

    a2c.A2cLearner.act = t.wrap("a2c.act", a2c.A2cLearner.act)
    a2c.A2cLearner.update = t.wrap(
        "a2c.update", a2c.A2cLearner.update,
        note=lambda a: t.add("a2c.steps", a[1].n_steps()))
    dqn.DqnLearner.act = t.wrap("dqn.act", dqn.DqnLearner.act)
    dqn.DqnLearner.train_from = t.wrap("dqn.train_from", dqn.DqnLearner.train_from)

    for cls in set(replay.STRATEGIES.values()):
        if "insert" in vars(cls):
            cls.insert = t.wrap("replay.insert", cls.insert)
        if "sample" in vars(cls):
            cls.sample = t.wrap("replay.sample", cls.sample,
                                note=lambda a: t.add("replay.sampled", a[1]))

    gmm = framework.GmmDetector
    gmm.classify = t.wrap("framework.gmm_classify", gmm.classify)
    gmm.posterior = t.wrap("framework.gmm_posterior", gmm.posterior)
    gmm.fit = t.wrap("framework.gmm_fit", gmm.fit)
    framework.SafetyMonitor.step = t.wrap("framework.monitor_step",
                                          framework.SafetyMonitor.step)


def self_times(arr):
    """(per-span self time, root index, loop self time).

    A span's self time is its duration minus the time its child spans cover.
    The loop's self time is computed independently, as the root span's
    duration minus the union of its children's intervals, so a mis-nested
    span shows up as a mismatch between the two.
    """
    start, end, parent = arr["start"], arr["end"], arr["parent"]
    dur = end - start
    roots = np.flatnonzero(parent < 0)
    if len(roots) != 1 or str(arr["names"][arr["name_idx"][roots[0]]]) != ROOT_SPAN:
        raise RuntimeError(f"expected one {ROOT_SPAN} root span, got {len(roots)}")
    root = int(roots[0])
    child = parent >= 0
    cover = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    own = dur - cover

    kids = np.flatnonzero(parent == root)
    covered, reach = 0.0, -math.inf
    for s, e in sorted(zip(start[kids], end[kids])):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return own, root, float(dur[root] - covered)


def layer_metrics(tracer, arr):
    """Per-layer metrics of a finished traced run whose spans are `arr`, as
    {name: (value, unit)}."""
    tracer.finish()
    own, root, loop_self = self_times(arr)
    dur = arr["end"] - arr["start"]
    wall = float(dur[root])
    names = [str(n) for n in arr["names"]]
    idx = arr["name_idx"]

    def mask(name):
        parts = SPLIT.get(name, (name,))
        return np.isin(idx, [names.index(p) for p in parts if p in names])

    out = {}
    for name in PER_CALL:
        m = mask(name)
        d = dur[m] * 1e6
        out[f"{name}.calls"] = (int(m.sum()), "count")
        out[f"{name}.self_share"] = (float(own[m].sum()) / wall, "ratio")
        out[f"{name}.us_p50"] = (float(np.percentile(d, 50)) if d.size else 0.0, "us")
        out[f"{name}.us_p99"] = (float(np.percentile(d, 99)) if d.size else 0.0, "us")
    for name in ONE_OFF:
        m = mask(name)
        out[f"{name}.ms"] = (float(dur[m].sum()) * 1e3, "ms")
        out[f"{name}.self_share"] = (float(own[m].sum()) / wall, "ratio")
    for parts in SPLIT.values():
        for name in parts:
            m = mask(name)
            d = dur[m] * 1e6
            out[f"{name}.calls"] = (int(m.sum()), "count")
            out[f"{name}.us_p50"] = (float(np.percentile(d, 50)) if d.size else 0.0, "us")

    c = tracer.counts
    calls = lambda n: out[f"{n}.calls"][0]
    ratio = lambda num, den: num / den if den else 0.0
    steps = calls("straggler.step")
    out["straggler.arrivals"] = (c.get("straggler.arrivals", 0), "count")
    out["straggler.events_per_step"] = (ratio(c.get("straggler.events", 0), steps),
                                        "events/step")
    out["straggler.hedges_per_arrival"] = (
        ratio(c.get("straggler.hedges", 0), c.get("straggler.arrivals", 0)),
        "hedges/arrival")
    generated = c.get("abr.seconds_generated", 0)
    out["abr.bandwidth_generated_s"] = (generated, "s")
    out["abr.bandwidth_used_ratio"] = (ratio(c.get("abr.seconds_used", 0.0), generated),
                                       "ratio")
    out["a2c.steps_per_update"] = (ratio(c.get("a2c.steps", 0), calls("a2c.update")),
                                   "steps/update")
    out["replay.sampled_per_inserted"] = (
        ratio(c.get("replay.sampled", 0), calls("replay.insert")), "samples/insert")
    out["framework.gmm_posterior_per_window"] = (
        ratio(calls("framework.gmm_posterior"), calls("framework.gmm_classify")),
        "calls/window")
    out["harness.loop.self_share"] = (loop_self / wall, "ratio")
    out["harness.run_ms"] = (wall * 1e3, "ms")
    return out
