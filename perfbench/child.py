"""One benchmark run in a fresh interpreter; `run.py` starts it.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR [DWELL]

MODE is `setup` (stop at the start of the first epoch), `run` (one untraced
`run_experiment`) or `trace` (the same run with every layer wrapped in
spans). The last line of standard output is one JSON object.

The untraced modes record only one timestamp per epoch, taken when the loop
activates the epoch's expert (`ExpertManager.signal`, called exactly once per
epoch), so the epoch boundaries are the only thing the benchmark adds.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class SetupDone(Exception):
    """Raised at the first epoch's start to end a `setup` run."""


def main(argv):
    mode, workload, seed, out_dir = argv[:4]
    dwell = int(argv[4]) if len(argv) > 4 else None

    from nonstat_rl import framework, harness

    if not os.path.abspath(harness.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"nonstat_rl imported from {harness.__file__}, not this checkout")
    import workloads

    stamps = []
    if mode in ("setup", "run"):
        signal = framework.ExpertManager.signal

        def stamped_signal(self, env_index):
            rec = signal(self, env_index)
            stamps.append(time.perf_counter())
            if mode == "setup":
                raise SetupDone
            return rec

        framework.ExpertManager.signal = stamped_signal

    cfg = workloads.build_config(harness, workload, int(seed), out_dir, dwell)
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    try:
        harness.run_experiment(cfg)
    except SetupDone:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"first_epoch": stamps[0], "python": sys.version.split()[0],
                "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    t1 = time.perf_counter()

    import resource
    out = {"run_s": t1 - t0, "epochs": cfg.scenario.total_epochs,
           "episode_len": cfg.episode_len,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "paper_steps": workloads.paper_scale_steps(harness, cfg)}
    if mode == "trace":
        spans = tracer.save(out_dir + ".spans.npz")
        out["layers"] = tracing.layer_metrics(tracer, spans)
    else:
        out["stamps"] = stamps
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
