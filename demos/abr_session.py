"""One video session, chunk by chunk.

Streams the 49-chunk synthetic video over a UG3 bandwidth draw under the
buffer-based default policy, prints the per-chunk log, and shows the QoE
decomposition (quality - smoothness - rebuffer penalty).

Run: python demos/abr_session.py
"""

import numpy as np

from nonstat_rl.abr import USER_GROUPS, AbrSession, BandwidthGen, VideoSpec, bba_action

spec = VideoSpec.synth(seed=0)
trace = BandwidthGen(USER_GROUPS["UG3"], np.random.default_rng(7)).generate(800)
session = AbrSession(spec, trace)

print(f"{'chunk':>5} {'lvl':>3} {'dl s':>6} {'rebuf':>6} {'buffer':>6} {'qoe':>7}")
rows = []
while not session.done:
    info = session.step(bba_action(session.buffer_s, spec.bitrates_kbps))
    rows.append(info)
    if info["chunk"] % 6 == 0:
        print(f"{info['chunk']:>5} {info['level']:>3} {info['download_s']:>6.2f} "
              f"{info['rebuffer_s']:>6.2f} {info['buffer_s']:>6.2f} "
              f"{info['qoe']:>7.2f}")

total = sum(r["qoe"] for r in rows)
quality = sum(r["quality"] for r in rows)
smooth = sum(r["smoothness_penalty"] for r in rows)
rebuf = sum(r["rebuffer_s"] for r in rows)
print(f"\nsession QoE {total:8.2f} = quality {quality:.2f}"
      f" - smoothness {smooth:.2f} - {session.mu} x rebuffer {rebuf:.2f}s")
