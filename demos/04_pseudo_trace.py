"""What did each round teach the learner? Ask the belief, not the stream.

Any change of a Gaussian belief can be rewritten as one exact Gaussian
observation: a location x and a covariance R such that a Bayes update of
the old belief with N(x, R) lands exactly on the new belief. R's sign
structure is the interesting part: positive eigenvalues are ordinary
evidence, negative ones mean the update *removed* information (forgetting),
and an infinite entry marks a coordinate the round never touched.

Run: python3 demos/04_pseudo_trace.py
"""

import tempfile
from pathlib import Path

import numpy as np

from beliefflow import belief as bel
from beliefflow import harness as hn
from beliefflow import pseudo as ps

# --- hand-sized examples -----------------------------------------------------

prior = bel.diagonal_belief(np.zeros(2), np.ones(2))

# a contraction on the first coordinate, second coordinate untouched
post = bel.diagonal_belief(np.array([-0.70710678, 0.0]), np.array([0.5, 1.0]))
pd = ps.extract_pseudo(prior, post)
print("contraction:  x =", pd.x, " R diag =", pd.cov)
print("  finite positive R: the round acted like a real observation there;")
print("  R = inf on the untouched coordinate (an observation with zero")
print("  precision says nothing).")

# replaying that observation must reproduce the posterior exactly
replay = ps.bayes_update_gaussian(prior, pd.x, pd.cov)
print("  replay drift:", float(np.max(np.abs(bel.covariance(replay) - bel.covariance(post)))))

# an expansion means negative observation covariance
post = bel.diagonal_belief(np.array([0.63397460, 0.0]), np.array([1.86602540, 1.0]))
pd = ps.extract_pseudo(prior, post)
print("\nexpansion:    x =", pd.x, " R diag =", pd.cov)
print("  a negative R eigenvalue is a forgetting event: no real Gaussian")
print("  observation widens a belief, so the flow pumped information out.")

# --- a full run, traced ------------------------------------------------------

print("\ntracing a spherical run, snapshot every round:\n")


def traced_run(flip_fraction):
    cfg = hn.ExperimentConfig(
        name=f"demo-trace-{flip_fraction}",
        dataset={"format": "synthetic", "n": 500, "n_features": 10,
                 "seed": 3, "flip_fraction": flip_fraction},
        learner={"algorithm": "bflo", "variant": "spherical",
                 "eta": 0.05, "sigma_init": 0.2},
        runs=1,
        base_seed=42,
        snapshot_every=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        snap_path = Path(tmp) / "snapshots.bin"
        hn.run_online(cfg, 0, snapshot_path=snap_path)
        return list(ps.trace_rows(hn.iter_snapshots(snap_path)))


rows = traced_run(0.0)

print(f"  {'round':>6} {'rho = 1/lambda':>15} {'cum_rho':>10}  verdict")
for row in rows[:10]:
    verdict = "idle" if row.degenerate else ("learned" if row.rho > 0 else "forgot")
    rho = "" if row.degenerate else f"{row.rho:>15.4f}"
    print(f"  {row.round:>6} {rho:>15} {row.cum_rho:>10.2f}  {verdict}")

n_learn = sum(1 for r in rows if not r.degenerate and r.rho > 0)
n_forget = sum(1 for r in rows if not r.degenerate and r.rho < 0)
last = [r for r in rows if r.cum_rho is not None][-1]
print(f"\n  clean stream: {n_learn} learning rounds, {n_forget} forgetting rounds,"
      f" net cum_rho {last.cum_rho:.2f}")
print("""
  Forgetting rounds outnumber learning rounds even on a clean stream: the
  sampled step often lands a little past the mean, leaking a sliver of
  precision back out. The learning rounds are individually stronger, so the
  running sum cum_rho climbs; it behaves like an effective count of
  unit-noise observations absorbed so far.
""")

rows_noisy = traced_run(0.15)
last_noisy = [r for r in rows_noisy if r.cum_rho is not None][-1]
print(f"  same stream with 15% flipped labels: net cum_rho {last_noisy.cum_rho:.2f}")
print("  the only change is the labels, and the trace shows the cost directly:")
print("  noise drains a large share of the evidence the stream could carry.")

# the same files the command line writes with: beliefflow trace. trace.csv
# keeps one narrow row per interval (counts and sums over the finite R);
# the x and R vectors themselves go to trace.bin, read back by read_trace
with tempfile.TemporaryDirectory() as tmp:
    out_csv = Path(tmp) / "trace.csv"
    hn.write_trace(out_csv, rows)
    head = out_csv.read_text().splitlines()[:3]
    rnd, x, r = hn.read_trace(out_csv.with_suffix(".bin"))[0]
print("\n  trace.csv head:")
for line in head:
    print("   ", line)
print(f"\n  trace.bin, round {rnd}: R = {r}, x =")
print("   ", np.array2string(x, precision=3, max_line_width=72).replace("\n", "\n    "))
