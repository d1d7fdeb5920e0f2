"""Sweeping the checkers over whole families of instances.

run_sweep drives every checker over configurable instance spaces, counts
verdicts, and collects violations. Sweeps are deterministic: the record
stream is a pure function of the configuration and seed, so a run can be
reproduced bit for bit. The command-line tool wraps exactly this API.
"""

import json

from cellkit import SweepConfig, builtin_specs, run_sweep

# -- an exhaustive sweep --------------------------------------------------

# every pair (X, Y) in a handful of groups, against the Kneser statement
cfg = SweepConfig(groups=("Z4", "Z6", "Z2xZ2"), theorems=("kneser",))
result = run_sweep(cfg)
print("instances:", result.summary["instances"])
for group, statuses in result.summary["counts"]["KNESER"].items():
    print(f"  {group}: {statuses}")
print("violated:", result.violated)

# -- sampled sweeps are seeded --------------------------------------------

cfg = SweepConfig(groups=tuple(builtin_specs(16, min_order=13, abelian_only=True)),
                  theorems=("dichotomy",), mode="sampled",
                  samples=5_000, s_samples=3, seed=42)
a = run_sweep(cfg)
b = run_sweep(cfg)
print("\nsampled dichotomy, orders 13..16:", a.summary["totals"])
print("same seed, same summary:", a.summary == b.summary)

# -- exploration on nonabelian groups -------------------------------------

# abelian-only statements do not count against nonabelian groups; failures
# there are reported as FINDING so the sweep still exits clean, but the
# counterexamples are kept for inspection
cfg = SweepConfig(groups=("D4",), theorems=("corollary",), s_min=3, s_max=4)
result = run_sweep(cfg)
print("\nD4 corollary exploration:", result.summary["totals"])
print("explored:", result.summary["exploration"])
if result.findings:
    w = result.findings[0]["witness"]
    print("first finding:", result.findings[0]["theorem"],
          "on S =", w["s"], "|", w["reason"])

# -- streaming records ----------------------------------------------------

# a sink receives every record as it is produced, as the JSON line the
# command line writes for it ("\n" included); the command line passes
# sys.stdout.write. Kneser and dichotomy lines are rendered from the
# vectorized batch's columns, the rest come from the scalar checkers
records = []
run_sweep(SweepConfig(groups=("Z6",), theorems=("chain",), s_max=3),
          sink=lambda line: records.append(json.loads(line)))
print(f"\nstreamed {len(records)} chain records; first:",
      {k: records[0][k] for k in ("theorem", "group", "status")})
