"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture), so a full run reads as a nine-line report. Checks accumulate into
a failure list that is asserted at the end, which keeps the printed line
accurate even when a test fails.

Frozen counts were produced by the per-instance scalar checkers. Sweeps
3 (Olson) and 4 (cell intersection), like 2 (Kneser) and 7 (dichotomy), run
without a sink and so take the vectorized counting paths; the equivalence of
those paths with the per-instance sink mode is property-tested in
test_theorems.py, so these numbers double as regression anchors.
"""

import json
import math
import sys
import time
from itertools import combinations

import conftest

from cellkit import (
    SweepConfig,
    all_subgroups,
    build_group,
    builtin_specs,
    check_corollary_kernel_structure,
    enumerate_cells,
    run_sweep,
)
from cellkit.cli import main as cli_main


def _finish(num, label, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {status} [{num}/9] {label}"
    if detail:
        line += f" ({detail})"
    if failures:
        line += " :: " + "; ".join(failures[:3])
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert not failures, failures


def _summary_counts(result, theorem, group):
    return result.summary["counts"].get(theorem, {}).get(group, {})


# -- 1: three enumeration strategies agree --------------------------------

def oracle_closure_bits(g, t_bits, s_idx):
    p = {g.mul[z][b] for z in range(g.order) if (t_bits >> z) & 1 for b in s_idx}
    out = 0
    for z in range(g.order):
        if all(g.mul[z][b] in p for b in s_idx):
            out |= 1 << z
    return out


def test_1_enumeration_strategies_agree():
    t0 = time.monotonic()
    failures = []
    checked = 0
    for spec in builtin_specs(8):
        g = build_group(spec)
        for size in range(1, min(3, g.order) + 1):
            for combo in combinations(range(1, g.order), size - 1):
                s_bits = 1
                for i in combo:
                    s_bits |= 1 << i
                s_idx = [b for b in range(g.order) if (s_bits >> b) & 1]
                swept = {r.cell.bits
                         for r in enumerate_cells(g.subset(s_idx), u_max=g.order)}
                by_filter = {x for x in range(1, 1 << g.order)
                             if oracle_closure_bits(g, x, s_idx) == x}
                by_seeds = {oracle_closure_bits(g, t, s_idx)
                            for t in range(1, 1 << g.order)}
                if not (swept == by_filter == by_seeds):
                    failures.append(f"{spec} S_bits={s_bits:#x} strategies disagree")
                checked += 1
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _finish(1, "cell enumeration strategies agree on all groups of order <= 8",
            failures, f"{checked} subsets, {elapsed:.1f}s")


# -- 2: Kneser, exhaustive on small cyclic groups and products ------------

def test_2_kneser_exhaustive():
    groups = tuple(f"Z{n}" for n in range(2, 11)) + ("Z2xZ2", "Z2xZ4", "Z3xZ3")
    t0 = time.monotonic()
    result = run_sweep(SweepConfig(groups=groups, theorems=("kneser",)))
    elapsed = time.monotonic() - t0
    failures = []
    if result.violated:
        failures.append(f"{result.violated} violated: {result.violations[:1]}")
    expected_instances = sum(
        ((1 << build_group(s).order) - 1) ** 2 for s in groups)
    if result.summary["instances"] != expected_instances:
        failures.append(
            f"instances {result.summary['instances']} != {expected_instances}")
    for spec in groups:
        if _summary_counts(result, "KNESER", spec).get("HOLDS", 0) < 1:
            failures.append(f"no HOLDS instance on {spec}")
    pinned = {"Z6": 849, "Z8": 15137, "Z9": 63247, "Z10": 265079,
              "Z2xZ4": 15577, "Z3xZ3": 63976}
    for spec, want in pinned.items():
        got = _summary_counts(result, "KNESER", spec).get("HOLDS", 0)
        if got != want:
            failures.append(f"{spec} HOLDS {got} != pinned {want}")
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s, budget 300s")
    _finish(2, "Kneser equality holds on every small-sumset pair, Z2..Z10 and products",
            failures, f"{result.summary['instances']} pairs, {elapsed:.1f}s")


# -- 3: Olson, exhaustive over subgroup pairs and coset unions ------------

def test_3_olson_exhaustive():
    groups = tuple(builtin_specs(8))
    t0 = time.monotonic()
    result = run_sweep(SweepConfig(groups=groups, theorems=("olson",)))
    elapsed = time.monotonic() - t0
    failures = []
    if result.violated:
        failures.append(f"{result.violated} violated: {result.violations[:1]}")
    if not {"D3", "D4", "Q8"} <= set(groups):
        failures.append("nonabelian order-8 groups missing from the scope")
    expected = 0
    for spec in groups:
        g = build_group(spec)
        per_side = sum((1 << (g.order // len(h))) - 1 for h in all_subgroups(g))
        expected += per_side * per_side
    if result.summary["instances"] != expected:
        failures.append(f"instances {result.summary['instances']} != {expected}")
    totals = result.summary["totals"]
    if totals.get("HOLDS", 0) != 13024:
        failures.append(f"HOLDS {totals.get('HOLDS')} != pinned 13024")
    _finish(3, "Olson bound holds for every subgroup pair and coset-union pair, order <= 8",
            failures, f"{result.summary['instances']} instances, {elapsed:.1f}s")


# -- 4: intersections of cells are cells ----------------------------------

def test_4_cell_intersections():
    groups = tuple(builtin_specs(8))
    t0 = time.monotonic()
    result = run_sweep(SweepConfig(groups=groups, theorems=("intersection",), s_max=4))
    elapsed = time.monotonic() - t0
    failures = []
    if result.violated:
        failures.append(f"{result.violated} violated: {result.violations[:1]}")
    totals = result.summary["totals"]
    if result.summary["instances"] != 495386:
        failures.append(f"instances {result.summary['instances']} != pinned 495386")
    if totals.get("HOLDS", 0) != 356061:
        failures.append(f"HOLDS {totals.get('HOLDS')} != pinned 356061")
    if result.summary["errors"]:
        failures.append(f"{result.summary['errors']} tasks skipped")
    _finish(4, "nonempty intersections of cells are cells, order <= 8, |S| <= 4",
            failures, f"{result.summary['instances']} pairs, {elapsed:.1f}s")


# -- 5: subgroup kernels form a chain -------------------------------------

def test_5_subgroup_kernel_chain():
    groups = ("D3", "D4", "Q8") + tuple(builtin_specs(12, abelian_only=True))
    t0 = time.monotonic()
    result = run_sweep(SweepConfig(groups=groups, theorems=("chain",), s_max=4))
    elapsed = time.monotonic() - t0
    failures = []
    if result.violated:
        failures.append(f"{result.violated} violated: {result.violations[:1]}")
    expected = 0
    for spec in groups:
        n = build_group(spec).order
        expected += sum(math.comb(n - 1, k - 1) for k in range(1, 5))
    totals = result.summary["totals"]
    if result.summary["instances"] != expected:
        failures.append(f"instances {result.summary['instances']} != {expected}")
    if totals.get("HOLDS", 0) != expected:
        failures.append(f"HOLDS {totals.get('HOLDS')} != {expected}")
    _finish(5, "subgroup kernels nest into a chain on abelian and nonabelian groups",
            failures, f"{result.summary['instances']} subsets, {elapsed:.1f}s")


# -- 6: kernel structure on abelian groups --------------------------------

def test_6_corollary_kernel_structure():
    groups = tuple(builtin_specs(12, abelian_only=True))
    t0 = time.monotonic()
    result = run_sweep(SweepConfig(groups=groups, theorems=("corollary",),
                                   s_min=3, s_max=5))
    elapsed = time.monotonic() - t0
    failures = []
    if result.violated:
        failures.append(f"{result.violated} violated: {result.violations[:1]}")
    totals = result.summary["totals"]
    if totals.get("HOLDS", 0) != 264:
        failures.append(f"HOLDS {totals.get('HOLDS')} != pinned 264")
    if totals.get("NOT_APPLICABLE", 0) != 6927:
        failures.append(f"NOT_APPLICABLE {totals.get('NOT_APPLICABLE')} != pinned 6927")
    # at least one instance has an inhabited deficiency range; pin one
    g = build_group("Z12")
    verdicts = check_corollary_kernel_structure(g.subset([0, 1, 6, 7]))
    if [v.status.value for v in verdicts] != ["HOLDS", "HOLDS", "HOLDS"]:
        failures.append("Z12 {0,1,6,7} instance did not fully hold")
    if (verdicts[0].witness or {}).get("inhabited_u") != [2]:
        failures.append("Z12 {0,1,6,7} inhabited deficiencies changed")
    _finish(6, "unique subgroup kernels and periodic cells on abelian groups, |S| in 3..5",
            failures, f"{result.summary['instances']} part-verdicts, {elapsed:.1f}s")


# -- 7: dichotomy, exhaustive then sampled --------------------------------

def test_7_dichotomy():
    t0 = time.monotonic()
    small = tuple(builtin_specs(10, abelian_only=True))
    exhaustive = run_sweep(SweepConfig(groups=small, theorems=("dichotomy",)))
    failures = []
    if exhaustive.violated:
        failures.append(f"exhaustive: {exhaustive.violated} violated")
    expected = sum((1 << (build_group(s).order - 1)) *
                   ((1 << build_group(s).order) - 1) for s in small)
    if exhaustive.summary["instances"] != expected:
        failures.append(
            f"exhaustive instances {exhaustive.summary['instances']} != {expected}")
    if exhaustive.summary["totals"].get("HOLDS", 0) != expected:
        failures.append("not every exhaustive instance holds")

    large = tuple(builtin_specs(16, min_order=11, abelian_only=True))
    samples = 100_000
    sampled = run_sweep(SweepConfig(groups=large, theorems=("dichotomy",),
                                    mode="sampled", samples=samples, s_samples=5,
                                    seed=20260823))
    if sampled.violated:
        failures.append(f"sampled: {sampled.violated} violated")
    for spec in large:
        counts = _summary_counts(sampled, "DICHOTOMY", spec)
        total = sum(counts.values())
        if total % samples != 0 or not 3 <= total // samples <= 5:
            failures.append(f"{spec} drew {total} T instances, expected 3..5 full batches")
        if counts.get("HOLDS", 0) != total:
            failures.append(f"{spec} has non-HOLDS outcomes")
    if sampled.summary["instances"] != 5_300_000:
        failures.append(
            f"sampled instances {sampled.summary['instances']} != pinned 5300000")
    elapsed = time.monotonic() - t0
    _finish(7, "dichotomy holds exhaustively to order 10 and on 100k-sample sweeps to order 16",
            failures,
            f"{exhaustive.summary['instances']} + {sampled.summary['instances']} instances, "
            f"{elapsed:.1f}s")


# -- 8: command-line regression -------------------------------------------

def test_8_cli_regression(capsys):
    failures = []
    rc = cli_main(["subgroup", "Z12", "{0,1,6,7}", "--format", "jsonl"])
    out = capsys.readouterr().out
    rec = json.loads(out.splitlines()[0])
    if rc != 0:
        failures.append(f"subgroup exit code {rc}")
    if rec.get("subgroup") != "{0,6}" or rec.get("u_star") != 2:
        failures.append(f"subgroup row {rec}")

    rc = cli_main(["cells", "Z12", "{0,1,6,7}", "--umax", "2", "--format", "jsonl"])
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    if rc != 0:
        failures.append(f"cells exit code {rc}")
    cells = [r for r in records if r.get("kind") == "cell"]
    if len(cells) != 25:
        failures.append(f"{len(cells)} cells listed, expected 25")
    k2 = [r for r in records if r.get("kind") == "kernel_summary" and r.get("u") == 2]
    if not k2 or k2[0].get("unique_identity_kernel") != "{0,6}":
        failures.append(f"2-kernel summary {k2}")
    elif k2[0].get("kernel_count") != 6:
        failures.append(f"kernel count {k2[0].get('kernel_count')} != 6")
    _finish(8, "command line reproduces the Z12 worked example", failures)


# -- 9: repeated runs are byte-identical ----------------------------------

def test_9_reports_are_reproducible(capsys):
    argv = ["verify", "--groups", "Z6,Z2xZ4", "--theorem", "kneser,dichotomy",
            "--mode", "sampled", "--samples", "2000", "--s-samples", "3",
            "--seed", "99", "--format", "jsonl"]
    failures = []
    rc_a = cli_main(argv)
    out_a = capsys.readouterr().out
    rc_b = cli_main(argv)
    out_b = capsys.readouterr().out
    rc_c = cli_main(argv + ["--jobs", "2"])
    out_c = capsys.readouterr().out
    if rc_a != 0 or rc_b != 0 or rc_c != 0:
        failures.append(f"exit codes {rc_a}, {rc_b}, {rc_c}")
    if out_a != out_b:
        failures.append("two identical commands differed")
    if out_a != out_c:
        failures.append("--jobs 2 changed the output stream")
    if '"kind":"summary"' not in out_a.splitlines()[-1]:
        failures.append("missing summary record")
    _finish(9, "verification reports are byte-identical across runs and job counts",
            failures, f"{len(out_a.splitlines())} records")
