"""Theorem checkers and verification sweeps.

The Kneser and Olson oracles below re-derive each verdict with plain python
sets and modular arithmetic, sharing no code with the checkers. Frozen
counts were produced by the scalar checkers and pinned; the sweep tests
then hold the vectorized counting paths to those same numbers.
"""

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cellkit.cells as cells_module
import cellkit.theorems as theorems
from cellkit.cells import column_union, mask_dtype, translate_class_keys, translate_tables
from cellkit.groups import mask_spec, product_bits
from cellkit.specs import IdentitySubsets, SubsetSpecError
from cellkit import (
    ElementSet,
    Status,
    SweepConfig,
    SweepConfigError,
    Theorem,
    TheoremVerdict,
    all_subgroups,
    build_group,
    builtin_specs,
    check_cell_intersection,
    check_corollary_kernel_structure,
    check_dichotomy,
    check_kneser,
    check_olson,
    check_theorem_subgroup_kernels,
    enumerate_cells,
    balandraud_subgroup,
    kernel_chain,
    make_record,
    run_sweep,
)

Z6 = build_group("Z6")
Z8 = build_group("Z8")
Z12 = build_group("Z12")
D3 = build_group("D3")
D4 = build_group("D4")


# -- oracles --------------------------------------------------------------

def oracle_kneser_cyclic(n, xs, ys):
    """Kneser verdict on Z_n from the definitions, using modular arithmetic."""
    xy = {(a + b) % n for a in xs for b in ys}
    if len(xy) > len(xs) + len(ys) - 2:
        return "NOT_APPLICABLE"
    h = {z for z in range(n) if {(z + w) % n for w in xy} == xy}
    hx = {(a + b) % n for a in h for b in xs}
    hy = {(a + b) % n for a in h for b in ys}
    ok = len(xy) == len(hx) + len(hy) - len(h) and len(h) > 1
    return "HOLDS" if ok else "VIOLATED"


def oracle_olson(mul, xs, ys, hs, ks):
    """Olson verdict from the definitions, on an explicit table."""
    def times(aa, bb):
        return {mul[a][b] for a in aa for b in bb}
    if times(hs, xs) != xs or times(ks, ys) != ys:
        return "NOT_APPLICABLE"
    if times(ks, xs) == xs or times(hs, ys) == ys:
        return "NOT_APPLICABLE"
    meet = hs & ks
    bound_ok = len(xs - ys) + len(ys - xs) >= len(hs) + len(ks) - 2 * len(meet)
    either = len(xs - ys) >= len(hs) - len(meet) or len(ys - xs) >= len(ks) - len(meet)
    return "HOLDS" if bound_ok and either else "VIOLATED"


def bits_to_set(bits):
    return {i for i in range(64) if (bits >> i) & 1}


# -- kneser ---------------------------------------------------------------

def test_kneser_matches_oracle_on_all_z6_pairs():
    for x_bits in range(1, 64):
        for y_bits in range(1, 64):
            v = check_kneser(ElementSet(Z6, x_bits), ElementSet(Z6, y_bits))
            want = oracle_kneser_cyclic(6, bits_to_set(x_bits), bits_to_set(y_bits))
            assert v.status.value == want, (x_bits, y_bits)


@given(st.integers(min_value=1, max_value=255), st.integers(min_value=1, max_value=255))
def test_kneser_matches_oracle_on_z8(x_bits, y_bits):
    v = check_kneser(ElementSet(Z8, x_bits), ElementSet(Z8, y_bits))
    assert v.status.value == oracle_kneser_cyclic(8, bits_to_set(x_bits), bits_to_set(y_bits))


def test_kneser_worked_instance():
    v = check_kneser(Z6.subset([0, 3]), Z6.subset([0, 3]))
    assert v.status is Status.HOLDS
    assert v.witness["xy_size"] == 2
    assert v.witness["h"] == "{0,3}"
    assert v.witness["rhs"] == 2


def test_kneser_hypothesis_failure_is_named():
    v = check_kneser(Z6.subset([0, 1]), Z6.subset([0, 1]))
    assert v.status is Status.NOT_APPLICABLE
    assert "does not hold" in v.witness["failed_hypothesis"]


def test_kneser_nonabelian_gate_and_explore():
    x, y = D3.subset([0, 3]), D3.subset([0, 3])
    v = check_kneser(x, y)
    assert v.status is Status.NOT_APPLICABLE
    assert v.witness["failed_hypothesis"] == "group is not abelian"
    v = check_kneser(x, y, explore=True)
    assert v.status in (Status.HOLDS, Status.FINDING)


def test_kneser_rejects_empty_factors():
    with pytest.raises(ValueError, match="nonempty"):
        check_kneser(Z6.empty_set(), Z6.subset([0]))


# -- olson ----------------------------------------------------------------

def coset_unions(g, subgroup_bits):
    """Every nonempty union of right cosets of each subgroup, ascending, by rank
    through the sweep's coset table; subgroups of more than 16 cosets are left out."""
    dtype = mask_dtype(g.order)
    table = theorems._coset_table(g, subgroup_bits, dtype)[0]
    out = {}
    for i, h in enumerate(subgroup_bits):
        cosets = g.order // h.bit_count()
        if cosets <= 16:
            picks = np.arange(1, 1 << cosets, dtype=dtype)  # rank + 1
            out[h] = cells_module._gather(table, picks, np.full(len(picks), i)).tolist()
    return out


@pytest.mark.parametrize("g", [Z6, D3], ids=lambda g: g.label)
def test_olson_matches_oracle_on_all_coset_unions(g):
    subs = all_subgroups(g)
    unions = coset_unions(g, [h.bits for h in subs])
    for h in subs:
        for k in subs:
            for x_bits in unions[h.bits]:
                for y_bits in unions[k.bits]:
                    v = check_olson(ElementSet(g, x_bits), ElementSet(g, y_bits), h, k)
                    want = oracle_olson(g.mul, bits_to_set(x_bits), bits_to_set(y_bits),
                                        bits_to_set(h.bits), bits_to_set(k.bits))
                    assert v.status.value == want, (h.bits, k.bits, x_bits, y_bits)


@pytest.mark.parametrize("g", [Z6, D3], ids=lambda g: g.label)
def test_olson_batch_matches_scalar(g):
    # every coset-union pair the exhaustive sweep walks, as the sweep builds
    # its columns; X is H-periodic and Y K-periodic by construction, so the
    # batch tests only KX != X and HY != Y
    subs = all_subgroups(g)
    bits = [h.bits for h in subs]
    dtype = mask_dtype(g.order)
    cosets, times = theorems._coset_table(g, bits, dtype)
    counts = [(1 << (g.order // h.bit_count())) - 1 for h in bits]
    cfg = SweepConfig(groups=(g.label,), theorems=("olson",))
    hi, ki, rank_x, rank_y = (np.concatenate(c) for c in zip(*theorems._olson_ranks(counts, cfg, 0, dtype)))
    x, y = cells_module._gather(cosets, rank_x + 1, hi), cells_module._gather(cosets, rank_y + 1, ki)
    assert len(x) == sum(counts) ** 2
    assert (cells_module._gather(times, x, hi) == x).all()
    assert (cells_module._gather(times, y, ki) == y).all()
    masks, _ = theorems._olson_batch(np.array(bits, dtype=dtype), times, hi, ki, x, y)
    # the masks of KX != X failing, of HY != Y failing (KX != X holding), then HOLDS
    assert len(masks) == 3
    assert all(mask.any() for mask in masks)
    outcome = np.select(masks, range(len(masks)), -1).tolist()
    for instance, got in zip(zip(hi.tolist(), ki.tolist(), x.tolist(), y.tolist()), outcome):
        h, k, x_bits, y_bits = instance
        v = check_olson(ElementSet(g, x_bits), ElementSet(g, y_bits), subs[h], subs[k])
        if v.status is Status.NOT_APPLICABLE:
            want = theorems._OLSON_HYPOTHESES.index(v.witness["failed_hypothesis"]) - 2
        else:
            want = len(masks) - 1 if v.status is Status.HOLDS else -1
        assert got == want, instance


@pytest.mark.parametrize("spec", ["Z6", "D3", "Q8", "D4", "Z12", "Z64"])
def test_the_coset_table_gives_h_times_x(spec):
    # _coset_table's second table against product_bits: H*X for seeded
    # random masks X, and X itself for every union X of right H-cosets
    g = build_group(spec)
    bits = [h.bits for h in all_subgroups(g)]
    dtype = mask_dtype(g.order)
    times = theorems._coset_table(g, bits, dtype)[1]
    xs = np.random.default_rng(5).integers(0, 1 << g.order, size=300, dtype=np.uint64).astype(dtype)
    unions = coset_unions(g, bits)
    for i, h in enumerate(bits):
        got = cells_module._gather(times, xs, np.full(len(xs), i))
        assert got.tolist() == [product_bits(g, h, x) for x in xs.tolist()], h
        periodic = np.array(unions.get(h, []), dtype=dtype)
        assert (cells_module._gather(times, periodic, np.full(len(periodic), i)) == periodic).all(), h


@pytest.mark.parametrize("kwargs", [dict(groups=("Z6",)), dict(groups=("D3",)),
                                    dict(groups=("Z64",), mode="sampled", samples=2000, seed=1)],
                         ids=["Z6", "D3", "Z64-sampled"])
def test_an_olson_stream_matches_its_count(kwargs):
    # the coset tables answer both of its tests, in either mode
    cfg = SweepConfig(theorems=("olson",), **kwargs)
    lines = []
    streamed = run_sweep(cfg, sink=lines.append)
    assert streamed.summary == run_sweep(cfg).summary
    assert streamed.summary["errors"] == 0
    assert streamed.summary["instances"] == len(lines) > 0


def sorted_coset_unions(g, h_bits):
    """Every nonempty union of right cosets of H, listed and sorted."""
    members = [i for i in range(g.order) if (h_bits >> i) & 1]
    cosets = sorted({sum(1 << g.mul[h][x] for h in members) for x in range(g.order)})
    unions = [0] * (1 << len(cosets))
    for m in range(1, len(unions)):
        low = m & -m
        unions[m] = unions[m ^ low] | cosets[low.bit_length() - 1]
    return sorted(unions[1:])


@pytest.mark.parametrize("spec", ["Z6", "D3", "Z2xZ4", "Q8", "D4", "Z12", "Z2xZ6", "D6",
                                  "S4", "Z4xZ4", "D8"])
def test_coset_union_rank_matches_the_sorted_list(spec):
    # sampled Olson draws the k-th smallest union by rank instead of listing
    # them all; the trivial subgroup of S4 (2^24 unions) is left out
    g = build_group(spec)
    for h, listed in coset_unions(g, [sub.bits for sub in all_subgroups(g)]).items():
        assert listed == sorted_coset_unions(g, h), h


def test_olson_sweep_on_z30_lists_no_coset_unions():
    # the trivial subgroup of Z30 has 2^30 - 1 coset unions
    r = run_sweep(SweepConfig(groups=("Z30",), theorems=("olson",), mode="sampled",
                              samples=100, seed=1))
    assert r.summary["instances"] == 100
    assert r.summary["errors"] == 0
    r = run_sweep(SweepConfig(groups=("Z30",), theorems=("olson",)))
    assert r.summary["instances"] == 0
    assert r.summary["errors"] == 1
    assert "max_instances" in r.errors[0]["message"]


def test_olson_worked_instance():
    h, k = Z6.subset([0, 3]), Z6.subset([0, 2, 4])
    x, y = Z6.subset([0, 3]), Z6.subset([0, 2, 4])
    v = check_olson(x, y, h, k)
    assert v.status is Status.HOLDS
    assert v.witness["rhs"] == 2 + 3 - 2 * 1
    assert v.witness["x_minus_y"] == 1
    assert v.witness["y_minus_x"] == 2


def test_olson_refuses_a_k_that_is_not_a_subgroup():
    h, x = Z6.subset([0, 3]), Z6.subset([0, 3])
    with pytest.raises(ValueError, match=r"^k = \{0,1\} is not a subgroup of Z6$"):
        check_olson(x, Z6.full_set(), h, Z6.subset([0, 1]))


def test_olson_na_names_each_failed_hypothesis():
    h, k = Z6.subset([0, 3]), Z6.subset([0, 2, 4])
    v = check_olson(Z6.subset([0, 1]), Z6.full_set(), h, k)
    assert v.status is Status.NOT_APPLICABLE
    assert v.witness["failed_hypothesis"] == "HX = X does not hold"
    v = check_olson(Z6.subset([0, 3]), Z6.subset([0, 1]), h, k)
    assert v.witness["failed_hypothesis"] == "KY = Y does not hold"
    v = check_olson(Z6.full_set(), Z6.subset([0, 2, 4]), h, k)
    assert v.witness["failed_hypothesis"] == "KX != X does not hold"
    v = check_olson(Z6.subset([0, 3]), Z6.full_set(), h, k)
    assert v.witness["failed_hypothesis"] == "HY != Y does not hold"


def test_olson_requires_subgroups():
    with pytest.raises(ValueError, match="not a subgroup"):
        check_olson(Z6.subset([0]), Z6.subset([0]), Z6.subset([0, 1]), Z6.subset([0]))


# -- cell intersection ----------------------------------------------------

def test_intersection_checker():
    s = Z12.subset([0, 1, 6, 7])
    a, b = Z12.subset([0, 6]), Z12.subset([1, 7])
    v = check_cell_intersection(s, a, b)
    assert v.status is Status.NOT_APPLICABLE
    assert v.witness["failed_hypothesis"] == "intersection is empty"
    v = check_cell_intersection(s, a, Z12.full_set())
    assert v.status is Status.HOLDS
    assert v.witness["intersection"] == "{0,6}"
    with pytest.raises(ValueError, match="not a cell"):
        check_cell_intersection(s, Z12.subset([0, 1]), a)


# -- subgroup kernel nesting ----------------------------------------------

def test_chain_checker_worked_instance():
    v = check_theorem_subgroup_kernels(Z12.subset([0, 1, 6, 7]))
    assert v.status is Status.HOLDS
    assert "{0,6}" in v.witness["subgroup_kernels"]


def test_chain_checker_runs_on_nonabelian_groups():
    for g in (D3, D4):
        from cellkit.specs import iter_identity_subsets
        for s in iter_identity_subsets(g, 1, 3):
            assert check_theorem_subgroup_kernels(s).status is Status.HOLDS


@pytest.mark.parametrize("cell, product, part, reason", [
    ((0, 4, 8), (0, 1, 4, 8), "i", "kernels are incomparable"),
    ((0, 2, 4, 6, 8, 10), (0, 1, 2, 3, 4, 5, 6, 8, 10), "ii",
     "deficiency-3 kernel is not contained in the deficiency-2 kernel"),
], ids=["incomparable", "not-nested"])
def test_chain_checker_reports_each_violated_route(monkeypatch, cell, product, part, reason):
    # no true statement yields VIOLATED, so a subgroup intruder stands in
    # for a wrong enumeration: {0,4,8} as a 1-kernel is incomparable with
    # the 2-kernel {0,6}, and the evens as a 3-kernel are not inside it
    real = cells_module.enumerate_cells
    intruder = make_record(Z12, Z12.subset(cell).bits, Z12.subset(product).bits)

    def with_intruder(s, *args, **kwargs):
        return real(s, *args, **kwargs) + [intruder]

    monkeypatch.setattr(cells_module, "enumerate_cells", with_intruder)
    s = Z12.subset([0, 1, 6, 7])
    v = check_theorem_subgroup_kernels(s)
    assert v.status is Status.VIOLATED
    assert v.witness["part"] == part and v.witness["m"] == intruder.cell.spec_string()
    report = kernel_chain(s)
    assert not report.chain_ok
    assert [x.reason for x in report.violations] == [reason]


# -- corollary kernel structure -------------------------------------------

def test_corollary_worked_instances():
    vs = check_corollary_kernel_structure(Z12.subset([0, 1, 6, 7]))
    assert [v.theorem for v in vs] == [
        Theorem.COROLLARY_I, Theorem.COROLLARY_II, Theorem.COROLLARY_III,
    ]
    assert all(v.status is Status.HOLDS for v in vs)
    assert vs[0].witness["inhabited_u"] == [2]

    vs = check_corollary_kernel_structure(Z8.subset([0, 1, 4, 5]))
    assert all(v.status is Status.HOLDS for v in vs)
    assert vs[0].witness["inhabited_u"] == [2]


def test_corollary_not_applicable_cases():
    vs = check_corollary_kernel_structure(Z12.subset([0, 6]))
    assert all(v.status is Status.NOT_APPLICABLE for v in vs)
    assert "1..|S|-2 is empty" in vs[0].witness["failed_hypothesis"]

    vs = check_corollary_kernel_structure(Z6.subset([0, 1, 2]))
    assert all(v.status is Status.NOT_APPLICABLE for v in vs)
    assert "no cell has deficiency" in vs[0].witness["failed_hypothesis"]

    vs = check_corollary_kernel_structure(D4.subset([0, 1, 4, 5]))
    assert all(v.status is Status.NOT_APPLICABLE for v in vs)
    assert vs[0].witness["failed_hypothesis"] == "group is not abelian"


def test_corollary_exploration_can_surface_findings():
    # on D4 this S has an inhabited deficiency and part II genuinely fails,
    # which exploration reports as FINDING rather than VIOLATED
    vs = check_corollary_kernel_structure(D4.subset([0, 1, 4, 5]), explore=True)
    statuses = {v.theorem: v.status for v in vs}
    assert statuses[Theorem.COROLLARY_I] is Status.HOLDS
    assert statuses[Theorem.COROLLARY_II] is Status.FINDING
    assert statuses[Theorem.COROLLARY_III] is Status.HOLDS


# -- dichotomy ------------------------------------------------------------

def test_dichotomy_worked_instances():
    s, h = Z12.subset([0, 1, 6, 7]), Z12.subset([0, 6])
    v = check_dichotomy(s, h, Z12.subset([0, 2]))
    assert v.status is Status.HOLDS
    assert v.witness["branch"] == "additive"
    assert v.witness["ts_size"] == 8
    v = check_dichotomy(s, h, Z12.subset([0, 6]))
    assert v.status is Status.HOLDS
    assert v.witness["branch"] == "periodic"
    assert v.witness["ts_size"] == 4
    assert v.witness["coset_bound"] == 4


def test_dichotomy_contracts():
    s, h = Z12.subset([0, 1, 6, 7]), Z12.subset([0, 6])
    with pytest.raises(ValueError, match="nonempty"):
        check_dichotomy(s, h, Z12.empty_set())
    with pytest.raises(ValueError, match="identity"):
        check_dichotomy(Z12.subset([1, 7]), h, Z12.subset([0]))
    v = check_dichotomy(D4.subset([0, 1]), D4.subset([0]), D4.subset([0, 4]))
    assert v.status is Status.NOT_APPLICABLE


@pytest.mark.parametrize("spec,s_idx", [
    ("Z6", (0, 1, 2)),
    ("Z8", (0, 1, 4, 5)),
    ("Z12", (0, 1, 6, 7)),
    ("D4", (0, 1, 4, 5)),
    # masks across two bytes, and H = {0,9} and {0,8} in the second
    ("Z2xZ6", (0, 1, 9, 10)),
    ("D6", (0, 1, 8, 9)),
])
def test_dichotomy_batch_matches_scalar(spec, s_idx):
    g = build_group(spec)
    s = g.subset(s_idx)
    h = balandraud_subgroup(s)
    assert len(h) > 1
    t_arr = np.arange(1, 1 << g.order, dtype=np.uint32)
    right, left = translate_tables(g)
    masks, _ = theorems._dichotomy_batch(column_union(right, s.bits), column_union(left, h.bits),
                                         len(s), len(h), product_bits(g, h.bits, s.bits).bit_count(), t_arr)
    # the additive branch holding, then the periodic one
    branch = np.select(masks, range(len(masks)), -1).tolist()
    for t_bits, got in zip(t_arr.tolist(), branch):
        v = check_dichotomy(s, h, ElementSet(g, int(t_bits)), explore=True)
        want = ("additive", "periodic").index(v.witness["branch"]) if v.status is Status.HOLDS else -1
        assert got == want, t_bits


def reference_sampled_t_masks(g, count, rng):
    """The stable-argsort T sampler, which _sampled_t_masks must match draw for draw."""
    n = g.order
    sizes = rng.integers(1, n + 1, size=count)
    order = np.argsort(rng.random((count, n)), axis=1, kind="stable")
    keep = np.arange(n)[None, :] < sizes[:, None]
    powers = (np.uint64(1) << order.astype(np.uint64))
    bits = np.where(keep, powers, np.uint64(0)).sum(axis=1, dtype=np.uint64)
    return bits.astype(mask_dtype(n))


class TiedKeys:
    """A generator whose keys tie on purpose; real draws almost never do."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def random(self, shape):
        return self.rng.integers(0, 4, size=shape) / 4


@pytest.mark.parametrize("make_rng", [np.random.default_rng, TiedKeys], ids=["rng", "tied"])
@pytest.mark.parametrize("spec", ["Z11", "Z12", "Z13", "Z14", "Z15", "Z16", "Z40"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_t_masks_match_stable_argsort(make_rng, spec, seed):
    g = build_group(spec)
    got = np.concatenate(list(theorems._sampled_t_masks(g, 4000, make_rng(seed))))
    want = reference_sampled_t_masks(g, 4000, make_rng(seed))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_a_sampled_dichotomy_stream_replays_the_draws_unit_by_unit():
    # 2^17 + 1000 draws cross a unit boundary: the second unit draws its 1000
    # sizes after every key of the first, from the one generator of S
    g, s = build_group("Z12"), "{0,1,5}"
    cfg = SweepConfig(groups=("Z12",), theorems=("dichotomy",), mode="sampled",
                      samples=theorems._T_UNIT + 1000, set_spec=s, seed=5)
    lines = []
    run_sweep(cfg, sink=lines.append)
    task_seed = theorems._derive_seed(5, "Z12", "dichotomy")
    rng = np.random.default_rng(theorems._derive_seed(task_seed, g.subset([0, 1, 5]).bits, "t-draws"))
    want = np.concatenate([reference_sampled_t_masks(g, count, rng) for count in (theorems._T_UNIT, 1000)])
    records = [json.loads(line) for line in lines]
    assert [r["witness"]["t"] for r in records if r["kind"] == "verdict"] == list(map(mask_spec, want.tolist()))


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_dichotomy_streams_do_not_depend_on_the_t_block(monkeypatch, mode):
    # blocks of 7 and of 1000 T split the draws and the walk unevenly; D4
    # runs in exploration mode, so a FINDING would reach the checker between
    # rendered lines
    cfg = SweepConfig(groups=("Z12", "D4"), theorems=("dichotomy",), mode=mode, samples=3000, seed=3,
                      set_spec="{0,1,5}")

    def outcome():
        lines = []
        return run_sweep(cfg, sink=lines.append).summary, lines, run_sweep(cfg).summary

    whole = outcome()
    for block in (7, 1000):
        monkeypatch.setattr(theorems, "_T_BLOCK", block)
        assert outcome() == whole


def test_a_sampled_dichotomy_holds_one_block_of_keys_at_a_time():
    # one draw unit's keys alone, (2^17, 16) float64, are 16 MiB
    cfg = SweepConfig(groups=("Z16",), theorems=("dichotomy",), mode="sampled", samples=1 << 17,
                      set_spec="{0,1,5}", seed=1)
    tracemalloc.start()
    try:
        result = run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.summary["totals"] == {"HOLDS": 1 << 17}
    assert peak < 8 << 20


def test_a_sampled_kneser_sweep_on_z64_stays_small():
    # pairwise products gather the left translate table (1 MiB at order 64)
    # in chunks of _GATHER_CHUNK rows; a table of byte-pair products would
    # take 32 MiB alone
    cfg = SweepConfig(groups=("Z64",), theorems=("kneser",), mode="sampled", samples=20_000, seed=1)
    tracemalloc.start()
    try:
        result = run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.summary["instances"] == 20_000
    assert peak < 24 << 20


# -- sweeps ---------------------------------------------------------------

def into(records):
    """A run_sweep sink that appends each record line, parsed, to records."""
    return lambda line: records.append(json.loads(line))


def counts_from_records(records):
    out = {}
    for r in records:
        if r["kind"] == "verdict":
            key = (r["theorem"], r["group"], r["status"])
            out[key] = out.get(key, 0) + 1
    return out


def counts_from_summary(summary):
    out = {}
    for theorem, per_group in summary["counts"].items():
        for group, statuses in per_group.items():
            for status, k in statuses.items():
                out[(theorem, group, status)] = k
    return out


def test_kneser_sweep_counting_equals_per_instance_mode():
    # the counted summary must agree with the streamed records, whose lines
    # test_rendered_lines_equal_the_scalar_checker_records holds to the
    # scalar checker on these configurations. Groups with many subgroups
    # have periodic products, D3 and Q8 tell left from right, Z40 has
    # uint64 masks, and --wide Z70 pairs all take the scalar path; sampled
    # pairs must be the same draws either way
    configs = [dict(groups=(spec,)) for spec in ("Z5", "Z6", "Z2xZ2", "D3", "Q8", "Z2xZ4", "Z2xZ2xZ2")]
    configs += [dict(groups=(spec,), mode="sampled", samples=3000, seed=4)
                for spec in ("D3", "Z8", "Z2xZ2xZ2", "Z40")]
    configs.append(dict(groups=("Z70",), mode="sampled", samples=300, seed=4, wide=True))
    for kwargs in configs:
        cfg = SweepConfig(theorems=("kneser",), **kwargs)
        counted = run_sweep(cfg)
        records = []
        streamed = run_sweep(cfg, sink=into(records))
        assert counts_from_summary(counted.summary) == counts_from_records(records)
        assert counted.summary == streamed.summary


OLSON_INTERSECTION_CONFIGS = {
    "olson-exhaustive": dict(theorems=("olson",)),
    "olson-sampled": dict(theorems=("olson",), mode="sampled", samples=3000, seed=17),
    "intersection": dict(theorems=("intersection",), s_max=3),
}


def without_settle(monkeypatch):
    """Hand _check_batch no settle, so every instance of a sweep reaches its scalar checker."""
    real = theorems._check_batch
    monkeypatch.setattr(theorems, "_check_batch", lambda *args: real(*args[:5]))


CHECKERS = {"kneser": "check_kneser", "dichotomy": "check_dichotomy", "olson": "check_olson",
            "intersection": "check_cell_intersection"}
_SCALAR_RUNS = {}


def scalar_run(cfg):
    """cfg swept with every instance at its scalar checker, once per config for the tests that read it.

    Returns the summary, the verdict counts of the streamed records, the
    number of FINDING verdicts, and the count and sha256 of the lines that
    the checker's verdicts make as compact sorted-key JSON records.
    """
    key = repr(cfg)
    if key not in _SCALAR_RUNS:
        checker = CHECKERS[cfg.theorems[0]]
        real_checker = getattr(theorems, checker)
        verdicts, records = [], []

        def recording(*args, **kwargs):
            verdicts.append(real_checker(*args, **kwargs))
            return verdicts[-1]

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(theorems, checker, recording)
            without_settle(monkeypatch)
            result = run_sweep(cfg, sink=into(records))
        group = cfg.groups[0]
        want = "".join(json.dumps({"kind": "verdict", "theorem": v.theorem.value, "group": group,
                                   "status": v.status.value, "witness": v.witness},
                                  sort_keys=True, separators=(",", ":")) + "\n" for v in verdicts)
        _SCALAR_RUNS[key] = (result.summary, counts_from_records(records),
                             sum(v.status is Status.FINDING for v in verdicts),
                             len(verdicts), hashlib.sha256(want.encode()).hexdigest())
    return _SCALAR_RUNS[key]


@pytest.mark.parametrize("config, spec",
                         [(config, spec) for config in OLSON_INTERSECTION_CONFIGS
                          for spec in ("Z6", "D3", "Z2xZ4", "Q8")]
                         + [("olson-sampled", "D5"), ("olson-sampled", "Z40")])
def test_olson_and_intersection_counting_equals_per_instance_mode(config, spec):
    # bulk HOLDS / NOT_APPLICABLE counts must agree with running the scalar
    # checker on every instance, a run whose _check_batch gets no settle.
    # Sampled D5 has masks over two bytes in a nonabelian group, Z40 has
    # uint64 masks. test_rendered_lines_equal_the_scalar_checker_records
    # reads the same scalar run
    cfg = SweepConfig(groups=(spec,), **OLSON_INTERSECTION_CONFIGS[config])
    counted = run_sweep(cfg)
    summary, counts = scalar_run(cfg)[:2]
    assert counts_from_summary(counted.summary) == counts
    assert counted.summary == summary


def test_intersection_counting_path_still_refuses_a_non_cell(monkeypatch):
    # {0,2} is not a cell of {0,1} in Z6: {0,2}S = {0,1,2,3} also absorbs 1+S
    real = theorems._full_cell_enumeration

    def with_intruder(g, s_bits, cap):
        cells, products, deficiency = real(g, s_bits, cap)
        return tuple(np.append(column, column.dtype.type(v))
                     for column, v in ((cells, 0b101), (products, 0b1111), (deficiency, 2)))

    monkeypatch.setattr(theorems, "_full_cell_enumeration", with_intruder)
    cfg = SweepConfig(groups=("Z6",), theorems=("intersection",), set_spec="{0,1}")
    with pytest.raises(ValueError, match="not a cell"):
        run_sweep(cfg)


SET_CHECKERS = {"chain": "check_theorem_subgroup_kernels",
                "corollary": "check_corollary_kernel_structure"}


def count_checker_calls(monkeypatch, theorem):
    """Wrap theorem's scalar checker so each call's verdict statuses are kept; returns that list."""
    name = SET_CHECKERS[theorem]
    real, calls = getattr(theorems, name), []

    def counted(*args, **kwargs):
        verdicts = real(*args, **kwargs)
        calls.append({v.status for v in (verdicts if isinstance(verdicts, list) else [verdicts])})
        return verdicts

    monkeypatch.setattr(theorems, name, counted)
    return calls


@pytest.mark.parametrize("theorem", SET_CHECKERS)
@pytest.mark.parametrize("spec", ["Z6", "D3", "Z2xZ4", "Q8", "Z12", "D6"])
def test_chain_and_corollary_counting_equals_per_instance_mode(monkeypatch, theorem, spec):
    # with a sink every S reaches the scalar checker; without one the settle
    # decides every S whose verdicts all hold or are all NOT_APPLICABLE, and
    # only the rest (D3's and D6's corollary FINDINGs) reach the checker.
    # Order 12 runs to |S| = 5, where the corollary has two inhabited u
    cfg = SweepConfig(groups=(spec,), theorems=(theorem,),
                      s_max=5 if build_group(spec).order > 8 else None)
    calls = count_checker_calls(monkeypatch, theorem)
    records = []
    streamed = run_sweep(cfg, sink=into(records))
    mixed = sum(statuses not in ({Status.HOLDS}, {Status.NOT_APPLICABLE}) for statuses in calls)
    calls.clear()
    counted = run_sweep(cfg)
    assert counts_from_summary(counted.summary) == counts_from_records(records)
    assert (counted.summary, counted.violations, counted.findings) == (
        streamed.summary, streamed.violations, streamed.findings)
    assert len(calls) == mixed
    if spec.startswith("D") and theorem == "corollary":
        assert mixed > 0


def with_intruder(monkeypatch, s, cell, product):
    """Put an intruder row, in its sorted place, into the enumeration of each member of the class of s.

    Each right translate s*y that holds 1 shares the enumeration of s, its
    products moved by y, so each gets the row with its product moved too.
    As in a real prefix, a member gets the row only where its deficiency
    is within the member's bound. The settles (through _prefix_columns)
    and the scalar checkers (through _full_cell_enumeration and its memo)
    both read the enumeration from cells.cell_sweep, so both see it.
    """
    real = cells_module.cell_sweep
    g = s.group
    cell, product = g.subset(cell).bits, g.subset(product).bits
    u = product.bit_count() - cell.bit_count()
    moved = {product_bits(g, s.bits, 1 << y): product_bits(g, product, 1 << y) for y in range(g.order)}

    def sweep(g, masks, u_max=None):
        columns, bits = real(g, masks, u_max), masks.tolist()
        at = [i for i, m in enumerate(bits) if m in moved and (u_max is None or u <= u_max[i])]
        extra = ([cell] * len(at), [moved[bits[i]] for i in at], [u] * len(at), at)
        cells, products, deficiency, segment = (np.append(c, np.array(e, dtype=c.dtype))
                                                for c, e in zip(columns, extra))
        order = np.lexsort((cells, np.bitwise_count(cells), deficiency, segment))
        return cells[order], products[order], deficiency[order], segment[order]

    for module in (cells_module, theorems):
        monkeypatch.setattr(module, "cell_sweep", sweep)


@pytest.mark.parametrize("theorem, cell, product, failed", [
    # the two routes of test_chain_checker_reports_each_violated_route, which
    # also break part (ii) for some pair, then a part (i) alone: a subgroup
    # 2-cell, not a kernel, incomparable with the 2-kernel {0,6}
    ("chain", (0, 4, 8), (0, 1, 4, 8), {"SUBGROUP_KERNEL_CHAIN"}),
    ("chain", (0, 2, 4, 6, 8, 10), (0, 1, 2, 3, 4, 5, 6, 8, 10), {"SUBGROUP_KERNEL_CHAIN"}),
    ("chain", (0, 4, 8), (0, 1, 4, 5, 8), {"SUBGROUP_KERNEL_CHAIN"}),
    # part I: the one 2-kernel misses the identity
    ("corollary", (1,), (1, 2, 3), {"COROLLARY_I"}),
    # part II: a 2-cell that is not {0,6}-periodic
    ("corollary", (1, 2, 3), (1, 2, 3, 4, 5), {"COROLLARY_II"}),
    # part III: the 2-kernel {0,6} is not inside the 1-kernel {0,4,8}
    ("corollary", (0, 4, 8), (0, 1, 4, 8), {"COROLLARY_III"}),
], ids=["chain-incomparable", "chain-not-nested", "chain-i-only", "corollary-I", "corollary-II",
        "corollary-III"])
def test_an_intruder_reaches_the_checker_in_counting_mode(monkeypatch, theorem, cell, product, failed):
    # no true statement yields VIOLATED, so an intruder in the enumeration
    # of the class of {0,1,6,7}, which is {0,1,6,7} and {0,5,6,11}, stands in
    # for a wrong one: the settle must leave both S to the checker, which
    # reports each as the sink run does
    with_intruder(monkeypatch, Z12.subset([0, 1, 6, 7]), cell, product)
    cfg = SweepConfig(groups=("Z12",), theorems=(theorem,), s_max=4)
    calls = count_checker_calls(monkeypatch, theorem)
    records = []
    streamed = run_sweep(cfg, sink=into(records))
    violated = [r for r in records if r["status"] == "VIOLATED"]
    assert {r["theorem"] for r in violated} == failed
    assert {r["witness"]["s"] for r in violated} == {"{0,1,6,7}", "{0,5,6,11}"}
    calls.clear()
    counted = run_sweep(cfg)
    assert len(calls) == 2 and all(Status.VIOLATED in statuses for statuses in calls)
    assert (counted.summary, counted.violations) == (streamed.summary, streamed.violations)


def test_corollary_settles_a_chunk_with_no_inhabited_deficiency():
    # |S| = 3, but no cell of {0,1,2} in Z6 has deficiency 1
    r = run_sweep(SweepConfig(groups=("Z6",), theorems=("corollary",), set_spec="{0,1,2}"))
    assert r.summary["totals"] == {"NOT_APPLICABLE": 3}


def test_whole_space_order_16_chain_and_corollary_totals():
    # every S of D8 and of Z16, settled one cell_sweep per chunk of new
    # classes; the totals are those of the per-S enumeration before it. One
    # cell_sweep holds the cells of its chunk's classes: the D8 chain traced
    # 6.1 MiB with the per-S enumeration, and 5.0 MiB with chunks of 128
    # sets against 9.5 MiB with chunks of 512
    tracemalloc.start()
    try:
        chain = run_sweep(SweepConfig(groups=("D8",), theorems=("chain",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.summary["totals"] == {"HOLDS": 32_768}
    assert peak < 10 << 20
    corollary = run_sweep(SweepConfig(groups=("Z16",), theorems=("corollary",)))
    assert corollary.summary["totals"] == {"HOLDS": 1_071, "NOT_APPLICABLE": 97_233}


def test_chain_and_corollary_counts_do_not_depend_on_the_set_chunk(monkeypatch):
    # chunks of 7 sets split the right-translate classes of S between them,
    # on Z12 (to |S| = 5) as on the groups of order 6 and 8
    for kwargs in (dict(groups=("Z6", "D3", "Z2xZ4")), dict(groups=("Z12",), s_max=5)):
        cfg = SweepConfig(theorems=("chain", "corollary"), **kwargs)
        whole = run_sweep(cfg)
        monkeypatch.setattr(theorems, "_S_CHUNK", 7)
        chunked = run_sweep(cfg)
        assert (chunked.summary, chunked.findings) == (whole.summary, whole.findings)
        records = []
        run_sweep(cfg, sink=into(records))
        assert counts_from_summary(chunked.summary) == counts_from_records(records)
        monkeypatch.undo()


@pytest.mark.parametrize("theorem", SET_CHECKERS)
@pytest.mark.parametrize("spec", builtin_specs(8) + ["Z12", "D6"])
def test_the_class_settle_equals_the_batch_on_every_set(theorem, spec):
    # the batch run once per right-translate class, its masks read back to
    # every S, against the batch run on every S; order 12 to |S| = 5
    g = build_group(spec)
    batch = {"chain": theorems._chain_batch, "corollary": theorems._corollary_batch}[theorem]
    sets = list(IdentitySubsets(g, 1, 5 if g.order > 8 else g.order))
    known = [np.zeros(0, dtype=mask_dtype(g.order)), np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)]
    settled = theorems._class_settle(g, sets, g.order, batch, known)
    direct = batch(g, sets, g.order)
    assert len(settled) == len(direct) == 2
    for a, b in zip(settled, direct):
        assert a.tolist() == b.tolist()


@pytest.mark.parametrize("theorem", SET_CHECKERS)
def test_a_set_sweep_settles_each_class_once_across_chunks(monkeypatch, theorem):
    # chunks of 7 sets meet most classes of S in several chunks; the batch
    # must still see each class key once in a whole-space sweep, and the
    # counts must equal per-instance mode, where every S reaches the checker
    cfg = SweepConfig(groups=("Z6", "D3", "D4", "Z2xZ4"), theorems=(theorem,))
    records = []
    streamed = run_sweep(cfg, sink=into(records))
    name = {"chain": "_chain_batch", "corollary": "_corollary_batch"}[theorem]
    real, keys = getattr(theorems, name), []

    def recording(g, sets, cap):
        keys.extend((g.label, k) for k in translate_class_keys(
            g, np.array([s.bits for s in sets], dtype=mask_dtype(g.order))).tolist())
        return real(g, sets, cap)

    monkeypatch.setattr(theorems, name, recording)
    monkeypatch.setattr(theorems, "_S_CHUNK", 7)
    counted = run_sweep(cfg)
    assert counts_from_summary(counted.summary) == counts_from_records(records)
    assert (counted.summary, counted.findings) == (streamed.summary, streamed.findings)
    want = set()
    for spec in cfg.groups:
        g = build_group(spec)
        masks = np.array([s.bits for s in IdentitySubsets(g, 1, g.order)], dtype=mask_dtype(g.order))
        want |= {(spec, k) for k in translate_class_keys(g, masks).tolist()}
    assert len(keys) == len(set(keys))
    assert set(keys) == want


def test_sampled_kneser_draws_do_not_depend_on_the_chunk(monkeypatch):
    cfg = SweepConfig(groups=("Z6",), theorems=("kneser",), mode="sampled", samples=50, seed=3)
    whole = []
    run_sweep(cfg, sink=into(whole))
    monkeypatch.setattr(theorems, "_CHUNK", 7)
    chunked = []
    run_sweep(cfg, sink=into(chunked))
    assert chunked == whole


def test_kneser_counting_does_not_depend_on_the_chunk(monkeypatch):
    # Kneser: sampled chunks of 7 pairs; exhaustive blocks of one Y, then of
    # two Ys with a short last block. Olson: chunks that split one subgroup
    # pair's block, then chunks that join several; its records must match too
    cases = [(dict(groups=("Z2xZ4",), theorems=("kneser",), mode=mode, samples=500, seed=3), False)
             for mode in ("sampled", "exhaustive")]
    cases += [(dict(groups=("Z6", "D3"), theorems=("olson",)), True),
              (dict(groups=("Z6", "D3", "Q8"), theorems=("olson",), mode="sampled", samples=3000,
                    seed=17), True)]
    for kwargs, with_records in cases:
        cfg = SweepConfig(**kwargs)

        def outcome():
            records = []
            if with_records:
                run_sweep(cfg, sink=into(records))
            return run_sweep(cfg).summary, records

        whole = outcome()
        for chunk in (7, 600):
            monkeypatch.setattr(theorems, "_CHUNK", chunk)
            assert outcome() == whole, (kwargs, chunk)
        monkeypatch.undo()


# (config, records, sha256 of the sink's lines), pinned from the record
# streams of the scalar checkers as compact sorted-key JSON lines: a changed
# draw, verdict, witness, record order or rendered line moves the digest
PINNED_STREAMS = [
    (dict(groups=("Z6", "D3"), theorems=theorems.DRIVER_NAMES, s_max=3), 31_930,
     "373d3e824c6ac4631c8c57da91e08f5a554cc703d42d9a41cb261d689aad4a5d"),
    (dict(groups=("Z6", "D3", "Q8", "D5"), theorems=("olson",), mode="sampled", samples=3000,
          seed=17), 12_000,
     "897008f8fc0dd5effd5de54aacc145575486bec1322014daad5039ea96f4562a"),
    (dict(groups=("Z6", "D3"), theorems=("kneser",), mode="sampled", samples=3000, seed=4), 6_000,
     "df18c771177875cf9ae6a004b3fff20269e9045d467f47afcba743c0f2721005"),
]


def test_sweep_record_streams_match_pinned_digests():
    for kwargs, count, digest in PINNED_STREAMS:
        lines = []
        run_sweep(SweepConfig(**kwargs), sink=lines.append)
        assert len(lines) == count, kwargs
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest, kwargs


# every configuration of the counting-versus-streaming tests for the
# theorems whose streams are rendered from columns, plus sampled two-byte
# dichotomy masks. Olson covers both modes, abelian and nonabelian groups
# and the two NOT_APPLICABLE branches a sweep reaches (its X and Y are
# H- and K-periodic by construction; test_olson_na_names_each_failed_hypothesis
# covers the checker's four), the intersection empty meets
ORACLE_CONFIGS = {
    **{f"kneser-{spec}": dict(groups=(spec,), theorems=("kneser",))
       for spec in ("Z5", "Z6", "Z2xZ2", "D3", "Q8", "Z2xZ4", "Z2xZ2xZ2")},
    **{f"kneser-sampled-{spec}": dict(groups=(spec,), theorems=("kneser",), mode="sampled",
                                      samples=3000, seed=4)
       for spec in ("D3", "Z8", "Z2xZ2xZ2", "Z40")},
    "kneser-wide-Z70": dict(groups=("Z70",), theorems=("kneser",), mode="sampled", samples=300,
                            seed=4, wide=True),
    **{f"dichotomy-{spec}": dict(groups=(spec,), theorems=("dichotomy",), s_max=3)
       for spec in ("Z6", "Z8", "D4")},
    "dichotomy-sampled-Z12": dict(groups=("Z12",), theorems=("dichotomy",), mode="sampled",
                                  samples=2000, s_samples=3, seed=7),
    **{f"olson-{spec}": dict(groups=(spec,), theorems=("olson",)) for spec in ("Z6", "D3", "Z2xZ4", "Q8")},
    **{f"olson-sampled-{spec}": dict(groups=(spec,), theorems=("olson",), mode="sampled", samples=3000,
                                     seed=17)
       for spec in ("Z6", "D3", "D5", "Z40")},
    **{f"intersection-{spec}": dict(groups=(spec,), theorems=("intersection",), s_max=3)
       for spec in ("Z6", "D3", "Z2xZ4", "Q8")},
}


@pytest.mark.parametrize("case", ORACLE_CONFIGS)
def test_rendered_lines_equal_the_scalar_checker_records(case, monkeypatch):
    # every line of the stream, rendered from a batch's columns or not, must
    # be the scalar checker's record for that instance as compact sorted-key
    # JSON, from the run of scalar_run whose _check_batch gets no settle
    cfg = SweepConfig(**ORACLE_CONFIGS[case])
    checker = CHECKERS[cfg.theorems[0]]
    real_checker = getattr(theorems, checker)
    calls = []

    def recording(*args, **kwargs):
        calls.append(None)
        return real_checker(*args, **kwargs)

    monkeypatch.setattr(theorems, checker, recording)
    lines = []
    run_sweep(cfg, sink=lines.append)
    rendered = len(lines) - len(calls)
    findings, count, digest = scalar_run(cfg)[2:]
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == (count, digest)
    # the columns render every line but the checker's own: D3's 54 FINDINGs,
    # D4's dichotomy FINDINGs, and every --wide pair; so every Olson and
    # intersection line
    if case == "kneser-wide-Z70":
        assert rendered == 0
    else:
        assert rendered == len(lines) - findings > 0


def test_template_escapes_what_json_escapes():
    # a Cayley-file label may hold %, quotes, backslashes or non-ASCII; the
    # fixed parts of a template are jsonl_line's own bytes, the fields are not
    label = 'cayley:a%d "b"\\c\u00e9'
    witness = {"x": "{0,1}", "n": 3, "note": "100%", "flag": True, "group": label}
    record = {"kind": "verdict", "theorem": "KNESER", "group": label, "status": "HOLDS", "witness": witness}
    template, fields = theorems.line_template(dict(record, bits=hex, witness=dict(witness, x=str, n=int)))
    # the fields in line order: keys sorted within each dict, bits before the witness
    assert fields == [("bits", hex), ("n", int), ("x", str)]
    assert template % (10, 3, "{0,1}") == theorems.jsonl_line(dict(record, bits="0xa"))
    # a field key must name one value of the record
    with pytest.raises(ValueError, match="repeat"):
        theorems.line_template(dict(record, x=str, witness=dict(witness, x=str)))


def test_kneser_sweep_frozen_counts():
    r = run_sweep(SweepConfig(groups=("Z6",), theorems=("kneser",)))
    assert r.summary["counts"]["KNESER"]["Z6"] == {
        "HOLDS": 849, "NOT_APPLICABLE": 3120,
    }
    assert r.summary["instances"] == 63 * 63


def test_dichotomy_sweep_counting_equals_per_instance_mode():
    for spec in ("Z6", "Z8"):
        cfg = SweepConfig(groups=(spec,), theorems=("dichotomy",), s_max=3)
        counted = run_sweep(cfg)
        records = []
        run_sweep(cfg, sink=into(records))
        assert counts_from_summary(counted.summary) == counts_from_records(records)


def test_exploration_mode_is_reported_and_never_violates():
    r = run_sweep(SweepConfig(groups=("D3",), theorems=("kneser",)))
    assert r.summary["counts"]["KNESER"]["D3"] == {
        "FINDING": 54, "HOLDS": 849, "NOT_APPLICABLE": 3066,
    }
    assert r.summary["exploration"] == [["KNESER", "D3"]]
    assert r.violated == 0
    assert len(r.findings) == 54
    assert r.findings[0]["status"] == "FINDING"


def test_exploration_is_noted_for_each_abelian_only_statement():
    r = run_sweep(SweepConfig(groups=("D3", "Z6"), theorems=theorems.DRIVER_NAMES, s_max=2))
    assert r.summary["exploration"] == [
        ["COROLLARY_I", "D3"], ["COROLLARY_II", "D3"], ["COROLLARY_III", "D3"],
        ["DICHOTOMY", "D3"], ["KNESER", "D3"],
    ]
    # a refused task is noted too: D8's pair space is above max_instances
    r = run_sweep(SweepConfig(groups=("D8",), theorems=("kneser",)))
    assert r.summary["errors"] == 1
    assert r.summary["exploration"] == [["KNESER", "D8"]]


@pytest.mark.usefixtures("pool_cpus")
def test_sweep_is_deterministic_and_jobs_invariant():
    cfg = dict(groups=("Z6", "Z9"), theorems=("kneser", "dichotomy"),
               mode="sampled", samples=400, s_samples=3, seed=11)
    rec_a, rec_b, rec_c = [], [], []
    a = run_sweep(SweepConfig(**cfg), sink=into(rec_a))
    b = run_sweep(SweepConfig(**cfg), sink=into(rec_b))
    c = run_sweep(SweepConfig(**cfg, jobs=2), sink=into(rec_c))
    assert rec_a == rec_b == rec_c
    assert a.summary == b.summary == c.summary


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the pool's workers see a monkeypatch only when they are forked from the test
fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="monkeypatches reach pool workers through fork only")

POOL_CASES = {
    # six tasks on two or three workers, each stream many units long
    "more-tasks-than-jobs": dict(groups=("Z6", "D3", "Z2xZ2"), theorems=("kneser", "dichotomy"),
                                 s_max=3),
    # two tasks: streamed, each dealt across every worker; counted, the
    # third worker is not started
    "more-jobs-than-tasks": dict(groups=("Z6",), theorems=("kneser", "chain")),
    # Z6's 3969 pairs are refused between Z5's 961 and Z2xZ2's 225
    "refused-in-the-middle": dict(groups=("Z5", "Z6", "Z2xZ2"), theorems=("kneser",),
                                  max_instances=1000),
    # every exhaustive driver, each task split into many units
    "every-driver": dict(groups=("Z6", "D3", "Z2xZ2"), theorems=theorems.DRIVER_NAMES, s_max=3),
    # Z7's first S of size 3 has 406 cell pairs and streams them; its second,
    # with 630, is refused mid-task
    "refused-mid-task": dict(groups=("Z7",), theorems=("intersection", "dichotomy"), s_min=3, s_max=3,
                             max_instances=500),
    # above the enumeration cap, the corollary's first S of size 3 is refused
    # by the checker inside a unit, which only that unit's worker sees
    "refused-inside-a-unit": dict(groups=("Z6", "D3"), theorems=("corollary", "kneser"), enumeration_cap=4),
    # D3's 54 Kneser FINDINGs and D4's 32 dichotomy FINDINGs, capped
    "capped-kneser-findings": dict(groups=("D3",), theorems=("kneser",)),
    "capped-dichotomy-findings": dict(groups=("D3", "D4"), theorems=("dichotomy",), s_max=3),
    # one task, dealt across every worker
    "one-task": dict(groups=("Z6",), theorems=("kneser",)),
    # Z2's and Z3's T spaces are one block each, so each S is one unit, dealt
    # to one worker, while every worker runs the set-up of every S
    "dichotomy-one-block-per-s": dict(groups=("Z2", "Z3"), theorems=("dichotomy",)),
}


def small_units(monkeypatch):
    """Cut every task into many units, in sink and counting mode, and cap the records kept at 20."""
    monkeypatch.setattr(theorems, "_LINE_CHUNK", 7)
    monkeypatch.setattr(theorems, "_CHUNK", 97)
    monkeypatch.setattr(theorems, "_S_CHUNK", 5)
    monkeypatch.setattr(theorems, "RECORD_CAP", 20)


@fork_only
@pytest.mark.usefixtures("pool_cpus")
@pytest.mark.parametrize("case", POOL_CASES)
def test_pool_streams_the_serial_records_in_small_chunks(case, monkeypatch):
    # units of 7 lines with a sink and of 97 instances (5 sets) without:
    # each task crosses many unit boundaries; streamed, an exhaustive task
    # is dealt across two or three workers, whatever the host's CPUs
    small_units(monkeypatch)
    serial_lines = []
    serial = run_sweep(SweepConfig(**POOL_CASES[case]), sink=serial_lines.append)
    counted_run = run_sweep(SweepConfig(**POOL_CASES[case]))
    counted = counted_run.summary
    assert counted == serial.summary
    refused = {"refused-in-the-middle": ["Z6"], "refused-mid-task": ["Z7"], "refused-inside-a-unit": ["Z6", "D3"]}
    if case in refused:
        assert [r["group"] for r in serial.errors] == refused[case]
    if case == "refused-mid-task":
        # after the 406 lines of the first S
        assert serial_lines.index(theorems.jsonl_line(serial.errors[0])) == 406
    if case.startswith("capped"):
        assert serial.summary["totals"]["FINDING"] > len(serial.findings) == 20
        # the capped list is the stream's first 20 FINDING records, counted or not
        first = [r for r in map(json.loads, serial_lines) if r.get("status") == "FINDING"][:20]
        assert serial.findings == first
        assert counted_run.findings == first
    for jobs in (1, 2, 3):
        lines = []
        with deadline(120):
            pooled = run_sweep(SweepConfig(**POOL_CASES[case], jobs=jobs), sink=lines.append)
            pooled_count = run_sweep(SweepConfig(**POOL_CASES[case], jobs=jobs)).summary
        # run_sweep's sink still takes one line per call
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines), jobs
        assert lines == serial_lines, jobs
        assert (pooled.summary, pooled.violations, pooled.findings, pooled.errors) == (
            serial.summary, serial.violations, serial.findings, serial.errors), jobs
        assert pooled_count == counted, jobs
    assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.usefixtures("pool_cpus")
@pytest.mark.parametrize("jobs", [2, 3])
def test_one_task_is_settled_by_every_worker(jobs, monkeypatch):
    # each worker counts the units it ships with lines in memory that the
    # forked workers share; Z6's 3969 Kneser pairs make 63 units, one Y each
    small_units(monkeypatch)
    shipped = multiprocessing.Array("i", jobs)
    real_ship = theorems._DealtState.ship

    def counted_ship(self, last=False):
        if self.lines:
            with shipped.get_lock():
                shipped[self.seat] += 1
        real_ship(self, last)

    monkeypatch.setattr(theorems._DealtState, "ship", counted_ship)
    cfg = SweepConfig(groups=("Z6",), theorems=("kneser",))
    serial = []
    run_sweep(cfg, sink=serial.append)
    # the serial run ships the same units from seat 0, in this process
    shipped[:] = [0] * jobs
    pooled = []
    with deadline(60):
        run_sweep(SweepConfig(groups=("Z6",), theorems=("kneser",), jobs=jobs), sink=pooled.append)
    assert pooled == serial
    assert sum(shipped) == 63 and min(shipped) >= 63 // jobs
    assert multiprocessing.active_children() == []


def test_the_pool_starts_at_most_one_worker_per_usable_cpu(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert theorems._usable_cpus() == len(os.sched_getaffinity(0))
    # a Process that starts nothing: its pipe's write end is closed unused,
    # so the sweep ends at once, naming task 0, after the pool was built
    made = []

    class Idle:
        exitcode = None

        def __init__(self, target, name, args):
            made.append(name)

        def start(self):
            pass

        def terminate(self):
            pass

        def join(self):
            pass

    ctx = multiprocessing.get_context()
    stub = type("Context", (), {"Pipe": staticmethod(ctx.Pipe), "Process": Idle})
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: stub)
    monkeypatch.setattr(theorems, "_usable_cpus", lambda: 4)
    with pytest.raises(RuntimeError, match=r"task 0 \(kneser on Z6\) did not finish"):
        run_sweep(SweepConfig(groups=("Z6",), theorems=("kneser",), jobs=10_000), sink=[].append)
    assert made == [f"cellkit-sweep-{w}" for w in range(4)]
    # a task dealt whole takes one worker at most: one task, counted, runs
    # in this process, as does any sweep on one usable CPU
    made.clear()
    for cpus, sink in ((4, None), (1, [].append)):
        monkeypatch.setattr(theorems, "_usable_cpus", lambda: cpus)
        assert run_sweep(SweepConfig(groups=("Z6",), theorems=("kneser",), jobs=10_000), sink=sink).summary == (
            run_sweep(SweepConfig(groups=("Z6",), theorems=("kneser",)))).summary
    assert made == []


@fork_only
@pytest.mark.usefixtures("pool_cpus")
@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_a_failed_pool_worker_makes_the_sweep_raise(failure, monkeypatch):
    # task 1, Kneser on Z3, fails in its worker: by an exception, or by the
    # process ending without a word, as an OOM kill would end it
    real = theorems._DRIVERS["kneser"]

    def failing(g, cfg, state, seed):
        if g.label == "Z3":
            if failure == "raises":
                raise ValueError("the driver failed")
            os._exit(3)
        real(g, cfg, state, seed)

    monkeypatch.setitem(theorems._DRIVERS, "kneser", failing)
    cfg = SweepConfig(groups=("Z2", "Z3", "Z4"), theorems=("kneser",), jobs=2)
    task = r"task 1 \(kneser on Z3\)"
    for sink in ([].append, None):
        with deadline(60):
            if failure == "raises":
                with pytest.raises(ValueError, match="the driver failed") as excinfo:
                    run_sweep(cfg, sink=sink)
                # the cause carries the worker's traceback and names the task
                assert "task 1 (kneser on Z3) failed in a sweep worker" in str(excinfo.value.__cause__)
            else:
                with pytest.raises(RuntimeError, match=task + ".*exited with code 3"):
                    run_sweep(cfg, sink=sink)
        assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.usefixtures("pool_cpus")
def test_a_worker_that_exits_in_its_second_task_keeps_its_first_tasks_lines(monkeypatch):
    # tasks 0..3 are Kneser on Z2..Z5, each dealt across both workers, and
    # each worker exits once it reaches task 3. Every line sent before the
    # exit reaches the sink, each worker's units of tasks 0..2 included,
    # and then the sweep names the task the worker died in.
    real = theorems._DRIVERS["kneser"]

    def exiting(g, cfg, state, seed):
        if g.label == "Z5":
            os._exit(3)
        real(g, cfg, state, seed)

    groups = ("Z2", "Z3", "Z4", "Z5")
    serial_lines = []
    run_sweep(SweepConfig(groups=groups[:3], theorems=("kneser",)), sink=serial_lines.append)
    monkeypatch.setitem(theorems._DRIVERS, "kneser", exiting)
    lines = []
    with deadline(60):
        with pytest.raises(RuntimeError, match=r"task 3 \(kneser on Z5\).*exited with code 3"):
            run_sweep(SweepConfig(groups=groups, theorems=("kneser",), jobs=2), sink=lines.append)
    assert lines == serial_lines
    assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.usefixtures("pool_cpus")
def test_a_worker_past_a_tasks_end_is_not_heard(monkeypatch):
    # each task is refused inside its first unit, which one worker settles;
    # the other runs on past the serial end and raises where the serial
    # run never gets, and that exception is dropped with its task
    def refuse(i):
        raise theorems.EnumerationCapError("refused inside the unit")

    def driver(g, cfg, state, seed):
        theorems._check_batch(state, g.label, theorems._TAGS["kneser"], (np.arange(1),), refuse)
        raise ValueError("past the end")

    monkeypatch.setitem(theorems._DRIVERS, "kneser", driver)
    cfg = dict(groups=("Z2", "Z3"), theorems=("kneser",))
    serial_lines, lines = [], []
    serial = run_sweep(SweepConfig(**cfg), sink=serial_lines.append)
    with deadline(60):
        pooled = run_sweep(SweepConfig(**cfg, jobs=2), sink=lines.append)
    assert lines == serial_lines
    assert pooled.errors == serial.errors and [r["group"] for r in serial.errors] == ["Z2", "Z3"]
    assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.usefixtures("pool_cpus")
def test_a_worker_killed_mid_message_makes_the_sweep_raise(monkeypatch):
    # a worker killed while a chunk is half written, as an OOM kill can
    # catch it once the chunk outgrows the pipe, leaves a message cut short
    def cut_short(tasks, groups, cfg, collect, conn):
        os.write(conn.fileno(), (1 << 20).to_bytes(4, "big") + b"\x80")
        os._exit(3)

    monkeypatch.setattr(theorems, "_worker", cut_short)
    with deadline(60):
        with pytest.raises(RuntimeError, match=r"task 0 \(kneser on Z2\).*exited with code 3"):
            run_sweep(SweepConfig(groups=("Z2", "Z3"), theorems=("kneser",), jobs=2))
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("pool_cpus")
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_under_spawn_streams_the_serial_records(method, monkeypatch):
    # spawned and forkserver workers share no memory with the parent: the
    # groups built by the pre-flight and each unit's state travel pickled.
    # Z2xZ4's Kneser task is many units of whole Y rows, dealt across both
    # workers
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    cfg = SweepConfig(groups=("Z2xZ4", "D3"), theorems=("kneser", "chain"), s_max=2)
    pooled_cfg = SweepConfig(groups=("Z2xZ4", "D3"), theorems=("kneser", "chain"), s_max=2, jobs=2)
    serial_units, pooled_units = [], []
    serial = theorems.sweep_groups(cfg, theorems.prepare_sweep(cfg), serial_units.append)
    with deadline(120):
        pooled = theorems.sweep_groups(pooled_cfg, theorems.prepare_sweep(pooled_cfg), pooled_units.append)
    assert pooled_units == serial_units
    rows = theorems._LINE_CHUNK // 255  # of 255 X each, in a unit
    assert serial_units[0].count("\n") == rows * 255
    assert {theorems._owner(pooled_cfg, 0, unit, True) for unit in range(-(-255 // rows))} == {0, 1}
    assert (pooled.summary, pooled.findings) == (serial.summary, serial.findings)
    assert multiprocessing.active_children() == []


def test_sampled_sweeps_cover_remaining_drivers_deterministically():
    cfg = dict(groups=("Z6", "D3"), theorems=("olson", "intersection", "chain", "corollary"),
               mode="sampled", samples=50, s_samples=2, seed=5, s_max=4)
    a = run_sweep(SweepConfig(**cfg))
    b = run_sweep(SweepConfig(**cfg))
    assert a.summary == b.summary
    assert a.violated == 0
    assert a.summary["instances"] > 0


def test_sweep_config_validation():
    with pytest.raises(SweepConfigError, match="no groups"):
        SweepConfig(groups=(), theorems=("kneser",)).validate()
    with pytest.raises(SweepConfigError, match="^no theorems selected$"):
        SweepConfig(groups=("Z6",), theorems=()).validate()
    with pytest.raises(SweepConfigError, match="unknown theorem"):
        SweepConfig(groups=("Z6",), theorems=("fermat",)).validate()
    with pytest.raises(SweepConfigError, match="^sampled mode requires positive samples and s_samples$"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), mode="sampled", seed=1, samples=0).validate()
    with pytest.raises(SweepConfigError, match="requires a seed"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), mode="sampled").validate()
    with pytest.raises(SweepConfigError, match="unknown mode"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), mode="fast").validate()
    with pytest.raises(SweepConfigError, match="jobs"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), jobs=0).validate()
    with pytest.raises(SweepConfigError, match="s_min"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), s_min=0).validate()
    with pytest.raises(SweepConfigError, match="below s_min"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), s_min=3, s_max=2).validate()
    with pytest.raises(SweepConfigError, match="max_instances must be at least 1, got -1"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), max_instances=-1).validate()
    with pytest.raises(SweepConfigError, match="enumeration cap 80 is above 64"):
        SweepConfig(groups=("Z6",), theorems=("chain",), enumeration_cap=80).validate()
    for cap in (0, -3):
        with pytest.raises(SweepConfigError, match=f"enumeration cap {cap} is below 1"):
            SweepConfig(groups=("Z6",), theorems=("chain",), enumeration_cap=cap).validate()
    # a malformed --set is refused whether or not a selected theorem reads it
    with pytest.raises(SubsetSpecError, match="unrecognized subset spec"):
        SweepConfig(groups=("Z6",), theorems=("kneser",), set_spec="garbage").validate()


def test_sweep_refuses_oversized_tasks_with_an_error_record():
    r = run_sweep(SweepConfig(groups=("Z6",), theorems=("kneser",), max_instances=10))
    assert r.summary["instances"] == 0
    assert r.summary["errors"] == 1
    assert "max_instances" in r.errors[0]["message"]
    assert r.violated == 0


CAP_REFUSAL = ("exhaustive enumeration lists up to 2^6 cells from 2^(6-|S|) candidate products; "
               "refusing order 6 above cap 4")
REFUSALS = {
    "kneser": (dict(theorems=("kneser",), max_instances=10),
               "KNESER", "exhaustive pair space 3969 exceeds max_instances 10"),
    "kneser-wide": (dict(groups=("Z70",), theorems=("kneser",), wide=True, max_instances=1 << 150),
                    "KNESER", "subset masks of order 70 do not fit a 64-bit integer"),
    "olson": (dict(theorems=("olson",), max_instances=10),
              "OLSON", "exhaustive coset-union space 74^2 exceeds max_instances 10"),
    "olson-wide": (dict(groups=("Z70",), theorems=("olson",), mode="sampled", samples=5, seed=1,
                        wide=True),
                   "OLSON", "subset masks of order 70 do not fit a 64-bit integer"),
    "intersection": (dict(theorems=("intersection",), max_instances=10),
                     "CELL_INTERSECT", "63 cells give 1953 pairs, above max_instances 10"),
    "chain": (dict(theorems=("chain",), enumeration_cap=4), "SUBGROUP_KERNEL_CHAIN", CAP_REFUSAL),
    # |S| <= 2 needs no enumeration, so instances come first
    "corollary": (dict(theorems=("corollary",), enumeration_cap=4), "COROLLARY_I", CAP_REFUSAL),
    "dichotomy": (dict(theorems=("dichotomy",), enumeration_cap=4), "DICHOTOMY", CAP_REFUSAL),
    "dichotomy-bound": (dict(theorems=("dichotomy",), max_instances=10),
                        "DICHOTOMY", "exhaustive T space 63 exceeds max_instances 10"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refused_task_ends_in_one_error_record(case):
    kwargs, tag, message = REFUSALS[case]
    cfg = SweepConfig(**{"groups": ("Z6",), **kwargs})
    records = []
    streamed = run_sweep(cfg, sink=into(records))
    error = {"kind": "error", "theorem": tag, "group": cfg.groups[0], "message": message}
    assert records[-1] == error
    assert [r for r in records if r["kind"] == "error"] == [error]
    assert streamed.errors == run_sweep(cfg).errors == [error]
    assert streamed.summary["errors"] == 1
    assert streamed.summary["instances"] == len(records) - 1


def test_set_spec_restricts_the_sweep():
    r = run_sweep(SweepConfig(groups=("Z12",), theorems=("chain",),
                              set_spec="{0,1,6,7}"))
    assert r.summary["instances"] == 1
    assert r.summary["counts"]["SUBGROUP_KERNEL_CHAIN"]["Z12"] == {"HOLDS": 1}
    with pytest.raises(SweepConfigError, match="lacks the identity"):
        run_sweep(SweepConfig(groups=("Z12",), theorems=("chain",), set_spec="{1,7}"))


def test_violation_plumbing_with_a_stub_driver(monkeypatch):
    # no true statement in the suite produces VIOLATED, so fake a driver to
    # prove the routing, the caps, and the exit-relevant counter all work
    def stub(g, cfg, state, seed):
        for i in range(5):
            state.add(g.label, TheoremVerdict(
                Theorem.KNESER, Status.VIOLATED, {"instance": i}))

    monkeypatch.setitem(theorems._DRIVERS, "kneser", stub)
    monkeypatch.setattr(theorems, "RECORD_CAP", 2)
    r = run_sweep(SweepConfig(groups=("Z2",), theorems=("kneser",)))
    assert r.violated == 5
    assert len(r.violations) == 2
    assert r.violations[0]["witness"] == {"instance": 0}
    assert r.summary["totals"]["VIOLATED"] == 5
