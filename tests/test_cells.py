"""Cell enumeration, closures, kernels, and the attached subgroup.

The oracles here replay the definitions with plain python sets: a cell of S
is a nonempty X equal to {z : zS is contained in XS}. Frozen values were
produced by these oracles and pinned.
"""

import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellkit import (
    ElementSet,
    EnumerationCapError,
    all_subgroups,
    balandraud_details,
    balandraud_subgroup,
    build_group,
    builtin_specs,
    cell_closure,
    enumerate_cells,
    generated_subgroup,
    is_cell,
    kernel_chain,
    kernels_at,
    left_stabilizer,
    normalize_s,
    product,
)
import cellkit.cells as cells_module
import cellkit.theorems as theorems
from cellkit.cells import (
    _byte_unions,
    _full_cell_enumeration,
    _gather,
    cell_columns,
    cell_sweep,
    closure_bits,
    closure_masks,
    column_union,
    kernel_cells,
    left_translate_masks,
    mask_dtype,
    pair_products,
    pair_products_every_x,
    periodic_flags,
    stabilizer_masks,
    subgroup_flags,
    translate_class_keys,
    translate_tables,
)
from cellkit.groups import inverse_bits, product_bits

Z6 = build_group("Z6")
Z8 = build_group("Z8")
Z12 = build_group("Z12")
D3 = build_group("D3")
D4 = build_group("D4")
D5 = build_group("D5")
D6 = build_group("D6")


# -- oracles --------------------------------------------------------------

def oracle_closure_bits(g, t_bits, s_bits):
    """closure(T) = {z : zS subset of TS}, computed with python sets."""
    s_idx = [b for b in range(g.order) if (s_bits >> b) & 1]
    p = {g.mul[z][b] for z in range(g.order) if (t_bits >> z) & 1 for b in s_idx}
    out = 0
    for z in range(g.order):
        if all(g.mul[z][b] in p for b in s_idx):
            out |= 1 << z
    return out


def oracle_cells_by_filter(g, s_bits):
    """Every cell, by testing each nonempty subset against the definition."""
    return {
        x for x in range(1, 1 << g.order)
        if oracle_closure_bits(g, x, s_bits) == x
    }


def oracle_cells_by_seeds(g, s_bits):
    """Every cell, as the set of closures of all nonempty seeds."""
    return {
        oracle_closure_bits(g, t, s_bits) for t in range(1, 1 << g.order)
    }


def identity_subsets(g, max_size):
    from itertools import combinations
    for size in range(1, max_size + 1):
        for combo in combinations(range(1, g.order), size - 1):
            bits = 1
            for i in combo:
                bits |= 1 << i
            yield bits


# -- enumeration agreement ------------------------------------------------

def oracle_sets(g, max_size):
    """Every identity set up to max_size; on order 6 also |S| = n-1 and S = G (no free rows)."""
    yield from identity_subsets(g, max_size)
    if g.order == 6:
        yield from (g.full_bits & ~(1 << z) for z in range(1, g.order))
        yield g.full_bits


# D5 and D6 have orders 10 and 12, so their masks span two bytes, and S
# differs from S^-1; on D6 the oracles would take 11 s over the size-3 sets
@pytest.mark.parametrize("g, max_size", [pytest.param(g, k, id=g.label)
                                         for g, k in ((Z6, 3), (D3, 3), (D5, 3), (D6, 2))])
def test_enumeration_agrees_with_both_oracles(g, max_size):
    for s_bits in oracle_sets(g, max_size):
        s = ElementSet(g, s_bits)
        records = enumerate_cells(s, u_max=g.order)
        got = {r.cell.bits for r in records}
        assert got == oracle_cells_by_filter(g, s_bits), s.spec_string()
        assert got == oracle_cells_by_seeds(g, s_bits), s.spec_string()
        for r in records:
            assert r.product == product(r.cell, s)
            assert r.deficiency == len(r.product) - len(r.cell)

        def deficiency(x):
            return product_bits(g, x, s_bits).bit_count() - x.bit_count()

        ordered = sorted(got, key=lambda x: (deficiency(x), x.bit_count(), x))
        assert [r.cell.bits for r in records] == ordered, s.spec_string()
        for u in range(g.order + 1):
            prefix = [x for x in ordered if deficiency(x) <= u]
            assert [r.cell.bits for r in enumerate_cells(s, u)] == prefix, (s.spec_string(), u)


@functools.cache
def oracle_cells(g, s_bits):
    """The cells of S from the filter oracle, once checked against the seed oracle."""
    cells = oracle_cells_by_filter(g, s_bits)
    assert cells == oracle_cells_by_seeds(g, s_bits)
    return cells


# one cell_sweep call on every identity set of a group to a size (on Z6 also
# |S| = n-1 and S = G, which has no free rows), the sizes shuffled in one
# column, held to both oracles set by set; at the default bounds, and at
# sub-batches of 2^3 candidates and gathers of 5 rooted cells, where the
# sweep of one S straddles many pieces and the S of one gather differ
@pytest.mark.parametrize("sweep_bits, gather_chunk", [(cells_module._SWEEP_BITS, cells_module._GATHER_CHUNK),
                                                      (3, 5)])
@pytest.mark.parametrize("g, max_size", [pytest.param(g, k, id=g.label) for g, k in (
    (Z6, 3), (D3, 3), (D5, 3), (D6, 2), (build_group("Q8"), 4), (D4, 4), (build_group("Z2xZ4"), 4))])
def test_cell_sweep_agrees_with_both_oracles_set_by_set(monkeypatch, g, max_size, sweep_bits, gather_chunk):
    monkeypatch.setattr(cells_module, "_SWEEP_BITS", sweep_bits)
    monkeypatch.setattr(cells_module, "_GATHER_CHUNK", gather_chunk)
    sets = list(oracle_sets(g, max_size))
    random.Random(len(sets)).shuffle(sets)
    cells, products, deficiency, segment = cell_sweep(g, np.array(sets, dtype=mask_dtype(g.order)))
    assert (cells.dtype, products.dtype, deficiency.dtype) == (mask_dtype(g.order), mask_dtype(g.order), np.uint8)
    assert not any(column.flags.writeable for column in (cells, products, deficiency, segment))
    assert np.all(segment[1:] >= segment[:-1])
    for i, s_bits in enumerate(sets):
        rows = slice(*np.searchsorted(segment, [i, i + 1]))
        got = cells[rows].tolist()
        assert sorted(got) == sorted(oracle_cells(g, s_bits)), (g.label, s_bits)
        want_products = [product_bits(g, x, s_bits) for x in got]
        assert products[rows].tolist() == want_products
        keys = [(p.bit_count() - x.bit_count(), x.bit_count(), x) for x, p in zip(got, want_products)]
        assert keys == sorted(keys) and deficiency[rows].tolist() == [k[0] for k in keys]


def assert_prefix(got, full, bound):
    """got equals the rows of the full columns whose deficiency is at most bound, column by column, read-only."""
    keep = full[2] <= bound
    for a, b in zip(got, full, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b[keep])
        assert not a.flags.writeable


# a bounded cell_sweep is the full one's prefix: on every identity set of a
# group to |S| = 4 (on Z6 and D3 also |S| = n-1 and S = G), one call per u
# from 0 to n-1 with that bound for every S, then one call with a seeded
# bound per S, sizes mixed; at the default bounds, and at sub-batches of 2^3
# candidates and gathers of 5 rooted cells, where most S are swept in high
# pieces whose |B| counts the high rows too
@pytest.mark.parametrize("sweep_bits, gather_chunk", [(cells_module._SWEEP_BITS, cells_module._GATHER_CHUNK),
                                                      (3, 5)])
@pytest.mark.parametrize("g", [pytest.param(g, id=g.label) for g in (
    Z6, D3, D5, D6, build_group("Q8"), D4, build_group("Z2xZ4"))])
def test_a_bounded_cell_sweep_is_the_full_prefix(monkeypatch, g, sweep_bits, gather_chunk):
    monkeypatch.setattr(cells_module, "_SWEEP_BITS", sweep_bits)
    monkeypatch.setattr(cells_module, "_GATHER_CHUNK", gather_chunk)
    sets = list(oracle_sets(g, 4))
    random.Random(len(sets)).shuffle(sets)
    masks = np.array(sets, dtype=mask_dtype(g.order))
    full = cell_sweep(g, masks)
    for u in range(g.order):
        assert_prefix(cell_sweep(g, masks, np.full(len(sets), u)), full, u)
    bound = np.array([random.Random(s_bits).randrange(g.order) for s_bits in sets])
    assert_prefix(cell_sweep(g, masks, bound), full, bound[full[3]])


# _full_cell_enumeration at every u on two sets of order 20 with 2^17
# candidates each, memo cleared, against the full enumeration's prefix; at
# _SWEEP_BITS 12 the sweep runs in 32 high pieces, and at 3 in 16,384, which
# take about 0.15 s a sweep, so that case reads only u = 0, 1, 2
@pytest.mark.parametrize("sweep_bits, gather_chunk, bounds", [
    (cells_module._SWEEP_BITS, cells_module._GATHER_CHUNK, range(20)), (12, 5, range(20)), (3, 5, range(3))])
@pytest.mark.parametrize("spec, s", [("Z20", [0, 1, 5]), ("D10", [0, 11, 18])])
def test_a_bounded_enumeration_is_the_full_prefix_on_order_20(monkeypatch, spec, s, sweep_bits, gather_chunk,
                                                              bounds):
    g = build_group(spec)
    s_bits = g.subset(s).bits
    full = _full_cell_enumeration(g, s_bits, 20)
    monkeypatch.setattr(cells_module, "_SWEEP_BITS", sweep_bits)
    monkeypatch.setattr(cells_module, "_GATHER_CHUNK", gather_chunk)
    for u in bounds:
        g._enum_memo.clear()
        assert_prefix(_full_cell_enumeration(g, s_bits, 20, u), full, u)


def test_the_memo_never_answers_a_longer_request_from_a_shorter_entry(monkeypatch):
    # S = {0,1,6,7} on Z12 asked for u = 0, |S| - 1 and every cell, each a
    # new sweep whose entry replaces the shorter one; then shorter requests
    # and the right translate S*5 = {0,5,6,11} read the entry. Each answer
    # equals a fresh full enumeration's prefix
    g = build_group("Z12")
    s_bits, translate = g.subset([0, 1, 6, 7]).bits, g.subset([0, 5, 6, 11]).bits
    assert product_bits(g, s_bits, 1 << 5) == translate
    full = {bits: _full_cell_enumeration(build_group("Z12"), bits, g.order) for bits in (s_bits, translate)}
    sweeps = []
    real = cells_module.cell_sweep
    monkeypatch.setattr(cells_module, "cell_sweep", lambda *args: sweeps.append(args[2]) or real(*args))
    for bits, u, swept in ((s_bits, 0, 1), (s_bits, 3, 2), (s_bits, None, 3), (s_bits, 0, 3), (s_bits, 2, 3),
                           (translate, 0, 3), (translate, None, 3)):
        got = _full_cell_enumeration(g, bits, g.order, u)
        assert len(sweeps) == swept, (bits, u)
        assert_prefix(got, full[bits], g.order if u is None else u)
    assert [None if u is None else u.tolist() for u in sweeps] == [[0], [3], None]


masks8 = st.integers(min_value=1, max_value=255)
idsets8 = st.integers(min_value=0, max_value=127).map(lambda m: (m << 1) | 1)


@given(masks8, idsets8, st.sampled_from(["Z8", "D4"]))
def test_closure_properties(t_bits, s_bits, spec):
    g = Z8 if spec == "Z8" else D4
    t, s = ElementSet(g, t_bits), ElementSet(g, s_bits)
    rec = cell_closure(t, s)
    # extensive, product-preserving, idempotent, and a fixed point
    assert t <= rec.cell
    assert rec.product == product(t, s) == product(rec.cell, s)
    assert cell_closure(rec.cell, s).cell == rec.cell
    assert is_cell(rec.cell, s)
    assert rec.cell.bits == oracle_closure_bits(g, t_bits, s_bits)


@given(masks8, idsets8, st.integers(min_value=0, max_value=7))
def test_cells_are_stable_under_left_translation(x_bits, s_bits, z):
    x, s = ElementSet(Z8, x_bits), ElementSet(Z8, s_bits)
    assert is_cell(x, s) == is_cell(x.left_translate(z), s)


@given(masks8, idsets8)
def test_stabilizer_subgroups_fix_cells(x_bits, s_bits):
    # any H inside stab(XS) has HXS = XS, which forces HX = X for a cell X
    x, s = ElementSet(Z8, x_bits), ElementSet(Z8, s_bits)
    rec = cell_closure(x, s)
    stab = left_stabilizer(rec.product)
    for h in all_subgroups(Z8):
        if h <= stab:
            assert product(h, rec.cell) == rec.cell


# -- numpy kernel ---------------------------------------------------------

# orders on both sides of a byte boundary, uint64 masks from order 32 up,
# and nonabelian groups, where left and right differ
KERNEL_GROUPS = {spec: build_group(spec)
                 for spec in ("Z7", "Z8", "Z9", "D8", "Q8", "S3", "Z17", "Z24", "Z33", "Z40", "Z64")}


@functools.cache
def subgroups_of(spec):
    return [h.bits for h in all_subgroups(KERNEL_GROUPS[spec])]


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
@given(data=st.data())
def test_mask_kernels_match_scalar_kernel(spec, data):
    g = KERNEL_GROUPS[spec]
    full = g.full_bits
    masks = st.integers(min_value=0, max_value=full)
    s_bits = data.draw(masks) | 1
    ts = data.draw(st.lists(masks, min_size=1, max_size=16)) + [0, full]
    # closures of random masks are mostly empty, so close products as well
    ps = [product_bits(g, t, s_bits) for t in ts]
    lt = left_translate_masks(g, s_bits)
    arr = np.array(ts + ps, dtype=mask_dtype(g.order))
    right = translate_tables(g)[0]
    assert _gather(column_union(right, s_bits), arr).tolist() == [product_bits(g, a, s_bits) for a in ts + ps]
    times_inverse = column_union(right, inverse_bits(g, s_bits))
    assert closure_masks(g, times_inverse, arr).tolist() == [closure_bits(lt, a) for a in ts + ps]


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
@given(data=st.data())
def test_pair_kernels_match_scalar_kernel(spec, data):
    g = KERNEL_GROUPS[spec]
    full = g.full_bits
    masks = st.integers(min_value=0, max_value=full)
    xs = data.draw(st.lists(masks, min_size=1, max_size=16)) + [0, full]
    ys = data.draw(st.lists(masks, min_size=len(xs), max_size=len(xs)))
    dtype = mask_dtype(g.order)
    # random sets mostly have a trivial stabilizer, so add sets with a
    # subgroup on either side: HT is fixed by H on the left, TH on the right
    subgroups = subgroups_of(spec)
    periodic = [product_bits(g, h, t) for h in subgroups for t in xs[:4]]
    periodic += [product_bits(g, t, h) for h in subgroups for t in xs[:4]]
    nonempty = [a for a in xs + periodic if a]
    x_col, y_col = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
    # the whole gather, and chunks of 3 rows that products straddle
    for chunk in (cells_module._GATHER_CHUNK, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cells_module, "_GATHER_CHUNK", chunk)
            assert pair_products(g, x_col, y_col).tolist() == [product_bits(g, x, y) for x, y in zip(xs, ys)]
            # H arbitrary, not only a subgroup: H*Y inside Y
            assert periodic_flags(g, x_col, y_col).tolist() == [
                product_bits(g, x, y) & ~y == 0 for x, y in zip(xs, ys)]
            assert stabilizer_masks(g, np.array(nonempty, dtype=dtype)).tolist() == [
                left_stabilizer(ElementSet(g, a)).bits for a in nonempty]
    if g.order <= 9:
        every = pair_products_every_x(g, np.array(ys[:3], dtype=dtype))
        assert every.tolist() == [[product_bits(g, x, y) for x in range(full + 1)] for y in ys[:3]]


@pytest.mark.parametrize("spec", ["Z10", "D5", "Z11"])
def test_pair_products_every_x_over_two_byte_masks(spec):
    # the exhaustive Kneser sweep's orders whose X span two bytes
    g = build_group(spec)
    rng = np.random.default_rng(3)
    ys = [0, 1, g.full_bits] + [int(v) for v in rng.integers(1, g.full_bits, size=3)]
    every = pair_products_every_x(g, np.array(ys, dtype=mask_dtype(g.order)))
    assert every.tolist() == [[product_bits(g, x, y) for x in range(g.full_bits + 1)] for y in ys]


def column_gather_reference(table, masks, col):
    """table[256*b + byte b of masks[k], col[k]], ORed over the table's byte positions b, per row k."""
    positions = range(-(-len(table) // 256))
    return [functools.reduce(lambda acc, b: acc | int(table[256 * b + (m >> 8 * b & 255), c]), positions, 0)
            for m, c in zip(masks, col)]


@pytest.mark.parametrize("positions", range(1, 9))
def test_a_column_gather_reads_one_column_per_mask(positions):
    rng = np.random.default_rng(positions)
    table = rng.integers(0, 1 << 63, size=(256 * positions, 5), dtype=np.uint64)
    masks = [int.from_bytes(rng.bytes(positions), "little") for _ in range(300)]
    col = rng.integers(0, 5, size=len(masks))
    t = np.array(masks, dtype=np.uint32 if positions <= 4 else np.uint64)
    assert _gather(table, t, col).tolist() == column_gather_reference(table, masks, col.tolist())


@pytest.mark.parametrize("spec", ["Z6", "D4", "Z16", "Z32"])
def test_a_column_gather_reads_the_coset_tables(spec):
    # both of Olson's tables: right coset unions by rank + 1, and B -> H*B
    g = build_group(spec)
    bits = [h.bits for h in all_subgroups(g)]
    dtype = mask_dtype(g.order)
    rng = np.random.default_rng(g.order)
    masks = [int.from_bytes(rng.bytes(8), "little") & g.full_bits for _ in range(300)]
    col = rng.integers(0, len(bits), size=len(masks))
    for table in theorems._coset_table(g, bits, dtype):
        got = _gather(table, np.array(masks, dtype=dtype), col)
        assert got.tolist() == column_gather_reference(table, masks, col.tolist())


# -- worked examples ------------------------------------------------------

def test_z12_worked_example():
    s = Z12.subset([0, 1, 6, 7])
    cells = enumerate_cells(s, u_max=3)
    by_u = {}
    for c in cells:
        by_u[c.deficiency] = by_u.get(c.deficiency, 0) + 1
    assert by_u == {0: 1, 2: 24}
    assert len(enumerate_cells(s, u_max=2)) == 25

    k2 = kernels_at(s, 2, cells)
    assert [k.cell.spec_string() for k in k2.kernels] == [
        "{0,6}", "{1,7}", "{2,8}", "{3,9}", "{4,10}", "{5,11}",
    ]
    assert k2.unique_identity_kernel.cell == Z12.subset([0, 6])
    assert k2.unique_identity_kernel.is_subgroup
    # the other 2-kernels are exactly the cosets of the identity one
    base = Z12.subset([0, 6])
    assert {k.cell.bits for k in k2.kernels} == {
        base.left_translate(a).bits for a in range(12)
    }

    k0 = kernels_at(s, 0, cells)
    assert k0.kernels[0].cell == Z12.full_set()
    assert kernels_at(s, 1, cells).kernels == ()
    assert kernels_at(s, 3, cells).unique_identity_kernel is None


def test_z12_balandraud_subgroup():
    s = Z12.subset([0, 1, 6, 7])
    details = balandraud_details(s)
    assert details.subgroup == Z12.subset([0, 6])
    assert details.u_star == 2
    assert details.case == "kernel"
    assert balandraud_subgroup(s) == Z12.subset([0, 6])


def test_z12_kernel_chain():
    report = kernel_chain(Z12.subset([0, 1, 6, 7]))
    assert [c.spec_string() for c in report.subgroup_kernel_chain] == [
        "{0,6}", "{0,1,2,3,4,5,6,7,8,9,10,11}",
    ]
    assert report.chain_ok
    assert report.violations == ()
    assert len(report.per_u) == 4


def test_z6_has_no_deficiency_one_cells():
    s = Z6.subset([0, 1, 2])
    cells = enumerate_cells(s, u_max=6)
    assert all(c.deficiency != 1 for c in cells)
    assert oracle_cells_by_filter(Z6, s.bits) == {c.cell.bits for c in cells}
    details = balandraud_details(s)
    assert details.case == "generated"
    assert details.u_star is None
    assert details.subgroup == Z6.full_set()


def test_balandraud_small_sets():
    assert balandraud_details(Z6.identity_set()).case == "trivial"
    assert balandraud_subgroup(Z6.identity_set()) == Z6.identity_set()
    # |S| = 2 leaves no room for a positive deficiency below |S| - 1
    d = balandraud_details(Z6.subset([0, 3]))
    assert d.case == "generated"
    assert d.subgroup == Z6.subset([0, 3])
    assert balandraud_subgroup(Z6.subset([0, 1])) == Z6.full_set()


def test_balandraud_details_agrees_with_the_kernels_of_the_records():
    # the column reading against the definition over every cell's record:
    # u* the largest deficiency in 1..|S|-2, then the identity u*-kernel
    for g in (Z12, D6):
        for s_bits in identity_subsets(g, 4):
            s = ElementSet(g, s_bits)
            records = enumerate_cells(s, g.order)
            got = balandraud_details(s)
            below = [r.deficiency for r in records if 1 <= r.deficiency <= len(s) - 2]
            if len(s) <= 1:
                assert (got.subgroup, got.u_star, got.case) == (g.identity_set(), None, "trivial")
            elif not below:
                assert (got.subgroup, got.u_star, got.case) == (generated_subgroup(g, s), None,
                                                                "generated")
            else:
                kernels = kernels_at(s, max(below), records).kernels
                kernel = next(k.cell for k in kernels if k.contains_identity)
                assert (got.subgroup, got.u_star, got.case) == (kernel, max(below), "kernel"), \
                    s.spec_string()


def test_enumerate_cells_reads_the_same_prefix_at_any_u_max():
    # u_max past the largest deficiency (and past the uint8 column) reads every cell
    for g in (Z12, D6):
        for s_bits in identity_subsets(g, 4):
            s = ElementSet(g, s_bits)
            every = [(r.cell.bits, r.product.bits) for r in enumerate_cells(s, g.order)]
            for u_max in (0, len(s) - 1, g.order, 300):
                got = [(r.cell.bits, r.product.bits) for r in enumerate_cells(s, u_max)]
                assert got == [(x, p) for x, p in every
                               if p.bit_count() - x.bit_count() <= u_max], (s.spec_string(), u_max)


@pytest.mark.parametrize("chunk", [None, 3])
def test_subgroup_flags_and_kernel_cells_match_the_records(monkeypatch, chunk):
    # the column readings against each record's is_subgroup and kernels_at,
    # in chunks of the gather that split the identity-containing cells; Z40
    # holds uint64 masks and sampled --wide Z70 an object column
    if chunk is not None:
        monkeypatch.setattr(cells_module, "_GATHER_CHUNK", chunk)
    cases = [(g, s_bits, "exhaustive") for g in (Z12, D6, build_group("Q8"))
             for s_bits in identity_subsets(g, 3)]
    cases += [(build_group("Z40"), 0b100011, "sampled"),
              (build_group("Z70", wide=True), 0b1011, "sampled")]
    for g, s_bits, mode in cases:
        s = ElementSet(g, s_bits)
        kw = {"count": 300, "seed": 2} if mode == "sampled" else {}
        cells, _, deficiency = cell_columns(s, g.order - 1, mode, **kw)
        records = enumerate_cells(s, g.order - 1, mode, **kw)
        assert cells.tolist() == [r.cell.bits for r in records]
        assert subgroup_flags(g, cells).tolist() == [r.is_subgroup for r in records], s.spec_string()
        for u in range(g.order):
            assert kernel_cells(cells, deficiency, u).tolist() == \
                [k.cell.bits for k in kernels_at(s, u, records).kernels], (s.spec_string(), u)


def test_memo_columns_are_read_only(monkeypatch):
    g = build_group("Z8")
    s = g.subset([0, 1, 3])
    before = [r.cell.bits for r in enumerate_cells(s, g.order)]
    columns = _full_cell_enumeration(g, s.bits, g.order)
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    # a repeat and the translate S*5 = {0,5,6} read the memo without a second
    # sweep: the same cells array, and the translate's own products, read-only
    monkeypatch.setattr(cells_module, "_distinct", lambda a: pytest.fail("swept again"))
    assert _full_cell_enumeration(g, s.bits, g.order)[0] is columns[0]
    cells, products, deficiency = _full_cell_enumeration(g, g.subset([0, 5, 6]).bits, g.order)
    assert cells is columns[0] and deficiency is columns[2]
    with pytest.raises(ValueError, match="read-only"):
        products[0] = 0
    monkeypatch.undo()
    assert [r.cell.bits for r in enumerate_cells(s, g.order)] == before


def least_translate(g, s_bits):
    """The least right translate S*y that holds 1, from product_bits."""
    return min(t for t in (product_bits(g, s_bits, 1 << y) for y in range(g.order)) if t & 1)


@pytest.mark.parametrize("spec, max_size", [(spec, 4) for spec in builtin_specs(8)] + [("Z12", 3), ("D6", 3)])
def test_a_translate_reads_its_class_columns_as_its_own(spec, max_size):
    # S and its right translates that hold 1 share the cells and deficiencies,
    # with products (X*S)*y: enumerate the class's least member on one group,
    # then S; each column must equal S's enumeration on a fresh group, dtype
    # for dtype
    g = build_group(spec)
    for s_bits in identity_subsets(g, max_size):
        key = least_translate(g, s_bits)
        assert translate_class_keys(g, np.array([s_bits], dtype=mask_dtype(g.order))).tolist() == [key]
        _full_cell_enumeration(g, key, g.order)
        got = _full_cell_enumeration(g, s_bits, g.order)
        want = _full_cell_enumeration(build_group(spec), s_bits, g.order)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (spec, s_bits)


def test_a_memoized_class_is_still_refused_above_the_cap():
    g = build_group("Z21")
    s = g.subset([0, 1, 2, 3, 4])
    _full_cell_enumeration(g, s.bits, 21)
    for t in (s, g.subset([0, 1, 2, 3, 20])):
        with pytest.raises(EnumerationCapError, match="2\\^21"):
            enumerate_cells(t, u_max=1)


def test_the_enumeration_expands_its_rooted_cells_a_chunk_at_a_time(monkeypatch):
    # {0,1,5} on Z24 has 92,086 identity cells: their n translates at once,
    # (92,086, 24) uint32, are 8.4 MiB, and the whole enumeration traced
    # 19.8 MiB that way against 8.0 MiB with _GATHER_CHUNK rows at a time
    g = build_group("Z24")
    s_bits = g.subset([0, 1, 5]).bits
    translate_tables(g)
    tracemalloc.start()
    try:
        columns = _full_cell_enumeration(g, s_bits, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns[0]) == 264_119
    assert peak < 14 << 20
    # chunks that split the rooted cells give the same columns
    monkeypatch.setattr(cells_module, "_GATHER_CHUNK", 1000)
    for a, b in zip(columns, _full_cell_enumeration(build_group("Z24"), s_bits, 24)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec, limit", [("Z24", 5), ("Z28", 8)])
def test_balandraud_details_above_the_cap_enumerates_only_its_prefix(spec, limit):
    # balandraud_details reads deficiency <= |S| - 2, so its sweep keeps only
    # that prefix: {0,1,5} traced 3.5 MiB on Z24 and on Z28, against 7.3 and
    # 58.5 MiB with every cell enumerated (2,114,100 of them on Z28)
    g = build_group(spec)
    s = g.subset([0, 1, 5])
    translate_tables(g)
    tracemalloc.start()
    try:
        details = balandraud_details(s, cap=g.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (details.case, details.u_star, details.subgroup) == ("generated", None, g.full_set())
    assert peak < limit << 20


def test_full_group_set_has_one_cell():
    for g in (Z6, D4):
        cells = enumerate_cells(g.full_set(), u_max=g.order)
        assert len(cells) == 1
        assert cells[0].cell == g.full_set()
        assert cells[0].deficiency == 0


@pytest.mark.parametrize("spec", ["D4", "Z16"])
def test_column_unions_equal_the_per_set_byte_tables(spec):
    # the OR of the right table's columns over S is the byte table that
    # _byte_unions builds from the translates z*S, and over S^-1 the one
    # from z*S^-1; the OR of the left table's columns over H is the table
    # built from the translates H*a. Entry for entry, in the mask dtype
    g = build_group(spec)
    right, left = translate_tables(g)
    dtype = mask_dtype(g.order)
    rng = np.random.default_rng(5)
    sets = [int(b) | 1 for b in rng.integers(0, 1 << g.order, size=40)] + [1, g.full_bits]
    sets += [h.bits for h in all_subgroups(g)]
    for bits in sets:
        for side, want in ((right, [product_bits(g, 1 << z, bits) for z in range(g.order)]),
                           (left, [product_bits(g, bits, 1 << a) for a in range(g.order)])):
            got = column_union(side, bits)
            assert got.dtype == dtype
            assert np.array_equal(got, _byte_unions(np.array(want, dtype=dtype))), bits
        inverse = inverse_bits(g, bits)
        assert np.array_equal(column_union(right, inverse),
                              _byte_unions(np.array(left_translate_masks(g, inverse), dtype=dtype)))


def test_enumerations_share_the_group_translate_tables():
    g = build_group("D6")  # a fresh group, so no enumeration has built its tables yet
    assert g._translate_np is None
    enumerate_cells(g.subset([0, 1, 7]), u_max=2)
    tables = g._translate_np
    enumerate_cells(g.subset([0, 2, 3, 9]), u_max=3)
    assert g._translate_np is tables
    assert translate_tables(g) is tables
    right, left = tables
    # index 256*b + u names the set B with byte u at byte position b
    for v in range(len(right)):
        b_bits = (v % 256) << 8 * (v // 256)
        for z in range(g.order):
            assert int(right[v, z]) == product_bits(g, b_bits, 1 << z), (v, z)
            assert int(left[v, z]) == product_bits(g, 1 << z, b_bits), (v, z)


# -- modes, ordering, and refusals ----------------------------------------

def test_enumeration_is_sorted_and_capped_by_umax():
    s = Z12.subset([0, 1, 6, 7])
    cells = enumerate_cells(s, u_max=0)
    assert [c.deficiency for c in cells] == [0]
    cells = enumerate_cells(s, u_max=2)
    keys = [(c.deficiency, len(c.cell), c.cell.bits) for c in cells]
    assert keys == sorted(keys)


def test_sampled_mode_is_a_deterministic_subset():
    s = Z8.subset([0, 1, 4])
    full = {r.cell.bits for r in enumerate_cells(s, u_max=8)}
    a = enumerate_cells(s, u_max=8, mode="sampled", count=200, seed=7)
    b = enumerate_cells(s, u_max=8, mode="sampled", count=200, seed=7)
    assert [r.cell.bits for r in a] == [r.cell.bits for r in b]
    assert {r.cell.bits for r in a} <= full
    assert len(a) > 0
    # a --wide group's masks are an object column; the columns are sorted and
    # read-only like the enumeration's, the deficiency in uint8 to order 256
    g = build_group("Z70", wide=True)
    cells, products, deficiency = cell_columns(g.subset([0, 1, 5]), 69, "sampled", count=300, seed=7)
    assert (cells.dtype, products.dtype, deficiency.dtype) == (object, object, np.uint8)
    rows = [(p.bit_count() - x.bit_count(), x.bit_count(), x) for x, p in zip(cells.tolist(), products.tolist())]
    assert rows == sorted(rows) and deficiency.tolist() == [r[0] for r in rows]
    assert not any(column.flags.writeable for column in (cells, products, deficiency))


def test_sampled_mode_requires_count_and_seed():
    s = Z8.subset([0, 1])
    with pytest.raises(ValueError, match="count and seed"):
        enumerate_cells(s, u_max=8, mode="sampled")
    with pytest.raises(ValueError, match="unknown enumeration mode"):
        enumerate_cells(s, u_max=8, mode="guess")


def test_enumeration_refuses_orders_above_cap():
    g = build_group("Z21")
    s = g.subset([0, 1])
    with pytest.raises(EnumerationCapError, match="2\\^21"):
        enumerate_cells(s, u_max=1)
    s = Z12.subset([0, 1, 6, 7])
    balandraud_details(s)
    with pytest.raises(EnumerationCapError):
        balandraud_details(s, cap=10)
    with pytest.raises(EnumerationCapError):
        enumerate_cells(s, 2, cap=10)


def test_cells_require_identity_and_nonempty():
    with pytest.raises(ValueError, match="identity"):
        enumerate_cells(Z6.subset([1, 2]), u_max=2)
    with pytest.raises(ValueError, match="nonempty"):
        is_cell(Z6.empty_set(), Z6.subset([0, 1]))
    with pytest.raises(ValueError, match="nonempty"):
        cell_closure(Z6.empty_set(), Z6.subset([0, 1]))
    with pytest.raises(ValueError, match="u_max"):
        enumerate_cells(Z6.subset([0, 1]), u_max=-1)


def test_normalize_s():
    s, shifted = normalize_s(Z12.subset([1, 7]))
    assert s == Z12.subset([0, 6])
    assert shifted == 1
    s, shifted = normalize_s(Z12.subset([0, 5]))
    assert s == Z12.subset([0, 5])
    assert shifted == 0
    with pytest.raises(ValueError, match="empty"):
        normalize_s(Z12.empty_set())
    # nonabelian: divide out on the right, so the identity lands in the set
    s, shifted = normalize_s(D4.subset([4, 5]))
    assert shifted == 4
    assert s.contains_identity
    assert len(s) == 2
