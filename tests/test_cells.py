"""Cell enumeration, closures, kernels, and the attached subgroup.

The oracles here replay the definitions with plain python sets: a cell of S
is a nonempty X equal to {z : zS is contained in XS}. Frozen values were
produced by these oracles and pinned.
"""

import functools

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
from cellkit.cells import (
    _byte_unions,
    _full_cell_enumeration,
    _gather,
    cell_columns,
    closure_bits,
    closure_masks,
    column_union,
    kernel_cells,
    left_translate_masks,
    mask_dtype,
    pair_products,
    pair_products_every_x,
    pair_table,
    stabilizer_masks,
    subgroup_flags,
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
def pair_table_and_subgroups(spec):
    g = KERNEL_GROUPS[spec]
    return pair_table(g), [h.bits for h in all_subgroups(g)]


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
    table, subgroups = pair_table_and_subgroups(spec)
    dtype = mask_dtype(g.order)
    assert pair_products(table, np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)).tolist() == [
        product_bits(g, x, y) for x, y in zip(xs, ys)]
    # random sets mostly have a trivial stabilizer, so add sets with a
    # subgroup on either side: HT is fixed by H on the left, TH on the right
    periodic = [product_bits(g, h, t) for h in subgroups for t in xs[:4]]
    periodic += [product_bits(g, t, h) for h in subgroups for t in xs[:4]]
    nonempty = [a for a in xs + periodic if a]
    assert stabilizer_masks(g, table, np.array(nonempty, dtype=dtype)).tolist() == [
        left_stabilizer(ElementSet(g, a)).bits for a in nonempty]
    if g.order <= 9:
        every = pair_products_every_x(table, np.array(ys[:3], dtype=dtype))
        assert every.tolist() == [[product_bits(g, x, y) for x in range(full + 1)] for y in ys[:3]]


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
        monkeypatch.setattr(cells_module, "_SUBGROUP_CHUNK", chunk)
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


def test_memo_columns_are_read_only():
    g = build_group("Z8")
    s = g.subset([0, 1, 3])
    before = [r.cell.bits for r in enumerate_cells(s, g.order)]
    columns = _full_cell_enumeration(g, s.bits, g.order)
    assert g._enum_memo[s.bits] is columns
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert [r.cell.bits for r in enumerate_cells(s, g.order)] == before


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
