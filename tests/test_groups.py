"""Group construction, table validation, subgroup search, and bitmask sets.

Frozen counts in this file were produced by the brute-force oracles defined
alongside them and then pinned.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from cellkit import (
    DEFAULT_ORDER_CAP,
    WIDE_ORDER_CAP,
    ElementSet,
    Group,
    GroupAxiomError,
    GroupSpecError,
    all_subgroups,
    build_group,
    builtin_specs,
    generated_subgroup,
    is_subgroup,
    iter_bits,
    require_same_group,
)

Z6 = build_group("Z6")
Z12 = build_group("Z12")
D4 = build_group("D4")

# Latin square with two-sided identity 0 that is not associative:
# (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


# -- oracles --------------------------------------------------------------

def oracle_axioms_hold(g):
    """Re-check every group axiom with plain python loops."""
    n = g.order
    for x in range(n):
        if g.mul[0][x] != x or g.mul[x][0] != x:
            return False
    for row in g.mul:
        if sorted(row) != list(range(n)):
            return False
    for j in range(n):
        if sorted(g.mul[i][j] for i in range(n)) != list(range(n)):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if g.mul[g.mul[a][b]][c] != g.mul[a][g.mul[b][c]]:
                    return False
    return True


def oracle_subgroup_bits(g):
    """All subgroups by filtering every identity-containing subset.

    For a finite subset, closure under the operation already implies
    inverses, so the filter only checks closure.
    """
    out = []
    for bits in range(1, 1 << g.order, 2):
        idx = list(iter_bits(bits))
        if all((bits >> g.mul[a][b]) & 1 for a in idx for b in idx):
            out.append(bits)
    return sorted(out)


def element_order(g, a):
    x, k = a, 1
    while x != 0:
        x = g.mul[x][a]
        k += 1
    return k


# -- construction and validation ------------------------------------------

def test_catalog_tables_satisfy_axioms():
    for spec in builtin_specs(16):
        g = build_group(spec)
        assert oracle_axioms_hold(g), spec
        for a in range(g.order):
            assert g.mul[a][g.inv[a]] == 0
            assert g.mul[g.inv[a]][a] == 0


def test_abelian_flag_matches_table():
    for spec in builtin_specs(16):
        g = build_group(spec)
        symmetric = all(
            g.mul[a][b] == g.mul[b][a] for a in range(g.order) for b in range(g.order)
        )
        assert g.is_abelian == symmetric, spec


def test_catalog_shapes_and_orders():
    assert build_group("Z1").order == 1
    assert build_group("D4").order == 8
    assert build_group("S4").order == 24
    assert build_group("S5", wide=True).order == 120
    assert build_group("Q8").order == 8
    assert build_group("Z2xZ3xZ2").order == 12
    assert not build_group("S3").is_abelian
    assert build_group("S2").is_abelian
    assert build_group("D2").is_abelian
    assert not build_group("D3").is_abelian


def test_involution_counts_separate_the_order_8_classes():
    # D4 has five elements of order 2, Q8 only the central one
    d4 = build_group("D4")
    q8 = build_group("Q8")
    assert sum(1 for a in range(1, 8) if d4.mul[a][a] == 0) == 5
    assert sum(1 for a in range(1, 8) if q8.mul[a][a] == 0) == 1


def test_product_group_matches_cyclic_when_coprime():
    orders_a = sorted(element_order(Z6, a) for a in range(6))
    orders_b = sorted(element_order(build_group("Z2xZ3"), a) for a in range(6))
    assert orders_a == orders_b == [1, 2, 3, 3, 6, 6]


def test_spec_errors():
    for bad in ("Z0", "D0", "S0", "S6", "Q16", "F4", "", "Zx2", "Z2x"):
        with pytest.raises(GroupSpecError):
            build_group(bad)


def test_order_caps():
    with pytest.raises(GroupSpecError, match="wide"):
        build_group(f"Z{DEFAULT_ORDER_CAP + 1}")
    g = build_group(f"Z{DEFAULT_ORDER_CAP + 1}", wide=True)
    assert g.order == DEFAULT_ORDER_CAP + 1
    with pytest.raises(GroupSpecError):
        build_group(f"Z{WIDE_ORDER_CAP + 1}", wide=True)


def test_validation_rejects_bad_tables():
    with pytest.raises(GroupAxiomError) as e:
        Group("empty", [])
    assert e.value.axiom == "order"

    with pytest.raises(GroupAxiomError) as e:
        Group("ragged", [[0, 1], [1]])
    assert e.value.axiom == "shape"

    with pytest.raises(GroupAxiomError) as e:
        Group("range", [[0, 1], [1, 9]])
    assert e.value.axiom == "range"

    with pytest.raises(GroupAxiomError) as e:
        Group("identity", [[1, 0], [0, 1]])
    assert e.value.axiom == "identity"

    with pytest.raises(GroupAxiomError) as e:
        Group("latin", [[0, 1, 2], [1, 2, 0], [2, 0, 2]])
    assert e.value.axiom == "latin-square"


def test_validation_rejects_nonassociative_loop():
    with pytest.raises(GroupAxiomError) as e:
        Group("loop5", LOOP5)
    assert e.value.axiom == "associativity"
    assert "(1*1)*2" in e.value.detail
    # even with validate=False the constructor needs two-sided inverses,
    # which a nonassociative loop need not have
    with pytest.raises(GroupAxiomError) as e:
        Group("loop5", LOOP5, validate=False)
    assert e.value.axiom == "inverse"

    # validate=False does skip the axiom sweep for a genuine group table
    assert Group("z6copy", Z6.mul, validate=False).order == 6


def test_cayley_file_roundtrip(tmp_path):
    d3 = build_group("D3")
    path = tmp_path / "d3.txt"
    path.write_text("6\n" + "\n".join(" ".join(str(v) for v in row) for row in d3.mul) + "\n")
    g = build_group(f"cayley:{path}")
    assert g.mul == d3.mul
    assert g.label == f"cayley:{path}"
    assert not g.is_abelian


def test_cayley_file_errors(tmp_path):
    with pytest.raises(GroupSpecError, match="cannot read"):
        build_group(f"cayley:{tmp_path / 'missing.txt'}")
    empty = tmp_path / "empty.txt"
    empty.write_text("  \n")
    with pytest.raises(GroupSpecError, match="empty"):
        build_group(f"cayley:{empty}")
    junk = tmp_path / "junk.txt"
    junk.write_text("2 0 1 one 0")
    with pytest.raises(GroupSpecError, match="non-integer"):
        build_group(f"cayley:{junk}")
    short = tmp_path / "short.txt"
    short.write_text("3 0 1 2")
    with pytest.raises(GroupSpecError, match="expected 9"):
        build_group(f"cayley:{short}")
    bad_order = tmp_path / "bad_order.txt"
    bad_order.write_text("0")
    with pytest.raises(GroupSpecError, match="non-positive"):
        build_group(f"cayley:{bad_order}")
    bad_table = tmp_path / "bad_table.txt"
    bad_table.write_text("2 0 1 1 1")
    with pytest.raises(GroupAxiomError):
        build_group(f"cayley:{bad_table}")


# pieces of the group-spec grammar, numbers kept small so a spec that
# parses builds a small table
_GROUP_PIECES = st.sampled_from(["Z", "z", "D", "S", "Q", "x", "X", " ", "cayley:", "é", "-"])
GROUP_LIKE = st.lists(st.tuples(_GROUP_PIECES, st.integers(0, 70).map(str)), max_size=4).map(
    lambda parts: "".join(piece + num for piece, num in parts))
# a Cayley file as bytes: arbitrary, or whitespace-separated small integers,
# which reach the order, the entry count and the axioms
TABLE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.integers(-2, 5), max_size=20).map(lambda vs: " ".join(map(str, vs)).encode()))


def builds_or_refuses(spec):
    try:
        assert isinstance(build_group(spec), Group)
    except (GroupSpecError, GroupAxiomError):
        pass  # any other exception escapes and fails the test


@given(text=st.one_of(st.text(max_size=40), GROUP_LIKE), table=TABLE_BYTES)
@example(text="Z" + "1" * 5000, table=b"")
@example(text="Q8", table=b"\xff\xfe0 1\n")
@example(text="Q8", table=b"1 0")
def test_build_group_returns_a_group_or_raises_a_group_error(text, table):
    builds_or_refuses(text)
    # hypothesis rejects function-scoped fixtures such as tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(table)
        builds_or_refuses(f"cayley:{path}")


# -- subgroups ------------------------------------------------------------

def test_generated_subgroup():
    g = build_group("Z12")
    assert generated_subgroup(g, g.subset([4, 6])).indices() == (0, 2, 4, 6, 8, 10)
    assert generated_subgroup(g, g.subset()).indices() == (0,)
    assert generated_subgroup(g, g.subset([5])).indices() == tuple(range(12))
    d4 = build_group("D4")
    assert generated_subgroup(d4, d4.subset([1])).indices() == (0, 1, 2, 3)
    assert generated_subgroup(d4, d4.subset([4])).indices() == (0, 4)
    assert len(generated_subgroup(d4, d4.subset([1, 4]))) == 8
    with pytest.raises(ValueError, match="belong to"):
        generated_subgroup(g, d4.subset([1]))
    # right multiplication alone closes every subset, nonabelian ones included
    for spec in ("D3", "D4", "Q8"):
        h = build_group(spec)
        subgroups = sorted(oracle_subgroup_bits(h), key=lambda b: (b.bit_count(), b))
        for bits in range(1 << h.order):
            smallest = next(b for b in subgroups if not bits & ~b)
            assert generated_subgroup(h, ElementSet(h, bits)).bits == smallest, (spec, bits)


def test_all_subgroups_matches_bruteforce():
    for spec in builtin_specs(12):
        g = build_group(spec)
        found = sorted(h.bits for h in all_subgroups(g))
        assert found == oracle_subgroup_bits(g), spec
        for h in all_subgroups(g):
            assert is_subgroup(h)
            assert g.order % len(h) == 0


def test_subgroup_counts_frozen():
    expected = {
        "Z1": 1, "Z2": 2, "Z4": 3, "Z2xZ2": 5, "Z6": 4, "D3": 6,
        "Z8": 4, "Z2xZ4": 8, "Z2xZ2xZ2": 16, "D4": 10, "Q8": 6,
        "Z12": 6, "D6": 16, "S4": 30,
        # D_n has tau(n) + sigma(n) subgroups; 374 is the Gaussian-binomial sum for 2^5
        "D16": 36, "D32": 69, "Z2xZ2xZ2xZ2xZ2": 374, "Z4xZ4xZ4": 129,
    }
    for spec, count in expected.items():
        assert len(all_subgroups(build_group(spec))) == count, spec


def test_is_subgroup_direct_and_memoized():
    g = build_group("Z12")
    cases = {
        (0, 6): True,
        (0, 4, 8): True,
        (0, 1): False,
        (1, 7): False,
        (): False,
    }
    for idx, want in cases.items():
        assert is_subgroup(g.subset(idx)) == want
    all_subgroups(g)
    for idx, want in cases.items():
        assert is_subgroup(g.subset(idx)) == want


def test_builtin_specs_listing():
    assert builtin_specs(8) == [
        "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "D3", "Z7",
        "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8",
    ]
    assert builtin_specs(8, abelian_only=True) == [
        "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7",
        "Z8", "Z2xZ4", "Z2xZ2xZ2",
    ]
    assert builtin_specs(12, min_order=11) == ["Z11", "Z12", "Z2xZ6", "D6"]
    with pytest.raises(ValueError, match="catalog"):
        builtin_specs(17)


# -- element sets ---------------------------------------------------------

masks6 = st.integers(min_value=0, max_value=63)


@given(masks6, masks6)
def test_set_algebra_matches_python_sets(a_bits, b_bits):
    a, b = ElementSet(Z6, a_bits), ElementSet(Z6, b_bits)
    sa, sb = set(a.indices()), set(b.indices())
    assert set((a | b).indices()) == sa | sb
    assert set((a & b).indices()) == sa & sb
    assert set((a - b).indices()) == sa - sb
    assert set(a.complement().indices()) == set(range(6)) - sa
    assert (a <= b) == (sa <= sb)
    assert (a < b) == (sa < sb)
    assert len(a) == len(sa)
    assert bool(a) == bool(sa)
    assert all(i in a for i in sa)


@given(masks6, st.integers(min_value=0, max_value=5))
def test_translates_match_definition(a_bits, z):
    a = ElementSet(Z6, a_bits)
    assert set(a.left_translate(z).indices()) == {Z6.mul[z][x] for x in a.indices()}
    assert set(a.right_translate(z).indices()) == {Z6.mul[x][z] for x in a.indices()}
    assert len(a.left_translate(z)) == len(a)
    # translating by z then by its inverse is the identity
    assert a.left_translate(z).left_translate(Z6.inv[z]) == a


def test_spec_string_rendering():
    assert Z6.subset([0, 3, 5]).spec_string() == "{0,3,5}"
    assert Z6.empty_set().spec_string() == "{}"
    assert Z6.identity_set().spec_string() == "{0}"
    assert Z6.full_set().spec_string() == "{0,1,2,3,4,5}"
    # the per-byte table against the bit-by-bit rendering, up to the widest order
    rng = random.Random(5)
    for order in (1, 7, 8, 9, 20, 64, 1024):
        g = build_group(f"Z{order}", wide=order > 64, validate=False)
        for bits in [0, 1, g.full_bits, 1 << (order - 1)] + [rng.getrandbits(order) for _ in range(50)]:
            want = "{" + ",".join(str(i) for i in iter_bits(bits)) + "}"
            assert ElementSet(g, bits).spec_string() == want


def test_sets_refuse_to_mix_groups():
    other = build_group("Z6")
    with pytest.raises(ValueError, match="different groups"):
        Z6.subset([0]) | other.subset([1])
    with pytest.raises(ValueError, match="different groups"):
        require_same_group(Z6.subset([0]), other.subset([0]))
    assert require_same_group(Z6.subset([0]), Z6.subset([1])) is Z6


def test_subset_helpers_and_bounds():
    assert Z6.subset([0, 3]).bits == 0b001001
    with pytest.raises(ValueError, match="outside"):
        Z6.subset([6])
    with pytest.raises(ValueError, match="does not fit"):
        ElementSet(Z6, 1 << 6)
    assert len(Z6.full_set()) == 6
    assert not Z6.empty_set()
