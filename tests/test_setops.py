"""Product sets, stabilizers, periodicity, and difference counts.

Each operation is checked against a plain python-set oracle and on a frozen
worked example in Z12.
"""

import pytest
from hypothesis import given, strategies as st

from cellkit import (
    ElementSet,
    all_subgroups,
    build_group,
    difference_counts,
    is_subgroup,
    left_stabilizer,
    product,
)

Z8 = build_group("Z8")
Z12 = build_group("Z12")
D4 = build_group("D4")


# -- oracles --------------------------------------------------------------

def oracle_product(g, a_bits, b_bits):
    out = set()
    for a in range(g.order):
        if (a_bits >> a) & 1:
            for b in range(g.order):
                if (b_bits >> b) & 1:
                    out.add(g.mul[a][b])
    return out


def oracle_stabilizer(g, a_bits):
    target = {x for x in range(g.order) if (a_bits >> x) & 1}
    return {z for z in range(g.order) if {g.mul[z][x] for x in target} == target}


masks8 = st.integers(min_value=0, max_value=255)
nonempty8 = st.integers(min_value=1, max_value=255)


@given(masks8, masks8, st.sampled_from(["Z8", "D4"]))
def test_product_matches_bruteforce(a_bits, b_bits, spec):
    g = Z8 if spec == "Z8" else D4
    got = product(ElementSet(g, a_bits), ElementSet(g, b_bits))
    assert set(got.indices()) == oracle_product(g, a_bits, b_bits)


@given(nonempty8, nonempty8, nonempty8)
def test_product_is_associative(a_bits, b_bits, c_bits):
    a, b, c = (ElementSet(D4, m) for m in (a_bits, b_bits, c_bits))
    assert product(product(a, b), c) == product(a, product(b, c))


@given(nonempty8, nonempty8)
def test_product_size_lower_bound(a_bits, b_bits):
    a, b = ElementSet(Z8, a_bits), ElementSet(Z8, b_bits)
    assert len(product(a, b)) >= max(len(a), len(b))


def test_product_worked_examples():
    s = Z12.subset([0, 1, 6, 7])
    h = Z12.subset([0, 6])
    assert product(h, s) == s
    assert product(s, s) == Z12.subset([0, 1, 2, 6, 7, 8])
    assert product(Z12.empty_set(), s) == Z12.empty_set()
    assert product(Z12.identity_set(), s) == s
    # one nonabelian pair where the two orders differ
    a, b = D4.subset([1]), D4.subset([4])
    assert product(a, b) != product(b, a)


def test_left_stabilizer_worked_example():
    assert left_stabilizer(Z12.subset([0, 1, 6, 7])) == Z12.subset([0, 6])


@given(nonempty8, st.sampled_from(["Z8", "D4"]))
def test_left_stabilizer_matches_bruteforce(a_bits, spec):
    g = Z8 if spec == "Z8" else D4
    a = ElementSet(g, a_bits)
    stab = left_stabilizer(a)
    assert set(stab.indices()) == oracle_stabilizer(g, a_bits)
    assert is_subgroup(stab)
    assert product(stab, a) == a


def test_left_stabilizer_refuses_empty():
    with pytest.raises(ValueError, match="empty"):
        left_stabilizer(Z12.empty_set())


def test_stabilizer_of_full_set_is_whole_group():
    assert left_stabilizer(D4.full_set()) == D4.full_set()


@given(nonempty8, st.integers(min_value=0))
def test_periodic_means_union_of_cosets(a_bits, pick):
    subs = all_subgroups(D4)
    h = subs[pick % len(subs)]
    a = ElementSet(D4, a_bits)
    cosets_met = 0
    for x in a.indices():
        cosets_met |= h.right_translate(x).bits
    assert (product(h, a) == a) == (cosets_met == a.bits)


@given(masks8, masks8)
def test_difference_counts_match_sets(a_bits, b_bits):
    a, b = ElementSet(Z8, a_bits), ElementSet(Z8, b_bits)
    sa, sb = set(a.indices()), set(b.indices())
    assert difference_counts(a, b) == (len(sa - sb), len(sb - sa))
    assert difference_counts(b, a) == (len(sb - sa), len(sa - sb))
