"""Subset-spec parsing and expansion, and group-list tokens."""

import random

import pytest

from cellkit import (
    SubsetSpecError,
    build_group,
    check_subset_spec,
    expand_subset_specs,
    iter_identity_subsets,
    parse_group_tokens,
    parse_subset_spec,
    sample_identity_subsets,
)

Z6 = build_group("Z6")
Z12 = build_group("Z12")


def test_parse_explicit_subsets():
    assert parse_subset_spec("{0,1,6,7}", Z12).indices() == (0, 1, 6, 7)
    assert parse_subset_spec(" { 3 , 1 } ", Z12).indices() == (1, 3)
    assert parse_subset_spec("{}", Z12).indices() == ()
    assert parse_subset_spec("{5,5}", Z6).indices() == (5,)


def test_parse_explicit_subset_errors():
    with pytest.raises(SubsetSpecError, match="outside 0..11 for group Z12"):
        parse_subset_spec("{0,99}", Z12)
    with pytest.raises(SubsetSpecError, match="index -1"):
        parse_subset_spec("{-1}", Z6)
    with pytest.raises(SubsetSpecError, match="unrecognized subset spec"):
        parse_subset_spec("0,1,2", Z6)
    with pytest.raises(SubsetSpecError, match="family of subsets"):
        parse_subset_spec("all:3", Z6)
    with pytest.raises(SubsetSpecError, match="family of subsets"):
        parse_subset_spec("rand:3:10:1", Z6)


def test_iter_identity_subsets_counts_and_order():
    got = list(iter_identity_subsets(Z6, 1, 2))
    assert [s.spec_string() for s in got] == [
        "{0}", "{0,1}", "{0,2}", "{0,3}", "{0,4}", "{0,5}",
    ]
    # sizes 1..3 over five non-identity elements: 1 + 5 + 10
    assert len(list(iter_identity_subsets(Z6, 1, 3))) == 16
    assert list(iter_identity_subsets(Z6, 4, 2)) == []


def test_sample_identity_subsets_is_seeded_and_deduplicated():
    a = sample_identity_subsets(Z12, 1, 4, 30, random.Random(9))
    b = sample_identity_subsets(Z12, 1, 4, 30, random.Random(9))
    assert [s.bits for s in a] == [s.bits for s in b]
    assert len({s.bits for s in a}) == len(a)
    assert all(s.contains_identity and 1 <= len(s) <= 4 for s in a)
    assert sample_identity_subsets(Z6, 5, 2, 10, random.Random(0)) == []


def test_expand_subset_specs():
    assert len(expand_subset_specs("all:2", Z6)) == 6
    assert len(expand_subset_specs("all:3", Z6)) == 16
    # all:<k> is lazy and k is clamped to the order, so its len is a short sum
    every = expand_subset_specs("all:1000000000", Z6)
    assert len(every) == 32 and list(every) == list(iter_identity_subsets(Z6, 1, 6))
    one = expand_subset_specs("{0,3}", Z6)
    assert [s.spec_string() for s in one] == ["{0,3}"]
    r = expand_subset_specs("rand:3:8:42", Z6)
    assert r == expand_subset_specs("rand:3:8:42", Z6)
    assert 1 <= len(r) <= 8
    with pytest.raises(SubsetSpecError, match="k >= 1"):
        expand_subset_specs("all:0", Z6)
    with pytest.raises(SubsetSpecError, match="k >= 1"):
        expand_subset_specs("rand:0:5:1", Z6)


def test_check_subset_spec_needs_no_group():
    for spec in ("{0,1,6,7}", " { 3 , 1 } ", "{}", "all:2", "rand:3:8:42"):
        check_subset_spec(spec)
    with pytest.raises(SubsetSpecError, match="unrecognized subset spec"):
        check_subset_spec("garbage")
    with pytest.raises(SubsetSpecError, match="unrecognized subset spec"):
        check_subset_spec("{0,1")
    with pytest.raises(SubsetSpecError, match="all:<k> needs k >= 1"):
        check_subset_spec("all:0")
    with pytest.raises(SubsetSpecError, match="needs k >= 1"):
        check_subset_spec("rand:0:5:1")


def test_parse_group_tokens():
    assert parse_group_tokens("Z6") == ["Z6"]
    assert parse_group_tokens("Z2..Z5,D3, Q8") == ["Z2", "Z3", "Z4", "Z5", "D3", "Q8"]
    assert parse_group_tokens("D3..D5") == ["D3", "D4", "D5"]
    assert parse_group_tokens("Z2..5") == ["Z2", "Z3", "Z4", "Z5"]
    assert parse_group_tokens(" , Z6 , ") == ["Z6"]
    # a repeat is dropped where it recurs, inside a range too
    assert parse_group_tokens("Z6,Z6") == ["Z6"]
    assert parse_group_tokens("Z2..Z6,Z4") == ["Z2", "Z3", "Z4", "Z5", "Z6"]
    assert parse_group_tokens("Z4,Q8,Z2..Z5,Q8") == ["Z4", "Q8", "Z2", "Z3", "Z5"]


def test_parse_group_token_errors():
    with pytest.raises(SubsetSpecError, match="empty"):
        parse_group_tokens("Z5..Z2")
    with pytest.raises(SubsetSpecError, match="mixes prefixes"):
        parse_group_tokens("Z2..D5")
    with pytest.raises(SubsetSpecError, match="unrecognized group range"):
        parse_group_tokens("Z2..Z3..Z4")
