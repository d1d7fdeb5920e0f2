"""Subset-spec parsing and expansion, and group-list tokens."""

import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cellkit.specs as specs
import cellkit.theorems as theorems
from cellkit import (
    WIDE_ORDER_CAP,
    SubsetSpecError,
    build_group,
    check_subset_spec,
    expand_subset_specs,
    iter_identity_subsets,
    parse_group_tokens,
    parse_subset_spec,
    sample_identity_subsets,
)
from cellkit.specs import random_masks

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


def test_rand_spec_draws_are_pinned():
    # taken from the stdlib randint and sample draws, before they were
    # replayed from getrandbits
    assert [s.bits for s in expand_subset_specs("rand:3:20:5", Z12)] == [
        97, 2561, 1, 17, 11, 257, 513, 19, 145, 9, 1281]


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
    # a range past the largest order a group may have is refused before any name is built
    assert len(parse_group_tokens(f"Z1..Z{WIDE_ORDER_CAP}")) == WIDE_ORDER_CAP
    with pytest.raises(SubsetSpecError, match="past index"):
        parse_group_tokens(f"Z1..Z{WIDE_ORDER_CAP + 1}")
    with pytest.raises(SubsetSpecError, match="past index"):
        parse_group_tokens("Z1..Z300000")


# -- the seeded draws against the stdlib calls they replay -----------------
# The oracles are the draws as the stdlib makes them; random_masks and the
# Olson ranks must make the same getrandbits calls, so the draws and the
# generator's state afterwards are equal.

def stdlib_masks(n, rng, count, lo, hi):
    out = []
    for _ in range(count):
        bits = 0
        for i in rng.sample(range(n), rng.randint(lo, hi)):
            bits |= 1 << i
        out.append(bits)
    return out


def stdlib_identity_subsets(g, lo, hi, count, rng):
    out, seen = [], set()
    for _ in range(count):
        bits = 1
        for i in rng.sample(range(1, g.order), rng.randint(lo, hi) - 1):
            bits |= 1 << i
        if bits not in seen:
            seen.add(bits)
            out.append(bits)
    return out


def stdlib_olson_ranks(union_counts, samples, seed):
    rng = random.Random(f"{seed}|olson")
    draws = []
    for _ in range(samples):
        hi = rng.randrange(len(union_counts))
        ki = rng.randrange(len(union_counts))
        draws.append((hi, ki, rng.randrange(union_counts[hi]), rng.randrange(union_counts[ki])))
    return [list(col) for col in zip(*draws)], rng.getstate()


def test_random_masks_replay_the_stdlib_sample_bit_for_bit():
    # n up to 130 takes Random.sample's pool branch (n <= setsize) and its
    # redraw branch (n > 21 at sizes up to 5), and the setsize switch of
    # size 6 at n = 85/86; sizes up to 8 reach the small sizes at every n
    assert (specs._setsize(5), specs._setsize(6)) == (21, 85)
    for n in range(1, 131):
        for lo, hi in ((1, n), (0, min(n, 8))):
            ours, theirs = random.Random(n), random.Random(n)
            assert random_masks(n, ours, 40, lo, hi) == stdlib_masks(n, theirs, 40, lo, hi), (n, lo, hi)
            assert ours.getstate() == theirs.getstate(), (n, lo, hi)
    assert random_masks(0, random.Random(1), 3, 0, 0) == [0, 0, 0]


@pytest.mark.parametrize("name", ["Z12", "Z40", "Z70"])
def test_sample_identity_subsets_replay_the_stdlib_draws(name):
    g = build_group(name, wide=True)
    for lo, hi in ((1, 4), (1, g.order), (3, 9)):
        ours, theirs = random.Random(lo * hi), random.Random(lo * hi)
        got = [s.bits for s in sample_identity_subsets(g, lo, hi, 60, ours)]
        assert got == stdlib_identity_subsets(g, lo, hi, 60, theirs), (lo, hi)
        assert ours.getstate() == theirs.getstate(), (lo, hi)


def test_olson_ranks_replay_the_stdlib_randrange_draws(monkeypatch):
    # one-word getrandbits up to 32 bits, two words above
    union_counts = [1, 3, 255, 2**32 - 1, 2**33 - 1, 2**64 - 1]
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(theorems.random, "Random", Recorded)
    cfg = theorems.SweepConfig(groups=("Z6",), theorems=("olson",), mode="sampled", samples=2000)
    (chunk,) = theorems._olson_ranks(union_counts, cfg, 3, np.uint64)
    monkeypatch.undo()
    columns, state = stdlib_olson_ranks(union_counts, 2000, 3)
    assert [col.tolist() for col in chunk] == columns
    assert made[0].getstate() == state
    # every union count was drawn from
    assert set(columns[0]) == set(range(len(union_counts)))


# -- the spec parsers on arbitrary text ------------------------------------

# pieces of the spec and group-list grammars, numbers kept small and never
# adjacent, so a rand: spec or a group range that parses stays cheap
_SEPARATORS = st.sampled_from(["{", "}", ",", "-", ":", "..", " ", "all:", "rand:", "Z", "D", "x", "S",
                               "Zx", "cayley:", "é"])
SPEC_LIKE = st.lists(st.tuples(_SEPARATORS, st.integers(0, 40).map(str)), max_size=8).map(
    lambda parts: "".join(sep + num for sep, num in parts))


def refused(f, *args):
    try:
        f(*args)
    except SubsetSpecError:
        return True
    return False


@given(text=st.one_of(st.text(max_size=40), SPEC_LIKE))
@example(text="{" + "1" * 5000 + "}")
@example(text="rand:1:" + "1" * 5000 + ":1")
@example(text="Z1..Z" + "9" * 5000)
def test_spec_parsers_return_or_raise_subset_spec_error(text):
    # any other exception escapes and fails the test
    passes_check = not refused(check_subset_spec, text)
    for g in (Z6, Z12):
        try:
            subsets = expand_subset_specs(text, g)
        except SubsetSpecError:
            continue
        assert passes_check
        assert all(s.group is g for s in subsets)
    if not refused(parse_group_tokens, text):
        assert all(parse_group_tokens(text))


@given(k=st.integers(1, 14), n=st.integers(0, 30), seed=st.integers(-5, 5),
       name=st.sampled_from(["Z1", "Z6", "D3", "Z12"]))
def test_rand_specs_yield_small_identity_subsets(k, n, seed, name):
    g = build_group(name)
    subsets = expand_subset_specs(f"rand:{k}:{n}:{seed}", g)
    assert len(subsets) <= n
    assert len({s.bits for s in subsets}) == len(subsets)
    for s in subsets:
        assert s.contains_identity and len(s) <= k
