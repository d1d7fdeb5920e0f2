"""Parsers for group lists and subset specifications, and the seeded subset draw.

random_masks is the one seeded subset draw: Kneser's sampled pairs, the
seeds of sampled cells, the sampled S space and rand:<k>:<n>:<seed>
subsets all come from it. It replays, bit for bit, what random.Random's
randint(lo, hi) followed by sample(range(n), size) would draw: the same
getrandbits calls with the same widths and redraws (CPython's
_randbelow_with_getrandbits and both branches of Random.sample), without
their per-call overhead. So seeded streams keep their bytes and the
generator ends in the same state; the equivalence test in
tests/test_specs.py holds it to the stdlib calls.
"""

from __future__ import annotations

import functools
import math
import random
import re
from itertools import combinations
from typing import Iterator

from .groups import WIDE_ORDER_CAP, ElementSet, Group, _parse_int

_EXPLICIT_RE = re.compile(r"\{\s*((?:-?\d+\s*)(?:,\s*-?\d+\s*)*)?\}")
_ALL_RE = re.compile(r"all:(\d+)")
_RAND_RE = re.compile(r"rand:(\d+):(\d+):(-?\d+)")
_RANGE_RE = re.compile(r"([A-Za-z]+)(\d+)\.\.([A-Za-z]*)(\d+)")


class SubsetSpecError(ValueError):
    """Malformed subset specification, or indices outside the group."""


_int = functools.partial(_parse_int, error=SubsetSpecError)


def _unrecognized(spec: str) -> str:
    return f"unrecognized subset spec {spec!r}; expected '{{i,j,...}}', 'all:<k>', or 'rand:<k>:<n>:<seed>'"


def parse_subset_spec(spec: str, g: Group) -> ElementSet:
    """Parse an explicit "{i,j,...}" subset spec against a group.

    Family forms (all:<k>, rand:<k>:<n>:<seed>) denote many subsets and are
    handled by expand_subset_specs.
    """
    text = spec.strip()
    m = _EXPLICIT_RE.fullmatch(text)
    if m is None:
        if _ALL_RE.fullmatch(text) or _RAND_RE.fullmatch(text):
            raise SubsetSpecError(
                f"subset spec {spec!r} names a family of subsets; use expand_subset_specs"
            )
        raise SubsetSpecError(_unrecognized(spec))
    bits = 0
    body = m.group(1) or ""
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        i = _int(token)
        if not 0 <= i < g.order:
            raise SubsetSpecError(f"index {i} is outside 0..{g.order - 1} for group {g.label}")
        bits |= 1 << i
    return ElementSet(g, bits)


def iter_identity_subsets(g: Group, min_size: int, max_size: int) -> Iterator[ElementSet]:
    """All subsets containing the identity with size in range, smallest first."""
    lo = max(1, min_size)
    hi = min(max_size, g.order)
    others = range(1, g.order)
    for size in range(lo, hi + 1):
        for combo in combinations(others, size - 1):
            bits = 1
            for i in combo:
                bits |= 1 << i
            yield ElementSet(g, bits)


class IdentitySubsets:
    """iter_identity_subsets(g, lo, hi), iterated lazily; its length is a sum of binomials."""

    def __init__(self, g: Group, lo: int, hi: int) -> None:
        self.g, self.lo, self.hi = g, max(1, lo), min(hi, g.order)

    def __iter__(self) -> Iterator[ElementSet]:
        return iter_identity_subsets(self.g, self.lo, self.hi)

    def __len__(self) -> int:
        return sum(math.comb(self.g.order - 1, k - 1) for k in range(self.lo, self.hi + 1))


# Random.sample's switch between its two branches, per sample size k, in
# the stdlib's own expression: a pool of n is used while n <= _setsize(k)
def _setsize(k: int) -> int:
    return 21 + 4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 21


def random_masks(n: int, rng: random.Random, count: int, lo: int = 1, hi: int | None = None) -> list[int]:
    """count seeded subsets of 0..n-1 as bitmasks, each of a uniform size in
    lo..hi (default 1..n) and then a uniform sample of that many elements.

    Makes the same rng.getrandbits calls as count rounds of the stdlib's
    randint(lo, hi), then sample(range(n), size), so it returns what they
    would draw and leaves rng in the same state.
    """
    hi = n if hi is None else hi
    bits = rng.getrandbits
    span = hi - lo + 1
    span_width = span.bit_length()
    width_n = n.bit_length()
    pooled = [n <= _setsize(k) for k in range(hi + 1)]
    singles = [1 << i for i in range(n)]
    # (m, m.bit_length()) for the m elements left at each step of the pool
    steps = [(m, m.bit_length()) for m in range(n, 0, -1)]
    out = []
    for _ in range(count):
        r = bits(span_width)
        while r >= span:
            r = bits(span_width)
        size = lo + r
        mask = 0
        if pooled[size]:
            # pick j below the m elements left, then move the last one into j
            pool = singles[:]
            for m, width in steps[:size]:
                j = bits(width)
                while j >= m:
                    j = bits(width)
                mask |= pool[j]
                pool[j] = pool[m - 1]
        else:
            # redraw below n until j is not yet taken
            for _ in range(size):
                j = bits(width_n)
                while j >= n or mask >> j & 1:
                    j = bits(width_n)
                mask |= 1 << j
        out.append(mask)
    return out


def sample_identity_subsets(g: Group, min_size: int, max_size: int, count: int,
                            rng: random.Random) -> list[ElementSet]:
    """count seeded draws of identity-containing subsets, deduplicated.

    The size is uniform over the configured range, then the remaining
    elements are a uniform sample; duplicates across draws are dropped.
    """
    lo = max(1, min_size)
    hi = min(max_size, g.order)
    if lo > hi:
        return []
    out: list[ElementSet] = []
    seen: set[int] = set()
    # the non-identity elements 1..order-1 are drawn as 0..order-2
    for others in random_masks(g.order - 1, rng, count, lo - 1, hi - 1):
        bits = others << 1 | 1
        if bits not in seen:
            seen.add(bits)
            out.append(ElementSet(g, bits))
    return out


def expand_subset_specs(spec: str, g: Group) -> list[ElementSet] | IdentitySubsets:
    """Expand a subset spec into the subsets it denotes.

    "{i,j,...}" yields that one subset. "all:<k>" yields every subset of
    size at most k that contains the identity, as a lazy IdentitySubsets
    with a len, so no list of them is built. "rand:<k>:<n>:<seed>" yields n
    seeded random such subsets (deduplicated, so possibly fewer).
    """
    check_subset_spec(spec)
    text = spec.strip()
    m = _ALL_RE.fullmatch(text)
    if m:
        return IdentitySubsets(g, 1, _int(m.group(1)))
    m = _RAND_RE.fullmatch(text)
    if m:
        k, n, seed = _int(m.group(1)), _int(m.group(2)), _int(m.group(3))
        return sample_identity_subsets(g, 1, k, n, random.Random(seed))
    return [parse_subset_spec(text, g)]


def check_subset_spec(spec: str) -> None:
    """Raise SubsetSpecError unless spec has a form expand_subset_specs takes.

    Needs no group, so a sweep can refuse a malformed spec before any task
    runs; the indices of an explicit spec are checked against each group
    when it is expanded.
    """
    text = spec.strip()
    for pattern, form in ((_ALL_RE, "all:<k>"), (_RAND_RE, "rand:<k>:<n>:<seed>")):
        m = pattern.fullmatch(text)
        if m is not None:
            if _int(m.group(1)) < 1:
                raise SubsetSpecError(f"{form} needs k >= 1, got {spec!r}")
            return
    if _EXPLICIT_RE.fullmatch(text) is None:
        raise SubsetSpecError(_unrecognized(spec))


def parse_group_tokens(expr: str) -> list[str]:
    """Split a comma-separated group list, expanding Z2..Z10 style ranges.

    A group named twice, as in Z6,Z6 or Z2..Z6,Z4, is kept once, where it
    first appears.
    """
    specs: list[str] = []
    for token in expr.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            m = _RANGE_RE.fullmatch(token)
            if m is None:
                raise SubsetSpecError(f"unrecognized group range {token!r}; expected e.g. Z2..Z10")
            prefix, lo, prefix2, hi = m.group(1), _int(m.group(2)), m.group(3), _int(m.group(4))
            if prefix2 and prefix2 != prefix:
                raise SubsetSpecError(f"group range {token!r} mixes prefixes {prefix!r} and {prefix2!r}")
            if hi < lo:
                raise SubsetSpecError(f"group range {token!r} is empty")
            if hi > WIDE_ORDER_CAP:  # every built-in family's order is at least its index (Zn n, Dn 2n, Sn n!)
                raise SubsetSpecError(f"group range {token!r} runs past index {WIDE_ORDER_CAP}, "
                                      f"and no group is built above order {WIDE_ORDER_CAP}")
            specs.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
        else:
            specs.append(token)
    return list(dict.fromkeys(specs))
