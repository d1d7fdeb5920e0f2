"""Parsers for group lists and subset specifications."""

from __future__ import annotations

import math
import random
import re
from itertools import combinations
from typing import Iterator

from .groups import ElementSet, Group

_EXPLICIT_RE = re.compile(r"\{\s*((?:-?\d+\s*)(?:,\s*-?\d+\s*)*)?\}")
_ALL_RE = re.compile(r"all:(\d+)")
_RAND_RE = re.compile(r"rand:(\d+):(\d+):(-?\d+)")
_RANGE_RE = re.compile(r"([A-Za-z]+)(\d+)\.\.([A-Za-z]*)(\d+)")


class SubsetSpecError(ValueError):
    """Malformed subset specification, or indices outside the group."""


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
        i = int(token)
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


def random_nonempty_bits(n: int, rng: random.Random) -> int:
    """A seeded nonempty subset of 0..n-1 as a bitmask: a uniform size, then
    a uniform sample of that many elements."""
    bits = 0
    for i in rng.sample(range(n), rng.randint(1, n)):
        bits |= 1 << i
    return bits


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
    for _ in range(count):
        size = rng.randint(lo, hi)
        bits = 1
        for i in rng.sample(range(1, g.order), size - 1):
            bits |= 1 << i
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
        return IdentitySubsets(g, 1, int(m.group(1)))
    m = _RAND_RE.fullmatch(text)
    if m:
        k, n, seed = int(m.group(1)), int(m.group(2)), int(m.group(3))
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
            if int(m.group(1)) < 1:
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
            prefix, lo, prefix2, hi = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
            if prefix2 and prefix2 != prefix:
                raise SubsetSpecError(f"group range {token!r} mixes prefixes {prefix!r} and {prefix2!r}")
            if hi < lo:
                raise SubsetSpecError(f"group range {token!r} is empty")
            specs.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
        else:
            specs.append(token)
    return list(dict.fromkeys(specs))
