"""Brute-force reference answers, independent of cellkit's algorithms.

Only the multiplication table is taken from cellkit. Everything else follows
the definitions: a cell of S is a nonempty closure {z : zS subset of TS} of
some nonempty T, and its deficiency is |XS| - |X|.
"""

from __future__ import annotations

from math import comb


def _translate_masks(mul, s_bits: int) -> list[int]:
    n = len(mul)
    s_idx = [b for b in range(n) if (s_bits >> b) & 1]
    out = []
    for z in range(n):
        m = 0
        for b in s_idx:
            m |= 1 << mul[z][b]
        out.append(m)
    return out


def cells(mul, s_bits: int) -> dict[int, int]:
    """Every cell of S as {cell bits: product bits}, by closing every nonempty T."""
    n = len(mul)
    lt = _translate_masks(mul, s_bits)
    found: dict[int, int] = {}
    for t in range(1, 1 << n):
        p = 0
        for z in range(n):
            if (t >> z) & 1:
                p |= lt[z]
        x = 0
        for z in range(n):
            if lt[z] & ~p == 0:
                x |= 1 << z
        found[x] = p
    return found


def intersection_counts(mul, s_bits: int) -> tuple[int, int]:
    """(pairs with a nonempty intersection, pairs with an empty one) over all cell pairs.

    The cell-intersection lemma says every nonempty intersection is a cell,
    so the first number is the expected HOLDS count and the second the
    expected NOT_APPLICABLE count.
    """
    xs = sorted(cells(mul, s_bits))
    meet = 0
    for i in range(len(xs)):
        a = xs[i]
        for j in range(i + 1, len(xs)):
            if a & xs[j]:
                meet += 1
    return meet, comb(len(xs), 2) - meet


def identity_subsets_up_to(order: int, k: int) -> int:
    """Number of subsets of size 1..k that contain the identity."""
    return sum(comb(order - 1, size - 1) for size in range(1, min(k, order) + 1))
