"""Set-level primitives: product sets, stabilizers, differences.

Products, translates and stabilizers here all reduce to groups.product_bits.
"""

from __future__ import annotations

from .groups import ElementSet, iter_bits, product_bits, require_same_group


def product(x: ElementSet, s: ElementSet) -> ElementSet:
    """The product set {a*b : a in x, b in s}; empty if either factor is."""
    g = require_same_group(x, s)
    return ElementSet(g, product_bits(g, x.bits, s.bits))


def left_stabilizer(a: ElementSet) -> ElementSet:
    """The subgroup {g : g*a = a} of elements fixing a under left translation.

    Refuses the empty set, whose stabilizer would degenerate to the whole
    group.
    """
    if not a:
        raise ValueError("left stabilizer of the empty set is degenerate; pass a nonempty set")
    g = a.group
    # z*A = A fails iff z*x = c for some x in A and c outside A, so the
    # stabilizer is the complement of (G \ A) * A^-1
    inverse = 0
    for x in iter_bits(a.bits):
        inverse |= 1 << g.inv[x]
    outside = g.full_bits & ~a.bits
    return ElementSet(g, g.full_bits & ~product_bits(g, outside, inverse))


def difference_counts(x: ElementSet, y: ElementSet) -> tuple[int, int]:
    """The pair (|x \\ y|, |y \\ x|)."""
    require_same_group(x, y)
    return ((x.bits & ~y.bits).bit_count(), (y.bits & ~x.bits).bit_count())
