"""Cells of a generating subset: closure operator, enumeration, kernels.

For a subset S of a finite group G with 1 in S, a cell is a nonempty X
whose product X*S absorbs no further left translate: z*S is contained in
X*S only for z already in X. Equivalently X is a fixed point of the
closure operator T -> {z : z*S subset of T*S}. The deficiency of a cell
is |X*S| - |X|; a u-kernel is a u-cell of minimal cardinality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .groups import ElementSet, Group, generated_subgroup, is_subgroup, product_bits, require_same_group
from .specs import random_nonempty_bits

ENUMERATION_CAP = 20
MAX_MASK_ORDER = 64
_MEMO_LIMIT = 512


class EnumerationCapError(ValueError):
    """Exhaustive enumeration refused because the group is too large."""


@dataclass(frozen=True, slots=True)
class CellRecord:
    """One cell with its product set, deficiency, and structural flags."""

    cell: ElementSet
    product: ElementSet
    deficiency: int
    contains_identity: bool
    is_subgroup: bool


@dataclass(frozen=True, slots=True)
class KernelRecord:
    """The minimal-cardinality u-cells, if any, for one deficiency u."""

    u: int
    kernels: tuple[CellRecord, ...]
    unique_identity_kernel: CellRecord | None


@dataclass(frozen=True, slots=True)
class ChainViolation:
    """Two subgroup kernels that break the nesting expected of the chain."""

    first: CellRecord
    first_u: int
    second: CellRecord
    second_u: int
    reason: str


@dataclass(frozen=True, slots=True)
class KernelChainReport:
    """Subgroup kernels across all deficiencies below |S|, with nesting checks."""

    s: ElementSet
    per_u: tuple[KernelRecord, ...]
    subgroup_kernel_chain: tuple[ElementSet, ...]
    chain_ok: bool
    violations: tuple[ChainViolation, ...]


def left_translate_masks(g: Group, s_bits: int) -> list[int]:
    """The translate z*S as a bitmask, for every element z."""
    return [product_bits(g, 1 << z, s_bits) for z in range(g.order)]


def closure_bits(lt: list[int], p: int) -> int:
    """{z : z*S subset of P}, given the translates lt[z] = z*S."""
    x = 0
    for z, m in enumerate(lt):
        if not m & ~p:
            x |= 1 << z
    return x


def mask_dtype(order: int) -> type:
    """The numpy dtype holding one subset mask: uint32 to order 31, uint64 to 64."""
    if order > MAX_MASK_ORDER:
        raise ValueError(f"subset masks of order {order} do not fit a {MAX_MASK_ORDER}-bit integer")
    return np.uint32 if order <= 31 else np.uint64


def product_masks(lt: list[int], t: np.ndarray) -> np.ndarray:
    """Elementwise T*S over an array of T masks, given the translates lt[z] = z*S."""
    dtype = t.dtype.type
    p = np.zeros_like(t)
    for z, m in enumerate(lt):
        sel = ((t >> dtype(z)) & dtype(1)).astype(bool)
        p |= np.where(sel, dtype(m), dtype(0))
    return p


def closure_masks(lt: list[int], a: np.ndarray) -> np.ndarray:
    """Elementwise {z : z*S subset of A} over an array of masks A."""
    dtype = a.dtype.type
    x = np.zeros_like(a)
    for z, m in enumerate(lt):
        m = dtype(m)
        x |= ((a & m) == m).astype(dtype) << dtype(z)
    return x


def _require_identity(s: ElementSet) -> None:
    if not s.bits & 1:
        raise ValueError(
            f"s = {s.spec_string()} does not contain the identity; apply normalize_s first"
        )


def normalize_s(s: ElementSet) -> tuple[ElementSet, int]:
    """Right-translate s by the inverse of its least element.

    Returns the translated set (which contains the identity) and the element
    divided out. A set already containing the identity comes back unchanged.
    """
    if not s:
        raise ValueError("cannot normalize the empty set")
    g = s.group
    least = (s.bits & -s.bits).bit_length() - 1
    if least == 0:
        return s, 0
    return s.right_translate(g.inv[least]), least


def make_record(g: Group, x_bits: int, p_bits: int) -> CellRecord:
    """Assemble a CellRecord from cell and product bitmasks."""
    x = ElementSet(g, x_bits)
    return CellRecord(
        cell=x,
        product=ElementSet(g, p_bits),
        deficiency=p_bits.bit_count() - x_bits.bit_count(),
        contains_identity=bool(x_bits & 1),
        is_subgroup=is_subgroup(x),
    )


def is_cell(x: ElementSet, s: ElementSet) -> bool:
    """True iff x is a fixed point of the closure operator of s."""
    g = require_same_group(x, s)
    _require_identity(s)
    if not x:
        raise ValueError("the empty set is not considered a cell; pass a nonempty x")
    lt = left_translate_masks(g, s.bits)
    return closure_bits(lt, product_bits(g, x.bits, s.bits)) == x.bits


def cell_closure(t: ElementSet, s: ElementSet) -> CellRecord:
    """The smallest cell X containing t with X*S = t*S."""
    g = require_same_group(t, s)
    _require_identity(s)
    if not t:
        raise ValueError("cannot close the empty set; pass a nonempty seed")
    p = product_bits(g, t.bits, s.bits)
    return make_record(g, closure_bits(left_translate_masks(g, s.bits), p), p)


def require_enumerable(order: int, cap: int) -> None:
    """Refuse the exhaustive enumeration over a group of order above cap."""
    if order > cap:
        raise EnumerationCapError(f"exhaustive enumeration sweeps 2^{order} candidate products; "
                                  f"refusing order {order} above cap {cap}")


def _full_cell_enumeration(g: Group, s_bits: int, cap: int) -> tuple[tuple[int, int], ...]:
    """All cells of S as (cell bits, product bits), sorted by cell bits.

    Sweeps every candidate product set A and keeps the nonempty closures
    {z : z*S subset of A}; each cell X arises from A = X*S. The sweep is
    chunked so memory stays proportional to the chunk, not to 2^order.
    """
    cached = g._enum_memo.get(s_bits)
    if cached is not None:
        return cached
    n = g.order
    require_enumerable(n, cap)
    lt = left_translate_masks(g, s_bits)
    dtype = mask_dtype(n)
    total = 1 << n
    chunk = min(total, 1 << 18)
    parts = []
    for start in range(0, total, chunk):
        parts.append(np.unique(closure_masks(lt, np.arange(start, start + chunk, dtype=dtype))))
    cells = np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]
    cells = cells[cells != 0]
    result = tuple(zip(cells.tolist(), product_masks(lt, cells).tolist()))
    if len(g._enum_memo) >= _MEMO_LIMIT:
        g._enum_memo.pop(next(iter(g._enum_memo)))
    g._enum_memo[s_bits] = result
    return result


def enumerate_cells(s: ElementSet, u_max: int, mode: str = "exhaustive", *,
                    count: int | None = None, seed: int | None = None,
                    cap: int = ENUMERATION_CAP) -> list[CellRecord]:
    """Cells of s with deficiency at most u_max, sorted by (deficiency, size, bits).

    Exhaustive mode is complete but refuses groups of order above cap.
    Sampled mode closes count random seeds drawn with the given seed and
    returns the distinct cells found, a reproducible subset of the truth.
    """
    _require_identity(s)
    if u_max < 0:
        raise ValueError(f"u_max must be nonnegative, got {u_max}")
    g = s.group
    if mode == "exhaustive":
        pairs = _full_cell_enumeration(g, s.bits, cap)
    elif mode == "sampled":
        if count is None or seed is None:
            raise ValueError("sampled mode requires both count and seed")
        rng = random.Random(seed)
        n = g.order
        seen: dict[int, int] = {}
        lt = left_translate_masks(g, s.bits)
        for _ in range(count):
            p = product_bits(g, random_nonempty_bits(n, rng), s.bits)
            seen[closure_bits(lt, p)] = p
        pairs = sorted(seen.items())
    else:
        raise ValueError(f"unknown enumeration mode {mode!r}; expected 'exhaustive' or 'sampled'")
    records = [make_record(g, xb, pb) for xb, pb in pairs if pb.bit_count() - xb.bit_count() <= u_max]
    records.sort(key=lambda r: (r.deficiency, len(r.cell), r.cell.bits))
    return records


def kernels_at(s: ElementSet, u: int, cells: list[CellRecord]) -> KernelRecord:
    """Minimal-cardinality u-cells among a complete enumeration at deficiency u."""
    pool = [c for c in cells if c.deficiency == u]
    if not pool:
        return KernelRecord(u=u, kernels=(), unique_identity_kernel=None)
    m = min(len(c.cell) for c in pool)
    kernels = tuple(sorted((c for c in pool if len(c.cell) == m), key=lambda c: c.cell.bits))
    with_identity = [c for c in kernels if c.contains_identity]
    unique = with_identity[0] if len(with_identity) == 1 else None
    return KernelRecord(u=u, kernels=kernels, unique_identity_kernel=unique)


@dataclass(frozen=True, slots=True)
class BalandraudResult:
    """The subgroup attached to s, with how it was obtained."""

    subgroup: ElementSet
    u_star: int | None
    case: str


def balandraud_details(s: ElementSet, *, cap: int = ENUMERATION_CAP) -> BalandraudResult:
    """The canonical subgroup H(s) together with the deficiency that selects it.

    For |s| >= 2 the subgroup is the smallest identity-containing u*-kernel,
    where u* is the largest deficiency in 1..|s|-2 attained by a cell; if no
    such cell exists it is the subgroup generated by s. For |s| <= 1 it is
    the trivial subgroup.
    """
    _require_identity(s)
    g = s.group
    size = len(s)
    if size <= 1:
        return BalandraudResult(subgroup=g.identity_set(), u_star=None, case="trivial")
    pairs = _full_cell_enumeration(g, s.bits, cap)
    u_star = None
    for xb, pb in pairs:
        u = pb.bit_count() - xb.bit_count()
        if 1 <= u <= size - 2 and (u_star is None or u > u_star):
            u_star = u
    if u_star is None:
        return BalandraudResult(subgroup=generated_subgroup(g, s), u_star=None, case="generated")
    pool = [(xb, pb) for xb, pb in pairs if pb.bit_count() - xb.bit_count() == u_star]
    m = min(xb.bit_count() for xb, _ in pool)
    candidates = sorted(xb for xb, _ in pool if xb.bit_count() == m and xb & 1)
    return BalandraudResult(subgroup=ElementSet(g, candidates[0]), u_star=u_star, case="kernel")


def balandraud_subgroup(s: ElementSet, *, cap: int = ENUMERATION_CAP) -> ElementSet:
    """The canonical subgroup H(s); see balandraud_details."""
    return balandraud_details(s, cap=cap).subgroup


def _kernel_chain(s: ElementSet, cap: int) -> tuple[list[CellRecord], KernelChainReport]:
    """The cells of s with deficiency below |s|, and the kernel chain built from them."""
    g = s.group
    size = len(s)
    cells = enumerate_cells(s, u_max=size - 1, cap=cap)
    per_u = tuple(kernels_at(s, u, cells) for u in range(size))
    entries = [(rec.u, k) for rec in per_u for k in rec.kernels if k.is_subgroup]
    violations: list[ChainViolation] = []
    for i in range(len(entries)):
        u1, k1 = entries[i]
        for j in range(i + 1, len(entries)):
            u2, k2 = entries[j]
            b1, b2 = k1.cell.bits, k2.cell.bits
            if b1 & ~b2 and b2 & ~b1:
                violations.append(ChainViolation(k1, u1, k2, u2, "kernels are incomparable"))
            elif u1 < u2 and b2 & ~b1:
                violations.append(ChainViolation(
                    k1, u1, k2, u2,
                    f"deficiency-{u2} kernel is not contained in the deficiency-{u1} kernel",
                ))
    chain_bits = sorted({k.cell.bits for _, k in entries}, key=lambda b: (b.bit_count(), b))
    return cells, KernelChainReport(
        s=s,
        per_u=per_u,
        subgroup_kernel_chain=tuple(ElementSet(g, b) for b in chain_bits),
        chain_ok=not violations,
        violations=tuple(violations),
    )


def kernel_chain(s: ElementSet, *, cap: int = ENUMERATION_CAP) -> KernelChainReport:
    """Subgroup kernels for every deficiency u in 0..|s|-1, with nesting checks.

    chain_ok is true when the subgroup kernels are totally ordered by
    inclusion and a larger deficiency never yields a larger kernel; each
    violation records the offending pair.
    """
    return _kernel_chain(s, cap)[1]
