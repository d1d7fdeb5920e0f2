"""Cells of a generating subset: closure operator, enumeration, kernels.

For a subset S of a finite group G with 1 in S, a cell is a nonempty X
whose product X*S absorbs no further left translate: z*S is contained in
X*S only for z already in X. Equivalently X is a fixed point of the
closure operator T -> {z : z*S subset of T*S}. The deficiency of a cell
is |X*S| - |X|; a u-kernel is a u-cell of minimal cardinality.

Over numpy arrays of masks the one set kernel is a byte-table product,
and _byte_unions its one table builder. _gather ORs one gather per mask
byte from such a table. Each group keeps two translate tables
(translate_tables), built once: column_union of one over S gives the
table of X -> X*S for any S, and over H of the other the table of
X -> H*X; a gather from the left table gives every left translate z*X.
closure_masks is such a product too: {z : z*S subset of A} =
G \\ ((G \\ A) * S^-1). When both factors vary, pair_products ORs the
translates z*Y over z in X from one gather of the left table, which
stabilizer_masks and periodic_flags read too.

_full_cell_enumeration lists every cell sorted by (deficiency, size, bits),
as read-only numpy columns of cells, products and deficiencies, memoized
per right-translate class of S on the group: S and each translate S*y
that holds 1 have the same cells and deficiencies, and their products
differ by y (translate_class_keys names the class). A rooted sweep over
the 2^(order-|S|) masks of G \\ S gives the cells that contain the
identity, and one gather from the group's left-translate table expands
them to all cells. cell_columns slices the deficiency prefix a reader
needs; in sampled mode it builds the same three columns from seeded
closures, sorted by the same key. Its readers: `cellkit cells` renders
its rows from the columns, with subgroup_flags (X*X = X, through
periodic_flags) and kernel_cells; balandraud_details reads
the identity u*-kernel through kernel_cells, and the chain and corollary
settles read the prefixes of many S laid end to end, one S per class.
kernel_flags is the one reading of the smallest cells at a deficiency,
under kernel_cells, the settles and the rows of `cellkit cells`.
enumerate_cells turns the prefix into CellRecords, from which the scalar
kernel chain and corollary checkers answer, and which tests hold the
columns to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .groups import (
    ElementSet,
    Group,
    generated_subgroup,
    inverse_bits,
    is_subgroup,
    product_bits,
    require_same_group,
)
from .specs import random_masks

ENUMERATION_CAP = 20
MAX_MASK_ORDER = 64
_MEMO_LIMIT = 512
_GATHER_CHUNK = 1 << 14


class EnumerationCapError(ValueError):
    """Work refused as too large: an exhaustive enumeration above its cap, or masks above 64 bits."""


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
    """The numpy dtype holding one subset mask: uint32 to order 31, uint64 to 64, refused above."""
    if order > MAX_MASK_ORDER:
        raise EnumerationCapError(f"subset masks of order {order} do not fit a {MAX_MASK_ORDER}-bit integer")
    return np.uint32 if order <= 31 else np.uint64


def column_dtype(order: int) -> type:
    """The dtype of a column of masks: mask_dtype to order 64, object (Python ints) above, where only sampled mode runs."""
    return mask_dtype(order) if order <= MAX_MASK_ORDER else object


def bit_counts(masks: np.ndarray) -> np.ndarray:
    """|X| for each mask X of a column; an object column is counted one Python int at a time."""
    if masks.dtype == object:
        return np.array([x.bit_count() for x in masks.tolist()], dtype=np.int64)
    return np.bitwise_count(masks)


def _byte_unions(rows: np.ndarray) -> np.ndarray:
    """out[256*b + v] is the OR of rows[8*b + i] over the bits i of v.

    Byte position b covers rows 8b..8b+7; the last position runs only to
    the values its rows can reach. Built by doubling, one OR per row.
    """
    n = len(rows)
    out = np.zeros((256 * ((n - 1) // 8) + (2 << (n - 1) % 8),) + rows.shape[1:], dtype=rows.dtype)
    for e, row in enumerate(rows):
        lo, span = 256 * (e // 8), 1 << e % 8
        np.bitwise_or(out[lo:lo + span], row, out=out[lo + span:lo + 2 * span])
    return out


def _gather(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The OR, over each byte position b of the masks t, of table[256*b + byte b].

    table is a _byte_unions table; trailing axes of the table carry through,
    so out has shape t.shape + table.shape[1:].
    """
    # the bytes of each mask, least significant first, along a new last axis
    cols = np.ascontiguousarray(t, dtype=t.dtype.newbyteorder("<"))[..., None].view(np.uint8)
    out = table[cols[..., 0]]
    for b in range(1, -(-len(table) // 256)):
        out |= table[256 * b:][cols[..., b]]
    return out


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending, as np.unique gives them.

    One np.sort and a neighbour test: on numpy 2.4, np.unique took 16 ms
    for 65,536 uint32 values against 0.5 ms for this (2-core Xeon host).
    """
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def translate_tables(g: Group) -> tuple[np.ndarray, np.ndarray]:
    """The group's byte tables (right, left) of translates, in g's mask dtype.

    right[v, y] = B*y and left[v, z] = z*B, where B is the set that the
    _byte_unions index v names. The OR of right's columns s over S is the
    byte table of X -> X*S; a gather from left gives every left translate of
    a mask at once. Built once per group and kept on it.
    """
    if g._translate_np is None:
        dtype = mask_dtype(g.order)
        single = dtype(1) << g.mul_array().astype(dtype)  # single[x, y] = {x*y}
        g._translate_np = (_byte_unions(single), _byte_unions(np.ascontiguousarray(single.T)))
    return g._translate_np


def column_union(table: np.ndarray, bits: int) -> np.ndarray:
    """The OR of a translate table's columns over the elements of bits.

    Over the right table of translate_tables this is the byte table of
    X -> X*B for the set B that bits names, over the left table that of
    X -> B*X.
    """
    return np.bitwise_or.reduce(table[:, [z for z in range(table.shape[1]) if bits >> z & 1]], axis=1)


def closure_masks(g: Group, times_inverse: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise {z : z*S subset of A} over an array of masks A.

    times_inverse is the byte table of B -> B*S^-1, the column_union of the
    group's right table over S^-1. z*S leaves A iff z lies in j*S^-1 for
    some j outside A, so the closure is the product G \\ ((G \\ A) * S^-1).
    """
    full = a.dtype.type(g.full_bits)
    return full & ~_gather(times_inverse, full & ~a)


def _byte_index(a: np.ndarray, width: int) -> list[np.ndarray]:
    """256*b + byte b of each mask, for each byte position b below width, in a's dtype."""
    t = a.dtype.type
    return [((a >> t(8 * b)) & t(255)) + t(256 * b) for b in range(width)]


def pair_products(g: Group, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise X*Y over two columns of masks: the OR of the left translates z*Y over z in X.

    One gather from the group's left translate table gives every z*Y,
    _GATHER_CHUNK rows at a time so memory stays bounded.
    """
    left = translate_tables(g)[1]
    singles = left[1]  # left[1, z] = z * {1} = {z}
    out = np.empty(len(x), dtype=left.dtype)
    for start in range(0, len(x), _GATHER_CHUNK):
        part = slice(start, start + _GATHER_CHUNK)
        translates = _gather(left, y[part])  # [k, z] = z * Y_k
        translates *= (x[part, None] & singles) != 0  # keep z*Y_k for z in X_k
        out[part] = np.bitwise_or.reduce(translates, axis=1)
    return out


def pair_products_every_x(g: Group, y: np.ndarray) -> np.ndarray:
    """X*Y for every mask X (0 first) and each Y of y, shape (len(y), 2^order).

    The byte table of X -> X*Y for each Y comes from one gather of the
    group's left translate table; the products for all X then follow by
    OR-broadcasting over X's byte positions, one OR per pair.
    """
    cols = _byte_unions(_gather(translate_tables(g)[1], y).T).T  # [j, 256*a + u] = (byte u at a) * y[j]
    out = cols[:, :256]
    for a in range(1, -(-cols.shape[1] // 256)):
        out = (cols[:, 256 * a:256 * (a + 1), None] | out[:, None, :]).reshape(len(y), -1)
    return out


def stabilizer_masks(g: Group, a: np.ndarray) -> np.ndarray:
    """Elementwise left stabilizer {z : z*A = A} over an array of nonempty masks A.

    As in setops.left_stabilizer, z*A = A fails iff z lies in (G \\ A) * A^-1;
    A^-1 is a gather from the _byte_unions table of the singletons {z^-1}.
    """
    full = a.dtype.type(g.full_bits)
    inverse = _gather(_byte_unions(np.array([1 << i for i in g.inv], dtype=a.dtype)), a)
    return full & ~pair_products(g, full & ~a, inverse)


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
        raise EnumerationCapError(f"exhaustive enumeration lists up to 2^{order} cells from "
                                  f"2^({order}-|S|) candidate products; "
                                  f"refusing order {order} above cap {cap}")


def translate_class_keys(g: Group, masks: np.ndarray) -> np.ndarray:
    """The class key of each nonempty mask S of a column: its least right translate S*y that holds 1.

    z*S*y lies inside X*S*y iff z*S lies inside X*S, so S and each S*y that
    holds 1 have the same cells and deficiencies, and X*(S*y) = (X*S)*y.
    One gather of the group's right table gives every S*y, shape (k, n).
    """
    translates = _gather(translate_tables(g)[0], masks)  # [i, y] = S_i * y
    return np.where((translates & 1) == 1, translates, np.iinfo(translates.dtype).max).min(axis=1)


def _sorted_cell_columns(order: int, cells: np.ndarray,
                         products: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct cells X and their products X*S as read-only columns (cells, products, deficiency).

    Sorted by (deficiency, |X|, cell bits), the deficiency |X*S| - |X| in
    the smallest unsigned dtype that holds order - 1, uint8 to order 256.
    """
    size = bit_counts(cells)
    # |X*S| >= |X|, so the difference of two uint8 counts cannot wrap
    deficiency = (bit_counts(products) - size).astype(np.min_scalar_type(order - 1), copy=False)
    i = np.lexsort((cells, size, deficiency))
    result = (cells[i], products[i], deficiency[i])
    for column in result:
        column.flags.writeable = False
    return result


def _full_cell_enumeration(g: Group, s_bits: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All cells of S as read-only columns (cells, products, deficiency).

    Sorted by _sorted_cell_columns, the masks in g's mask dtype and the
    deficiency |X*S| - |X| in uint8, so a reader slices the prefix it needs
    with np.searchsorted on the last column.
    Each cell X is the closure {z : z*S subset of A} of A = X*S, which is
    G \\ (B * S^-1) for B = G \\ A; X contains the identity iff B misses S.
    So the rooted sweep takes the products B * S^-1 over the 2^(order-|S|)
    masks B of G \\ S, from the rows j*S^-1 for j outside S, and complements
    only the distinct ones: these are the cells that contain the identity.
    A cell Y is the left translate y*(y^-1 Y) of such a cell by its least
    element y, so one gather from the group's left table gives every
    translate z*X, and the cells are the translates whose least element is
    z. The tables are the group's (translate_tables): per S only the free
    rows are built. The sweep is chunked so memory stays proportional to
    the chunk, not to 2^order. The cap is checked before the memo, which
    keeps the last _MEMO_LIMIT right-translate classes (translate_class_keys)
    on g._enum_memo: for each, the member rep first enumerated and its
    columns. Another member S = rep*y gets the same cells and deficiency
    arrays, and its products from one gather of the right table's column y,
    X*S = (X*rep)*y.
    """
    n = g.order
    require_enumerable(n, cap)
    right, left = translate_tables(g)
    dtype = right.dtype.type
    key = int(translate_class_keys(g, np.array([s_bits], dtype=dtype))[0])
    cached = g._enum_memo.get(key)
    if cached is not None:
        rep, cells, products, deficiency = cached
        if rep != s_bits:
            # S = rep*y for the y at which rep's row of right translates reads S
            y = int(np.flatnonzero(_gather(right, np.array([rep], dtype=dtype))[0] == s_bits)[0])
            products = _gather(right[:, y], products)
            products.flags.writeable = False
        return cells, products, deficiency
    free = [j for j in range(n) if not s_bits >> j & 1]
    if free:
        # the translates j * S^-1 for j outside S, the rows of the sweep's table
        table = _byte_unions(_gather(left, np.array([inverse_bits(g, s_bits)], dtype=dtype))[0, free])
        total = 1 << len(free)
        chunk = min(total, 1 << 18)
        parts = [_distinct(_gather(table, np.arange(start, start + chunk, dtype=dtype)))
                 for start in range(0, total, chunk)]
        products = _distinct(np.concatenate(parts)) if len(parts) > 1 else parts[0]
    else:
        products = np.zeros(1, dtype=dtype)  # S = G: only B = {} misses S, and G is the one cell
    translates = _gather(left, dtype(g.full_bits) & ~products)  # [i, z] = z * (rooted cell i)
    below = left[1] - dtype(1)  # left[1, z] = z * {1} = {z}, so below[z] holds the elements below z
    cells = translates[(translates & below) == 0]
    result = _sorted_cell_columns(n, cells, _gather(column_union(right, s_bits), cells))
    if len(g._enum_memo) >= _MEMO_LIMIT:
        g._enum_memo.pop(next(iter(g._enum_memo)))
    g._enum_memo[key] = (s_bits, *result)
    return result


def _prefix_end(deficiency: np.ndarray, u_max: int) -> int:
    """The number of cells with deficiency at most u_max, from the sorted deficiency column."""
    return int(np.searchsorted(deficiency, min(u_max, np.iinfo(deficiency.dtype).max), side="right"))


def _sampled_cells(g: Group, s_bits: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct cells that count seeded closures reach, as _sorted_cell_columns, the masks in column_dtype."""
    rng = random.Random(seed)
    n = g.order
    seen: dict[int, int] = {}
    lt = left_translate_masks(g, s_bits)
    for x in random_masks(n, rng, count):
        p = product_bits(g, x, s_bits)
        seen[closure_bits(lt, p)] = p
    dtype = column_dtype(n)
    return _sorted_cell_columns(n, np.array(list(seen), dtype=dtype), np.array(list(seen.values()), dtype=dtype))


def cell_columns(s: ElementSet, u_max: int, mode: str = "exhaustive", *,
                 count: int | None = None, seed: int | None = None,
                 cap: int = ENUMERATION_CAP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of s with deficiency at most u_max, as columns (cells, products, deficiency).

    Sorted by (deficiency, size, bits). Exhaustive mode is complete but
    refuses groups of order above cap; it slices the prefix of the memoized
    enumeration up to u_max. Sampled mode closes count random seeds drawn
    with the given seed and keeps the distinct cells found, a reproducible
    subset of the truth.
    """
    _require_identity(s)
    if u_max < 0:
        raise ValueError(f"u_max must be nonnegative, got {u_max}")
    g = s.group
    if mode == "exhaustive":
        columns = _full_cell_enumeration(g, s.bits, cap)
    elif mode == "sampled":
        if count is None or seed is None:
            raise ValueError("sampled mode requires both count and seed")
        columns = _sampled_cells(g, s.bits, count, seed)
    else:
        raise ValueError(f"unknown enumeration mode {mode!r}; expected 'exhaustive' or 'sampled'")
    end = _prefix_end(columns[2], u_max)
    return tuple(column[:end] for column in columns)


def enumerate_cells(s: ElementSet, u_max: int, mode: str = "exhaustive", *,
                    count: int | None = None, seed: int | None = None,
                    cap: int = ENUMERATION_CAP) -> list[CellRecord]:
    """The CellRecords of cell_columns: cells of s with deficiency at most u_max, sorted by (deficiency, size, bits)."""
    cells, products, _ = cell_columns(s, u_max, mode, count=count, seed=seed, cap=cap)
    g = s.group
    return [make_record(g, xb, pb) for xb, pb in zip(cells.tolist(), products.tolist())]


def kernel_flags(size: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Which rows of sorted columns are kernels: |X| equals the first |X| of its block.

    size holds |X| per row and block is a nondecreasing key, one value per
    block of cells of one deficiency: the deficiency itself for one S, a
    block number for the prefixes of several S laid end to end. Each block
    is sorted by (size, bits), so it opens with its smallest cells. This is
    the one reading of "the smallest cells at deficiency u".
    """
    return size == size[np.searchsorted(block, block)]


def kernel_cells(cells: np.ndarray, deficiency: np.ndarray, u: int) -> np.ndarray:
    """The u-kernels among sorted columns: the kernel_flags rows of deficiency u, ascending by bits."""
    block = slice(_prefix_end(deficiency, u - 1) if u else 0, _prefix_end(deficiency, u))
    return cells[block][kernel_flags(bit_counts(cells[block]), deficiency[block])]


def periodic_flags(g: Group, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise whether H*X lies inside X, over mask columns H and X.

    That is z*X inside X for every z in H; for an H that holds 1 it is H*X = X.
    """
    return (pair_products(g, h, x) & ~x) == 0


def subgroup_flags(g: Group, cells: np.ndarray) -> np.ndarray:
    """Which masks X of a column name subgroups: 1 in X, and X*X = X.

    Only the X that hold 1 and whose size divides the order go to
    periodic_flags. An object column goes to is_subgroup one mask at a time.
    """
    if cells.dtype == object:
        return np.array([is_subgroup(ElementSet(g, x)) for x in cells.tolist()], dtype=bool)
    out = ((cells & 1) == 1) & (g.order % bit_counts(cells) == 0)
    i = np.flatnonzero(out)
    x = cells[i]
    out[i] = periodic_flags(g, x, x)
    return out


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
    the trivial subgroup. Read from the enumeration's columns: the kernel is
    the first identity-containing u*-kernel of kernel_cells.
    """
    _require_identity(s)
    g = s.group
    size = len(s)
    if size <= 1:
        return BalandraudResult(subgroup=g.identity_set(), u_star=None, case="trivial")
    cells, _, deficiency = _full_cell_enumeration(g, s.bits, cap)
    end = _prefix_end(deficiency, size - 2)
    u_star = int(deficiency[end - 1])  # G itself is a 0-cell, so the prefix is never empty
    if u_star < 1:
        return BalandraudResult(subgroup=generated_subgroup(g, s), u_star=None, case="generated")
    kernels = kernel_cells(cells, deficiency, u_star)
    kernel = int(kernels[(kernels & 1) == 1][0])
    return BalandraudResult(subgroup=ElementSet(g, kernel), u_star=u_star, case="kernel")


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
