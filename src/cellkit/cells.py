"""Cells of a generating subset: closure operator, enumeration, kernels.

For a subset S of a finite group G with 1 in S, a cell is a nonempty X
whose product X*S absorbs no further left translate: z*S is contained in
X*S only for z already in X. Equivalently X is a fixed point of the
closure operator T -> {z : z*S subset of T*S}. The deficiency of a cell
is |X*S| - |X|; a u-kernel is a u-cell of minimal cardinality.

Over numpy arrays of masks the one set kernel is a byte-table product.
_subset_unions, every union of a list of rows built by doubling, is its one
table builder, and _byte_unions lays one per byte position. _gather, the
one gather, ORs one lookup per mask byte from such a table, or with a
column index reads one column per mask. Each group keeps two translate
tables (translate_tables), built once: column_union of one over S gives the
table of X -> X*S for any S, and over H of the other the table of
X -> H*X; a gather from the left table gives every left translate z*X.
closure_masks is such a product too: {z : z*S subset of A} =
G \\ ((G \\ A) * S^-1). When both factors vary, pair_products ORs the
translates z*Y over z in X from one gather of the left table, which
stabilizer_masks and periodic_flags read too; pair_products_every_x
gathers each Y's table of X -> X*Y at every mask X.

cell_sweep is the one enumeration: over a column of S masks it lists the
cells of each S up to a deficiency bound u per S (every cell without one),
the S laid end to end, as read-only numpy columns of cells, products,
deficiencies and segment (the S of each row), sorted by (segment,
deficiency, size, bits). The S of one size share each step: the products
B * S^-1 over the 2^(order-|S|) masks B of G \\ S, in sub-batches of at
most 2^_SWEEP_BITS candidates, whose distinct values complement to the
cells that contain the identity; gathers from the group's left table, a
chunk of rooted cells at a time, expand them to all cells, and one column
gather of the stacked tables of X -> X*S gives their products. The bound
is applied in the rooted sweep, exactly (cell_sweep states why), so every
later step touches only the prefix. _full_cell_enumeration is the
cell_sweep of one S to one bound, memoized per right-translate class of S
on the group, with the bound it was enumerated to: S and each translate
S*y that holds 1 have the same cells and deficiencies, and their products
differ by y (translate_class_keys names the class). An entry serves any
request at or below its bound and is enumerated again for a larger one.
cell_columns asks it for the deficiency prefix a reader needs; in sampled
mode it builds the same three columns from seeded closures, sorted by the
same key. Its readers: `cellkit cells` asks once, to the larger of --umax
and |S| - 2, and renders its rows from the columns, with subgroup_flags
(X*X = X, through periodic_flags) and kernel_cells; balandraud_details
reads the identity u*-kernel through kernel_cells, from the prefix
u <= |S| - 2. The chain and corollary settles call cell_sweep
once per chunk of classes, on one S per class, bounded by |S| - 1 and
|S| - 2; the intersection sweep reads every cell. kernel_flags is the one
reading of the smallest cells at a deficiency, under kernel_cells, the
settles and the rows of `cellkit cells`. enumerate_cells turns the prefix
into CellRecords, from which the scalar kernel chain and corollary
checkers answer, and which tests hold the columns to.

The closure X = {z : z*S subset of X*S} and the duality X -> G \\ X*S are
those of Hamidoune's isoperimetric method (J. Algebra 179, 1996).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .groups import (
    ElementSet,
    Group,
    generated_subgroup,
    is_subgroup,
    product_bits,
    require_same_group,
)
from .specs import random_masks

ENUMERATION_CAP = 20
MAX_MASK_ORDER = 64
_MEMO_LIMIT = 512
_GATHER_CHUNK = 1 << 14
_SWEEP_BITS = 18  # a sub-batch of the cell sweep holds at most 2^18 candidate products


class EnumerationCapError(ValueError):
    """Work refused as too large: an enumeration above its cap, masks above 64 bits, a task above max_instances."""


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


def _subset_unions(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[v] is the OR of rows[i] over the bits i of v, for every v below 2^len(rows).

    Built by doubling, one OR per row; trailing axes of rows carry through,
    and out[0] is 0 (the empty union), the one row when rows is empty.
    """
    if out is None:
        out = np.empty((1 << len(rows),) + rows.shape[1:], dtype=rows.dtype)
    out[0] = 0
    for e, row in enumerate(rows):
        np.bitwise_or(out[:1 << e], row, out=out[1 << e:2 << e])
    return out


def _byte_unions(rows: np.ndarray) -> np.ndarray:
    """out[256*b + v] is the OR of rows[8*b + i] over the bits i of v.

    Byte position b is the _subset_unions of rows 8b..8b+7, so the last
    position runs only to the values its rows can reach.
    """
    n = len(rows)
    out = np.empty((256 * ((n - 1) // 8) + (2 << (n - 1) % 8),) + rows.shape[1:], dtype=rows.dtype)
    for e in range(0, n, 8):
        _subset_unions(rows[e:e + 8], out[32 * e:32 * e + 256])
    return out


def _gather(table: np.ndarray, t: np.ndarray, *col: np.ndarray) -> np.ndarray:
    """The OR, over each byte position b of the masks t, of table[256*b + byte b].

    table is a _byte_unions table; trailing axes of the table carry through,
    so out has shape t.shape + table.shape[1:]. Given col, an index array
    shaped like t, mask k reads only column col[k] of a 2-d table, and out
    has t's shape.
    """
    # the bytes of each mask, least significant first, along a new last axis
    byte = np.ascontiguousarray(t, dtype=t.dtype.newbyteorder("<"))[..., None].view(np.uint8)

    def lookup(b: int) -> np.ndarray:
        # np.take reads whole rows about twice as fast as indexing with the uint8 bytes
        part = table[256 * b:]
        return part[(byte[..., b], *col)] if col else part.take(byte[..., b], axis=0)

    out = lookup(0)
    for b in range(1, -(-len(table) // 256)):
        out |= lookup(b)
    return out


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of each row of a 2-d array, ascending, laid end to end, and the row of each.

    Sorts a in place, then one neighbour test: on numpy 2.4, np.unique took
    16 ms for 65,536 uint32 values against 0.5 ms for this (2-core Xeon host).
    """
    a.sort(axis=1)
    new = np.ones(a.shape, dtype=bool)
    new[:, 1:] = a[:, 1:] != a[:, :-1]
    i = np.flatnonzero(new)
    return a.ravel()[i], i // a.shape[1]


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

    One gather of the group's left translate table gives, for each Y, the
    byte table of X -> X*Y, with one column per Y; a gather of it at every
    mask X gives the products.
    """
    times_y = _byte_unions(_gather(translate_tables(g)[1], y).T)  # [256*a + u, j] = (byte u at a) * y[j]
    return _gather(times_y, np.arange(1 << g.order, dtype=y.dtype)).T


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


def check_enum_cap(cap: int, name: str, error: type[ValueError]) -> None:
    """Refuse an enumeration cap outside 1..MAX_MASK_ORDER with error, naming the cap as the caller's input does."""
    if not 1 <= cap <= MAX_MASK_ORDER:
        raise error(f"{name} {cap} is below 1" if cap < 1 else
                    f"{name} {cap} is above {MAX_MASK_ORDER}, the widest cell mask the enumeration holds")


def translate_class_keys(g: Group, masks: np.ndarray) -> np.ndarray:
    """The class key of each nonempty mask S of a column: its least right translate S*y that holds 1.

    z*S*y lies inside X*S*y iff z*S lies inside X*S, so S and each S*y that
    holds 1 have the same cells and deficiencies, and X*(S*y) = (X*S)*y.
    One gather of the group's right table gives every S*y, shape (k, n).
    """
    translates = _gather(translate_tables(g)[0], masks)  # [i, y] = S_i * y
    return np.where((translates & 1) == 1, translates, np.iinfo(translates.dtype).max).min(axis=1)


def _sorted_cell_columns(order: int, cells: np.ndarray, products: np.ndarray,
                         *segment: np.ndarray) -> tuple[np.ndarray, ...]:
    """Distinct cells X and their products X*S as read-only columns (cells, products, deficiency, *segment).

    Sorted by (segment, deficiency, |X|, cell bits), the deficiency
    |X*S| - |X| in the smallest unsigned dtype that holds order - 1, uint8
    to order 256. segment, if given, names the S of each row.
    """
    size = bit_counts(cells)
    # |X*S| >= |X|, so the difference of two uint8 counts cannot wrap
    deficiency = (bit_counts(products) - size).astype(np.min_scalar_type(order - 1), copy=False)
    i = np.lexsort((cells, size, deficiency, *segment))
    result = tuple(column[i] for column in (cells, products, deficiency, *segment))
    for column in result:
        column.flags.writeable = False
    return result


@functools.cache
def _index_sizes(count: int) -> np.ndarray:
    """|B| for each index B below count, as read-only uint8: the sizes of the subsets that _subset_unions indexes."""
    sizes = np.bitwise_count(np.arange(count, dtype=np.uint32))
    sizes.flags.writeable = False
    return sizes


def _rooted_cells(full: np.unsignedinteger, table: np.ndarray,
                  bound: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The cells that hold 1 of each S of a sub-batch, ascending per S and laid end to end, and the S of each.

    table[e, i] is the e-th free row j*S_i^-1, j outside S_i, so the unions
    of its rows are the products B*S_i^-1 over the masks B of G \\ S_i, and
    the cells are the complements of the distinct ones. Up to
    2^_SWEEP_BITS candidates the S of a sub-batch share one row-wise sort;
    above that the sub-batch is one S, swept a piece at a time. Given
    bound, the deficiency bound u of each S, a B with |B*S^-1| > |B| + u
    is dropped: its product becomes 0, the product of the empty B, which
    every S keeps (the cell G), so the distinct values are those of the
    kept B; cell_sweep states why the drop is exact. |B| counts the low
    rows by the index of B and the high rows by that of the piece.
    """
    low = np.ascontiguousarray(_subset_unions(table[:_SWEEP_BITS]).T)  # [i, B] = B * S_i^-1 over the low free rows
    if bound is not None:
        limit = bound[:, None] + _index_sizes(low.shape[1])  # [i, B] = u_i + |B|
    if len(table) <= _SWEEP_BITS:
        if bound is not None:
            low *= np.bitwise_count(low) <= limit
        products, owner = _distinct(low)
    else:  # a piece of products per union h of the high free rows, then merged
        pieces = []
        for i, h in enumerate(_subset_unions(table[_SWEEP_BITS:])):
            piece = low | h
            if bound is not None:
                piece *= np.bitwise_count(piece) <= limit + i.bit_count()
            pieces.append(_distinct(piece)[0])
        products, owner = _distinct(np.concatenate(pieces)[None])
    return full & ~products, owner


def _swept_cells(g: Group, masks: np.ndarray,
                 u_max: np.ndarray | None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """cell_sweep's columns (cells, products, segment), unsorted, _GATHER_CHUNK rooted cells at a time."""
    n = g.order
    # every deficiency is below n, so a bound clamped to n keeps the same cells and fits a uint8
    bound = None if u_max is None else np.minimum(u_max, n).astype(np.uint8)
    right, left = translate_tables(g)
    dtype = right.dtype.type
    singles = left[1]  # left[1, z] = z * {1} = {z}
    size = np.bitwise_count(masks).astype(np.intp)
    outside = (masks[:, None] & singles) == 0  # [i, j]: j not in S_i
    # S_i^-1 is the OR of the singletons {j^-1} over j in S_i, and [i, j] = j * S_i^-1
    translates = _gather(left, np.bitwise_or.reduce(np.where(outside, 0, np.take(singles, g.inv)), axis=1))
    # [v, i] = B_v * S_i: the column_union of the right table over each S_i
    times_s = np.bitwise_or.reduceat(right[:, np.nonzero(~outside)[1]], size.cumsum() - size, axis=1)
    below = singles - dtype(1)  # below[z] holds the elements below z
    index = np.arange(len(masks), dtype=np.min_scalar_type(len(masks) - 1))  # segment ids, one byte to 256 S
    for k in sorted(set(size.tolist())):
        rows = np.flatnonzero(size == k)
        step = 1 << max(0, _SWEEP_BITS - (n - k))
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            free = translates[part][outside[part]].reshape(len(part), n - k).T  # [e, i]: the e-th free row of S_i
            rooted, owner = _rooted_cells(dtype(g.full_bits), free, None if bound is None else bound[part])
            for i in range(0, len(rooted), _GATHER_CHUNK):
                t = _gather(left, rooted[i:i + _GATHER_CHUNK])  # [r, z] = z * (rooted cell r)
                keep = np.flatnonzero((t & below) == 0)
                cells, segment = t.ravel()[keep], index[part[owner[i:i + _GATHER_CHUNK][keep // n]]]
                yield cells, _gather(times_s, cells, segment), segment


def cell_sweep(g: Group, masks: np.ndarray,
               u_max: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of each S of a column of masks holding 1, as read-only columns (cells, products, deficiency, segment).

    u_max, None or a column of one nonnegative bound per S, keeps the
    cells of deficiency at most the bound of their S; None keeps every
    cell. The cells of all S are laid end to end, segment the index of
    each row's S in masks, sorted by _sorted_cell_columns: the rows of one
    S are its cells sorted by (deficiency, |X|, bits). The caller checks
    the cap. Each cell X is the closure {z : z*S subset of A} of A = X*S,
    which is G \\ (B * S^-1) for B = G \\ A; X contains the identity iff
    B misses S. So the rooted sweep (_rooted_cells) takes the products
    B * S^-1 over the 2^(order-|S|) masks B of G \\ S and complements only
    the distinct ones: these are the cells that contain the identity.
    The bound is applied there, exactly: for P = B * S^-1 the cell
    X = G \\ P has X*S inside G \\ B, so its deficiency is at most
    |G \\ B| - |G \\ P| = |P| - |B|, with equality for B = G \\ X*S, which
    misses S when X holds 1. So the B with |P| <= |B| + u give exactly the
    identity cells of deficiency at most u. A cell Y is the left translate
    y*(y^-1 Y) of such a cell by its least element y, with the same
    deficiency, so gathers from the group's left table, _GATHER_CHUNK
    rooted cells at a time, give every translate z*X, and the cells are
    the translates whose least element is z; their products are a column
    gather of the stacked tables of X -> X*S. Past the rooted sweep every
    step touches only the kept cells. The S of one size share the sweep in
    sub-batches of at most 2^_SWEEP_BITS candidates, so memory stays
    proportional to that and to the kept cells, not to 2^order.
    """
    cells, products, segment = (np.concatenate(column) for column in zip(*_swept_cells(g, masks, u_max)))
    return _sorted_cell_columns(g.order, cells, products, segment)


def _full_cell_enumeration(g: Group, s_bits: int, cap: int,
                           u_max: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of S up to deficiency u_max (all for None) as read-only columns (cells, products, deficiency).

    The cell_sweep of S alone to the bound u_max, exact as cell_sweep
    states. Sorted by (deficiency, |X|, bits), the masks in g's mask dtype
    and the deficiency |X*S| - |X| in uint8, so a reader slices a shorter
    prefix with np.searchsorted on the last column. The cap is
    checked before the memo, which keeps the last _MEMO_LIMIT
    right-translate classes (translate_class_keys) on g._enum_memo: for
    each, the member rep enumerated, the bound it was enumerated to
    (order - 1, the largest deficiency, for every cell) and its columns.
    An entry answers any bound up to its own, sliced to the prefix; a
    larger one enumerates again and replaces it. Another member S = rep*y
    gets the same cells and deficiency arrays, and its products from one
    gather of the right table's column y, X*S = (X*rep)*y.
    """
    require_enumerable(g.order, cap)
    every = g.order - 1  # no cell has a larger deficiency
    u = every if u_max is None else min(u_max, every)
    right = translate_tables(g)[0]
    dtype = right.dtype.type
    translates = _gather(right, np.array([s_bits], dtype=dtype))[0].tolist()  # S*x for each x
    key = min(t for t in translates if t & 1)  # translate_class_keys of S
    cached = g._enum_memo.get(key)
    if cached is None or cached[1] < u:
        if cached is None and len(g._enum_memo) >= _MEMO_LIMIT:
            g._enum_memo.pop(next(iter(g._enum_memo)))
        columns = cell_sweep(g, np.array([s_bits], dtype=dtype), None if u == every else np.array([u]))[:3]
        cached = g._enum_memo[key] = (s_bits, u, *columns)
    rep, bound, *columns = cached
    if u < bound:
        end = _prefix_end(columns[2], u)
        columns = [column[:end] for column in columns]
    cells, products, deficiency = columns
    if rep != s_bits:
        # rep = S*x for some x, so S = rep*y with y = x^-1
        y = g.inv[translates.index(rep)]
        products = _gather(right[:, y], products)
        products.flags.writeable = False
    return cells, products, deficiency


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
    refuses groups of order above cap; it is the memoized enumeration to
    u_max. Sampled mode closes count random seeds drawn with the given seed
    and keeps the distinct cells found, a reproducible subset of the truth,
    sliced to u_max.
    """
    _require_identity(s)
    if u_max < 0:
        raise ValueError(f"u_max must be nonnegative, got {u_max}")
    g = s.group
    if mode == "exhaustive":
        return _full_cell_enumeration(g, s.bits, cap, u_max)
    if mode != "sampled":
        raise ValueError(f"unknown enumeration mode {mode!r}; expected 'exhaustive' or 'sampled'")
    if count is None or seed is None:
        raise ValueError("sampled mode requires both count and seed")
    columns = _sampled_cells(g, s.bits, count, seed)
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
    the first identity-containing u*-kernel of kernel_cells. Only the cells
    of deficiency at most |s| - 2 are enumerated, a bound that cell_sweep
    applies exactly.
    """
    _require_identity(s)
    g = s.group
    size = len(s)
    if size <= 1:
        return BalandraudResult(subgroup=g.identity_set(), u_star=None, case="trivial")
    cells, _, deficiency = _full_cell_enumeration(g, s.bits, cap, size - 2)
    u_star = int(deficiency[-1])  # G itself is a 0-cell, so the prefix is never empty
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
