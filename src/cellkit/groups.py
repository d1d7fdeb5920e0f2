"""Finite groups as Cayley tables, with subsets packed as integer bitmasks."""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_ORDER_CAP = 64
WIDE_ORDER_CAP = 1024

_PRODUCT_RE = re.compile(r"[Zz]\d+(?:[xX][Zz]\d+)*")
_DIHEDRAL_RE = re.compile(r"[Dd](\d+)")
_SYMMETRIC_RE = re.compile(r"[Ss](\d+)")
# products compared per block of the associativity check (fastest near 2^17 from order 20 to 200)
_ASSOCIATIVITY_BLOCK = 1 << 17


class GroupSpecError(ValueError):
    """Malformed or unsupported group specification."""


class GroupAxiomError(ValueError):
    """A multiplication table violates one of the group axioms."""

    def __init__(self, axiom: str, detail: str) -> None:
        super().__init__(f"{axiom}: {detail}")
        self.axiom = axiom
        self.detail = detail


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# _BYTE_SPECS[b][v]: the elements 8b+i for the bits i of byte value v, comma-joined
_BYTE_SPECS: list[tuple[str, ...]] = []
_BYTE_SPECS_LOCK = threading.Lock()


def _byte_specs(positions: int) -> None:
    """Extend _BYTE_SPECS to the given number of byte positions."""
    with _BYTE_SPECS_LOCK:
        for b in range(len(_BYTE_SPECS), positions):
            _BYTE_SPECS.append(tuple(",".join(str(8 * b + i) for i in iter_bits(v)) for v in range(256)))


def mask_spec(bits: int) -> str:
    """The set that bits names as "{i,j,...}", ascending; parseable back.

    Joins one cached string per nonzero byte of the mask (_byte_specs).
    """
    if bits < 256 and _BYTE_SPECS:  # one byte: one cached string
        return f"{{{_BYTE_SPECS[0][bits]}}}"
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    if len(data) > len(_BYTE_SPECS):
        _byte_specs(len(data))
    return f"{{{','.join([table[v] for table, v in zip(_BYTE_SPECS, data) if v])}}}"


def product_bits(g: Group, a_bits: int, b_bits: int) -> int:
    """Bits of the product set {a*b : a in A, b in B}; 0 if either is empty."""
    bs = tuple(iter_bits(b_bits))
    mul = g.mul
    bits = 0
    for a in iter_bits(a_bits):
        row = mul[a]
        for b in bs:
            bits |= 1 << row[b]
    return bits


def inverse_bits(g: Group, bits: int) -> int:
    """Bits of the set of inverses {x^-1 : x in the set that bits names}."""
    return sum(1 << g.inv[x] for x in iter_bits(bits))


def _first_duplicate(values: Iterable[int]) -> int:
    seen: set[int] = set()
    for v in values:
        if v in seen:
            return v
        seen.add(v)
    raise ValueError("no duplicate present")


class Group:
    """Finite group on element indices 0..order-1, with index 0 the identity.

    Instances are immutable after construction and compare by identity, so
    subsets built from one Group cannot silently mix with a structurally
    equal copy.
    """

    def __init__(self, label: str, mul: Sequence[Sequence[int]], *,
                 validate: bool = True, abelian: bool | None = None) -> None:
        self.label = str(label)
        self.mul = tuple(tuple(map(int, row)) for row in mul)
        self.order = len(self.mul)
        self.identity = 0
        self._mul_np: np.ndarray | None = None
        self._translate_np: tuple[np.ndarray, np.ndarray] | None = None
        if validate:
            self._validate()
        self.inv = self._invert()
        self._abelian = abelian
        # cells.py's enumeration columns (cells, products, deficiency) per S mask
        self._enum_memo: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._subgroup_bits: frozenset[int] | None = None

    def _validate(self) -> None:
        """Check the group axioms, one numpy pass each; a failure names the first offending row or column."""
        n = self.order
        if n == 0:
            raise GroupAxiomError("order", "multiplication table is empty")
        # a short or long row is reported after any range error in the rows above it
        ragged = next((i for i, row in enumerate(self.mul) if len(row) != n), n)
        rows = np.array(self.mul[:ragged]).reshape(ragged, n)  # object dtype if an entry passes int64
        if ragged and (rows.min() < 0 or rows.max() >= n):
            i, j = (int(v) for v in np.argwhere((rows < 0) | (rows >= n))[0])
            raise GroupAxiomError("range", f"entry {self.mul[i][j]} in row {i} is outside 0..{n - 1}")
        if ragged < n:
            raise GroupAxiomError("shape", f"row {ragged} has {len(self.mul[ragged])} entries, expected {n}")
        t = self._mul_np = rows.astype(np.int32)
        idx = np.arange(n)
        if (t[0] != idx).any() or (t[:, 0] != idx).any():
            x = int(np.argmax((t[0] != idx) | (t[:, 0] != idx)))
            if t[0, x] != x:
                raise GroupAxiomError("identity", f"0*{x} = {t[0, x]}, expected {x}")
            raise GroupAxiomError("identity", f"{x}*0 = {t[x, 0]}, expected {x}")
        # with every entry in range, a row or column is a permutation iff it sorts to 0..n-1
        bad = np.sort(t, axis=1) != idx
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            raise GroupAxiomError("latin-square", f"row {i} repeats entry {_first_duplicate(self.mul[i])}")
        bad = np.sort(t, axis=0) != idx[:, None]
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            raise GroupAxiomError("latin-square", f"column {j} repeats entry {_first_duplicate(t[:, j].tolist())}")
        # (a*b)*c against a*(b*c) for a block of a at a time: one n^3 compare was slower at order 64
        step = max(1, _ASSOCIATIVITY_BLOCK // (n * n))
        for a0 in range(0, n, step):
            block = t[a0:a0 + step]  # [a, b] = a*b
            left = np.take(t, block, axis=0)  # [a, b, c] = (a*b)*c
            right = np.take(block, t, axis=1)  # [a, b, c] = a*(b*c)
            bad = left != right
            if bad.any():
                a, b, c = (int(v) for v in np.argwhere(bad)[0])
                raise GroupAxiomError(
                    "associativity",
                    f"({a0 + a}*{b})*{c} = {int(left[a, b, c])} but {a0 + a}*({b}*{c}) = {int(right[a, b, c])}",
                )

    def _invert(self) -> tuple[int, ...]:
        inv = []
        for a in range(self.order):
            try:
                b = self.mul[a].index(0)
            except ValueError:
                raise GroupAxiomError("inverse", f"element {a} has no right inverse") from None
            if self.mul[b][a] != 0:
                raise GroupAxiomError("inverse", f"{b} inverts {a} on the right but not the left")
            inv.append(b)
        return tuple(inv)

    def mul_array(self) -> np.ndarray:
        """The multiplication table as a cached int32 array."""
        if self._mul_np is None:
            self._mul_np = np.asarray(self.mul, dtype=np.int32)
        return self._mul_np

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.mul_array()
            self._abelian = bool(np.array_equal(t, t.T))
        return self._abelian

    @property
    def full_bits(self) -> int:
        return (1 << self.order) - 1

    def subset(self, indices: Iterable[int] = ()) -> ElementSet:
        """Build an ElementSet of this group from element indices."""
        bits = 0
        for i in indices:
            i = int(i)
            if not 0 <= i < self.order:
                raise ValueError(f"element index {i} is outside 0..{self.order - 1}")
            bits |= 1 << i
        return ElementSet(self, bits)

    def identity_set(self) -> ElementSet:
        return ElementSet(self, 1)

    def empty_set(self) -> ElementSet:
        return ElementSet(self, 0)

    def full_set(self) -> ElementSet:
        return ElementSet(self, self.full_bits)

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"


@dataclass(frozen=True, slots=True)
class ElementSet:
    """Immutable subset of one group's elements, stored as a bitmask."""

    group: Group
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.group.order:
            raise ValueError(f"bitmask {self.bits:#x} does not fit group order {self.group.order}")

    def _same(self, other: ElementSet) -> None:
        if other.group is not self.group:
            raise ValueError(f"sets belong to different groups ({self.group.label} vs {other.group.label})")

    def __or__(self, other: ElementSet) -> ElementSet:
        self._same(other)
        return ElementSet(self.group, self.bits | other.bits)

    def __and__(self, other: ElementSet) -> ElementSet:
        self._same(other)
        return ElementSet(self.group, self.bits & other.bits)

    def __sub__(self, other: ElementSet) -> ElementSet:
        self._same(other)
        return ElementSet(self.group, self.bits & ~other.bits)

    def complement(self) -> ElementSet:
        return ElementSet(self.group, self.group.full_bits & ~self.bits)

    def __contains__(self, index: int) -> bool:
        return bool((self.bits >> int(index)) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __le__(self, other: ElementSet) -> bool:
        self._same(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: ElementSet) -> bool:
        return self <= other and self.bits != other.bits

    def __ge__(self, other: ElementSet) -> bool:
        return other <= self

    def __gt__(self, other: ElementSet) -> bool:
        return other < self

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def spec_string(self) -> str:
        """Render as "{i,j,...}" with ascending indices; parseable back (mask_spec)."""
        return mask_spec(self.bits)

    @property
    def contains_identity(self) -> bool:
        return bool(self.bits & 1)

    def left_translate(self, g_index: int) -> ElementSet:
        """The set {g*x : x in this set}."""
        return ElementSet(self.group, product_bits(self.group, 1 << int(g_index), self.bits))

    def right_translate(self, g_index: int) -> ElementSet:
        """The set {x*g : x in this set}."""
        return ElementSet(self.group, product_bits(self.group, self.bits, 1 << int(g_index)))

    def __repr__(self) -> str:
        return f"ElementSet({self.spec_string()} in {self.group.label})"


def require_same_group(*sets: ElementSet) -> Group:
    """Return the common owner group, or raise if the sets mix groups."""
    g = sets[0].group
    for s in sets[1:]:
        if s.group is not g:
            raise ValueError(f"sets belong to different groups ({g.label} vs {s.group.label})")
    return g


# -- table constructions --------------------------------------------------

def _product_table(factors: Sequence[int]) -> list[list[int]]:
    dims = np.asarray(factors, dtype=np.int64)
    n = int(dims.prod())
    strides = np.ones(len(factors), dtype=np.int64)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    idx = np.arange(n, dtype=np.int64)
    digits = (idx[:, None] // strides[None, :]) % dims[None, :]
    summed = (digits[:, None, :] + digits[None, :, :]) % dims[None, None, :]
    return (summed @ strides).tolist()


def _dihedral_table(m: int) -> list[list[int]]:
    # element f*m + r stands for s^f r^r with the relation r s = s r^-1
    n = 2 * m
    table = [[0] * n for _ in range(n)]
    for f1 in range(2):
        for r1 in range(m):
            for f2 in range(2):
                for r2 in range(m):
                    f = f1 ^ f2
                    r = (r2 + (m - r1 if f2 else r1)) % m
                    table[f1 * m + r1][f2 * m + r2] = f * m + r
    return table


def _symmetric_table(n: int) -> list[list[int]]:
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[i]] for i in range(n))])
        table.append(row)
    return table


def _quaternion_table() -> list[list[int]]:
    # indices: 1, -1, i, -i, j, -j, k, -k
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 1): (-1, 3),
        (2, 3): (1, 1), (3, 2): (-1, 1),
        (3, 1): (1, 2), (1, 3): (-1, 2),
    }
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sign = (-1 if a & 1 else 1) * (-1 if b & 1 else 1)
            s, axis = axis_mul[(a >> 1, b >> 1)]
            sign *= s
            table[a][b] = axis * 2 + (0 if sign > 0 else 1)
    return table


def _read_cayley_file(path: str) -> list[list[int]]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise GroupSpecError(f"cannot read Cayley table file {path!r}: {exc}") from exc
    tokens = text.split()
    if not tokens:
        raise GroupSpecError(f"Cayley table file {path!r} is empty")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise GroupSpecError(f"Cayley table file {path!r} contains a non-integer token: {exc}") from exc
    n = values[0]
    if n < 1:
        raise GroupSpecError(f"Cayley table file {path!r} declares non-positive order {n}")
    if len(values) != 1 + n * n:
        raise GroupSpecError(
            f"Cayley table file {path!r} declares order {n} but holds {len(values) - 1} entries, expected {n * n}"
        )
    return [values[1 + i * n:1 + (i + 1) * n] for i in range(n)]


def build_group(spec: str, *, wide: bool = False, validate: bool = True) -> Group:
    """Construct a group from a spec string.

    Accepted forms: Z<n>, Z<a>xZ<b>[xZ<c>...], D<n> (order 2n), S<n> (n <= 5),
    Q8, and cayley:<path> for a whitespace-separated table file whose first
    token is the order. Orders are capped at 64, or 1024 with wide=True.
    """
    text = str(spec).strip()
    if text.lower().startswith("cayley:"):
        path = text[len("cayley:"):]
        table = _read_cayley_file(path)
        label = f"cayley:{path}"
        _check_order_cap(label, len(table), wide)
        return Group(label, table, validate=validate)

    token = text.replace(" ", "")
    abelian: bool | None
    if _PRODUCT_RE.fullmatch(token):
        factors = [int(part[1:]) for part in re.split(r"[xX]", token)]
        if any(f < 1 for f in factors):
            raise GroupSpecError(f"cyclic factors must be positive in {spec!r}")
        order = math.prod(factors)
        label = "x".join(f"Z{f}" for f in factors)
        builder = lambda: _product_table(factors)
        abelian = True
    elif _DIHEDRAL_RE.fullmatch(token):
        m = int(token[1:])
        if m < 1:
            raise GroupSpecError(f"dihedral parameter must be positive in {spec!r}")
        order, label, builder, abelian = 2 * m, f"D{m}", lambda: _dihedral_table(m), m <= 2
    elif _SYMMETRIC_RE.fullmatch(token):
        n = int(token[1:])
        if not 1 <= n <= 5:
            raise GroupSpecError(f"symmetric groups are built in for 1 <= n <= 5, got {spec!r}")
        order, label, builder, abelian = math.factorial(n), f"S{n}", lambda: _symmetric_table(n), n <= 2
    elif token.upper() == "Q8":
        order, label, builder, abelian = 8, "Q8", _quaternion_table, False
    else:
        raise GroupSpecError(
            f"unrecognized group spec {spec!r}; expected Z<n>, Z<a>xZ<b>..., D<n>, S<n>, Q8, or cayley:<path>"
        )
    _check_order_cap(label, order, wide)
    return Group(label, builder(), validate=validate, abelian=abelian)


def _check_order_cap(label: str, order: int, wide: bool) -> None:
    cap = WIDE_ORDER_CAP if wide else DEFAULT_ORDER_CAP
    if order > cap:
        hint = "" if wide else "; pass wide=True (--wide) for orders up to 1024"
        raise GroupSpecError(f"group {label} has order {order}, above the cap {cap}{hint}")


# -- subgroup machinery ---------------------------------------------------

def generated_subgroup(g: Group, gens: ElementSet) -> ElementSet:
    """The subgroup generated by gens (the trivial subgroup for an empty set).

    Closes {1} under right multiplication by gens: every inverse is a positive power.
    """
    if gens.group is not g:
        raise ValueError(f"generators belong to {gens.group.label}, not {g.label}")
    mul = g.mul
    zs = tuple(iter_bits(gens.bits))
    members = [0]
    bits = 1
    for x in members:  # grows while it is walked
        row = mul[x]
        for z in zs:
            p = row[z]
            if not (bits >> p) & 1:
                members.append(p)
                bits |= 1 << p
    return ElementSet(g, bits)


def all_subgroups(g: Group) -> list[ElementSet]:
    """Every subgroup of g, sorted by (cardinality, bitmask).

    Breadth-first over one-generator extensions: H extended by z closes the
    generators that first reached H, and z. Since <H, z> = <H, h*z> for h in
    H, one z per right coset H*z suffices. Exact but exponential in the
    worst case, intended for the capped orders this package targets.
    """
    found = {1: 0}  # subgroup bits -> generators
    frontier = [1]
    while frontier:
        nxt = []
        for hbits in frontier:
            covered = hbits
            for z in range(1, g.order):
                if (covered >> z) & 1:
                    continue
                covered |= product_bits(g, hbits, 1 << z)
                gens = found[hbits] | 1 << z
                extended = generated_subgroup(g, ElementSet(g, gens)).bits
                if extended not in found:
                    found[extended] = gens
                    nxt.append(extended)
        frontier = nxt
    g._subgroup_bits = frozenset(found)
    return [ElementSet(g, b) for b in sorted(found, key=lambda b: (b.bit_count(), b))]


def is_subgroup(s: ElementSet) -> bool:
    """True iff s is closed under the group operation and contains the identity."""
    if not s.bits & 1:
        return False
    g = s.group
    if g._subgroup_bits is not None:
        return s.bits in g._subgroup_bits
    idx = s.indices()
    for a in idx:
        row = g.mul[a]
        for b in idx:
            if not (s.bits >> row[b]) & 1:
                return False
    return True


# -- catalog --------------------------------------------------------------

_ABELIAN_CATALOG: dict[int, tuple[str, ...]] = {
    1: ("Z1",),
    2: ("Z2",),
    3: ("Z3",),
    4: ("Z4", "Z2xZ2"),
    5: ("Z5",),
    6: ("Z6",),
    7: ("Z7",),
    8: ("Z8", "Z2xZ4", "Z2xZ2xZ2"),
    9: ("Z9", "Z3xZ3"),
    10: ("Z10",),
    11: ("Z11",),
    12: ("Z12", "Z2xZ6"),
    13: ("Z13",),
    14: ("Z14",),
    15: ("Z15",),
    16: ("Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2"),
}

_NONABELIAN_CATALOG: dict[int, tuple[str, ...]] = {
    6: ("D3",),
    8: ("D4", "Q8"),
    10: ("D5",),
    12: ("D6",),
    14: ("D7",),
    16: ("D8",),
}

CATALOG_MAX_ORDER = 16


def builtin_specs(max_order: int, *, min_order: int = 1, abelian_only: bool = False) -> list[str]:
    """Specs covering one group per built-in isomorphism class with order in range.

    The abelian list is complete for every order up to 16. The nonabelian
    list is complete through order 11; from order 12 on, classes outside the
    dihedral family (such as A4) have no built-in constructor.
    """
    if max_order > CATALOG_MAX_ORDER:
        raise ValueError(f"the catalog covers orders up to {CATALOG_MAX_ORDER}, got {max_order}")
    specs = []
    for order in range(max(1, min_order), max_order + 1):
        specs.extend(_ABELIAN_CATALOG.get(order, ()))
        if not abelian_only:
            specs.extend(_NONABELIAN_CATALOG.get(order, ()))
    return specs
