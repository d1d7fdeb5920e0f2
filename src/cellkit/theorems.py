"""Executable verifiers for the sumset theorems, plus sweep orchestration.

Each check_* function evaluates one statement on one concrete instance and
returns a TheoremVerdict: HOLDS, VIOLATED (with a witness carrying both
sides), or NOT_APPLICABLE when a hypothesis fails. Statements proved only
for abelian groups can be run on nonabelian groups in exploration mode,
where a failed conclusion is reported as FINDING rather than VIOLATED.
run_sweep drives the checkers over whole families of instances.

The scalar checkers share one bitmask kernel: products reduce to
groups.product_bits (through setops.product) and cell tests to
cells.closure_bits (through cells.is_cell), while the counting paths use
the numpy forms cells.product_masks and cells.closure_masks.

Each sweep driver hands batches of instances to _check_batch, which owns
the sink-or-bulk decision. Without a sink, the Kneser, Olson,
cell-intersection and dichotomy batches take a numpy counting path:
instances it settles are tallied in bulk, and only the rest reach the
scalar checker, in instance order. With a sink, every instance goes
through the scalar checker and yields one record. _run_task notes
exploration mode and turns a refused task into its one error record.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .cells import (
    ENUMERATION_CAP,
    MAX_MASK_ORDER,
    CellRecord,
    EnumerationCapError,
    _kernel_chain,
    balandraud_details,
    closure_masks,
    enumerate_cells,
    is_cell,
    kernels_at,
    left_translate_masks,
    mask_dtype,
    product_masks,
)
from .groups import (
    ElementSet,
    Group,
    all_subgroups,
    build_group,
    is_subgroup,
    iter_bits,
    product_bits,
    require_same_group,
)
from .setops import difference_counts, left_stabilizer, product
from .specs import expand_subset_specs, iter_identity_subsets, random_nonempty_bits, sample_identity_subsets


class Theorem(str, Enum):
    KNESER = "KNESER"
    OLSON = "OLSON"
    CELL_INTERSECT = "CELL_INTERSECT"
    SUBGROUP_KERNEL_CHAIN = "SUBGROUP_KERNEL_CHAIN"
    COROLLARY_I = "COROLLARY_I"
    COROLLARY_II = "COROLLARY_II"
    COROLLARY_III = "COROLLARY_III"
    DICHOTOMY = "DICHOTOMY"


class Status(str, Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    FINDING = "FINDING"


@dataclass(frozen=True, slots=True)
class TheoremVerdict:
    """Outcome of one checker on one instance."""

    theorem: Theorem
    status: Status
    witness: dict | None = None


def _na(theorem: Theorem, failed_hypothesis: str, base: dict) -> TheoremVerdict:
    return TheoremVerdict(theorem, Status.NOT_APPLICABLE,
                          dict(base, failed_hypothesis=failed_hypothesis))


def _conclude(theorem: Theorem, ok: bool, witness: dict, explore: bool) -> TheoremVerdict:
    if ok:
        return TheoremVerdict(theorem, Status.HOLDS, witness)
    return TheoremVerdict(theorem, Status.FINDING if explore else Status.VIOLATED, witness)


def check_kneser(x: ElementSet, y: ElementSet, *, explore: bool = False) -> TheoremVerdict:
    """|XY| <= |X|+|Y|-2 forces |XY| = |HX|+|HY|-|H| for a nontrivial H = stab(XY).

    An abelian statement: on a nonabelian group the verdict is
    NOT_APPLICABLE, or FINDING on failure with explore=True.
    """
    g = require_same_group(x, y)
    if not x or not y:
        raise ValueError("the Kneser check needs nonempty x and y")
    base = {"group": g.label, "x": x.spec_string(), "y": y.spec_string()}
    if not g.is_abelian and not explore:
        return _na(Theorem.KNESER, "group is not abelian", base)
    xy = product(x, y)
    base["xy_size"] = len(xy)
    base["bound"] = len(x) + len(y) - 2
    if len(xy) > len(x) + len(y) - 2:
        return _na(Theorem.KNESER, "|XY| <= |X|+|Y|-2 does not hold", base)
    h = left_stabilizer(xy).stabilizer
    hx, hy = product(h, x), product(h, y)
    witness = dict(base, h=h.spec_string(), h_size=len(h), hx_size=len(hx),
                   hy_size=len(hy), rhs=len(hx) + len(hy) - len(h))
    ok = len(xy) == witness["rhs"] and len(h) > 1
    return _conclude(Theorem.KNESER, ok, witness, explore and not g.is_abelian)


def check_olson(x: ElementSet, y: ElementSet, h: ElementSet, k: ElementSet) -> TheoremVerdict:
    """HX=X, KY=Y, KX!=X, HY!=Y force |X\\Y| + |Y\\X| >= |H|+|K|-2|H n K|.

    Also checks the disjunction |X\\Y| >= |H|-|H n K| or |Y\\X| >= |K|-|H n K|.
    Valid in every group, so there is no abelian gate.
    """
    g = require_same_group(x, y, h, k)
    if not is_subgroup(h):
        raise ValueError(f"h = {h.spec_string()} is not a subgroup of {g.label}")
    if not is_subgroup(k):
        raise ValueError(f"k = {k.spec_string()} is not a subgroup of {g.label}")
    base = {"group": g.label, "x": x.spec_string(), "y": y.spec_string(),
            "h": h.spec_string(), "k": k.spec_string()}
    if product(h, x) != x:
        return _na(Theorem.OLSON, "HX = X does not hold", base)
    if product(k, y) != y:
        return _na(Theorem.OLSON, "KY = Y does not hold", base)
    if product(k, x) == x:
        return _na(Theorem.OLSON, "KX != X does not hold", base)
    if product(h, y) == y:
        return _na(Theorem.OLSON, "HY != Y does not hold", base)
    dxy, dyx = difference_counts(x, y)
    meet = len(h & k)
    witness = dict(base, x_minus_y=dxy, y_minus_x=dyx, h_size=len(h), k_size=len(k),
                   meet_size=meet, rhs=len(h) + len(k) - 2 * meet)
    ok = dxy + dyx >= witness["rhs"] and (dxy >= len(h) - meet or dyx >= len(k) - meet)
    return _conclude(Theorem.OLSON, ok, witness, explore=False)


def check_cell_intersection(s: ElementSet, m1: ElementSet, m2: ElementSet) -> TheoremVerdict:
    """A nonempty intersection of two cells of s is again a cell of s."""
    g = require_same_group(s, m1, m2)
    if not is_cell(m1, s):
        raise ValueError(f"m1 = {m1.spec_string()} is not a cell of s = {s.spec_string()}")
    if not is_cell(m2, s):
        raise ValueError(f"m2 = {m2.spec_string()} is not a cell of s = {s.spec_string()}")
    base = {"group": g.label, "s": s.spec_string(), "m1": m1.spec_string(), "m2": m2.spec_string()}
    inter = m1 & m2
    if not inter:
        return _na(Theorem.CELL_INTERSECT, "intersection is empty", base)
    witness = dict(base, intersection=inter.spec_string())
    return _conclude(Theorem.CELL_INTERSECT, is_cell(inter, s), witness, explore=False)


def check_theorem_subgroup_kernels(s: ElementSet, *, cap: int = ENUMERATION_CAP) -> TheoremVerdict:
    """Subgroup kernels nest: for a subgroup u-kernel M and subgroup v-cell N
    with u, v <= |S|-1, (i) M and N are comparable when N is a v-kernel or
    u = v, and (ii) M lies inside N when N is a v-kernel with v <= u.

    Valid in every group. The first violating pair, if any, is the witness.
    The witness also carries the subgroup kernel chain of cells.kernel_chain
    and its chain_ok; should (i) and (ii) hold while chain_ok is false, the
    verdict is VIOLATED with the chain's first offending pair.
    """
    _require_identity_in(s)
    g = s.group
    cells, report = _kernel_chain(s, cap)
    base = {"group": g.label, "s": s.spec_string(), "chain_ok": report.chain_ok,
            "chain": [c.spec_string() for c in report.subgroup_kernel_chain]}
    kernel_bits = {rec.u: {k.cell.bits for k in rec.kernels} for rec in report.per_u}
    subgroup_cells = [c for c in cells if c.is_subgroup]
    subgroup_kernels = [k for rec in report.per_u for k in rec.kernels if k.is_subgroup]
    for m in subgroup_kernels:
        u = m.deficiency
        for n in subgroup_cells:
            v = n.deficiency
            n_is_kernel = n.cell.bits in kernel_bits[v]
            comparable = m.cell <= n.cell or n.cell <= m.cell
            pair = dict(base, m=m.cell.spec_string(), u=u, n=n.cell.spec_string(), v=v,
                        n_is_kernel=n_is_kernel)
            if (n_is_kernel or u == v) and not comparable:
                return TheoremVerdict(Theorem.SUBGROUP_KERNEL_CHAIN, Status.VIOLATED,
                                      dict(pair, part="i", reason="incomparable pair"))
            if n_is_kernel and v <= u and not m.cell <= n.cell:
                return TheoremVerdict(Theorem.SUBGROUP_KERNEL_CHAIN, Status.VIOLATED,
                                      dict(pair, part="ii", reason="M not contained in N"))
    witness = dict(base, subgroup_kernels=[c.cell.spec_string() for c in subgroup_kernels])
    if not report.chain_ok:
        v = report.violations[0]
        return TheoremVerdict(Theorem.SUBGROUP_KERNEL_CHAIN, Status.VIOLATED, dict(
            witness, reason=v.reason, pair=[v.first.cell.spec_string(), v.second.cell.spec_string()]))
    return TheoremVerdict(Theorem.SUBGROUP_KERNEL_CHAIN, Status.HOLDS, witness)


def check_corollary_kernel_structure(s: ElementSet, *, explore: bool = False,
                                     cap: int = ENUMERATION_CAP) -> list[TheoremVerdict]:
    """The three-part kernel structure statement for abelian groups.

    For each deficiency u in 1..|S|-2 attained by a cell, the identity-
    containing u-kernel M must be unique and a subgroup (part I), every
    u-cell must be M-periodic (part II), and each identity-containing
    v-kernel with u < v <= |S|-2 must be a proper subgroup of M (part III).
    Returns one verdict per part, in order.
    """
    _require_identity_in(s)
    g = s.group
    size = len(s)
    base = {"group": g.label, "s": s.spec_string()}
    parts = (Theorem.COROLLARY_I, Theorem.COROLLARY_II, Theorem.COROLLARY_III)
    if not g.is_abelian and not explore:
        return [_na(p, "group is not abelian", base) for p in parts]
    if size < 3:
        return [_na(p, "deficiency range 1..|S|-2 is empty", base) for p in parts]
    soft = explore and not g.is_abelian
    cells = enumerate_cells(s, u_max=size - 2, cap=cap)
    by_u: dict[int, list[CellRecord]] = {}
    for c in cells:
        by_u.setdefault(c.deficiency, []).append(c)
    inhabited = [u for u in range(1, size - 1) if by_u.get(u)]
    if not inhabited:
        return [_na(p, "no cell has deficiency in 1..|S|-2", dict(base, inhabited=False))
                for p in parts]
    base["inhabited_u"] = inhabited
    id_kernels: dict[int, list[CellRecord]] = {}
    for u in inhabited:
        rec = kernels_at(s, u, cells)
        id_kernels[u] = [c for c in rec.kernels if c.contains_identity]
    fail: dict[Theorem, dict] = {}
    for u in inhabited:
        named = id_kernels[u]
        m = named[0] if named else None
        if Theorem.COROLLARY_I not in fail:
            if len(named) != 1:
                fail[Theorem.COROLLARY_I] = dict(
                    base, u=u,
                    reason=f"expected one identity-containing u-kernel, found {len(named)}",
                    kernels=[c.cell.spec_string() for c in named])
            elif not m.is_subgroup:
                fail[Theorem.COROLLARY_I] = dict(
                    base, u=u, reason="identity-containing u-kernel is not a subgroup",
                    m=m.cell.spec_string())
        if m is None:
            continue
        if Theorem.COROLLARY_II not in fail:
            for c in by_u[u]:
                if product(m.cell, c.cell) != c.cell:
                    fail[Theorem.COROLLARY_II] = dict(
                        base, u=u, m=m.cell.spec_string(), cell=c.cell.spec_string(),
                        reason="u-cell is not M-periodic")
                    break
        if Theorem.COROLLARY_III not in fail:
            for v in inhabited:
                if v <= u:
                    continue
                for n in id_kernels[v]:
                    proper = n.is_subgroup and n.cell < m.cell
                    if not proper:
                        fail[Theorem.COROLLARY_III] = dict(
                            base, u=u, v=v, m=m.cell.spec_string(), n=n.cell.spec_string(),
                            reason="v-kernel is not a proper subgroup of M")
                        break
                if Theorem.COROLLARY_III in fail:
                    break
    out = []
    for p in parts:
        if p in fail:
            out.append(_conclude(p, False, fail[p], soft))
        else:
            out.append(TheoremVerdict(p, Status.HOLDS, dict(base)))
    return out


def check_dichotomy(s: ElementSet, h: ElementSet, t: ElementSet, *,
                    explore: bool = False) -> TheoremVerdict:
    """Either |TS| >= |T|+|S|-1, or TS is H-periodic with |TS| <= |HS|+|HT|-|H|.

    The caller supplies h, normally balandraud_subgroup(s): the strength of
    the statement is that one H serves every T. An abelian statement; on a
    nonabelian group the verdict is NOT_APPLICABLE, or FINDING on failure
    with explore=True.
    """
    g = require_same_group(s, h, t)
    _require_identity_in(s)
    if not t:
        raise ValueError("the dichotomy check needs a nonempty t")
    base = {"group": g.label, "s": s.spec_string(), "h": h.spec_string(), "t": t.spec_string()}
    if not g.is_abelian and not explore:
        return _na(Theorem.DICHOTOMY, "group is not abelian", base)
    ts = product(t, s)
    base["ts_size"] = len(ts)
    base["additive_bound"] = len(t) + len(s) - 1
    if len(ts) >= len(t) + len(s) - 1:
        return TheoremVerdict(Theorem.DICHOTOMY, Status.HOLDS, dict(base, branch="additive"))
    hs, ht = product(h, s), product(h, t)
    periodic = product(h, ts) == ts
    witness = dict(base, branch="periodic", periodic=periodic, hs_size=len(hs),
                   ht_size=len(ht), h_size=len(h), coset_bound=len(hs) + len(ht) - len(h))
    ok = periodic and len(ts) <= witness["coset_bound"]
    return _conclude(Theorem.DICHOTOMY, ok, witness, explore and not g.is_abelian)


def _require_identity_in(s: ElementSet) -> None:
    if not s.bits & 1:
        raise ValueError(f"s = {s.spec_string()} does not contain the identity")


# -- sweep orchestration --------------------------------------------------

DRIVER_NAMES = ("kneser", "olson", "intersection", "chain", "corollary", "dichotomy")

# a SweepResult keeps at most this many violation records, and as many findings
RECORD_CAP = 200


class SweepConfigError(ValueError):
    """A sweep configuration that cannot be run as stated."""


@dataclass
class SweepConfig:
    """What to verify: groups, theorems, instance spaces, and bounds."""

    groups: tuple[str, ...]
    theorems: tuple[str, ...]
    mode: str = "exhaustive"
    samples: int = 100_000
    s_samples: int = 5
    seed: int | None = None
    s_min: int = 1
    s_max: int | None = None
    set_spec: str | None = None
    wide: bool = False
    jobs: int = 1
    enumeration_cap: int = ENUMERATION_CAP
    max_instances: int = 1 << 22

    def validate(self) -> None:
        if not self.groups:
            raise SweepConfigError("no groups selected")
        if not self.theorems:
            raise SweepConfigError("no theorems selected")
        for name in self.theorems:
            if name not in DRIVER_NAMES:
                raise SweepConfigError(
                    f"unknown theorem {name!r}; expected one of {', '.join(DRIVER_NAMES)}")
        if self.mode not in ("exhaustive", "sampled"):
            raise SweepConfigError(f"unknown mode {self.mode!r}; expected exhaustive or sampled")
        if self.mode == "sampled":
            if self.seed is None:
                raise SweepConfigError("sampled mode requires a seed")
            if self.samples < 1 or self.s_samples < 1:
                raise SweepConfigError("sampled mode requires positive samples and s_samples")
        if self.jobs < 1:
            raise SweepConfigError(f"jobs must be at least 1, got {self.jobs}")
        if self.s_min < 1:
            raise SweepConfigError(f"s_min must be at least 1, got {self.s_min}")
        if self.s_max is not None and self.s_max < self.s_min:
            raise SweepConfigError(f"s_max {self.s_max} is below s_min {self.s_min}")
        if self.max_instances < 1:
            raise SweepConfigError(f"max_instances must be at least 1, got {self.max_instances}")
        if self.enumeration_cap > MAX_MASK_ORDER:
            raise SweepConfigError(
                f"enumeration cap {self.enumeration_cap} is above {MAX_MASK_ORDER}, "
                f"the widest cell mask the enumeration holds")


@dataclass
class SweepResult:
    """Aggregated outcome of a sweep."""

    summary: dict
    violations: list[dict]
    findings: list[dict]
    errors: list[dict]

    @property
    def violated(self) -> int:
        return self.summary["totals"].get(Status.VIOLATED.value, 0)


class _SweepState:
    def __init__(self, sink: Callable[[dict], None] | None) -> None:
        self.sink = sink
        self.counts: dict[tuple[str, str, str], int] = {}
        self.violations: list[dict] = []
        self.findings: list[dict] = []
        self.errors: list[dict] = []
        self.exploration: set[tuple[str, str]] = set()

    def tally(self, theorem: str, group: str, status: str, k: int = 1) -> None:
        if k:
            key = (theorem, group, status)
            self.counts[key] = self.counts.get(key, 0) + k

    def add(self, group: str, verdict: TheoremVerdict) -> None:
        self.tally(verdict.theorem.value, group, verdict.status.value)
        record = {"kind": "verdict", "theorem": verdict.theorem.value, "group": group,
                  "status": verdict.status.value, "witness": verdict.witness}
        if verdict.status is Status.VIOLATED and len(self.violations) < RECORD_CAP:
            self.violations.append(record)
        elif verdict.status is Status.FINDING and len(self.findings) < RECORD_CAP:
            self.findings.append(record)
        if self.sink is not None:
            self.sink(record)

    def merge(self, part: _SweepState) -> None:
        """Fold in the state of the next task, as if its records followed."""
        for (theorem, group, status), k in part.counts.items():
            self.tally(theorem, group, status, k)
        self.violations.extend(part.violations[:RECORD_CAP - len(self.violations)])
        self.findings.extend(part.findings[:RECORD_CAP - len(self.findings)])
        self.errors.extend(part.errors)
        self.exploration |= part.exploration

    def error(self, theorem: Theorem, group: str, message: str) -> None:
        record = {"kind": "error", "theorem": theorem.value, "group": group, "message": message}
        self.errors.append(record)
        if self.sink is not None:
            self.sink(record)

    def note_exploration(self, theorem: Theorem, group: str) -> None:
        self.exploration.add((theorem.value, group))


def _derive_seed(*parts: object) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class _Refused(Exception):
    """A task refused as a whole; _run_task records it as the task's one error."""


def _s_space(g: Group, cfg: SweepConfig, seed: int) -> list[ElementSet]:
    if cfg.set_spec is not None:
        sets = expand_subset_specs(cfg.set_spec, g)
        bad = [s for s in sets if not s.bits & 1]
        if bad:
            raise SweepConfigError(
                f"--set produced {bad[0].spec_string()}, which lacks the identity")
        return sets
    hi = g.order if cfg.s_max is None else min(cfg.s_max, g.order)
    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|s-space")
        return sample_identity_subsets(g, cfg.s_min, hi, cfg.s_samples, rng)
    return list(iter_identity_subsets(g, cfg.s_min, hi))


def _right_coset_masks(g: Group, h_bits: int) -> list[int]:
    """Masks of the right cosets Hx, ascending."""
    masks = []
    seen = 0
    for x in range(g.order):
        if (seen >> x) & 1:
            continue
        m = product_bits(g, h_bits, 1 << x)
        masks.append(m)
        seen |= m
    return sorted(masks)


def _coset_table(g: Group, subgroup_bits: Sequence[int], dtype: type) -> np.ndarray:
    """One row of right coset masks per subgroup, ascending, zero-padded at the end."""
    rows = [_right_coset_masks(g, h) for h in subgroup_bits]
    table = np.zeros((len(rows), max(len(r) for r in rows)), dtype=dtype)
    for i, r in enumerate(rows):
        table[i, :len(r)] = r
    return table


def _periodic(table: np.ndarray, idx: int | np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise HA = A, where H is the subgroup of row idx of a coset table.

    A is H-periodic iff each right coset mask c of H meets A in 0 or in c;
    the zero padding passes trivially. idx is one row or one row per element.
    """
    ok = np.ones(a.shape, dtype=bool)
    for col in table.T:
        c = col[idx]
        q = a & c
        ok &= (q == 0) | (q == c)
    return ok


# the sweeps hand instances to _check_batch in chunks of about this many
_CHUNK = 1 << 16


def _check_batch(state: _SweepState, label: str, tag: Theorem, columns: Sequence[np.ndarray],
                 check: Callable[..., TheoremVerdict],
                 settle: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None) -> None:
    """Check a batch of instances, given as parallel columns, in instance order.

    Without a sink, settle(*columns) returns the masks (not_applicable,
    holds) of the instances it decides; those are tallied in bulk and only
    the rest reach check(*instance). With a sink, every instance reaches
    check and yields one record.
    """
    if state.sink is None and settle is not None:
        not_applicable, holds = settle(*columns)
        state.tally(tag.value, label, Status.NOT_APPLICABLE.value, int(not_applicable.sum()))
        state.tally(tag.value, label, Status.HOLDS.value, int(holds.sum()))
        rest = ~(not_applicable | holds)
        columns = [c[rest] for c in columns]
    for instance in zip(*(c.tolist() for c in columns)):
        state.add(label, check(*instance))


# -- kneser sweep ---------------------------------------------------------

def _sweep_kneser(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    explore = not g.is_abelian
    n = g.order
    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|pairs")
        for start in range(0, cfg.samples, _CHUNK):
            # x and y draws alternate; object columns, as a --wide group's
            # masks outgrow every numpy integer
            k = min(_CHUNK, cfg.samples - start)
            draws = np.array([random_nonempty_bits(n, rng) for _ in range(2 * k)], dtype=object)
            _check_batch(state, g.label, Theorem.KNESER, draws.reshape(k, 2).T,
                         lambda x, y: check_kneser(ElementSet(g, x), ElementSet(g, y), explore=explore))
        return
    total = ((1 << n) - 1) ** 2
    if total > cfg.max_instances:
        raise _Refused(f"exhaustive pair space {total} exceeds max_instances {cfg.max_instances}")
    xs = np.arange(1, 1 << n, dtype=np.uint32)
    # tables[z][i] = bits of X*z for X = xs[i]
    tables = [product_masks(left_translate_masks(g, 1 << z), xs) for z in range(n)]
    pc = np.bitwise_count(xs).astype(np.int16)
    full = np.uint32((1 << n) - 1)
    for y_bits in range(1, 1 << n):
        y = ElementSet(g, y_bits)

        def settle(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # x is xs, whose products the tables hold. Saturated products
            # XY = G hold: their stabilizer is G, so the equality is automatic
            xy = np.bitwise_or.reduce([tables[z] for z in iter_bits(y_bits)])
            hyp = np.bitwise_count(xy).astype(np.int16) <= pc + np.int16(y_bits.bit_count() - 2)
            return ~hyp, hyp & (xy == full)

        _check_batch(state, g.label, Theorem.KNESER, (xs,),
                     lambda x: check_kneser(ElementSet(g, x), y, explore=explore), settle)


# -- olson sweep ----------------------------------------------------------

def _coset_union(cosets: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Elementwise the k-th (from 0) smallest nonempty union of disjoint masks.

    cosets holds the masks ascending along its last axis, zero-padded at the
    end; k is uint64. Disjoint masks compare by their highest element, so a
    union ranks by the masks it takes read as binary digits: the k-th is
    the union of the masks picked by the bits of k+1.
    """
    pick = k + np.uint64(1)
    x = np.zeros(pick.shape, dtype=cosets.dtype)
    for i in range(cosets.shape[-1]):
        x |= np.where(((pick >> np.uint64(i)) & np.uint64(1)).astype(bool), cosets[..., i], 0)
    return x


def _coset_unions(g: Group, h_bits: int) -> list[int]:
    """Every nonempty union of right cosets of H, ascending."""
    cosets = np.array(_right_coset_masks(g, h_bits), dtype=mask_dtype(g.order))
    return _coset_union(cosets, np.arange((1 << len(cosets)) - 1, dtype=np.uint64)).tolist()


def _olson_batch(g: Group, subgroup_bits: Sequence[int], hi: np.ndarray, ki: np.ndarray,
                 x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Olson evaluation of instances (H, K, X, Y) with H = subgroup_bits[hi].

    Returns (applicable, holds): whether all four hypotheses hold, and
    whether they do and both conclusions follow.
    """
    table = _coset_table(g, subgroup_bits, x.dtype.type)
    applicable = (_periodic(table, hi, x) & _periodic(table, ki, y)
                  & ~_periodic(table, ki, x) & ~_periodic(table, hi, y))
    sizes = np.array([h.bit_count() for h in subgroup_bits], dtype=np.int32)
    meets = np.array([[(h & k).bit_count() for k in subgroup_bits] for h in subgroup_bits],
                     dtype=np.int32)
    h_size, k_size, meet = sizes[hi], sizes[ki], meets[hi, ki]
    dxy = np.bitwise_count(x & ~y).astype(np.int32)
    dyx = np.bitwise_count(y & ~x).astype(np.int32)
    ok = (dxy + dyx >= h_size + k_size - 2 * meet) & ((dxy >= h_size - meet) | (dyx >= k_size - meet))
    return applicable, applicable & ok


def _olson_chunks(g: Group, subgroup_bits: Sequence[int], union_counts: Sequence[int],
                  cfg: SweepConfig, seed: int, dtype: type) -> Iterator[tuple[np.ndarray, ...]]:
    """The sweep's Olson instances as arrays (hi, ki, x, y), in instance order.

    Sampled mode draws H, K and then X and Y, each as the k-th smallest
    nonempty union of right cosets for a uniform k below union_counts;
    exhaustive mode walks every subgroup pair and, within it, the outer
    product of the coset unions. Chunks hold about _CHUNK instances.
    """
    if cfg.mode == "sampled":
        table = _coset_table(g, subgroup_bits, dtype)
        rng = random.Random(f"{seed}|olson")
        for start in range(0, cfg.samples, _CHUNK):
            draws = []
            for _ in range(min(_CHUNK, cfg.samples - start)):
                hi = rng.randrange(len(union_counts))
                ki = rng.randrange(len(union_counts))
                draws.append((hi, ki, rng.randrange(union_counts[hi]), rng.randrange(union_counts[ki])))
            hs, ks, xs, ys = zip(*draws)
            hs, ks = np.array(hs, dtype=np.intp), np.array(ks, dtype=np.intp)
            yield (hs, ks, _coset_union(table[hs], np.array(xs, dtype=np.uint64)),
                   _coset_union(table[ks], np.array(ys, dtype=np.uint64)))
        return
    arrays = [np.array(_coset_unions(g, h), dtype=dtype) for h in subgroup_bits]
    parts, size = [], 0
    for hi, xs in enumerate(arrays):
        for ki, ys in enumerate(arrays):
            rows = max(1, _CHUNK // len(ys))
            for start in range(0, len(xs), rows):
                block = xs[start:start + rows]
                n = len(block) * len(ys)
                parts.append((np.full(n, hi, dtype=np.intp), np.full(n, ki, dtype=np.intp),
                              np.repeat(block, len(ys)), np.tile(ys, len(block))))
                size += n
                if size >= _CHUNK:
                    yield tuple(np.concatenate(col) for col in zip(*parts))
                    parts, size = [], 0
    if parts:
        yield tuple(np.concatenate(col) for col in zip(*parts))


def _sweep_olson(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    try:
        dtype = mask_dtype(g.order)
    except ValueError as exc:
        raise _Refused(str(exc)) from None
    subs = all_subgroups(g)
    bits = [h.bits for h in subs]
    # H has order/|H| right cosets, hence 2^that - 1 nonempty unions of them
    union_counts = [(1 << (g.order // h.bit_count())) - 1 for h in bits]
    if cfg.mode == "exhaustive":
        per_side = sum(union_counts)
        if per_side * per_side > cfg.max_instances:
            raise _Refused(
                f"exhaustive coset-union space {per_side}^2 exceeds max_instances {cfg.max_instances}")

    def check(h: int, k: int, x_bits: int, y_bits: int) -> TheoremVerdict:
        return check_olson(ElementSet(g, x_bits), ElementSet(g, y_bits), subs[h], subs[k])

    def settle(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        applicable, holds = _olson_batch(g, bits, *columns)
        return ~applicable, holds

    for columns in _olson_chunks(g, bits, union_counts, cfg, seed, dtype):
        _check_batch(state, g.label, Theorem.OLSON, columns, check, settle)


# -- cell intersection sweep ----------------------------------------------

def _sweep_intersection(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    for s in _s_space(g, cfg, seed):
        cells = enumerate_cells(s, u_max=g.order, cap=cfg.enumeration_cap)
        m = len(cells)
        if m * (m - 1) // 2 > cfg.max_instances:
            raise _Refused(
                f"{m} cells give {m * (m - 1) // 2} pairs, above max_instances {cfg.max_instances}")
        lt = left_translate_masks(g, s.bits)
        bits = np.array([c.cell.bits for c in cells], dtype=mask_dtype(g.order))

        def closed(a: np.ndarray) -> np.ndarray:
            return closure_masks(lt, product_masks(lt, a)) == a

        def settle(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            inter = bits[i] & bits[j]
            return inter == 0, (inter != 0) & closed(inter)

        # a set that is not a cell gets no settle, so the checker sees it and refuses it
        settled = settle if bits.all() and closed(bits).all() else None
        step = max(1, _CHUNK // max(m, 1))
        for start in range(0, m - 1, step):
            i, j = np.triu_indices(min(step, m - 1 - start), 1, m - start)
            _check_batch(state, g.label, Theorem.CELL_INTERSECT, (i + start, j + start),
                         lambda a, b: check_cell_intersection(s, cells[a].cell, cells[b].cell), settled)


# -- chain sweep ----------------------------------------------------------

def _sweep_chain(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    sets = _s_space(g, cfg, seed)
    _check_batch(state, g.label, Theorem.SUBGROUP_KERNEL_CHAIN, (np.arange(len(sets)),),
                 lambda i: check_theorem_subgroup_kernels(sets[i], cap=cfg.enumeration_cap))


# -- corollary sweep ------------------------------------------------------

def _sweep_corollary(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    for s in _s_space(g, cfg, seed):
        for v in check_corollary_kernel_structure(s, explore=not g.is_abelian, cap=cfg.enumeration_cap):
            state.add(g.label, v)


# -- dichotomy sweep ------------------------------------------------------

def _dichotomy_batch(g: Group, s_bits: int, h_bits: int, t_arr: np.ndarray) -> np.ndarray:
    """Vectorized dichotomy evaluation over an array of T bitmasks."""
    dtype = t_arr.dtype.type
    p = product_masks(left_translate_masks(g, s_bits), t_arr)
    pc_t = np.bitwise_count(t_arr).astype(np.int32)
    pc_p = np.bitwise_count(p).astype(np.int32)
    s_size = s_bits.bit_count()
    additive = pc_p >= pc_t + (s_size - 1)
    cosets = _coset_table(g, [h_bits], dtype)
    periodic = _periodic(cosets, 0, p)
    t_cosets = np.zeros(len(t_arr), dtype=np.int32)
    for c in cosets[0]:
        t_cosets += ((t_arr & c) != 0)
    h_size = h_bits.bit_count()
    hs_size = product_bits(g, h_bits, s_bits).bit_count()
    coset_ok = periodic & (pc_p <= hs_size + h_size * t_cosets - h_size)
    return additive | coset_ok


def _sampled_t_masks(g: Group, count: int, rng: np.random.Generator) -> np.ndarray:
    n = g.order
    dtype = mask_dtype(n)
    sizes = rng.integers(1, n + 1, size=count)
    order = np.argsort(rng.random((count, n)), axis=1, kind="stable")
    keep = np.arange(n)[None, :] < sizes[:, None]
    powers = (np.uint64(1) << order.astype(np.uint64))
    bits = np.where(keep, powers, np.uint64(0)).sum(axis=1, dtype=np.uint64)
    return bits.astype(dtype)


def _sweep_dichotomy(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    explore = not g.is_abelian
    n = g.order
    for s in _s_space(g, cfg, seed):
        h = balandraud_details(s, cap=cfg.enumeration_cap).subgroup
        if cfg.mode == "exhaustive":
            total = (1 << n) - 1
            if total > cfg.max_instances:
                raise _Refused(f"exhaustive T space {total} exceeds max_instances {cfg.max_instances}")
            batches = [np.arange(1, 1 << n, dtype=mask_dtype(n))]
        else:
            rng = np.random.default_rng(_derive_seed(seed, s.bits, "t-draws"))
            batches = (_sampled_t_masks(g, min(1 << 17, cfg.samples - start), rng)
                       for start in range(0, cfg.samples, 1 << 17))
        for t_arr in batches:
            _check_batch(state, g.label, Theorem.DICHOTOMY, (t_arr,),
                         lambda t: check_dichotomy(s, h, ElementSet(g, t), explore=explore),
                         lambda t: (np.zeros(len(t), dtype=bool), _dichotomy_batch(g, s.bits, h.bits, t)))


_DRIVERS = {
    "kneser": _sweep_kneser,
    "olson": _sweep_olson,
    "intersection": _sweep_intersection,
    "chain": _sweep_chain,
    "corollary": _sweep_corollary,
    "dichotomy": _sweep_dichotomy,
}


# the statements each task checks; a refused task's error record names the first
_TAGS = {
    "kneser": (Theorem.KNESER,),
    "olson": (Theorem.OLSON,),
    "intersection": (Theorem.CELL_INTERSECT,),
    "chain": (Theorem.SUBGROUP_KERNEL_CHAIN,),
    "corollary": (Theorem.COROLLARY_I, Theorem.COROLLARY_II, Theorem.COROLLARY_III),
    "dichotomy": (Theorem.DICHOTOMY,),
}
# proved for abelian groups only, so on a nonabelian group they run in exploration mode
_ABELIAN_ONLY = {"kneser", "corollary", "dichotomy"}


def _run_task(g: Group, theorem: str, cfg: SweepConfig,
              sink: Callable[[dict], None] | None) -> _SweepState:
    """Run one (group, theorem) task into a fresh state; a refused task ends in one error record."""
    state = _SweepState(sink)
    seed = _derive_seed(cfg.seed if cfg.seed is not None else 0, g.label, theorem)
    if theorem in _ABELIAN_ONLY and not g.is_abelian:
        for tag in _TAGS[theorem]:
            state.note_exploration(tag, g.label)
    try:
        _DRIVERS[theorem](g, cfg, state, seed)
    except (_Refused, EnumerationCapError) as exc:
        state.error(_TAGS[theorem][0], g.label, str(exc))
    return state


def _worker(args: tuple[str, str, SweepConfig, bool]) -> tuple[list[dict], _SweepState]:
    spec, theorem, cfg, collect = args
    records: list[dict] = []
    state = _run_task(build_group(spec, wide=cfg.wide), theorem, cfg,
                      records.append if collect else None)
    state.sink = None  # the records travel once, beside the state
    return records, state


def run_sweep(config: SweepConfig, sink: Callable[[dict], None] | None = None) -> SweepResult:
    """Run the configured checks, streaming records to sink when given.

    The stream and the summary are deterministic functions of the
    configuration: tasks run in (group, theorem) listing order and sampled
    draws are seeded per task, so the jobs count never changes the output.
    Each task fills its own state, merged in task order; serially a task
    streams straight to sink, while a pool worker collects its records for
    the parent to pass on.
    """
    config.validate()
    tasks = [(spec, theorem) for spec in config.groups for theorem in config.theorems]
    groups = {spec: build_group(spec, wide=config.wide) for spec in config.groups}
    state = _SweepState(None)
    if config.jobs <= 1 or len(tasks) <= 1:
        for spec, theorem in tasks:
            state.merge(_run_task(groups[spec], theorem, config, sink))
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            args = [(spec, theorem, config, sink is not None) for spec, theorem in tasks]
            for records, part in pool.map(_worker, args):
                for rec in records:
                    sink(rec)
                state.merge(part)
    counts: dict[str, dict[str, dict[str, int]]] = {}
    totals: dict[str, int] = {}
    for (theorem, group, status), k in sorted(state.counts.items()):
        counts.setdefault(theorem, {}).setdefault(group, {})[status] = k
        totals[status] = totals.get(status, 0) + k
    summary = {
        "instances": sum(totals.values()),
        "counts": counts,
        "totals": dict(sorted(totals.items())),
        "exploration": [list(e) for e in sorted(state.exploration)],
        "errors": len(state.errors),
    }
    return SweepResult(summary=summary, violations=state.violations,
                       findings=state.findings, errors=state.errors)
