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
one byte-table product kernel: gathers from column unions of the group's
translate tables (cells.column_union) where one factor is fixed, as in
the dichotomy and the intersection's closure test, and
cells.pair_products on the group's pair_table where both vary, as in
Kneser and in Olson's periodicity tests HX = X. Olson's instances are
coset unions named by rank in both modes, drawn or walked; one byte table
of every subgroup's right cosets (_coset_table) turns ranks into masks.

Each sweep driver hands batches of instances to _check_batch. Every
sweep has one vectorized path, which settles a whole batch: instances it
decides are tallied in bulk, and only the rest reach the scalar checker,
in instance order. Kneser settles every verdict that holds, periodic XY
included, in exhaustive pair blocks and in sampled pairs alike. The chain
and the corollary take the S space in chunks of memoized enumerations
and settle each S from the chunk's prefix columns laid end to end
(kernel_flags, subgroup_flags, periodic_flags); the corollary settles an
S only where its three parts agree. A sink receives each record as its
finished JSON line (jsonl_line). The Kneser and dichotomy batches also
return their witness columns, and with a sink their NOT_APPLICABLE and
HOLDS lines are rendered from those columns through fixed templates
(_template); every other instance, each VIOLATED and FINDING among them,
still goes to the scalar checker, the oracle, in its place in the stream.
With a sink, Olson, the cell intersection, the chain and the corollary
send every instance to the checker (so Olson builds no pair_table).
run_sweep is prepare_sweep, which builds every group once and checks the
set spec against each before anything is written, then sweep_groups, the
task loop on those groups. _run_task notes exploration mode and turns a
refused task into its one error record, the width refusal that
cells.mask_dtype raises (an EnumerationCapError) among them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import multiprocessing
import random
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .cells import (
    ENUMERATION_CAP,
    MAX_MASK_ORDER,
    CellRecord,
    EnumerationCapError,
    _MEMO_LIMIT,
    _byte_index,
    _byte_unions,
    _distinct,
    _full_cell_enumeration,
    _gather,
    _kernel_chain,
    _require_identity,
    balandraud_details,
    cell_columns,
    closure_masks,
    column_dtype,
    column_union,
    enumerate_cells,
    is_cell,
    kernel_flags,
    kernels_at,
    mask_dtype,
    pair_products,
    pair_products_every_x,
    pair_table,
    periodic_flags,
    stabilizer_masks,
    subgroup_flags,
    translate_tables,
)
from .groups import (
    ElementSet,
    Group,
    all_subgroups,
    build_group,
    inverse_bits,
    is_subgroup,
    mask_spec,
    product_bits,
    require_same_group,
)
from .setops import difference_counts, left_stabilizer, product
from .specs import (
    IdentitySubsets,
    check_subset_spec,
    expand_subset_specs,
    parse_subset_spec,
    random_nonempty_bits,
    sample_identity_subsets,
)


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


_KNESER_HYPOTHESIS = "|XY| <= |X|+|Y|-2 does not hold"


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
        return _na(Theorem.KNESER, _KNESER_HYPOTHESIS, base)
    h = left_stabilizer(xy)
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
    and its chain_ok.
    """
    _require_identity(s)
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
            if (n_is_kernel or u == v) and not comparable:
                part, reason = "i", "incomparable pair"
            elif n_is_kernel and v <= u and not m.cell <= n.cell:
                part, reason = "ii", "M not contained in N"
            else:
                continue
            return TheoremVerdict(Theorem.SUBGROUP_KERNEL_CHAIN, Status.VIOLATED,
                                  dict(base, m=m.cell.spec_string(), u=u, n=n.cell.spec_string(), v=v,
                                       n_is_kernel=n_is_kernel, part=part, reason=reason))
    witness = dict(base, subgroup_kernels=[c.cell.spec_string() for c in subgroup_kernels])
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
    _require_identity(s)
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
    _require_identity(s)
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


# -- sweep orchestration --------------------------------------------------

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
        if self.set_spec is not None:
            check_subset_spec(self.set_spec)  # whichever theorems read it


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


def jsonl_line(record: dict) -> str:
    """record as the one JSON line written for it: keys sorted, compact, ending in a newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _verdict_record(group: str, theorem: Theorem, status: Status, witness: dict | None) -> dict:
    return {"kind": "verdict", "theorem": theorem.value, "group": group, "status": status.value,
            "witness": witness}


# the markers of line_template's fields and their formats: a spec string needs no escape
_FIELDS = {int: "%d", str: '"%s"', hex: '"0x%x"'}


def line_template(record: dict) -> str:
    """The %-format string of record's jsonl_line.

    A value given as int, str or hex (the type, or the builtin for a mask
    rendered as "0x..."), in record or in a dict nested in it, is a field:
    %d, "%s" or "0x%x". The fields take their values in the order they
    appear in the line, their keys sorted within each dict; every other
    value is fixed and rendered by jsonl_line itself.
    """
    markers = {kind: f"\0{i}" for i, kind in enumerate(_FIELDS)}

    def mark(value):
        if isinstance(value, dict):
            return {k: mark(v) for k, v in value.items()}
        return next((m for kind, m in markers.items() if value is kind), value)

    line = jsonl_line(mark(record)).replace("%", "%%")
    for i, fmt in enumerate(_FIELDS.values()):
        line = line.replace(f'"\\u0000{i}"', fmt)
    return line


def _template(group: str, theorem: Theorem, status: Status, witness: dict) -> str:
    """The line_template of a verdict record, its fields in the witness."""
    return line_template(_verdict_record(group, theorem, status, witness))


def _spec_memo() -> Callable[[int], str]:
    """mask_spec, memoized for one task."""
    return functools.lru_cache(maxsize=1 << 12)(mask_spec)


class _SweepState:
    def __init__(self, sink: Callable[[str], None] | None) -> None:
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
        record = _verdict_record(group, verdict.theorem, verdict.status, verdict.witness)
        if verdict.status is Status.VIOLATED and len(self.violations) < RECORD_CAP:
            self.violations.append(record)
        elif verdict.status is Status.FINDING and len(self.findings) < RECORD_CAP:
            self.findings.append(record)
        if self.sink is not None:
            self.sink(jsonl_line(record))

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
            self.sink(jsonl_line(record))


def _derive_seed(*parts: object) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class _Refused(Exception):
    """A task refused as a whole; _run_task records it as the task's one error."""


def _s_space(g: Group, cfg: SweepConfig, seed: int) -> Sequence[ElementSet] | IdentitySubsets:
    if cfg.set_spec is not None:
        return expand_subset_specs(cfg.set_spec, g)  # checked against g by prepare_sweep
    hi = g.order if cfg.s_max is None else cfg.s_max
    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|s-space")
        return sample_identity_subsets(g, cfg.s_min, hi, cfg.s_samples, rng)
    return IdentitySubsets(g, cfg.s_min, hi)


# the sweeps hand instances to _check_batch in chunks of about this many
_CHUNK = 1 << 16


def _check_batch(state: _SweepState, label: str, tags: tuple[Theorem, ...], columns: Sequence[np.ndarray],
                 check: Callable[..., TheoremVerdict | list[TheoremVerdict]],
                 settle: Callable[..., tuple[np.ndarray, ...]] | None = None, *,
                 render: Callable[..., Iterator[str | None]] | None = None) -> None:
    """Check a batch of instances, given as parallel columns, in instance order.

    settle(*columns) returns (not_applicable, holds, *witness): the masks of
    the instances it decides, tallied in bulk under every tag (a statement
    in parts, the corollary, is settled only where its parts agree), then
    its witness columns. Without a sink only the rest reach check(*instance). With a sink,
    render(not_applicable, holds, *columns, *witness) yields each
    instance's record line, or None for an instance the columns do not
    decide, which check then takes in its place; with a sink and no render,
    every instance reaches check. A check returns one verdict, or a list
    of them for a statement in parts (the corollary), one record each.
    """

    def scalar(*instance: int) -> None:
        verdicts = check(*instance)
        for verdict in verdicts if isinstance(verdicts, list) else (verdicts,):
            state.add(label, verdict)

    if settle is not None and (state.sink is None or render is not None):
        not_applicable, holds, *witness = settle(*columns)
        for tag in tags:
            state.tally(tag.value, label, Status.NOT_APPLICABLE.value, int(not_applicable.sum()))
            state.tally(tag.value, label, Status.HOLDS.value, int(holds.sum()))
        if state.sink is not None:
            sink = state.sink
            for i, line in enumerate(render(not_applicable, holds, *columns, *witness)):
                if line is None:
                    scalar(*(c[i].item() for c in columns))
                else:
                    sink(line)
            return
        rest = ~(not_applicable | holds)
        columns = [c[rest] for c in columns]
    for instance in zip(*(c.tolist() for c in columns)):
        scalar(*instance)


# -- kneser sweep ---------------------------------------------------------

def _kneser_batch(g: Group, table: np.ndarray, x: np.ndarray, y: np.ndarray,
                  xy: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized check_kneser over pair arrays (X, Y), given XY.

    Returns (not_applicable, holds, |XY|, bound, H, |H|, |HX|, |HY|):
    whether |XY| <= |X|+|Y|-2 fails, whether it holds with |XY| =
    |HX|+|HY|-|H| and |H| > 1 for H = stab(XY), then the witness columns
    of check_kneser. Only the unsaturated pairs (XY != G) meeting the
    hypothesis go through the stabilizer; every other row has H = G and
    the sizes |G|, which is the witness of a saturated pair.
    """
    count = np.bitwise_count  # uint8: no sum below reaches 2 * 64
    xy_size = count(xy)
    bound = count(x) + count(y) - 2  # X and Y are nonempty
    hyp = xy_size <= bound
    i = np.flatnonzero(hyp & (xy != xy.dtype.type(g.full_bits)))
    h = np.full_like(xy, g.full_bits)
    h_size, hx_size, hy_size = (np.full(len(xy), g.order, dtype=np.uint8) for _ in range(3))
    h[i] = stab = stabilizer_masks(g, table, xy[i])
    h_size[i] = count(stab)
    hx_size[i] = count(pair_products(table, stab, x[i]))
    hy_size[i] = count(pair_products(table, stab, y[i]))
    holds = hyp & (xy_size + h_size == hx_size + hy_size) & (h_size > 1)
    return ~hyp, holds, xy_size, bound, h, h_size, hx_size, hy_size


def _kneser_lines(g: Group) -> Callable[..., Iterator[str | None]]:
    """The render of _check_batch for the Kneser sweep of g, from the columns of _kneser_batch."""
    label = g.label
    spec = _spec_memo()
    base = dict(group=label, x=str, y=str, xy_size=int, bound=int)
    na = _template(label, Theorem.KNESER, Status.NOT_APPLICABLE,
                   dict(base, failed_hypothesis=_KNESER_HYPOTHESIS))
    ok = _template(label, Theorem.KNESER, Status.HOLDS,
                   dict(base, h=str, h_size=int, hx_size=int, hy_size=int, rhs=int))

    def render(*columns: np.ndarray) -> Iterator[str | None]:
        for a, b, x, y, xy, bound, h, h_size, hx, hy in zip(*(c.tolist() for c in columns)):
            if a:
                yield na % (bound, spec(x), xy, spec(y))
            elif b:
                yield ok % (bound, spec(h), h_size, hx, hy, hx + hy - h_size, spec(x), xy, spec(y))
            else:
                yield None
    return render


def _sweep_kneser(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    explore = not g.is_abelian
    n = g.order
    # built by the first settle, so a --wide group builds none
    table = functools.cache(functools.partial(pair_table, g))
    render = _kneser_lines(g)

    def check(x: int, y: int) -> TheoremVerdict:
        return check_kneser(ElementSet(g, x), ElementSet(g, y), explore=explore)

    def settle(x: np.ndarray, y: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, ...]:
        return _kneser_batch(g, table(), x, y, xy)

    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|pairs")
        # object columns for a --wide group, whose masks outgrow every numpy
        # integer; those pairs all go to check_kneser
        dtype = column_dtype(n)
        for start in range(0, cfg.samples, _CHUNK):
            # x and y draws alternate
            k = min(_CHUNK, cfg.samples - start)
            draws = np.array([random_nonempty_bits(n, rng) for _ in range(2 * k)], dtype=dtype)
            _check_batch(state, g.label, _TAGS["kneser"], draws.reshape(k, 2).T, check,
                         None if dtype is object
                         else lambda x, y: settle(x, y, pair_products(table(), x, y)), render=render)
        return
    total = ((1 << n) - 1) ** 2
    if total > cfg.max_instances:
        raise _Refused(f"exhaustive pair space {total} exceeds max_instances {cfg.max_instances}")
    dtype = mask_dtype(n)
    # blocks of whole Y rows, Y outer and X inner as the records run
    xs = np.arange(1, 1 << n, dtype=dtype)
    step = max(1, _CHUNK // len(xs))
    for start in range(0, len(xs), step):
        ys = xs[start:start + step]
        _check_batch(state, g.label, _TAGS["kneser"], (np.tile(xs, len(ys)), np.repeat(ys, len(xs))), check,
                     lambda x, y, ys=ys: settle(x, y, pair_products_every_x(table(), ys)[:, 1:].ravel()),
                     render=render)


# -- olson sweep ----------------------------------------------------------

def _coset_table(g: Group, subgroup_bits: Sequence[int], dtype: type) -> np.ndarray:
    """The byte table of right coset unions, one column per subgroup.

    Entry [256*b + v, i] is the union of the right cosets of subgroup i
    picked by byte value v at byte position b, the cosets listed distinct
    and ascending.
    """
    # the right table holds H*x at [H, x], so one gather gives every coset of every subgroup
    right = translate_tables(g)[0]
    cosets = [_distinct(row) for row in _gather(right, np.array(subgroup_bits, dtype=dtype))]
    padded = np.zeros((max(map(len, cosets)), len(cosets)), dtype=dtype)
    for i, c in enumerate(cosets):
        padded[:len(c), i] = c
    return _byte_unions(padded)


def _coset_union(table: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Elementwise the k-th (from 0) smallest nonempty union of right cosets of subgroup hi.

    Disjoint masks compare by their highest element, so a union ranks by
    the cosets it takes read as binary digits: the k-th is the union of the
    cosets picked by the bits of k+1, one _coset_table gather per byte.
    """
    idx = _byte_index(k + 1, -(-len(table) // 256))
    out = table[idx[0], hi]
    for i in idx[1:]:
        out |= table[i, hi]
    return out


def _olson_batch(table: np.ndarray, h: np.ndarray, k: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized check_olson over mask columns (H, K, X, Y).

    Returns (not_applicable, holds): whether one of the four hypotheses
    fails, and whether all hold and both conclusions follow. The
    periodicity tests HX = X and the rest are products from the group's
    pair_table.
    """
    applicable = ((pair_products(table, h, x) == x) & (pair_products(table, k, y) == y)
                  & (pair_products(table, k, x) != x) & (pair_products(table, h, y) != y))
    h_size, k_size, meet, dxy, dyx = (np.bitwise_count(a).astype(np.int32)
                                      for a in (h, k, h & k, x & ~y, y & ~x))
    ok = (dxy + dyx >= h_size + k_size - 2 * meet) & ((dxy >= h_size - meet) | (dyx >= k_size - meet))
    return ~applicable, applicable & ok


def _olson_ranks(union_counts: Sequence[int], cfg: SweepConfig, seed: int,
                 dtype: type) -> Iterator[tuple[np.ndarray, ...]]:
    """The sweep's Olson instances as rank columns (hi, ki, rank_x, rank_y), in instance order.

    X is the rank_x-th smallest nonempty union of right cosets of subgroup
    hi, and Y the rank_y-th of subgroup ki. Sampled mode draws hi, ki and
    then the two ranks, each uniform below union_counts; exhaustive mode
    walks every subgroup pair and, within it, every pair of ranks, X outer.
    Chunks hold about _CHUNK instances.
    """
    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|olson")
        for start in range(0, cfg.samples, _CHUNK):
            draws = []
            for _ in range(min(_CHUNK, cfg.samples - start)):
                hi = rng.randrange(len(union_counts))
                ki = rng.randrange(len(union_counts))
                draws.append((hi, ki, rng.randrange(union_counts[hi]), rng.randrange(union_counts[ki])))
            hs, ks, xs, ys = zip(*draws)
            yield (np.array(hs, dtype=np.intp), np.array(ks, dtype=np.intp),
                   np.array(xs, dtype=dtype), np.array(ys, dtype=dtype))
        return
    ranks = [np.arange(c, dtype=dtype) for c in union_counts]
    parts, size = [], 0
    for hi, xs in enumerate(ranks):
        for ki, ys in enumerate(ranks):
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
    dtype = mask_dtype(g.order)
    subs = {h.bits: h for h in all_subgroups(g)}
    bits = list(subs)
    # H has order/|H| right cosets, hence 2^that - 1 nonempty unions of them
    union_counts = [(1 << (g.order // h.bit_count())) - 1 for h in bits]
    if cfg.mode == "exhaustive":
        per_side = sum(union_counts)
        if per_side * per_side > cfg.max_instances:
            raise _Refused(
                f"exhaustive coset-union space {per_side}^2 exceeds max_instances {cfg.max_instances}")
    cosets = _coset_table(g, bits, dtype)
    subgroups = np.array(bits, dtype=dtype)
    # built by the first settle, so a sweep with a sink builds none
    table = functools.cache(functools.partial(pair_table, g))

    def check(h: int, k: int, x_bits: int, y_bits: int) -> TheoremVerdict:
        return check_olson(ElementSet(g, x_bits), ElementSet(g, y_bits), subs[h], subs[k])

    for hi, ki, rank_x, rank_y in _olson_ranks(union_counts, cfg, seed, dtype):
        columns = (subgroups[hi], subgroups[ki], _coset_union(cosets, hi, rank_x),
                   _coset_union(cosets, ki, rank_y))
        _check_batch(state, g.label, _TAGS["olson"], columns, check,
                     lambda *masks: _olson_batch(table(), *masks))


# -- cell intersection sweep ----------------------------------------------

def _sweep_intersection(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    for s in _s_space(g, cfg, seed):
        bits = _full_cell_enumeration(g, s.bits, cfg.enumeration_cap)[0]
        m = len(bits)
        if m * (m - 1) // 2 > cfg.max_instances:
            raise _Refused(
                f"{m} cells give {m * (m - 1) // 2} pairs, above max_instances {cfg.max_instances}")
        right = translate_tables(g)[0]
        times_s, times_inverse = column_union(right, s.bits), column_union(right, inverse_bits(g, s.bits))

        def closed(a: np.ndarray) -> np.ndarray:
            return closure_masks(g, times_inverse, _gather(times_s, a)) == a

        def settle(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            inter = bits[i] & bits[j]
            return inter == 0, (inter != 0) & closed(inter)

        # a set that is not a cell gets no settle, so the checker sees it and refuses it
        settled = settle if bits.all() and closed(bits).all() else None
        step = max(1, _CHUNK // max(m, 1))
        for start in range(0, m - 1, step):
            i, j = np.triu_indices(min(step, m - 1 - start), 1, m - start)
            _check_batch(state, g.label, _TAGS["intersection"], (i + start, j + start),
                         lambda a, b: check_cell_intersection(s, ElementSet(g, int(bits[a])),
                                                              ElementSet(g, int(bits[b]))), settled)


# -- chain and corollary sweeps -------------------------------------------

# the chain and corollary sweeps take their S space in chunks of at most
# this many sets, so each S a settle leaves to the checker is still memoized
_S_CHUNK = _MEMO_LIMIT


def _prefix_columns(sets: Sequence[ElementSet], rows: np.ndarray, below: int,
                    cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The enumeration prefixes, deficiency up to |S| - below, of sets[i] for i in rows.

    Laid end to end as columns (cells, deficiency, segment), segment the i
    of each row's S; each prefix is sorted by (deficiency, size, bits).
    """
    parts = [cell_columns(sets[i], len(sets[i]) - below, cap=cap) for i in rows.tolist()]
    return (np.concatenate([p[0] for p in parts]), np.concatenate([p[2] for p in parts]),
            np.repeat(rows, [len(p[0]) for p in parts]))


def _block_opens(segment: np.ndarray, deficiency: np.ndarray) -> np.ndarray:
    """Which rows of _prefix_columns open a block, the rows of one (S, deficiency)."""
    opens = np.ones(len(segment), dtype=bool)
    opens[1:] = (segment[1:] != segment[:-1]) | (deficiency[1:] != deficiency[:-1])
    return opens


def _chain_batch(g: Group, sets: Sequence[ElementSet], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized check_theorem_subgroup_kernels over a chunk of sets.

    Returns (not_applicable, holds): nothing is NOT_APPLICABLE, and holds
    is that no pair (M, N) of one S, M a subgroup u-kernel and N a subgroup
    v-cell with u, v <= |S|-1, breaks part (i) or part (ii).
    """
    cells, deficiency, segment = _prefix_columns(sets, np.arange(len(sets)), 1, cap)
    kernel = kernel_flags(np.bitwise_count(cells), np.cumsum(_block_opens(segment, deficiency)))
    n = np.flatnonzero(subgroup_flags(g, cells))
    m = n[kernel[n]]
    # each M meets every N of its S, a run of n
    per_set = np.bincount(segment[n], minlength=len(sets))
    k = per_set[segment[m]]
    mi = np.repeat(m, k)
    ni = n[np.repeat(np.cumsum(per_set)[segment[m]] - np.cumsum(k), k) + np.arange(k.sum())]
    mb, nb, u, v, n_is_kernel = cells[mi], cells[ni], deficiency[mi], deficiency[ni], kernel[ni]
    m_in_n = (mb & ~nb) == 0
    comparable = m_in_n | ((nb & ~mb) == 0)
    broken = ((n_is_kernel | (u == v)) & ~comparable) | (n_is_kernel & (v <= u) & ~m_in_n)
    holds = np.ones(len(sets), dtype=bool)
    holds[segment[mi[broken]]] = False
    return np.zeros(len(sets), dtype=bool), holds


def _corollary_batch(g: Group, sets: Sequence[ElementSet], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized check_corollary_kernel_structure over a chunk of sets, its three parts at once.

    Returns (not_applicable, holds): whether |S| < 3 or no cell has a
    deficiency u in 1..|S|-2, and whether all three parts hold. Each block
    (S, u) must hold exactly one identity-containing u-kernel M, a subgroup
    (part I), and every u-cell must be M-periodic (part II). Given parts I
    and II, part III is that each M properly contains the M of the next
    block of its S.
    """
    applicable = np.zeros(len(sets), dtype=bool)
    rows = np.flatnonzero([len(s) >= 3 for s in sets])
    if not len(rows):
        return ~applicable, applicable
    cells, deficiency, segment = _prefix_columns(sets, rows, 2, cap)
    inner = deficiency > 0
    cells, deficiency, segment = cells[inner], deficiency[inner], segment[inner]
    applicable[segment] = True
    opens = _block_opens(segment, deficiency)
    block, first = np.cumsum(opens) - 1, np.flatnonzero(opens)
    ident = np.flatnonzero(kernel_flags(np.bitwise_count(cells), block) & ((cells & 1) == 1))
    m = np.zeros(len(first), dtype=cells.dtype)
    m[block[ident]] = cells[ident]  # the one M of each block where part I holds
    # M is a u-cell holding 1, so part II on M itself, M*M = M, makes it a subgroup
    part_i = np.bincount(block[ident], minlength=len(first)) == 1
    owner = segment[first]
    later = m[1:]
    part_iii = (owner[1:] != owner[:-1]) | (((later & ~m[:-1]) == 0) & (later != m[:-1]))
    holds = applicable.copy()
    holds[owner[~part_i]] = False
    holds[segment[~periodic_flags(g, m[block], cells)]] = False
    holds[owner[:-1][~part_iii]] = False
    return ~applicable, holds


def _sweep_sets(g: Group, cfg: SweepConfig, state: _SweepState, seed: int, task: str,
                check: Callable[[ElementSet], TheoremVerdict | list[TheoremVerdict]],
                batch: Callable[..., tuple[np.ndarray, np.ndarray]]) -> None:
    """Check one instance per S of the S space, in chunks of _S_CHUNK sets.

    batch(g, chunk, cap) settles a chunk. A group above the enumeration cap
    gets no settle, so the checker refuses it at its first S that needs
    the enumeration, as it would alone.
    """
    cap = cfg.enumeration_cap
    sets = iter(_s_space(g, cfg, seed))
    while chunk := list(itertools.islice(sets, _S_CHUNK)):
        _check_batch(state, g.label, _TAGS[task], (np.arange(len(chunk)),), lambda i: check(chunk[i]),
                     (lambda _: batch(g, chunk, cap)) if g.order <= cap else None)


def _sweep_chain(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    _sweep_sets(g, cfg, state, seed, "chain",
                lambda s: check_theorem_subgroup_kernels(s, cap=cfg.enumeration_cap), _chain_batch)


def _sweep_corollary(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    _sweep_sets(g, cfg, state, seed, "corollary",
                lambda s: check_corollary_kernel_structure(s, explore=not g.is_abelian,
                                                           cap=cfg.enumeration_cap),
                _corollary_batch)


# -- dichotomy sweep ------------------------------------------------------

def _dichotomy_batch(times_s: np.ndarray, h_times: np.ndarray, s_size: int, h_size: int,
                     hs_size: int, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized check_dichotomy over an array of T masks.

    times_s and h_times are the byte tables of X -> X*S and X -> H*X, and
    hs_size is |HS|. Returns (not_applicable, holds, |TS|, |T|+|S|-1,
    additive, |HT|): nothing is NOT_APPLICABLE, and holds is the additive
    branch, or TS H-periodic with |TS| <= |HS|+|HT|-|H|.
    """
    ts = _gather(times_s, t)
    ts_size = np.bitwise_count(ts).astype(np.int32)
    additive_bound = np.bitwise_count(t).astype(np.int32) + (s_size - 1)
    additive = ts_size >= additive_bound
    periodic = _gather(h_times, ts) == ts
    ht_size = np.bitwise_count(_gather(h_times, t)).astype(np.int32)
    holds = additive | (periodic & (ts_size <= hs_size + ht_size - h_size))
    return np.zeros(len(t), dtype=bool), holds, ts_size, additive_bound, additive, ht_size


def _dichotomy_lines(g: Group, spec: Callable[[int], str], s: ElementSet, h: ElementSet,
                     hs_size: int) -> Callable[..., Iterator[str | None]]:
    """The render of _check_batch for the dichotomy of one S, from the columns of _dichotomy_batch."""
    label, h_size = g.label, len(h)
    base = dict(group=label, s=s.spec_string(), h=h.spec_string(), t=str, ts_size=int, additive_bound=int)
    additive = _template(label, Theorem.DICHOTOMY, Status.HOLDS, dict(base, branch="additive"))
    periodic = _template(label, Theorem.DICHOTOMY, Status.HOLDS,
                         dict(base, branch="periodic", periodic=True, hs_size=hs_size, ht_size=int,
                              h_size=h_size, coset_bound=int))

    def render(_: np.ndarray, *columns: np.ndarray) -> Iterator[str | None]:
        for ok, t, ts_size, bound, is_additive, ht_size in zip(*(c.tolist() for c in columns)):
            if is_additive:
                yield additive % (bound, spec(t), ts_size)
            elif ok:
                yield periodic % (bound, hs_size + ht_size - h_size, ht_size, spec(t), ts_size)
            else:
                yield None
    return render


def _sampled_t_masks(g: Group, count: int, rng: np.random.Generator) -> np.ndarray:
    """count random nonempty T masks: for a uniform size in 1..n, the indices of the size
    smallest of n uniform keys, ties going to the lower index as in a stable argsort."""
    n = g.order
    powers = mask_dtype(n)(1) << np.arange(n, dtype=mask_dtype(n))
    sizes = rng.integers(1, n + 1, size=count)
    keys = rng.random((count, n))
    cut = np.take_along_axis(np.sort(keys, axis=1), sizes[:, None] - 1, axis=1)
    masks = (keys <= cut).view(np.uint8) @ powers
    # rows with several keys tied at the cut took too many: keep the lowest-index tied ones
    over = np.flatnonzero(np.bitwise_count(masks) > sizes)
    below, tied = keys[over] < cut[over], keys[over] == cut[over]
    keep = below | (tied & (np.cumsum(tied, axis=1) <= sizes[over, None] - below.sum(axis=1, keepdims=True)))
    masks[over] = keep.view(np.uint8) @ powers
    return masks


def _sweep_dichotomy(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    explore = not g.is_abelian
    n = g.order
    spec = _spec_memo()
    for s in _s_space(g, cfg, seed):
        h = balandraud_details(s, cap=cfg.enumeration_cap).subgroup
        # after the enumeration, which refuses a group too large for mask tables
        right, left = translate_tables(g)
        hs_size = product_bits(g, h.bits, s.bits).bit_count()
        settle = functools.partial(_dichotomy_batch, column_union(right, s.bits), column_union(left, h.bits),
                                   len(s), len(h), hs_size)
        render = _dichotomy_lines(g, spec, s, h, hs_size)
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
            _check_batch(state, g.label, _TAGS["dichotomy"], (t_arr,),
                         lambda t: check_dichotomy(s, h, ElementSet(g, t), explore=explore),
                         settle, render=render)


_DRIVERS = {
    "kneser": _sweep_kneser,
    "olson": _sweep_olson,
    "intersection": _sweep_intersection,
    "chain": _sweep_chain,
    "corollary": _sweep_corollary,
    "dichotomy": _sweep_dichotomy,
}
DRIVER_NAMES = tuple(_DRIVERS)


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
              sink: Callable[[str], None] | None) -> _SweepState:
    """Run one (group, theorem) task into a fresh state; a refused task ends in one error record."""
    state = _SweepState(sink)
    seed = _derive_seed(cfg.seed if cfg.seed is not None else 0, g.label, theorem)
    if theorem in _ABELIAN_ONLY and not g.is_abelian:
        for tag in _TAGS[theorem]:
            state.exploration.add((tag.value, g.label))
    try:
        _DRIVERS[theorem](g, cfg, state, seed)
    except (_Refused, EnumerationCapError) as exc:
        state.error(_TAGS[theorem][0], g.label, str(exc))
    return state


# a pool worker sends a task's lines in chunks of this many
_LINE_CHUNK = 1 << 12


def _worker(tasks: list[tuple[str, str]], groups: dict[str, Group], cfg: SweepConfig,
            collect: bool, conn) -> None:
    """Pool worker: run tasks in order, sending each one's lines and state on conn.

    A task's lines go out as (lines, None) messages of _LINE_CHUNK lines,
    and one (lines, state) message ends the task with the rest of its lines
    and its _SweepState. A task that raises ends in (None, (exception,
    traceback)) instead, and the worker stops. conn is the write end of a
    one-way pipe whose read end only the parent holds; a send returns once
    the message is in the pipe, and blocks while the pipe is full, so the
    worker runs at most about one chunk ahead of the parent. groups are the
    parent's, built once by prepare_sweep: inherited under fork, pickled
    under spawn and forkserver.
    """
    for spec, theorem in tasks:
        lines: list[str] = []

        def sink(line: str) -> None:
            nonlocal lines
            lines.append(line)
            if len(lines) == _LINE_CHUNK:
                conn.send((lines, None))
                lines = []

        try:
            state = _run_task(groups[spec], theorem, cfg, sink if collect else None)
        except Exception as exc:
            conn.send((None, (exc, traceback.format_exc())))
            return
        state.sink = None  # the lines travel on their own
        conn.send((lines, state))


def _pool_sweep(tasks: list[tuple[str, str]], groups: dict[str, Group], config: SweepConfig,
                sink: Callable[[str], None] | None, state: _SweepState) -> None:
    """Run tasks on config.jobs worker processes and merge them into state in task order.

    Task i runs on worker i % jobs, each worker's tasks in order, and each
    worker has its own pipe. The parent walks the tasks in order, passes
    each one's lines to sink as they arrive and merges its state. A worker
    that raises makes this raise its exception, naming the task. A worker
    that ends without finishing task i closes its pipe: every message it
    sent is still read, then end-of-file makes this raise RuntimeError,
    naming task i and the worker's exit code. No worker outlives the call.
    """
    ctx = multiprocessing.get_context()
    jobs = min(config.jobs, len(tasks))
    conns: list = []
    procs: list = []
    try:
        for w in range(jobs):
            conn, out = ctx.Pipe(duplex=False)
            conns.append(conn)
            # closed once started, so the worker holds the only write end and its exit ends the pipe
            with out:
                p = ctx.Process(target=_worker, name=f"cellkit-sweep-{w}",
                                args=(tasks[w::jobs], groups, config, sink is not None, out))
                p.start()
            procs.append(p)
        for i, (spec, theorem) in enumerate(tasks):
            named = f"task {i} ({theorem} on {spec})"
            conn, proc = conns[i % jobs], procs[i % jobs]
            while True:
                try:
                    lines, part = conn.recv()
                except (EOFError, OSError) as exc:
                    if type(exc) not in (EOFError, OSError):  # not the pipe's end, nor a message cut short
                        raise
                    proc.join()
                    raise RuntimeError(f"{named} did not finish: a sweep worker exited with code "
                                       f"{proc.exitcode}") from None
                if lines is None:
                    exc, trace = part
                    raise exc from RuntimeError(f"{named} failed in a sweep worker:\n{trace}")
                for line in lines:
                    sink(line)
                if part is not None:
                    break
            state.merge(part)
    finally:
        for p in procs:
            p.terminate()
            p.join()
        for conn in conns:
            conn.close()


def prepare_sweep(config: SweepConfig) -> dict[str, Group]:
    """The pre-flight of a sweep: validate config and build each group once, by spec.

    An explicit set spec is parsed against every group, so an index outside
    one raises SubsetSpecError, a set without the identity SweepConfigError,
    before any task runs. A family spec (all:, rand:) names only
    identity-containing subsets.
    """
    config.validate()
    groups = {spec: build_group(spec, wide=config.wide) for spec in config.groups}
    if config.set_spec is not None and not config.set_spec.strip().startswith(("all:", "rand:")):
        for g in groups.values():
            s = parse_subset_spec(config.set_spec, g)
            if not s.bits & 1:
                raise SweepConfigError(f"--set produced {s.spec_string()}, which lacks the identity")
    return groups


def sweep_groups(config: SweepConfig, groups: dict[str, Group],
                 sink: Callable[[str], None] | None = None) -> SweepResult:
    """The task loop of a sweep, over the groups that prepare_sweep(config) returned.

    Serially a task streams straight to sink; with more than one job, task
    i runs on worker process i % jobs, which streams its lines back in
    chunks through its own pipe (_pool_sweep), so memory stays bounded per
    worker however long the stream.
    """
    tasks = [(spec, theorem) for spec in config.groups for theorem in config.theorems]
    state = _SweepState(None)
    if config.jobs <= 1 or len(tasks) <= 1:
        for spec, theorem in tasks:
            state.merge(_run_task(groups[spec], theorem, config, sink))
    else:
        _pool_sweep(tasks, groups, config, sink, state)
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


def run_sweep(config: SweepConfig, sink: Callable[[str], None] | None = None) -> SweepResult:
    """Run the configured checks, streaming records to sink when given.

    sink is called with one str per record: the exact JSON line the command
    line writes for it, keys sorted, compact, "\n" included, so
    sys.stdout.write is a sink. The stream and the summary are
    deterministic functions of the configuration: tasks run in (group,
    theorem) listing order and sampled draws are seeded per task, so the
    jobs count never changes the output. Each task fills its own state,
    merged in task order. A bad input raises (prepare_sweep) before sink
    sees a line.
    """
    return sweep_groups(config, prepare_sweep(config), sink)
