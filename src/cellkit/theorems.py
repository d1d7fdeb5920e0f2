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
cells.pair_products, from one gather of the left translate table, where
both vary, as in Kneser. Olson's instances are coset unions named by rank
in both modes, drawn or walked, so HX = X and KY = Y hold by
construction; from one gather per subgroup, _coset_table builds the byte
tables that turn ranks into masks and give K*X and H*Y for the two tests
left open, both read through the column form of cells._gather.

Each sweep driver hands batches of instances to _check_batch, with its
outcomes, (status, witness skeleton) pairs. Every sweep has one
vectorized path, which settles a whole batch into one mask per outcome
and the witness columns: instances it decides are tallied in bulk, and
only the rest reach the scalar checker, the oracle, in instance order.
Kneser settles every verdict that holds, periodic XY included. The chain
and the corollary settle a chunk of S from one cells.cell_sweep of one S
per right-translate class, each class once per task, bounded by the
deficiency prefix each reads (|S| - 1 and |S| - 2), their prefix columns
laid end to end (kernel_flags, subgroup_flags, periodic_flags).
The dichotomy walks or draws its T space in blocks of _T_BLOCK, each
settled before the next is made. Each record is streamed as its finished
JSON line (jsonl_line). With a sink each decided line is rendered from the
witness columns through its outcome's line_template (_lines), and each
undecided instance, every VIOLATED and FINDING, goes to the checker in its
place; the chain and the corollary, whose witnesses hold lists, send every
S. One _check_batch call is one unit of its task: sweep_groups' sink
takes a unit's lines joined, and run_sweep's one line per call.
run_sweep is prepare_sweep, which builds every group once and checks the
set spec against each before anything is written, then sweep_groups, the
task loop on those groups, which lists exploration mode from the tasks.
With more than one job it runs the tasks on a pool of worker processes
(_pool_sweep), dealing a streamed exhaustive task's units across the
workers and any other task whole (_striped).
Every refusal of a task as too large is an EnumerationCapError raised
where it is found: a space above max_instances in the drivers, an order
above the cap in the enumeration, masks wider than 64 bits in
cells.mask_dtype. _run_task, the one frame that catches it, turns it into
the task's one error record; a bad configuration is a SweepConfigError
that the caller reports before any task runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .cells import (
    ENUMERATION_CAP,
    CellRecord,
    EnumerationCapError,
    _byte_unions,
    _distinct,
    _full_cell_enumeration,
    _gather,
    _kernel_chain,
    _require_identity,
    balandraud_details,
    cell_sweep,
    check_enum_cap,
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
    periodic_flags,
    require_enumerable,
    stabilizer_masks,
    subgroup_flags,
    translate_class_keys,
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
    random_masks,
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


# the failed hypotheses that the sweeps also render (Olson's last two); Olson's in the order check_olson tests them
_KNESER_HYPOTHESIS = "|XY| <= |X|+|Y|-2 does not hold"
_OLSON_HYPOTHESES = ("HX = X does not hold", "KY = Y does not hold", "KX != X does not hold",
                     "HY != Y does not hold")
_EMPTY_INTERSECTION = "intersection is empty"


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
    for text, (a, b, periodic) in zip(_OLSON_HYPOTHESES,
                                      ((h, x, True), (k, y, True), (k, x, False), (h, y, False))):
        if (product(a, b) == b) != periodic:
            return _na(Theorem.OLSON, text, base)
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
        return _na(Theorem.CELL_INTERSECT, _EMPTY_INTERSECTION, base)
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
        check_enum_cap(self.enumeration_cap, "enumeration cap", SweepConfigError)
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


def line_template(record: dict) -> tuple[str, list[tuple[str, type]]]:
    """The %-format string of record's jsonl_line, and its fields.

    A value given as int, str or hex (the type, or the builtin for a mask
    rendered as "0x..."), in record or in a dict nested in it, is a field:
    %d, "%s" or "0x%x". fields holds the (key, type) of each, a key unique
    in the record, in line order (keys sorted within each dict), the order
    the template takes their values. Every other value is fixed.
    """
    markers = {kind: f"\0{i}" for i, kind in enumerate(_FIELDS)}
    fields = []

    def mark(key, value):
        if isinstance(value, dict):
            return {k: mark(k, v) for k, v in sorted(value.items())}
        kind = next((kind for kind in _FIELDS if value is kind), None)
        if kind is None:
            return value
        fields.append((key, kind))
        return markers[kind]

    line = jsonl_line(mark(None, record)).replace("%", "%%")
    if len(dict(fields)) < len(fields):
        raise ValueError(f"field keys repeat in {fields}")
    for i, fmt in enumerate(_FIELDS.values()):
        line = line.replace(f'"\\u0000{i}"', fmt)
    return line, fields


def _lines(templates: Sequence[tuple[str, list[tuple[str, type]]]], masks: Sequence[np.ndarray],
           fields: dict[str, np.ndarray], spec: Callable[[int], str]) -> list[list[str]]:
    """One list per outcome of the lines of the instances its mask picks, in order.

    templates holds each outcome's line_template (_SweepState.templates),
    which takes each field from the column of that name, a str field (a
    mask) through spec, the task's memoized mask_spec.
    """
    lines = []
    for (template, keys), mask in zip(templates, masks):
        columns = [fields[key][mask].tolist() for key, _ in keys]
        lines.append(list(map(template.__mod__, zip(*(map(spec, c) if kind is str else c
                                                       for c, (_, kind) in zip(columns, keys))))))
    return lines


class _SweepState:
    """A task's tallies, its first RECORD_CAP violations and findings and its errors.

    The task runs in units, one _check_batch call each. With lines to
    render (a sink, or a pool worker collecting them), lines holds those of
    the unit being settled, and ship hands them to sink as one str.
    """

    def __init__(self, sink: Callable[[str], None] | None = None, render: bool = False) -> None:
        self.sink = sink
        self.lines: list[str] | None = [] if render or sink is not None else None
        # mask_spec memoized for the task in a bounded cache, so a wide sampled
        # stream holds few strings, while the same mask recurs across batches
        self.spec = None if self.lines is None else functools.lru_cache(maxsize=1 << 12)(mask_spec)
        self.outcomes = self.made = None  # the last outcomes rendered, and their templates
        self.counts: dict[tuple[str, str, str], int] = {}
        self.violations: list[dict] = []
        self.findings: list[dict] = []
        self.errors: list[dict] = []

    @property
    def chunk(self) -> int:
        """About how many instances a driver hands _check_batch at once.

        With lines to render, at most _LINE_CHUNK: a unit's lines, which its
        pool worker and the parent each hold whole, stay small, and on a
        pool the units interleave finely.
        """
        return _CHUNK if self.lines is None else min(_CHUNK, _LINE_CHUNK)

    def claim(self) -> bool:
        """Whether this state settles the task's next unit; outside a pool, every one."""
        return True

    def skip(self, k: int) -> bool:
        """Whether this state settles none of the task's next k units, which then count as met."""
        return False

    def ship(self, last: bool = False) -> None:
        """Close the unit settled (the task, when last): its lines go to sink in one call."""
        if self.lines:
            self.sink("".join(self.lines))
            self.lines.clear()

    def templates(self, label: str, theorem: Theorem,
                  outcomes: Sequence[tuple[Status, dict]]) -> list[tuple[str, list[tuple[str, type]]]]:
        """The line_template of each outcome, made once for a run of units that share outcomes.

        An outcome is (status, witness skeleton), the skeleton a witness for
        line_template; a driver keeps one outcomes object per task or per S.
        """
        if self.outcomes is not outcomes:
            self.outcomes = outcomes
            self.made = [line_template(_verdict_record(label, theorem, status, witness))
                         for status, witness in outcomes]
        return self.made

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
        if self.lines is not None:
            self.lines.append(jsonl_line(record))

    def merge(self, part: _SweepState) -> None:
        """Fold in the state of the next task or unit, as if its records followed."""
        for (theorem, group, status), k in part.counts.items():
            self.tally(theorem, group, status, k)
        self.violations.extend(part.violations[:RECORD_CAP - len(self.violations)])
        self.findings.extend(part.findings[:RECORD_CAP - len(self.findings)])
        self.errors.extend(part.errors)

    def error(self, theorem: Theorem, group: str, message: str) -> None:
        record = {"kind": "error", "theorem": theorem.value, "group": group, "message": message}
        self.errors.append(record)
        if self.lines is not None:
            self.lines.append(jsonl_line(record))


def _derive_seed(*parts: object) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _s_space(g: Group, cfg: SweepConfig, seed: int) -> Sequence[ElementSet] | IdentitySubsets:
    if cfg.set_spec is not None:
        return expand_subset_specs(cfg.set_spec, g)  # checked against g by prepare_sweep
    hi = g.order if cfg.s_max is None else cfg.s_max
    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|s-space")
        return sample_identity_subsets(g, cfg.s_min, hi, cfg.s_samples, rng)
    return IdentitySubsets(g, cfg.s_min, hi)


# counting sweeps hand instances to _check_batch in chunks of about this many
_CHUNK = 1 << 16
# with lines to render, in chunks of at most this many (_SweepState.chunk)
_LINE_CHUNK = 1 << 11


def _check_batch(state: _SweepState, label: str, tags: tuple[Theorem, ...], columns: Sequence[np.ndarray],
                 check: Callable[..., TheoremVerdict | list[TheoremVerdict]],
                 settle: Callable[..., tuple[Sequence[np.ndarray], dict[str, np.ndarray]]] | None = None,
                 outcomes: Sequence[tuple[Status, dict | None]] = ()) -> None:
    """Check a batch of instances, given as parallel columns, in instance order: one unit of the task.

    A state that does not claim the unit (another pool worker settles it)
    skips it before the settle. settle(*columns) returns (masks, fields):
    one mask per outcome, the instances it decides that way, and the
    witness columns by field name. Each mask is tallied in bulk under its
    outcome's status and every tag (a statement in parts, the corollary, is
    settled only where its parts agree). The rest reach check(*instance),
    which returns one verdict or a list of them (the corollary). With lines
    to render, the unit's lines are those _lines renders for the decided
    instances with each checked instance's in its place; state.ship then
    hands the unit on.
    """
    if not state.claim():
        return

    def scalar(*instance: int) -> None:
        verdicts = check(*instance)
        for verdict in verdicts if isinstance(verdicts, list) else (verdicts,):
            state.add(label, verdict)

    if settle is not None:
        masks, fields = settle(*columns)
        counts = [int(np.count_nonzero(mask)) for mask in masks]
        for tag in tags:
            for (status, _), k in zip(outcomes, counts):
                state.tally(tag.value, label, status.value, k)
        rest = ~np.logical_or.reduce(masks)
        if state.lines is not None:
            # the decided lines placed by instance, the checked ones added in their gaps
            placed = np.empty(len(rest), dtype=object)
            for mask, lines in zip(masks, _lines(state.templates(label, tags[0], outcomes), masks, fields,
                                                 state.spec)):
                placed[mask] = lines
            placed, start = placed.tolist(), 0
            for i in np.flatnonzero(rest).tolist():
                state.lines += placed[start:i]
                scalar(*(c[i].item() for c in columns))
                start = i + 1
            state.lines += placed[start:]
            state.ship()
            return
        columns = [c[rest] for c in columns]
    for instance in zip(*(c.tolist() for c in columns)):
        scalar(*instance)
    state.ship()


# -- kneser sweep ---------------------------------------------------------

def _kneser_batch(g: Group, x: np.ndarray, y: np.ndarray,
                  xy: np.ndarray) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
    """Vectorized check_kneser over pair arrays (X, Y), given XY.

    Returns the masks (not_applicable, holds), whether |XY| <= |X|+|Y|-2
    fails and whether it holds with |XY| = |HX|+|HY|-|H| and |H| > 1 for
    H = stab(XY), and check_kneser's witness columns by name. Only the
    unsaturated pairs (XY != G) meeting the hypothesis go through the
    stabilizer; every other row has H = G and the sizes |G|, which is the
    witness of a saturated pair.
    """
    count = np.bitwise_count  # uint8: no sum below reaches 2 * 64
    xy_size = count(xy)
    bound = count(x) + count(y) - 2  # X and Y are nonempty
    hyp = xy_size <= bound
    i = np.flatnonzero(hyp & (xy != xy.dtype.type(g.full_bits)))
    h = np.full_like(xy, g.full_bits)
    h_size, hx_size, hy_size = (np.full(len(xy), g.order, dtype=np.uint8) for _ in range(3))
    h[i] = stab = stabilizer_masks(g, xy[i])
    h_size[i] = count(stab)
    hx_size[i] = count(pair_products(g, stab, x[i]))
    hy_size[i] = count(pair_products(g, stab, y[i]))
    rhs = hx_size + hy_size - h_size
    return (~hyp, hyp & (xy_size == rhs) & (h_size > 1)), dict(
        x=x, y=y, xy_size=xy_size, bound=bound, h=h, h_size=h_size, hx_size=hx_size, hy_size=hy_size,
        rhs=rhs)


def _sweep_kneser(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    explore = not g.is_abelian
    n = g.order
    base = dict(group=g.label, x=str, y=str, xy_size=int, bound=int)
    outcomes = ((Status.NOT_APPLICABLE, dict(base, failed_hypothesis=_KNESER_HYPOTHESIS)),
                (Status.HOLDS, dict(base, h=str, h_size=int, hx_size=int, hy_size=int, rhs=int)))

    def check(x: int, y: int) -> TheoremVerdict:
        return check_kneser(ElementSet(g, x), ElementSet(g, y), explore=explore)

    if cfg.mode == "sampled":
        rng = random.Random(f"{seed}|pairs")
        # object columns for a --wide group, whose masks outgrow every numpy
        # integer; its pairs all go to check_kneser
        dtype = column_dtype(n)
        for start in range(0, cfg.samples, state.chunk):
            # x and y draws alternate
            k = min(state.chunk, cfg.samples - start)
            draws = np.array(random_masks(n, rng, 2 * k), dtype=dtype)
            _check_batch(state, g.label, _TAGS["kneser"], draws.reshape(k, 2).T, check,
                         None if dtype is object
                         else lambda x, y: _kneser_batch(g, x, y, pair_products(g, x, y)), outcomes)
        return
    total = ((1 << n) - 1) ** 2
    if total > cfg.max_instances:
        raise EnumerationCapError(f"exhaustive pair space {total} exceeds max_instances {cfg.max_instances}")
    # blocks of whole Y rows, Y outer and X inner as the records run
    xs = np.arange(1, 1 << n, dtype=mask_dtype(n))
    step = max(1, state.chunk // len(xs))
    for start in range(0, len(xs), step):
        ys = xs[start:start + step]
        _check_batch(state, g.label, _TAGS["kneser"], (np.tile(xs, len(ys)), np.repeat(ys, len(xs))), check,
                     lambda x, y, ys=ys: _kneser_batch(g, x, y, pair_products_every_x(g, ys)[:, 1:].ravel()),
                     outcomes)


# -- olson sweep ----------------------------------------------------------

def _coset_table(g: Group, subgroup_bits: Sequence[int], dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Two byte tables with one column per subgroup H_i: right coset unions, and B -> H_i*B.

    Entry [256*b + v, i] of the first is the union of the right cosets of
    H_i picked by byte value v at byte position b, the cosets distinct and
    ascending; of the second, H_i*B for the set B that v names there. So
    _gather(first, rank + 1, i) is the rank-th (from 0) smallest nonempty
    union of right cosets of H_i: disjoint masks compare by their highest
    element, so rank + 1 names the rank-th union, its cosets read as binary
    digits. _gather(second, X, i) is H_i*X.
    """
    hx = _gather(translate_tables(g)[0], np.array(subgroup_bits, dtype=dtype))  # [i, x] = H_i*x
    cosets, owner = _distinct(hx.copy())  # each H_i's right cosets, ascending, end to end
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    padded = np.zeros((rank.max() + 1, len(hx)), dtype=dtype)
    padded[rank, owner] = cosets
    return _byte_unions(padded), _byte_unions(hx.T)


def _olson_batch(subgroups: np.ndarray, times: np.ndarray, hi: np.ndarray, ki: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Vectorized check_olson over columns (hi, ki, X, Y), H and K the subgroups at hi and ki.

    The sweep's X is a union of right H-cosets and its Y of K-cosets, so
    only the last two of _OLSON_HYPOTHESES can fail; times, _coset_table's
    second table, gives K*X and H*Y. Returns the masks [KX = X, HY = Y and
    not KX = X, holds] and check_olson's witness columns by name.
    """
    kx_fixed = _gather(times, x, ki) == x
    hy_fixed = (_gather(times, y, hi) == y) & ~kx_fixed
    h, k = subgroups[hi], subgroups[ki]
    h_size, k_size, meet, dxy, dyx = (np.bitwise_count(a).astype(np.int32)
                                      for a in (h, k, h & k, x & ~y, y & ~x))
    rhs = h_size + k_size - 2 * meet
    holds = ~(kx_fixed | hy_fixed) & (dxy + dyx >= rhs) & ((dxy >= h_size - meet) | (dyx >= k_size - meet))
    return [kx_fixed, hy_fixed, holds], dict(h=h, k=k, x=x, y=y, x_minus_y=dxy, y_minus_x=dyx, h_size=h_size,
                                             k_size=k_size, meet_size=meet, rhs=rhs)


def _olson_ranks(union_counts: Sequence[int], cfg: SweepConfig, seed: int, dtype: type,
                 chunk: int = _CHUNK) -> Iterator[tuple[np.ndarray, ...]]:
    """The sweep's Olson instances as rank columns (hi, ki, rank_x, rank_y), in instance order.

    X is the rank_x-th smallest nonempty union of right cosets of subgroup
    hi, and Y the rank_y-th of subgroup ki. Sampled mode draws hi, ki and
    then the two ranks, each uniform below union_counts; exhaustive mode
    walks every subgroup pair and, within it, every pair of ranks, X outer.
    Chunks hold about chunk instances.
    """
    if cfg.mode == "sampled":
        # the stdlib's randrange(c) for each draw, replayed from getrandbits as in
        # specs.random_masks: c.bit_length() bits, redrawn while >= c
        bits = random.Random(f"{seed}|olson").getrandbits
        subs = len(union_counts)
        subs_width = subs.bit_length()
        sides = [(c, c.bit_length()) for c in union_counts]
        for start in range(0, cfg.samples, chunk):
            hs, ks, xs, ys = [], [], [], []
            for _ in range(min(chunk, cfg.samples - start)):
                hi = bits(subs_width)
                while hi >= subs:
                    hi = bits(subs_width)
                ki = bits(subs_width)
                while ki >= subs:
                    ki = bits(subs_width)
                c, w = sides[hi]
                x = bits(w)
                while x >= c:
                    x = bits(w)
                c, w = sides[ki]
                y = bits(w)
                while y >= c:
                    y = bits(w)
                hs.append(hi)
                ks.append(ki)
                xs.append(x)
                ys.append(y)
            yield (np.array(hs, dtype=np.intp), np.array(ks, dtype=np.intp),
                   np.array(xs, dtype=dtype), np.array(ys, dtype=dtype))
        return
    ranks = [np.arange(c, dtype=dtype) for c in union_counts]
    parts, size = [], 0
    for hi, xs in enumerate(ranks):
        for ki, ys in enumerate(ranks):
            rows = max(1, chunk // len(ys))
            for start in range(0, len(xs), rows):
                block = xs[start:start + rows]
                n = len(block) * len(ys)
                parts.append((np.full(n, hi, dtype=np.intp), np.full(n, ki, dtype=np.intp),
                              np.repeat(block, len(ys)), np.tile(ys, len(block))))
                size += n
                if size >= chunk:
                    yield tuple(np.concatenate(col) for col in zip(*parts))
                    parts, size = [], 0
    if parts:
        yield tuple(np.concatenate(col) for col in zip(*parts))


def _sweep_olson(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    dtype = mask_dtype(g.order)
    subs = all_subgroups(g)
    bits = [h.bits for h in subs]
    # H has order/|H| right cosets, hence 2^that - 1 nonempty unions of them
    union_counts = [(1 << (g.order // h.bit_count())) - 1 for h in bits]
    if cfg.mode == "exhaustive":
        per_side = sum(union_counts)
        if per_side * per_side > cfg.max_instances:
            raise EnumerationCapError(
                f"exhaustive coset-union space {per_side}^2 exceeds max_instances {cfg.max_instances}")
    cosets, times = _coset_table(g, bits, dtype)
    base = dict(group=g.label, x=str, y=str, h=str, k=str)
    outcomes = [(Status.NOT_APPLICABLE, dict(base, failed_hypothesis=text)) for text in _OLSON_HYPOTHESES[2:]]
    outcomes.append((Status.HOLDS, dict(base, x_minus_y=int, y_minus_x=int, h_size=int, k_size=int,
                                        meet_size=int, rhs=int)))

    def check(hi: int, ki: int, x_bits: int, y_bits: int) -> TheoremVerdict:
        return check_olson(ElementSet(g, x_bits), ElementSet(g, y_bits), subs[hi], subs[ki])

    settle = functools.partial(_olson_batch, np.array(bits, dtype=dtype), times)
    for hi, ki, rank_x, rank_y in _olson_ranks(union_counts, cfg, seed, dtype, state.chunk):
        columns = (hi, ki, _gather(cosets, rank_x + 1, hi), _gather(cosets, rank_y + 1, ki))
        _check_batch(state, g.label, _TAGS["olson"], columns, check, settle, outcomes)


# -- cell intersection sweep ----------------------------------------------

def _sweep_intersection(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    for s in _s_space(g, cfg, seed):
        bits = _full_cell_enumeration(g, s.bits, cfg.enumeration_cap)[0]
        m = len(bits)
        if m * (m - 1) // 2 > cfg.max_instances:
            raise EnumerationCapError(
                f"{m} cells give {m * (m - 1) // 2} pairs, above max_instances {cfg.max_instances}")
        right = translate_tables(g)[0]
        times_s, times_inverse = column_union(right, s.bits), column_union(right, inverse_bits(g, s.bits))

        def closed(a: np.ndarray) -> np.ndarray:
            return closure_masks(g, times_inverse, _gather(times_s, a)) == a

        def settle(i: np.ndarray, j: np.ndarray) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
            m1, m2 = bits[i], bits[j]
            inter = m1 & m2
            return (inter == 0, (inter != 0) & closed(inter)), dict(m1=m1, m2=m2, intersection=inter)

        base = dict(group=g.label, s=s.spec_string(), m1=str, m2=str)
        outcomes = ((Status.NOT_APPLICABLE, dict(base, failed_hypothesis=_EMPTY_INTERSECTION)),
                    (Status.HOLDS, dict(base, intersection=str)))
        # a set that is not a cell gets no settle, so the checker sees it and refuses it
        settled = settle if bits.all() and closed(bits).all() else None
        step = max(1, state.chunk // max(m, 1))
        for start in range(0, m - 1, step):
            i, j = np.triu_indices(min(step, m - 1 - start), 1, m - start)
            _check_batch(state, g.label, _TAGS["intersection"], (i + start, j + start),
                         lambda a, b: check_cell_intersection(s, ElementSet(g, int(bits[a])),
                                                              ElementSet(g, int(bits[b]))),
                         settled, outcomes)


# -- chain and corollary sweeps -------------------------------------------

# the chain and corollary sweeps take their S space in chunks of at most
# this many sets; one cell_sweep holds the cells of a chunk's new classes,
# so the chunk bounds memory: the whole-space D8 chain traces 5.0 MiB at
# 128 sets against 9.5 MiB at 512, in the same time
_S_CHUNK = 128


def _prefix_columns(g: Group, sets: Sequence[ElementSet], rows: np.ndarray, below: int,
                    cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The enumeration prefixes, deficiency up to |S| - below, of sets[i] for i in rows.

    One cell_sweep of their masks, bounded by |S| - below per S, laid end
    to end as columns (cells, deficiency, segment), segment the i of each
    row's S; each prefix is sorted by (deficiency, size, bits).
    """
    require_enumerable(g.order, cap)
    masks = np.array([sets[i].bits for i in rows.tolist()], dtype=mask_dtype(g.order))
    cells, _, deficiency, segment = cell_sweep(g, masks, np.bitwise_count(masks) - below)
    return cells, deficiency, rows[segment]


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
    cells, deficiency, segment = _prefix_columns(g, sets, np.arange(len(sets)), 1, cap)
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
    cells, deficiency, segment = _prefix_columns(g, sets, rows, 2, cap)
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


def _class_settle(g: Group, sets: Sequence[ElementSet], cap: int,
                  batch: Callable[..., tuple[np.ndarray, np.ndarray]],
                  known: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """batch(g, sets, cap), run once on the first member of each right-translate class among sets.

    batch reads only |S| and the cells and deficiencies of S, which the
    whole class shares (translate_class_keys), so its masks are read back
    from each class's first member to every S. known holds the classes
    settled before as columns [keys, not_applicable, holds] ascending by
    key, empty at first, and gains the new ones, so a task that passes one
    list with every chunk runs the batch once per class.
    """
    keys = translate_class_keys(g, np.array([s.bits for s in sets], dtype=mask_dtype(g.order)))
    classes, first = np.unique(keys, return_index=True)
    new = ~np.isin(classes, known[0], assume_unique=True)
    if new.any():
        settled = (classes[new], *batch(g, [sets[i] for i in first[new]], cap))
        columns = [np.concatenate(pair) for pair in zip(known, settled)]
        order = np.argsort(columns[0])
        known[:] = [c[order] for c in columns]
    at = np.searchsorted(known[0], keys)
    return tuple(mask[at] for mask in known[1:])


def _sweep_sets(g: Group, cfg: SweepConfig, state: _SweepState, seed: int, task: str,
                check: Callable[[ElementSet], TheoremVerdict | list[TheoremVerdict]],
                batch: Callable[..., tuple[np.ndarray, np.ndarray]]) -> None:
    """Check one instance per S of the S space, in chunks of _S_CHUNK sets.

    batch(g, sets, cap) settles a list of sets, as (not_applicable, holds);
    _class_settle runs it once per right-translate class of the task, the
    verdicts of the classes met in earlier chunks kept. The witnesses hold
    lists and have no templates, so with a sink every S goes to the
    checker. A group above the enumeration cap gets no settle, so the
    checker refuses it at its first S that needs the enumeration, as alone.
    """
    cap = cfg.enumeration_cap
    sets = iter(_s_space(g, cfg, seed))
    known = [np.zeros(0, dtype=mask_dtype(g.order)), np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)]
    while chunk := list(itertools.islice(sets, _S_CHUNK)):
        _check_batch(state, g.label, _TAGS[task], (np.arange(len(chunk)),), lambda i: check(chunk[i]),
                     (lambda _: (_class_settle(g, chunk, cap, batch, known), {}))
                     if state.lines is None and g.order <= cap else None,
                     ((Status.NOT_APPLICABLE, None), (Status.HOLDS, None)))


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
                     hs_size: int, t: np.ndarray) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
    """Vectorized check_dichotomy over an array of T masks.

    times_s and h_times are the byte tables of X -> X*S and X -> H*X, and
    hs_size is |HS|. Returns the masks (additive, periodic) of the two
    branches that hold, |TS| >= |T|+|S|-1, or else TS H-periodic with
    |TS| <= |HS|+|HT|-|H|, and check_dichotomy's witness columns by name.
    """
    ts = _gather(times_s, t)
    ts_size = np.bitwise_count(ts).astype(np.int32)
    additive_bound = np.bitwise_count(t).astype(np.int32) + (s_size - 1)
    additive = ts_size >= additive_bound
    periodic = _gather(h_times, ts) == ts
    ht_size = np.bitwise_count(_gather(h_times, t)).astype(np.int32)
    coset_bound = ht_size + (hs_size - h_size)
    return (additive, ~additive & periodic & (ts_size <= coset_bound)), dict(
        t=t, ts_size=ts_size, additive_bound=additive_bound, ht_size=ht_size, coset_bound=coset_bound)


# the sampled dichotomy draws its T in units of this many; a unit draws all
# its sizes before any of its keys, so changing it changes every seeded stream
_T_UNIT = 1 << 17
# the dichotomy draws, selects and settles its T space in blocks of this many
# rows, whose keys (about 1 MB at order 16) stay in a core's L2 cache; the
# draws do not depend on it
_T_BLOCK = 1 << 13


def _sampled_t_masks(g: Group, count: int, rng: np.random.Generator,
                     block: int = _T_BLOCK) -> Iterator[np.ndarray]:
    """count random nonempty T masks, in blocks of at most block: for a uniform size in
    1..n, the indices of the size smallest of n uniform keys, ties going to the lower index
    as in a stable argsort.

    Each unit of _T_UNIT draws all its sizes, then its keys block by block,
    the rows of one stream in order, so the masks do not depend on block.
    """
    n = g.order
    powers = mask_dtype(n)(1) << np.arange(n, dtype=mask_dtype(n))
    for unit in range(0, count, _T_UNIT):
        sizes = rng.integers(1, n + 1, size=min(_T_UNIT, count - unit))
        for start in range(0, len(sizes), block):
            size = sizes[start:start + block]
            keys = rng.random((len(size), n))
            cut = np.sort(keys, axis=1)[np.arange(len(size)), size - 1][:, None]
            masks = (keys <= cut).view(np.uint8) @ powers
            # rows with several keys tied at the cut took too many: keep the lowest-index tied ones
            over = np.flatnonzero(np.bitwise_count(masks) > size)
            below, tied = keys[over] < cut[over], keys[over] == cut[over]
            room = size[over, None] - below.sum(axis=1, keepdims=True)
            keep = below | (tied & (np.cumsum(tied, axis=1) <= room))
            masks[over] = keep.view(np.uint8) @ powers
            yield masks


def _sweep_dichotomy(g: Group, cfg: SweepConfig, state: _SweepState, seed: int) -> None:
    """Check every (S, T) of the S space and the T space, T in blocks of _T_BLOCK or state.chunk.

    Each block is drawn or walked, settled and tallied before the next, so
    nothing of the size of the whole T space or of a draw unit's keys is
    held. Exhaustive mode walks T = 1 .. 2^n - 1; sampled mode draws
    cfg.samples T per S (_sampled_t_masks) from a generator seeded by S.
    """
    explore = not g.is_abelian
    n = g.order
    block = min(_T_BLOCK, state.chunk)
    total = (1 << n) - 1
    for s in _s_space(g, cfg, seed):
        # a pool worker that settles none of the blocks of S skips its set-up,
        # balandraud_details' enumeration above all
        if cfg.mode == "exhaustive" and state.skip(-(-total // block)):
            continue
        h = balandraud_details(s, cap=cfg.enumeration_cap).subgroup
        # after the enumeration, which refuses a group too large for mask tables
        right, left = translate_tables(g)
        hs_size = product_bits(g, h.bits, s.bits).bit_count()
        settle = functools.partial(_dichotomy_batch, column_union(right, s.bits), column_union(left, h.bits),
                                   len(s), len(h), hs_size)
        base = dict(group=g.label, s=s.spec_string(), h=h.spec_string(), t=str, ts_size=int, additive_bound=int)
        outcomes = ((Status.HOLDS, dict(base, branch="additive")),
                    (Status.HOLDS, dict(base, branch="periodic", periodic=True, hs_size=hs_size, ht_size=int,
                                        h_size=len(h), coset_bound=int)))
        if cfg.mode == "exhaustive":
            if total > cfg.max_instances:
                raise EnumerationCapError(
                    f"exhaustive T space {total} exceeds max_instances {cfg.max_instances}")
            blocks = (np.arange(start, min(start + block, total + 1), dtype=mask_dtype(n))
                      for start in range(1, total + 1, block))
        else:
            rng = np.random.default_rng(_derive_seed(seed, s.bits, "t-draws"))
            blocks = _sampled_t_masks(g, cfg.samples, rng, block)
        for t_arr in blocks:
            _check_batch(state, g.label, _TAGS["dichotomy"], (t_arr,),
                         lambda t: check_dichotomy(s, h, ElementSet(g, t), explore=explore),
                         settle, outcomes)


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


def _run_task(g: Group, theorem: str, cfg: SweepConfig, state: _SweepState) -> _SweepState:
    """Run one (group, theorem) task into state, a fresh one; a refused task ends in one error record.

    The task's end, with its error record if refused, is shipped as the
    unit after the last one settled, so in a pool the worker that owns that
    unit tells it: once, in its serial place.
    """
    seed = _derive_seed(cfg.seed if cfg.seed is not None else 0, g.label, theorem)
    try:
        _DRIVERS[theorem](g, cfg, state, seed)
    except EnumerationCapError as exc:
        state.error(_TAGS[theorem][0], g.label, str(exc))
    if state.claim():
        state.ship(last=True)
    return state


def _tasks(config: SweepConfig) -> list[tuple[str, str]]:
    """The (group spec, theorem) tasks of a sweep, in stream order."""
    return [(spec, theorem) for spec in config.groups for theorem in config.theorems]


def _usable_cpus() -> int:
    """How many CPUs this process may run on, the most workers a pool starts."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13 on
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _striped(cfg: SweepConfig, collect: bool) -> bool:
    """Whether a pool deals each task unit by unit across its workers, rather than whole.

    Only a stream of exhaustive tasks is striped, its lines being most of
    the work. A sampled task's seeded draws are one sequence, which every
    other worker would draw again; a counting task renders nothing, and
    every worker would repeat its per-S set-up (the intersection's cells,
    the chain's class verdicts) for units of up to _CHUNK instances.
    """
    return collect and cfg.mode == "exhaustive"


def _owner(cfg: SweepConfig, task: int, unit: int, striped: bool) -> int:
    """The pool worker, of cfg.jobs, that settles unit `unit` of task `task`.

    Striped units are dealt in turn, task i's from worker i % jobs, so a
    run of one-unit tasks spreads too; a task dealt whole runs on worker
    i % jobs.
    """
    return (task + (unit if striped else 0)) % cfg.jobs


class _DealtState(_SweepState):
    """A pool worker's state for task `task`: it settles the units that _owner deals to seat.

    claim skips every other unit before its settle. ship sends on conn, as
    one message (task, lines joined, a state of the tallies and records
    since the last message, last), each owned unit of a striped task, and
    of a task dealt whole each unit with lines and the task's end. What a
    worker keeps after its last owned unit, such as a refusal's error
    record that the owner of the next unit also tells, is dropped with the
    state.
    """

    def __init__(self, cfg: SweepConfig, task: int, seat: int, collect: bool, conn) -> None:
        super().__init__(render=collect)
        self.cfg, self.task, self.seat, self.conn = cfg, task, seat, conn
        self.striped = _striped(cfg, collect)
        self.units = 0  # of the task, met so far

    def claim(self) -> bool:
        if _owner(self.cfg, self.task, self.units, self.striped) == self.seat:
            return True
        self.units += 1
        return False

    def skip(self, k: int) -> bool:
        # the deal repeats every cfg.jobs units
        if any(_owner(self.cfg, self.task, self.units + j, self.striped) == self.seat
               for j in range(min(k, self.cfg.jobs))):
            return False
        self.units += k
        return True

    def ship(self, last: bool = False) -> None:
        if not (self.striped or self.lines or last):
            return
        part = _SweepState()
        part.counts, part.violations, part.findings, part.errors = (
            self.counts, self.violations, self.findings, self.errors)
        self.counts, self.violations, self.findings, self.errors = {}, [], [], []
        text = "".join(self.lines) if self.lines else ""
        if self.lines:
            self.lines.clear()
        self.conn.send((self.task, text, part, last))
        self.units += 1


def _worker(seat: int, groups: dict[str, Group], cfg: SweepConfig, collect: bool, conn) -> None:
    """Pool worker `seat` of cfg.jobs: run the tasks in order, sending the units dealt to it on conn.

    It runs every striped task (_striped) and each task dealt whole to it,
    each into a _DealtState, rendering lines if collect. conn is the write
    end of a one-way pipe whose read end only the parent holds; a send
    returns once the message is in the pipe, and blocks while the pipe is
    full, so the worker runs at most about one unit ahead of the parent. A
    task that raises ends in (task, None, (exception, traceback), True)
    instead, and the worker goes on to its next task: the parent raises it,
    unless the task had ended in another worker's unit before this worker
    got there. groups are the parent's, built once by prepare_sweep:
    inherited under fork, pickled under spawn and forkserver.
    """
    striped = _striped(cfg, collect)
    for i, (spec, theorem) in enumerate(_tasks(cfg)):
        if not striped and _owner(cfg, i, 0, striped) != seat:
            continue
        try:
            _run_task(groups[spec], theorem, cfg, _DealtState(cfg, i, seat, collect, conn))
        except Exception as exc:
            conn.send((i, None, (exc, traceback.format_exc()), True))


def _pool_sweep(tasks: list[tuple[str, str]], groups: dict[str, Group], config: SweepConfig,
                sink: Callable[[str], None] | None, state: _SweepState) -> None:
    """Run tasks on config.jobs worker processes and merge their units into state in stream order.

    Each worker has its own pipe. The parent takes each task's messages in
    order, each from the worker that owns its unit (_owner), passes each
    one's lines to sink in one call and merges its state, up to the task's
    last message. A message of an earlier task is dropped, whatever it
    carries: a worker that did not see a refusal inside another's unit runs
    on past the task's end. A worker that raises in the task being read
    makes this raise its exception, naming the task. A
    worker that ends without finishing task i closes its pipe: every
    message it sent is still read, then end-of-file makes this raise
    RuntimeError, naming task i and the worker's exit code. No worker
    outlives the call.
    """

    def named(i: int) -> str:
        return f"task {i} ({tasks[i][1]} on {tasks[i][0]})"

    striped = _striped(config, sink is not None)
    ctx = multiprocessing.get_context()
    conns: list = []
    procs: list = []
    try:
        for w in range(config.jobs):
            conn, out = ctx.Pipe(duplex=False)
            conns.append(conn)
            # closed once started, so the worker holds the only write end and its exit ends the pipe
            with out:
                p = ctx.Process(target=_worker, name=f"cellkit-sweep-{w}",
                                args=(w, groups, config, sink is not None, out))
                p.start()
            procs.append(p)
        for i in range(len(tasks)):
            unit = 0
            while True:
                w = _owner(config, i, unit, striped)
                try:
                    task, text, part, last = conns[w].recv()
                except (EOFError, OSError) as exc:
                    if type(exc) not in (EOFError, OSError):  # not the pipe's end, nor a message cut short
                        raise
                    procs[w].join()
                    raise RuntimeError(f"{named(i)} did not finish: a sweep worker exited with code "
                                       f"{procs[w].exitcode}") from None
                if task != i:
                    continue
                if text is None:
                    exc, trace = part
                    raise exc from RuntimeError(f"{named(i)} failed in a sweep worker:\n{trace}")
                if text:
                    sink(text)
                state.merge(part)
                if last:
                    break
                unit += 1
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

    sink takes whole lines: each unit's (a _check_batch call's) joined into
    one str, and each task's end, its error record if refused. With more
    than one job, at most _usable_cpus(), the tasks run on a pool of worker
    processes (_pool_sweep): an exhaustive task with a sink dealt across
    the workers unit by unit, any other whole, so no more workers start
    than there are tasks. Their units reach sink in the same order, so
    neither the stream nor the result depends on the jobs, and each worker
    holds about one unit however long the stream.
    """
    tasks = _tasks(config)
    state = _SweepState()
    jobs = min(config.jobs, _usable_cpus())
    if not _striped(config, sink is not None):
        jobs = min(jobs, len(tasks))
    if jobs <= 1:
        for spec, theorem in tasks:
            state.merge(_run_task(groups[spec], theorem, config, _SweepState(sink)))
    else:
        _pool_sweep(tasks, groups, dataclasses.replace(config, jobs=jobs), sink, state)
    # every abelian-only statement on a nonabelian group, refused tasks included
    exploration = {(tag.value, groups[spec].label) for spec, theorem in tasks
                   if theorem in _ABELIAN_ONLY and not groups[spec].is_abelian for tag in _TAGS[theorem]}
    counts: dict[str, dict[str, dict[str, int]]] = {}
    totals: dict[str, int] = {}
    for (theorem, group, status), k in sorted(state.counts.items()):
        counts.setdefault(theorem, {}).setdefault(group, {})[status] = k
        totals[status] = totals.get(status, 0) + k
    summary = {
        "instances": sum(totals.values()),
        "counts": counts,
        "totals": dict(sorted(totals.items())),
        "exploration": [list(e) for e in sorted(exploration)],
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
    return sweep_groups(config, prepare_sweep(config), None if sink is None else _per_line(sink))


def _per_line(sink: Callable[[str], None]) -> Callable[[str], None]:
    """A sink of whole lines, as sweep_groups calls it, that passes sink one line per call."""

    def write(text: str) -> None:
        for line in text.splitlines(keepends=True):
            sink(line)
    return write
