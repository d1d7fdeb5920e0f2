"""The four benchmark workloads and the checks on their outputs.

Each workload turns the benchmark seed into a fixed list of operations; an
operation makes one or more calls into a cellkit entry point (`run_sweep` or
`cli.main`) and is the unit whose latency and failure are counted. A pass
runs the whole list; every pass of a run repeats the same list, so outputs
must repeat exactly from pass to pass. Checks run outside the timed region:
`expectations()` computes what each operation must return (closed-form
totals, brute-force oracles, and frozen counts from frozen.json), and
`verify_once()` compares a pass against library calls and counting-mode
sweeps.

The composition of every list (groups, |S| strata, sample counts) is fixed;
the seed only draws the subsets, the sampled instances and the query order.
That keeps the per-run cost comparable from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import calibrate
import oracles

DEFAULT_SEED = 0
FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for cellkit, derived from the benchmark seed and a label."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def spec_of(bits: int) -> str:
    return "{" + ",".join(str(i) for i in range(bits.bit_length()) if (bits >> i) & 1) + "}"


def draw_identity_subset(rng: random.Random, order: int, size: int) -> int:
    bits = 1
    for i in rng.sample(range(1, order), size - 1):
        bits |= 1 << i
    return bits


class CountingSink(io.TextIOBase):
    """A stdout stand-in that counts what is written and keeps the tail."""

    def __init__(self) -> None:
        self.bytes = 0
        self.lines = 0
        self.prev = ""
        self.last = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.bytes += len(text)
        self.lines += text.count("\n")
        if text:
            self.prev, self.last = self.last, text
        return len(text)

    def last_line(self) -> str:
        tail = (self.prev + self.last).rstrip("\n")
        return tail.rsplit("\n", 1)[-1]


class NullSink(io.TextIOBase):
    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return len(text)


@dataclass
class Op:
    label: str
    run: Callable[[], object]


@dataclass
class PassOutcome:
    wall: float
    latencies: list[float]
    records: list
    stdout_bytes: int = 0
    cache_bytes: int = 0
    scales: list[float] = field(default_factory=list)


class Workload:
    """Base class: a fixed list of operations plus their checks."""

    name = ""

    def __init__(self, ck, seed: int, smoke: bool, work_dir: Path) -> None:
        self.ck = ck
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.first_raws: list | None = None
        self.ops: list[Op] = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Untimed preparation at the start of each pass."""

    def digest(self, raw) -> object:
        """The comparable record kept for one operation's raw result."""
        return raw

    def work(self, record) -> int:
        return 1

    def run_pass(self, tracer=None, calibrated: bool = False) -> PassOutcome:
        """Run every operation once.

        With calibrated=True a reference-loop chunk runs before the first
        operation and after each one; its time is left out of the pass wall
        time, and each operation gets the speed scale of the chunks around it.
        """
        self.before_pass()
        raws, latencies, chunks = [], [], []
        if calibrated:
            chunks.append(calibrate.chunk())
        start = perf_counter()
        if tracer is not None:
            tracer.begin_pass(tracer.pass_no + 1)
        for op in self.ops:
            t0 = perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # recorded as a failed operation
                raw = exc
            latencies.append(perf_counter() - t0)
            raws.append(raw)
            if calibrated:
                chunks.append(calibrate.chunk())
        if tracer is not None:
            tracer.end_pass()
        wall = perf_counter() - start - sum(chunks[1:])
        if self.first_raws is None:
            self.first_raws = raws
        outcome = PassOutcome(wall, latencies, [])
        if calibrated:
            outcome.scales = [calibrate.scale((a + b) / 2) for a, b in zip(chunks, chunks[1:])]
        else:
            outcome.scales = [1.0] * len(latencies)
        outcome.records = [r if isinstance(r, Exception) else self.digest(r) for r in raws]
        outcome.stdout_bytes = self.stdout_bytes(raws)
        outcome.cache_bytes = self.cache_bytes()
        return outcome

    def stdout_bytes(self, raws) -> int:
        return 0

    def cache_bytes(self) -> int:
        return 0

    def expectations(self) -> list:
        raise NotImplementedError

    def check(self, record, expected) -> list[str]:
        raise NotImplementedError

    def check_pass(self, records) -> dict[int, list[str]]:
        """Checks across the operations of one pass; failures keyed by operation index."""
        return {}

    def verify_once(self, records) -> dict[int, list[str]]:
        """Extra untimed checks on the first pass; failures keyed by operation index."""
        return {}

    def inject_fault(self, expected: list) -> None:
        """Corrupt one expected value, for the self-test of the failure path."""
        raise NotImplementedError

    def frozen(self, label: str, seed_dependent: bool) -> dict | None:
        """Verdict totals recorded in frozen.json; seed-dependent ones only at the default seed."""
        if seed_dependent and self.seed != DEFAULT_SEED:
            return None
        section = "default_seed" if seed_dependent else "any_seed"
        scale = "smoke" if self.smoke else "full"
        table = FROZEN[section][scale].get(self.name, {})
        if label not in table:
            raise KeyError(f"no frozen totals for {self.name} {label!r} ({section}, {scale})")
        return table[label]


# -- sweep workloads ------------------------------------------------------

# One group per isomorphism class, as in cellkit's built-in catalog.
ORDER_2_TO_8 = ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "D3", "Z7", "Z8", "Z2xZ4",
                "Z2xZ2xZ2", "D4", "Q8"]
ABELIAN_2_TO_11 = ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2",
                   "Z9", "Z3xZ3", "Z10", "Z11"]
ABELIAN_11_TO_16 = ["Z11", "Z12", "Z2xZ6", "Z13", "Z14", "Z15", "Z16", "Z2xZ8", "Z4xZ4",
                    "Z2xZ2xZ4", "Z2xZ2xZ2xZ2"]

@dataclass
class SweepExpect:
    label: str
    instances: int
    totals: dict | None


@dataclass(frozen=True)
class SweepRecord:
    instances: int
    totals: dict
    errors: int

    @classmethod
    def of(cls, result) -> SweepRecord:
        summary = result.summary
        return cls(summary["instances"], dict(summary["totals"]),
                   max(summary["errors"], len(result.errors)))


def check_sweep_counts(instances: int, totals: dict, errors: int, expected: SweepExpect) -> list[str]:
    failures = []
    if totals.get("VIOLATED", 0):
        failures.append(f"{totals['VIOLATED']} VIOLATED verdicts")
    if errors:
        failures.append(f"{errors} error records")
    if instances != expected.instances:
        failures.append(f"instances {instances} != expected {expected.instances}")
    if expected.totals is not None and totals != expected.totals:
        failures.append(f"totals {totals} != expected {expected.totals}")
    return [f"{expected.label}: {f}" for f in failures]


@dataclass
class Task:
    """One counting-mode run_sweep call and how to compute its expected result."""

    label: str
    config: object
    expect: Callable[[], SweepExpect]


class SweepWorkload(Workload):
    """Counting-mode run_sweep calls (jobs=1). An operation runs a list of
    tasks, one run_sweep call per (group, theorem[, S])."""

    def task(self, label: str, expect: Callable[[str], SweepExpect], **fields) -> Task:
        return Task(label, self.ck.SweepConfig(jobs=1, **fields), lambda: expect(label))

    def sweep_op(self, label: str, tasks: list[Task]) -> Op:
        theorems = self.ck.theorems
        self.tasks.append(tasks)
        # run_sweep is looked up on the module at call time, so a traced pass
        # goes through the tracer's wrapper
        return Op(label, lambda: [theorems.run_sweep(t.config) for t in tasks])

    def digest(self, raw) -> tuple[SweepRecord, ...]:
        return tuple(SweepRecord.of(r) for r in raw)

    def work(self, record: tuple[SweepRecord, ...]) -> int:
        return sum(r.instances for r in record)

    def expectations(self) -> list[list[SweepExpect]]:
        return [[t.expect() for t in tasks] for tasks in self.tasks]

    def check(self, record, expected: list[SweepExpect]) -> list[str]:
        failures = []
        for r, e in zip(record, expected):
            failures += check_sweep_counts(r.instances, r.totals, r.errors, e)
        return failures

    def inject_fault(self, expected: list) -> None:
        expected[0][0].instances += 1


class SweepScalar(SweepWorkload):
    """Olson, intersection, chain and corollary over built-in groups of order <= 8.

    One operation sweeps one group: sampled Olson, cell intersection on one
    seeded S of each size 2..4, and the chain and corollary over every S of
    size <= 4. Timing a group rather than each run_sweep call keeps the
    median latency from hinging on which S the seed drew.
    """

    name = "sweep-scalar"

    def build(self) -> list[Op]:
        specs = ["Z4", "D3", "Q8"] if self.smoke else ORDER_2_TO_8
        olson_samples = 200 if self.smoke else 2000
        s_max = 3 if self.smoke else 4
        self.tasks: list[list[Task]] = []
        return [self.sweep_op(spec, self.group_tasks(spec, olson_samples, s_max)) for spec in specs]

    def group_tasks(self, spec: str, olson_samples: int, s_max: int) -> list[Task]:
        g = self.ck.build_group(spec)
        tasks = [self.task(
            f"olson {spec}",
            lambda label: SweepExpect(label, olson_samples, self.frozen(label, True)),
            groups=(spec,), theorems=("olson",), mode="sampled", samples=olson_samples,
            seed=derive_seed(self.seed, self.name, spec, "olson"))]
        rng = random.Random(f"{self.seed}|{self.name}|{spec}|S")
        for size in range(2, min(s_max, g.order) + 1):
            s_bits = draw_identity_subset(rng, g.order, size)
            tasks.append(self.task(
                f"intersection {spec} {spec_of(s_bits)}",
                lambda label, s_bits=s_bits: self.intersection_expect(label, g, s_bits),
                groups=(spec,), theorems=("intersection",), set_spec=spec_of(s_bits)))
        n = oracles.identity_subsets_up_to(g.order, s_max)
        tasks.append(self.task(f"chain {spec}", lambda label: SweepExpect(label, n, {"HOLDS": n}),
                               groups=(spec,), theorems=("chain",), s_max=s_max))
        tasks.append(self.task(
            f"corollary {spec}", lambda label: SweepExpect(label, 3 * n, self.frozen(label, False)),
            groups=(spec,), theorems=("corollary",), s_max=s_max))
        return tasks

    @staticmethod
    def intersection_expect(label: str, g, s_bits: int) -> SweepExpect:
        meet, empty = oracles.intersection_counts(g.mul, s_bits)
        totals = {k: v for k, v in (("HOLDS", meet), ("NOT_APPLICABLE", empty)) if v}
        return SweepExpect(label, meet + empty, totals)


class SweepBulk(SweepWorkload):
    """Exhaustive Kneser to order 11 and sampled dichotomy on orders 11..16.

    One operation is one run_sweep call: Kneser on one group, or dichotomy
    on one (group, S).
    """

    name = "sweep-bulk"

    def build(self) -> list[Op]:
        ck = self.ck
        if self.smoke:
            kneser_specs, dich_specs, samples, sizes = ["Z5", "Z2xZ4"], ["Z11", "Z12"], 2000, (3,)
        else:
            kneser_specs, dich_specs = ABELIAN_2_TO_11, ABELIAN_11_TO_16
            samples, sizes = 100_000, (3, 6)
        self.tasks: list[list[Task]] = []
        ops = []
        for spec in kneser_specs:
            n = ((1 << ck.build_group(spec).order) - 1) ** 2
            label = f"kneser {spec}"
            ops.append(self.sweep_op(label, [self.task(
                label, lambda label, n=n: SweepExpect(label, n, self.frozen(label, False)),
                groups=(spec,), theorems=("kneser",))]))
        for spec in dich_specs:
            g = ck.build_group(spec)
            rng = random.Random(f"{self.seed}|{self.name}|{spec}|S")
            for size in sizes:
                s_bits = draw_identity_subset(rng, g.order, size)
                label = f"dichotomy {spec} {spec_of(s_bits)}"
                ops.append(self.sweep_op(label, [self.task(
                    label, lambda label: SweepExpect(label, samples, {"HOLDS": samples}),
                    groups=(spec,), theorems=("dichotomy",), mode="sampled", samples=samples,
                    set_spec=spec_of(s_bits), seed=derive_seed(self.seed, self.name, spec, s_bits))]))
        return ops


# -- CLI workloads --------------------------------------------------------

@dataclass(frozen=True)
class StreamRecord:
    rc: int
    lines: int
    summary: dict | None


class StreamJsonl(Workload):
    """`cellkit verify --format jsonl` with stdout sent to a counting sink.

    The exhaustive call runs at --jobs 2 and so goes through the process
    pool. The seeded sampled calls run at --jobs 1: at --jobs 2 their latency
    was mostly pool start-up on the second core, which other tenants of a
    shared host slow unpredictably.
    """

    name = "stream-jsonl"
    small_pairs = (("Z5", "Z7"), ("Z9", "Z10"), ("Z3xZ3", "Z11"), ("Z12", "Z13"),
                   ("Z2xZ6", "Z14"), ("Z15", "Z16"), ("Z2xZ8", "Z4xZ4"),
                   ("Z2xZ2xZ4", "Z2xZ2xZ2xZ2"), ("Z6", "Z8"))

    def __init__(self, ck, seed: int, smoke: bool, work_dir: Path, jobs: int = 2,
                 sampled: bool = True) -> None:
        self.jobs = jobs  # of the exhaustive call
        self.sampled = sampled
        super().__init__(ck, seed, smoke, work_dir)

    def build(self) -> list[Op]:
        if self.smoke:
            big, pairs, rounds, samples = ("Z5", "Z6"), self.small_pairs[:2], 1, 100
        else:
            big, pairs, rounds, samples = ("Z6", "Z8", "Z2xZ4"), self.small_pairs, 4, 200
        self.configs: list[dict] = [dict(groups=big, mode="exhaustive", samples=100_000,
                                         seed=None, round=0, jobs=self.jobs)]
        for r in range(rounds if self.sampled else 0):
            for pair in pairs:
                self.configs.append(dict(groups=pair, mode="sampled", samples=samples, round=r,
                                         seed=derive_seed(self.seed, self.name, r, *pair), jobs=1))
        return [self.cli_op(cfg) for cfg in self.configs]

    def cli_op(self, cfg: dict) -> Op:
        argv = ["verify", "--groups", ",".join(cfg["groups"]), "--theorem", "kneser",
                "--mode", cfg["mode"], "--samples", str(cfg["samples"]),
                "--format", "jsonl", "--jobs", str(cfg["jobs"])]
        if cfg["seed"] is not None:
            argv += ["--seed", str(cfg["seed"])]
        cli = self.ck.cli

        def run():
            sink = CountingSink()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(NullSink()):
                rc = cli.main(argv)
            return rc, sink
        return Op(f"verify {','.join(cfg['groups'])} {cfg['mode']}", run)

    def digest(self, raw) -> StreamRecord:
        rc, sink = raw
        try:
            summary = json.loads(sink.last_line())
        except json.JSONDecodeError:
            summary = None
        return StreamRecord(rc, sink.lines, summary)

    def stdout_bytes(self, raws) -> int:
        return sum(raw[1].bytes for raw in raws if not isinstance(raw, Exception))

    def work(self, record: StreamRecord) -> int:
        return record.summary["instances"] if record.summary else 0

    def label_key(self, cfg: dict) -> str:
        return f"{','.join(cfg['groups'])} {cfg['mode']} {cfg['samples']} round {cfg['round']}"

    def expectations(self) -> list[SweepExpect]:
        out = []
        for cfg in self.configs:
            if cfg["mode"] == "exhaustive":
                n = sum(((1 << self.ck.build_group(s).order) - 1) ** 2 for s in cfg["groups"])
                out.append(SweepExpect(self.label_key(cfg), n,
                                       self.frozen(self.label_key(cfg), seed_dependent=False)))
            else:
                n = cfg["samples"] * len(cfg["groups"])
                out.append(SweepExpect(self.label_key(cfg), n,
                                       self.frozen(self.label_key(cfg), seed_dependent=True)))
        return out

    def check(self, record: StreamRecord, expected: SweepExpect) -> list[str]:
        if record.rc != 0:
            return [f"exit code {record.rc}"]
        summary = record.summary
        if not summary or summary.get("kind") != "summary":
            return ["the stream does not end with a summary record"]
        failures = check_sweep_counts(summary["instances"], summary["totals"],
                                      summary["errors"], expected)
        if record.lines != summary["instances"] + 2:
            failures.append(f"{record.lines} records for {summary['instances']} instances "
                            f"plus manifest and summary")
        return failures

    def verify_once(self, records) -> dict[int, list[str]]:
        """The stream's summary must equal a counting-mode sweep of the same config."""
        failures: dict[int, list[str]] = {}
        for i, (cfg, record) in enumerate(zip(self.configs, records)):
            if isinstance(record, Exception) or not record.summary:
                continue
            counted = self.ck.run_sweep(self.ck.SweepConfig(
                groups=cfg["groups"], theorems=("kneser",), mode=cfg["mode"],
                samples=cfg["samples"], seed=cfg["seed"]), sink=None).summary
            streamed = {k: v for k, v in record.summary.items() if k != "kind"}
            if streamed != counted:
                failures.setdefault(i, []).append("stream summary differs from counting-mode run_sweep")
        return failures

    def inject_fault(self, expected: list) -> None:
        expected[0].instances += 1


@dataclass(frozen=True)
class QueryRecord:
    rc: int
    digest: str
    size: int


@dataclass
class Query:
    command: str
    group: str
    s_bits: int
    first: int | None  # index of the query this one repeats


class QueryCells(Workload):
    """Single-subset `cells` and `subgroup` CLI queries; every cells query is asked twice.

    The cache directory is emptied at the start of each pass, so the second
    asking of a cells query is the only cache hit. Every query names a
    built-in group, so the stale-cache defect of `cayley:` groups (whose
    cache key is the file path) is not exercised here.
    """

    name = "query-cells"
    # |S| = 2 is left out on the order-20 groups: there one query costs about
    # a second (Z20, Z4xZ5) or, on D10, 0.1 s or 0.9 s depending on whether S
    # holds a rotation or a reflection, which would let a few draws decide
    # the whole pass.
    full_plan = (  # (group, cells |S| list, subgroup |S| list)
        ("Z12", (2, 3, 4, 5, 6) * 2, (2, 3, 4, 5, 6) * 2),
        ("Z16", (2, 3, 4, 5, 6), (2, 3, 4, 5, 6)),
        ("Z2xZ8", (2, 3, 4, 5, 6), (2, 3, 4, 5, 6)),
        ("D8", (2, 3, 4, 5, 6), (2, 3, 4, 5, 6)),
        ("Z18", (2, 3, 4, 5, 6), (2, 3, 4, 5, 6)),
        ("Z20", (3, 4, 5, 6), (3, 4, 5, 6)),
        ("Z4xZ5", (3, 4, 5, 6), (3, 4, 5, 6)),
        ("D10", (3, 4, 5, 6), (3, 4, 5, 6)),
    )
    smoke_plan = (("Z12", (2, 4), (3,)), ("D8", (3,), (2,)))
    oracle_max_order = 12

    def build(self) -> list[Op]:
        self.cache_dir = self.work_dir / "query-cache"
        self.fault_index: int | None = None
        rng = random.Random(f"{self.seed}|{self.name}")
        distinct: list[Query] = []
        for spec, cell_sizes, sub_sizes in (self.smoke_plan if self.smoke else self.full_plan):
            order = self.ck.build_group(spec).order
            for command, sizes in (("cells", cell_sizes), ("subgroup", sub_sizes)):
                drawn: set[int] = set()
                for size in sizes:
                    s_bits = draw_identity_subset(rng, order, size)
                    while s_bits in drawn:
                        s_bits = draw_identity_subset(rng, order, size)
                    drawn.add(s_bits)
                    distinct.append(Query(command, spec, s_bits, None))
        rng.shuffle(distinct)
        queries = list(distinct)
        for q in distinct:
            if q.command == "cells":
                after = next(i for i, p in enumerate(queries) if p is q) + 1
                queries.insert(rng.randint(after, len(queries)), Query(q.command, q.group, q.s_bits, -1))
        position = {(q.command, q.group, q.s_bits): i for i, q in enumerate(queries) if q.first is None}
        for q in queries:
            if q.first is not None:
                q.first = position[(q.command, q.group, q.s_bits)]
        self.queries = queries
        self.repeat_share = sum(q.first is not None for q in queries) / len(queries)
        return [self.cli_op(q) for q in queries]

    def cli_op(self, q: Query) -> Op:
        argv = [q.command, q.group, spec_of(q.s_bits), "--format", "jsonl"]
        if q.command == "cells":
            argv += ["--cache-dir", str(self.cache_dir)]
        cli = self.ck.cli

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(NullSink()):
                rc = cli.main(argv)
            return rc, out.getvalue()
        return Op(" ".join(argv[:3]), run)

    def before_pass(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def digest(self, raw) -> QueryRecord:
        rc, text = raw
        return QueryRecord(rc, hashlib.sha256(text.encode()).hexdigest(), len(text))

    def stdout_bytes(self, raws) -> int:
        return sum(len(raw[1]) for raw in raws if not isinstance(raw, Exception))

    def cache_bytes(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.cache_dir.iterdir() if p.is_file())

    def expectations(self) -> list:
        return [None] * len(self.queries)

    def check(self, record: QueryRecord, expected) -> list[str]:
        if record.rc != 0:
            return [f"exit code {record.rc}"]
        if record.size == 0:
            return ["empty output"]
        return []

    def check_pass(self, records) -> dict[int, list[str]]:
        """A repeated query must print exactly what its first asking printed."""
        failures: dict[int, list[str]] = {}
        for i, q in enumerate(self.queries):
            first = records[q.first] if q.first is not None else None
            if first is None or isinstance(first, Exception) or isinstance(records[i], Exception):
                continue
            if records[i].digest != first.digest:
                failures.setdefault(i, []).append(f"repeat of query {q.first} printed different output")
        return failures

    def sample_indices(self) -> list[int]:
        """First askings checked against the library: one per (group, command),
        plus every cells query on groups small enough for the brute-force oracle."""
        seen, out = set(), []
        for i, q in enumerate(self.queries):
            if q.first is not None:
                continue
            small = self.ck.build_group(q.group).order <= self.oracle_max_order
            if (q.group, q.command) not in seen or (small and q.command == "cells"):
                seen.add((q.group, q.command))
                out.append(i)
        return out

    def verify_once(self, records) -> dict[int, list[str]]:
        """Sampled answers must match library calls and, on small groups, brute force."""
        failures: dict[int, list[str]] = {}
        ck = self.ck
        for i in self.sample_indices():
            q = self.queries[i]
            if isinstance(records[i], Exception) or records[i].rc != 0:
                continue
            rows = [json.loads(line) for line in self.first_raws[i][1].splitlines()]
            g = ck.build_group(q.group)
            s = ck.ElementSet(g, q.s_bits)
            details = ck.balandraud_details(s)
            want_sub = {"subgroup": details.subgroup.spec_string(), "u_star": details.u_star,
                        "case": details.case}
            got_sub = [{k: r.get(k) for k in want_sub} for r in rows if r.get("kind") == "balandraud"]
            problems = []
            if got_sub != [want_sub]:
                problems.append(f"balandraud row {got_sub} != library {want_sub}")
            if q.command == "cells":
                umax = len(s) - 1
                got = sorted(int(r["bits"], 16) for r in rows if r.get("kind") == "cell")
                want = sorted(r.cell.bits for r in ck.enumerate_cells(s, umax))
                if i == self.fault_index:
                    want = want[:-1]
                if got != want:
                    problems.append(f"{len(got)} cells listed, library gives {len(want)}")
                if g.order <= self.oracle_max_order:
                    brute = sorted(x for x, p in oracles.cells(g.mul, q.s_bits).items()
                                   if p.bit_count() - x.bit_count() <= umax)
                    if got != brute:
                        problems.append(f"{len(got)} cells listed, brute force gives {len(brute)}")
            if problems:
                failures[i] = problems
        return failures

    def inject_fault(self, expected: list) -> None:
        self.fault_index = self.sample_indices()[0]


WORKLOADS = {cls.name: cls for cls in (SweepScalar, SweepBulk, StreamJsonl, QueryCells)}
