"""Command line: inspect groups, enumerate cells, run verification sweeps.

Exit codes: 0 for success, 1 when a sweep observed a VIOLATED verdict, 2
for usage or configuration errors. Reports go to stdout and are
deterministic for a fixed command line, seed, and version; progress notes,
banners, timing, and cache statistics go to stderr. Every refusal is an
exception raised where it is found (a UsageError for a bad option value)
and reported by main alone: one `error: ...` line on stderr, nothing on
stdout, exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .cache import DiskCache, resolve_cache_dir
from .cells import (
    ENUMERATION_CAP,
    EnumerationCapError,
    balandraud_details,
    bit_counts,
    cell_columns,
    check_enum_cap,
    column_dtype,
    kernel_cells,
    kernel_flags,
    normalize_s,
    require_enumerable,
    subgroup_flags,
)
from .groups import GroupAxiomError, GroupSpecError, all_subgroups, build_group, mask_spec
from .specs import SubsetSpecError, parse_group_tokens, parse_subset_spec
from .theorems import (
    DRIVER_NAMES,
    SweepConfig,
    SweepConfigError,
    jsonl_line,
    line_template,
    prepare_sweep,
    sweep_groups,
)

_FORMATS = ("jsonl", "csv", "table")

# the jsonl line of a cell row, one per flags value 4*contains_identity + 2*is_kernel + is_subgroup
_CELL_LINES = tuple(
    line_template({"kind": "cell", "cell": str, "bits": hex, "size": int, "product": str,
                   "product_size": int, "deficiency": int, "is_kernel": bool(flags & 2),
                   "is_subgroup": bool(flags & 1), "contains_identity": bool(flags & 4)})[0]
    for flags in range(8))


class UsageError(ValueError):
    """An option value the command refuses, reported by main like every other refusal."""


def _resolve_format(value: str | None) -> str:
    if value:
        return value
    return "table" if sys.stdout.isatty() else "jsonl"


def _emit_jsonl(record: dict) -> None:
    sys.stdout.write(jsonl_line(record))


def _emit_fields(record: dict, fmt: str) -> None:
    """One record as a jsonl line, or as csv field,value rows."""
    if fmt == "jsonl":
        _emit_jsonl(record)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["field", "value"])
        writer.writerows([k, v] for k, v in record.items())


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    sys.stdout.write(line.rstrip() + "\n")
    sys.stdout.write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        sys.stdout.write("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip() + "\n")


def _add_group_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("group", help="group spec: Z<n>, Z<a>xZ<b>..., D<n>, S<n>, Q8, cayley:<path>")
    p.add_argument("--wide", action="store_true",
                   help="allow group orders up to 1024 instead of 64")


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=_FORMATS, default=None,
                   help="output format (default: table on a tty, else jsonl)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cellkit",
        description="Cells, kernels, and stabilizers of subsets of finite groups, "
                    "with sumset-theorem verification sweeps.")
    parser.add_argument("--version", action="version", version=f"cellkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cells", help="enumerate cells and kernels of one subset")
    _add_group_arg(p)
    p.add_argument("set", help="subset spec, e.g. \"{0,1,6,7}\"")
    p.add_argument("--umax", type=int, default=None,
                   help="largest deficiency to list, at most |G|-1 (default |S|-1)")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=None, help="seed closures drawn in sampled mode")
    p.add_argument("--seed", type=int, default=None, help="rng seed for sampled mode")
    p.add_argument("--enum-cap", type=int, default=ENUMERATION_CAP,
                   help="largest group order accepted for exhaustive enumeration")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $CELLKIT_CACHE_DIR if set)")
    _add_format_arg(p)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("subgroup", help="the canonical subgroup attached to one subset")
    _add_group_arg(p)
    p.add_argument("set", help="subset spec, e.g. \"{0,1,6,7}\"")
    p.add_argument("--enum-cap", type=int, default=ENUMERATION_CAP)
    _add_format_arg(p)
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("info", help="basic facts about a group")
    _add_group_arg(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", help="sweep theorem checkers over instance families")
    p.add_argument("--groups", required=True,
                   help="comma-separated group specs; Z2..Z10 ranges expand")
    p.add_argument("--theorem", required=True,
                   help=f"comma-separated from: {', '.join(DRIVER_NAMES)}, or 'all'")
    p.add_argument("--set", dest="set_spec", default=None,
                   help="restrict S to one spec: \"{i,j,...}\", all:<k>, or rand:<k>:<n>:<seed>")
    p.add_argument("--smin", type=int, default=1, help="smallest |S| swept (default 1)")
    p.add_argument("--smax", type=int, default=None, help="largest |S| swept (default: group order)")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=100_000,
                   help="sampled instances per S or per group (default 100000)")
    p.add_argument("--s-samples", type=int, default=5,
                   help="sampled subsets S per group (default 5)")
    p.add_argument("--seed", type=int, default=None, help="base seed; required in sampled mode")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--enum-cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--max-instances", type=int, default=1 << 22,
                   help="refuse any single task larger than this many instances")
    p.add_argument("--wide", action="store_true")
    _add_format_arg(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _kernel_row(u: int, kernels: np.ndarray) -> dict:
    masks = kernels.tolist()
    with_identity = [x for x in masks if x & 1]
    return {"kind": "kernel_summary", "u": u, "kernel_count": len(masks),
            "kernel_size": masks[0].bit_count() if masks else None,
            "kernels": [mask_spec(x) for x in masks],
            "unique_identity_kernel": mask_spec(with_identity[0]) if len(with_identity) == 1 else None}


def _cell_values(order: int, answer: dict) -> zip:
    """Per listed cell: bits, product bits, size, product size, deficiency and flags.

    flags is 4*contains_identity + 2*is_kernel + is_subgroup, is_kernel from
    kernel_flags: the cells come sorted by (deficiency, size, bits).
    """
    dtype = column_dtype(order)
    cells = np.array(answer["cells"], dtype=dtype)
    size = bit_counts(cells)
    product_size = bit_counts(np.array(answer["products"], dtype=dtype))
    deficiency = product_size - size
    flags = ((cells & 1) == 1) * 4 + kernel_flags(size, deficiency) * 2
    flags[answer["subgroups"]] += 1
    return zip(answer["cells"], answer["products"], size.tolist(), product_size.tolist(),
               deficiency.tolist(), flags.tolist())


def cmd_cells(args: argparse.Namespace) -> int:
    check_enum_cap(args.enum_cap, "--enum-cap", EnumerationCapError)
    g = build_group(args.group, wide=args.wide)
    raw = parse_subset_spec(args.set, g)
    if not raw:
        raise SubsetSpecError("the empty set has no cells; give a nonempty set")
    s, shifted = normalize_s(raw)
    umax = args.umax if args.umax is not None else max(len(s) - 1, 0)
    if umax < 0:
        raise UsageError(f"--umax must be nonnegative, got {umax}")
    if umax >= g.order:
        raise UsageError(f"--umax {umax} is above {g.order - 1}, the largest deficiency "
                         f"a cell can have in a group of order {g.order}")
    if args.mode == "exhaustive":
        require_enumerable(g.order, args.enum_cap)
    elif args.samples is None or args.seed is None:
        raise UsageError("sampled mode requires --samples and --seed")
    elif args.samples < 1:
        raise UsageError(f"--samples must be positive, got {args.samples}")
    # the attached subgroup needs the exhaustive enumeration that sampled
    # mode exists to avoid, so above the cap sampled mode goes without it
    with_balandraud = g.order <= args.enum_cap
    cache_dir = resolve_cache_dir(args.cache_dir)
    cache = DiskCache(cache_dir) if cache_dir is not None else None

    def answer() -> dict:
        # in exhaustive mode one enumeration, to the larger bound, serves the listing and,
        # through the memo, balandraud_details, which reads to |S| - 2
        columns = cell_columns(s, max(umax, len(s) - 2), args.mode, count=args.samples,
                               seed=args.seed, cap=args.enum_cap)
        end = np.searchsorted(columns[2], umax, side="right")
        cells, products, deficiency = (column[:end] for column in columns)
        details = balandraud_details(s, cap=args.enum_cap) if with_balandraud else None
        return {"cells": cells.tolist(), "products": products.tolist(),
                "subgroups": np.flatnonzero(subgroup_flags(g, cells)).tolist(),
                "kernels": [_kernel_row(u, kernel_cells(cells, deficiency, u)) for u in range(umax + 1)],
                "balandraud": [{"kind": "balandraud", "subgroup": details.subgroup.spec_string(),
                                "subgroup_size": len(details.subgroup), "u_star": details.u_star,
                                "case": details.case}] if details else []}

    # the key covers the whole answer, and names the table, not a cayley: path whose file can change
    table = hashlib.sha256(g.mul_array().tobytes()).hexdigest()
    key = {"command": "cells-columns", "version": __version__, "table": table, "s_bits": s.bits,
           "umax": umax, "mode": args.mode, "samples": args.samples, "seed": args.seed,
           "balandraud": with_balandraud}
    t0 = time.monotonic()
    found = cache.get_or_compute(key, answer) if cache else answer()
    kernel_rows, balandraud_rows = found["kernels"], found["balandraud"]
    if not with_balandraud:
        print(f"cellkit: no balandraud row: the attached subgroup needs an exhaustive "
              f"enumeration, and order {g.order} is above --enum-cap {args.enum_cap}",
              file=sys.stderr)

    manifest = {"kind": "manifest", "command": "cells", "tool": "cellkit",
                "version": __version__, "group": g.label, "set": s.spec_string(),
                "normalized_from": raw.spec_string() if shifted else None,
                "umax": umax, "mode": args.mode, "samples": args.samples, "seed": args.seed}
    rows = _cell_values(g.order, found)
    fmt = _resolve_format(args.format)
    if fmt == "jsonl":
        _emit_jsonl(manifest)
        sys.stdout.writelines(_CELL_LINES[flags] % (x, mask_spec(x), d, mask_spec(p), ps, size)
                              for x, p, size, ps, d, flags in rows)
        for row in kernel_rows + balandraud_rows:
            _emit_jsonl(row)
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["cell", "bits", "size", "product_size", "deficiency",
                         "is_kernel", "is_subgroup", "contains_identity"])
        writer.writerows([mask_spec(x), f"0x{x:x}", size, ps, d,
                          bool(flags & 2), bool(flags & 1), bool(flags & 4)]
                         for x, p, size, ps, d, flags in rows)
        for row in kernel_rows + balandraud_rows:
            print(json.dumps(row, sort_keys=True), file=sys.stderr)
    else:
        print(f"cells of S = {s.spec_string()} in {g.label} (umax {umax}, {args.mode})")
        if shifted:
            print(f"  normalized from {raw.spec_string()} by dividing out element {shifted}")
        _print_table(
            ["cell", "size", "deficiency", "kernel", "subgroup", "has-identity"],
            [[mask_spec(x), str(size), str(d), "yes" if flags & 2 else "",
              "yes" if flags & 1 else "", "yes" if flags & 4 else ""]
             for x, p, size, ps, d, flags in rows])
        for row in kernel_rows:
            if row["kernel_count"]:
                unique = row["unique_identity_kernel"] or "none"
                print(f"u={row['u']}: {row['kernel_count']} kernel(s) of size "
                      f"{row['kernel_size']}, identity kernel {unique}")
        for row in balandraud_rows:
            print(f"subgroup: {row['subgroup']} (u* = {row['u_star']}, case {row['case']})")
    if cache is not None:
        print(cache.stats(), file=sys.stderr)
    print(f"cells: {len(found['cells'])} cell(s) in {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_subgroup(args: argparse.Namespace) -> int:
    check_enum_cap(args.enum_cap, "--enum-cap", EnumerationCapError)
    g = build_group(args.group, wide=args.wide)
    raw = parse_subset_spec(args.set, g)
    if not raw:
        raise SubsetSpecError("give a nonempty set")
    s, shifted = normalize_s(raw)
    details = balandraud_details(s, cap=args.enum_cap)
    record = {"kind": "balandraud", "group": g.label, "set": s.spec_string(),
              "normalized_from": raw.spec_string() if shifted else None,
              "subgroup": details.subgroup.spec_string(),
              "subgroup_size": len(details.subgroup),
              "u_star": details.u_star, "case": details.case}
    fmt = _resolve_format(args.format)
    if fmt != "table":
        _emit_fields(record, fmt)
    else:
        print(f"group:    {record['group']}")
        print(f"set:      {record['set']}"
              + (f" (normalized from {record['normalized_from']})" if shifted else ""))
        print(f"subgroup: {record['subgroup']} (size {record['subgroup_size']})")
        print(f"u*:       {record['u_star']}")
        print(f"case:     {record['case']}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    g = build_group(args.group, wide=args.wide)
    t = g.mul_array()
    center = [i for i in range(g.order) if (t[i] == t[:, i]).all()]
    record = {"kind": "info", "group": g.label, "order": g.order,
              "abelian": g.is_abelian, "center_size": len(center)}
    if g.order <= 24:
        subs = all_subgroups(g)
        record["subgroup_count"] = len(subs)
        record["subgroup_sizes"] = sorted(len(h) for h in subs)
    else:
        record["subgroup_count"] = None
    fmt = _resolve_format(args.format)
    if fmt != "table":
        _emit_fields(record, fmt)
    else:
        for k, v in record.items():
            if k != "kind":
                print(f"{k}: {v}")
    return 0


def _parse_theorems(text: str) -> tuple[str, ...]:
    names: list[str] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "all":
            names.extend(DRIVER_NAMES)
        elif token in DRIVER_NAMES:
            names.append(token)
        else:
            raise SweepConfigError(
                f"unknown theorem {token!r}; expected one of {', '.join(DRIVER_NAMES)} or 'all'")
    out: list[str] = []
    for name in names:
        if name not in out:
            out.append(name)
    if not out:
        raise SweepConfigError("no theorems selected")
    return tuple(out)


def cmd_verify(args: argparse.Namespace) -> int:
    groups = tuple(parse_group_tokens(args.groups))
    theorems = _parse_theorems(args.theorem)
    cfg = SweepConfig(
        groups=groups, theorems=theorems, mode=args.mode, samples=args.samples,
        s_samples=args.s_samples, seed=args.seed, s_min=args.smin, s_max=args.smax,
        set_spec=args.set_spec, wide=args.wide, jobs=args.jobs,
        enumeration_cap=args.enum_cap, max_instances=args.max_instances)
    # a bad group or set spec is refused here, before the manifest
    built = prepare_sweep(cfg)
    fmt = _resolve_format(args.format)
    # jobs is deliberately absent: the report is a function of what was
    # verified, and the worker count never changes that
    manifest = {"kind": "manifest", "command": "verify", "tool": "cellkit",
                "version": __version__, "groups": list(groups), "theorems": list(theorems),
                "mode": cfg.mode, "samples": cfg.samples, "s_samples": cfg.s_samples,
                "seed": cfg.seed, "smin": cfg.s_min, "smax": cfg.s_max,
                "set": cfg.set_spec, "max_instances": cfg.max_instances}
    t0 = time.monotonic()
    if fmt == "jsonl":
        _emit_jsonl(manifest)
        result = sweep_groups(cfg, built, sink=sys.stdout.write)
        _emit_jsonl({"kind": "summary", **result.summary})
    else:
        result = sweep_groups(cfg, built, sink=None)
        if fmt == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(["theorem", "group", "status", "count"])
            for theorem, per_group in sorted(result.summary["counts"].items()):
                for group, statuses in sorted(per_group.items()):
                    for status, count in sorted(statuses.items()):
                        writer.writerow([theorem, group, status, count])
        else:
            rows = []
            for theorem, per_group in sorted(result.summary["counts"].items()):
                for group, statuses in sorted(per_group.items()):
                    rows.append([theorem, group] + [str(statuses.get(s, 0)) for s in
                                ("HOLDS", "VIOLATED", "NOT_APPLICABLE", "FINDING")])
            _print_table(["theorem", "group", "holds", "violated", "n/a", "finding"], rows)
            print(f"instances: {result.summary['instances']}")
            for rec in result.violations:
                print("violated: " + json.dumps(rec, sort_keys=True))
            for rec in result.findings:
                print("finding: " + json.dumps(rec, sort_keys=True))
            for rec in result.errors:
                print("error: " + json.dumps(rec, sort_keys=True))
    for theorem, group in result.summary["exploration"]:
        print(f"cellkit: {group} is not abelian; {theorem} ran in exploration mode "
              f"(failures become FINDING, not VIOLATED)", file=sys.stderr)
    for rec in result.errors:
        print(f"cellkit: skipped {rec['theorem']} on {rec['group']}: {rec['message']}",
              file=sys.stderr)
    print(f"verify: {result.summary['instances']} instance(s) in "
          f"{time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 1 if result.violated else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupSpecError, GroupAxiomError, SubsetSpecError, SweepConfigError,
            EnumerationCapError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
