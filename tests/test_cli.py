"""Command-line behavior: formats, exit codes, caching, determinism."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cellkit
import cellkit.cells as cells_module
import cellkit.cli as cli_module
import cellkit.theorems as theorems
from cellkit import DiskCache, Status, Theorem, TheoremVerdict, __version__, build_group
from cellkit.cells import balandraud_details, enumerate_cells, kernels_at, normalize_s
from cellkit.cli import main
from cellkit.groups import builtin_specs
from cellkit.specs import parse_subset_spec

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def jsonl_records(text):
    return [json.loads(line) for line in text.splitlines() if line]


# -- cells ----------------------------------------------------------------

def test_cells_jsonl_worked_example(capsys):
    rc, out, err = run_cli(capsys, "cells", "Z12", "{0,1,6,7}", "--umax", "2",
                           "--format", "jsonl")
    assert rc == 0
    records = jsonl_records(out)
    assert records[0]["kind"] == "manifest"
    assert records[0]["group"] == "Z12"
    assert records[0]["set"] == "{0,1,6,7}"
    cells = [r for r in records if r["kind"] == "cell"]
    assert len(cells) == 25
    k2 = next(r for r in records if r["kind"] == "kernel_summary" and r["u"] == 2)
    assert k2["kernel_count"] == 6
    assert k2["kernel_size"] == 2
    assert k2["unique_identity_kernel"] == "{0,6}"
    kernel_cells = [r for r in cells if r["is_kernel"] and r["deficiency"] == 2]
    assert {r["cell"] for r in kernel_cells} >= {"{0,6}", "{1,7}"}
    bal = next(r for r in records if r["kind"] == "balandraud")
    assert bal["subgroup"] == "{0,6}"
    assert bal["u_star"] == 2
    assert bal["case"] == "kernel"
    assert "cells: 25 cell(s)" in err


def test_cells_normalizes_sets_without_identity(capsys):
    rc, out, _ = run_cli(capsys, "cells", "Z12", "{1,7}", "--format", "jsonl")
    assert rc == 0
    manifest = jsonl_records(out)[0]
    assert manifest["set"] == "{0,6}"
    assert manifest["normalized_from"] == "{1,7}"


def test_cells_table_and_csv_formats(capsys):
    rc, out, _ = run_cli(capsys, "cells", "Z6", "{0,3}", "--format", "table")
    assert rc == 0
    assert "cells of S = {0,3} in Z6" in out
    assert "deficiency" in out
    rc, out, _ = run_cli(capsys, "cells", "Z6", "{0,3}", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0].startswith("cell,bits,size")


def test_cells_default_format_is_jsonl_when_not_a_tty(capsys):
    rc, out, _ = run_cli(capsys, "cells", "Z6", "{0,3}")
    assert rc == 0
    assert out.lstrip().startswith("{")


def test_cells_sampled_mode_flags(capsys):
    rc, out, _ = run_cli(capsys, "cells", "Z8", "{0,1,4}", "--mode", "sampled",
                         "--samples", "50", "--seed", "3", "--format", "jsonl")
    assert rc == 0
    rc, _, err = run_cli(capsys, "cells", "Z8", "{0,1,4}", "--mode", "sampled")
    assert rc == 2
    assert "requires --samples and --seed" in err


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "table"])
def test_cells_sampled_mode_above_the_enum_cap_drops_the_balandraud_row(tmp_path, capsys, fmt):
    argv = ("cells", "Z24", "{0,1,5}", "--mode", "sampled", "--samples", "20", "--seed", "1",
            "--format", fmt)
    rc, plain, _ = run_cli(capsys, *argv)
    assert rc == 0
    # a miss and then a hit print the same stdout, and the note both times
    for stats in ("0 hit(s), 1 miss(es)", "1 hit(s), 0 miss(es)"):
        rc, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert rc == 0 and stats in err
        assert out == plain
        assert "{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23}" in out
        assert "balandraud" not in out and "subgroup:" not in out
        assert '"kind": "balandraud"' not in err
        assert err.count("order 24 is above --enum-cap 20") == 1


def test_cells_sampled_mode_at_the_enum_cap_keeps_the_balandraud_row(capsys):
    argv = ("cells", "Z8", "{0,1,4}", "--mode", "sampled", "--samples", "50", "--seed", "3",
            "--format", "jsonl")
    rc, at_cap, err = run_cli(capsys, *argv, "--enum-cap", "8")
    assert rc == 0 and "enum-cap" not in err
    assert jsonl_records(at_cap)[-1]["kind"] == "balandraud"
    rc, above_cap, err = run_cli(capsys, *argv, "--enum-cap", "7")
    assert rc == 0 and "order 8 is above --enum-cap 7" in err
    assert at_cap.splitlines()[:-1] == above_cap.splitlines()


def test_cells_usage_errors(capsys):
    rc, _, err = run_cli(capsys, "cells", "Z99", "{0}")
    assert rc == 2 and "order 99" in err
    rc, _, err = run_cli(capsys, "cells", "Z6", "{0,99}")
    assert rc == 2 and "99" in err
    rc, _, err = run_cli(capsys, "cells", "Z6", "{}")
    assert rc == 2 and "nonempty" in err
    rc, _, err = run_cli(capsys, "cells", "Z21", "{0,1}")
    assert rc == 2 and "refusing order 21" in err
    for samples in ("0", "-3"):
        rc, out, err = run_cli(capsys, "cells", "Z8", "{0,1}", "--mode", "sampled",
                               "--samples", samples, "--seed", "1")
        assert rc == 2 and out == ""
        assert err == f"error: --samples must be positive, got {samples}\n"


def test_cells_umax_is_bounded_by_the_largest_deficiency(capsys):
    # a cell of a group of order 12 has deficiency at most 11
    rc, out, err = run_cli(capsys, "cells", "Z12", "{0,1}", "--umax", "12")
    assert rc == 2 and out == ""
    assert err == ("error: --umax 12 is above 11, the largest deficiency a cell can have "
                   "in a group of order 12\n")
    rc, out, _ = run_cli(capsys, "cells", "Z12", "{0,1}", "--umax", "11", "--format", "jsonl")
    assert rc == 0
    records = jsonl_records(out)
    assert sum(r["kind"] == "cell" for r in records) == 852
    assert [r["u"] for r in records if r["kind"] == "kernel_summary"] == list(range(12))


def reference_cells_stdout(spec, set_spec, fmt, umax=None, mode="exhaustive", samples=None,
                           seed=None):
    """The stdout of `cells`, rendered from enumerate_cells and kernels_at records."""
    g = build_group(spec)
    raw = parse_subset_spec(set_spec, g)
    s, shifted = normalize_s(raw)
    umax = umax if umax is not None else max(len(s) - 1, 0)
    records = enumerate_cells(s, umax, mode, count=samples, seed=seed)
    per_u = [kernels_at(s, u, records) for u in range(umax + 1)]
    kernel_sizes = {kr.u: len(kr.kernels[0].cell) for kr in per_u if kr.kernels}
    cells = [{"kind": "cell", "cell": r.cell.spec_string(), "bits": f"0x{r.cell.bits:x}",
              "size": len(r.cell), "product": r.product.spec_string(),
              "product_size": len(r.product), "deficiency": r.deficiency,
              "is_kernel": len(r.cell) == kernel_sizes.get(r.deficiency),
              "is_subgroup": r.is_subgroup, "contains_identity": r.contains_identity}
             for r in records]
    kernels = [{"kind": "kernel_summary", "u": kr.u, "kernel_count": len(kr.kernels),
                "kernel_size": len(kr.kernels[0].cell) if kr.kernels else None,
                "kernels": [k.cell.spec_string() for k in kr.kernels],
                "unique_identity_kernel": kr.unique_identity_kernel.cell.spec_string()
                if kr.unique_identity_kernel else None} for kr in per_u]
    details = balandraud_details(s)
    balandraud = {"kind": "balandraud", "subgroup": details.subgroup.spec_string(),
                  "subgroup_size": len(details.subgroup), "u_star": details.u_star,
                  "case": details.case}
    out = io.StringIO()
    if fmt == "jsonl":
        manifest = {"kind": "manifest", "command": "cells", "tool": "cellkit",
                    "version": __version__, "group": g.label, "set": s.spec_string(),
                    "normalized_from": raw.spec_string() if shifted else None,
                    "umax": umax, "mode": mode, "samples": samples, "seed": seed}
        for row in [manifest, *cells, *kernels, balandraud]:
            out.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        fields = ["cell", "bits", "size", "product_size", "deficiency",
                  "is_kernel", "is_subgroup", "contains_identity"]
        writer = csv.writer(out)
        writer.writerow(fields)
        writer.writerows([row[f] for f in fields] for row in cells)
    else:
        with contextlib.redirect_stdout(out):
            print(f"cells of S = {s.spec_string()} in {g.label} (umax {umax}, {mode})")
            if shifted:
                print(f"  normalized from {raw.spec_string()} by dividing out element {shifted}")
            cli_module._print_table(
                ["cell", "size", "deficiency", "kernel", "subgroup", "has-identity"],
                [[row["cell"], str(row["size"]), str(row["deficiency"]),
                  "yes" if row["is_kernel"] else "", "yes" if row["is_subgroup"] else "",
                  "yes" if row["contains_identity"] else ""] for row in cells])
            for row in kernels:
                if row["kernel_count"]:
                    unique = row["unique_identity_kernel"] or "none"
                    print(f"u={row['u']}: {row['kernel_count']} kernel(s) of size "
                          f"{row['kernel_size']}, identity kernel {unique}")
            print(f"subgroup: {balandraud['subgroup']} (u* = {balandraud['u_star']}, "
                  f"case {balandraud['case']})")
    return out.getvalue()


def test_cells_renders_what_the_records_give(capsys, monkeypatch):
    # every catalog group to order 12; the rows come from the enumeration's
    # columns, never from a CellRecord
    calls = []
    make_record = cells_module.make_record
    monkeypatch.setattr(cells_module, "make_record", lambda *a: calls.append(a) or make_record(*a))
    modes = (("exhaustive", None, None), ("sampled", 40, 5))
    for spec in builtin_specs(12):
        n = build_group(spec).order
        sets = [t for t in ("{0}", "{0,1}", "{1,2,4}", f"{{0,2,3,5,{n - 1}}}")
                if max(int(v) for v in t.strip("{}").split(",")) < n]
        for set_spec, umax, (mode, samples, seed), fmt in itertools.product(
                sets, (None, n - 1), modes, ("jsonl", "csv", "table")):
            argv = ["cells", spec, set_spec, "--format", fmt]
            if umax is not None:
                argv += ["--umax", str(umax)]
            if mode == "sampled":
                argv += ["--mode", mode, "--samples", str(samples), "--seed", str(seed)]
            want = reference_cells_stdout(spec, set_spec, fmt, umax, mode, samples, seed)
            before = len(calls)
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0
            assert out == want, argv
            assert len(calls) == before


# (argv, lines, sha256 of stdout), taken before cells rendered from the
# enumeration's columns: a miss and a hit of the disk cache print them too
PINNED_CELLS_OUTPUTS = [
    (("cells", "Z20", "{0,1,5}", "--format", "jsonl"), 46,
     "5bdde4b6e66a9567423dbb7596853512349107cd0c489a5baeb740f4521f5813"),
    (("cells", "Z16", "{0,1}", "--umax", "15", "--format", "jsonl"), 8_107,
     "c3b2fae73210a29999b53d8b39949477473da71a6ea8b71c46df967009a6b982"),
    (("cells", "Z24", "{0,1,5}", "--mode", "sampled", "--samples", "300", "--seed", "7",
      "--format", "jsonl"), 29,
     "055eb92627e24073423b29304dcbc619a839a2f08293757b7d17132ea584cf56"),
    (("cells", "Z12", "{0,1,6,7}", "--format", "csv"), 26,
     "6f569477a3998d5b405d7ebfd3b5954b99892c96229042539fe35f27134d6ad1"),
    (("cells", "Z12", "{0,1,6,7}", "--format", "table"), 31,
     "ee4a7743b8b7c3bc7701369b0e7944ab47f3bf9d64ba77a6f120f0efeae7640f"),
]


@pytest.mark.parametrize("argv, lines, digest", PINNED_CELLS_OUTPUTS)
def test_cells_outputs_match_pinned_digests(tmp_path, capsys, argv, lines, digest):
    for cache, stats in (((), None), (("--cache-dir", str(tmp_path)), "0 hit(s), 1 miss(es)"),
                         (("--cache-dir", str(tmp_path)), "1 hit(s), 0 miss(es)")):
        rc, out, err = run_cli(capsys, *argv, *cache)
        assert rc == 0
        assert stats is None or stats in err
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("umax", range(4))
def test_cells_enumerates_once_per_query(capsys, monkeypatch, umax):
    # the listing reads deficiency <= --umax and the attached subgroup <= |S| - 2 = 2:
    # one sweep to the larger bound serves both
    monkeypatch.delenv("CELLKIT_CACHE_DIR", raising=False)
    bounds = []
    real = cells_module.cell_sweep
    monkeypatch.setattr(cells_module, "cell_sweep",
                        lambda g, masks, u_max=None: bounds.append(u_max.tolist()) or real(g, masks, u_max))
    rc, out, _ = run_cli(capsys, "cells", "Z20", "{0,1,5,7}", "--umax", str(umax), "--format", "jsonl")
    assert rc == 0
    assert bounds == [[max(umax, 2)]]
    assert out == reference_cells_stdout("Z20", "{0,1,5,7}", "jsonl", umax)


def test_cells_cache_roundtrip(tmp_path, capsys, monkeypatch):
    argv = ("cells", "Z12", "{0,1,6,7}", "--umax", "2", "--format", "jsonl",
            "--cache-dir", str(tmp_path))
    rc, cold, err = run_cli(capsys, *argv)
    assert rc == 0
    assert "0 hit(s), 1 miss(es)" in err
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    # the entry holds the whole answer, so a hit enumerates and builds nothing
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_full_cell_enumeration", "make_record", "is_subgroup"):
        monkeypatch.setattr(cells_module, name, counted(name, getattr(cells_module, name)))
    rc, warm, err = run_cli(capsys, *argv)
    assert rc == 0
    assert warm == cold
    assert "1 hit(s), 0 miss(es)" in err
    assert calls == []
    # the cap refusal comes before the cache lookup
    rc, out, err = run_cli(capsys, *argv, "--enum-cap", "10")
    assert rc == 2 and out == ""
    assert "refusing order 12 above cap 10" in err

    # a corrupted entry is discarded, recomputed, and rewritten
    entries[0].write_text("garbage\n")
    rc, again, err = run_cli(capsys, *argv)
    assert rc == 0
    assert again == cold
    assert "discarding" in err


def test_cells_cache_ignores_entries_in_the_pairs_format(tmp_path, capsys):
    # earlier releases stored [cell bits, product bits] pairs under the same
    # version; such an entry must never be read as an answer
    g = build_group("Z12")
    s = g.subset([0, 1, 6, 7])
    old_key = {"command": "cells", "version": __version__,
               "table": hashlib.sha256(g.mul_array().tobytes()).hexdigest(), "s_bits": s.bits,
               "umax": 2, "mode": "exhaustive", "samples": None, "seed": None}
    pairs = [[r.cell.bits, r.product.bits] for r in enumerate_cells(s, 2)]
    DiskCache(tmp_path).get_or_compute(old_key, lambda: pairs)
    argv = ("cells", "Z12", "{0,1,6,7}", "--umax", "2", "--format", "jsonl")
    _, plain, _ = run_cli(capsys, *argv)
    rc, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert rc == 0 and out == plain
    assert "0 hit(s), 1 miss(es)" in err and "discarding" not in err
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cells_cache_ignores_entries_in_the_row_format(tmp_path, capsys):
    # earlier releases stored the cell, kernel and balandraud rows as dicts
    # under the command "cells-answer"; such an entry is never read as an answer
    g = build_group("Z12")
    s = g.subset([0, 1, 6, 7])
    old_key = {"command": "cells-answer", "version": __version__,
               "table": hashlib.sha256(g.mul_array().tobytes()).hexdigest(), "s_bits": s.bits,
               "umax": 2, "mode": "exhaustive", "samples": None, "seed": None, "balandraud": True}
    argv = ("cells", "Z12", "{0,1,6,7}", "--umax", "2", "--format", "jsonl")
    _, plain, _ = run_cli(capsys, *argv)
    rows = jsonl_records(plain)
    answer = [[r for r in rows if r["kind"] == kind] for kind in ("cell", "kernel_summary", "balandraud")]
    answer[0][0]["cell"] = "{1,2,3}"  # a misread entry would show
    DiskCache(tmp_path).get_or_compute(old_key, lambda: answer)
    rc, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert rc == 0 and out == plain
    assert "0 hit(s), 1 miss(es)" in err and "discarding" not in err
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cells_cache_is_keyed_on_the_table_not_the_path(tmp_path, capsys):
    table = tmp_path / "group.txt"

    def write_table(op):
        rows = [" ".join(str(op(a, b)) for b in range(4)) for a in range(4)]
        table.write_text("4\n" + "\n".join(rows) + "\n")

    argv = ("cells", f"cayley:{table}", "{0,1}", "--format", "jsonl",
            "--cache-dir", str(tmp_path / "cache"))
    write_table(lambda a, b: (a + b) % 4)
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert len([r for r in jsonl_records(out) if r["kind"] == "cell"]) == 9
    # the same path now holds Z2xZ2, whose {0,1} has 3 cells
    write_table(lambda a, b: a ^ b)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0
    assert len([r for r in jsonl_records(out) if r["kind"] == "cell"]) == 3
    assert "0 hit(s), 1 miss(es)" in err


def test_cells_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CELLKIT_CACHE_DIR", str(tmp_path))
    rc, _, err = run_cli(capsys, "cells", "Z6", "{0,3}", "--format", "jsonl")
    assert rc == 0
    assert list(tmp_path.glob("*.json"))
    assert "miss(es)" in err


def test_cache_degrades_when_directory_is_unusable(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    # the path is an existing file, so mkdir fails and caching is skipped
    rc, out, err = run_cli(capsys, "cells", "Z6", "{0,3}", "--format", "jsonl",
                           "--cache-dir", str(blocker))
    assert rc == 0
    assert "continuing without cache" in err
    assert jsonl_records(out)[0]["kind"] == "manifest"


def test_disk_cache_rejects_checksum_and_key_mismatches(tmp_path):
    warnings = []
    cache = DiskCache(tmp_path, warn=warnings.append)
    key = {"a": 1}
    assert cache.get_or_compute(key, lambda: 41) == 41
    assert cache.get_or_compute(key, lambda: 99) == 41
    path = cache._path(key)
    payload = path.read_text().splitlines()[0]
    path.write_text(payload + "\nsha256:" + "0" * 64 + "\n")
    assert cache.get_or_compute(key, lambda: 7) == 7
    assert any("bad checksum" in w for w in warnings)
    # a valid entry copied under another key's filename fails the key check
    other = DiskCache(tmp_path, warn=warnings.append)
    path_b = other._path({"b": 2})
    path_b.write_text(path.read_text())
    assert other.get_or_compute({"b": 2}, lambda: 5) == 5
    assert any("does not match" in w for w in warnings)


def test_disk_cache_discards_a_payload_that_is_not_json(tmp_path):
    # the checksum matches, so only the JSON parse can refuse the entry
    warnings = []
    cache = DiskCache(tmp_path, warn=warnings.append)
    path = cache._path({"a": 1})
    path.write_text("not json\nsha256:" + hashlib.sha256(b"not json").hexdigest() + "\n")
    assert cache.get_or_compute({"a": 1}, lambda: 3) == 3
    assert warnings == [f"discarding unparseable cache entry {path}"]
    assert cache.get_or_compute({"a": 1}, lambda: 4) == 3


def test_disk_cache_answers_when_its_directory_is_removed(tmp_path):
    warnings = []
    cache = DiskCache(tmp_path / "cache", warn=warnings.append)
    shutil.rmtree(tmp_path / "cache")
    assert cache.get_or_compute({"a": 1}, lambda: 3) == 3
    assert len(warnings) == 1
    assert warnings[0].startswith(f"cache write to {cache._path({'a': 1})} failed (")
    assert warnings[0].endswith("); continuing without storing")
    assert (cache.hits, cache.misses) == (0, 1)


# -- subgroup and info ----------------------------------------------------

def test_subgroup_command(capsys):
    rc, out, _ = run_cli(capsys, "subgroup", "Z12", "{0,1,6,7}", "--format", "jsonl")
    assert rc == 0
    rec = jsonl_records(out)[0]
    assert rec["subgroup"] == "{0,6}"
    assert rec["u_star"] == 2
    assert rec["case"] == "kernel"
    rc, out, _ = run_cli(capsys, "subgroup", "Z12", "{0,1,6,7}", "--format", "table")
    assert rc == 0
    assert "subgroup: {0,6} (size 2)" in out


def test_info_command(capsys):
    rc, out, _ = run_cli(capsys, "info", "Z12", "--format", "jsonl")
    assert rc == 0
    rec = jsonl_records(out)[0]
    assert rec["order"] == 12
    assert rec["abelian"] is True
    assert rec["subgroup_count"] == 6
    rc, out, _ = run_cli(capsys, "info", "D4", "--format", "table")
    assert rc == 0
    assert "abelian: False" in out


def test_info_refuses_a_group_order_past_the_digit_limit(capsys):
    # 5000 digits is past the interpreter's limit on int() of a string
    rc, out, err = run_cli(capsys, "info", "Z" + "1" * 5000)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "too long" in err, err


def test_info_refuses_a_cayley_file_that_does_not_decode(capsys, tmp_path):
    table = tmp_path / "table.txt"
    table.write_bytes(b"\xff\xfe0 1\n")
    rc, out, err = run_cli(capsys, "info", f"cayley:{table}")
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot read"), err


# -- verify ---------------------------------------------------------------

def test_verify_jsonl_stream(capsys):
    rc, out, err = run_cli(capsys, "verify", "--groups", "Z4,Z6",
                           "--theorem", "kneser", "--format", "jsonl")
    assert rc == 0
    records = jsonl_records(out)
    assert records[0]["kind"] == "manifest"
    assert records[0]["groups"] == ["Z4", "Z6"]
    assert records[-1]["kind"] == "summary"
    assert records[-1]["totals"].get("VIOLATED", 0) == 0
    verdicts = [r for r in records if r["kind"] == "verdict"]
    assert len(verdicts) == 15 * 15 + 63 * 63
    assert "instance(s)" in err


def test_verify_group_ranges_and_all(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z2..Z4",
                         "--theorem", "all", "--smax", "2", "--format", "jsonl")
    assert rc == 0
    manifest = jsonl_records(out)[0]
    assert manifest["groups"] == ["Z2", "Z3", "Z4"]
    assert manifest["theorems"] == list(theorems.DRIVER_NAMES)


def test_verify_table_and_csv_summaries(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z6",
                         "--theorem", "dichotomy", "--format", "table")
    assert rc == 0
    assert "theorem" in out and "DICHOTOMY" in out
    assert "instances:" in out
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z6",
                         "--theorem", "dichotomy", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "theorem,group,status,count"


def test_verify_exploration_banner_for_nonabelian_groups(capsys):
    rc, _, err = run_cli(capsys, "verify", "--groups", "D3",
                         "--theorem", "kneser", "--format", "table")
    assert rc == 0
    assert "exploration mode" in err


def test_verify_skip_note_for_oversized_tasks(capsys):
    rc, _, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", "kneser",
                         "--max-instances", "10", "--format", "table")
    assert rc == 0
    assert "skipped KNESER on Z6" in err
    # sampled Olson on a wide group needs masks above 64 bits: skipped, not a crash
    rc, _, err = run_cli(capsys, "verify", "--groups", "Z70", "--wide", "--theorem", "olson",
                         "--mode", "sampled", "--seed", "1", "--samples", "10",
                         "--format", "table")
    assert rc == 0
    assert "skipped OLSON on Z70: subset masks of order 70 do not fit a 64-bit integer" in err
    # a refused task is one error record and a note, never exit 2
    rc, out, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", "chain",
                           "--enum-cap", "4", "--format", "jsonl")
    assert rc == 0
    assert [r["kind"] for r in jsonl_records(out)].count("error") == 1
    assert "skipped SUBGROUP_KERNEL_CHAIN on Z6" in err


def test_verify_refuses_at_the_first_set_without_listing_the_set_space(capsys):
    # Z21 has 2^20 identity-containing subsets; the S space is iterated
    # lazily, so the cap refusal at the first one costs nothing to reach
    refusal = ("exhaustive enumeration lists up to 2^21 cells from 2^(21-|S|) candidate products; "
               "refusing order 21 above cap 4")
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", "--groups", "Z21", "--theorem", "chain",
                           "--enum-cap", "4", "--format", "jsonl")
    elapsed = time.perf_counter() - start
    assert rc == 0
    manifest, error, summary = jsonl_records(out)
    assert manifest["kind"] == "manifest" and manifest["groups"] == ["Z21"]
    assert error == {"group": "Z21", "kind": "error", "message": refusal,
                     "theorem": "SUBGROUP_KERNEL_CHAIN"}
    assert summary == {"counts": {}, "errors": 1, "exploration": [], "instances": 0,
                       "kind": "summary", "totals": {}}
    assert f"skipped SUBGROUP_KERNEL_CHAIN on Z21: {refusal}" in err
    assert elapsed < 1.0


def test_verify_set_all_refuses_at_the_first_set_without_listing_it(capsys):
    # all:21 names the same 2^20 sets as the exhaustive S space, iterated
    # as lazily: the same refusal at the first set, and no list built first
    argv = ("verify", "--groups", "Z21", "--theorem", "chain", "--enum-cap", "4", "--format", "jsonl")
    rc, exhaustive, _ = run_cli(capsys, *argv)
    assert rc == 0
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, *argv, "--set", "all:21")
    elapsed = time.perf_counter() - start
    assert rc == 0
    manifest, *rest = jsonl_records(out)
    assert manifest == {**jsonl_records(exhaustive)[0], "set": "all:21"}
    assert rest == jsonl_records(exhaustive)[1:]
    assert elapsed < 1.0


def test_verify_usage_errors(capsys):
    rc, _, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", "fermat")
    assert rc == 2 and "unknown theorem" in err
    rc, _, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", "kneser",
                         "--mode", "sampled")
    assert rc == 2 and "seed" in err
    rc, _, err = run_cli(capsys, "verify", "--groups", "Z5..Z2", "--theorem", "kneser")
    assert rc == 2 and "empty" in err
    # --set feeds the S-parameterized drivers, so use one of those
    rc, _, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", "chain",
                         "--set", "{1,3}")
    assert rc == 2 and "identity" in err
    rc, _, err = run_cli(capsys, "verify", "--groups", "K9", "--theorem", "kneser")
    assert rc == 2 and "unrecognized group spec" in err
    rc, out, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", "kneser",
                           "--max-instances", "-1")
    assert rc == 2 and out == ""
    assert err == "error: max_instances must be at least 1, got -1\n"


@pytest.mark.parametrize("theorem", ["kneser", "chain", "olson,dichotomy"])
def test_verify_refuses_a_malformed_set_before_any_task(capsys, theorem):
    # whether or not a selected theorem reads --set: one line, exit 2, no stream;
    # {0,9} fits Z12 but not Z6, and {1,3} lacks the identity
    for spec in ("garbage", "{0,1", "all:0", "rand:0:5:1", "{0,9}", "{1,3}"):
        rc, out, err = run_cli(capsys, "verify", "--groups", "Z12,Z6", "--theorem", theorem,
                               "--set", spec, "--format", "jsonl")
        assert rc == 2, spec
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err


MISSING_TABLE = str(ROOT / "tests" / "no-such-cayley-table.txt")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("groups", ["Z6,K9", "Z6,Z100", f"Z6,cayley:{MISSING_TABLE}"])
def test_verify_refuses_a_bad_group_before_the_manifest(capsys, groups, jobs):
    # the second group fails to build: one line, exit 2, not even a manifest
    rc, out, err = run_cli(capsys, "verify", "--groups", groups, "--theorem", "kneser",
                           "--jobs", jobs, "--format", "jsonl")
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_verify_builds_each_group_once(capsys, monkeypatch):
    built = []
    real = theorems.build_group
    parent = os.getpid()

    def counted(spec, **kwargs):
        if os.getpid() != parent:
            raise AssertionError(f"a pool worker built {spec}")
        built.append(spec)
        return real(spec, **kwargs)

    # every name the command line could build a group through
    for module in (theorems, cellkit.cli):
        monkeypatch.setattr(module, "build_group", counted)
    for jobs in ("1", "2"):
        built.clear()
        rc, out, _ = run_cli(capsys, "verify", "--groups", "Z6,Z8", "--theorem", "chain",
                             "--set", "{0,1}", "--jobs", jobs, "--format", "jsonl")
        assert rc == 0
        assert jsonl_records(out)[-1]["instances"] == 2
        assert built == ["Z6", "Z8"], jobs


def test_verify_runs_a_repeated_group_once(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z6,Z6", "--theorem", "chain",
                         "--format", "jsonl")
    assert rc == 0
    records = jsonl_records(out)
    assert records[0]["groups"] == ["Z6"]
    assert records[-1]["instances"] == 32
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z2..Z4,Z3,Z2", "--theorem", "chain",
                         "--format", "jsonl")
    assert rc == 0
    assert jsonl_records(out)[0]["groups"] == ["Z2", "Z3", "Z4"]


@pytest.mark.parametrize("argv", [
    ("cells", "Z70", "{0,1}", "--wide", "--enum-cap", "80"),
    ("subgroup", "Z70", "{0,1}", "--wide", "--enum-cap", "80"),
    ("verify", "--groups", "Z6", "--theorem", "chain", "--enum-cap", "80"),
    ("cells", "Z6", "{0,1}", "--enum-cap", "-1"),
    ("subgroup", "Z6", "{0,1}", "--enum-cap", "0"),
    ("verify", "--groups", "Z6", "--theorem", "chain", "--enum-cap", "-3"),
], ids=lambda argv: argv[0] if argv[-1] == "80" else f"{argv[0]}-cap{argv[-1]}")
def test_enum_cap_above_64_is_refused_up_front(capsys, argv):
    # and a cap below 1, which would refuse every enumeration one task at a time
    rc, out, err = run_cli(capsys, *argv)
    name, cap = "enumeration cap" if argv[0] == "verify" else "--enum-cap", argv[-1]
    reason = "is above 64, the widest cell mask the enumeration holds" if cap == "80" else "is below 1"
    assert (rc, out, err) == (2, "", f"error: {name} {cap} {reason}\n")


# refusals that main reports, each as its one stderr line (--umax 12, --samples 0
# and --enum-cap have their own tests); TABLE names a cayley: file the test writes
CLI_REFUSALS = {
    "cells-empty": (("cells", "Z6", "{}"), "the empty set has no cells; give a nonempty set"),
    "subgroup-empty": (("subgroup", "Z6", "{}"), "give a nonempty set"),
    "umax-negative": (("cells", "Z12", "{0,1}", "--umax", "-1"), "--umax must be nonnegative, got -1"),
    "no-samples": (("cells", "Z8", "{0,1}", "--mode", "sampled", "--seed", "1"),
                   "sampled mode requires --samples and --seed"),
    "no-seed": (("cells", "Z8", "{0,1}", "--mode", "sampled", "--samples", "5"),
                "sampled mode requires --samples and --seed"),
    "no-theorem": (("verify", "--groups", "Z6", "--theorem", ","), "no theorems selected"),
    "cayley-column": (("info", "cayley:TABLE"), "latin-square: column 1 repeats entry 1"),
    "cayley-identity": (("info", "cayley:TABLE"), "identity: 1*0 = 2, expected 1"),
}
CAYLEY_TABLES = {"cayley-column": "3\n0 1 2\n1 0 2\n2 1 0\n", "cayley-identity": "3\n0 1 2\n2 0 1\n1 2 0\n"}


@pytest.mark.parametrize("case", CLI_REFUSALS)
def test_each_refusal_is_one_error_line_and_exit_2(capsys, tmp_path, case):
    argv, message = CLI_REFUSALS[case]
    table = tmp_path / "table.txt"
    table.write_text(CAYLEY_TABLES.get(case, ""))
    rc, out, err = run_cli(capsys, *(arg.replace("TABLE", str(table)) for arg in argv))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_verify_exit_code_one_on_violation(capsys, monkeypatch):
    def stub(g, cfg, state, seed):
        state.add(g.label, TheoremVerdict(Theorem.KNESER, Status.VIOLATED, {"x": 1}))

    monkeypatch.setitem(theorems._DRIVERS, "kneser", stub)
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z2", "--theorem", "kneser",
                         "--format", "jsonl")
    assert rc == 1
    statuses = [r["status"] for r in jsonl_records(out) if r["kind"] == "verdict"]
    assert statuses == ["VIOLATED"]
    rc, out, _ = run_cli(capsys, "verify", "--groups", "Z2", "--theorem", "kneser",
                         "--format", "table")
    assert rc == 1
    assert "violated:" in out


def test_verify_repeated_runs_are_byte_identical(capsys):
    argv = ("verify", "--groups", "Z6,Z2xZ4", "--theorem", "kneser,dichotomy",
            "--mode", "sampled", "--samples", "300", "--s-samples", "2",
            "--seed", "99", "--format", "jsonl")
    rc_a, out_a, _ = run_cli(capsys, *argv)
    rc_b, out_b, _ = run_cli(capsys, *argv)
    assert rc_a == rc_b == 0
    assert out_a == out_b


# (argv, lines, sha256 of stdout): Kneser lines rendered from the batch's
# columns, D3's FINDINGs from the checker, and --wide pairs all from the
# checker must reproduce the streams of the scalar checkers byte for byte
PINNED_VERIFY_STREAMS = [
    (("verify", "--groups", "D3,Q8,Z40", "--theorem", "kneser", "--mode", "sampled",
      "--samples", "3000", "--seed", "4", "--format", "jsonl"), 9_002,
     "cf51b6396c83558ff6a69369d4f5d0acabc18c04639538725dd005e9e30b7ff8"),
    (("verify", "--groups", "Z70", "--wide", "--theorem", "kneser", "--mode", "sampled",
      "--samples", "300", "--seed", "4", "--format", "jsonl"), 302,
     "512248b560bd10b6c35b61b2b28744a6570aea7296d9bfc53ba5719b763b74f1"),
    # the trivial subgroup of Z40 has 2^40 - 1 coset unions, so its rank
    # draws take two 32-bit words each; pinned before they were replayed
    # from getrandbits
    (("verify", "--groups", "Z40", "--theorem", "olson", "--mode", "sampled",
      "--samples", "300", "--seed", "4", "--format", "jsonl"), 302,
     "d9d2258ae47b78a182f25eb77dcc8fe1eebae2c633755c5660bb487de9e6e002"),
    # every theorem, nearly every line rendered from a batch's columns,
    # serially and through the pool; pinned from the scalar checkers' stream
    *((("verify", "--groups", "Z6,D3,Z2xZ4,Q8", "--theorem", "all", "--smax", "4", "--format", "jsonl",
        "--jobs", jobs), 577_562, "cad5840f7a736e1359e6888b9448365597d3832ece798d8a7d2054dc06cccfa1")
      for jobs in ("1", "2")),
]


@pytest.mark.parametrize("argv, lines, digest", PINNED_VERIFY_STREAMS)
def test_verify_streams_match_pinned_digests(capsys, argv, lines, digest):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the jsonl stream at --jobs 2 may cost one more interpreter with its
# modules loaded (a pool worker) over --jobs 1, never memory that grows with
# the records: at about 1x and 4x the records of the first workload
PEAK_RSS_MARGIN_MB = 64
PEAK_RSS_SCRIPT = """
import resource, sys
from cellkit.cli import main
rc = main(sys.argv[1:])
peak = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(rc, peak // 1024, file=sys.stderr)
"""


def peak_rss_mb(*argv):
    """Self + children peak RSS, in MB, of one command line run in a child process with stdout to /dev/null."""
    package_root = str(Path(cellkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    rc, peak = proc.stderr.split()[-2:]
    assert proc.returncode == 0 and rc == "0", proc.stderr
    return int(peak)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("groups", ["Z6,Z8,Z2xZ4", "Z8,Z2xZ4,Z9,Z3xZ3"])  # 134,021 and 652,294 lines
def test_verify_jobs_peak_memory_does_not_grow_with_the_stream(groups):
    argv = ("verify", "--groups", groups, "--theorem", "kneser", "--format", "jsonl")
    serial = peak_rss_mb(*argv, "--jobs", "1")
    pooled = peak_rss_mb(*argv, "--jobs", "2")
    assert pooled <= serial + PEAK_RSS_MARGIN_MB, (serial, pooled)


# -- the exit-code contract, fuzzed ---------------------------------------

GOOD_GROUPS = ["Z1", "Z2", "Z6", "Z2xZ3", "D3", "S3", "Z4..Z6"]
BAD_GROUPS = ["K9", "Z0", "Z100", "D0", "S6", f"cayley:{MISSING_TABLE}", "Z5..Z2"]
GOOD_SETS = ["{0,1}", "{0,2,3}", "{0}", "{1,3}", "all:2", "rand:2:3:1"]
BAD_SETS = ["{}", "{0,99}", "{-1,0}", "{0,1", "garbage", "all:0", "rand:0:3:1"]


@st.composite
def cli_argvs(draw):
    """An argv for verify, cells, subgroup or info, valid or not, that runs in well under a second."""
    def option(flag, values):
        return [flag, str(draw(values))] if draw(st.booleans()) else []

    # about half the command lines draw only good tokens, so that most of those run to the end
    valid = draw(st.booleans())

    def good_or_bad(good, bad):
        return st.sampled_from(good if valid else good + bad)

    small = good_or_bad([1, 2, 3, 4], [-1, 0])
    samples = good_or_bad([1, 7, 50], [-1, 0])
    enum_cap = good_or_bad([4, 20], [-1, 80])
    group = good_or_bad(GOOD_GROUPS, BAD_GROUPS)
    subset = good_or_bad(GOOD_SETS, BAD_SETS)
    command = draw(st.sampled_from(["verify", "cells", "subgroup", "info"]))
    if command == "verify":
        theorem_names = good_or_bad([*theorems.DRIVER_NAMES, "all"], ["fermat", ""])
        argv = ["verify", "--groups", ",".join(draw(st.lists(group, min_size=1, max_size=3))),
                "--theorem", ",".join(draw(st.lists(theorem_names, min_size=1, max_size=2))),
                "--max-instances", str(draw(good_or_bad([1, 40, 400], [-1, 0])))]
        argv += option("--set", subset) + option("--smin", small) + option("--smax", small)
        argv += option("--jobs", st.sampled_from([1, 2])) + option("--enum-cap", enum_cap)
        if draw(st.booleans()):
            argv += ["--mode", "sampled", "--seed", str(draw(small)), "--samples", str(draw(samples)),
                     *option("--s-samples", small)]
    elif command == "info":
        argv = ["info", draw(group)]
    else:
        argv = [command, draw(group), draw(subset), *option("--enum-cap", enum_cap)]
        if command == "cells":
            argv += option("--umax", good_or_bad([0, 1, 2, 5], [-1, 6]))
            if draw(st.booleans()):
                argv += ["--mode", "sampled", "--seed", str(draw(small)), "--samples", str(draw(samples))]
    # a wide group (Z100 is good with --wide) refuses its chain and
    # corollary tasks at once, and its sampled Kneser pairs go to the checker
    if draw(st.booleans()):
        argv.append("--wide")
    return argv + option("--format", st.sampled_from(["jsonl", "csv", "table"]))


@settings(max_examples=100, derandomize=True)
@example(argv=["verify", "--groups", "Z6,K9", "--theorem", "kneser", "--format", "jsonl"])
@example(argv=["verify", "--groups", "Z100,Z6", "--theorem", "all", "--mode", "sampled", "--seed", "1",
               "--samples", "50", "--wide"])
@given(argv=cli_argvs())
def test_the_exit_code_contract_holds_on_fuzzed_command_lines(argv):
    # 0 or 2, or 1 with a VIOLATED line on stdout; 2 leaves stdout empty;
    # an exception escaping main would be a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (rc, err)
    assert "Traceback" not in err
    if rc == 1:
        assert "VIOLATED" in out
    if rc == 2:
        assert out == "", err


# -- entry points ---------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.strip() == f"cellkit {__version__}"


def declared_script_target(name):
    """The "module:attr" that pyproject.toml's [project.scripts] gives `name`."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        table, scripts = None, {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]" and "=" in line:
                key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
                scripts[key] = value
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    return scripts[name]


def assert_prints_version(argv, env=None):
    proc = subprocess.run([*argv, "--version"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"cellkit {__version__}", proc.stderr


def test_console_script_is_installed():
    # Runs the declared entry point in a child process, as pip's wrapper
    # script would, so an uninstalled checkout checks it too; and runs the
    # installed `cellkit` as well wherever one is on PATH.
    module, attr = declared_script_target("cellkit").split(":")
    package_root = str(Path(cellkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    wrapper = (f"import sys; sys.argv[0] = 'cellkit'; from {module} import {attr}; "
               f"sys.exit({attr}())")
    assert_prints_version([sys.executable, "-c", wrapper], env={**os.environ, "PYTHONPATH": path})
    script = shutil.which("cellkit")
    if script:
        assert_prints_version([script])
