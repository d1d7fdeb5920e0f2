"""Command-line behavior: formats, exit codes, caching, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cellkit
import cellkit.cells as cells_module
import cellkit.theorems as theorems
from cellkit import DiskCache, Status, Theorem, TheoremVerdict, __version__, build_group
from cellkit.cells import enumerate_cells
from cellkit.cli import main

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


def test_cells_builds_each_record_once(capsys, monkeypatch):
    # the balandraud row reads the records of the cell rows, so none is built twice
    calls = []
    make_record = cells_module.make_record
    monkeypatch.setattr(cells_module, "make_record", lambda *a: calls.append(a) or make_record(*a))
    rc, out, _ = run_cli(capsys, "cells", "Z12", "{0,1,6,7}", "--format", "jsonl")
    assert rc == 0
    rows = jsonl_records(out)
    assert len(calls) == sum(row["kind"] == "cell" for row in rows) > 0
    assert [row["subgroup"] for row in rows if row["kind"] == "balandraud"] == ["{0,6}"]


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
    # whether or not a selected theorem reads --set: one line, exit 2, no stream
    for spec in ("garbage", "{0,1", "all:0", "rand:0:5:1"):
        rc, out, err = run_cli(capsys, "verify", "--groups", "Z6", "--theorem", theorem,
                               "--set", spec, "--format", "jsonl")
        assert rc == 2, spec
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err


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
], ids=lambda argv: argv[0])
def test_enum_cap_above_64_is_refused_up_front(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "above 64" in err


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
