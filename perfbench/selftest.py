#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every correctness check passes on good data and fails on a
   deliberately corrupted answer, ledger row or count.
2. Every workload runs at tiny scale, untraced and traced, is judged
   correct, and prints every metric ``BENCHMARK.json`` names, with its
   unit.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   own files, the benchmark exits non-zero without printing a result.

Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from repro.service.keys import ReleaseKey  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, failures: list[str], should_fail: bool) -> None:
    if bool(failures) != should_fail:
        FAILURES.append(f"{name}: expected {'failure' if should_fail else 'pass'}, "
                        f"got {failures or 'pass'}")
    else:
        print(f"ok   {name}")


def corrupt(values: np.ndarray) -> np.ndarray:
    """A copy with one estimate moved by one unit in the last place."""
    bad = np.array(values, dtype=np.float64)
    bad[len(bad) // 2] = np.nextafter(bad[len(bad) // 2], np.inf)
    return bad


def check_checks() -> None:
    rng = np.random.default_rng(0)
    boxes = rng.random((8, 4))
    estimates = rng.random(8) * 100

    def answer(slug, b):
        return estimates

    expect("bit_identical, served = archive",
           checks.bit_identical([("k", boxes, estimates.copy())], answer), False)
    expect("bit_identical, corrupted answer",
           checks.bit_identical([("k", boxes, corrupt(estimates))], answer), True)
    expect("json_matches_binary, equal",
           checks.json_matches_binary([("k", estimates, estimates.copy())]), False)
    expect("json_matches_binary, corrupted answer",
           checks.json_matches_binary([("k", estimates, corrupt(estimates))]), True)

    plain = ReleaseKey("storage", "UG", 0.5, 2)
    epoch = ReleaseKey("storage", "AG", 0.5, 1)
    events = [("build", plain), ("ingest", "storage|1", 100), ("build", epoch),
              ("build", epoch), ("ingest", "storage|2", 50)]
    expected = checks.expected_ledger(events)
    ledger = {
        "storage|2": {"total": 8.0, "ledger": [[0.5, plain.slug()]]},
        "storage|1": {"total": 8.0, "ledger": [[0.5, f"{epoch.slug()}@e100"]]},
    }
    expect("ledger_matches, acknowledged builds",
           checks.ledger_matches(ledger, expected), False)
    bad_eps = json.loads(json.dumps(ledger))
    bad_eps["storage|1"]["ledger"][0][0] = 0.25
    expect("ledger_matches, corrupted epsilon",
           checks.ledger_matches(bad_eps, expected), True)
    extra = json.loads(json.dumps(ledger))
    extra["storage|1"]["ledger"].append([0.5, f"{epoch.slug()}@e100"])
    expect("ledger_matches, double charge",
           checks.ledger_matches(extra, expected), True)
    over = json.loads(json.dumps(ledger))
    over["storage|2"]["total"] = 0.25
    expect("ledger_matches, spend over budget",
           checks.ledger_matches(over, expected), True)

    acknowledged = {"storage|1": 100, "storage|2": 50}
    expect("staged_matches, equal",
           checks.staged_matches(dict(acknowledged), acknowledged), False)
    expect("staged_matches, corrupted count",
           checks.staged_matches({"storage|1": 100, "storage|2": 49}, acknowledged), True)
    expect("unchanged, equal", checks.unchanged("n", 3, 3), False)
    expect("unchanged, changed", checks.unchanged("n", 3, 4), True)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            done = run(ROOT, "--workload", workload["name"], "--seed", "7",
                       "--seconds", "1", "--trace", trace, "--scale", "tiny")
            if done.returncode != 0:
                FAILURES.append(f"{label}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            problems = []
            if not result["correct"]:
                problems.append("judged incorrect: " + "; ".join(
                    line for line in done.stdout.splitlines() if "CHECK FAILED" in line))
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"attempted {result['attempted']} failed {result['failed']}")
            for metric in names:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"metric {metric['name']} missing or wrong unit: {got}")
                elif f"{metric['name']} = " not in done.stdout:
                    problems.append(f"metric {metric['name']} not printed")
            if problems:
                FAILURES.append(f"{label}: " + "; ".join(problems))
            else:
                print(f"ok   {label}: {len(names)} metrics")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, "--workload", "query-warm", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        printed = done.stdout.strip().splitlines()
        if done.returncode == 0 or (printed and printed[-1].startswith("{")):
            FAILURES.append("bare directory: expected a non-zero exit and no result")
        else:
            print(f"ok   bare directory exits {done.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checks()
    check_bare_directory()
    check_runs()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest " + ("passed" if not FAILURES else "FAILED"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
