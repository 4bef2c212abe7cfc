"""Self-test of the benchmark at a tiny input size (about two minutes).

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` untraced and traced, prints every
metric by name with its value and unit, and checks that

* the names and units are exactly the ones ``BENCHMARK.json`` declares,
  and every run is correct with 0 failed operations;
* a deliberately corrupted result (one match dropped before checking,
  ``--corrupt``) is reported as a failed operation;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("join-k1", "serve-churn", "stream-spill")


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(["--workload", workload, "--trace", str(trace),
                          "--size", "tiny"])
            res = result_of(proc)
            tag = f"{workload} trace={trace}"
            if res is None:
                problems.append(f"{tag}: no result\n{proc.stderr[-2000:]}")
                continue
            print(f"== {tag}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"   {name:30s} {m['value']:16.6g} {m['unit']}")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: {res['failed']} failed operations")
        res = result_of(bench(["--workload", workload, "--trace", "0",
                               "--size", "tiny", "--corrupt"]))
        print(f"== {workload} --corrupt: {res and (res['correct'], res['failed'])}")
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{workload}: a dropped match was not reported")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", WORKLOADS[0], "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"== without src/: exit code {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/: expected a non-zero exit and no result")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
