"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload join-k1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/repro`` must be present;
without it the benchmark exits non-zero).  Steps:

1. build, once per checkout, the fixed-seed last-name pool that every
   workload samples its inputs from (``.bench_build/perfbench/``);
2. untraced runs only: time the workload's set-up in fresh processes
   and report the median as ``setup_s`` (a sample that compiled the
   native kernels into their cache, kept in the same directory, is
   discarded and taken again);
3. run the workload in a fresh process of its own and print its record
   line, then the result line (``correct``, ``attempted``, ``failed``,
   ``metrics``).

Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("join-k1", "serve-churn", "stream-spill")

#: fresh-process set-up samples per untraced run (plus one discarded)
SETUP_SAMPLES = 2
#: every process this script starts must be gone within this budget
DEADLINE_S = 170.0
#: the one-time pool build may take this long on the first run
POOL_BUILD_S = 600.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


_children: list[subprocess.Popen] = []


def _on_signal(signum, frame):
    for proc in _children:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(128 + signum)


def run_child(cmd: list[str], env: dict, timeout: float) -> str:
    """Run one child in its own process group and return its stdout.

    On timeout or a termination signal the whole group (the child's
    worker pool too) is killed and waited for, so nothing outlives this
    script.
    """
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout:.0f} s: {cmd[2:]}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren
        except ProcessLookupError:
            pass
        _children.remove(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {cmd[2:]}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="repro benchmark (see README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="drop one match before checking (self-test hook)")
    args = p.parse_args(argv)
    started = time.monotonic()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _on_signal)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no source tree at {root / 'src' / 'repro'}")
    cache = root / ".bench_build" / "perfbench"
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f"tmp-{os.getpid()}"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_NATIVE_CACHE=str(cache / "native"),
        TMPDIR=str(cache),
        PYTHONHASHSEED="0",
    )
    child = [sys.executable, str(HERE / "workloads.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--root", str(root), "--tmp", str(tmp)]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        # keyed by the data generator's source, so a change to it rebuilds
        data_src = hashlib.sha256()
        for path in sorted((root / "src" / "repro" / "data").glob("*.py")):
            data_src.update(path.read_bytes())
        pool = cache / f"ln_pool_{args.size}_{data_src.hexdigest()[:12]}.txt"
        if not pool.exists():
            run_child(child + ["--build-pool", str(pool), "--size", args.size],
                      env, POOL_BUILD_S)
            started = time.monotonic()  # the build is a one-time cost
        common += ["--pool", str(pool)]
        setups: list[float] = []
        if not args.trace:
            # A probe that had to compile the kernels (cold cache) is
            # discarded, so set-up never mixes a compile with a cache hit.
            compiled = False
            while len(setups) < SETUP_SAMPLES:
                before = time.time()
                out = run_child(child + common + ["--setup-only"], env, remaining())
                fresh = any(p.stat().st_mtime >= before
                            for p in (cache / "native").glob("*.so"))
                if fresh and not compiled:
                    compiled = True
                    continue
                setups.append(json.loads(out.splitlines()[-1])["setup_s"])
        cmd = child + common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)]
        if args.corrupt:
            cmd.append("--corrupt")
        result = json.loads(run_child(cmd, env, remaining()).splitlines()[-1])
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        return fail(str(exc))
    record = result.pop("record")
    if setups:
        # the measured process's own set-up is one more fresh sample
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        record["setup_samples_s"] = setups
        record["native_cache"] = "compiled, sample discarded" if compiled else "warm"
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
