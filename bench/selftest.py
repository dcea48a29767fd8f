"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Run it from the root of a checkout.  For every workload it checks that:

- both `--trace` modes report exactly the metrics BENCHMARK.json names,
  each with its unit;
- the code under test makes no command fail (error rate 0), and with
  tracing every traced pass calls each hook of the workload (`run.HOOKS`);
- one deliberately corrupted output is counted as a failure, which shows
  the output checks catch errors.

It also checks that every per-layer metric but `gc.gen2_runs` is non-zero
on some workload, which catches a span or counter whose name no longer
matches, and that the benchmark exits non-zero without a result in a
directory that holds only BENCHMARK.json and the benchmark.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SCALE = 0.02  # at least 20 images per workload
SEED = 7
# Full collections need a heap far larger than the tiny corpora make.
ZERO_AT_TINY_SIZE = {"gc.gen2_runs"}


def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def _duplicate_a_vr(stdout: bytes, work: Path) -> bytes:
    path = work / "out" / "annotations.json"
    corpus = json.loads(path.read_text(encoding="utf-8"))
    image = next(name for name, records in sorted(corpus.items()) if records)
    corpus[image].append(corpus[image][0])
    path.write_text(json.dumps(corpus, ensure_ascii=False), encoding="utf-8")
    return stdout


def _drop_a_vr(stdout: bytes, work: Path) -> bytes:
    path = work / "extracted.json"
    corpus = json.loads(path.read_text(encoding="utf-8"))
    image = next(name for name, records in sorted(corpus.items()) if records)
    corpus[image].pop()
    path.write_text(json.dumps(corpus, ensure_ascii=False), encoding="utf-8")
    return stdout


# Per workload: the command whose first output is corrupted, and how.
CORRUPTIONS = {
    "curate": ("workflow_run", _duplicate_a_vr),
    "inspect": ("lint", lambda stdout, work: b"[]\n"),
    "graph": ("kg_extract", _drop_a_vr),
}


def _corrupt(command_name: str, mutate):
    def tamper(pass_index: int, command, stdout: bytes, work: Path) -> bytes:
        if pass_index == 0 and command.name == command_name:
            return mutate(stdout, work)
        return stdout

    return tamper


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seen_nonzero: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, SEED, 0, trace, scale=SCALE)["result"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if got != wanted:
                _fail(f"{workload} trace={int(trace)}: metrics {sorted(got)} != {sorted(wanted)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failed = f"{result['failed']} of {result['attempted']}"
                _fail(f"{workload} trace={int(trace)}: {failed} failed")
            seen_nonzero |= {n for n, m in result["metrics"].items() if m["value"]}
            print(f"ok: {workload} trace={int(trace)}, {result['attempted']} commands, none failed")
        tamper = _corrupt(*CORRUPTIONS[workload])
        result = run.run(workload, SEED, 0, False, scale=SCALE, tamper=tamper)["result"]
        if result["correct"] or result["failed"] < 1:
            _fail(f"{workload}: a corrupted output was not counted as a failure")
        failed = f"{result['failed']} of {result['attempted']}"
        print(f"ok: {workload} counts a corrupted output ({failed} failed)")

    allowed = seen_nonzero | ZERO_AT_TINY_SIZE
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in allowed]
    if never:
        _fail(f"per-layer metrics zero on every workload: {never}")
    print("ok: every per-layer metric is non-zero on some workload")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        printed = done.stdout[:200]
        _fail(f"without sources the benchmark exited {done.returncode} printing {printed!r}")
    print("ok: without sources the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
