#!/usr/bin/env python3
"""
Quick check of the benchmark harness itself (about half a minute; not part
of the test suite).  From the root of a checkout:

    python3 bench/selfcheck.py

On a few tiny inputs of every workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, and a
    traced run every per-layer metric, with their units and no failures;
  * a verdict flipped inside the benchmark process counts as a failed
    operation;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(*args: str) -> dict:
    rc, lines = bench(*args)
    assert rc == 0 and lines, f"run {args} exited {rc}"
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["attempted"] >= 1 and out["correct"] is True, out
    return out


def check_metrics(out: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want, f"printed metrics differ: {set(got) ^ set(want)}"
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def main() -> int:
    common = ("--seed", "0", "--seconds", "1", "--tiny")
    for workload in WORKLOADS:
        plain = result("--workload", workload, *common, "--trace", "0")
        check_metrics(plain, SPEC["end_to_end"])
        assert plain["failed"] == 0, plain
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain

        traced = result("--workload", workload, *common, "--trace", "1")
        check_metrics(traced, SPEC["per_layer"])
        assert traced["failed"] == 0, traced

        flipped = result("--workload", workload, *common, "--trace", "0", "--flip", "0")
        assert flipped["failed"] >= 1, f"{workload}: a flipped verdict was not counted"
        print(f"{workload}: ok ({plain['attempted']} operations, "
              f"flipped run failed {flipped['failed']} of {flipped['attempted']})")

    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", WORKLOADS[0], *common[:4], cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)
    print("without the sources: exit code", rc, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
