#!/usr/bin/env python3
"""
The adlv benchmark: one run of one workload, from the root of a checkout.

    python3 bench/run.py --workload equivalence|cyclicity|report \
        --seed N --seconds S --trace 0|1

A run first starts a few interpreters that only import numpy and adlv.cli
(set-up), then repeats whole passes over the workload's inputs, each pass in
fresh interpreters, until the next pass would end after S seconds (at least
two passes).  Times are rescaled to a reference speed of the machine, read
from a fixed loop around every timed stretch (speed.py).  The seed orders the inputs of every pass.  The load is a
closed loop with one client: one process at a time, no threads.

Every operation (one shape, or one adlv command) is checked; one whose check
fails, that raises, or whose command exits non-zero counts as failed, and the
run carries on.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run, whose passes
alternate untraced and traced.  The full result and the trace are written
under .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as WL

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_FIRST, SETUP_EACH_PASS = 5, 2    # set-up samples, spread over the run
MIN_PASSES = 2
DEADLINE_S = 170.0          # a run ends well within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def is_count(name: str) -> bool:
    return not name.endswith(("_s", ".s"))


class RunError(Exception):
    """The run cannot be made at all (nothing is printed on stdout)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ADLV_CACHE_DIR", None)           # no result cache: compute every time
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)


def spawn(args: list[str], env: dict, clock: Clock) -> tuple[int, str, str]:
    """Run one child to its end (killed and reaped at the deadline)."""
    try:
        proc = subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(clock.left(), 1.0))
    except subprocess.TimeoutExpired:
        return -9, "", "killed at the run deadline"
    return proc.returncode, proc.stdout, proc.stderr


def worker_result(rc: int, out: str, err: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        if rc == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    sys.stderr.write(err[-2000:])
    return None


def measure_setup(env: dict, clock: Clock, probes: int) -> list[float]:
    """Set-up samples at reference speed: from starting an interpreter until
    numpy and adlv.cli are imported, less the speed probe taken on the way."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        rc, out, err = spawn([str(BENCH / "setup_sample.py")], env, clock)
        if rc != 0:
            raise RunError("importing adlv.cli failed:\n" + err[-2000:])
        done, probing_s, before, after = map(float, out.split())
        samples.append(speed.at_reference(done - t0 - probing_s, before, after))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def kostka(mu: tuple[int, ...]) -> int:
    """K(mu, lambda_b): the number of top strata (dim V_mu(lambda_b))."""
    return WL.kostka(mu, WL.lambda_b(sum(mu), len(mu)))


class Sweep:
    """equivalence / cyclicity: one worker process per pass."""

    def __init__(self, workload: str, args, env: dict, clock: Clock):
        self.workload, self.args, self.env, self.clock = workload, args, env, clock
        self.inputs = WL.sweep_inputs(workload, args.seed, args.tiny)

    def run_pass(self, traced: bool) -> dict:
        argv = [str(BENCH / "worker.py"), "sweep", self.workload, str(self.args.seed),
                "1" if traced else "0"] + (["tiny"] if self.args.tiny else [])
        res = worker_result(*spawn(argv, self.env, self.clock))
        if res is None:
            return {"ok": False, "ops": [[f"{mu}", ["worker died"]] for mu in self.inputs]}
        records = res.pop("records")
        for rec in records:
            rec["mu"] = tuple(rec["mu"])
        if self.args.flip is not None and records[self.args.flip]["verdict"]:
            records[self.args.flip]["verdict"][0] ^= True
        check = self.check_equivalence if self.workload == "equivalence" else self.check_cyclicity
        verdicts = {rec["mu"]: rec["verdict"] for rec in records}
        res["ops"] = [[",".join(map(str, rec["mu"])), check(rec, verdicts)] for rec in records]
        res["ok"] = True
        return res

    @staticmethod
    def check_equivalence(rec: dict, verdicts: dict) -> list[str]:
        problems = list(rec["problems"])
        if rec["verdict"] is not None and rec["verdict"][0] != rec["verdict"][1]:
            problems.append("condition_ii != condition_iii")
        return problems

    @staticmethod
    def check_cyclicity(rec: dict, verdicts: dict) -> list[str]:
        problems = list(rec["problems"])
        if rec["verdict"] is None:
            return problems
        mu = rec["mu"]
        atc, member = rec["verdict"]
        if atc != member:
            problems.append("all_top_cyclic != thm12_member")
        dual = verdicts.get(WL.dual(mu))
        if dual is not None and dual[0] != atc:
            problems.append("all_top_cyclic not invariant under mu -> mu*")
        if "dims" in rec:
            top = dict(rec["dims"]).get(WL.top_dim(mu), 0)
            if top != kostka(mu):
                problems.append(f"{top} top-dimensional extended semi-modules, "
                                f"Kostka number {kostka(mu)}")
        return problems


class Report:
    """report: one fresh adlv process per command; a pass runs every command."""

    def __init__(self, args, env: dict, clock: Clock):
        self.args, self.env, self.clock = args, env, clock
        self.inputs = WL.report_inputs(args.seed, args.tiny)
        self.first_digest: dict = {}

    def run_pass(self, traced: bool) -> dict:
        ops, pass_s, wall_s, peak, stats, edges, ok = [], 0.0, 0.0, 0.0, {}, [], True
        for idx, argv in enumerate(self.inputs):
            out_file = OUT / f"cli-{self.args.seed}-{idx}.out"
            cmd = [str(BENCH / "worker.py"), "cli", "1" if traced else "0",
                   str(out_file)] + list(argv)
            res = worker_result(*spawn(cmd, self.env, self.clock))
            name = " ".join(argv)
            if res is None:
                ok = False
                ops.append([name, ["worker died"]])
                continue
            pass_s += res["pass_s"]
            wall_s += res["wall_s"]
            peak = max(peak, res["peak_rss_mb"])
            for key, value in (res["stats"] or {}).items():
                stats[key] = stats.get(key, 0) + value
            edges += res["edges"] or []
            text = out_file.read_bytes()
            problems = [] if res["rc"] == 0 else [f"exit code {res['rc']}"]
            digest = hashlib.sha256(text).hexdigest()
            if self.first_digest.setdefault(name, digest) != digest:
                problems.append("output differs from this run's first pass")
            try:
                problems += self.check_output(argv, text.decode(), idx == self.args.flip)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            ops.append([name, problems])
        return {"ok": ok, "ops": ops, "pass_s": pass_s, "wall_s": wall_s, "peak_rss_mb": peak,
                "stats": stats if traced else None, "edges": edges if traced else None}

    def check_output(self, argv, text: str, flip: bool) -> list[str]:
        opts = dict(zip(argv[1::2], argv[2::2]))
        if "--mu" in opts:
            data = json.loads(text)
            if flip:
                data["cond_ii"] = not data["cond_ii"]
            return self.check_detail(WL.parse_mu(opts["--mu"]), data)
        rows = list(csv.DictReader(io.StringIO(text)))
        if flip and rows:
            rows[0]["cond_ii"] = "false" if rows[0]["cond_ii"] == "true" else "true"
        return self.check_sweep(int(opts["--max-n"]), int(opts["--max-mu1"]), rows)

    @staticmethod
    def check_detail(mu: tuple[int, ...], data: dict) -> list[str]:
        problems = []
        n = len(mu)
        if data["mu"] != ",".join(map(str, mu)) or data["n"] != n:
            problems.append("report is for another shape")
        if data["cond_ii"] != data["cond_iii"]:
            problems.append("cond_ii != cond_iii")
        if data["all_top_cyclic"] is not None and data["all_top_cyclic"] != data["thm12_member"]:
            problems.append("all_top_cyclic != thm12_member")
        if data["cond_iii"]:
            if data["point_count_identity"] is not True:
                problems.append("point_count_identity is not true on a refinement-list shape")
            top = sum(1 for r in data["sm_rows"] if r["dim"] == WL.top_dim(mu))
            k = kostka(mu)
            if top != k:
                problems.append(f"{top} top-dimensional sm_rows, Kostka number {k}")
        return problems

    @staticmethod
    def check_sweep(max_n: int, max_mu1: int, rows: list[dict]) -> list[str]:
        problems = []
        expected = {(n, ",".join(map(str, mu)))
                    for n in range(2, max_n + 1) for mu in WL.shapes(n, max_mu1)}
        got = {(int(r["n"]), r["mu"]) for r in rows}
        if got != expected or len(rows) != len(expected):
            problems.append("sweep rows are not the shapes of the range")
        for r in rows:
            if r["cond_ii"] != r["cond_iii"]:
                problems.append(f"cond_ii != cond_iii at {r['mu']}")
            if r["all_top_cyclic"] and r["all_top_cyclic"] != r["thm12_member"]:
                problems.append(f"all_top_cyclic != thm12_member at {r['mu']}")
            if r["point_count_identity"] == "false":
                problems.append(f"point_count_identity false at {r['mu']}")
        return problems


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(args) -> dict:
    if not (ROOT / "src" / "adlv" / "cli.py").is_file():
        raise RunError(f"no adlv sources under {ROOT / 'src'}")
    clock = Clock()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(env, clock, SETUP_FIRST)
    runner = (Report(args, env, clock) if args.workload == "report"
              else Sweep(args.workload, args, env, clock))

    passes, walls = [], []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        res = runner.run_pass(traced)
        walls.append(time.perf_counter() - t0)
        res["traced"] = traced
        passes.append(res)
        setup += measure_setup(env, clock, SETUP_EACH_PASS)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed + statistics.mean(walls) > args.seconds:
            break
        if clock.left() < 1.5 * max(walls):
            break

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(i, name, probs) for i, p in enumerate(passes)
                for name, probs in p["ops"] if probs]
    complete = [p for p in passes if p["ok"]]
    plain = [p for p in complete if not p["traced"]]
    traced = [p for p in complete if p["traced"]]

    if not plain or (args.trace and not traced):
        raise RunError("no pass completed")
    if args.trace:
        per_pass = [p["stats"] for p in traced]
        values = {name: statistics.median(s[name] for s in per_pass) for name in per_pass[0]}
        t_pass = statistics.median(p["pass_s"] for p in traced)
        values["trace.pass_s"] = t_pass
        values["trace.overhead_s"] = t_pass - statistics.median(p["pass_s"] for p in plain)
        counts = [{k: v for k, v in s.items() if is_count(k)} for s in per_pass]
        counts_repeat = all(c == counts[0] for c in counts)
        spec = SPEC["per_layer"]
    else:
        values = {
            "pass_s": statistics.median(p["pass_s"] for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        counts_repeat = True
        spec = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    return {
        "summary": {"correct": len(complete) == len(passes) and counts_repeat,
                    "attempted": attempted, "failed": len(failures), "metrics": metrics},
        "failures": failures,
        "setup_samples": setup,
        "passes": [{k: v for k, v in p.items() if k not in ("ops", "edges")} for p in passes],
        "edges": [p["edges"] for p in traced],
        "counts_repeat": counts_repeat,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the adlv toolkit.")
    p.add_argument("--workload", required=True, choices=WL.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few tiny inputs, for the harness self-check")
    p.add_argument("--flip", type=int, default=None, metavar="K",
                   help="flip the verdict of the K-th operation of every pass "
                        "(the self-check's proof that failures are counted)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {k: v for k, v in result.items() if k != "edges"}, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}.trace.json").write_text(json.dumps(result["edges"]) + "\n")
    for i, name, probs in result["failures"][:10]:
        print(f"failed (pass {i}): {name}: {'; '.join(probs)}", file=sys.stderr)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
