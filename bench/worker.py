"""
One pass of a workload in a fresh interpreter, so that every module-level
cache of adlv starts empty.  Started by run.py; prints one JSON line.

    worker.py sweep <equivalence|cyclicity> <seed> <trace 0|1> [tiny]
    worker.py cli <trace 0|1> <output file> <adlv arguments...>

A sweep pass times the verdict of every shape, from adlv imported to the
last verdict, then checks properties of the results outside the timed
region.  Times are reported as wall time and at reference speed (speed.py).  A cli pass runs one adlv command the way the `adlv` console script
does (`sys.exit(main())`), with its standard output sent to a file.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import traceback
from collections import Counter

import numpy  # noqa: F401  (imported before the pass, as in set-up)
import adlv.cli  # noqa: F401

from adlv import admissible, cli, compare, crystal, reduction, semimodule, weyl

import spans
import speed
import workloads

MODULES = {"weyl": weyl, "admissible": admissible, "semimodule": semimodule,
           "crystal": crystal, "reduction": reduction, "compare": compare, "cli": cli}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _install_tracer(trace: bool, timer: speed.Timer) -> spans.Tracer | None:
    if not trace:
        return None
    tracer = spans.Tracer(timer.clock)
    tracer.install(MODULES)
    return tracer


def _capture_dimensions(dims: dict) -> None:
    """
    Record, per shape, how many extended semi-modules each dimension has, as
    enumerate_extended returns them inside the verdict (one call per shape,
    so the pass does not enumerate twice for the Kostka check).
    """
    inner = semimodule.enumerate_extended

    def enumerate_extended(mu, *args, **kwargs):
        result = inner(mu, *args, **kwargs)
        dims[tuple(mu)] = Counter(e.dim for e in result)
        return result

    semimodule.enumerate_extended = enumerate_extended


def _verdict(workload: str, mu: tuple[int, ...]) -> list[bool]:
    n = len(mu)
    if workload == "equivalence":
        return [compare.condition_ii(mu, n), compare.condition_iii(mu, n)]
    return [compare.all_top_cyclic(mu, n), compare.thm12_member(mu, n)]


def _check_s_adm(mu: tuple[int, ...], reference: bool) -> list[str]:
    """Properties every element of s_adm(mu) must have, and on affordable
    shapes equality with the reference route."""
    n, m = len(mu), sum(mu)
    found = admissible.s_adm(mu)
    problems = []
    if any(weyl.kappa(w) != m for w in found):
        problems.append("s_adm element with kappa != sum(mu)")
    if not all(admissible.is_min_coset_rep(w) for w in found):
        problems.append("s_adm element not minimal in its W_0-coset")
    if weyl.tau(n, m) not in found:
        problems.append("tau^m missing from s_adm")
    if reference and admissible.s_adm_via_enumeration(mu) != found:
        problems.append("s_adm differs from s_adm_via_enumeration")
    return problems


def run_sweep(workload: str, seed: int, trace: bool, tiny: bool) -> dict:
    inputs = workloads.sweep_inputs(workload, seed, tiny)
    timer = speed.Timer()
    tracer = _install_tracer(trace, timer)
    dims: dict = {}
    if workload == "cyclicity":
        _capture_dimensions(dims)

    records = []
    with timer:
        for mu in inputs:
            try:
                records.append({"mu": mu, "verdict": _verdict(workload, mu), "problems": []})
            except Exception as exc:   # an operation that raised has failed; go on
                records.append({"mu": mu, "verdict": None, "problems": [_describe(exc)]})
    peak = _peak_rss_mb()
    stats = tracer.snapshot() if tracer else None
    edges = tracer.edge_table() if tracer else None

    # checks, outside the timed region
    reference = workloads.reference_shapes(tiny)
    for rec in records:
        if rec["verdict"] is None:
            continue
        mu = rec["mu"]
        try:
            if workload == "equivalence":
                rec["problems"] += _check_s_adm(mu, mu in reference)
            else:
                if mu not in dims:
                    dims[mu] = Counter(e.dim for e in semimodule.enumerate_extended(mu))
                rec["dims"] = sorted(dims[mu].items())
        except Exception as exc:
            rec["problems"].append("check raised " + _describe(exc))
    return {"pass_s": timer.scaled_s, "wall_s": timer.wall_s, "peak_rss_mb": peak,
            "records": records, "stats": stats, "edges": edges}


def run_cli(trace: bool, out_path: str, argv: list[str]) -> dict:
    timer = speed.Timer()
    tracer = _install_tracer(trace, timer)
    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh), timer:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:          # what the console script would die of
            traceback.print_exc()
            rc = 1
    return {"pass_s": timer.scaled_s, "wall_s": timer.wall_s,
            "peak_rss_mb": _peak_rss_mb(), "rc": rc,
            "stats": tracer.snapshot() if tracer else None,
            "edges": tracer.edge_table() if tracer else None}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "sweep":
        result = run_sweep(argv[1], int(argv[2]), argv[3] == "1", "tiny" in argv[4:])
    elif mode == "cli":
        result = run_cli(argv[1] == "1", argv[2], argv[3:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
