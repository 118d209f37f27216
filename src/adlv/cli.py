"""
Command-line front end: one subcommand per object, JSON/CSV output on
stdout or in the file --out names.  Every command computes its result:
identical arguments and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import stat
import sys
import tempfile

from . import __version__
from . import weyl as W
from . import admissible as AD
from . import semimodule as SM
from . import crystal as C
from . import reduction as R
from . import compare as CP

# adm refuses a shape with more minimal-coset admissible elements than this
ADM_MAX_ELEMENTS = 100_000
# crystal and compare --mu refuse a shape whose weight space B_mu(lambda_b)
# has more tableaux than this
CRYSTAL_MAX_TABLEAUX = 10_000
# a compare sweep refuses a range whose weight spaces hold more tableaux
# than this, summed over its shapes
SWEEP_MAX_TABLEAUX = 200_000
HARD_MAX_WINDOW_SCALE = 8     # semimodules: window, phi table and JSON grow with it


def _require(cond: bool, message: str):
    if not cond:
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_mu(text: str | None) -> tuple[int, ...]:
    _require(text is not None, "--mu is required")
    try:
        mu = tuple(int(v) for v in text.split(","))
    except ValueError:
        mu = None
    _require(mu is not None, f"--mu must be comma separated integers: {text!r}")
    return mu


def _parse_shape(args) -> tuple[tuple[int, ...], int]:
    """--mu and its length n, checked before any work: dominant, and within
    the hard guards on n and on the entries."""
    mu = _parse_mu(args.mu)
    n = len(mu)
    _require(W.is_dominant(mu), "--mu must be dominant")
    _require(n <= CP.HARD_MAX_N and 0 <= mu[-1] and mu[0] <= CP.HARD_MAX_MU1,
             f"--mu exceeds the hard guards (n <= {CP.HARD_MAX_N}, "
             f"entries in 0..{CP.HARD_MAX_MU1})")
    return mu, n


def _tableaux(mu: tuple[int, ...], n: int) -> int:
    """K(mu, lambda_b), the tableaux of the weight space that all_top_cyclic
    and full_report build one construction each for, counted without them."""
    return C.weight_space_size(mu, SM.lambda_b(sum(mu), n))


def _require_tableaux(mu: tuple[int, ...], n: int, command: str):
    size = _tableaux(mu, n)
    _require(size <= CRYSTAL_MAX_TABLEAUX,
             f"--mu has {size:,} tableaux of weight lambda_b, past the budget "
             f"of {CRYSTAL_MAX_TABLEAUX:,} that {command} builds")


def _parse_element(args) -> W.AffineWeylElement:
    """--n within the hard guards, --w, and --m coprime to n on a subcommand
    that reads --m, checked in that order before --w is parsed."""
    reads_m = hasattr(args, "m")
    _require(args.n is not None, "--n is required")
    _require(1 <= args.n <= CP.HARD_MAX_N,
             f"--n must lie in 1..{CP.HARD_MAX_N} (the hard guards)")
    _require(not reads_m or args.m is not None, "--m is required")
    _require(args.w is not None, "--w is required")
    _require(not reads_m or math.gcd(args.m, args.n) == 1, "m must be coprime to n")
    try:
        w, problem = W.parse_element(args.w, args.n), ""
    except ValueError as exc:
        w, problem = None, str(exc)
    _require(w is not None, problem)
    return w


def _emit(text: str, out: str | None):
    """
    Write text to stdout, or to the file out names, through any symlinks.
    A regular or new target is replaced atomically by a file with the
    target's mode, or with 0666 less the umask when it is new.  Any other
    target (a FIFO, a device) is written through, not replaced.
    """
    if not out:
        sys.stdout.write(text)
        return
    out = os.path.realpath(out)
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(out, "w") as fh:
            fh.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_semimodules(args) -> int:
    mu, n = _parse_shape(args)
    _require(mu[-1] == 0, "--mu must end in 0")
    _require(1 <= args.window_scale <= HARD_MAX_WINDOW_SCALE,
             f"--window-scale must lie in 1..{HARD_MAX_WINDOW_SCALE} (the hard guards)")
    if sum(mu) == 0:
        # the one semi-module A = N, with phi = maxk(a) = a // n everywhere
        trivial = SM.SemiModule(m=0, n=n, type=mu, lam=mu, abar=tuple(range(n)),
                                class_min=tuple(range(n)), conductor=0)
        strata = [SM._checked(trivial, mu, (), 0)]
    else:
        _require(math.gcd(sum(mu), n) == 1, "sum(mu) must be coprime to n")
        strata = SM.enumerate_extended(mu)
    records = [{
        "lambda": list(e.base.lam),
        "abar": list(e.base.abar),
        "phi": [[a, v] for a, v in e.phi_window(args.window_scale)],
        "dim": e.dim,
        "cyclic": e.is_cyclic,
        "type": list(e.base.type),
    } for e in strata]
    _emit(json.dumps(records, indent=2) + "\n", args.out)
    return 0


def cmd_crystal(args) -> int:
    mu, n = _parse_shape(args)
    _require(mu[-1] == 0, "--mu must end in 0")
    _require(n >= 2, "--mu must have at least 2 entries")
    m = sum(mu)
    _require(math.gcd(m, n) == 1, "sum(mu) must be coprime to n")
    _require_tableaux(mu, n, "crystal")
    records = []
    for b in C.enumerate_weight_space(mu, SM.lambda_b(m, n)):
        cd = C.build_construction(b, m, n)
        records.append({
            "b": [list(row) for row in cd.b],
            "w_list": [list(W.perm_word(p)) for p in cd.w_list],
            "w_of_b": list(W.perm_word(cd.w_of_b)),
            "lambda_of_b": list(cd.lambda_of_b),
            "xi1_normalized": list(C.top_lambda(cd)),
            "cyclic": cd.is_cyclic,
        })
    _emit(json.dumps(records, indent=2) + "\n", args.out)
    return 0


def cmd_adm(args) -> int:
    mu, n = _parse_shape(args)
    m = sum(mu)
    size = AD.s_adm_size(mu)
    _require(size <= ADM_MAX_ELEMENTS,
             f"--mu has {size:,} minimal-coset admissible elements, past the "
             f"budget of {ADM_MAX_ELEMENTS:,} that adm lists")
    records = [_element_record(w, AD.x_w_nonempty(w, m)) for w in AD.s_adm_walk(mu)]
    _emit(json.dumps(records, indent=2) + "\n", args.out)
    return 0


def _element_record(w: W.AffineWeylElement, nonempty: bool) -> dict:
    """One minimal-coset admissible element as adm prints it, and as the
    first four keys of a compare --mu eo_rows entry."""
    return {
        "element": W.encode_element(w),
        "length": W.length(w),
        "finite_part_cycle_type": list(W.cycle_type(w.perm)),
        "nonempty": nonempty,
    }


def cmd_lp(args) -> int:
    w = _parse_element(args)
    data = AD.lp(w)
    record = {
        "w": W.encode_element(w),
        "lp": sorted(",".join(str(v + 1) for v in p) for p in data.lp),
        "phi_w": sorted([a + 1, b + 1] for a, b in data.phi_w),
        "coxeter_witness": None,
    }
    witness = AD.condition_ii_witness(w)
    if witness is not None:
        record["coxeter_witness"] = ",".join(str(v + 1) for v in witness)
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def cmd_classpoly(args) -> int:
    w = _parse_element(args)
    # the longest element of any Adm(mu) within the hard guards is a
    # translation by mu = (HARD_MAX_MU1^(n//2), 0, ...) of length <mu, 2 rho>
    longest = CP.HARD_MAX_MU1 * (args.n // 2) * ((args.n + 1) // 2)
    _require(W.length(w) <= longest,
             f"--w is longer than any admissible element within the hard "
             f"guards (length at most {longest} at n = {args.n})")
    byend = R.path_profiles(w, seed=args.seed)
    cp = R._class_polynomial_of_profiles(w, args.m, byend)
    ends = {W.encode_element(end): sum(prof.values())
            for end, prof in byend.items()}
    record = {
        "w": W.encode_element(w),
        "end_counts": dict(sorted(ends.items())),
        "paths": [{"lI": a, "lII": b, "count": c}
                  for (a, b), c in cp.path_profile],
        "F_as_q_polynomial": list(cp.coefficients),
        "dim": cp.dim_from_tree,
        "top_components": cp.top_components,
        "seed": args.seed,
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


VERDICTS = ("cond_ii", "cond_iii", "thm12_member", "all_top_cyclic",
            "point_count_identity")


def _violates(row: dict) -> bool:
    """Whether one shape's verdicts break an equivalence or the identity."""
    return (row["cond_ii"] != row["cond_iii"]
            or (row["all_top_cyclic"] is not None
                and row["all_top_cyclic"] != row["thm12_member"])
            or row["point_count_identity"] is False)


def _row(mu: tuple[int, ...], n: int, verdicts: tuple) -> dict:
    return {"n": n, "mu": ",".join(str(v) for v in mu), **dict(zip(VERDICTS, verdicts))}


def _sweep_row(mu: tuple[int, ...], n: int) -> dict:
    """One swept shape's verdicts from the standalone predicates; like
    full_report, the point-count identity is asserted on refinement-list
    shapes only."""
    ciii = CP.condition_iii(mu, n)
    return _row(mu, n, (CP.condition_ii(mu, n), ciii, CP.thm12_member(mu, n),
                        CP.all_top_cyclic(mu, n),
                        CP.point_count_identity(mu, n) if ciii else None))


def _report_row(mu: tuple[int, ...], n: int, detail: bool) -> dict:
    """One shape's verdicts and, with detail, its rows: one full_report."""
    rep = CP.full_report(mu, n)
    row = _row(mu, n, (rep.cond_ii, rep.cond_iii, rep.thm12_member,
                       rep.all_top_cyclic, rep.point_count_identity))
    if detail:
        row["eo_rows"] = [{
            **_element_record(r.element, r.nonempty),
            "coxeter_witness": None if r.coxeter_witness is None
            else ",".join(str(v + 1) for v in r.coxeter_witness),
            "dim": r.dim,
        } for r in rep.eo_rows]
        row["sm_rows"] = [{
            "lambda": list(e.base.lam), "dim": e.dim, "cyclic": e.is_cyclic,
            "type": list(e.base.type),
        } for e in rep.strata]
    return row


def cmd_compare(args) -> int:
    if args.mu is not None:
        _require(args.max_n is None and args.max_mu1 is None,
                 "--mu cannot be combined with the sweep options --max-n/--max-mu1")
        mu, n = _parse_shape(args)
        _require(mu[-1] == 0, "--mu must end in 0")
        _require(n >= 2, "--mu must have at least 2 entries")
        if math.gcd(sum(mu), n) == 1:     # else full_report builds no tableau
            _require_tableaux(mu, n, "compare")
        row = _report_row(mu, n, detail=args.format == "json")
        if args.format == "json":
            _emit(json.dumps(row, indent=2) + "\n", args.out)
            return 1 if _violates(row) else 0
        rows = [row]
    else:
        _require(args.max_n is not None and args.max_mu1 is not None,
                 "either --mu or both --max-n/--max-mu1 are required")
        _require(2 <= args.max_n <= CP.HARD_MAX_N and 1 <= args.max_mu1 <= CP.HARD_MAX_MU1,
                 f"sweep bounds must lie in the hard guards (--max-n 2..{CP.HARD_MAX_N}, "
                 f"--max-mu1 1..{CP.HARD_MAX_MU1})")
        shapes = [(mu, n) for n in range(2, args.max_n + 1)
                  for mu in CP.dominant_shapes(n, args.max_mu1)]
        tableaux = 0
        for mu, n in shapes:      # counting stops at the first sum past the budget
            tableaux += _tableaux(mu, n)
            _require(tableaux <= SWEEP_MAX_TABLEAUX,
                     f"the sweep's shapes have at least {tableaux:,} tableaux of "
                     f"weight lambda_b, past the budget of {SWEEP_MAX_TABLEAUX:,} "
                     f"that a sweep builds")
        rows = sorted((_sweep_row(mu, n) for mu, n in shapes),
                      key=lambda r: (r["n"], r["mu"]))

    if args.format == "csv":
        buf = io.StringIO()
        cols = ["n", "mu", *VERDICTS]
        buf.write(",".join(cols) + "\n")
        for r in rows:
            buf.write(",".join(_csv_cell(r[c]) for c in cols) + "\n")
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    _emit(text, args.out)
    return 1 if any(map(_violates, rows)) else 0


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return f'"{v}"' if "," in str(v) else str(v)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adlv",
        description="Exact strata combinatorics for superbasic affine "
                    "Deligne-Lusztig varieties of GL_n.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, func, *options):
        """A subcommand with --out and the named options it reads.
        Abbreviations are off, so an option it lacks (--m on adm, say) is
        refused instead of read as a prefix of another (--mu)."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if "n" in options:
            p.add_argument("--n", type=int)
        if "m" in options:
            p.add_argument("--m", type=int)
        if "mu" in options:
            p.add_argument("--mu", help="comma separated entries")
        if "w" in options:
            p.add_argument("--w", help="element, e.g. 's0*s4*tau^2' or 't[..]*p[..]'")
        if "format" in options:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        if "window-scale" in options:
            p.add_argument("--window-scale", type=int, default=1)
        p.set_defaults(func=func)
        return p

    subcommand("semimodules", "extended semi-modules for mu", cmd_semimodules,
               "mu", "window-scale")
    subcommand("crystal", "the weight space B_mu(lambda_b) with construction data",
               cmd_crystal, "mu")
    subcommand("adm", "minimal-coset admissible elements for mu", cmd_adm, "mu")
    subcommand("lp", "length-positive data of one element", cmd_lp, "n", "w")
    subcommand("classpoly", "reduction tree and class polynomial", cmd_classpoly,
               "n", "w", "m", "seed")
    p = subcommand("compare", "stratification comparison verdicts", cmd_compare,
                   "mu", "format")
    p.add_argument("--max-n", type=int)
    p.add_argument("--max-mu1", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _require(not args.out or os.path.isdir(os.path.dirname(os.path.realpath(args.out))),
             f"--out is in a directory that does not exist: {args.out}")
    _require(not args.out or not os.path.isdir(args.out),
             f"--out is a directory, not a file: {args.out}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
