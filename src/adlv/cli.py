"""
Command-line front end: one subcommand per object, JSON/CSV output, and a
content-addressed result cache (directory from ADLV_CACHE_DIR, off when
unset).  Identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile

from . import __version__
from . import weyl as W
from . import admissible as AD
from . import semimodule as SM
from . import crystal as C
from . import reduction as R
from . import compare as CP

CACHE_ENV = "ADLV_CACHE_DIR"
# adm refuses a shape with more minimal-coset admissible elements than this
ADM_MAX_ELEMENTS = 100_000


def _require(cond: bool, message: str):
    if not cond:
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_mu(text: str | None) -> tuple[int, ...]:
    _require(text is not None, "--mu is required")
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        print(f"error: --mu must be comma separated integers: {text!r}",
              file=sys.stderr)
        raise SystemExit(2) from None


def _parse_shape(args) -> tuple[tuple[int, ...], int]:
    """--mu and --n, checked before any work: n entries, dominant, and within
    the hard guards on n and on the entries."""
    mu = _parse_mu(args.mu)
    n = args.n or len(mu)
    _require(len(mu) == n, "--mu must have n entries")
    _require(W.is_dominant(mu), "--mu must be dominant")
    _require(n <= CP.HARD_MAX_N and 0 <= mu[-1] and mu[0] <= CP.HARD_MAX_MU1,
             f"--mu exceeds the hard guards (n <= {CP.HARD_MAX_N}, "
             f"entries in 0..{CP.HARD_MAX_MU1})")
    return mu, n


def _parse_element(args) -> W.AffineWeylElement | None:
    """--n and --w, and --m coprime to n on a subcommand that reads --m,
    checked in that order before --w is parsed.  None, with the message on
    stderr, when --w does not parse."""
    reads_m = hasattr(args, "m")
    _require(args.n is not None, "--n is required")
    _require(not reads_m or args.m is not None, "--m is required")
    _require(args.w is not None, "--w is required")
    _require(not reads_m or math.gcd(args.m, args.n) == 1, "m must be coprime to n")
    try:
        return W.parse_element(args.w, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the names and bytes of the package's source files."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cache_path(payload: dict) -> str | None:
    """Cache file for a command payload, keyed on the version and the source
    digest, so results never outlive the code that made them."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    key = hashlib.sha256(
        json.dumps({"version": __version__, "source": _source_digest(), **payload},
                   sort_keys=True).encode()
    ).hexdigest()
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, key + ".json")


def _emit(text: str, out: str | None):
    if out:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _run_cached(key_payload: dict, compute, out: str | None) -> str:
    path = _cache_path(key_payload)
    if path and os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
    else:
        text = compute()
        if path:
            _emit(text, path)
    _emit(text, out)
    return text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_semimodules(args) -> int:
    mu, n = _parse_shape(args)
    _require(mu[-1] == 0, "--mu must end in 0")
    _require(1 <= args.window_scale <= CP.HARD_MAX_WINDOW_SCALE,
             f"--window-scale must lie in 1..{CP.HARD_MAX_WINDOW_SCALE} (the hard guards)")
    if sum(mu) == 0:
        records = [{"lambda": [0] * n, "abar": list(range(n)),
                    "phi": [[a, 0] for a in range(n)], "dim": 0,
                    "cyclic": True, "type": [0] * n}]
        text = json.dumps(records, indent=2) + "\n"
        _emit(text, args.out)
        return 0
    _require(math.gcd(sum(mu), n) == 1, "sum(mu) must be coprime to n")

    def compute() -> str:
        exts = SM.enumerate_extended(mu, window_scale=args.window_scale)
        records = []
        for e in exts:
            records.append({
                "lambda": list(e.base.lam),
                "abar": list(e.base.abar),
                "phi": [[a, v] for a, v in e.phi_window(args.window_scale)],
                "dim": e.dim,
                "cyclic": e.is_cyclic,
                "type": list(e.base.type),
            })
        return json.dumps(records, indent=2) + "\n"

    _run_cached({"cmd": "semimodules", "mu": mu, "n": n,
                 "window_scale": args.window_scale}, compute, args.out)
    return 0


def cmd_crystal(args) -> int:
    mu, n = _parse_shape(args)
    _require(mu[-1] == 0, "--mu must end in 0")
    _require(n >= 2, "--mu must have at least 2 entries")
    m = sum(mu)
    _require(math.gcd(m, n) == 1, "sum(mu) must be coprime to n")

    def compute() -> str:
        records = []
        for b in C.enumerate_weight_space(mu, SM.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            lam, cyc = C.lambda_and_cyclicity(cd)
            records.append({
                "b": [list(row) for row in b],
                "w_list": [list(W.perm_word(p)) for p in cd.w_list],
                "w_of_b": list(W.perm_word(cd.w_of_b)),
                "lambda_of_b": list(lam),
                "xi1_normalized": list(C.top_lambda(cd)),
                "cyclic": cyc,
            })
        return json.dumps(records, indent=2) + "\n"

    _run_cached({"cmd": "crystal", "mu": mu, "n": n, "m": m}, compute, args.out)
    return 0


def cmd_adm(args) -> int:
    mu, n = _parse_shape(args)
    m = sum(mu)
    size = AD.s_adm_size(mu)
    _require(size <= ADM_MAX_ELEMENTS,
             f"--mu has {size:,} minimal-coset admissible elements, past the "
             f"budget of {ADM_MAX_ELEMENTS:,} that adm lists")

    def compute() -> str:
        records = []
        for w in AD.s_adm_walk(mu):
            records.append({
                "element": W.encode_element(w),
                "length": W.length(w),
                "finite_part_cycle_type": list(W.cycle_type(w.perm)),
                "nonempty": AD.x_w_nonempty(w, m),
            })
        return json.dumps(records, indent=2) + "\n"

    _run_cached({"cmd": "adm", "mu": mu, "n": n}, compute, args.out)
    return 0


def cmd_lp(args) -> int:
    w = _parse_element(args)
    if w is None:
        return 2

    def compute() -> str:
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
        return json.dumps(record, indent=2) + "\n"

    _run_cached({"cmd": "lp", "w": W.encode_element(w), "n": args.n},
                compute, args.out)
    return 0


def cmd_classpoly(args) -> int:
    w = _parse_element(args)
    if w is None:
        return 2
    # the longest element of any Adm(mu) within the hard guards is a
    # translation by mu = (HARD_MAX_MU1^(n//2), 0, ...) of length <mu, 2 rho>
    longest = CP.HARD_MAX_MU1 * (args.n // 2) * ((args.n + 1) // 2)
    _require(W.length(w) <= longest,
             f"--w is longer than any admissible element within the hard "
             f"guards (length at most {longest} at n = {args.n})")

    def compute() -> str:
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
        return json.dumps(record, indent=2) + "\n"

    _run_cached({"cmd": "classpoly", "w": W.encode_element(w), "n": args.n,
                 "m": args.m, "seed": args.seed}, compute, args.out)
    return 0


def _violates(row: dict) -> bool:
    """Whether one shape's verdicts break an equivalence or the identity."""
    return (row["cond_ii"] != row["cond_iii"]
            or (row["all_top_cyclic"] is not None
                and row["all_top_cyclic"] != row["thm12_member"])
            or row["point_count_identity"] is False)


def _report_row(mu: tuple[int, ...], n: int, detail: bool = False) -> dict:
    """One shape's verdicts and, with detail, its rows: one full_report."""
    rep = CP.full_report(mu, n)
    row = {
        "n": n,
        "mu": ",".join(str(v) for v in mu),
        "cond_ii": rep.cond_ii,
        "cond_iii": rep.cond_iii,
        "thm12_member": rep.thm12_member,
        "all_top_cyclic": rep.all_top_cyclic,
        "point_count_identity": rep.point_count_identity,
    }
    if detail:
        row["eo_rows"] = [{
            "element": W.encode_element(r.element),
            "length": r.length,
            "finite_part_cycle_type": list(r.cycle_type),
            "nonempty": r.nonempty,
            "coxeter_witness": None if r.coxeter_witness is None
            else ",".join(str(v + 1) for v in r.coxeter_witness),
            "dim": r.dim,
        } for r in rep.eo_rows]
        row["sm_rows"] = [{
            "lambda": list(r.lam), "dim": r.dim, "cyclic": r.cyclic,
            "type": list(r.type),
        } for r in rep.sm_rows]
    return row


def cmd_compare(args) -> int:
    _require(1 <= args.jobs <= (os.cpu_count() or 1),
             "--jobs must be between 1 and the CPU count")
    rows = []
    if args.mu:
        _require(args.max_n is None and args.max_mu1 is None,
                 "--mu cannot be combined with the sweep options --max-n/--max-mu1")
        mu, n = _parse_shape(args)
        _require(mu[-1] == 0, "--mu must end in 0")
        _require(n >= 2, "--mu must have at least 2 entries")
        if args.format == "json":
            detail = _report_row(mu, n, detail=True)
            _emit(json.dumps(detail, indent=2) + "\n", args.out)
            return 1 if _violates(detail) else 0
        rows.append(_report_row(mu, n))
    else:
        _require(args.max_n is not None and args.max_mu1 is not None,
                 "either --mu or both --max-n/--max-mu1 are required")
        _require(2 <= args.max_n <= CP.HARD_MAX_N and 1 <= args.max_mu1 <= CP.HARD_MAX_MU1,
                 f"sweep bounds must lie in the hard guards (--max-n 2..{CP.HARD_MAX_N}, "
                 f"--max-mu1 1..{CP.HARD_MAX_MU1})")
        jobs = []
        for n in range(2, args.max_n + 1):
            for mu in CP.dominant_shapes(n, args.max_mu1):
                jobs.append((mu, n))
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_report_row, *zip(*jobs)))
        else:
            rows = [_report_row(mu, n) for mu, n in jobs]
        rows.sort(key=lambda r: (r["n"], r["mu"]))

    if args.format == "csv":
        import io

        buf = io.StringIO()
        cols = ["n", "mu", "cond_ii", "cond_iii", "thm12_member",
                "all_top_cyclic", "point_count_identity"]
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
        """A subcommand with --n, --out and the named options it reads.
        Abbreviations are off, so an option it lacks (--m on adm, say) is
        refused instead of read as a prefix of another (--mu)."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
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
    subcommand("lp", "length-positive data of one element", cmd_lp, "w")
    subcommand("classpoly", "reduction tree and class polynomial", cmd_classpoly,
               "w", "m", "seed")
    p = subcommand("compare", "stratification comparison verdicts", cmd_compare,
                   "mu", "format")
    p.add_argument("--max-n", type=int)
    p.add_argument("--max-mu1", type=int)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _require(args.n is None or 1 <= args.n <= CP.HARD_MAX_N,
             f"--n must lie in 1..{CP.HARD_MAX_N} (the hard guards)")
    _require(not args.out or os.path.isdir(os.path.dirname(args.out) or "."),
             f"--out is in a directory that does not exist: {args.out}")
    _require(not args.out or not os.path.isdir(args.out),
             f"--out is a directory, not a file: {args.out}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
