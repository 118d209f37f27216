"""
Classification predicates and the stratification comparison report.

For a dominant mu with mu(n) = 0 and sum coprime to n (so b = tau^(sum mu) is
superbasic), the toolkit can decide:

* condition_iii -- membership of mu in the explicit list of shapes for which
  the semi-module stratification refines the Ekedahl-Oort stratification;
* condition_ii  -- the witness form of the same statement: every non-empty
  minimal-coset admissible element admits a length-positive conjugator to a
  Coxeter element;
* thm12_member / all_top_cyclic -- the classification of shapes whose top
  extended semi-modules are all cyclic, checked both through the crystal
  construction and through direct enumeration (the list carries one clause
  found by computation, see thm12_clause);
* the point-count identity between class polynomials summed over the cyclic
  minimal-coset elements and the strata dimensions of the closed variety.

The two members of each pair are computed by unrelated code paths, so each
sweep is a machine check of the corresponding equivalence.  full_report builds
each per-shape object once and feeds it to every verdict of the shape.
condition_ii and full_report read the minimal-coset admissible elements from
one ordered walk (admissible.s_adm_walk), which never builds or sorts the set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from . import weyl as W
from . import admissible as A
from . import semimodule as SM
from . import crystal as C
from . import reduction as R


HARD_MAX_N = 9
HARD_MAX_MU1 = 8
HARD_MAX_WINDOW_SCALE = 8     # semimodules: window, phi table and JSON grow with it


@dataclass(frozen=True)
class EORow:
    element: W.AffineWeylElement
    length: int
    cycle_type: tuple[int, ...]
    nonempty: bool
    coxeter_witness: tuple[int, ...] | None
    dim: int | None


@dataclass(frozen=True)
class SMRow:
    lam: tuple[int, ...]
    dim: int
    cyclic: bool
    type: tuple[int, ...]


@dataclass(frozen=True)
class ComparisonReport:
    mu: tuple[int, ...]
    n: int
    m: int
    eo_rows: tuple[EORow, ...]
    sm_rows: tuple[SMRow, ...]
    cond_ii: bool
    cond_iii: bool
    thm12_member: bool
    all_top_cyclic: bool | None         # None off the superbasic locus
    point_count_identity: bool | None   # None when cond_iii fails (not asserted)
    seed: int


def _check_mu(mu: tuple[int, ...], n: int, superbasic: bool = True) -> int:
    if len(mu) != n:
        raise ValueError("mu must have n entries")
    if not W.is_dominant(mu) or mu[-1] != 0:
        raise ValueError(f"mu must be dominant with mu(n) = 0: {mu}")
    m = sum(mu)
    if superbasic and math.gcd(m, n) != 1:
        raise ValueError(f"sum(mu) = {m} must be coprime to n = {n}")
    return m


# ---------------------------------------------------------------------------
# the two explicit lists
# ---------------------------------------------------------------------------

def _add(*vs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(t) for t in zip(*vs))


def _scale(c: int, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c * x for x in v)


def condition_iii(mu: tuple[int, ...], n: int) -> bool:
    """
    The refinement list, up to central shifts (mu is taken with mu(n)=0).
    Pure list membership, so it is defined for any dominant mu; the sweep
    enforcing the superbasic hypothesis restricts to coprime totals.
    """
    _check_mu(mu, n, superbasic=False)
    om = lambda k: W.omega(n, k)

    forms: list[tuple[int, ...]] = []
    if n >= 2:
        forms += [om(1), om(n - 1)]
    if n >= 3 and n % 2 == 1:
        forms += [om(2), _scale(2, om(1)), om(n - 2), _scale(2, om(n - 1))]
    if n >= 3:
        forms += [_add(om(2), om(n - 1)), _add(_scale(2, om(1)), om(n - 1)),
                  _add(om(1), om(n - 2)), _add(om(1), _scale(2, om(n - 1)))]
    if n in (7, 8):
        forms += [om(3), om(n - 3)]
    if n in (4, 5):
        forms += [_scale(3, om(1)), _scale(3, om(n - 1))]
    if n == 5:
        forms += [_add(om(1), om(2)), _add(om(3), om(4))]
    if n == 3:
        forms += [_scale(4, om(1)), _add(om(1), _scale(3, om(2))),
                  _scale(4, om(2)), _add(_scale(3, om(1)), om(2))]
    if n == 2:
        return mu[1] == 0 and mu[0] % 2 == 1   # m omega_1 with m odd
    if n == 1:
        return True
    return mu in forms


def thm12_clause(mu: tuple[int, ...], n: int) -> str | None:
    """
    The clause of the all-top-cyclic list, up to central shifts, that
    produces mu ("i" to "v"), or None off the list.  A shape produced by more
    than one clause gets the first label.

    Clauses (i)-(iv) are the paper's list as transcribed.  Clause (v),
    omega_1 + omega_i + omega_(n-1) with gcd(i, n) = 1, i.e.
    (3, 2^(i-1), 1^(n-1-i), 0), is established by computation, not
    transcribed: on these shapes the exact enumeration finds every top
    stratum cyclic, and the number of cyclic top strata equals the Kostka
    number dim V_mu(lambda_b), which counts all top strata (tests pin both
    at n = 5, 7, 8).  The clause is closed under duality (i <-> n-i), and
    for i = 1 and i = n-1 it repeats shapes of clause (iv).  The paper text
    is not at hand, so whether its theorem omits this family or the family
    was lost in transcription is open.
    """
    m = _check_mu(mu, n, superbasic=False)
    om = lambda k: W.omega(n, k)
    if n == 1:
        return "i"

    forms: dict[tuple[int, ...], str] = {}
    for i in range(1, n):
        if math.gcd(i, n) == 1:
            forms.setdefault(om(i), "i")
    for i in range(1, n):
        if math.gcd(i + 1, n) == 1:
            forms.setdefault(_add(om(1), om(i)), "ii")
            forms.setdefault(_add(om(n - 1), om(n - i)), "ii")
    rmax = m // n + 1
    for r in range(0, rmax + 1):
        for i in range(1, n):
            if math.gcd(i, n) != 1:
                continue
            k = n * r + i
            forms.setdefault(_scale(k, om(1)), "iii")
            forms.setdefault(_scale(k, om(n - 1)), "iii")
            if r >= 1:
                for j in range(2, n):
                    if k - j >= 1:
                        forms.setdefault(_add(_scale(k - j, om(1)), om(j)), "iv")
                        forms.setdefault(_add(_scale(k - j, om(n - 1)), om(n - j)), "iv")
    for i in range(1, n):
        if math.gcd(i, n) == 1:
            forms.setdefault(_add(om(1), om(i), om(n - 1)), "v")
    return forms.get(mu)


def thm12_member(mu: tuple[int, ...], n: int) -> bool:
    """
    The all-top-cyclic list, up to central shifts: clauses (i)-(iv) of the
    paper's list plus clause (v), omega_1 + omega_i + omega_(n-1) with
    gcd(i, n) = 1, which is established by computation (see thm12_clause).
    """
    return thm12_clause(mu, n) is not None


# ---------------------------------------------------------------------------
# computed verdicts
# ---------------------------------------------------------------------------

def all_top_cyclic(mu: tuple[int, ...], n: int) -> bool:
    """
    Whether every top extended semi-module for mu is cyclic, decided by two
    independent routes (crystal construction and direct enumeration), whose
    full (lambda, cyclicity) multisets are required to agree.  full_report
    runs _all_top_cyclic on the semi-modules it already holds; this
    standalone form, which enumerates only the top ones, is what the tests
    and the benchmark's worker call.
    """
    m = _check_mu(mu, n)
    return _all_top_cyclic(mu, n, m, SM.enumerate_extended(mu, min_dim=SM.dim_x_mu(mu)))


def _all_top_cyclic(mu: tuple[int, ...], n: int, m: int, ex: tuple) -> bool:
    """all_top_cyclic given the extended semi-modules ex of mu: all of them,
    or only those of the top dimension, which must be reached and not
    exceeded."""
    crystal_side = Counter()
    for b in C.enumerate_weight_space(mu, SM.lambda_b(m, n)):
        cd = C.build_construction(b, m, n)
        crystal_side[(C.top_lambda(cd), C.lambda_and_cyclicity(cd)[1])] += 1

    d = SM.dim_x_mu(mu)
    if not ex or max(e.dim for e in ex) != d:
        raise AssertionError(f"top dimension disagrees with the formula at {mu}")
    sm_side = Counter((e.base.lam, e.is_cyclic) for e in ex if e.dim == d)
    if crystal_side != sm_side:
        raise AssertionError(f"crystal and semi-module routes disagree at {mu}")
    ans_crystal = all(cyc for (_, cyc) in crystal_side)
    ans_sm = all(e.is_cyclic for e in ex if e.dim == d)
    if ans_crystal != ans_sm:
        raise AssertionError(f"route verdicts disagree at {mu}")
    return ans_sm


def condition_ii(mu: tuple[int, ...], n: int) -> bool:
    """
    Every minimal-coset admissible element with non-empty stratum has a
    length-positive Coxeter conjugator.  The non-emptiness test only needs
    tau^m basic, so this is defined without the coprimality hypothesis.
    full_report reads the same verdict off its rows; this standalone form,
    which walks the elements in order (s_adm_walk) and stops at the first
    one without a witness, building and sorting no set, is what the tests
    and the benchmark's worker call.
    """
    m = _check_mu(mu, n, superbasic=False)
    for w in A.s_adm_walk(mu):
        if not A.x_w_nonempty(w, m):
            continue
        if A.condition_ii_witness(w) is None:
            return False
    return True


def _class_polynomials(cyclic: list, m: int, seed: int) -> dict:
    """The class polynomials of the cyclic elements, in the order given,
    whose reduction trees share one path-profile memo."""
    memo: dict = {}
    return {w: R.class_polynomial(w, m, seed=seed, memo=memo) for w in cyclic}


def _point_count_identity(mu: tuple[int, ...], polys: dict, ex: tuple) -> bool:
    """
    Whether the class polynomials summed over the cyclic minimal-coset
    admissible elements (polys) equal sum_j #{closed-variety strata of dim j}
    q^j, the right side running over all extended semi-modules for every
    dominant mu' below mu (ex for mu itself).  The nonzero coefficient of
    each degree is compared, negative ones included.
    """
    lhs = Counter()
    for cp in polys.values():
        for d, c in enumerate(cp.coefficients):
            lhs[d] += c
    rhs = Counter(e.dim for mu_p in W.dominant_below(mu)
                  for e in (ex if mu_p == mu else SM.enumerate_extended(mu_p)))
    return {d: c for d, c in lhs.items() if c} == {d: c for d, c in rhs.items() if c}


def full_report(mu: tuple[int, ...], n: int, seed: int = 0) -> ComparisonReport:
    """
    Assemble all verdicts for one (mu, n), building each object once.  One
    walk over s_adm, in order, gives the rows and condition ii; on the
    refinement list the class polynomials of its cyclic elements give the
    Ekedahl-Oort dims and the point-count identity (elsewhere trees can be
    large and unneeded).
    """
    m = _check_mu(mu, n, superbasic=False)
    superbasic = math.gcd(m, n) == 1
    ciii = condition_iii(mu, n)
    t12 = thm12_member(mu, n)
    ex = SM.enumerate_extended(mu) if superbasic else ()
    atc = _all_top_cyclic(mu, n, m, ex) if superbasic else None
    elements = list(A.s_adm_walk(mu))
    polys = _class_polynomials([w for w in elements if W.is_n_cycle(w.perm)],
                               m, seed) if ciii and superbasic else {}

    eo_rows = []
    for w in elements:
        nonempty = A.x_w_nonempty(w, m)
        witness = A.condition_ii_witness(w) if nonempty else None
        dim = polys[w].dim_from_tree if nonempty and w in polys else None
        eo_rows.append(EORow(element=w, length=W.length(w),
                             cycle_type=W.cycle_type(w.perm),
                             nonempty=nonempty, coxeter_witness=witness,
                             dim=dim))

    sm_rows = tuple(SMRow(lam=e.base.lam, dim=e.dim, cyclic=e.is_cyclic,
                          type=e.base.type) for e in ex)
    cii = all(r.coxeter_witness is not None for r in eo_rows if r.nonempty)
    pci = _point_count_identity(mu, polys, ex) if ciii and superbasic else None
    return ComparisonReport(mu=mu, n=n, m=m, eo_rows=tuple(eo_rows),
                            sm_rows=sm_rows, cond_ii=cii, cond_iii=ciii,
                            thm12_member=t12, all_top_cyclic=atc,
                            point_count_identity=pci, seed=seed)


# ---------------------------------------------------------------------------
# sweep ranges
# ---------------------------------------------------------------------------

def dominant_shapes(n: int, mu1_max: int):
    """Dominant mu with mu(n)=0, 1 <= mu(1) <= mu1_max, sum coprime to n."""
    if n > HARD_MAX_N or mu1_max > HARD_MAX_MU1:
        raise ValueError("sweep bounds exceed the hard guards")
    for first in range(1, mu1_max + 1):
        for rest in itertools.combinations_with_replacement(
                range(first, -1, -1), n - 2):
            mu = (first,) + rest + (0,)
            if math.gcd(sum(mu), n) == 1:
                yield mu

