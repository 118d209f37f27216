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
  extended semi-modules are all cyclic (the list carries one clause found by
  computation, see thm12_clause).  all_top_cyclic counts: the top strata
  number K(mu, lambda_b), the tableaux of the crystal's weight space
  (X. Zhu and R. Zhou 2020; S. Nie 2022), so every top stratum is cyclic
  exactly when the cyclic top strata are that many.  The cyclic top strata
  come from two routes whose lambdas must agree: the crystal construction
  on the tableaux b with lambda(b) a rearrangement of mu, and the
  semi-modules, built from their types (standalone) or taken from the phi
  search (full_report);
* point_count_identity -- the identity between class polynomials summed over
  the cyclic minimal-coset elements and the strata dimensions of the closed
  variety, asserted on refinement-list shapes.

Both lists are closed under duality, so condition_iii and thm12_clause read
mu = omega_(k_1) + ... + omega_(k_r) off its entries and test the k's of mu
and of its dual against the omega_1-side forms only, building no form; the
form-by-form generators are kept in tests/oracles.py as reference routes.
The two members of each pair are computed by unrelated code paths, so each
sweep is a machine check of the corresponding equivalence.

A compare sweep builds each row from these five standalone verdicts.
full_report, which `compare --mu` prints, builds each per-shape object once
and feeds it to every verdict of the shape and to its rows: the phi search,
every minimal-coset admissible element with its witness, and every tableau.
It reads the minimal-coset admissible elements from one ordered walk
(admissible.s_adm_walk), which never builds or sorts the set.  condition_ii
decides the same walk one block t^mu' y (fixed mu') at a time; a block's
verdict depends on mu' alone, so it is kept for the life of the process
(_block_verdict) and a sweep decides each block once, not once per shape
above it.
"""

from __future__ import annotations

import functools
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

def _fundamental_weights(mu: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    mu = omega_(k_1) + ... + omega_(k_r) with r = mu(1), each k in 1..n-1
    taken c_k = mu(k) - mu(k+1) times (mu(n) = 0): the k's in ascending
    order, and those of the dual mu* (oracles.dualize), the n - k's.  For
    mu*(i) = mu(1) - mu(n+1-i) at every i, so
    c*_k = mu*(k) - mu*(k+1) = mu(n-k) - mu(n-k+1) = c_(n-k).
    """
    n = len(mu)
    ks = tuple(k for k in range(1, n) for _ in range(mu[k - 1] - mu[k]))
    return ks, tuple(n - k for k in reversed(ks))


def condition_iii(mu: tuple[int, ...], n: int) -> bool:
    """
    The refinement list, up to central shifts (mu is taken with mu(n)=0).
    For n >= 3 the list holds each form with its dual, so it is kept as a
    half-list, one weight tuple (_fundamental_weights) per pair of dual
    forms.  mu is on the list when the weights of mu or of mu* are

    * (1), (2, n-1) or (1, 1, n-1): omega_1, omega_2 + omega_(n-1) and
      2 omega_1 + omega_(n-1);
    * for odd n, (2) or (1, 1): omega_2 and 2 omega_1;
    * for n = 7, 8, (3): omega_3;
    * for n = 4, 5, (1, 1, 1): 3 omega_1;
    * for n = 5, (1, 2): omega_1 + omega_2;
    * for n = 3, (1, 1, 1, 1) or (1, 2, 2, 2): 4 omega_1 and
      omega_1 + 3 omega_2.

    As c*_k = c_(n-k), mu* has the weights of a half-list form exactly
    when mu is its dual (omega_(n-1), omega_1 + omega_(n-2),
    omega_1 + 2 omega_(n-1), ...).  At n = 2 the list is m omega_1 with m
    odd, and at n = 1 it holds every mu.  Pure list membership, so it is
    defined for any dominant mu; the sweep enforcing the superbasic
    hypothesis restricts to coprime totals.
    """
    _check_mu(mu, n, superbasic=False)
    if n == 1:
        return True
    if n == 2:
        return mu[1] == 0 and mu[0] % 2 == 1   # m omega_1 with m odd
    half = {(1,), (2, n - 1), (1, 1, n - 1)}
    if n % 2 == 1:
        half |= {(2,), (1, 1)}
    if n in (7, 8):
        half.add((3,))
    if n in (4, 5):
        half.add((1, 1, 1))
    if n == 5:
        half.add((1, 2))
    if n == 3:
        half |= {(1, 1, 1, 1), (1, 2, 2, 2)}
    return any(ks in half for ks in _fundamental_weights(mu))


def _thm12_conditions(ks: tuple[int, ...], n: int) -> tuple[bool, ...]:
    """Conditions (i)-(v) of thm12_clause on the weights ks, whose total k
    is their sum."""
    r, k, ones = len(ks), sum(ks), ks.count(1)
    coprime = math.gcd(k, n) == 1
    return (r == 1 and coprime,
            r == 2 and ks[0] == 1 and coprime,
            ones == r and coprime,
            ones == r - 1 and k > n and coprime,
            r == 3 and ks[0] == 1 and ks[2] == n - 1 and math.gcd(ks[1], n) == 1)


def thm12_clause(mu: tuple[int, ...], n: int) -> str | None:
    """
    The clause of the all-top-cyclic list, up to central shifts, that holds
    for mu ("i" to "v"), or None off the list.  Each clause is a set of
    forms closed under duality, stated by its omega_1-side forms in the
    weights (k_1 <= ... <= k_r) of _fundamental_weights; mu satisfies a
    clause when the weights of mu or of mu* meet its condition:

    (i)   omega_i: (i) with gcd(i, n) = 1;
    (ii)  omega_1 + omega_i: (1, i) with gcd(i + 1, n) = 1;
    (iii) r omega_1: (1^r) with gcd(r, n) = 1;
    (iv)  (r-1) omega_1 + omega_j: (1^(r-1), j) with 2 <= j <= n-1,
          k = r - 1 + j > n and gcd(k, n) = 1;
    (v)   omega_1 + omega_i + omega_(n-1): (1, i, n-1) with gcd(i, n) = 1.

    The first clause that holds is returned; n = 1 is "i".  This is the
    label of the list as generated form by form
    (oracles.thm12_clause_by_forms):

    * Each clause's set of forms is closed under duality, since the dual of
      a form has the weights n - k (c*_k = c_(n-k)): (i) and (v) map i to
      n - i, and gcd(n - i, n) = gcd(i, n); (ii), (iii) and (iv) list each
      omega_1-side form with its dual.  So mu is a form of a clause exactly
      when mu or mu* is one of its omega_1-side forms.
    * The generator cut (iii) and (iv) off at k <= n (m // n + 1) + n - 1,
      which exceeds m = sum(mu).  A form's total is its k on the omega_1
      side, and on the dual side (n-1) k in (iii) and
      (n - j) + (k - j)(n - 1) = k + (k - j)(n - 2) - (2j - n) >= k in (iv),
      as k - j >= 2 and 2j - n <= n - 2.  So no form equal to mu was cut
      off, and the gcd conditions lose nothing.
    * The generator inserted its forms clause by clause, keeping the first
      label.  (iii) and (iv) interleave, but they are disjoint: a (iii)
      form repeats one weight, while a (iv) form mixes at least two 1's
      (k - j > n - j >= 1) with a j >= 2, or is the dual of one.  So the
      label is the first clause that holds.

    Clauses (i)-(iv) are the paper's list as transcribed.  Clause (v),
    i.e. (3, 2^(i-1), 1^(n-1-i), 0), is established by computation, not
    transcribed: on these shapes the exact enumeration finds every top
    stratum cyclic, and the number of cyclic top strata equals the Kostka
    number dim V_mu(lambda_b), which counts all top strata (tests pin both
    at n = 5, 7, 8).  For i = 1 and i = n-1 it repeats shapes of clause
    (iv).  The paper text is not at hand, so whether its theorem omits this
    family or the family was lost in transcription is open.
    """
    _check_mu(mu, n, superbasic=False)
    if n == 1:
        return "i"
    sides = [_thm12_conditions(ks, n) for ks in _fundamental_weights(mu)]
    labels = ("i", "ii", "iii", "iv", "v")
    return next((c for c, own, dual in zip(labels, *sides) if own or dual), None)


def thm12_member(mu: tuple[int, ...], n: int) -> bool:
    """
    The all-top-cyclic list, up to central shifts: whether mu or mu* meets
    one of the conditions (i)-(v) of thm12_clause on its fundamental
    weights.  Clauses (i)-(iv) are the paper's list; clause (v),
    omega_1 + omega_i + omega_(n-1) with gcd(i, n) = 1, is established by
    computation (see thm12_clause).
    """
    return thm12_clause(mu, n) is not None


# ---------------------------------------------------------------------------
# computed verdicts
# ---------------------------------------------------------------------------

def all_top_cyclic(mu: tuple[int, ...], n: int) -> bool:
    """
    Whether every top extended semi-module for mu is cyclic, by the count of
    _all_top_cyclic over the cyclic top strata built from their types
    (semimodule.cyclic_top_strata), with no phi search.  full_report runs
    _all_top_cyclic on the cyclic top strata of the enumeration it already
    holds, so each report also checks the phi search against the crystal;
    this standalone form is what a compare sweep, the tests and the
    benchmark's worker call.
    """
    m = _check_mu(mu, n)
    return _all_top_cyclic(mu, n, m, SM.cyclic_top_strata(mu))


def _all_top_cyclic(mu: tuple[int, ...], n: int, m: int, cyclic_top: tuple) -> bool:
    """
    all_top_cyclic given the cyclic extended semi-modules of top dimension
    cyclic_top.  The top strata number K(mu, lambda_b), the tableaux of
    shape mu and weight lambda_b (X. Zhu and R. Zhou 2020; S. Nie 2022), and
    the crystal construction matches the cyclic ones with the tableaux b
    whose lambda(b) rearranges mu, the stratum's lambda being top_lambda(b).
    So every top stratum is cyclic exactly when every tableau b is.  The
    multiset of top_lambda over the cyclic b must equal that of lambda over
    cyclic_top, or the routes disagree and this raises; top_lambda is
    computed for the cyclic b only.
    """
    tableaux = C.enumerate_weight_space(mu, SM.lambda_b(m, n))
    crystal_side = Counter()
    for b in tableaux:
        cd = C.build_construction(b, m, n)
        if C.lambda_and_cyclicity(cd)[1]:
            crystal_side[C.top_lambda(cd)] += 1
    if crystal_side != Counter(e.base.lam for e in cyclic_top):
        raise AssertionError(f"crystal and semi-module routes disagree at {mu}")
    return sum(crystal_side.values()) == len(tableaux)


def condition_ii(mu: tuple[int, ...], n: int) -> bool:
    """
    Every minimal-coset admissible element with non-empty stratum has a
    length-positive Coxeter conjugator.  The non-emptiness test only needs
    tau^m basic, so this is defined without the coprimality hypothesis.
    full_report reads the same verdict off its rows; this standalone form,
    which a compare sweep, the tests and the benchmark's worker call,
    decides s_adm(mu) block by block (_block_verdict), taking the mu' in the
    order of s_adm_walk and stopping at the first block that fails.

    That is the verdict of walking s_adm_walk(mu) and stopping at the first
    non-empty element without a witness (kept as oracles.condition_ii_by_walk):
    * every element t^mu' y of the walk has kappa = sum(mu') = sum(mu), so
      x_w_nonempty(w, sum(mu)) = x_w_nonempty(w, sum(mu')), and
      condition_ii_witness reads w alone: the verdict on w is a function of
      w, and the verdict on a block a function of mu';
    * the walk is the concatenation of the blocks _min_coset_reps(mu') over
      reversed(W.dominant_below(mu)), in that order (s_adm_walk);
    * so the walk's early exit is the AND over the blocks in that order,
      each block stopping at its first failing element, and all() stops at
      the first failing block, where the walk stops.
    A block decided for some shape is read from the cache by every later
    shape whose walk passes it.
    """
    _check_mu(mu, n, superbasic=False)
    return all(_block_verdict(mu_p) for mu_p in reversed(W.dominant_below(mu)))


@functools.lru_cache(maxsize=None)
def _block_verdict(mu_prime: tuple[int, ...]) -> bool:
    """
    Whether every t^mu' y of _min_coset_reps(mu'), in order, with non-empty
    stratum (b = tau^(sum mu')) has a Coxeter witness; False at the first
    that has none.  One bool per mu' is kept for the life of the process.
    """
    m = sum(mu_prime)
    return all(A.condition_ii_witness(w) is not None
               for w in A._min_coset_reps(mu_prime) if A.x_w_nonempty(w, m))


def _class_polynomials(cyclic: list, m: int) -> dict:
    """The class polynomials of the cyclic elements, in the order given,
    whose reduction trees share one path-profile memo."""
    memo: dict = {}
    return {w: R.class_polynomial(w, m, memo=memo) for w in cyclic}


def point_count_identity(mu: tuple[int, ...], n: int) -> bool:
    """
    full_report's point-count verdict for one superbasic shape, computed on
    its own: the class polynomials of the n-cycle elements of s_adm_walk(mu)
    against the extended semi-modules of every dominant mu' below mu.  The
    sweep asks it on refinement-list shapes only, as full_report does.
    """
    m = _check_mu(mu, n)
    polys = _class_polynomials([w for w in A.s_adm_walk(mu) if W.is_n_cycle(w.perm)], m)
    return _point_count_identity(mu, polys, SM.enumerate_extended(mu))


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


def full_report(mu: tuple[int, ...], n: int) -> ComparisonReport:
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
    atc = None
    if superbasic:
        d = SM.dim_x_mu(mu)
        if not ex or max(e.dim for e in ex) != d:
            raise AssertionError(f"top dimension disagrees with the formula at {mu}")
        atc = _all_top_cyclic(mu, n, m, tuple(e for e in ex if e.is_cyclic and e.dim == d))
    elements = list(A.s_adm_walk(mu))
    polys = _class_polynomials([w for w in elements if W.is_n_cycle(w.perm)],
                               m) if ciii and superbasic else {}

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
                            point_count_identity=pci)


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

