"""
Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The criterion-7 sweep,
computed once for criteria 7 and 7b, is the slow item; everything else is
seconds.  Criterion 7 compares the all-top-cyclic list predicate with the
exact enumeration.  The list holds the paper's clauses (i)-(iv) plus clause
(v), omega_1 + omega_i + omega_(n-1) with gcd(i, n) = 1, which is
established by computation rather than transcribed: clauses (i)-(iv) alone
miss exactly one dual pair of rank-5 shapes in this range, and the
companion test pins that gap (see also the README's known-caveats section).
"""

import functools
import math
import time
from collections import Counter

from adlv import admissible as A
from adlv import compare as CP
from adlv import crystal as C
from adlv import reduction as R
from adlv import semimodule as S
from adlv import weyl as W

import oracles as O
from oracles import coroot, omega


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status} {detail}")
    return ok


def addv(*vs):
    return tuple(sum(t) for t in zip(*vs))


FIXTURE_SHAPES = (
    [omega(n, 2) for n in (5, 7, 9, 11)]
    + [omega(7, 3), omega(8, 3)]
    + [addv(omega(n, 1), omega(n, n - 2)) for n in range(4, 9)]
    + [(2, 1, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0, 0)]
)


def test_criterion_01_omega2_strata():
    t0 = time.time()
    ok = True
    for n in (5, 7, 9, 11):
        exts = S.enumerate_extended(omega(n, 2))
        by_dim = {}
        for e in exts:
            by_dim.setdefault(e.dim, set()).add(e.base.lam)
        ok &= sorted(by_dim) == list(range((n - 3) // 2 + 1))
        ok &= all(len(v) == 1 for v in by_dim.values())
        ok &= by_dim[0] == {(0,) * n}
        for j in range(1, (n - 3) // 2 + 1):
            start = 1 if j % 2 else 2
            terms = [coroot(n, t, n - t + 1) for t in range(start, j + 1, 2)]
            want = addv(*terms) if len(terms) > 1 else terms[0]
            ok &= by_dim[j] == {want}
    elapsed = time.time() - t0
    assert report(1, ok and elapsed < 5, f"({elapsed:.2f}s)")


def test_criterion_02_omega3_strata():
    t0 = time.time()
    exts7 = S.enumerate_extended(omega(7, 3))
    counts7 = Counter(e.dim for e in exts7)
    lams7 = {e.base.lam for e in exts7 if e.dim > 0}
    ok = counts7 == Counter({0: 1, 1: 1, 2: 2, 3: 1})
    ok &= lams7 == {coroot(7, 1, 7), coroot(7, 1, 6), coroot(7, 2, 7),
                    coroot(7, 3, 5)}
    exts8 = S.enumerate_extended(omega(8, 3))
    counts8 = Counter(e.dim for e in exts8)
    by8 = {}
    for e in exts8:
        by8.setdefault(e.dim, set()).add(e.base.lam)
    ok &= counts8 == Counter({0: 1, 1: 1, 2: 2, 3: 2, 4: 1})
    ok &= by8[1] == {coroot(8, 1, 8)}
    ok &= by8[2] == {coroot(8, 1, 7), coroot(8, 2, 8)}
    ok &= by8[3] == {coroot(8, 2, 6), coroot(8, 3, 7)}
    ok &= by8[4] == {addv(coroot(8, 1, 8), coroot(8, 4, 5))}
    elapsed = time.time() - t0
    assert report(2, ok and elapsed < 5, f"({elapsed:.2f}s)")


def _hook_reps(n, j):
    half = (j + 1) // 2 if j % 2 else j // 2
    out = []
    for k in range(1, j + 1):
        if k <= half:
            terms = [coroot(n, t, n - j + 2 * k - t) for t in range(1, k + 1)]
        else:
            terms = [coroot(n, 2 * k - j - 1 + t, n + 1 - t)
                     for t in range(1, j + 2 - k)]
        out.append(addv(*terms) if len(terms) > 1 else terms[0])
    return set(out)


def test_criterion_03_omega1_omega_nminus2_strata():
    t0 = time.time()
    ok = True
    for n in range(4, 9):
        mu = addv(omega(n, 1), omega(n, n - 2))
        exts = S.enumerate_extended(mu)
        got = {}
        for e in exts:
            got.setdefault(e.dim, set()).add(e.base.lam)
        ok &= 0 not in got
        ok &= sorted(got) == list(range(1, n - 1))
        for j in range(1, n - 1):
            ok &= len(got[j]) == j and got[j] == _hook_reps(n, j)
    elapsed = time.time() - t0
    assert report(3, ok and elapsed < 30, f"({elapsed:.2f}s)")


def test_criterion_04_omega1_omega2_rank5():
    t0 = time.time()
    exts = S.enumerate_extended((2, 1, 0, 0, 0))
    got = {}
    for e in exts:
        got.setdefault(e.dim, set()).add(e.base.lam)
    ok = got == {2: {coroot(5, 1, 4), coroot(5, 2, 5)},
                 3: {coroot(5, 2, 3), coroot(5, 3, 4)}}
    ok &= all(e.is_cyclic for e in exts)
    assert report(4, ok, f"({time.time()-t0:.2f}s)")


def test_criterion_05_noncyclic_exists():
    t0 = time.time()
    ok = True
    for n in (7, 8):
        mu = (2, 1) + (0,) * (n - 2)
        ok &= any(not e.is_cyclic for e in S.enumerate_extended(mu))
    assert report(5, ok, f"({time.time()-t0:.2f}s)")


def _omega2_cyc_list(n):
    out = [W.tau(n, 2)]
    for j in range(1, (n - 3) // 2 + 1):
        out.append(O.from_word(n, [0] + list(range(n - 1, n - 2 * j, -1)), 2))
    return frozenset(out)


_OMEGA3_CYC_WORDS = {
    7: ["tau^3", "s0*s6*tau^3", "s0*s6*s1*s0*tau^3", "s0*s6*s5*s1*tau^3",
        "s0*s6*s5*s1*s0*s6*tau^3"],
    8: ["tau^3", "s0*s1*tau^3", "s0*s7*s6*s5*tau^3", "s0*s7*s6*s1*tau^3",
        "s0*s7*s6*s5*s1*s0*tau^3", "s0*s7*s6*s1*s0*s7*tau^3",
        "s0*s7*s6*s5*s1*s0*s7*s6*tau^3"],
}


def criterion6_cases():
    cases = [(omega(n, 1), frozenset({W.tau(n)})) for n in range(2, 10)]
    cases += [(omega(n, 2), _omega2_cyc_list(n)) for n in (5, 7, 9)]
    for n in (7, 8):
        cases.append((omega(n, 3),
                      frozenset(W.parse_element(s, n) for s in _OMEGA3_CYC_WORDS[n])))
    return cases


def test_criterion_06_minimal_coset_lists():
    t0 = time.time()
    ok = True
    for mu, expected in criterion6_cases():
        m = sum(mu)
        cyc = O.s_adm_cyc(mu)
        ok &= cyc == expected
        for w in sorted(A.s_adm(mu)):
            if w in cyc:
                ok &= A.x_w_nonempty(w, m)
                ok &= A.condition_ii_witness(w) is not None
            else:
                ok &= not A.x_w_nonempty(w, m)
    elapsed = time.time() - t0
    assert report(6, ok and elapsed < 60, f"({elapsed:.2f}s)")


@functools.lru_cache(maxsize=None)
def criterion7_sweep():
    """(n, mu, all_top_cyclic, thm12_clause) over the criterion-7 range,
    n = 2..6 and mu_1 <= 5, computed once for criteria 7 and 7b."""
    return tuple((n, mu, CP.all_top_cyclic(mu, n), CP.thm12_clause(mu, n))
                 for n in range(2, 7) for mu in CP.dominant_shapes(n, 5))


def test_criterion_07_cyclicity_classification_sweep():
    t0 = time.time()
    mismatches = []
    count = 0
    for n, mu, atc, clause in criterion7_sweep():
        count += 1
        if atc != (clause is not None):
            mismatches.append((n, mu))
    elapsed = time.time() - t0
    detail = f"({count} shapes, {elapsed:.0f}s)"
    if mismatches:
        detail += f" mismatching shapes: {mismatches}"
    assert report(7, not mismatches, detail), (
        "the classification list predicate (clauses (i)-(iv) of the paper's "
        "list plus the computed clause (v), omega_1 + omega_i + omega_(n-1) "
        "with gcd(i, n) = 1) disagrees with the exact enumeration at "
        f"{mismatches} (see README, known caveats)")


def test_criterion_07_companion_routes_agree():
    # the crystal and semi-module routes agree at every shape in the range
    # (all_top_cyclic raises internally otherwise), and the paper's clauses
    # (i)-(iv) alone match everywhere except one dual pair at n = 5, both of
    # which are clause (v)
    t0 = time.time()
    mismatches = []
    for n, mu, atc, clause in criterion7_sweep():
        in_paper_list = clause not in (None, "v")
        if atc != in_paper_list:
            mismatches.append((n, mu))
    ok = mismatches == [(5, (3, 2, 2, 1, 0)), (5, (3, 2, 1, 1, 0))]
    ok &= all(CP.thm12_clause(mu, n) == "v" for n, mu in mismatches)
    assert report("7b", ok, f"(list gap is exactly the dual pair, {time.time()-t0:.0f}s)")


def test_criterion_08_equivalence_sweep():
    t0 = time.time()
    mismatches = []
    count = 0
    for n in range(2, 7):
        for mu in CP.dominant_shapes(n, 4):
            count += 1
            if CP.condition_ii(mu, n) != CP.condition_iii(mu, n):
                mismatches.append((n, mu))
    elapsed = time.time() - t0
    assert report(8, not mismatches,
                  f"({count} shapes, {elapsed:.0f}s) {mismatches or ''}")


def test_criterion_09_construction_bridge():
    t0 = time.time()
    ok = True
    for mu in FIXTURE_SHAPES:
        n, m = len(mu), sum(mu)
        ws = C.enumerate_weight_space(mu, S.lambda_b(m, n))
        exts = S.enumerate_extended(mu)
        top = S.dim_x_mu(mu)
        top_pairs = {e.base.lam: e.is_cyclic for e in exts if e.dim == top}
        seen = {}
        for b in ws:
            cd = C.build_construction(b, m, n)
            seen[C.top_lambda(cd)] = cd.is_cyclic
        ok &= len(seen) == len(ws)                  # injective
        ok &= seen == top_pairs                     # onto, cyclicity matches
        ok &= len(top_pairs) == len(ws)
    elapsed = time.time() - t0
    assert report(9, ok, f"({elapsed:.2f}s)")


def test_criterion_10_class_polynomial_identities():
    t0 = time.time()
    ok = True
    for n, m in [(5, 2), (7, 3), (3, 1), (4, 3)]:
        cp = R.class_polynomial(W.tau(n, m), m)
        ok &= cp.coefficients == (1,)
    ok &= O.poly_sum(R.class_polynomial(w, 2).coefficients
                     for w in O.s_adm_cyc(omega(5, 2))) == (1, 1)
    ok &= O.poly_sum(R.class_polynomial(w, 3).coefficients
                     for w in O.s_adm_cyc(omega(7, 3))) == (1, 1, 2, 1)
    sm_counts = Counter(e.dim for e in S.enumerate_extended(omega(7, 3)))
    ok &= [sm_counts.get(j, 0) for j in range(4)] == [1, 1, 2, 1]
    for mu, _expected in criterion6_cases():
        m = sum(mu)
        for w in O.s_adm_cyc(mu):
            ok &= O.tree_invariance_check(w, m, trials=5, seed=17)
    elapsed = time.time() - t0
    assert report(10, ok, f"({elapsed:.2f}s)")


def test_criterion_11_property_suites():
    t0 = time.time()
    ok = True
    # crystal axioms over the fixture crystals (bounded size)
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 2, 1, 0), (3, 1, 0)]:
        n = len(mu)
        crystal = O.crystal_of(mu, n)
        ok &= len(crystal) <= 10_000
        for t in crystal:
            wt = O.weight(t, n)
            for i in range(1, n):
                e, f = O.raising(i, t), O.lowering(i, t)
                ok &= (e is None) or O.lowering(i, e) == t
                ok &= (f is None) or O.raising(i, f) == t
                ok &= O.varphi(i, t) - O.epsilon(i, t) == wt[i - 1] - wt[i]
    # length and Bruhat cross-checks
    import random

    rng = random.Random(23)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5, 6])
        u = W.identity(n)
        for _ in range(rng.randint(0, 12)):
            u = W.mul(u, W.simple_reflection(n, rng.randrange(n)))
        ok &= W.length(u) == W.length(O.inv(u))
        for i in range(n):
            ok &= abs(W.length(W.left_mul_simple(i, u)) - W.length(u)) == 1
    for n in (2, 3):
        ball = {W.identity(n)}
        frontier = [W.identity(n)]
        while frontier:
            w0 = frontier.pop()
            for i in range(n):
                u = W.mul(W.simple_reflection(n, i), w0)
                if W.length(u) <= 10 and u not in ball:
                    ball.add(u)
                    frontier.append(u)
        for u in ball:
            for k in range(n):
                w0 = W.mul(u, W.tau(n, k))
                ok &= O.lp_via_phi(w0) == A.lp(w0).lp
    for _ in range(120):
        n = rng.choice([4, 5, 6])
        u = W.identity(n)
        for _ in range(rng.randint(0, 10)):
            u = W.mul(u, W.simple_reflection(n, rng.randrange(n)))
        u = W.mul(u, W.tau(n, rng.randint(0, 2)))
        ok &= O.lp_via_phi(u) == A.lp(u).lp
    # window doubling for every enumerated extended semi-module
    for mu in FIXTURE_SHAPES:
        ok &= all(S.verify_extended(e, scale=2) for e in S.enumerate_extended(mu))
    elapsed = time.time() - t0
    assert report(11, ok, f"({elapsed:.2f}s)")
