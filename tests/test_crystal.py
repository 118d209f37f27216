import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from adlv import crystal as C
from adlv import semimodule as S
from adlv import weyl as W

import oracles as O


SMALL_CRYSTALS = [((2, 1, 0), 3), ((1, 1, 0, 0, 0), 5), ((2, 1, 0, 0, 0), 5),
                  ((2, 2, 1, 0), 4), ((3, 1, 0), 3)]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_operator_examples():
    assert C.lowering(1, ((1,),)) == ((2,),)
    assert C.lowering(2, ((1,), (2,))) == ((1,), (3,))
    hw = O.highest_weight_tableau((2, 1, 0))
    assert hw == ((1, 1), (2,))
    assert all(C.raising(i, hw) is None for i in (1, 2))


def test_crystal_axioms():
    for mu, n in SMALL_CRYSTALS:
        crystal = O.crystal_of(mu, n)
        assert len(crystal) <= 10_000
        for t in crystal:
            wt = C.weight(t, n)
            for i in range(1, n):
                e = C.raising(i, t)
                f = C.lowering(i, t)
                if e is not None:
                    assert C.lowering(i, e) == t
                    ewt = C.weight(e, n)
                    assert ewt[i - 1] == wt[i - 1] + 1 and ewt[i] == wt[i] - 1
                if f is not None:
                    assert C.raising(i, f) == t
                assert O.varphi(i, t) - O.epsilon(i, t) == wt[i - 1] - wt[i]


def test_operator_powers_vanish():
    for mu, n in SMALL_CRYSTALS[:3]:
        for t in O.crystal_of(mu, n):
            for i in range(1, n):
                u = t
                for _ in range(O.epsilon(i, t)):
                    u = C.raising(i, u)
                assert C.raising(i, u) is None
                v = t
                for _ in range(O.varphi(i, t)):
                    v = C.lowering(i, v)
                assert C.lowering(i, v) is None


# ---------------------------------------------------------------------------
# weight spaces
# ---------------------------------------------------------------------------

def test_weight_space_examples():
    assert C.enumerate_weight_space((1, 1, 0, 0, 0), (0, 0, 1, 0, 1)) == \
        (((3,), (5,)),)
    assert len(C.enumerate_weight_space((1, 1, 0), (1, 1, 0))) == 1
    # content omega_3-balanced for m=3, n=7
    ws = C.enumerate_weight_space((1, 1, 1, 0, 0, 0, 0), S.lambda_b(3, 7))
    exts = S.enumerate_extended((1, 1, 1, 0, 0, 0, 0))
    top = S.dim_x_mu((1, 1, 1, 0, 0, 0, 0))
    assert len(ws) == sum(1 for e in exts if e.dim == top)


def test_weight_space_against_crystal_orbit():
    for mu, n in SMALL_CRYSTALS:
        byw = Counter(C.weight(t, n) for t in O.crystal_of(mu, n))
        for content, count in byw.items():
            ws = C.enumerate_weight_space(mu, content)
            assert len(ws) == count
            assert all(C.is_semistandard(t, n) for t in ws)
            assert all(C.weight(t, n) == content for t in ws)
        # monotone under dominance: moving down never shrinks the count
        dominant_contents = sorted(c for c in byw if W.is_dominant(c))
        for a in dominant_contents:
            for b in dominant_contents:
                if W.dominance_leq(a, b):
                    assert byw[a] >= byw[b]


def test_weyl_action():
    rng = random.Random(5)
    for mu, n in SMALL_CRYSTALS:
        crystal = sorted(O.crystal_of(mu, n))
        for t in crystal[:40]:
            assert C.weyl_act(W.identity_perm(n), t, n) == t
            for _ in range(4):
                p = tuple(rng.sample(range(n), n))
                q = tuple(rng.sample(range(n), n))
                pt = C.weyl_act(p, t, n)
                assert C.weight(pt, n) == W.perm_on_cochar(p, C.weight(t, n))
                assert C.weyl_act(q, pt, n) == C.weyl_act(W.compose(q, p), t, n)


def test_memoized_weyl_action_matches_unmemoized():
    # one memo shared by every tableau and permutation of a crystal, as
    # xi_normalized shares one across its conjugators
    for mu, n in SMALL_CRYSTALS:
        memo = {}
        for t in sorted(O.crystal_of(mu, n)):
            for p in O.all_perms(n):
                assert C.weyl_act(p, t, n, memo) == C.weyl_act(p, t, n)
        assert memo and all(C.simple_act(i, t, n) == u for (i, t), u in memo.items())


def test_epsilons_match_epsilon():
    for mu, n in SMALL_CRYSTALS:
        for t in O.crystal_of(mu, n):
            assert C.epsilons(t, n) == [O.epsilon(i, t) for i in range(1, n)]


def test_conjugate_to_weight():
    b = ((3,), (5,))
    c = C.conjugate_to_weight(b, (1, 0, 0, 0, 1), 5)
    assert C.weight(c, 5) == (1, 0, 0, 0, 1)
    assert c == ((1,), (5,))


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

def construction_cases():
    cases = []
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 1, 1, 0, 0), (2, 1, 1, 1, 0, 0), (3, 1, 0), (2, 2, 1, 0),
               (3, 3, 1, 0)]:
        n = len(mu)
        m = sum(mu)
        if math.gcd(m, n) == 1:
            cases.append((mu, m, n))
    return cases


def test_construction_postconditions():
    for mu, m, n in construction_cases():
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            assert W.is_coxeter(cd.w_of_b)
            assert len(cd.upsilon) == n
            used = [i for p in cd.w_list for i in W.finite_supp(p)]
            assert sorted(used) == list(range(1, n))
            for j, p in enumerate(cd.w_list):
                img = {p[v - 1] + 1 for v in cd.factors[j]}
                assert img == set(cd.op_factors[j])
            cm = tuple((i + m) % n for i in range(n))
            for u in cd.upsilon:
                assert W.compose(W.inverse_perm(u), W.compose(cm, u)) == cd.w_of_b


def test_single_column_case():
    b = ((3,), (5,))
    cd = C.build_construction(b, 2, 5)
    lam, cyc = C.lambda_and_cyclicity(cd)
    assert lam == C.weight(b, 5)
    assert cyc
    assert C.top_lambda(cd) == O.coroot(5, 1, 5)
    assert cd.d == 1
    # d = 1: the family is the bare xi vector for each conjugator
    for u in cd.upsilon:
        fam = C.xi_family(cd, u)
        assert len(fam) == 1


def test_xi_tau_equivalence():
    for mu, m, n in construction_cases()[:5]:
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            norm = C.xi_normalized(cd)       # asserts all conjugators agree
            assert sum(norm[0]) == 0
            outsider = next(p for p in O.all_perms(n) if p not in cd.upsilon)
            with pytest.raises(ValueError):
                C.xi_family(cd, outsider)


def test_xi_families_share_one_conjugation(monkeypatch):
    # b^- does not depend on the conjugator: one conjugate_to_weight per
    # tableau, not one per tableau and conjugator
    from adlv import compare as CP

    mu, n = (2, 1, 1, 0, 0), 5
    calls = []

    def counted(*args, _inner=C.conjugate_to_weight):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(C, "conjugate_to_weight", counted)
    assert CP.all_top_cyclic(mu, n) is not None
    assert len(calls) == len(C.enumerate_weight_space(mu, S.lambda_b(4, n)))


def test_xi_normalized_asserts_every_conjugator(monkeypatch):
    # the n families share one memo of s_i steps, yet each is still compared:
    # perturbing any single one of them makes xi_normalized raise
    mu, m, n = (2, 1, 1, 0, 0), 4, 5
    original = C.xi_family
    for b in C.enumerate_weight_space(mu, S.lambda_b(m, n))[:3]:
        cd = C.build_construction(b, m, n)
        C.xi_normalized(cd)
        assert len(cd.upsilon) == n
        for target in cd.upsilon:
            def perturbed(cd_, u, memo=None, target=target):
                fam = original(cd_, u, memo)
                if u != target:
                    return fam
                first = (fam[0][0] + 1, fam[0][1] - 1) + fam[0][2:]
                return (first,) + fam[1:]

            monkeypatch.setattr(C, "xi_family", perturbed)
            with pytest.raises(AssertionError, match="inequivalent"):
                C.xi_normalized(cd)
            monkeypatch.setattr(C, "xi_family", original)


def test_bridge_to_semimodules():
    # the normalized first coweight lands on a top stratum, with matching
    # (lambda, cyclicity) multisets on both sides
    for mu, m, n in construction_cases():
        ws = C.enumerate_weight_space(mu, S.lambda_b(m, n))
        exts = S.enumerate_extended(mu)
        top = S.dim_x_mu(mu)
        sm_side = Counter((e.base.lam, e.is_cyclic) for e in exts if e.dim == top)
        crystal_side = Counter()
        for b in ws:
            cd = C.build_construction(b, m, n)
            lam = C.top_lambda(cd)
            crystal_side[(lam, C.lambda_and_cyclicity(cd)[1])] += 1
            # the type of the indexed semi-module is the multiset of lambda(b)
            sm = O.from_lambda(lam, m)
            assert sorted(S.type_of(sm)) == sorted(cd.lambda_of_b)
        assert crystal_side == sm_side
        assert sum(crystal_side.values()) == len(ws)


def test_bridge_bijective_on_fixture_shapes():
    # on the fixture shapes each top stratum carries a single pair, so the
    # first-coweight map is a plain bijection
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 1, 1, 1, 0, 0)]:
        n, m = len(mu), sum(mu)
        ws = C.enumerate_weight_space(mu, S.lambda_b(m, n))
        lams = {C.top_lambda(C.build_construction(b, m, n)) for b in ws}
        assert len(lams) == len(ws)


def test_cyclicity_examples():
    # all cyclic for fundamental coweights and for (n r + i) omega_1 shapes
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 0, 0), (5, 0, 0)]:
        n, m = len(mu), sum(mu)
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            assert C.lambda_and_cyclicity(cd)[1]
    # a shape outside the classification with a non-cyclic tableau
    mu = (3, 3, 1, 0)
    n, m = 4, 7
    flags = [C.lambda_and_cyclicity(C.build_construction(b, m, n))[1]
             for b in C.enumerate_weight_space(mu, S.lambda_b(m, n))]
    assert not all(flags)


def test_construction_rejects_wrong_weight():
    with pytest.raises(ValueError):
        C.build_construction(((1,), (2,)), 2, 5)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_weights_and_involution():
    for mu, m, n in construction_cases()[:6]:
        d = mu[0]
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            db = O.dual_tableau(b, n)
            assert C.weight(db, n) == tuple(d - v for v in C.weight(b, n))
            assert O.dual_tableau(db, n) == b


def test_dual_commutes_with_weyl_action():
    rng = random.Random(6)
    for mu, m, n in construction_cases()[:4]:
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            p = tuple(rng.sample(range(n), n))
            assert O.dual_tableau(C.weyl_act(p, b, n), n) == \
                C.weyl_act(p, O.dual_tableau(b, n), n)


def test_dual_lambda_identity():
    # lambda of the dual of the opposite conjugate is d - w(b)^-1 lambda(b)
    for mu, m, n in construction_cases():
        d = mu[0]
        m_star = n * d - m
        lb_op = tuple(reversed(S.lambda_b(m, n)))
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            bop = C.conjugate_to_weight(b, lb_op, n)
            bop_star = O.dual_tableau(bop, n)
            assert C.weight(bop_star, n) == S.lambda_b(m_star, n)
            cds = C.build_construction(bop_star, m_star, n)
            pred = tuple(d - v for v in
                         W.perm_on_cochar(W.inverse_perm(cd.w_of_b),
                                          cd.lambda_of_b))
            assert cds.lambda_of_b == pred
            assert C.lambda_and_cyclicity(cd)[1] == \
                C.lambda_and_cyclicity(cds)[1]
