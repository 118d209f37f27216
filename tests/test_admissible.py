import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adlv import admissible as A
from adlv import weyl as W

import oracles as O


def random_element(n, rng, letters=8, tau_range=(0, 3)):
    w = W.identity(n)
    for _ in range(rng.randint(0, letters)):
        w = W.mul(w, W.simple_reflection(n, rng.randrange(n)))
    return W.mul(w, W.tau(n, rng.randint(*tau_range)))


# ---------------------------------------------------------------------------
# the minimal coset decomposition
# ---------------------------------------------------------------------------

def test_decompose_translation():
    w = W.from_translation((2, 1, 0))
    d = A.decompose_sw(w)
    assert d.x == W.identity_perm(3) and d.y == W.identity_perm(3)
    assert d.mu == (2, 1, 0)


def test_decompose_fixture():
    w = W.parse_element("s0*s4*tau^2", 5)
    d = A.decompose_sw(w)
    assert d.mu == (1, 1, 0, 0, 0)


def test_decompose_tau_power():
    for n, m in [(3, 2), (5, 2), (5, 3), (7, 3)]:
        d = A.decompose_sw(W.tau(n, m))
        assert d.mu == W.dominant_sort(W.tau(n, m).trans)
        assert W.mul(W.from_perm(d.x), W.from_translation(d.mu),
                     W.from_perm(d.y)) == W.tau(n, m)


def test_decompose_properties_random():
    rng = random.Random(10)
    for _ in range(120):
        n = rng.choice([2, 3, 4, 5])
        w = random_element(n, rng)
        d = A.decompose_sw(w)
        rep = W.mul(W.from_translation(d.mu), W.from_perm(d.y))
        assert W.mul(W.from_perm(d.x), rep) == w
        assert A.is_min_coset_rep(rep)
        assert W.is_dominant(d.mu)
        # length is additive, with the translation-part rule for the rep
        assert W.length(w) == W.inversions(d.x) + W.two_rho_pairing(d.mu) \
            - W.inversions(d.y)
        # p(w) = x y
        assert W.compose(d.x, d.y) == w.perm
        # the defining inequality for y
        yinv = W.inverse_perm(d.y)
        for a in range(n):
            for b in range(a + 1, n):
                assert d.mu[a] - d.mu[b] >= (1 if yinv[a] > yinv[b] else 0)


# ---------------------------------------------------------------------------
# admissible sets
# ---------------------------------------------------------------------------

def test_adm_rank2():
    got = A.adm((1, 0))
    expect = {W.from_translation((1, 0)), W.from_translation((0, 1)), W.tau(2)}
    assert got == frozenset(expect)


def test_adm_zero():
    assert A.adm((0, 0, 0)) == frozenset({W.identity(3)})
    assert A.s_adm((0, 0, 0)) == frozenset({W.identity(3)})


def test_tau_memberships():
    for n, k in [(3, 1), (5, 1), (5, 2), (7, 3)]:
        mu = W.omega(n, k)
        assert W.tau(n, k) in A.adm(mu)
        assert W.tau(n, k) in A.s_adm_cyc(mu)


def test_s_adm_cyc_golden_lists():
    # omega_1: the single length-zero element
    for n in (2, 3, 5, 7):
        assert A.s_adm_cyc(W.omega(n, 1)) == frozenset({W.tau(n)})
    # omega_2 at n = 5
    assert A.s_adm_cyc((1, 1, 0, 0, 0)) == frozenset(
        {W.tau(5, 2), W.parse_element("s0*s4*tau^2", 5)})
    # omega_3 at n = 7
    words7 = ["tau^3", "s0*s6*tau^3", "s0*s6*s1*s0*tau^3",
              "s0*s6*s5*s1*tau^3", "s0*s6*s5*s1*s0*s6*tau^3"]
    assert A.s_adm_cyc((1, 1, 1, 0, 0, 0, 0)) == frozenset(
        W.parse_element(s, 7) for s in words7)


def test_s_adm_consistency_small():
    # the ^S filter agrees with the coset-minimality characterization
    for mu in [(1, 0), (1, 1, 0), (2, 1, 0), (1, 1, 0, 0, 0)]:
        for w in A.adm(mu):
            d = A.decompose_sw(w)
            assert A.is_min_coset_rep(w) == (d.x == W.identity_perm(len(mu)))


def _s_adm_bruhat_oracle(mu):
    """Oracle for s_adm: the same candidates, kept when they lie below some
    translation in the orbit of mu in Bruhat order (the definition of Adm)."""
    orbit = [W.from_translation(nu) for nu in sorted(set(itertools.permutations(mu)))]
    return frozenset(w for mu_p in W.dominant_below(mu)
                     for w in A._min_coset_reps(mu_p)
                     if any(O.bruhat_leq(w, t) for t in orbit))


def _oracle_shapes():
    """Every dominant mu with mu(n) = 0, any total: n <= 5 with mu_1 <= 3 and
    n = 6 with mu_1 <= 2 (91 shapes)."""
    return [head + (0,)
            for n, top in [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 2)]
            for head in itertools.combinations_with_replacement(range(top, -1, -1), n - 1)]


def test_s_adm_vertexwise_matches_bruhat_oracle():
    shapes = _oracle_shapes()
    assert len(shapes) == 91
    for mu in shapes:
        assert A.s_adm(mu) == _s_adm_bruhat_oracle(mu), mu


def _min_coset_reps_scan_oracle(mu_prime):
    """Oracle for _min_coset_reps: test the defining inequality of a minimal
    representative on every y in S_n, in lexicographic order."""
    n = len(mu_prime)
    t = W.from_translation(mu_prime)
    out = []
    for y in O.all_perms(n):
        yinv = W.inverse_perm(y)
        if all(mu_prime[a] - mu_prime[b] >= (1 if yinv[a] > yinv[b] else 0)
               for a in range(n) for b in range(a + 1, n)):
            out.append(W.mul(t, W.from_perm(y)))
    return tuple(out)


def test_min_coset_reps_match_scan_oracle():
    # every dominant mu' with n <= 6 and mu'_1 <= 3, and with n = 7 and
    # mu'_1 <= 2 (245 shapes)
    count = 0
    for n, top in [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (7, 2)]:
        for mu_p in itertools.combinations_with_replacement(range(top, -1, -1), n):
            count += 1
            assert A._min_coset_reps(mu_p) == _min_coset_reps_scan_oracle(mu_p), mu_p
    assert count == 245


def test_s_adm_two_routes_agree():
    # candidate generation + vertexwise membership vs filtering the full set
    for mu in [(1, 0), (2, 1, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 2, 1, 0), (1, 1, 1, 0, 0, 0, 0), (3, 1, 0), (3, 2, 0)]:
        assert A.s_adm(mu) == A.s_adm_via_enumeration(mu)


def test_adm_size_duality():
    # |Adm(mu)| is invariant under dualization (the length-preserving
    # automorphism matches the orbits of mu* up to a central shift)
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0), (1, 1, 1, 0, 0), (2, 1, 1, 0)]:
        mu_star, _ = O.dualize(mu, (0,) * len(mu))
        assert len(A.adm(mu)) == len(A.adm(mu_star))


def test_s_adm_length_cycle_profile():
    # lengths come in the strata pattern for the refinement cases
    lengths = sorted(W.length(w) for w in A.s_adm_cyc((1, 1, 0, 0, 0, 0, 0)))
    assert lengths == [0, 2, 4]   # omega_2 at n = 7: one stratum per dimension


# ---------------------------------------------------------------------------
# length positive sets
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _perm_pair_keys(n):
    """All of S_n as rows in lexicographic order, and per row the key
    i * n + j of the values (i, j) = (v(a), v(b)) at every pair a < b."""
    perms = np.array(O.all_perms(n), dtype=np.int8)
    iu, ju = np.triu_indices(n, k=1)
    return perms, perms[:, iu].astype(np.int16) * n + perms[:, ju]


def _lp_scan_oracle(w):
    """Oracle for lp: the v in S_n, as rows in lexicographic order, that
    pass the verdict table of w at every pair a < b (one gather over all
    n! x n(n-1)/2 slots)."""
    perms, keys = _perm_pair_keys(w.n)
    return perms[np.array(A._lp_table(w)).ravel()[keys].all(axis=1)]


def _sorted_rows(members, n):
    """A set of permutations as rows in lexicographic order."""
    rows = np.fromiter(itertools.chain.from_iterable(members), dtype=np.int8,
                       count=len(members) * n).reshape(-1, n)
    return rows[np.lexsort(rows.T[::-1])]


def _lp_matches_scan_oracle(w, members=None):
    """Whether LP(w), or members when the caller has listed it, equals the
    scan oracle's set."""
    members = A.lp(w).lp if members is None else members
    return np.array_equal(_sorted_rows(members, w.n), _lp_scan_oracle(w))


@st.composite
def affine_elements(draw, max_n=6, letters=12):
    n = draw(st.integers(1, max_n))
    word = draw(st.lists(st.integers(0, n - 1), max_size=letters))
    return O.from_word(n, word, draw(st.integers(-2, 3)))


@given(affine_elements())
@settings(max_examples=300, deadline=None)
def test_lp_walk_matches_scan_oracle(w):
    assert _lp_matches_scan_oracle(w)


def test_lp_walk_matches_scan_oracle_on_s_adm_and_tau_powers():
    # every element of s_adm on the 91 oracle shapes and on omega_2 at n = 9,
    # and tau^m at n = 5, 7, 9, where LP(w) is all of S_n
    for mu in _oracle_shapes() + [W.omega(9, 2)]:
        for w in A.s_adm(mu):
            assert _lp_matches_scan_oracle(w), w
    for n, m in [(5, 2), (7, 3), (9, 2)]:
        members = A.lp(W.tau(n, m)).lp
        assert len(members) == math.factorial(n)
        assert _lp_matches_scan_oracle(W.tau(n, m), members)


def test_lp_contains_yinv_and_agreement_exhaustive_small():
    # every w with length <= 10 in every Omega-coset mod n, for n = 2, 3
    for n in (2, 3):
        seen = set()
        frontier = {W.identity(n)}
        ball = {W.identity(n)}
        while frontier:
            nxt = set()
            for w in frontier:
                for i in range(n):
                    u = W.mul(W.simple_reflection(n, i), w)
                    if W.length(u) <= 10 and u not in ball:
                        ball.add(u)
                        nxt.add(u)
            frontier = nxt
        for u in ball:
            for k in range(n):
                w = W.mul(u, W.tau(n, k))
                d = A.decompose_sw(w)
                data = A.lp(w)
                assert W.inverse_perm(d.y) in data.lp
                assert O.lp_via_phi(w) == data.lp
                seen.add(w)
        assert len(seen) >= len(ball)


def test_lp_agreement_random_larger():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.choice([4, 5, 6])
        w = random_element(n, rng, letters=10)
        data = A.lp(w)
        assert W.inverse_perm(A.decompose_sw(w).y) in data.lp
        assert O.lp_via_phi(w) == data.lp


def test_lp_regular_translation_is_identity():
    # for strictly dominant mu the indicator terms cancel and the defining
    # inequality forces v = id
    for mu in [(2, 1, 0), (3, 2, 1, 0), (5, 3, 1)]:
        data = A.lp(W.from_translation(mu))
        assert data.lp == frozenset({W.identity_perm(len(mu))})
        assert data.phi_w == frozenset()


def test_lp_length_zero_is_everything():
    for n, m in [(3, 1), (5, 2)]:
        assert len(A.lp(W.tau(n, m)).lp) == len(O.all_perms(n))


def test_lp_varsigma_symmetry():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5])
        w = random_element(n, rng)
        wm = O.longest_perm(n)
        lhs = A.lp(O.varsigma(w)).lp
        rhs = frozenset(W.compose(wm, W.compose(v, wm)) for v in A.lp(w).lp)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# non-emptiness and witnesses
# ---------------------------------------------------------------------------

def test_nonempty_tau():
    for n, m in [(2, 1), (3, 2), (5, 2), (7, 3)]:
        assert A.x_w_nonempty(W.tau(n, m), m)
        assert not A.x_w_nonempty(W.tau(n, m), m + n)   # wrong coset


def test_nonempty_on_omega2_rank5():
    mu = (1, 1, 0, 0, 0)
    cyc = A.s_adm_cyc(mu)
    for w in A.s_adm(mu):
        assert A.x_w_nonempty(w, 2) == (w in cyc)


def test_nonempty_cyc_always():
    for mu in [(1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (2, 1, 1, 0)]:
        m = sum(mu)
        for w in A.s_adm_cyc(mu):
            assert A.x_w_nonempty(w, m)


def test_witness_at_tau_power_is_present():
    # pinned by brute force: LP of a length-zero element is all of W_0 and
    # the finite part is an n-cycle, so a Coxeter conjugator always exists
    for n in range(2, 8):
        for m in range(1, n):
            if __import__("math").gcd(m, n) == 1:
                assert A.condition_ii_witness(W.tau(n, m)) is not None


def test_witnessless_nonempty_element_rank9():
    # mu = omega_4 at n = 9: an admissible minimal-coset element with
    # non-empty stratum but no length-positive Coxeter conjugator
    n = 9
    y = W.identity_perm(n)
    for i in [4, 5, 6, 7, 8, 3, 2, 1] + [4, 5, 3]:
        y = W.compose(y, W.transposition(n, i - 1, i))
    mu = W.omega(n, 4)
    w = W.mul(W.from_translation(mu), W.from_perm(y))
    assert A.is_min_coset_rep(w)
    assert any(O.bruhat_leq(w, W.from_translation(nu))
               for nu in set(itertools.permutations(mu)))
    assert not W.is_n_cycle(y)
    assert A.x_w_nonempty(w, 4)
    assert A.condition_ii_witness(w) is None


def _perm_from_cycles(n, cycles):
    p = list(range(n))
    for c in cycles:
        for i, x in enumerate(c):
            p[x - 1] = c[(i + 1) % len(c)] - 1
    return tuple(p)


def test_witnessless_nonempty_elements_two_interlocked_cycles():
    # mu = omega_2 + omega_(n-3): the interlocked even/odd double cycle is a
    # minimal-coset admissible non-n-cycle with non-empty stratum and no
    # length-positive Coxeter conjugator
    cases = [
        (6, (2, 2, 1, 0, 0, 0), _perm_from_cycles(6, [(1, 3, 5), (2, 4, 6)])),
        (5, (2, 2, 0, 0, 0), _perm_from_cycles(5, [(1, 3), (2, 4, 5)])),
    ]
    for n, mu, y in cases:
        w = W.mul(W.from_translation(mu), W.from_perm(y))
        assert A.is_min_coset_rep(w)
        assert any(O.bruhat_leq(w, W.from_translation(nu))
                   for nu in set(itertools.permutations(mu)))
        assert not W.is_n_cycle(y)
        assert A.x_w_nonempty(w, sum(mu))
        assert A.condition_ii_witness(w) is None


def test_witness_present_on_fixture_lists():
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 1, 1, 0, 0)]:
        for w in A.s_adm_cyc(mu):
            v = A.condition_ii_witness(w)
            assert v is not None
            conj = W.compose(W.inverse_perm(v), W.compose(w.perm, v))
            assert W.is_coxeter(conj)
            assert v in A.lp(w).lp


@functools.lru_cache(maxsize=1)      # both oracles ask for one w in turn
def _lp_scan(w):
    """LP(w) as rows of _lp_scan_oracle, and the rows v^-1 p(w) v beside
    them."""
    vv = _lp_scan_oracle(w)
    pv = np.asarray(w.perm)[vv]
    return vv, np.take_along_axis(np.argsort(vv, axis=1), pv, axis=1)


def _fixes_proper_prefix(conj):
    """Per row: whether the permutation maps some {0..k-1}, 0 < k < n, into
    itself."""
    n = conj.shape[1]
    run = np.maximum.accumulate(conj[:, :-1], axis=1)
    return (run == np.arange(n - 1)).any(axis=1)


def _x_w_nonempty_scan_oracle(w, m):
    """Oracle for x_w_nonempty: conjugate p(w) by every v in LP(w) and look
    for one landing in a proper parabolic."""
    if W.kappa(w) != m:
        return False
    if len(W.supp_sigma(w)) < w.n:
        return True
    return not bool(_fixes_proper_prefix(_lp_scan(w)[1]).any())


def _condition_ii_witness_scan_oracle(w):
    """Oracle for condition_ii_witness: the first v of LP(w), in
    lexicographic order, with v^-1 p(w) v of length n - 1 and full support."""
    n = w.n
    vv, conj = _lp_scan(w)
    iu, ju = np.triu_indices(n, k=1)
    invs = (conj[:, iu] > conj[:, ju]).sum(axis=1)
    hits = np.flatnonzero((invs == n - 1) & ~_fixes_proper_prefix(conj))
    return tuple(int(v) for v in vv[hits[0]]) if hits.size else None


def test_nonempty_and_witness_match_scan_oracles():
    # s_adm of the 91 oracle shapes, omega_2 at n = 9 and (2,1,1,1,1,0,0),
    # and the elements of adm outside s_adm for two shapes
    elements = [w for mu in _oracle_shapes() + [W.omega(9, 2), (2, 1, 1, 1, 1, 0, 0)]
                for w in sorted(A.s_adm(mu))]
    elements += [w for mu in [(2, 1, 0, 0), (1, 1, 0, 0, 0)]
                 for w in sorted(A.adm(mu)) if not A.is_min_coset_rep(w)]
    for w in elements:
        m = W.kappa(w)
        # y^-1 lies in LP(w), so the walk yields at once
        assert next(A._linear_extensions(A._lp_table(w)), None) is not None
        assert A.x_w_nonempty(w, m) == _x_w_nonempty_scan_oracle(w, m), w
        assert A.condition_ii_witness(w) == _condition_ii_witness_scan_oracle(w), w


def test_lp_nonempty_matches_brute_force():
    # the walk on random verdict tables, including pairs false both ways and
    # forced cycles, where LP is empty and the walk meets dead ends
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 5)
        table = tuple(tuple(i == j or rng.random() < 0.7 for j in range(n))
                      for i in range(n))
        expect = [v for v in O.all_perms(n) if A._in_lp(table, v)]
        assert sorted(A._linear_extensions(table)) == expect, table
