import functools
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adlv import admissible as A
from adlv import compare as CP
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
        assert d.mu == O.dominant_sort(W.tau(n, m).trans)
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
        assert W.length(w) == O.inversions(d.x) + W.two_rho_pairing(d.mu) \
            - O.inversions(d.y)
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
        mu = O.omega(n, k)
        assert W.tau(n, k) in A.adm(mu)
        assert W.tau(n, k) in O.s_adm_cyc(mu)


def test_s_adm_cyc_golden_lists():
    # omega_1: the single length-zero element
    for n in (2, 3, 5, 7):
        assert O.s_adm_cyc(O.omega(n, 1)) == frozenset({W.tau(n)})
    # omega_2 at n = 5
    assert O.s_adm_cyc((1, 1, 0, 0, 0)) == frozenset(
        {W.tau(5, 2), W.parse_element("s0*s4*tau^2", 5)})
    # omega_3 at n = 7
    words7 = ["tau^3", "s0*s6*tau^3", "s0*s6*s1*s0*tau^3",
              "s0*s6*s5*s1*tau^3", "s0*s6*s5*s1*s0*s6*tau^3"]
    assert O.s_adm_cyc((1, 1, 1, 0, 0, 0, 0)) == frozenset(
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
    # s_adm, generated without a membership test, against the candidates
    # kept by the Bruhat-order definition of Adm
    shapes = _oracle_shapes()
    assert len(shapes) == 91
    for mu in shapes:
        assert A.s_adm(mu) == _s_adm_bruhat_oracle(mu), mu


def test_vertexwise_oracle_matches_adm():
    # the oracle itself, on all of Adm(mu_big), against membership in the
    # smaller Adm(mu): it accepts Adm(mu) and refuses the rest
    for mu, mu_big in [((2, 1, 0), (3, 0, 0)), ((1, 1, 0, 0), (2, 0, 0, 0)),
                       ((2, 1, 1, 0), (2, 2, 0, 0))]:
        small = A.adm(mu)
        assert small < A.adm(mu_big)
        for w in A.adm(mu_big):
            assert O.admissible_at_vertices(w, mu) == (w in small), (mu, w)


def test_s_adm_matches_vertexwise_oracle_rank7_to_9():
    # s_adm against its candidates filtered by the vertexwise criterion, on
    # every shape of dominant_shapes (7, 3), (8, 2) and (9, 2)
    shapes = [mu for n, mu1 in [(7, 3), (8, 2), (9, 2)]
              for mu in CP.dominant_shapes(n, mu1)]
    assert len(shapes) == 118
    elements = 0
    for mu in shapes:
        got = A.s_adm(mu)
        assert got == O.s_adm_vertexwise(mu), mu
        elements += len(got)
    assert elements == 87054


def test_min_coset_reps_lie_below_their_translation():
    # the proof in s_adm's docstring, step by step, for every mu' <= mu over
    # the shapes of dominant_shapes (2, 6), (3, 5), (4, 4), (5, 4), (6, 3),
    # (7, 3), (8, 2) and (9, 2): t^mu' passes the vertexwise criterion for
    # mu (step 1), and each w = t^mu' y from _min_coset_reps has
    # length(w) + length(y) = length(t^mu') (step 2), so w <= t^mu', which
    # the Bruhat oracle confirms for n <= 5
    count = 0
    compared = set()
    for n, mu1 in [(2, 6), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 2), (9, 2)]:
        for mu in CP.dominant_shapes(n, mu1):
            for mu_p in W.dominant_below(mu):
                t = W.from_translation(mu_p)
                assert O.admissible_at_vertices(t, mu), (mu, mu_p)
                top = W.length(t)
                assert top == W.two_rho_pairing(mu_p)
                for w in A._min_coset_reps(mu_p):
                    assert W.length(w) + O.inversions(w.perm) == top, w
                    count += 1
                if n <= 5 and mu_p not in compared:
                    compared.add(mu_p)
                    assert all(O.bruhat_leq(w, t) for w in A._min_coset_reps(mu_p)), mu_p
    assert count == 100024
    assert sum(len(A._min_coset_reps(mu_p)) for mu_p in compared) == 2865


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
    # generation of the minimal representatives vs filtering the full set
    for mu in [(1, 0), (2, 1, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 2, 1, 0), (1, 1, 1, 0, 0, 0, 0), (3, 1, 0), (3, 2, 0)]:
        assert A.s_adm(mu) == A.s_adm_via_enumeration(mu)


def test_s_adm_walk_lists_s_adm_in_order():
    # the walk is sorted(s_adm(mu)) element for element, and s_adm_size
    # counts it, on the 225 shapes of eight slices
    slices = [(2, 6), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 2), (9, 2)]
    shapes = [mu for n, k in slices for mu in CP.dominant_shapes(n, k)]
    assert len(shapes) == 225
    for mu in shapes:
        walk = list(A.s_adm_walk(mu))
        assert walk == sorted(A.s_adm(mu)), mu
        assert len(walk) == A.s_adm_size(mu), mu
    # a shape that is not dominant is refused when the walk is asked for,
    # before any element is read
    with pytest.raises(ValueError):
        A.s_adm_walk((0, 1, 0))
    with pytest.raises(ValueError):
        A.s_adm_size((0, 1, 0))


def test_adm_size_duality():
    # |Adm(mu)| is invariant under dualization (the length-preserving
    # automorphism matches the orbits of mu* up to a central shift)
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0), (1, 1, 1, 0, 0), (2, 1, 1, 0)]:
        mu_star, _ = O.dualize(mu, (0,) * len(mu))
        assert len(A.adm(mu)) == len(A.adm(mu_star))


def test_s_adm_length_cycle_profile():
    # lengths come in the strata pattern for the refinement cases
    lengths = sorted(W.length(w) for w in O.s_adm_cyc((1, 1, 0, 0, 0, 0, 0)))
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
    for mu in _oracle_shapes() + [O.omega(9, 2)]:
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
    cyc = O.s_adm_cyc(mu)
    for w in A.s_adm(mu):
        assert A.x_w_nonempty(w, 2) == (w in cyc)


def test_nonempty_cyc_always():
    for mu in [(1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (2, 1, 1, 0)]:
        m = sum(mu)
        for w in O.s_adm_cyc(mu):
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
    mu = O.omega(n, 4)
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
        for w in O.s_adm_cyc(mu):
            v = A.condition_ii_witness(w)
            assert v is not None
            conj = W.compose(W.inverse_perm(v), W.compose(w.perm, v))
            assert O.is_coxeter(conj)
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
    elements = [w for mu in _oracle_shapes() + [O.omega(9, 2), (2, 1, 1, 1, 1, 0, 0)]
                for w in sorted(A.s_adm(mu))]
    elements += [w for mu in [(2, 1, 0, 0), (1, 1, 0, 0, 0)]
                 for w in sorted(A.adm(mu)) if not A.is_min_coset_rep(w)]
    fired = Counter()
    for w in elements:
        m = W.kappa(w)
        # y^-1 lies in LP(w), so the walk yields at once
        assert next(A._linear_extensions(A._lp_table(w)), None) is not None
        expect = _x_w_nonempty_scan_oracle(w, m)
        assert A.x_w_nonempty(w, m) == expect, w
        assert A.condition_ii_witness(w) == _condition_ii_witness_scan_oracle(w), w
        # each certificate of x_w_nonempty fires only where the oracle agrees
        if len(W.supp_sigma(w)) == w.n:
            dec = A.decompose_sw(w)
            if W.is_n_cycle(w.perm):
                assert expect, w
                fired["n-cycle"] += 1
            elif _fixes_proper_prefix(np.array([W.compose(dec.y, dec.x)]))[0]:
                assert not expect, w
                fired["parabolic"] += 1
    assert fired["n-cycle"] > 0 and fired["parabolic"] > 0


RANK7_TO_9_SLICES = [(7, 2), (8, 2), (9, 1)]


def _s_adm_oracle_and_rank7_to_9():
    """Every element of s_adm on the 91 oracle shapes and on the shapes of
    RANK7_TO_9_SLICES."""
    shapes = _oracle_shapes() + [mu for n, k in RANK7_TO_9_SLICES
                                 for mu in CP.dominant_shapes(n, k)]
    return [w for mu in shapes for w in A.s_adm_walk(mu)]


def test_supp_sigma_is_empty_or_full_when_kappa_is_coprime():
    # the lemma x_w_nonempty reads the sigma-support by: when gcd(kappa, n)
    # = 1 it is empty for tau^kappa and all of {0..n-1} for every other w
    coprime = at_tau = 0
    for w in _s_adm_oracle_and_rank7_to_9():
        n, k = w.n, W.kappa(w)
        if math.gcd(k, n) != 1:
            continue
        coprime += 1
        if w == W.tau(n, k):
            at_tau += 1
            assert W.supp_sigma(w) == frozenset(), w
        else:
            assert W.supp_sigma(w) == frozenset(range(n)), w
    assert (coprime, at_tau) == (12125, 99)


def _peeled(w):
    """(x, mu, y) of w = x . t^mu . y by greedy left division by the finite
    descents, the smallest index first: the reference route for
    decompose_sw's closed form."""
    _, (mu, y) = W.peel_left_descents(w, range(1, w.n))
    return W.compose(w.perm, W.inverse_perm(y)), mu, y


def _lp_table_via_decomposition(w):
    """The verdict table of LP(w) built from the greedy decomposition of w,
    for every w."""
    n = w.n
    x, mu, y = _peeled(w)
    q = W.perm_on_cochar(W.inverse_perm(y), mu)     # y^-1 mu
    xy = W.compose(x, y)
    return tuple(tuple(q[i] - q[j] + (i < j) - (xy[i] < xy[j]) >= 0
                       for j in range(n)) for i in range(n))


def test_decompose_closed_form_matches_greedy_peel():
    # decompose_sw and the verdict table, read off w, against the greedy
    # decomposition: on all of Adm(mu) for the 43 oracle shapes with
    # |mu| <= 4 (29,157 elements), and on random elements with n <= 9
    shapes = [mu for mu in _oracle_shapes() if sum(mu) <= 4]
    elements = [w for mu in shapes for w in A.adm(mu)]
    assert len(elements) == 29157
    rng = random.Random(33)
    elements += [random_element(rng.randint(1, 9), rng, letters=20, tau_range=(-3, 9))
                 for _ in range(2000)]
    for w in elements:
        d = A.decompose_sw(w)
        assert (d.x, d.mu, d.y) == _peeled(w), w
        assert A._lp_table(w) == _lp_table_via_decomposition(w), w


def test_lp_table_of_minimal_elements_matches_decomposition():
    # the table read off w is the one the greedy decomposition gives, on the
    # minimal elements up to n = 9
    elements = _s_adm_oracle_and_rank7_to_9()
    assert len(elements) == 13613
    for w in elements:
        assert A._lp_table(w) == _lp_table_via_decomposition(w), w


def test_coset_parts_routes_and_dominance_check(monkeypatch):
    # minimal elements are read directly, every other element goes through
    # decompose_sw, and both routes refuse a translation part that is not
    # dominant, as do lp and both certificates of x_w_nonempty; the verdict
    # table reads w alone and checks nothing
    calls = []

    def counted(w, _inner=A.decompose_sw):
        calls.append(w)
        return _inner(w)

    monkeypatch.setattr(A, "decompose_sw", counted)
    minimal = sorted(A.s_adm((2, 1, 0, 0)))
    others = [w for w in sorted(A.adm((2, 1, 0, 0))) if not A.is_min_coset_rep(w)]
    assert minimal and others
    for w in minimal + others:
        calls.clear()
        A._coset_parts(w)
        assert calls == ([] if w in minimal else [w]), w
    n_cycle = next(w for w in minimal if W.is_n_cycle(w.perm) and w != W.tau(4, 3))
    parabolic = next(w for w in minimal if A._fixes_proper_prefix(w.perm))
    monkeypatch.setattr(W, "is_dominant", lambda lam: False)
    for w in (minimal[0], others[0]):
        A._lp_table(w)
        for route in (A._coset_parts, A.lp):
            with pytest.raises(AssertionError, match="not dominant"):
                route(w)
    for w in (n_cycle, parabolic):
        with pytest.raises(AssertionError, match="not dominant"):
            A.x_w_nonempty(w, 3)


def test_lp_and_x_w_nonempty_decompose_once(monkeypatch):
    # lp decomposes each element once, and x_w_nonempty at most once (not
    # when step 1 decides it), through _coset_parts, which calls decompose_sw
    # only off the minimal representatives; the witness search decomposes
    # nothing.  Elements: s_adm of four shapes, and Adm outside s_adm of two
    counts = Counter()

    def counting(name, inner):
        def counted(w):
            counts[name] += 1
            return inner(w)
        return counted

    minimal = [w for mu in [(2, 1, 0, 0), (2, 1, 1, 0, 0), (2, 2, 1, 0, 0), (2, 1, 1, 1, 0, 0)]
               for w in A.s_adm_walk(mu)]
    others = [w for mu in [(2, 1, 0, 0), (1, 1, 0, 0, 0)]
              for w in sorted(A.adm(mu)) if not A.is_min_coset_rep(w)]
    monkeypatch.setattr(A, "_coset_parts", counting("parts", A._coset_parts))
    monkeypatch.setattr(A, "decompose_sw", counting("sw", A.decompose_sw))
    monkeypatch.setattr(A, "_lp_table", counting("table", A._lp_table))
    built = 0
    for w in minimal + others:
        off_minimal = int(w in others)
        counts.clear()
        A.lp(w)
        assert (counts["parts"], counts["sw"]) == (1, off_minimal), w
        counts.clear()
        A.x_w_nonempty(w, W.kappa(w))
        assert counts["parts"] <= 1 and counts["sw"] == counts["parts"] * off_minimal, w
        built += counts["table"]
        counts.clear()
        A.condition_ii_witness(w)
        assert counts["parts"] == counts["sw"] == 0, w
    assert built > 0


def test_is_min_coset_rep_matches_left_descents():
    # the O(n) test against W.left_descent at every finite index, on all of
    # Adm(mu) for the 43 oracle shapes with |mu| <= 4 (29,157 elements; the
    # larger oracle shapes take Adm about 25 s to build)
    shapes = [mu for mu in _oracle_shapes() if sum(mu) <= 4]
    elements = [w for mu in shapes for w in A.adm(mu)]
    assert (len(shapes), len(elements)) == (43, 29157)
    minimal = 0
    for w in elements:
        expect = not any(W.left_descent(i, w) for i in range(1, w.n))
        assert A.is_min_coset_rep(w) == expect, w
        minimal += expect
    assert 0 < minimal < len(elements)


def test_lp_table_built_only_where_no_certificate_decides(monkeypatch):
    # inside x_w_nonempty the verdict table is built once for each element
    # whose support is full and that neither certificate decides: never for
    # an n-cycle, nor where v = y^-1 already conjugates p(w) into a proper
    # parabolic.  condition_ii_witness still builds its own for n-cycles.
    inside, tested, tables = [], [], Counter()

    def nonempty(w, m, _inner=A.x_w_nonempty):
        inside.append(w)
        tested.append(w)
        try:
            return _inner(w, m)
        finally:
            inside.pop()

    def table(w, _inner=A._lp_table):
        if inside:
            tables[w] += 1
        return _inner(w)

    CP._block_verdict.cache_clear()
    monkeypatch.setattr(A, "x_w_nonempty", nonempty)
    monkeypatch.setattr(A, "_lp_table", table)
    for mu in CP.dominant_shapes(6, 3):
        CP.condition_ii(mu, 6)
    monkeypatch.undo()
    CP._block_verdict.cache_clear()

    undecided = set()
    for w in tested:
        if len(W.supp_sigma(w)) < w.n or W.is_n_cycle(w.perm):
            continue
        dec = A.decompose_sw(w)
        assert dec.x == W.identity_perm(w.n)
        if not _fixes_proper_prefix(np.array([dec.y]))[0]:
            undecided.add(w)
    assert tables and max(tables.values()) == 1
    assert set(tables) == undecided
    assert (len(tested), len(tables)) == (460, 104)


def test_x_w_nonempty_calls_supp_sigma_only_when_kappa_is_not_coprime(monkeypatch):
    # when gcd(kappa, n) > 1 the sigma-support is computed, not read off
    calls = []

    def counted(w, _inner=W.supp_sigma):
        calls.append(w)
        return _inner(w)

    monkeypatch.setattr(W, "supp_sigma", counted)
    for mu, coprime in [((2, 1, 0, 0), True), ((2, 2, 0, 0), False), ((3, 3, 0), False)]:
        m = sum(mu)
        for w in sorted(A.s_adm(mu)):
            calls.clear()
            got = A.x_w_nonempty(w, m)
            assert calls == ([] if coprime else [w]), w
            assert got == _x_w_nonempty_scan_oracle(w, m), w


def test_witness_matches_coxeter_candidates_rank7_to_9():
    # the arc walk against the sorted list of Coxeter conjugators, past the
    # ranks where the scan oracle can afford all of LP(w): every n-cycle
    # element of s_adm, shape by shape
    elements = [w for n, k in RANK7_TO_9_SLICES
                for mu in CP.dominant_shapes(n, k) for w in sorted(O.s_adm_cyc(mu))]
    assert len(elements) == 1256
    witnessless = 0
    for w in elements:
        v = A.condition_ii_witness(w)
        assert v == O.condition_ii_witness_by_candidates(w), w
        witnessless += v is None
    assert witnessless == 332


def test_lp_nonempty_matches_brute_force():
    # the walk on random verdict tables, including pairs false both ways and
    # forced cycles, where LP is empty and the walk meets dead ends
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 5)
        table = tuple(tuple(i == j or rng.random() < 0.7 for j in range(n))
                      for i in range(n))
        expect = [v for v in O.all_perms(n) if O.in_lp(table, v)]
        assert sorted(A._linear_extensions(table)) == expect, table
