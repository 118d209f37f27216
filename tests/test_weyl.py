import random

import pytest
from hypothesis import given, settings, strategies as st

from adlv import weyl as W

import oracles as O


def random_element(n, rng, letters=8, tau_range=(0, 3)):
    w = W.identity(n)
    for _ in range(rng.randint(0, letters)):
        w = W.mul(w, W.simple_reflection(n, rng.randrange(n)))
    return W.mul(w, W.tau(n, rng.randint(*tau_range)))


@st.composite
def elements(draw, max_n=5, letters=8, omega=(-2, 3)):
    n = draw(st.integers(2, max_n))
    word = draw(st.lists(st.integers(0, n - 1), max_size=letters))
    k = draw(st.integers(*omega))
    return O.from_word(n, word, k)


# ---------------------------------------------------------------------------
# group arithmetic
# ---------------------------------------------------------------------------

def test_tau_basics():
    for n in range(2, 7):
        t = W.tau(n)
        assert W.length(t) == 0
        assert W.tau(n, n) == W.from_translation((1,) * n)
        assert W.mul(t, O.inv(t)) == W.identity(n)
        for i in range(n):
            assert W.mul(t, W.simple_reflection(n, i), W.tau(n, -1)) == \
                W.simple_reflection(n, (i + 1) % n)


def test_multiplication_associative():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5])
        a, b, c = (random_element(n, rng) for _ in range(3))
        assert W.mul(W.mul(a, b), c) == W.mul(a, W.mul(b, c))


def test_act_on_cochar():
    assert O.act_on_cochar(W.tau(5), (0, 0, 0, 0, 0)) == (1, 0, 0, 0, 0)
    rng = random.Random(1)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5])
        lam = tuple(rng.randint(-3, 3) for _ in range(n))
        assert O.act_on_cochar(W.tau(n, n), lam) == tuple(v + 1 for v in lam)
        assert O.act_on_cochar(W.identity(n), lam) == lam
        u, v = random_element(n, rng), random_element(n, rng)
        assert O.act_on_cochar(W.mul(u, v), lam) == \
            O.act_on_cochar(u, O.act_on_cochar(v, lam))


# ---------------------------------------------------------------------------
# length
# ---------------------------------------------------------------------------

def test_length_examples():
    assert W.length(W.from_translation((1, 0))) == 1
    assert W.length(W.from_translation((2, 0, 0))) == 4
    for n in (2, 3, 5, 7):
        assert W.length(W.tau(n)) == 0
        assert W.length(W.tau(n, -2)) == 0


def _bfs_ball(n, radius):
    gens = [W.simple_reflection(n, i) for i in range(n)]
    dist = {W.identity(n): 0}
    frontier = [W.identity(n)]
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for w in frontier:
            for g in gens:
                u = W.mul(g, w)
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


@pytest.mark.parametrize("n,radius", [(2, 12), (3, 12), (4, 12), (5, 8), (6, 8)])
def test_length_is_word_length(n, radius):
    # the formula must equal graph distance in the Cayley graph of W_a;
    # checked on the whole ball, which covers all random products of the
    # sampled sizes
    dist = _bfs_ball(n, radius)
    rng = random.Random(n)
    sample = rng.sample(sorted(dist), min(250, len(dist)))
    for w in sample:
        assert W.length(w) == dist[w]


def test_length_properties_random():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5, 6])
        u = random_element(n, rng, letters=12)
        v = random_element(n, rng, letters=12)
        assert W.length(u) == W.length(O.inv(u))
        assert W.length(W.mul(u, v)) <= W.length(u) + W.length(v)
        k = rng.randint(-2, 2)
        assert W.length(W.mul(W.tau(n, k), u, W.tau(n, -k))) == W.length(u)
        for i in range(n):
            assert abs(W.length(W.left_mul_simple(i, u)) - W.length(u)) == 1


@given(elements(max_n=8, letters=24, omega=(-3, 3)))
@settings(max_examples=300, deadline=None)
def test_descents_match_length(w):
    # the one-pair descent rule against the length comparison, s_0 included
    lw = W.length(w)
    for i in range(w.n):
        assert O.right_descent(w, i) == (W.length(W.right_mul_simple(w, i)) < lw)
        assert W.left_descent(i, w) == (W.length(W.left_mul_simple(i, w)) < lw)


@given(elements(max_n=8, letters=24, omega=(-3, 3)))
@settings(max_examples=200, deadline=None)
def test_conjugation_length_from_descents(w):
    # the reduction step search reads length(s w s) - length(w) off two
    # descents of w and the test s w = w s
    lw = W.length(w)
    for s in range(w.n):
        sw = W.left_mul_simple(s, w)
        ws = W.right_mul_simple(w, s)
        drop = lw - W.length(W.right_mul_simple(sw, s))
        left, right = W.left_descent(s, w), O.right_descent(w, s)
        if left != right:
            assert drop == 0
        elif sw == ws:
            assert W.right_mul_simple(sw, s) == w
        else:
            assert drop == (2 if left else -2)


def test_conjugate_simple_is_two_multiplications():
    # the one-pass conjugation against s_i . w, then . s_i, for every i
    rng = random.Random(13)
    for n in range(2, 8):
        samples = [W.identity(n), W.tau(n, 1), W.tau(n, n - 1)] + \
            [random_element(n, rng, letters=16, tau_range=(-3, 3)) for _ in range(300)]
        for w in samples:
            for i in range(n):
                assert O.conjugate_simple(i, w) == \
                    W.right_mul_simple(W.left_mul_simple(i, w), i), (i, w)


# ---------------------------------------------------------------------------
# reduced words
# ---------------------------------------------------------------------------

def test_reduced_word_examples():
    assert W.reduced_word(W.tau(3)) == ((), 1)
    assert W.reduced_word(W.simple_reflection(4, 0)) == ((0,), 0)
    w = W.parse_element("s0*s4*tau^2", 5)
    assert W.reduced_word(w) == ((0, 4), 2)


@given(elements())
@settings(max_examples=150, deadline=None)
def test_reduced_word_roundtrip(w):
    letters, k = W.reduced_word(w)
    n = w.n
    assert len(letters) == W.length(w)
    assert O.from_word(n, letters, k) == w


def test_inverse_perm_word_reads_u():
    # the word of u^-1 read straight off u, as the crystal's xi stage reads
    # it, against inverting u first
    for n in range(1, 8):
        for u in O.all_perms(n):
            assert W.inverse_perm_word(u) == W.perm_word(W.inverse_perm(u)), u


def test_perm_word_takes_the_smallest_left_descent():
    # the word is reduced, spells p, and each letter is the smallest left
    # descent of what is left: the word the crystal's Weyl action reads and
    # crystal --mu prints
    for n in range(1, 7):
        for p in O.all_perms(n):
            word = W.perm_word(p)
            assert len(word) == O.inversions(p)
            q = p
            for i in word:
                inv = W.inverse_perm(q)
                assert i == min(j for j in range(1, n) if inv[j - 1] > inv[j])
                q = W.compose(W.transposition(n, i - 1, i), q)
            assert q == W.identity_perm(n)


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def test_bruhat_examples():
    t = W.tau(3)
    assert O.bruhat_leq(t, t)
    assert O.bruhat_leq(t, W.mul(W.simple_reflection(3, 0), t))
    x = W.simple_reflection(2, 0)
    y = W.from_translation((1, -1))
    assert O.bruhat_leq(x, y)
    assert not O.bruhat_leq(y, x)
    assert not O.bruhat_leq(W.tau(3), W.tau(3, 2))


def _other_reduced_word(w):
    """A reduced word chosen by largest descents, for word-independence tests."""
    n = w.n
    k = W.kappa(w)
    u = W.mul(w, W.tau(n, -k))
    letters = []
    lu = W.length(u)
    while lu > 0:
        for i in range(n - 1, -1, -1):
            v = W.left_mul_simple(i, u)
            lv = W.length(v)
            if lv < lu:
                letters.append(i)
                u, lu = v, lv
                break
    return tuple(letters), k


def test_bruhat_word_independence_and_lifting_agreement():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        y = random_element(n, rng, letters=7)
        w1, k = W.reduced_word(y)
        w2, k2 = _other_reduced_word(y)
        assert k == k2
        lower1 = W.subword_elements(n, w1)
        lower2 = W.subword_elements(n, w2)
        assert lower1 == lower2
        tk = W.tau(n, k)
        lower = {W.mul(x, tk) for x in lower1}
        for _ in range(10):
            x = random_element(n, rng, letters=7)
            assert O.bruhat_leq(x, y) == (x in lower)


# ---------------------------------------------------------------------------
# supports and automorphisms
# ---------------------------------------------------------------------------

def test_supp_sigma():
    for n in (3, 5, 7):
        for k in range(3):
            assert W.supp_sigma(W.tau(n, k)) == frozenset()
    w = W.parse_element("s0*s4*tau^2", 5)
    assert W.supp_sigma(w) == frozenset(range(5))
    u = O.from_word(4, [1, 2])
    assert W.supp_sigma(u) == frozenset({1, 2})


def _supp_sigma_reduced_word_oracle(w):
    """Oracle for supp_sigma: the letters of a reduced word of the W_a part,
    closed under the rotation i -> i + kappa(w)."""
    n = w.n
    k = W.kappa(w) % n
    letters, _ = W.reduced_word(W.mul(w, W.tau(n, -W.kappa(w))))
    closed = set(letters)
    while True:
        grown = closed | {(i + k) % n for i in closed}
        if grown == closed:
            return frozenset(closed)
        closed = grown


@given(elements(max_n=6, letters=12))
@settings(max_examples=300, deadline=None)
def test_supp_sigma_matches_reduced_word_oracle(w):
    assert W.supp_sigma(w) == _supp_sigma_reduced_word_oracle(w)


def test_supp_sigma_matches_reduced_word_oracle_on_s_adm():
    from adlv import admissible as A

    for mu in [(1, 1, 0, 0, 0), (2, 1, 1, 0), (2, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0),
               (2, 2, 0, 0, 0, 0)]:
        for w in A.s_adm(mu):
            assert W.supp_sigma(w) == _supp_sigma_reduced_word_oracle(w), w


def test_coxeter_elements_and_conjugators():
    import itertools

    for n in range(1, 7):
        coxeters = O.coxeter_elements(n)
        assert coxeters == tuple(p for p in O.all_perms(n) if O.is_coxeter(p))
        assert len(coxeters) == 2 ** max(n - 2, 0)
    for n in range(1, 6):
        cycles = [p for p in O.all_perms(n) if W.is_n_cycle(p)]
        for a, b in itertools.product(cycles, repeat=2):
            assert W.conjugators(a, b) == tuple(
                v for v in O.all_perms(n)
                if W.compose(W.inverse_perm(v), W.compose(a, v)) == b)


def test_is_coxeter():
    assert O.is_coxeter(O.perm_from_word(3, [1, 2]))
    assert not O.is_coxeter(O.perm_from_word(3, [1]))
    assert not O.is_coxeter(O.perm_from_word(4, [2, 1, 3, 2]))
    # Coxeter elements of S_n are exactly the products of all s_i once
    import itertools

    for n in (3, 4):
        coxeters = {O.perm_from_word(n, word)
                    for word in itertools.permutations(range(1, n))}
        for p in O.all_perms(n):
            assert O.is_coxeter(p) == (p in coxeters)


def test_coxeter_conjugates_grow_arcs():
    # the rule condition_ii_witness walks by: v^-1 p v is a Coxeter element
    # iff each prefix v({0..k-1}) is a contiguous arc of p's cycle, i.e. a
    # set with exactly one value whose image under p leaves it
    def arcs_only(p, v):
        return all(sum(p[i] not in s for i in s) == 1
                   for s in (set(v[:k]) for k in range(1, len(v))))

    for n in range(1, 7):
        for p in O.all_perms(n):
            if W.is_n_cycle(p):
                for v in O.all_perms(n):
                    conj = W.compose(W.inverse_perm(v), W.compose(p, v))
                    assert O.is_coxeter(conj) == arcs_only(p, v), (p, v)


def test_varsigma():
    for n in (2, 3, 5):
        assert O.varsigma(W.simple_reflection(n, 0)) == W.simple_reflection(n, 0)
        for i in range(1, n):
            assert O.varsigma(W.simple_reflection(n, i)) == \
                W.simple_reflection(n, n - i)
        for m in (-2, 1, 3):
            assert O.varsigma(W.tau(n, m)) == W.tau(n, -m)
    rng = random.Random(4)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 5])
        w = random_element(n, rng, letters=10)
        assert W.length(O.varsigma(w)) == W.length(w)
        v = random_element(n, rng)
        assert O.varsigma(W.mul(w, v)) == W.mul(O.varsigma(w), O.varsigma(v))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@given(elements())
@settings(max_examples=100, deadline=None)
def test_encode_roundtrip(w):
    assert W.parse_element(W.encode_element(w), w.n) == w


def test_parse_tokens():
    assert W.parse_element("tau", 5) == W.tau(5)
    assert W.parse_element("tau^-2", 5) == W.tau(5, -2)
    assert W.parse_element("s0", 3) == W.simple_reflection(3, 0)
    w = W.parse_element("t[1,0,-1]*p[2,3,1]", 3)
    assert w.trans == (1, 0, -1)
    assert w.perm == (1, 2, 0)
    with pytest.raises(ValueError):
        W.parse_element("p[1,1,2]", 3)
    with pytest.raises(ValueError):
        W.parse_element("s7", 3)
    # GL_1 has no simple affine reflection: every s<i> is refused at n = 1,
    # and the other tokens still parse there
    for text in ("s0", "s0*s0*tau", "tau*s0", "s1"):
        with pytest.raises(ValueError):
            W.parse_element(text, 1)
    assert W.parse_element("tau", 1) == W.tau(1)
    assert W.parse_element("t[2]*p[1]*tau^-1", 1) == W.from_translation((1,))


def test_dominance_and_helpers():
    assert O.dominance_leq((1, 1, 1), (2, 1, 0))
    assert not O.dominance_leq((2, 1, 0), (1, 1, 1))
    assert W.two_rho_pairing((2, 0, 0)) == 4
    assert O.coroot(5, 1, 5) == (1, 0, 0, 0, -1)
    assert O.omega(5, 2) == (1, 1, 0, 0, 0)


def test_rearrangements():
    # the one multiset walk, rearrangements_under_slope, against the orbit
    # filtered by the slope test, on the empty shape, zeros and repeats
    import itertools

    for lam in [(), (0,), (1, 1, 0), (2, 1, 1, 0, 0), (3, 0, 3, 1), (1, 1, 1), (0, 2, 1, 2)]:
        n, m = len(lam), sum(lam)
        under = [r for r in sorted(set(itertools.permutations(lam)))
                 if all(n * sum(r[:j]) <= j * m for j in range(n + 1))]
        assert list(W.rearrangements_under_slope(lam)) == under, lam
