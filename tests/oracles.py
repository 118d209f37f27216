"""
Reference routes and test-only constructors: code that no adlv command
runs, kept so that the tests can compute a quantity a second, independent
way or build an object production never builds.  Nothing under src/ imports
this module.

Oracles that serve a single test file stay beside their tests (named
``_..._oracle`` there); this module holds the ones that left the
production modules.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

from adlv import admissible as A
from adlv import compare as CP
from adlv import crystal as C
from adlv import reduction as R
from adlv import semimodule as SM
from adlv import weyl as W
from adlv.weyl import AffineWeylElement


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """All of S_n, in lexicographic order."""
    return tuple(itertools.permutations(range(n)))


def omega(n: int, k: int) -> tuple[int, ...]:
    """The fundamental coweight omega_k = (1,...,1,0,...,0) with k ones."""
    return tuple(1 if i < k else 0 for i in range(n))


def longest_perm(n: int) -> tuple[int, ...]:
    """The longest element of S_n (the order-reversing permutation)."""
    return tuple(range(n - 1, -1, -1))


def coroot(n: int, i: int, j: int) -> tuple[int, ...]:
    """chi^vee_(i,j) = e_i - e_j with 1-indexed i, j."""
    lam = [0] * n
    lam[i - 1] += 1
    lam[j - 1] -= 1
    return tuple(lam)


def from_word(n: int, letters, omega_power: int = 0) -> AffineWeylElement:
    """s_(letters[0]) ... s_(letters[-1]) . tau^omega_power."""
    w = W.identity(n)
    for i in letters:
        w = W.right_mul_simple(w, i)
    if omega_power:
        w = W.mul(w, W.tau(n, omega_power))
    return w


def perm_from_word(n: int, word) -> tuple[int, ...]:
    """The permutation s_(word[0]) ... s_(word[-1]) of S_n."""
    p = W.identity_perm(n)
    for i in word:
        p = W.compose(p, W.transposition(n, i - 1, i))
    return p


def inversions(p) -> int:
    """Coxeter length of a permutation, i.e. its inversion count."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def finite_supp(p) -> frozenset[int]:
    """
    Indices i in 1..n-1 such that s_i occurs in every reduced word of p.

    s_i is absent exactly when p preserves the prefix {0, ..., i-1} of
    positions, i.e. when p splits as a block permutation across the cut.
    """
    n = len(p)
    out = set()
    running = -1
    for i in range(1, n):
        running = max(running, p[i - 1])
        if running != i - 1:
            out.add(i)
    return frozenset(out)


def is_coxeter(p) -> bool:
    """
    Whether p is a Coxeter element of S_n: every reduced word uses each of the
    n-1 simple reflections exactly once, i.e. length n-1 with full support.
    """
    n = len(p)
    return inversions(p) == n - 1 and len(finite_supp(p)) == n - 1


@functools.lru_cache(maxsize=None)
def coxeter_elements(n: int) -> tuple[tuple[int, ...], ...]:
    """
    The Coxeter elements of S_n, sorted: one per orientation of the path
    s_1 - ... - s_(n-1), so 2^(n-2) of them for n >= 2.  The product of all
    s_i once depends only on whether s_i comes before or after s_(i-1), so
    each word puts s_i first or last.
    """
    words = [(1,)] if n > 1 else [()]
    for i in range(2, n):
        words = [word for u in words for word in ((i,) + u, u + (i,))]
    return tuple(sorted(perm_from_word(n, word) for word in words))


def inv(w: AffineWeylElement) -> AffineWeylElement:
    """The inverse of w."""
    lam, p = w
    return AffineWeylElement(tuple(-lam[p[i]] for i in range(len(p))), W.inverse_perm(p))


def right_descent(w: AffineWeylElement, i: int) -> bool:
    """
    Whether length(w . s_i) < length(w), in O(1): s_i changes one pair's
    term of length's formula, so with (a, b) = (p[i-1], p[i]), or (p[n-1],
    p[0]) for i = 0, it is a descent iff lam[a] - lam[b] + [a > b] >= 1, or
    >= 2 for i = 0 (cf. Bjorner and Brenti, Combinatorics of Coxeter
    Groups, 8.3).  The rule that reduction.find_reduction_step reads inline;
    the tests check it, and W.left_descent, against length.
    """
    lam, p = w
    a, b, least = (p[-1], p[0], 2) if i == 0 else (p[i - 1], p[i], 1)
    return lam[a] - lam[b] + (a > b) >= least


def conjugate_simple(i: int, w: AffineWeylElement) -> AffineWeylElement:
    """
    s_i . w . s_i for n >= 2, in one O(n) pass.  With (a, b) = (i-1, i), or
    (0, n-1) for i = 0: p has its values a, b and then its positions a, b
    swapped, and lam its entries a, b; for i = 0 the two affine steps add
    e_0 - e_(n-1) on the left and e_(q[n-1]) - e_(q[0]) on the right, q the
    new finite part.  The write that reduction.find_reduction_step does in
    place.
    """
    lam, p = w
    n = len(p)
    a, b = (0, n - 1) if i == 0 else (i - 1, i)
    q = [b if v == a else a if v == b else v for v in p]
    q[a], q[b] = q[b], q[a]
    t = list(lam)
    t[a], t[b] = t[b], t[a]
    if i == 0:
        t[0] += 1
        t[n - 1] -= 1
        t[q[n - 1]] += 1
        t[q[0]] -= 1
    return AffineWeylElement(tuple(t), tuple(q))


def bruhat_leq(x: AffineWeylElement, y: AffineWeylElement) -> bool:
    """
    Bruhat order on the extended group: comparable only within one
    Omega-coset, where the order is that of the affine Weyl group.  The
    definition-level reference route for s_adm, which is generated with no
    membership test.

    Uses the lifting property: for a left descent s of y,
    x <= y  iff  (sx <= sy if sx < x else x <= sy).  So y walks down its
    reduced word to tau^kappa(y), x follows wherever s is also one of its
    left descents, and x <= y iff x ends at tau^kappa(y).
    """
    letters, k = W.reduced_word(y)
    for i in letters:
        if W.left_descent(i, x):
            x = W.left_mul_simple(i, x)
    return x == W.tau(x.n, k)


def act_on_cochar(w: AffineWeylElement, lam) -> tuple[int, ...]:
    """Affine action t^mu.p : lam -> mu + p.lam: the reference route for
    the F_0 that crystal.xi_normalized writes directly."""
    mu, p = w
    out = list(mu)
    for i, v in enumerate(lam):
        out[p[i]] += v
    return tuple(out)


def varsigma(w: AffineWeylElement) -> AffineWeylElement:
    """
    The length-preserving automorphism fixing s_0 and swapping s_i with
    s_(n-i): on t^lam . p it returns t^(-w_max lam) . (w_max p w_max).
    """
    lam, p = w
    n = len(p)
    wmax = longest_perm(n)
    new_lam = tuple(-lam[n - 1 - i] for i in range(n))
    return AffineWeylElement(new_lam, W.compose(wmax, W.compose(p, wmax)))


def dominant_sort(lam) -> tuple[int, ...]:
    """The entries of lam in decreasing order."""
    return tuple(sorted(lam, reverse=True))


def dominance_leq(a, b) -> bool:
    """a <= b in dominance order: equal sums, partial sums of a below b's."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    sa = sb = 0
    for i in range(len(a)):
        sa += a[i]
        sb += b[i]
        if sa > sb:
            return False
    return sa == sb


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------

def admissible_at_vertices(w: AffineWeylElement, mu: tuple[int, ...]) -> bool:
    """
    The vertexwise criterion of Haines and He (Vertexwise criteria for
    admissibility of alcoves, Amer. J. Math. 139, 2017), a reference route
    for membership in Adm(mu): at every vertex k = 0..n-1 of the base
    alcove, the dominant sort of the translation part of tau^-k w tau^k
    lies below mu (equal sums make kappa(w) = sum(mu)).  With w = t^lam p
    and tau^k = t^c p_k, c the indicator of the first k positions, that
    translation part is p_k^-1 (lam + p c - c), so only the multiset of
    lam + p c - c matters and tau is never formed.
    """
    lam, p = w
    n = len(p)
    pinv = W.inverse_perm(p)
    for k in range(n):
        nu = [lam[i] + (pinv[i] < k) - (i < k) for i in range(n)]
        if not dominance_leq(dominant_sort(nu), mu):
            return False
    return True


def s_adm_cyc(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """The subset of s_adm whose finite part is an n-cycle: the elements
    whose class polynomials full_report sums, which it takes from its own
    walk over s_adm."""
    return frozenset(w for w in A.s_adm(mu) if W.is_n_cycle(w.perm))


def s_adm_vertexwise(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """The reference route for s_adm that filters its candidates, the
    minimal representatives t^mu' y over dominant mu' below mu, by the
    vertexwise criterion."""
    return frozenset(w for mu_p in W.dominant_below(mu)
                     for w in A._min_coset_reps(mu_p)
                     if admissible_at_vertices(w, mu))


def lp_via_phi(w: AffineWeylElement) -> frozenset[tuple[int, ...]]:
    """
    LP(w) from the root set Phi_w, independently of the verdict-table walk:
    y^-1 . { r^-1 : r maps every positive root outside Phi_w to a positive
    root }, scanning all of S_n.
    """
    n = w.n
    phi = A.lp(w).phi_w
    yinv = W.inverse_perm(A.decompose_sw(w).y)
    outside = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in phi]
    return frozenset(W.compose(yinv, W.inverse_perm(r)) for r in all_perms(n)
                     if all(r[a] < r[b] for a, b in outside))


def in_lp(table: tuple[tuple[bool, ...], ...], v: tuple[int, ...]) -> bool:
    """Whether v lies in LP(w), given the verdict table of w."""
    n = len(v)
    return all(table[v[a]][v[b]] for a in range(n) for b in range(a + 1, n))


def condition_ii_witness_by_candidates(w: AffineWeylElement) -> tuple[int, ...] | None:
    """
    The reference route for condition_ii_witness: the n conjugators of p(w)
    into each of the 2^(n-2) Coxeter elements, sorted and tested against the
    verdict table of LP(w) in turn.
    """
    p = w.perm
    if not W.is_n_cycle(p):
        return None
    table = A._lp_table(w)
    candidates = sorted(v for c in coxeter_elements(w.n)
                        for v in W.conjugators(p, c))
    return next((v for v in candidates if in_lp(table, v)), None)


# ---------------------------------------------------------------------------
# semimodule
# ---------------------------------------------------------------------------

def _assemble(m: int, n: int, lam: tuple[int, ...]) -> SM.SemiModule | None:
    """The semi-module with class minima (i-1) + lam(i) n, or None when they
    are not stable under +m; its type is read off by the walk of type_of."""
    class_min = [0] * n
    for i in range(n):
        a = i + lam[i] * n
        class_min[a % n] = a
    abar = tuple(sorted(class_min))
    # +n stability is built in; check +m stability on the class minima.
    for a in abar:
        t = a + m
        if t < class_min[t % n]:
            return None
    return SM.SemiModule(m=m, n=n, type=_type_walk(m, n, abar), lam=tuple(lam),
                         abar=abar, class_min=tuple(class_min),
                         conductor=abar[-1] - n + 1)


def lambda_of_abar(abar: tuple[int, ...], n: int) -> tuple[int, ...]:
    lam = [0] * n
    for a in abar:
        r = a % n
        lam[r] = (a - r) // n
    return tuple(lam)


def _type_walk(m: int, n: int, abar: tuple[int, ...]) -> tuple[int, ...]:
    """
    The type mu' of the semi-module with sorted class minima abar: walk
    a_i = a_(i-1) + m - mu'(i) n around Abar starting from its minimum; the
    steps mu'(i) are the type.
    """
    abar_set = set(abar)
    a = abar[0]
    mu = []
    seen = [a]
    for _ in range(n):
        t = a + m
        k = 0
        while t not in abar_set:
            t -= n
            k += 1
        mu.append(k)
        a = t
        seen.append(a)
    if a != abar[0] or set(seen[:-1]) != abar_set:
        raise AssertionError(f"type walk did not close up on {abar}")
    return tuple(mu)


def type_of(sm: SM.SemiModule) -> tuple[int, ...]:
    """The type of sm walked around its Abar: the reference route for the
    type semimodule.from_type stores."""
    return _type_walk(sm.m, sm.n, sm.abar)


def valid_type(mu_prime: tuple[int, ...], m: int, n: int) -> SM.SemiModule | None:
    """
    Reconstruct the normalized semi-module of a candidate type, or None: the
    reference route for semimodule.from_type.  A candidate is a vector in
    N^n summing to m; it is realized exactly when the reversed vector
    dominates the slope vector (m/n, ..., m/n), which is re-verified here
    structurally rather than assumed.
    """
    if len(mu_prime) != n or sum(mu_prime) != m or any(v < 0 for v in mu_prime):
        return None
    # partial sums of the walk relative to a_0
    offsets = [0]
    for v in mu_prime[:-1]:
        offsets.append(offsets[-1] + m - v * n)
    total = sum(offsets)
    num = n * (n - 1) // 2 - total
    if num % n != 0:
        return None
    a0 = num // n
    abar = [a0 + off for off in offsets]
    if len({a % n for a in abar}) != n or min(abar) != a0:
        return None
    sm = _assemble(m, n, lambda_of_abar(tuple(sorted(abar)), n))
    if sm is None or sm.type != tuple(mu_prime):
        return None
    return sm


def from_lambda(lam: tuple[int, ...], m: int) -> SM.SemiModule:
    """
    The semi-module with Abar = {(i-1) + lam(i) n}.  Requires sum(lam) = 0
    (normalization) and stability under +m, which is a genuine condition.
    """
    if sum(lam) != 0:
        raise ValueError(f"lambda must sum to 0, got {lam}")
    sm = _assemble(m, len(lam), tuple(lam))
    if sm is None:
        raise ValueError(f"A^lambda is not stable under +{m}: {lam}")
    return sm


def dominant_lambda_b(m: int, n: int) -> tuple[int, ...]:
    return dominant_sort(SM.lambda_b(m, n))


def type_closed_form(sm: SM.SemiModule) -> tuple[int, ...]:
    """
    c^m lam + lam_b_dom - lam, a rearrangement of the type (c the standard
    n-cycle): another reference route for the type, besides type_of's walk.
    """
    m, n = sm.m, sm.n
    lam = sm.lam
    clam = W.perm_on_cochar(tuple((i + m) % n for i in range(n)), lam)
    lbd = dominant_lambda_b(m, n)
    return tuple(clam[i] + lbd[i] - lam[i] for i in range(n))


def enumerate_semimodules(m: int, n: int) -> tuple[SM.SemiModule, ...]:
    """
    All normalized semi-modules for (m, n), indexed by their types: vectors
    in N^n summing to m whose reversal dominates (m/n, ..., m/n).
    """
    if math.gcd(m, n) != 1:
        raise ValueError(f"m and n must be coprime: {m}, {n}")
    return tuple(sorted(SM._semimodules_below((m,) + (0,) * (n - 1)),
                        key=lambda s: s.lam))


def cyclic_phi(sm: SM.SemiModule, mu: tuple[int, ...]) -> SM.ExtendedSemiModule | None:
    """
    The unique cyclic extension of A for mu, present exactly when the type of
    A is a rearrangement of mu; phi is then maxk everywhere.  Built without
    the phi search.
    """
    if sorted(type_of(sm), reverse=True) != list(dominant_sort(mu)):
        return None
    free = tuple((a, sm.maxk(a)) for a in sm.elements(sm.abar[0], sm.conductor))
    ext = SM.ExtendedSemiModule(base=sm, mu=tuple(mu), phi_free=free)
    if not SM.verify_extended(ext):
        raise AssertionError(f"cyclic pair failed verification: {sm.lam}")
    return ext


def phi_at(ext: SM.ExtendedSemiModule, a: int) -> int | None:
    """
    phi(a) from the definition, one point at a time: None off A (standing
    in for -infinity), maxk(a) at or past the conductor, and the free value
    below it.  The reference for the phi tables, which walk each residue
    class instead.
    """
    base = ext.base
    if a < base.class_min[a % base.n]:
        return None
    if a >= base.conductor:
        return base.maxk(a)
    return dict(ext.phi_free)[a]


def dualize(mu: tuple[int, ...], lam: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The dual datum: mu* = (mu(1), mu(1)-mu(n-1), ..., mu(1)-mu(2), 0) and
    lam* = -w_max lam.  Extended semi-modules for (mu, lam) biject with those
    for (mu*, lam*), preserving cyclicity.
    """
    n = len(mu)
    d = mu[0]
    mu_star = (d,) + tuple(d - mu[n - i] for i in range(2, n)) + (0,)
    lam_star = tuple(-lam[n - 1 - i] for i in range(n))
    return mu_star, lam_star


# ---------------------------------------------------------------------------
# crystal
# ---------------------------------------------------------------------------

# The row-form operators: the reference route for the reading-word kernel
# of adlv.crystal.  A tableau here is a tuple of row tuples.

def weight(t: C.Tableau, n: int) -> tuple[int, ...]:
    wt = [0] * n
    for row in t:
        for v in row:
            wt[v - 1] += 1
    return tuple(wt)


def is_semistandard(t: C.Tableau, n: int) -> bool:
    sh = C.shape(t)
    if any(sh[i] < sh[i + 1] for i in range(len(sh) - 1)):
        return False
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if not 1 <= v <= n:
                return False
            if c + 1 < len(row) and row[c + 1] < v:
                return False
            if r + 1 < len(t) and c < len(t[r + 1]) and t[r + 1][c] <= v:
                return False
    return True


def fe_factors(t: C.Tableau) -> tuple[tuple[int, ...], ...]:
    """Columns in Far-Eastern order, rightmost first, each read top to bottom."""
    if not t:
        return ()
    return tuple(tuple(row[c] for row in t if c < len(row))
                 for c in range(len(t[0]) - 1, -1, -1))


def fe_positions(sh: tuple[int, ...]) -> list[tuple[int, int]]:
    """The boxes of shape sh in Far-Eastern order: columns right to left,
    each top to bottom."""
    return [(r, c) for c in range(sh[0] - 1 if sh else -1, -1, -1)
            for r, k in enumerate(sh) if c < k]


def tableau_of_word(word: C.Word, sh: tuple[int, ...]) -> C.Tableau:
    """The row tableau of shape sh with the given reading word."""
    rows = [[0] * k for k in sh]
    for v, (r, c) in zip(word, fe_positions(sh), strict=True):
        rows[r][c] = v
    return tuple(tuple(row) for row in rows)


def signature(t: C.Tableau, i: int):
    """Unmatched '-' and '+' box positions for the operator index i, read
    off the rows in Far-Eastern order."""
    minus: list[tuple[int, int]] = []
    plus: list[tuple[int, int]] = []
    for pos in fe_positions(C.shape(t)):
        v = t[pos[0]][pos[1]]
        if v == i:
            plus.append(pos)
        elif v == i + 1:
            if plus:
                plus.pop()
            else:
                minus.append(pos)
    return minus, plus


def _replace(t: C.Tableau, pos: tuple[int, int], v: int) -> C.Tableau:
    r, c = pos
    row = list(t[r])
    row[c] = v
    return t[:r] + (tuple(row),) + t[r + 1:]


def _max_entry(t: C.Tableau) -> int:
    return max((v for row in t for v in row), default=1)


def raising(i: int, t: C.Tableau) -> C.Tableau | None:
    """e-operator: flip the rightmost unmatched i+1 down to i."""
    minus, _ = signature(t, i)
    if not minus:
        return None
    out = _replace(t, minus[-1], i)
    if not is_semistandard(out, max(i + 1, _max_entry(t))):
        raise AssertionError(f"raising broke semistandardness: {t}, i={i}")
    return out


def lowering(i: int, t: C.Tableau) -> C.Tableau | None:
    """f-operator: flip the leftmost unmatched i up to i+1."""
    _, plus = signature(t, i)
    if not plus:
        return None
    out = _replace(t, plus[0], i + 1)
    if not is_semistandard(out, max(i + 1, _max_entry(out))):
        raise AssertionError(f"lowering broke semistandardness: {t}, i={i}")
    return out


def simple_act(i: int, t: C.Tableau, n: int) -> C.Tableau:
    """s_i by iterated raising or lowering on rows, the weight recounted."""
    wt = weight(t, n)
    k = wt[i - 1] - wt[i]
    out = t
    for _ in range(abs(k)):
        out = lowering(i, out) if k > 0 else raising(i, out)
        if out is None:
            raise AssertionError("Weyl action fell off the crystal")
    return out


def weyl_act(p: tuple[int, ...], t: C.Tableau, n: int) -> C.Tableau:
    """A permutation acting on rows, one simple_act per letter of its word."""
    for i in reversed(W.perm_word(p)):
        t = simple_act(i, t, n)
    return t


def kernel_act(p: tuple[int, ...], t: C.Tableau, n: int) -> C.Tableau:
    """crystal.weyl_act on the reading word of t, read back as rows."""
    sh = C.shape(t)
    return tableau_of_word(C.weyl_act(p, C.reading_word(t, n), sh, n), sh)


def weight_of_shape(b: C.Tableau, n: int) -> tuple[int, ...]:
    sh = C.shape(b)
    return tuple(list(sh) + [0] * (n - len(sh)))


def highest_weight_tableau(mu: tuple[int, ...]) -> C.Tableau:
    """Row i filled with the entry i."""
    return tuple(tuple(r + 1 for _ in range(k)) for r, k in enumerate(C.shape_of_mu(mu)))


def lowest_weight_tableau(mu: tuple[int, ...], n: int) -> C.Tableau:
    """Each column of height h filled with n-h+1, ..., n."""
    sh = C.shape_of_mu(mu)
    heights = [sum(1 for k in sh if k > c) for c in range(sh[0])] if sh else []
    return tuple(tuple(n - heights[c] + 1 + r for c in range(k)) for r, k in enumerate(sh))


def crystal_of(mu: tuple[int, ...], n: int) -> frozenset[C.Tableau]:
    """The whole crystal, generated from the highest weight tableau by the
    lowering operators: the reference route for enumerate_weight_space."""
    start = highest_weight_tableau(mu)
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for i in range(1, n):
            u = lowering(i, t)
            if u is not None and u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def epsilon(i: int, t: C.Tableau) -> int:
    """Unmatched '-' signs for operator i: the reference route for epsilons."""
    return len(signature(t, i)[0])


def varphi(i: int, t: C.Tableau) -> int:
    return len(signature(t, i)[1])


def dual_tableau(b: C.Tableau, n: int) -> C.Tableau:
    """
    The image of b in the dual crystal, realized on the complementary shape:
    raise b to the highest weight recording the letters, then descend with
    the same letters from the lowest weight tableau of the dual shape.
    """
    mu = weight_of_shape(b, n)
    mu_star, _ = dualize(mu, (0,) * n)
    path = []
    cur = b
    while True:
        for i in range(1, n):
            up = raising(i, cur)
            if up is not None:
                path.append(i)
                cur = up
                break
        else:
            break
    if cur != highest_weight_tableau(mu):
        raise AssertionError("raising did not terminate at the highest weight")
    out = lowest_weight_tableau(mu_star, n)
    for i in reversed(path):
        nxt = raising(i, out)
        if nxt is None:
            raise AssertionError("dual path left the dual crystal")
        out = nxt
    return out


def b_minus_rows(cd: C.ConstructionData) -> C.Tableau:
    """b conjugated on rows to the antidominant rearrangement of lambda_b."""
    n = cd.n
    return weyl_act(C._matching_perm(weight(cd.b, n),
                                     tuple(sorted(SM.lambda_b(cd.m, n)))), cd.b, n)


def xi_family(cd: C.ConstructionData, u: tuple[int, ...], b_minus: C.Tableau
              ) -> tuple[tuple[int, ...], ...]:
    """The xi-family of the conjugator u, xi_j = u xi(u^-1 b^-) + sum_(j'<j)
    u w_1^-1 ... w_(j'-1)^-1 wt(b_j'), with u^-1 b^- reached on rows from
    b_minus (b_minus_rows(cd)) and xi read off epsilon."""
    n = cd.n
    bprime = weyl_act(W.inverse_perm(u), b_minus, n)
    eps = [epsilon(i, bprime) for i in range(1, n)]
    xi0 = tuple(sum(eps[i:]) for i in range(n - 1)) + (0,)
    return tuple(W.perm_on_cochar(u, tuple(x + y for x, y in zip(xi0, pre)))
                 for pre in cd.lambda_prefixes)


def xi_normalized_by_families(cd: C.ConstructionData) -> tuple[tuple[int, ...], ...]:
    """The n families of Upsilon(b), each normalized by tau^k, k minus the
    sum of its first coweight, acting on every coweight, and asserted equal:
    the reference route for crystal.xi_normalized."""
    families = []
    b_minus = b_minus_rows(cd)
    for u in cd.upsilon:
        fam = xi_family(cd, u, b_minus)
        tk = W.tau(cd.n, -sum(fam[0]))
        families.append(tuple(act_on_cochar(tk, x) for x in fam))
    if any(f != families[0] for f in families[1:]):
        raise AssertionError("conjugators gave inequivalent families")
    return families[0]


# ---------------------------------------------------------------------------
# reduction and compare
# ---------------------------------------------------------------------------

def evaluate(cp: R.ClassPolynomial, q: int) -> int:
    """The class polynomial at q, summed from the path profile in the
    (q-1)-basis: the reference route for its coefficients."""
    return sum(c * (q - 1) ** a * q ** b for (a, b), c in cp.path_profile)


def find_reduction_step_by_descents(w: AffineWeylElement, rng: random.Random
                                     ) -> tuple[tuple[AffineWeylElement, int] | None,
                                                set[AffineWeylElement]]:
    """
    reduction.find_reduction_step one reflection at a time: each descent by
    W.left_descent (which locates a and b in p by scans) and right_descent,
    each conjugate by conjugate_simple, and a pivot told by forming s z and
    z s.  Draws from rng in the same order, so the reference route for the
    production search's step, visited set and rng state.
    """
    order = list(range(w.n))
    rng.shuffle(order)
    seen = {w}
    queue = [w]
    while queue:
        idx = rng.randrange(len(queue))
        queue[idx], queue[-1] = queue[-1], queue[idx]
        z = queue.pop()
        for s in order:
            left = W.left_descent(s, z)
            if left != right_descent(z, s):
                zss = conjugate_simple(s, z)
                if zss not in seen:
                    seen.add(zss)
                    queue.append(zss)
            elif left and W.left_mul_simple(s, z) != W.right_mul_simple(z, s):
                return (z, s), seen
    return None, seen


def path_profiles_per_element(w: AffineWeylElement, seed: int = 0,
                              memo: dict | None = None) -> dict:
    """path_profiles with a memo keyed by element: one step search per
    distinct element reached, by the search one reflection at a time
    (find_reduction_step_by_descents), and nothing filled in for the other
    elements of its orbit.  The reference route for the orbit-keyed memo."""
    rng = random.Random(seed)
    memo = {} if memo is None else memo

    def profile(z: AffineWeylElement) -> dict:
        if z in memo:
            return memo[z]
        step, _ = find_reduction_step_by_descents(z, rng)
        if step is None:
            out = {(z, 0, 0): 1}
        else:
            pivot, s = step
            child1 = W.left_mul_simple(s, pivot)
            child2 = W.right_mul_simple(child1, s)
            out = {}
            for (end, a, b), c in profile(child1).items():
                out[(end, a + 1, b)] = out.get((end, a + 1, b), 0) + c
            for (end, a, b), c in profile(child2).items():
                out[(end, a, b + 1)] = out.get((end, a, b + 1), 0) + c
        memo[z] = out
        return out

    result: dict = {}
    for (end, a, b), c in profile(w).items():
        result.setdefault(end, {})[(a, b)] = c
    return result


def class_polynomial_per_element(w: AffineWeylElement, m: int, seed: int = 0,
                                 memo: dict | None = None) -> R.ClassPolynomial:
    """class_polynomial through path_profiles_per_element, with every check
    of the production route."""
    return R._class_polynomial_of_profiles(
        w, m, path_profiles_per_element(w, seed, memo))


def tree_invariance_check(w: AffineWeylElement, m: int, trials: int,
                          seed: int = 0) -> bool:
    """Whether the class polynomial is independent of the seeded order in
    which reduction trees are explored."""
    if trials < 2:
        raise ValueError("need at least two trials")
    polys = {R.class_polynomial(w, m, seed=seed + t).coefficients
             for t in range(trials)}
    return len(polys) == 1


def poly_sum(polys) -> tuple[int, ...]:
    """The sum of coefficient tuples in q, ascending degree."""
    return tuple(map(sum, itertools.zip_longest(*polys, fillvalue=0)))


def all_top_cyclic_by_enumeration(mu: tuple[int, ...], n: int) -> bool:
    """all_top_cyclic with no count: every top stratum from the phi search,
    which must reach dim X_mu and not pass it, against every tableau's
    (top_lambda, cyclicity), the two (lambda, cyclic) multisets compared in
    full, non-cyclic strata included."""
    m = CP._check_mu(mu, n)
    crystal_side = Counter()
    for b in C.enumerate_weight_space(mu, SM.lambda_b(m, n)):
        cd = C.build_construction(b, m, n)
        crystal_side[(C.top_lambda(cd), cd.is_cyclic)] += 1
    ex = SM.enumerate_extended(mu)
    d = SM.dim_x_mu(mu)
    if not ex or max(e.dim for e in ex) != d:
        raise AssertionError(f"top dimension disagrees with the formula at {mu}")
    sm_side = Counter((e.base.lam, e.is_cyclic) for e in ex if e.dim == d)
    if crystal_side != sm_side:
        raise AssertionError(f"crystal and semi-module routes disagree at {mu}")
    return all(cyc for _, cyc in sm_side)


def condition_ii_by_walk(mu: tuple[int, ...], n: int) -> bool:
    """condition_ii with no block cache: walk s_adm(mu) in order and stop at
    the first element with non-empty stratum and no Coxeter witness."""
    m = CP._check_mu(mu, n, superbasic=False)
    for w in A.s_adm_walk(mu):
        if not A.x_w_nonempty(w, m):
            continue
        if A.condition_ii_witness(w) is None:
            return False
    return True


def _add(*vs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(t) for t in zip(*vs))


def _scale(c: int, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c * x for x in v)


def condition_iii_by_forms(mu: tuple[int, ...], n: int) -> bool:
    """The reference route for condition_iii: every form of the refinement
    list built as an n-vector, duals included, and mu looked up."""
    CP._check_mu(mu, n, superbasic=False)
    om = lambda k: omega(n, k)

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
    return mu in forms


def thm12_clause_by_forms(mu: tuple[int, ...], n: int) -> str | None:
    """
    The reference route for thm12_clause: every form of clauses (i)-(v)
    built as an n-vector, duals included, clause by clause, the first
    clause to offer a form labelling it.  The infinite families (iii) and
    (iv), k omega_1 and (k-j) omega_1 + omega_j with k coprime to n, and
    their duals, are cut off at k = n (sum(mu) // n + 1) + n - 1, past
    every form of total sum(mu).
    """
    m = CP._check_mu(mu, n, superbasic=False)
    om = lambda k: omega(n, k)

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
