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


def inv(w: AffineWeylElement) -> AffineWeylElement:
    """The inverse of w."""
    lam, p = w
    return AffineWeylElement(tuple(-lam[p[i]] for i in range(len(p))), W.inverse_perm(p))


def bruhat_leq(x: AffineWeylElement, y: AffineWeylElement) -> bool:
    """
    Bruhat order on the extended group: comparable only within one
    Omega-coset, where the order is that of the affine Weyl group.  The
    reference route for s_adm, which decides admissibility vertexwise.

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


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# semimodule
# ---------------------------------------------------------------------------

def from_lambda(lam: tuple[int, ...], m: int) -> SM.SemiModule:
    """
    The semi-module with Abar = {(i-1) + lam(i) n}.  Requires sum(lam) = 0
    (normalization) and stability under +m, which is a genuine condition.
    """
    if sum(lam) != 0:
        raise ValueError(f"lambda must sum to 0, got {lam}")
    sm = SM._assemble(m, len(lam), tuple(lam))
    if sm is None:
        raise ValueError(f"A^lambda is not stable under +{m}: {lam}")
    return sm


def dominant_lambda_b(m: int, n: int) -> tuple[int, ...]:
    return W.dominant_sort(SM.lambda_b(m, n))


def type_closed_form(sm: SM.SemiModule) -> tuple[int, ...]:
    """
    c^m lam + lam_b_dom - lam, a rearrangement of the type (c the standard
    n-cycle): the reference route for type_of's walk around Abar.
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
    if sorted(SM.type_of(sm), reverse=True) != list(W.dominant_sort(mu)):
        return None
    free = tuple((a, sm.maxk(a)) for a in sm.elements(sm.abar[0], sm.conductor))
    ext = SM.ExtendedSemiModule(base=sm, mu=tuple(mu), phi_free=free)
    if not SM.verify_extended(ext):
        raise AssertionError(f"cyclic pair failed verification: {sm.lam}")
    return ext


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
            u = C.lowering(i, t)
            if u is not None and u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def epsilon(i: int, t: C.Tableau) -> int:
    """Unmatched '-' signs for operator i: the reference route for epsilons."""
    return len(C._signature(t, i)[0])


def varphi(i: int, t: C.Tableau) -> int:
    return len(C._signature(t, i)[1])


def dual_tableau(b: C.Tableau, n: int) -> C.Tableau:
    """
    The image of b in the dual crystal, realized on the complementary shape:
    raise b to the highest weight recording the letters, then descend with
    the same letters from the lowest weight tableau of the dual shape.
    """
    mu = C.weight_of_shape(b, n)
    mu_star, _ = dualize(mu, (0,) * n)
    path = []
    cur = b
    while True:
        for i in range(1, n):
            up = C.raising(i, cur)
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
        nxt = C.raising(i, out)
        if nxt is None:
            raise AssertionError("dual path left the dual crystal")
        out = nxt
    return out


# ---------------------------------------------------------------------------
# reduction and compare
# ---------------------------------------------------------------------------

def evaluate(cp: R.ClassPolynomial, q: int) -> int:
    """The class polynomial at q, summed from the path profile in the
    (q-1)-basis: the reference route for its coefficients."""
    return sum(c * (q - 1) ** a * q ** b for (a, b), c in cp.path_profile)


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


def point_count_identity(mu: tuple[int, ...], n: int, seed: int = 0) -> bool:
    """full_report's point-count verdict for one shape, computed on its own,
    with no objects shared with the other verdicts."""
    m = CP._check_mu(mu, n)
    return CP._point_count_identity(mu, CP._class_polynomials(mu, m, seed),
                                    SM.enumerate_extended(mu))
