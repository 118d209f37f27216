"""
Admissible sets, minimal coset representatives, length-positive sets and the
non-emptiness test for Iwahori-level strata.

An element w factors uniquely as w = x . t^mu . y with mu dominant, x, y
finite permutations and t^mu . y the minimal-length element of the coset
W_0 w; then p(w) = xy and length(w) = length(x) + <mu, 2rho> - length(y).
The length-positive set LP(w) consists of the finite v with

    <v a, y^-1 mu> + delta+(v a) - delta+(x y v a) >= 0   for all a > 0,

where delta+ is the indicator of positivity.  It always contains y^-1, and lp
lists it by a walk over positions (_linear_extensions), not by a scan of the
finite Weyl group.  Its second description through the root subset Phi_w,
and the Bruhat-order definition of the admissible set, are reference routes
kept in tests/oracles.py.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

from . import weyl as W
from .weyl import AffineWeylElement


@dataclass(frozen=True)
class SWDecomposition:
    x: tuple[int, ...]
    mu: tuple[int, ...]
    y: tuple[int, ...]


@dataclass(frozen=True)
class LPData:
    w: AffineWeylElement
    phi_w: frozenset[tuple[int, int]]   # positive roots (i, j), 0-indexed i < j
    lp: frozenset[tuple[int, ...]]


def is_min_coset_rep(w: AffineWeylElement) -> bool:
    """Whether w is the minimal-length element of W_0 w."""
    return not any(W.left_descent(i, w) for i in range(1, w.n))


def decompose_sw(w: AffineWeylElement) -> SWDecomposition:
    """
    The unique x . t^mu . y factorization of w with t^mu y minimal in W_0 w.

    Computed by greedy left division by finite descents (smallest index
    first, W.peel_left_descents); the translation part of the minimal
    representative is dominant.
    """
    _, u = W.peel_left_descents(w, range(1, w.n))
    mu, y = u
    x = W.compose(w.perm, W.inverse_perm(y))
    if not W.is_dominant(mu):
        raise AssertionError(f"minimal coset representative not dominant: {u}")
    if W.mul(W.from_perm(x), u) != w:
        raise AssertionError("decomposition does not recompose")
    return SWDecomposition(x=x, mu=mu, y=y)


# ---------------------------------------------------------------------------
# admissible sets
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def adm(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """
    The admissible set of a dominant cocharacter: all w lying below some
    t^(u mu), u finite, in Bruhat order.  Computed as the union of the
    subword-element sets of one reduced word per distinct translation in the
    orbit of mu.
    """
    if not W.is_dominant(mu):
        raise ValueError(f"mu must be dominant: {mu}")
    n = len(mu)
    m = sum(mu)
    out: set[AffineWeylElement] = set()
    tk = W.tau(n, m)
    for nu in W.rearrangements(mu):
        letters, k = W.reduced_word(W.from_translation(nu))
        if k != m:
            raise AssertionError("translation has wrong Omega-component")
        for x in W.subword_elements(n, letters):
            out.add(W.mul(x, tk))
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def _min_coset_reps(mu_prime: tuple[int, ...]) -> tuple[AffineWeylElement, ...]:
    """
    All t^mu' y lying minimally in their coset, for dominant mu', sorted by y.

    t^mu' y is minimal iff mu'(a) - mu'(b) >= [y^-1 a > y^-1 b] for a < b,
    i.e. iff y^-1 increases on each block of equal entries of mu'.  So y
    lists the positions of each block in increasing order, interleaved in
    any way: n! / prod(b_i!) elements, generated directly.  Taking the
    blocks in order at each step yields them sorted by y.  The tests compare
    this with _min_coset_reps_scan_oracle, which tests every y in S_n.
    """
    n = len(mu_prime)
    blocks = [tuple(a for a in range(n) if mu_prime[a] == v)
              for v in sorted(set(mu_prime), reverse=True)]
    out = []

    def fill(y: tuple[int, ...], used: tuple[int, ...]) -> None:
        if len(y) == n:
            out.append(AffineWeylElement(mu_prime, y))
            return
        for b, block in enumerate(blocks):
            k = used[b]
            if k < len(block):
                fill(y + (block[k],), used[:b] + (k + 1,) + used[b + 1:])

    fill((), (0,) * len(blocks))
    return tuple(out)


def _admissible_at_vertices(w: AffineWeylElement, mu: tuple[int, ...]) -> bool:
    """
    Vertices k = 1..n-1 of the vertexwise criterion: the dominant sort of the
    translation part of tau^-k w tau^k lies below mu.  With w = t^lam p and
    tau^k = t^c p_k, c the indicator of the first k positions, that
    translation part is p_k^-1 (lam + p c - c), so only the multiset of
    lam + p c - c matters and tau is never formed.
    """
    lam, p = w
    n = len(p)
    pinv = W.inverse_perm(p)
    for k in range(1, n):
        nu = [lam[i] + (pinv[i] < k) - (i < k) for i in range(n)]
        if not W.dominance_leq(W.dominant_sort(nu), mu):
            return False
    return True


@functools.lru_cache(maxsize=None)
def s_adm(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """
    Admissible elements that are minimal in their W_0-coset.

    Candidates are the minimal representatives t^mu' y over dominant mu'
    below mu; each is tested by the vertexwise criterion of Haines and He
    (Vertexwise criteria for admissibility of alcoves, Amer. J. Math. 139,
    2017): w lies in Adm(mu) iff kappa(w) = sum(mu) and, at every vertex
    k = 0..n-1 of the base alcove, the dominant sort of the translation part
    of tau^-k w tau^k is below mu in dominance order.  kappa and vertex 0
    hold for every candidate by construction.  The tests compare this route
    with an oracle that keeps the candidates lying below some translation in
    the orbit of mu in Bruhat order, and with filtering the full admissible
    set (s_adm_via_enumeration).
    """
    if not W.is_dominant(mu):
        raise ValueError(f"mu must be dominant: {mu}")
    return frozenset(w for mu_p in W.dominant_below(mu)
                     for w in _min_coset_reps(mu_p)
                     if _admissible_at_vertices(w, mu))


def s_adm_via_enumeration(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """Reference route: filter the full admissible set.  No command runs it;
    it stays here, with adm and is_min_coset_rep, because the benchmark's
    worker checks s_adm against it by this name."""
    return frozenset(w for w in adm(mu) if is_min_coset_rep(w))


def s_adm_cyc(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """The subset of s_adm whose finite part is an n-cycle."""
    return frozenset(w for w in s_adm(mu) if W.is_n_cycle(w.perm))


# ---------------------------------------------------------------------------
# length positive sets
# ---------------------------------------------------------------------------

def _lp_table(w: AffineWeylElement) -> tuple[tuple[bool, ...], ...]:
    """
    The verdict table T of the defining inequality of LP(w) at a positive
    root (a, b), which only depends on the value pair (i, j) = (v(a), v(b)):
    T[i][j] iff <chi_(i,j), y^-1 mu> + delta+(chi_(i,j)) - delta+(xy chi_(i,j))
    >= 0.  So v lies in LP(w) iff T[v(a)][v(b)] for all a < b.
    """
    n = w.n
    dec = decompose_sw(w)
    q = W.perm_on_cochar(W.inverse_perm(dec.y), dec.mu)     # y^-1 mu
    xy = W.compose(dec.x, dec.y)
    return tuple(tuple(q[i] - q[j] + (i < j) - (xy[i] < xy[j]) >= 0
                       for j in range(n)) for i in range(n))


def _in_lp(table: tuple[tuple[bool, ...], ...], v: tuple[int, ...]) -> bool:
    """Whether v lies in LP(w), given the verdict table of w."""
    n = len(v)
    return all(table[v[a]][v[b]] for a in range(n) for b in range(a + 1, n))


def _linear_extensions(table: tuple[tuple[bool, ...], ...]
                       ) -> Iterator[tuple[int, ...]]:
    """
    The permutations v with T[v(a)][v(b)] for all a < b, listed by a walk over
    positions: a value i may come next iff T[i][j] for every value j not yet
    placed.  These v are the linear orders of the values respecting "j
    before i when not T[i][j]" (cf. G. Pruesse and F. Ruskey, Generating
    linear extensions fast, SIAM J. Comput. 23, 1994).  When one exists, that
    forced order is acyclic (a pair false both ways is a 2-cycle), so every
    set of values left has one that may come first and the walk never
    dead-ends: the first v takes O(n^2) tests, and all of them about n per v.
    """
    n = len(table)
    bad = [sum(1 << j for j, ok in enumerate(row) if not ok) & ~(1 << i)
           for i, row in enumerate(table)]      # values i must not precede

    def walk(prefix: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        if not left & (left - 1):               # one value left: it fits
            yield prefix + (left.bit_length() - 1,)
            return
        for i in range(n):
            if left >> i & 1 and not bad[i] & left:
                yield from walk(prefix + (i,), left ^ 1 << i)

    return walk((), (1 << n) - 1)


def lp(w: AffineWeylElement) -> LPData:
    """
    Length-positive data of w: the set LP(w), listed by _linear_extensions
    from the verdict table of w, and the root set Phi_w of positive roots a
    with <a, mu> - delta-(y^-1 a) + delta-(x a) = 0.  The tests compare the
    set with _lp_scan_oracle, which tests the table on every v in S_n.
    """
    n = w.n
    dec = decompose_sw(w)
    x, mu, y = dec.x, dec.mu, dec.y
    yinv = W.inverse_perm(y)

    phi = set()
    for a in range(n):
        for b in range(a + 1, n):
            # alpha = chi_(a, b); y^-1 alpha = chi_(yinv a, yinv b); x alpha
            # = chi_(x a, x b); delta- tests whether the image is inverted.
            val = mu[a] - mu[b] - (1 if yinv[a] > yinv[b] else 0) \
                + (1 if x[a] > x[b] else 0)
            if val == 0:
                phi.add((a, b))
    return LPData(w=w, phi_w=frozenset(phi),
                  lp=frozenset(_linear_extensions(_lp_table(w))))


# ---------------------------------------------------------------------------
# non-emptiness and Coxeter witnesses
# ---------------------------------------------------------------------------

def x_w_nonempty(w: AffineWeylElement, m: int) -> bool:
    """
    Whether the Iwahori-level stratum of w is non-empty for b = tau^m.

    Empty iff kappa(w) != m, or the sigma-support of w is the full affine
    diagram (the only case generating an infinite subgroup) while some
    v in LP(w) conjugates p = p(w) into a proper parabolic, i.e. v^-1 p v
    fixes a proper prefix {0..k-1} of positions.  That happens iff the value
    set S = v({0..k-1}) is p-stable, so the test runs over p's cycles: with T
    the verdict table of LP(w) (_lp_table), some v in LP(w) lists a proper
    non-empty union S of cycles first iff LP(w) is non-empty and T[i][j] for
    every i in S and j outside S.  Such an S exists iff the closure of some
    cycle under "A forces B when T[i][j] fails for some i in A, j in B" is
    proper.  An empty LP(w) leaves the stratum non-empty.  The tests compare
    this with _x_w_nonempty_scan_oracle, which conjugates p by every v in
    LP(w).
    """
    if W.kappa(w) != m:
        return False
    n = w.n
    if len(W.supp_sigma(w)) < n:
        return True
    table = _lp_table(w)
    if next(_linear_extensions(table), None) is None:
        return True
    cycles = W.cycles(w.perm)
    forces = [[b for b, B in enumerate(cycles)
               if any(not table[i][j] for i in A for j in B)] for A in cycles]
    for start in range(len(cycles)):
        closed = {start}
        frontier = [start]
        while frontier:
            for b in forces[frontier.pop()]:
                if b not in closed:
                    closed.add(b)
                    frontier.append(b)
        if len(closed) < len(cycles):
            return False
    return True


def condition_ii_witness(w: AffineWeylElement) -> tuple[int, ...] | None:
    """
    Some v in LP(w) with v^-1 p(w) v a Coxeter element, or None; the witness
    is the lexicographically smallest such v, so it is deterministic.

    Coxeter elements are n-cycles, so there is none unless p(w) is an
    n-cycle.  Then the candidates are the n conjugators of p(w) into each of
    the 2^(n-2) Coxeter elements, tested against the verdict table of LP(w)
    in lexicographic order.  The tests compare this with
    _condition_ii_witness_scan_oracle, which scans all of LP(w).
    """
    p = w.perm
    if not W.is_n_cycle(p):
        return None
    table = _lp_table(w)
    candidates = sorted(v for c in W.coxeter_elements(w.n)
                        for v in W.conjugators(p, c))
    return next((v for v in candidates if _in_lp(table, v)), None)
