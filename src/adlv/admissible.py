"""
Admissible sets, minimal coset representatives, length-positive sets, the
non-emptiness test for Iwahori-level strata and Coxeter witnesses.

An element w = t^lam p factors uniquely as w = x . t^mu . y with mu
dominant, x, y finite permutations and t^mu . y the minimal-length element
of the coset W_0 w; then p = xy and length(w) = length(x) + <mu, 2rho> -
length(y).  decompose_sw gives the factorization in closed form, with its
proof; _coset_parts reads a minimal representative (x = 1) off w in O(n)
and sends every other element to decompose_sw.  The length-positive set
LP(w) consists of the finite v with

    <v a, y^-1 mu> + delta+(v a) - delta+(p v a) >= 0   for all a > 0,

where delta+ is the indicator of positivity.  As y^-1 mu = p^-1 lam, its
verdict table (_lp_table) is read off w with no decomposition.  LP(w)
always contains y^-1, and lp lists it by a walk over positions
(_linear_extensions), not by a scan of the finite Weyl group.  Coxeter
witnesses come from the same walk, restricted to values that grow an arc of
p's cycle (condition_ii_witness).  The minimal-coset admissible set is
generated, not filtered: s_adm proves that every minimal representative
t^mu' y with mu' below mu is admissible, and s_adm_walk lists those
elements in sorted order, one mu' at a time, without building, sorting or
caching the set; s_adm_size counts them in closed form.  The description
of LP(w) through the root subset Phi_w, the Bruhat-order definition of the
admissible set, the vertexwise admissibility test and the list of Coxeter
conjugators are reference routes kept in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
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
    phi_w: frozenset[tuple[int, int]]   # positive roots (i, j), 0-indexed i < j
    lp: frozenset[tuple[int, ...]]


def is_min_coset_rep(w: AffineWeylElement) -> bool:
    """
    Whether w is the minimal-length element of W_0 w: whether no s_i,
    1 <= i < n, is a left descent.  W.left_descent's rule, with p^-1 read
    once: s_i is one iff lam[i] - lam[i-1] + [p^-1(i-1) > p^-1(i)] >= 1.
    """
    lam, p = w
    pinv = W.inverse_perm(p)
    return not any(lam[i] - lam[i - 1] + (pinv[i - 1] > pinv[i]) >= 1
                   for i in range(1, len(p)))


def decompose_sw(w: AffineWeylElement) -> SWDecomposition:
    """
    The unique x . t^mu . y factorization of w with t^mu y minimal in W_0 w,
    in closed form.  For w = t^lam p, let ks list the positions k of p,
    stably sorted by -lam(p(k)); then y^-1 = ks, x = p y^-1 and mu = lam o x.

    Proof.  x t^mu y = t^(x mu) x y, and (x mu)(x(i)) = mu(i) = lam(x(i)),
    so x mu = lam; x y = p y^-1 y = p.  So the product is w, and t^mu y =
    x^-1 w lies in W_0 w.  The sort makes mu(i) = lam(p(ks(i))) decrease
    weakly, so mu is dominant.  Its stability makes y^-1 = ks increase on
    each block of equal entries of mu, which is the minimality criterion of
    _min_coset_reps.  A coset has one minimal element, so this is the
    factorization.  The tests compare it with greedy left division by finite
    descents (W.peel_left_descents).
    """
    lam, p = w
    ks = tuple(sorted(range(w.n), key=lambda k: -lam[p[k]]))
    x = W.compose(p, ks)
    mu = tuple(lam[a] for a in x)
    y = W.inverse_perm(ks)
    if not W.is_dominant(mu):
        raise AssertionError(f"minimal coset representative not dominant: {mu}")
    if W.mul(W.from_perm(x), AffineWeylElement(mu, y)) != w:
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
    for nu in set(itertools.permutations(mu)):
        letters, k = W.reduced_word(W.from_translation(nu))
        if k != m:
            raise AssertionError("translation has wrong Omega-component")
        for x in W.subword_elements(n, letters):
            out.add(W.mul(x, tk))
    return frozenset(out)


def _min_coset_reps(mu_prime: tuple[int, ...]) -> tuple[AffineWeylElement, ...]:
    """
    All t^mu' y lying minimally in their coset, for dominant mu', sorted by y.

    t^mu' y is minimal iff mu'(a) - mu'(b) >= [y^-1 a > y^-1 b] for a < b,
    i.e. iff y^-1 increases on each block of equal entries of mu'.  So y
    lists the positions of each block in increasing order, interleaved in
    any way: n! / prod(b_i!) elements, generated directly.  mu' is dominant,
    so its blocks, taken by decreasing value, are consecutive runs of
    positions in increasing order; the next position of an earlier block is
    smaller than that of a later one, so taking the blocks in order at each
    step yields the elements sorted by y.  The tests compare this with
    _min_coset_reps_scan_oracle, which tests every y in S_n.
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


def s_adm(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """
    Admissible elements that are minimal in their W_0-coset: every minimal
    representative t^mu' y (_min_coset_reps) over dominant mu' below mu in
    dominance order, with no test per element.  No command builds this set;
    they iterate s_adm_walk, which lists the same elements in sorted order.

    These are all admissible.  Let w = t^mu' y be one, mu' <= mu.
    1. t^mu' lies in Adm(mu) by the vertexwise criterion of Haines and He
       (Vertexwise criteria for admissibility of alcoves, Amer. J. Math. 139,
       2017): w lies in Adm(mu) iff kappa(w) = sum(mu) and, at every vertex
       k = 0..n-1 of the base alcove, the dominant sort of the translation
       part of tau^-k w tau^k is below mu.  For w = t^mu' that conjugate is
       the translation by a rearrangement of mu', whose dominant sort is
       mu' <= mu, and kappa(t^mu') = sum(mu') = sum(mu).
    2. The length formula of the module docstring with x = 1 gives
       length(w) = <mu', 2 rho> - length(y) = length(t^mu') - length(y^-1).
       So t^mu' = w . y^-1 is a length-additive product, and w <= t^mu' by
       the subword property.
    3. Adm(mu) is a lower set in Bruhat order by definition, so w lies in it.
    Conversely, vertex 0 of the criterion puts the dominant sort of an
    admissible element's translation part below mu, and for a minimal
    representative t^mu' y that translation part is the dominant mu' itself
    (decompose_sw), so no admissible element is missed.  The tests compare
    this with the vertexwise filter and the Bruhat-order definition
    (tests/oracles.py), and with filtering the full admissible set
    (s_adm_via_enumeration).
    """
    return frozenset(s_adm_walk(mu))


def s_adm_walk(mu: tuple[int, ...]) -> Iterator[AffineWeylElement]:
    """
    The elements of s_adm(mu) in increasing order, as sorted(s_adm(mu)) lists
    them, generated one mu' at a time: the set is never built, sorted or
    cached, so a caller that stops early pays only for what it read.

    The order: AffineWeylElement is the NamedTuple (trans, perm), so it
    compares by translation part first and finite part second.  A minimal
    representative t^mu' y has translation part mu' itself.  W.dominant_below
    yields the mu' in increasing lexicographic order; distinct mu' are
    distinct translation parts, so the blocks below never interleave or
    repeat an element.  Within one mu', _min_coset_reps lists the t^mu' y
    sorted by y.  The tests compare the walk with sorted(s_adm(mu)).
    """
    if not W.is_dominant(mu):
        raise ValueError(f"mu must be dominant: {mu}")
    return (w for mu_p in W.dominant_below(mu) for w in _min_coset_reps(mu_p))


def s_adm_size(mu: tuple[int, ...]) -> int:
    """
    The number of elements of s_adm(mu), in closed form, with no element
    generated: each dominant mu' <= mu contributes n! / prod(b!) over the
    multiplicities b of its entries (_min_coset_reps).
    """
    if not W.is_dominant(mu):
        raise ValueError(f"mu must be dominant: {mu}")
    orders = math.factorial(len(mu))
    return sum(orders // math.prod(math.factorial(b) for b in Counter(mu_p).values())
               for mu_p in W.dominant_below(mu))


def s_adm_via_enumeration(mu: tuple[int, ...]) -> frozenset[AffineWeylElement]:
    """Reference route: filter the full admissible set.  No command runs it;
    it stays here, with adm and is_min_coset_rep, because the benchmark's
    worker checks s_adm against it by this name."""
    return frozenset(w for w in adm(mu) if is_min_coset_rep(w))


# ---------------------------------------------------------------------------
# length positive sets
# ---------------------------------------------------------------------------

def _coset_parts(w: AffineWeylElement
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]:
    """
    (mu, y, x) of w = x . t^mu . y (decompose_sw), with x = None for x = 1.
    A w with no finite left descent is its own minimal representative:
    decompose_sw would return x = 1, (mu, y) = (w.trans, w.perm), so they are
    read off w in O(n), with decompose_sw's dominance check and no sort or
    product.  Every other w goes through decompose_sw.  lp and x_w_nonempty
    call this once per element.
    """
    if is_min_coset_rep(w):
        mu, y = w
        if not W.is_dominant(mu):
            raise AssertionError(f"minimal coset representative not dominant: {w}")
        return mu, y, None
    dec = decompose_sw(w)
    return dec.mu, dec.y, dec.x


def _lp_table(w: AffineWeylElement) -> tuple[tuple[bool, ...], ...]:
    """
    The verdict table T of the defining inequality of LP(w) at a positive
    root (a, b), which only depends on the value pair (i, j) = (v(a), v(b)):
    T[i][j] iff <chi_(i,j), y^-1 mu> + delta+(chi_(i,j)) - delta+(p chi_(i,j))
    >= 0, p = xy = p(w).  So v lies in LP(w) iff T[v(a)][v(b)] for all a < b.
    It needs no decomposition: w = t^lam p with lam = x mu, so y^-1 mu =
    y^-1 x^-1 lam = p^-1 lam, whose entry i is lam(p(i)).
    """
    lam, p = w
    n = len(p)
    q = [lam[a] for a in p]                 # p^-1 lam = y^-1 mu
    out = []
    for i in range(n):
        qi, pi = q[i], p[i]
        out.append(tuple([qi - qj + (i < j) - (pi < pj) >= 0
                          for j, qj, pj in zip(range(n), q, p)]))
    return tuple(out)


def _must_not_precede(table: tuple[tuple[bool, ...], ...]) -> list[int]:
    """Per value i, the bit mask of the values j != i with not T[i][j]: the
    values that i may not precede in any v of LP(w)."""
    return [sum(1 << j for j, ok in enumerate(row) if not ok) & ~(1 << i)
            for i, row in enumerate(table)]


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
    bad = _must_not_precede(table)

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
    mu, y, x = _coset_parts(w)
    x = W.identity_perm(n) if x is None else x
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
    return LPData(phi_w=frozenset(phi), lp=frozenset(_linear_extensions(_lp_table(w))))


# ---------------------------------------------------------------------------
# non-emptiness and Coxeter witnesses
# ---------------------------------------------------------------------------

def _fixes_proper_prefix(q: tuple[int, ...]) -> bool:
    """Whether the permutation q maps some {0..k-1}, 0 < k < n, into itself:
    iff the running maximum of q(0), ..., q(k-1) is k - 1, as q is
    injective."""
    return any(top == k for k, top in enumerate(itertools.accumulate(q[:-1], max)))


def x_w_nonempty(w: AffineWeylElement, m: int) -> bool:
    """
    Whether the Iwahori-level stratum of w is non-empty for b = tau^m.

    Empty iff kappa(w) != m, or the sigma-support of w is the full affine
    diagram (the only case generating an infinite subgroup) while some
    v in LP(w) conjugates p = p(w) into a proper parabolic, i.e. v^-1 p v
    fixes a proper prefix {0..k-1} of positions (Goertz, He and Nie,
    P-alcoves and nonemptiness of affine Deligne-Lusztig varieties, 2015).
    Most calls are decided in O(n) by step 1 or 2; the rest by one O(n^2)
    pass over the verdict table, steps 3 and 4 (_nonempty_by_table).

    1. The sigma-support.  It is the closure of supp(u), u = w tau^-kappa
       the W_a part, under the rotation i -> i + kappa of {0..n-1}.  When
       gcd(kappa, n) = 1 that rotation is a single n-cycle, so the closure
       of a non-empty set is everything; and supp(u) is empty iff u = 1.
       So the sigma-support is empty when w = tau^kappa and full otherwise,
       decided by one comparison (tau^kappa has p(0) = kappa mod n, so only
       a w with that p(0) is compared in full).  Otherwise W.supp_sigma
       computes it.
    2. Two certificates, with the support full; w = x t^mu y as read by
       _coset_parts, which asserts that mu is dominant.
       * Non-empty if p is an n-cycle: every conjugate v^-1 p v is an
         n-cycle too, and an n-cycle maps no proper non-empty {0..k-1} into
         itself.
       * Empty if y x maps some {0..k-1}, 0 < k < n, into itself
         (_fixes_proper_prefix).  For v = y^-1, v^-1 p v = y (x y) y^-1 =
         y x, and y^-1 lies in LP(w): at a > 0 the defining inequality reads
         <a, mu> + delta+(y^-1 a) - delta+(x a) >= 0.  As mu is dominant,
         <a, mu> >= 0; if it is >= 1 the inequality holds, as the deltas
         are 0 or 1; if it is 0, t^mu y being minimal in its coset gives
         y^-1 a > 0, so delta+(y^-1 a) = 1 and it holds again.  For a
         minimal representative x = 1, so y x = p.
    3. The table.  v^-1 p v fixes a prefix iff the value set S = v({0..k-1})
       is p-stable, so the test runs over p's cycles: with T the verdict
       table of LP(w) (_lp_table), some v in LP(w) lists a proper non-empty
       union S of cycles first iff T[i][j] for every i in S and j outside
       S, since LP(w) is never empty (it holds y^-1, step 2).  Such an S
       exists iff the closure of some cycle under "A forces B when T[i][j]
       fails for some i in A, j in B" is proper.  One pass over the table
       sets, per cycle A, the bit mask of the cycles it forces.
    4. The closure.  Transitive closure of those masks on integers
       (Warshall's algorithm, one bit per cycle); the stratum is non-empty
       iff every cycle's closure is all of them.
    The tests compare this with _x_w_nonempty_scan_oracle, which computes
    the sigma-support with W.supp_sigma and conjugates p by every v in LP(w).
    """
    if W.kappa(w) != m:
        return False
    n = w.n
    p = w.perm
    if math.gcd(m, n) == 1:
        if p[0] == m % n and w == W.tau(n, m):
            return True
    elif len(W.supp_sigma(w)) < n:
        return True
    _, y, x = _coset_parts(w)
    label = W.cycle_labels(p)
    if not any(label):
        return True
    if _fixes_proper_prefix(y if x is None else W.compose(y, x)):
        return False
    return _nonempty_by_table(w, label)


def _nonempty_by_table(w: AffineWeylElement, label: tuple[int, ...]) -> bool:
    """
    Steps 3 and 4 of x_w_nonempty: its verdict on a w whose sigma-support is
    full, read off the verdict table alone, with no decomposition; label is
    W.cycle_labels(p(w)).  Exact on its own (steps 1 and 2 only save the
    table), so reduction.class_polynomial reads it at every tree node whose
    finite part is not an n-cycle.
    """
    forces = [0] * (max(label) + 1)
    for i, row in enumerate(_lp_table(w)):
        f = 0
        for j, ok in enumerate(row):
            if not ok:
                f |= 1 << label[j]
        forces[label[i]] |= f
    for b, fb in enumerate(forces):
        for a, fa in enumerate(forces):
            if fa >> b & 1:
                forces[a] = fa | fb
    full = (1 << len(forces)) - 1
    return all(f | 1 << a == full for a, f in enumerate(forces))


def condition_ii_witness(w: AffineWeylElement) -> tuple[int, ...] | None:
    """
    Some v in LP(w) with v^-1 p(w) v a Coxeter element, or None; the witness
    is the lexicographically smallest such v, so it is deterministic.

    Coxeter elements are n-cycles, so there is none unless p = p(w) is an
    n-cycle.  A Coxeter element of S_n, for the path s_1 - ... - s_(n-1), is
    an n-cycle whose cycle, read from 0, rises to n-1 and then falls; so
    v^-1 p v is one iff v(0), v(1), ... grow a contiguous arc of p's cycle,
    each next value being p(last end) or p^-1(first end).  The walk of
    _linear_extensions, restricted to those two ends, lists the v of LP(w)
    with that property; from each v(0) in increasing order, with the ends
    taken sorted, the first it reaches is the smallest.  The tests compare
    this with _condition_ii_witness_scan_oracle, which scans all of LP(w),
    and with condition_ii_witness_by_candidates, which tests the n
    conjugators of p into each of the 2^(n-2) Coxeter elements.
    """
    p = w.perm
    if not W.is_n_cycle(p):
        return None
    n = w.n
    bad = _must_not_precede(_lp_table(w))
    pinv = W.inverse_perm(p)

    def grow(prefix: tuple[int, ...], first: int, last: int, left: int
             ) -> Iterator[tuple[int, ...]]:
        if not left:
            yield prefix
            return
        for i in sorted({p[last], pinv[first]}):
            if not bad[i] & left:
                ends = (first, i) if i == p[last] else (i, last)
                yield from grow(prefix + (i,), *ends, left ^ 1 << i)

    full = (1 << n) - 1
    return next((v for start in range(n) if not bad[start]
                 for v in grow((start,), start, start, full ^ 1 << start)), None)
