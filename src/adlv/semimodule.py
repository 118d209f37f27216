"""
Semi-modules and extended semi-modules for a pair of coprime integers (m, n).

A semi-module is a subset A of Z, bounded below, with m + A and n + A inside
A.  It is the union over residue classes r mod n of arithmetic progressions
abar_r + nN, so it is determined by the n class minima Abar = A \\ (n + A).
A is normalized when Abar sums to n(n-1)/2; writing abar_(i-1 mod n) =
(i-1) + lam(i) n defines the lambda-vector, and normalization means
sum(lam) = 0.  The type of A is the vector mu' with a_i = a_(i-1) + m -
mu'(i) n walking the m-step cycle on Abar from its minimum.  The types are
exactly the mu' in N^n summing to m whose partial sums stay under the line
of slope m/n, and each semi-module is built once, from its type, by that
walk (from_type, whose docstring proves the result needs no check); it
carries the type it was built from.

An extended semi-module for a dominant mu in N^n with sum(mu) = m (the
normalization mu(n) = 0 is conventional, not required) adds a multiplicity
function phi: A -> N with
  (1) phi = -infinity off A,
  (2) phi(a + n) >= phi(a) + 1,
  (3) phi(a) <= maxk(a) := max{k : a + m - k n in A}, with equality as soon
      as [a, oo) is contained in A (i.e. past the conductor), and
  (4) A decomposes into n disjoint increasing chains along which phi steps
      by one, a chain moving to a + n exactly when phi(a + n) = phi(a) + 1
      and otherwise jumping past it, with chain-start values a permutation
      of mu.
The pair is cyclic when (3) is an equality everywhere; equivalently the type
of A is a rearrangement of mu.  The dimension of the stratum attached to
(A, phi) is the size of

    V(A, phi) = {(a, c) : c > a, phi(a) > phi(c) > phi(a - n)}.

The cyclic pairs of top dimension are built directly from their types
(cyclic_top_strata, whose docstring proves that phi = maxk on a semi-module
of type mu' satisfies (1)-(4) exactly when mu' rearranges mu); the
dimension of each candidate is read off its type in O(n^2)
(_cyclic_pairs_below), and only a type of top dimension is built.  For the
rest, conditions (2)-(4) are decided once, by the level-by-level phi search
(_phi_assignments) of enumerate_extended, which lists every pair, cyclic
ones included.  The independent checker verify_extended
re-checks every pair either route builds, and a pair it rejects is an
error, not a filtered case.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import weyl as W


# ---------------------------------------------------------------------------
# semi-modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiModule:
    m: int
    n: int
    type: tuple[int, ...]           # mu', with a_i = a_(i-1) + m - mu'(i) n from min(Abar)
    lam: tuple[int, ...]            # lambda-vector; abar contains (i-1) + lam[i-1]*n
    abar: tuple[int, ...]           # sorted class minima
    class_min: tuple[int, ...]      # class_min[r] = min of A in residue r
    conductor: int                  # least a with [a, oo) contained in A

    def maxk(self, a: int) -> int:
        """max{k : a + m - k n in A}; requires a in A."""
        t = a + self.m
        return (t - self.class_min[t % self.n]) // self.n

    def elements(self, lo: int, hi: int) -> list[int]:
        """Elements of A in [lo, hi)."""
        return [a for a in range(lo, hi) if a >= self.class_min[a % self.n]]

    @functools.cached_property
    def tail_starts(self) -> tuple[tuple[int, int], ...]:
        """Per residue class r, (t, maxk(t)) for t the least element of the
        class at or past the conductor, the one in [conductor, conductor + n)."""
        c, n = self.conductor, self.n
        return tuple((t, self.maxk(t)) for t in (c + (r - c) % n for r in range(n)))


def lambda_b(m: int, n: int) -> tuple[int, ...]:
    """Entries floor(i m / n) - floor((i-1) m / n)."""
    return tuple((i * m) // n - ((i - 1) * m) // n for i in range(1, n + 1))


def from_type(mu_prime: tuple[int, ...]) -> SemiModule:
    """
    The normalized semi-module of type mu' in N^n, for m = sum(mu') coprime
    to n = len(mu') and mu' under the slope line: its partial sums
    S_j = mu'(1) + ... + mu'(j) satisfy n S_j <= j m.  One walk
    a_(j+1) = a_j + m - mu'(j+1) n fills class_min, lam, abar and the
    conductor, from a_0 = (n(n-1)/2 - sum_j (a_j - a_0)) / n, which is
    (1 - m)(n - 1)/2 + S_1 + ... + S_(n-1) as a_j - a_0 = j m - n S_j.

    Proof that the a_j are the class minima Abar of a normalized
    semi-module of type mu', so that no check of the result is needed:
      1. Residues are distinct: a_j = a_0 + j m (mod n), and gcd(m, n) = 1.
      2. a_0 is the minimum: a_j - a_0 = j m - n S_j >= 0 is the slope
         condition, strictly for 0 < j < n since n does not divide j m.
      3. Abar is stable under +m: a_j + m = a_(j+1) + mu'(j+1) n >= a_(j+1),
         the minimum of its class; the walk closes up at a_n = a_0 because
         S_n = m.  So m + A lies in A, as n + A does by construction.
      4. The normalization is integral: n a_0 = (1 - m) n(n-1)/2 + n (S_1 +
         ... + S_(n-1)), and n divides (1 - m) n(n-1)/2, since m is odd
         when n is even.  So sum(Abar) = n(n-1)/2 and sum(lam) = 0.
      5. The walk returns mu': Abar has one element per residue, so the
         first a_j + m - k n in Abar is a_(j+1), at k = mu'(j+1).
    """
    n, m = len(mu_prime), sum(mu_prime)
    a = (1 - m) * (n - 1) // 2 + sum(itertools.accumulate(mu_prime[:-1]))
    class_min, lam = [0] * n, [0] * n
    for v in mu_prime:
        r = a % n
        class_min[r] = a
        lam[r] = (a - r) // n
        a += m - v * n
    abar = tuple(sorted(class_min))
    return SemiModule(m=m, n=n, type=tuple(mu_prime), lam=tuple(lam), abar=abar,
                      class_min=tuple(class_min), conductor=abar[-1] - n + 1)


def _semimodules_below(mu: tuple[int, ...]) -> list[SemiModule]:
    """
    The normalized semi-modules whose type lies in the finite orbit of some
    dominant mu' below mu, for sum(mu) coprime to n = len(mu): each
    rearrangement of each such mu' whose reversal dominates the slope
    vector (m/n, ..., m/n), tested in integers as (m, ..., m) <=
    n * reversed(mu'), i.e. whose partial sums stay under the line of slope
    m/n (generated so, not filtered), built by from_type.
    """
    return [from_type(mu_prime) for mu_dom in W.dominant_below(mu)
            for mu_prime in W.rearrangements_under_slope(mu_dom)]


# ---------------------------------------------------------------------------
# extended semi-modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedSemiModule:
    base: SemiModule
    mu: tuple[int, ...]
    phi_free: tuple[tuple[int, int], ...]   # (a, phi(a)) for a in A below the conductor

    @functools.cached_property
    def is_cyclic(self) -> bool:
        return all(v == self.base.maxk(a) for a, v in self.phi_free)

    @functools.cached_property
    def dim(self) -> int:
        return len(v_set(self))

    def phi_window(self, scale: int = 1) -> tuple[tuple[int, int], ...]:
        """(a, phi(a)) for a in A below the reporting window's end, ascending."""
        return tuple(sorted(_phi_table(self, _window_end(self, scale)).items()))


def _window_end(ext: ExtendedSemiModule, scale: int = 1) -> int:
    base = ext.base
    top = max([v for _, v in ext.phi_free] + [v for _, v in base.tail_starts]
              + [max(ext.mu)])
    return base.conductor + base.n * (top + 2) * scale


def _check_end(ext: ExtendedSemiModule, scale: int = 1) -> int:
    """Where verify_extended's window ends (its docstring has the proof)."""
    return ext.base.conductor + 2 * ext.base.n * scale


def _phi_table(ext: ExtendedSemiModule, hi: int) -> dict[int, int]:
    """{a: phi(a)} for a in A below hi, walking each residue class: the free
    values below the conductor, then maxk, which grows by one per period.
    Each reader builds its own; .get gives None off A."""
    base = ext.base
    n = base.n
    free = dict(ext.phi_free)
    table = {}
    for r in range(n):
        a = base.class_min[r]
        while a < hi and a < base.conductor:
            table[a] = free[a]
            a += n
        v = base.maxk(a)
        while a < hi:
            table[a] = v
            a += n
            v += 1
    return table


def _checked_mu(mu: tuple[int, ...]) -> tuple[int, ...]:
    """mu as a tuple, once it is non-empty, dominant and nonnegative with
    total coprime to n = len(mu); otherwise ValueError."""
    mu = tuple(mu)
    if not mu:
        raise ValueError("mu must have at least one entry")
    if not W.is_dominant(mu) or mu[-1] < 0:
        raise ValueError(f"mu must be dominant with nonnegative entries: {mu}")
    if math.gcd(sum(mu), len(mu)) != 1:
        raise ValueError(f"sum(mu) must be coprime to n: {mu}")
    return mu


def _checked(sm: SemiModule, mu: tuple[int, ...], free: tuple[tuple[int, int], ...],
             dim: int) -> ExtendedSemiModule:
    """The extended semi-module (sm, free) for mu, once verify_extended
    accepts it and its v_set has the counted size dim; either failure raises,
    never filters."""
    ext = ExtendedSemiModule(base=sm, mu=mu, phi_free=free)
    if not verify_extended(ext):
        raise AssertionError(f"generator/checker disagreement at {sm.lam}, {free}")
    if ext.dim != dim:
        raise AssertionError(f"pair count and v_set disagree at {sm.lam}, {free}")
    return ext


def enumerate_extended(mu: tuple[int, ...]) -> tuple[ExtendedSemiModule, ...]:
    """
    All extended semi-modules for a dominant nonnegative mu with total
    coprime to n = len(mu), one per normalized semi-module and admissible
    phi.  The phi search decides conditions (2)-(4).  Each candidate gets its
    dimension P(mu) - Q(A, phi) by counting (_pairs_below); verify_extended
    re-checks every one and a rejection raises, never filters; so does a
    v_set of another size than the count.
    Deterministic order: (dim, lambda, phi).
    """
    mu = _checked_mu(mu)
    total = _pair_total(mu)
    out = [_checked(sm, mu, free, total - _pairs_below(sm, free))
           for sm in _semimodules_below(mu) for free in _phi_assignments(sm, mu)]
    return tuple(sorted(out, key=lambda e: (e.dim, e.base.lam, e.phi_free)))


def cyclic_top_strata(mu: tuple[int, ...]) -> tuple[ExtendedSemiModule, ...]:
    """
    The cyclic extended semi-modules of dimension dim X_mu, for mu as in
    enumerate_extended, built from their types without the phi search: one
    (from_type(mu'), maxk) per mu' in rearrangements_under_slope(mu) whose
    count P(mu) - Q(A, maxk), read off mu' by _cyclic_pairs_below, is
    dim X_mu.  Only a type counted at or above dim X_mu is built; it is
    checked as in enumerate_extended, its v_set against that count, and one
    above dim X_mu then raises.  Ordered by lambda.

    Proof that these are the e of enumerate_extended(mu) with e.is_cyclic
    and e.dim == dim X_mu, in the same order.  Let A have type mu', read
    along the walk a_0, ..., a_(n-1) around Abar, and let phi = maxk on A.
      1. maxk(a + n) = maxk(a) + 1 on A, so (2) holds with equality, and
         by (4) every chain moves to a + n at every step: the chains are the
         n residue classes.  They start at the a_j with the values
         maxk(a_j) = mu'(j+1), as the first a_j + m - k n in A is a_(j+1)
         (from_type, step 5).  (3) holds with equality, and maxk >= 0 on A
         since A + m lies in A.  So (A, maxk) satisfies (1)-(4) exactly when
         mu' is a rearrangement of mu.
      2. A cyclic pair has phi = maxk, so the cyclic extended semi-modules
         for mu are the (A, maxk) with the type of A a rearrangement of mu.
         The types are the mu' under the slope line, so these are the
         from_type(mu') for mu' in rearrangements_under_slope(mu), each A
         once.  Their free values are maxk on the elements below the
         conductor, as the search writes them (ascending in a).
      3. The phi search walks each of these A (mu' rearranges mu, which is
         dominant below mu, _semimodules_below) and returns every phi with
         (2)-(4), so its cyclic results are exactly these pairs.  Both
         routes give a pair the dimension P(mu) - Q(A, phi), checked
         against v_set (_cyclic_pairs_below is _pairs_below on these
         pairs), and the search orders one dimension by lambda, which
         differs between semi-modules.
    No stratum lies above dim X_mu, the dimension of the whole variety.
    """
    mu = _checked_mu(mu)
    m, n = sum(mu), len(mu)
    total, top = _pair_total(mu), dim_x_mu(mu)
    out = []
    for mu_prime in W.rearrangements_under_slope(mu):
        dim = total - _cyclic_pairs_below(mu_prime, m, n)
        if dim >= top:
            sm = from_type(mu_prime)
            free = tuple((a, sm.maxk(a)) for a in sm.elements(sm.abar[0], sm.conductor))
            out.append(_checked(sm, mu, free, dim))
            if dim > top:
                raise AssertionError(f"cyclic stratum above dim X_mu at {sm.lam}")
    return tuple(sorted(out, key=lambda e: e.base.lam))


def _cyclic_pairs_below(mu_prime: tuple[int, ...], m: int, n: int) -> int:
    """
    Q(A, maxk) of _pairs_below for A = from_type(mu'), read off the type in
    O(n^2) without building A.  With d_j = a_j - a_0 the offsets of
    from_type's walk (d_0 = 0, d_(j+1) = d_j + m - n mu'(j+1)),

        Q = sum over i, j with d_i < d_j of
            max(0, min(ceil((d_j - d_i) / n), mu'(j+1) - mu'(i+1))).

    Proof.  Q counts the (c, a) with c < a in A and phi(a - n) < phi(c) <
    phi(a).  maxk(a + n) = maxk(a) + 1 on A, so for a in A that is not a
    class minimum phi(a - n) = phi(a) - 1 and the gap is empty.  For the
    class minimum a_j, phi(a_j - n) = -infinity and phi(a_j) = mu'(j+1)
    (from_type, step 5), so the c are the a_i + t n with t >= 0, a_i + t n
    < a_j and phi(a_i + t n) = mu'(i+1) + t < mu'(j+1): t below both
    ceil((a_j - a_i) / n) and mu'(j+1) - mu'(i+1).  Each a_j lies below
    conductor + n, inside _pairs_below's range, and i = j, or any i with
    d_i > d_j, contributes no t.  The d_j are distinct mod n (from_type,
    step 1), so ceil((d_j - d_i) / n) = (d_j - d_i - 1) // n + 1.
    """
    walk = []
    d = 0
    for v in mu_prime:
        walk.append((d, v))
        d += m - n * v
    walk.sort()
    q = 0
    for j, (dj, vj) in enumerate(walk):
        for di, vi in walk[:j]:
            if vi < vj:
                t = (dj - di - 1) // n + 1
                q += t if t < vj - vi else vj - vi
    return q


def _phi_assignments(sm: SemiModule, mu: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """
    Level-by-level enumeration of phi on the free region (below the
    conductor), subject to the cap phi(a) <= maxk(a), strict increase along
    each residue class, the forced level-set sizes #{phi = f} =
    #{i : mu(i) <= f} coming from the chain decomposition, and, once level f
    is chosen, the chain matching of the jumps at f - 1 into the loose
    elements at f (see _level_matches).
    """
    n = sm.n
    tail = [t for t, _ in sm.tail_starts]
    base_val = [v for _, v in sm.tail_starts]
    fmax = max(base_val + [max(mu)])
    # need[f] = #{i : mu(i) <= f} - #{tail starts with value <= f}
    step = [0] * (fmax + 1)
    for v in mu:
        step[v] += 1
    for b in base_val:
        step[b] -= 1
    need = list(itertools.accumulate(step))
    if min(need) < 0:
        return []
    # free elements per class, ascending, and their caps, which rise by one
    # per period (maxk(a + n) = maxk(a) + 1): a class whose next cap is f
    # must take level f, or it can never be finished
    freeby = [list(range(sm.class_min[r], sm.conductor, n)) for r in range(n)]
    if sum(need) != sum(len(e) for e in freeby):
        return []
    caps = [[sm.maxk(a) for a in els] for els in freeby]

    # state: per class, index of next unassigned element and the value of the
    # last assigned one (-2 before the first, so a class minimum is loose)
    nxt = [0] * n
    last = [-2] * n
    chosen: list[tuple[int, int]] = []
    out: list[tuple[tuple[int, int], ...]] = []
    tail_at: dict[int, list[int]] = {}
    for r in range(n):
        tail_at.setdefault(base_val[r], []).append(r)

    def rec(f: int) -> None:
        if f > fmax:
            out.append(tuple(sorted(chosen)))
            return
        # unfinished classes; no next cap is below f, as the one at f - 1 was
        # taken then and caps rise by one
        must, may = [], []
        for r in range(n):
            i = nxt[r]
            if i < len(caps[r]):
                (must if caps[r][i] == f else may).append(r)
        if len(must) > need[f]:
            return
        # jumps at f - 1 and loose elements at f that do not depend on the
        # pick: finished classes stepping into a tail start not at f, and
        # tail starts at f with no predecessor at f - 1
        fixed_jumps = [freeby[r][-1] for r in range(n)
                       if last[r] == f - 1 and nxt[r] == len(freeby[r])
                       and base_val[r] != f]
        fixed_loose = [tail[r] for r in tail_at.get(f, ()) if last[r] < f - 1]
        stay = [r for r in must + may if last[r] == f - 1]
        for extra in itertools.combinations(may, need[f] - len(must)):
            pick = must + list(extra)
            jumps = fixed_jumps + [freeby[r][nxt[r] - 1] for r in stay if r not in pick]
            if jumps:
                loose = fixed_loose + [freeby[r][nxt[r]] for r in pick if last[r] < f - 1]
                if not _level_matches(jumps, loose, n):
                    continue
            saved = [last[r] for r in pick]
            for r in pick:
                chosen.append((freeby[r][nxt[r]], f))
                nxt[r] += 1
                last[r] = f
            rec(f + 1)
            for r, v in zip(pick, saved):
                nxt[r] -= 1
                last[r] = v
                chosen.pop()

    rec(0)
    return out


def _level_matches(jumps: list[int], loose: list[int], n: int) -> bool:
    """
    Whether the jumps at one level match injectively into the loose elements
    one level up, a jump a only to a target beyond a + n.  The targets of the
    k largest jumps are nested, so by Hall's theorem a matching exists iff,
    both sorted descending, loose[k] > jumps[k] + n for every k.
    """
    if len(jumps) > len(loose):
        return False
    jumps = sorted(jumps, reverse=True)
    loose = sorted(loose, reverse=True)
    return all(t > a + n for a, t in zip(jumps, loose))


def verify_extended(ext: ExtendedSemiModule, scale: int = 1) -> bool:
    """
    Re-check conditions (1)-(4) on a finite window, independently of the
    enumerator: (2) and (3) pointwise on the free values, and (4) by
    explicitly building a chain decomposition by backtracking over the
    window.  Past the conductor phi is maxk by definition, and on A maxk is
    nonnegative with maxk(a + n) = maxk(a) + 1, so (1)-(3) hold there
    identically; a free a with a + n past the conductor is still read
    against phi(a + n) = maxk(a + n).

    The window ends at conductor + 2n * scale, and the verdict is the same
    at every scale.  From conductor + n on, phi(a) = phi(a - n) + 1, so the
    chain ending at a - n cannot jump and a is forced onto it (a jump from
    a - n lands past a).  So every choice, and every jump target, lies
    below conductor + n, inside every window, which reaches at least one
    period further.  A wider window only adds forced placements, and the
    final check reads phi one period past the window, so a chain ending
    below the conductor once the choices are made fails it at every scale,
    one past it at none.  The argument holds for any window end from
    conductor + 2n on, so the verdict is also the one at _window_end, the
    end of the printed window.
    """
    base = ext.base
    n = base.n
    hi = _check_end(ext, scale)
    window = base.elements(base.abar[0], hi)
    phi = _phi_table(ext, hi + n)

    for a, v in ext.phi_free:
        if v < 0 or phi[a + n] < v + 1 or v > base.maxk(a):
            return False

    mu_sorted = sorted(ext.mu)

    # chains: list of (last element, value); process window ascending
    def rec(idx: int, chains: list[tuple[int, int]], starts: list[int]) -> bool:
        # a chain whose last element is a - n and whose phi steps by one is
        # forced onto a: no other placement of a is legal, so forced
        # placements are made in a loop, and undone if the rest fails
        forced = []
        while idx < len(window):
            a = window[idx]
            v = phi[a]
            for i, (last, lv) in enumerate(chains):
                if last + n == a and lv + 1 == v:
                    forced.append((i, last, lv))
                    chains[i] = (a, v)
                    idx += 1
                    break
            else:
                break
        if idx == len(window):
            # every open chain must continue forced (by +n steps) forever
            if sorted(starts) == mu_sorted and \
                    all(phi.get(a + n) == v + 1 for a, v in chains):
                return True
        else:
            # a extends some jumping chain, or opens a new one
            for i, (last, lv) in enumerate(chains):
                if lv + 1 == v and a > last + n and phi.get(last + n) != lv + 1:
                    chains[i] = (a, v)
                    if rec(idx + 1, chains, starts):
                        return True
                    chains[i] = (last, lv)
            # starts only takes values mu has left, so stays inside mu
            if len(chains) < n and starts.count(v) < mu_sorted.count(v):
                chains.append((a, v))
                starts.append(v)
                if rec(idx + 1, chains, starts):
                    return True
                chains.pop()
                starts.pop()
        for i, last, lv in reversed(forced):
            chains[i] = (last, lv)
        return False

    return rec(0, [], [])


# ---------------------------------------------------------------------------
# the pair set V(A, phi) and dimensions
# ---------------------------------------------------------------------------

def v_set(ext: ExtendedSemiModule) -> frozenset[tuple[int, int]]:
    """
    {(a, c) : c > a, phi(a) > phi(c) > phi(a - n)}.  Finite: past the
    conductor phi steps by exactly one along each class, so a is confined to
    a window and c to the elements of bounded value; we also assert that one
    extra period contributes nothing.
    """
    base = ext.base
    n = base.n
    lo = base.abar[0]
    a_hi = base.conductor + n
    a_window = base.elements(lo, a_hi + n)
    phi = _phi_table(ext, a_hi + n)
    top = max(phi[a] for a in a_window)

    by_value: dict[int, list[int]] = {}
    for r in range(n):
        a = base.class_min[r]
        v = phi[a]
        while v < top:
            by_value.setdefault(v, []).append(a)
            a += n
            # past the conductor phi steps by one along the class
            v = phi[a] if a < a_hi else v + 1

    pairs = set()
    for a in a_window:
        va = phi[a]
        below = phi.get(a - n)
        floor = below if below is not None else -1
        found = [(a, c) for v in range(floor + 1, va)
                 for c in by_value.get(v, ()) if c > a]
        if a >= a_hi and found:
            raise AssertionError("pair found beyond the stable window")
        pairs.update(found)
    return frozenset(pairs)


def _pair_total(mu: tuple[int, ...]) -> int:
    """P(mu) = sum over v < mu(1) of L_v (n - L_v), L_v = #{i : mu(i) <= v}."""
    n = len(mu)
    counts = (sum(1 for x in mu if x <= v) for v in range(max(mu)))
    return sum(c * (n - c) for c in counts)


def _pairs_below(sm: SemiModule, phi_free: tuple[tuple[int, int], ...]) -> int:
    """
    Q(A, phi) = #{(c, a) : c < a < conductor + n, phi(a - n) < phi(c) < phi(a)},
    with phi(a - n) = -infinity off A, for phi given on the free region.
    Then dim = |V(A, phi)| = P(mu) - Q(A, phi) (see _pair_total).

    Proof.  By (4) each value v is taken by exactly L_v elements of A, one
    on each chain starting at or below v, and by (2) at most once per
    residue class.  So the c with phi(a - n) < phi(c) < phi(a), on either
    side of a, number the sum of L_v over the values v in that gap.  Along
    one residue class the gaps tile the values the class never takes, so
    summed over all a they give sum_v L_v (n - L_v) = P(mu), as n - L_v
    classes miss v and L_v = n from v = mu(1) on.  V counts the pairs with
    c > a, Q those with c < a.  From conductor + n on phi(a - n) = phi(a) - 1
    and the gap is empty, so Q reads only the free values and the class
    elements in [conductor, conductor + n).
    """
    n = sm.n
    phi = dict(phi_free)
    phi.update(sm.tail_starts)
    below = [0] * (max(phi.values()) + 1)   # values of the c < a seen so far
    q = 0
    for a in sorted(phi):
        v = phi[a]
        q += sum(below[phi.get(a - n, -1) + 1:v])
        below[v] += 1
    return q


def dim_x_mu(mu: tuple[int, ...]) -> int:
    """
    <rho, mu - nu_b> - (n-1)/2 for n = len(mu), with the defect of a
    superbasic element being n - 1.  The slope term vanishes against rho,
    leaving <rho, mu> - (n-1)/2; integrality is asserted rather than assumed.
    """
    n = len(mu)
    m = sum(mu)
    if math.gcd(m, n) != 1:
        raise ValueError("sum(mu) must be coprime to n")
    num = W.two_rho_pairing(mu) - (n - 1)
    if num % 2 != 0:
        raise AssertionError(f"dimension is not an integer for {mu}")
    return num // 2
