"""
Semi-modules and extended semi-modules for a pair of coprime integers (m, n).

A semi-module is a subset A of Z, bounded below, with m + A and n + A inside
A.  It is the union over residue classes r mod n of arithmetic progressions
abar_r + nN, so it is determined by the n class minima Abar = A \\ (n + A).
A is normalized when Abar sums to n(n-1)/2; writing abar_(i-1 mod n) =
(i-1) + lam(i) n defines the lambda-vector, and normalization means
sum(lam) = 0.  The type of A is the vector mu' with a_i = a_(i-1) + m -
mu'(i) n walking the m-step cycle on Abar from its minimum.

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

Conditions (2)-(4) are decided once, by the level-by-level phi search
(_phi_assignments); the independent checker verify_extended re-checks every
candidate, and a candidate it rejects is an error, not a filtered case.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import weyl as W


# ---------------------------------------------------------------------------
# semi-modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiModule:
    m: int
    n: int
    lam: tuple[int, ...]            # lambda-vector; abar contains (i-1) + lam[i-1]*n
    abar: tuple[int, ...]           # sorted class minima
    class_min: tuple[int, ...]      # class_min[r] = min of A in residue r
    conductor: int                  # least a with [a, oo) contained in A

    def contains(self, a: int) -> bool:
        return a >= self.class_min[a % self.n]

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


def _assemble(m: int, n: int, lam: tuple[int, ...]) -> SemiModule | None:
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
    conductor = abar[-1] - n + 1
    return SemiModule(m=m, n=n, lam=tuple(lam), abar=abar,
                      class_min=tuple(class_min), conductor=conductor)


def lambda_of_abar(abar: tuple[int, ...], n: int) -> tuple[int, ...]:
    lam = [0] * n
    for a in abar:
        r = a % n
        lam[r] = (a - r) // n
    return tuple(lam)


def type_of(sm: SemiModule) -> tuple[int, ...]:
    """
    The type mu' of A: walk a_i = a_(i-1) + m - mu'(i) n around Abar starting
    from its minimum; the steps mu'(i) are the type.
    """
    m, n = sm.m, sm.n
    abar_set = set(sm.abar)
    a = sm.abar[0]
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
    if a != sm.abar[0] or set(seen[:-1]) != abar_set:
        raise AssertionError(f"type walk did not close up on {sm.abar}")
    return tuple(mu)


def lambda_b(m: int, n: int) -> tuple[int, ...]:
    """Entries floor(i m / n) - floor((i-1) m / n)."""
    return tuple((i * m) // n - ((i - 1) * m) // n for i in range(1, n + 1))


def valid_type(mu_prime: tuple[int, ...], m: int, n: int) -> SemiModule | None:
    """
    Reconstruct the normalized semi-module of a candidate type, or None.
    A candidate is a vector in N^n summing to m; it is realized exactly when
    the reversed vector dominates the slope vector (m/n, ..., m/n), which is
    re-verified here structurally rather than assumed.
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
    lam = lambda_of_abar(tuple(sorted(abar)), n)
    sm = _assemble(m, n, lam)
    if sm is None:
        return None
    if type_of(sm) != tuple(mu_prime):
        return None
    return sm


def _semimodules_below(mu: tuple[int, ...]) -> list[SemiModule]:
    """
    The normalized semi-modules whose type lies in the finite orbit of some
    dominant mu' below mu: each rearrangement of each such mu' whose reversal
    dominates the slope vector (m/n, ..., m/n), tested in integers as
    (m, ..., m) <= n * reversed(mu'), i.e. whose partial sums stay under the
    line of slope m/n (generated so, not filtered).  Every such type is
    realized.
    """
    n, m = len(mu), sum(mu)
    out = []
    for mu_dom in W.dominant_below(mu):
        for mu_prime in W.rearrangements_under_slope(mu_dom):
            sm = valid_type(mu_prime, m, n)
            if sm is None:
                raise AssertionError(f"dominated type failed to assemble: {mu_prime}")
            out.append(sm)
    return out


# ---------------------------------------------------------------------------
# extended semi-modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedSemiModule:
    base: SemiModule
    mu: tuple[int, ...]
    phi_free: tuple[tuple[int, int], ...]   # (a, phi(a)) for a in A below the conductor

    @functools.cached_property
    def _free(self) -> dict[int, int]:
        return dict(self.phi_free)

    def phi(self, a: int) -> int | None:
        """phi(a), or None off A (standing in for -infinity)."""
        base = self.base
        if not base.contains(a):
            return None
        if a >= base.conductor:
            return base.maxk(a)
        return self._free[a]

    @functools.cached_property
    def phi_table(self) -> dict[int, int]:
        """phi on A below the scale-1 window end plus one period: every point
        verify_extended (at scale 1) and v_set read.  Read with .get, which
        gives None off A."""
        return _phi_table(self, _window_end(self) + self.base.n)

    @functools.cached_property
    def is_cyclic(self) -> bool:
        return all(v == self.base.maxk(a) for a, v in self.phi_free)

    @functools.cached_property
    def dim(self) -> int:
        return len(v_set(self))

    def phi_window(self, scale: int = 1) -> tuple[tuple[int, int], ...]:
        """phi tabulated on the standard reporting window."""
        base = self.base
        hi = _window_end(self, scale)
        return tuple((a, self.phi(a)) for a in base.elements(base.abar[0], hi))


def _window_end(ext: ExtendedSemiModule, scale: int = 1) -> int:
    base = ext.base
    top = max([v for _, v in ext.phi_free] + [v for _, v in base.tail_starts]
              + [max(ext.mu)])
    return base.conductor + base.n * (top + 2) * scale


def _phi_table(ext: ExtendedSemiModule, hi: int) -> dict[int, int]:
    """{a: phi(a)} for a in A below hi, walking each residue class: the free
    values below the conductor, then maxk, which grows by one per period."""
    base = ext.base
    n = base.n
    free = ext._free
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


def enumerate_extended(mu: tuple[int, ...],
                       window_scale: int = 1) -> tuple[ExtendedSemiModule, ...]:
    """
    All extended semi-modules for a dominant nonnegative mu with total
    coprime to n = len(mu), one per normalized semi-module and admissible
    phi.  The phi search decides conditions (2)-(4); verify_extended
    re-checks every candidate it yields and a rejection raises, never
    filters.  Deterministic order: (dim, lambda, phi).
    """
    import math

    mu = tuple(mu)
    n = len(mu)
    if not W.is_dominant(mu) or mu[-1] < 0:
        raise ValueError(f"mu must be dominant with nonnegative entries: {mu}")
    m = sum(mu)
    if math.gcd(m, n) != 1:
        raise ValueError(f"sum(mu) must be coprime to n: {mu}")
    out = []
    for sm in _semimodules_below(mu):
        for free in _phi_assignments(sm, mu):
            ext = ExtendedSemiModule(base=sm, mu=mu, phi_free=free)
            if not verify_extended(ext, scale=window_scale):
                raise AssertionError(
                    f"generator/checker disagreement at {sm.lam}, {free}")
            out.append(ext)
    return tuple(sorted(out, key=lambda e: (e.dim, e.base.lam, e.phi_free)))


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
    enumerator: (2) and (3) pointwise, and (4) by explicitly building a chain
    decomposition by backtracking over the window.
    """
    base = ext.base
    n = base.n
    hi = _window_end(ext, scale)
    window = base.elements(base.abar[0], hi)
    phi = ext.phi_table if scale == 1 else _phi_table(ext, hi + n)

    for a in window:
        v = phi.get(a)
        if v is None or v < 0:
            return False
        up = phi.get(a + n)
        if up is None or up < v + 1:
            return False
        cap = base.maxk(a)
        if v > cap or (a >= base.conductor and v != cap):
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
            if len(chains) < n and v in _remaining(mu_sorted, starts):
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


def _remaining(mu_sorted: list[int], starts: list[int]) -> set[int]:
    pool = list(mu_sorted)
    for s in starts:
        if s in pool:
            pool.remove(s)
        else:
            return set()
    return set(pool)


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
    phi = ext.phi_table
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


def dim_x_mu(mu: tuple[int, ...]) -> int:
    """
    <rho, mu - nu_b> - (n-1)/2 for n = len(mu), with the defect of a
    superbasic element being n - 1.  The slope term vanishes against rho,
    leaving <rho, mu> - (n-1)/2; integrality is asserted rather than assumed.
    """
    import math

    n = len(mu)
    m = sum(mu)
    if math.gcd(m, n) != 1:
        raise ValueError("sum(mu) must be coprime to n")
    num = W.two_rho_pairing(mu) - (n - 1)
    if num % 2 != 0:
        raise AssertionError(f"dimension is not an integer for {mu}")
    return num // 2
