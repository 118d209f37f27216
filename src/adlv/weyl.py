"""
The extended affine Weyl group of GL_n, as pairs (translation, permutation).

Conventions
-----------
* A permutation is a tuple ``p`` of length n with ``p[i]`` the image of ``i``
  (0-indexed).  Composition is right-to-left: ``compose(x, y)[i] = x[y[i]]``.
* A cocharacter is a tuple of n integers.  A permutation permutes positions:
  ``perm_on_cochar(p, lam)[p[i]] = lam[i]``.
* An element ``w = t^lam . p`` is stored as ``AffineWeylElement(trans=lam,
  perm=p)`` and acts on Z^n affinely by ``v -> lam + p.v``.  Multiplication is
  ``(lam1, p1)(lam2, p2) = (lam1 + p1.lam2, p1 p2)``.
* Simple reflections carry indices 0..n-1.  For ``1 <= i <= n-1``, ``s_i``
  swaps the (1-indexed) letters i and i+1, i.e. positions i-1 and i.  ``s_0``
  is the affine reflection ``t^(e_1 - e_n) . (1 n)``.
* ``tau = t^(e_1) . (1 2 ... n)`` generates the length-zero subgroup Omega;
  ``tau^n`` is translation by (1, ..., 1) and ``tau s_i tau^-1 = s_(i+1 mod n)``.
  Every element factors as (affine Weyl group part) . tau^kappa where
  ``kappa(w) = sum(trans)``.
* Roots chi_(i,j) with 1-indexed i != j pair with cocharacters by
  ``lam(i) - lam(j)``; positive means i < j.

The Frobenius acts trivially throughout (split group), so sigma-conjugation
is ordinary conjugation; functions that would twist by sigma simply do not
take a twist argument.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """Compose permutations right-to-left: (x y)(i) = x(y(i))."""
    return tuple(x[j] for j in y)


def inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def cycle_labels(p: Sequence[int]) -> tuple[int, ...]:
    """Per position, the index of its cycle under p, the cycles numbered
    0, 1, ... by least element."""
    label = [-1] * len(p)
    k = 0
    for i in range(len(p)):
        if label[i] < 0:
            j = i
            while label[j] < 0:
                label[j] = k
                j = p[j]
            k += 1
    return tuple(label)


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths in decreasing order."""
    return tuple(sorted(Counter(cycle_labels(p)).values(), reverse=True))


def is_n_cycle(p: Sequence[int]) -> bool:
    return not any(cycle_labels(p))


def conjugators(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All v with v^-1 a v == b, sorted, for two n-cycles a and b."""
    n = len(a)
    b = tuple(b)
    orbit = [0]
    while len(orbit) < n:
        orbit.append(b[orbit[-1]])
    out = []
    for t in range(n):
        v = [0] * n
        img = t
        for x in orbit:
            v[x] = img
            img = a[img]
        v = tuple(v)
        if not all(a[v[x]] == v[b[x]] for x in range(n)):      # a v == v b
            raise AssertionError("conjugator construction failed")
        out.append(v)
    return tuple(sorted(out))


def perm_on_cochar(p: Sequence[int], lam: Sequence[int]) -> tuple[int, ...]:
    """Permute positions: result[p[i]] = lam[i]."""
    out = [0] * len(p)
    for i, v in enumerate(lam):
        out[p[i]] = v
    return tuple(out)


def perm_word(p: Sequence[int]) -> tuple[int, ...]:
    """
    A reduced word (1-indexed simple-reflection indices) for a permutation,
    chosen by repeatedly taking the smallest left descent.
    """
    return inverse_perm_word(inverse_perm(p))


def inverse_perm_word(u: Sequence[int]) -> tuple[int, ...]:
    """
    perm_word(inverse_perm(u)), read straight off u: the scan of perm_word
    runs on p^-1, which for p = u^-1 is u itself.
    """
    inv = list(u)
    n = len(inv)
    word = []
    # s_i is a left descent of p iff p^-1(i-1) > p^-1(i) (left_descent), and
    # s_i . p swaps those two entries of p^-1.  No descent lies below i; a
    # swap at i leaves the pairs below i - 1 alone, so the scan goes on from
    # i - 1 and still finds the smallest descent each time.
    i = 1
    while i < n:
        if inv[i - 1] > inv[i]:
            word.append(i)
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            if i > 1:
                i -= 1
        else:
            i += 1
    return tuple(word)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

class AffineWeylElement(NamedTuple):
    trans: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.perm)


def identity(n: int) -> AffineWeylElement:
    return AffineWeylElement((0,) * n, identity_perm(n))


def from_translation(lam: Sequence[int]) -> AffineWeylElement:
    lam = tuple(lam)
    return AffineWeylElement(lam, identity_perm(len(lam)))


def from_perm(p: Sequence[int]) -> AffineWeylElement:
    p = tuple(p)
    return AffineWeylElement((0,) * len(p), p)


def simple_reflection(n: int, i: int) -> AffineWeylElement:
    """s_i for i in 0..n-1; s_0 is the affine one."""
    if i == 0:
        lam = [0] * n
        lam[0], lam[n - 1] = 1, -1
        return AffineWeylElement(tuple(lam), transposition(n, 0, n - 1))
    return from_perm(transposition(n, i - 1, i))


def tau(n: int, k: int = 1) -> AffineWeylElement:
    """tau^k, with tau = t^(e_1) . (i -> i+1 mod n)."""
    q, r = divmod(k, n)
    lam = [q + (1 if i < r else 0) for i in range(n)]
    p = tuple((i + k) % n for i in range(n))
    return AffineWeylElement(tuple(lam), p)


def mul(*ws: AffineWeylElement) -> AffineWeylElement:
    """Product of elements, left to right."""
    it = iter(ws)
    acc = next(it)
    for w in it:
        ta, pa = acc
        tb, pb = w
        t = list(ta)
        for i, v in enumerate(tb):
            t[pa[i]] += v
        acc = AffineWeylElement(tuple(t), tuple(pa[j] for j in pb))
    return acc


def kappa(w: AffineWeylElement) -> int:
    """The Omega-component: w lies in W_a . tau^kappa(w)."""
    return sum(w.trans)


def left_mul_simple(i: int, w: AffineWeylElement) -> AffineWeylElement:
    """s_i . w, in O(n)."""
    lam, p = w
    n = len(p)
    if i == 0:
        a, b = 0, n - 1
        t = list(lam)
        t[0], t[n - 1] = t[n - 1] + 1, t[0] - 1
    else:
        a, b = i - 1, i
        t = list(lam)
        t[a], t[b] = t[b], t[a]
    q = tuple(b if v == a else a if v == b else v for v in p)
    return AffineWeylElement(tuple(t), q)


def right_mul_simple(w: AffineWeylElement, i: int) -> AffineWeylElement:
    """w . s_i, in O(n)."""
    lam, p = w
    n = len(p)
    if i == 0:
        t = list(lam)
        t[p[0]] += 1
        t[p[n - 1]] -= 1
        q = list(p)
        q[0], q[n - 1] = q[n - 1], q[0]
    else:
        t = lam
        q = list(p)
        q[i - 1], q[i] = q[i], q[i - 1]
    return AffineWeylElement(tuple(t), tuple(q))


# ---------------------------------------------------------------------------
# length and descents
# ---------------------------------------------------------------------------

def length(w: AffineWeylElement) -> int:
    """
    Length of t^lam . p, as the sum over positive roots chi_(i,j) of
    |<chi, p^-1 lam> + 1| when p chi < 0 and |<chi, p^-1 lam>| when p chi > 0.
    """
    lam, p = w
    n = len(p)
    lamp = [lam[p[i]] for i in range(n)]
    total = 0
    for i in range(n):
        li, pi = lamp[i], p[i]
        for j in range(i + 1, n):
            d = li - lamp[j]
            if pi > p[j]:
                d += 1
            total += d if d >= 0 else -d
    return total


def left_descent(i: int, w: AffineWeylElement) -> bool:
    """
    Whether length(s_i . w) < length(w): with (a, b) = (i-1, i), or (n-1, 0)
    for i = 0, iff lam[b] - lam[a] + [p^-1 a > p^-1 b] >= 1, or >= 2 for
    i = 0.  O(1) but for locating a and b in p.  Its one caller in src is
    admissible.adm, the benchmark's reference route; is_min_coset_rep and
    reduction.find_reduction_step read the rule inline.
    """
    lam, p = w
    a, b, least = (len(p) - 1, 0, 2) if i == 0 else (i - 1, i, 1)
    return lam[b] - lam[a] + (p.index(a) > p.index(b)) >= least


# ---------------------------------------------------------------------------
# supports, tau-rotation, the duality automorphism
# ---------------------------------------------------------------------------

def supp_sigma(w: AffineWeylElement) -> frozenset[int]:
    """
    The smallest subset of {0..n-1} containing supp of the W_a part of w and
    stable under the index rotation i -> i + kappa(w) coming from conjugation
    by the Omega-part.  (The Frobenius itself acts trivially here.)

    With u = w . tau^-kappa(w), s_k lies in supp(u) iff u is outside
    W_(S - {s_k}) = tau^k W_0 tau^-k, i.e. iff tau^-k u tau^k has a non-zero
    translation part.  For u = t^lam p and tau^k = t^c p_k, c the indicator
    of the first k positions, that part is p_k^-1 (lam + p c - c), so no
    reduced word is needed.  The tests check this against the letters of a
    reduced word, peeled off by left descents (tests/oracles.py,
    reduced_word).
    """
    n = w.n
    k = kappa(w) % n
    lam, p = mul(w, tau(n, -kappa(w)))
    pinv = inverse_perm(p)
    closed = {j for j in range(n)
              if any(lam[i] + (pinv[i] < j) - (i < j) for i in range(n))}
    frontier = list(closed)
    while frontier:
        i = frontier.pop()
        j = (i + k) % n
        if j not in closed:
            closed.add(j)
            frontier.append(j)
    return frozenset(closed)


# ---------------------------------------------------------------------------
# cocharacter helpers
# ---------------------------------------------------------------------------

def is_dominant(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def two_rho_pairing(lam: Sequence[int]) -> int:
    """<lam, 2 rho> = sum_i lam[i] * (n - 1 - 2i) with 0-indexed i."""
    n = len(lam)
    return sum(v * (n - 1 - 2 * i) for i, v in enumerate(lam))


def dominant_below(mu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """
    The dominant nonnegative mu' below mu in dominance order with the same
    total, lazily and in increasing lexicographic order.  With r the total
    still to place, entry i runs from ceil(r / (n - i)), which leaves the
    non-increasing tail room for r, up to min(entry i - 1, r,
    mu_1 + ... + mu_(i+1) - prefix total), so every leaf has the full total.
    """
    n = len(mu)
    caps = tuple(accumulate(mu))

    def rec(prefix: tuple[int, ...], placed: int, hi: int):
        i = len(prefix)
        if i == n:
            yield prefix
            return
        r = caps[-1] - placed
        for v in range(-(-r // (n - i)), min(hi, r, caps[i] - placed) + 1):
            yield from rec(prefix + (v,), placed + v, v)

    return rec((), 0, sum(mu))


def rearrangements_under_slope(lam: Sequence[int]):
    """
    The distinct rearrangements of lam whose partial sums stay on or under
    the line of slope sum(lam)/n, n * (v_1 + ... + v_j) <= j * sum(lam) for
    every j, in lexicographic order: a walk over the multiset of lam's
    entries, smallest value first, that prunes each prefix that leaves the
    line.
    """
    n, total = len(lam), sum(lam)
    counts = {v: lam.count(v) for v in sorted(set(lam))}
    prefix: list[int] = []

    def rec(j: int, s: int):
        if j == n:
            yield tuple(prefix)
            return
        for v, left in counts.items():
            if n * (s + v) > (j + 1) * total:
                break                      # values ascend: every later v fails too
            if left:
                counts[v] -= 1
                prefix.append(v)
                yield from rec(j + 1, s + v)
                prefix.pop()
                counts[v] += 1

    return rec(0, 0)


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"t\[([^\]]*)\]|p\[([^\]]*)\]|s(\d+)|tau(?:\^(-?\d+))?")


def encode_element(w: AffineWeylElement) -> str:
    """Canonical text form t[lam1,...,lamn]*p[p(1),...,p(n)] (1-indexed images)."""
    lam, p = w
    ts = ",".join(str(v) for v in lam)
    ps = ",".join(str(v + 1) for v in p)
    return f"t[{ts}]*p[{ps}]"


def parse_element(text: str, n: int) -> AffineWeylElement:
    """
    Parse a '*'-separated product of tokens: t[...], p[...] (1-indexed
    images), s0..s(n-1), tau, tau^k.  Round-trips with encode_element.  At
    n = 1 every s<i> is refused: GL_1 has no simple affine reflection.
    """
    pos = 0
    acc = identity(n)
    stripped = text.replace(" ", "")
    while pos < len(stripped):
        if stripped[pos] == "*":
            pos += 1
            continue
        msearch = _TOKEN.match(stripped, pos)
        if not msearch:
            raise ValueError(f"cannot parse element at {stripped[pos:]!r}")
        tvals, pvals, sidx, taupow = msearch.groups()
        if tvals is not None:
            lam = tuple(int(v) for v in tvals.split(",")) if tvals else ()
            if len(lam) != n:
                raise ValueError(f"translation needs {n} entries: {tvals!r}")
            acc = mul(acc, from_translation(lam))
        elif pvals is not None:
            imgs = tuple(int(v) - 1 for v in pvals.split(",")) if pvals else ()
            if sorted(imgs) != list(range(n)):
                raise ValueError(f"not a permutation of 1..{n}: {pvals!r}")
            acc = mul(acc, from_perm(imgs))
        elif sidx is not None:
            i = int(sidx)
            if n == 1:
                raise ValueError(f"GL_1 has no simple affine reflection: s{i}")
            if not 0 <= i < n:
                raise ValueError(f"reflection index out of range: s{i}")
            acc = mul(acc, simple_reflection(n, i))
        else:
            acc = mul(acc, tau(n, int(taupow) if taupow is not None else 1))
        pos = msearch.end()
    return acc

