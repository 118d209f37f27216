"""
The GL_n crystal of semi-standard Young tableaux, and the construction
attaching to each tableau of weight lambda_b a top stratum datum: a Coxeter
element, a family of conjugators, a normalized coweight family, and a
cyclicity invariant.

A tableau is a tuple of row tuples, rows weakly increasing, columns strictly
increasing, entries in 1..n: the form enumerate_weight_space lists and
ConstructionData.b keeps.  The crystal operators act on its Far-Eastern
reading word (columns right to left, each top to bottom), one flat tuple
whose columns are contiguous slices; reading_word turns a tableau into it,
checking the tableau in full.  The signature rule marks entries i by '+'
and i+1 by '-' and cancels adjacent "+-" pairs; raising flips the rightmost
surviving '-' and lowering the leftmost surviving '+'.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import weyl as W
from . import semimodule as SM

Tableau = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# the reading word
# ---------------------------------------------------------------------------

def shape(t: Tableau) -> tuple[int, ...]:
    return tuple(len(row) for row in t)


def shape_of_mu(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for v in mu if v > 0)


class Geometry(NamedTuple):
    """What the reading word of one shape needs, built once per shape."""
    cells: tuple[tuple[int, int], ...]     # (row, column) of each reading index
    factor: tuple[int, ...]                # each index's Far-Eastern factor, 0 the rightmost
    # the indices of the left, upper, right and lower neighbour box, -1 where
    # there is none: an entry is >= its left and > its upper neighbour, and
    # <= its right and < its lower one
    neighbours: tuple[tuple[int, int, int, int], ...]
    slices: tuple[slice, ...]              # the indices of each Far-Eastern factor


@functools.lru_cache(maxsize=8)
def geometry(sh: tuple[int, ...]) -> Geometry:
    """The reading word's geometry for the partition sh: columns right to
    left, each top to bottom, so column c holds indices start..start+h-1.
    Callers work one shape at a time, so a few entries serve a sweep over
    thousands of shapes without keeping one geometry per shape."""
    d = sh[0] if sh else 0
    cells = tuple((r, c) for c in range(d - 1, -1, -1)
                  for r, k in enumerate(sh) if c < k)
    index = {cell: k for k, cell in enumerate(cells)}
    neighbours = tuple(tuple(index.get(cell, -1) for cell in
                             ((r, c - 1), (r - 1, c), (r, c + 1), (r + 1, c)))
                       for r, c in cells)
    starts = [k for k, (r, _) in enumerate(cells) if r == 0] + [len(cells)]
    return Geometry(cells=cells, factor=tuple(d - 1 - c for _, c in cells),
                    neighbours=neighbours,
                    slices=tuple(slice(a, b) for a, b in zip(starts, starts[1:])))


def reading_word(t: Tableau, n: int) -> Word:
    """
    The Far-Eastern reading word of t, after checking in full that t is
    semi-standard with entries in 1..n: its rows weakly decrease in length,
    and every entry lies in 1..n and is <= its right and < its lower
    neighbour.  The kernel below keeps that property step by step (see
    _flip), so this is the one full check a word gets.
    """
    sh = shape(t)
    if any(a < b for a, b in zip(sh, sh[1:])):
        raise ValueError(f"not a tableau: row lengths {sh} increase")
    geo = geometry(sh)
    word = tuple(t[r][c] for r, c in geo.cells)
    for v, (_, _, right, down) in zip(word, geo.neighbours):
        if not (1 <= v <= n and (right < 0 or v <= word[right])
                and (down < 0 or v < word[down])):
            raise ValueError(f"not a semi-standard tableau with entries in 1..{n}: {t}")
    return word


def weight(word: Word, n: int) -> tuple[int, ...]:
    wt = [0] * n
    for v in word:
        wt[v - 1] += 1
    return tuple(wt)


# ---------------------------------------------------------------------------
# signature rule
# ---------------------------------------------------------------------------

def _flip(word: Word, i: int, raising: bool, geo: Geometry, n: int
          ) -> tuple[Word, int]:
    """
    One signature pass for the letter i: e_i (raising) flips the rightmost
    unmatched i+1 down to i, f_i the leftmost unmatched i up to i+1.
    Returns the new word and the index flipped.

    The new entry is checked against n and its <= 4 neighbours only.  That
    is the full semi-standard check whenever word is semi-standard: being
    semi-standard is the conjunction of "1 <= entry <= n" per box and of
    one inequality per pair of row- or column-adjacent boxes (a weakly
    increasing row, a strictly increasing column, is a chain of adjacent
    comparisons), and the shape is not changed.  A flip changes one box, so
    the only conjuncts it can falsify are that box's bound and its
    comparisons with its neighbours.
    """
    plus: list[int] = []
    last_minus = -1
    j = i + 1
    for k, v in enumerate(word):
        if v == i:
            plus.append(k)
        elif v == j:
            if plus:
                plus.pop()
            else:
                last_minus = k
    if raising:
        k, v = last_minus, i
    else:
        k, v = (plus[0] if plus else -1), j
    if k < 0:
        raise AssertionError("Weyl action fell off the crystal")
    left, up, right, down = geo.neighbours[k]
    if not (1 <= v <= n and (left < 0 or word[left] <= v) and (up < 0 or word[up] < v)
            and (right < 0 or v <= word[right]) and (down < 0 or v < word[down])):
        raise AssertionError(f"s_{i} broke semistandardness at index {k} of {word}")
    return word[:k] + (v,) + word[k + 1:], k


def epsilons(word: Word, n: int) -> list[int]:
    """[epsilon(i, t) for i in 1..n-1] from one pass of the reading word: an
    entry v is a '+' for i = v and a '-' for i = v - 1."""
    plus = [0] * (n + 1)
    eps = [0] * (n + 1)
    for v in word:
        plus[v] += 1
        if plus[v - 1]:
            plus[v - 1] -= 1
        else:
            eps[v - 1] += 1
    return eps[1:n]


# ---------------------------------------------------------------------------
# Weyl action and conjugates
# ---------------------------------------------------------------------------

def weyl_act(p: tuple[int, ...], word: Word, sh: tuple[int, ...], n: int,
             memo: dict[tuple[int, Word], Word] | None = None) -> Word:
    """
    Action of a permutation on the reading word of a tableau of shape sh;
    independent of the chosen reduced word.  It reads W.perm_word(p) and the
    word's weight, and acts by _act_letters.
    """
    return _act_letters(W.perm_word(p), word, weight(word, n), sh, n, memo)


def _act_letters(letters: tuple[int, ...], word: Word, wt: tuple[int, ...],
                 sh: tuple[int, ...], n: int,
                 memo: dict[tuple[int, Word], Word] | None = None) -> Word:
    """
    s_(letters[0]) ... s_(letters[-1]) acting on a reading word of weight wt
    and shape sh, the last letter first.  The weight is carried along the
    word: s_i is f_i^k for k = wt(i) - wt(i+1) >= 0 and e_i^-k otherwise, so
    a letter with wt(i) = wt(i+1) is the identity and costs nothing.  A memo
    (i, word) -> s_i word, which the caller owns, shares the other steps
    between calls.
    """
    if memo is None:
        memo = {}
    geo = geometry(sh)
    wt = list(wt)
    for i in reversed(letters):
        k = wt[i - 1] - wt[i]
        if not k:
            continue
        key = (i, word)
        out = memo.get(key)
        if out is None:
            out = word
            for _ in range(abs(k)):
                out = _flip(out, i, k < 0, geo, n)[0]
            memo[key] = out
        word = out
        wt[i - 1], wt[i] = wt[i], wt[i - 1]
    return word


def conjugate_to_weight(word: Word, target: tuple[int, ...], sh: tuple[int, ...],
                        n: int) -> Word:
    """The conjugate of the word with the given (rearranged) weight."""
    wt = weight(word, n)
    if sorted(wt) != sorted(target):
        raise ValueError(f"{target} is not a rearrangement of {wt}")
    return weyl_act(_matching_perm(wt, target), word, sh, n)


def _matching_perm(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
    """Some p with perm_on_cochar(p, src) == dst."""
    n = len(src)
    slots: dict[int, list[int]] = {}
    for j in range(n - 1, -1, -1):
        slots.setdefault(dst[j], []).append(j)
    p = [0] * n
    for i, v in enumerate(src):
        p[i] = slots[v].pop()
    return tuple(p)


# ---------------------------------------------------------------------------
# weight space enumeration
# ---------------------------------------------------------------------------

def _strips(sh: tuple[int, ...], size: int, r: int = 0):
    """The shapes nu, as long as sh, with sh/nu a horizontal strip of `size`
    boxes: sh(r+1) <= nu(r) <= sh(r) and |sh| - |nu| = size."""
    if r == len(sh):
        if size == 0:
            yield ()
        return
    lo = sh[r + 1] if r + 1 < len(sh) else 0
    for take in range(min(size, sh[r] - lo) + 1):
        for rest in _strips(sh, size - take, r + 1):
            yield (sh[r] - take,) + rest


def enumerate_weight_space(mu: tuple[int, ...], content: tuple[int, ...]
                           ) -> tuple[Tableau, ...]:
    """
    All semi-standard tableaux of shape mu with the given content, entries
    in 1..len(content), sorted.  The boxes holding the largest entry k form
    a horizontal strip sh/nu, appended at the row ends of a filling of nu
    with entries below k: the peel weight_space_size counts by, with the
    fillings memoized on (nu, k).
    """
    @functools.lru_cache(maxsize=None)
    def fillings(sh: tuple[int, ...], k: int) -> tuple[Tableau, ...]:
        if k == 0:
            return () if any(sh) else (((),) * len(sh),)
        return tuple(tuple(row + (k,) * (s - len(row)) for row, s in zip(t, sh))
                     for nu in _strips(sh, content[k - 1])
                     for t in fillings(nu, k - 1))

    return tuple(sorted(fillings(shape_of_mu(mu), len(content))))


def weight_space_size(mu: tuple[int, ...], content: tuple[int, ...]) -> int:
    """
    The Kostka number K(mu, content): how many tableaux
    enumerate_weight_space(mu, content) lists, counted without building any.
    By the same peel, K(sh, c_1..c_k) is the sum of K(nu, c_1..c_(k-1))
    over the nu with sh/nu a horizontal strip of c_k boxes, memoized on
    (nu, k).
    """
    @functools.lru_cache(maxsize=None)
    def count(sh: tuple[int, ...], k: int) -> int:
        if k == 0:
            return int(not any(sh))
        return sum(count(nu, k - 1) for nu in _strips(sh, content[k - 1]))

    return count(shape_of_mu(mu), len(content))


# ---------------------------------------------------------------------------
# the top stratum construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionData:
    b: Tableau
    word: Word                                  # the reading word of b, checked once
    shape: tuple[int, ...]                      # the shape of b
    m: int
    n: int
    w_list: tuple[tuple[int, ...], ...]         # permutations, one per Far-Eastern column
    w_of_b: tuple[int, ...]
    lambda_of_b: tuple[int, ...]
    # sum_(j'<j) w_1^-1 ... w_(j'-1)^-1 wt(b_j') for j = 1..d, the shared
    # part of every conjugator's xi-family; the sum over all d is lambda(b)
    lambda_prefixes: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def upsilon(self) -> tuple[tuple[int, ...], ...]:
        """The conjugators u with u^-1 c^m u = w(b), c: i -> i + 1 mod n, built
        when the xi-family first reads them.  They number exactly n: w(b) is
        a Coxeter element (proved in build_construction), so an n-cycle, as
        c^m is since gcd(m, n) = 1; weyl.conjugators builds one v per image
        t of 0, distinct in v[0], and asserts each one."""
        cm = tuple((i + self.m) % self.n for i in range(self.n))
        return W.conjugators(cm, self.w_of_b)

    @functools.cached_property
    def is_cyclic(self) -> bool:
        """Whether lambda(b) is a rearrangement of the shape of b."""
        return sorted(self.lambda_of_b, reverse=True) == \
            list(self.shape) + [0] * (self.n - len(self.shape))

    @functools.cached_property
    def b_minus_weight(self) -> tuple[int, ...]:
        """The weight of b_minus: the antidominant rearrangement of lambda_b."""
        return tuple(sorted(SM.lambda_b(self.m, self.n)))

    @functools.cached_property
    def b_minus(self) -> Word:
        """The reading word of b conjugated to the antidominant rearrangement
        of lambda_b, shared by the xi-families of all conjugators."""
        return conjugate_to_weight(self.word, self.b_minus_weight, self.shape, self.n)


@functools.lru_cache(maxsize=None)
def _wmax_prime_word(m: int, n: int) -> tuple[int, ...]:
    """
    Reduced word (left to right) of the Coxeter element taking lambda_b to
    its reverse: blocks (s_(i_(k)) ... s_(i_(k+1)-1)) listed for descending k,
    where the i_k are the positions where lambda_b exceeds floor(m/n).
    """
    lb = SM.lambda_b(m, n)
    hi = m // n + 1
    marks = [i + 1 for i, v in enumerate(lb) if v == hi]   # 1-indexed, ends at n
    cuts = [1] + marks
    word: list[int] = []
    for k in range(len(cuts) - 2, -1, -1):
        word.extend(range(cuts[k], cuts[k + 1]))
    return tuple(word)


def build_construction(b: Tableau, m: int, n: int) -> ConstructionData:
    """
    Walk b to its opposite-weight conjugate one raising operator at a time
    (along the canonical word for the sorting Coxeter element), recording
    which Far-Eastern column each step changes; the per-column letter
    products are the unique tuple carrying b's columns to those of the
    conjugate, and the product of their inverses is a Coxeter element.  The
    walk runs on the reading word, carrying the weight: each letter must
    pair to -1 (wt(i) - wt(i+1) = -1), and its one signature pass names the
    box it flips, whose index gives the column.

    Each w_j has its letters as support and w(b) is a Coxeter element, so
    neither is checked: the walk raises unless its letters are 1, ..., n-1,
    each once.  Let p be a product of distinct simple reflections.  Every
    s_j but s_i fixes the positions {0, ..., i-1} setwise, so p does when
    s_i is not a letter, and p = u s_i v with u, v fixing it does not when
    it is one.  So every word for p uses all its letters: p is reduced, with
    its letters as support.  w(b) = w_1^-1 ... w_d^-1 is such a p of all
    n - 1 letters.
    """
    if math.gcd(m, n) != 1:
        raise ValueError("m must be coprime to n")
    word = reading_word(b, n)
    wt = weight(word, n)
    lb = SM.lambda_b(m, n)
    if wt != lb:
        raise ValueError(f"tableau weight {wt} is not {lb}")
    sh = shape(b)
    geo = geometry(sh)
    d = len(geo.slices)

    cur = word
    wt = list(wt)
    letters_by_factor: list[list[int]] = [[] for _ in range(d)]
    for i in reversed(_wmax_prime_word(m, n)):
        if wt[i - 1] - wt[i] != -1:
            raise AssertionError(
                f"letter s_{i} does not pair to -1 on {cur}: "
                f"wt(i) - wt(i+1) = {wt[i - 1] - wt[i]}")
        cur, k = _flip(cur, i, True, geo, n)
        letters_by_factor[geo.factor[k]].append(i)
        wt[i - 1] += 1
        wt[i] -= 1

    if weight(cur, n) != tuple(reversed(lb)):
        raise AssertionError("construction did not reach the opposite weight")

    factors = [word[s] for s in geo.slices]
    w_list, w_inverses = [], []
    for j, letters in enumerate(letters_by_factor):
        # chronological: a later letter s_i acts on the left of w_j, so it
        # swaps the values i-1 and i of w_j, at the positions that the
        # entries i-1 and i of w_j^-1 name, and swaps those two entries
        p, inv = list(range(n)), list(range(n))
        for i in letters:
            x, y = inv[i - 1], inv[i]
            p[x], p[y] = p[y], p[x]
            inv[i - 1], inv[i] = y, x
        w_list.append(tuple(p))
        w_inverses.append(tuple(inv))
        if {p[v - 1] + 1 for v in factors[j]} != set(cur[geo.slices[j]]):
            raise AssertionError(f"factor {j} does not match under its letters")

    used = [i for ls in letters_by_factor for i in ls]
    if sorted(used) != list(range(1, n)):
        raise AssertionError("each simple reflection must occur exactly once")

    sums, w_of_b = _lambda_sums(w_inverses, factors, n)
    return ConstructionData(b=b, word=word, shape=sh, m=m, n=n, w_list=tuple(w_list),
                            w_of_b=w_of_b, lambda_of_b=sums[-1], lambda_prefixes=sums[:-1])


def _lambda_sums(w_inverses, factors, n: int
                 ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The d + 1 partial sums of w_1^-1 ... w_(j-1)^-1 wt(b_j), from 0 to
    lambda(b), and the full product w(b) = w_1^-1 ... w_d^-1, given the
    w_j^-1.  wt(b_j) is the indicator of the column b_j, so the product
    moves its entry v to position acc[v - 1]."""
    acc = W.identity_perm(n)
    lam = [0] * n
    out = [tuple(lam)]
    for f, q in zip(factors, w_inverses):
        for v in f:
            lam[acc[v - 1]] += 1
        out.append(tuple(lam))
        acc = W.compose(acc, q)
    return tuple(out), acc


def xi_zero(C: ConstructionData, upsilon: tuple[int, ...],
            memo: dict[tuple[int, Word], Word] | None = None) -> tuple[int, ...]:
    """
    xi(u^-1 b^-) for a chosen conjugator u: entry i is the sum of
    epsilon_i' over i' > i, the last entry 0, one suffix sum.  The xi-family
    of u is xi_j = u (xi(u^-1 b^-) + P_j) with P_j the j-th lambda prefix, as
    u acts linearly.  u^-1 acts on b^- by _act_letters, with the word of
    u^-1 read off u (W.inverse_perm_word) and b^-'s known weight; memo is
    passed on.
    """
    if upsilon not in C.upsilon:
        raise ValueError("not one of the construction's conjugators")
    n = C.n
    eps = epsilons(_act_letters(W.inverse_perm_word(upsilon), C.b_minus, C.b_minus_weight,
                                C.shape, n, memo), n)
    return tuple(itertools.accumulate(reversed(eps)))[::-1] + (0,)


def xi_normalized(C: ConstructionData) -> tuple[tuple[int, ...], ...]:
    """
    The xi-family normalized so the first coweight sums to zero; all n
    conjugators give the same normalized family, which is asserted.  The
    conjugators all act on b^-, so one memo of s_i steps, local to this
    call, serves them all.

    The families are compared by their affine parts.  For u with
    k = -sum(xi_0), the normalized family is tau^k u (xi_0 + P_j).  The
    affine action t^lam p: x -> lam + p x is linear in its permutation
    part, w(x + y) = w(x) + p y, and tau^k = t^lam c^k, so
    tau^k u (xi_0 + P_j) = F_0 + sigma_u P_j with F_0 = tau^k u xi_0 and
    sigma_u = c^k u.  As P_0 = 0, F_0 is the first coweight, and two
    families are equal exactly when their F_0 are and sigma_u P_j agree for
    every j, which needs no look at the P_j when the sigma_u are equal.

    F_0 is written directly: with q, r = divmod(k, n), tau^k has translation
    part lam(x) = q + [x < r] (weyl.tau), so F_0(sigma_u(i)) = xi_0(i) + q +
    [sigma_u(i) < r].
    """
    n = C.n
    memo: dict[tuple[int, Word], Word] = {}
    parts = []
    for u in C.upsilon:
        xi0 = xi_zero(C, u, memo)
        k = -sum(xi0)
        q, r = divmod(k, n)
        sigma = tuple((x + k) % n for x in u)
        f0 = [0] * n
        for x, s in zip(xi0, sigma):
            f0[s] = x + q + (s < r)
        parts.append((f0, sigma))
    f0, sigma = parts[0]
    for g0, s in parts[1:]:
        if g0 != f0 or (s != sigma and any(
                W.perm_on_cochar(s, p) != W.perm_on_cochar(sigma, p)
                for p in C.lambda_prefixes)):
            raise AssertionError("conjugators gave inequivalent families")
    return tuple(tuple(x + y for x, y in zip(f0, W.perm_on_cochar(sigma, p)))
                 for p in C.lambda_prefixes)


def top_lambda(C: ConstructionData) -> tuple[int, ...]:
    """The normalized coweight indexing the top stratum attached to b."""
    return xi_normalized(C)[0]
