"""
The GL_n crystal of semi-standard Young tableaux, and the construction
attaching to each tableau of weight lambda_b a top stratum datum: a Coxeter
element, a family of conjugators, a normalized coweight family, and a
cyclicity invariant.

A tableau is a tuple of row tuples, rows weakly increasing, columns strictly
increasing, entries in 1..n.  The raising and lowering operators use the
signature rule on the Far-Eastern reading (columns right to left, each top
to bottom): mark boxes i by '+' and i+1 by '-', cancel adjacent "+-" pairs,
then raising flips the rightmost surviving '-' and lowering the leftmost
surviving '+'.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import weyl as W
from . import semimodule as SM

Tableau = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# basic tableau plumbing
# ---------------------------------------------------------------------------

def shape(t: Tableau) -> tuple[int, ...]:
    return tuple(len(row) for row in t)


def shape_of_mu(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for v in mu if v > 0)


def weight(t: Tableau, n: int) -> tuple[int, ...]:
    wt = [0] * n
    for row in t:
        for v in row:
            wt[v - 1] += 1
    return tuple(wt)


def is_semistandard(t: Tableau, n: int) -> bool:
    sh = shape(t)
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


def columns(t: Tableau) -> tuple[tuple[int, ...], ...]:
    """Columns left to right, each read top to bottom."""
    if not t:
        return ()
    width = len(t[0])
    return tuple(tuple(row[c] for row in t if c < len(row)) for c in range(width))


def fe_reading(t: Tableau) -> tuple[tuple[int, int], ...]:
    """Far-Eastern reading: box positions (row, col) right to left, top down."""
    return _fe_positions(shape(t))


@functools.lru_cache(maxsize=None)
def _fe_positions(sh: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The Far-Eastern reading positions, which depend only on the shape."""
    if not sh:
        return ()
    return tuple((r, c) for c in range(sh[0] - 1, -1, -1)
                 for r, k in enumerate(sh) if c < k)


def fe_factors(t: Tableau) -> tuple[tuple[int, ...], ...]:
    """Columns in Far-Eastern order: rightmost first."""
    return tuple(reversed(columns(t)))


# ---------------------------------------------------------------------------
# signature rule
# ---------------------------------------------------------------------------

def _signature(t: Tableau, i: int):
    """Unmatched '-' and '+' box positions for the operator index i."""
    minus: list[tuple[int, int]] = []
    plus: list[tuple[int, int]] = []
    for pos in fe_reading(t):
        v = t[pos[0]][pos[1]]
        if v == i:
            plus.append(pos)
        elif v == i + 1:
            if plus:
                plus.pop()
            else:
                minus.append(pos)
    return minus, plus


def epsilons(t: Tableau, n: int) -> list[int]:
    """[epsilon(i, t) for i in 1..n-1] from one pass of the reading word: an
    entry v is a '+' for i = v and a '-' for i = v - 1."""
    plus = [0] * (n + 1)
    eps = [0] * (n + 1)
    for r, c in fe_reading(t):
        v = t[r][c]
        plus[v] += 1
        if plus[v - 1]:
            plus[v - 1] -= 1
        else:
            eps[v - 1] += 1
    return eps[1:n]


def _replace(t: Tableau, pos: tuple[int, int], v: int) -> Tableau:
    r, c = pos
    row = list(t[r])
    row[c] = v
    return t[:r] + (tuple(row),) + t[r + 1:]


def raising(i: int, t: Tableau) -> Tableau | None:
    """e-operator: flip the rightmost unmatched i+1 down to i."""
    minus, _ = _signature(t, i)
    if not minus:
        return None
    out = _replace(t, minus[-1], i)
    if __debug__ and not is_semistandard(out, max(i + 1, _max_entry(t))):
        raise AssertionError(f"raising broke semistandardness: {t}, i={i}")
    return out


def lowering(i: int, t: Tableau) -> Tableau | None:
    """f-operator: flip the leftmost unmatched i up to i+1."""
    _, plus = _signature(t, i)
    if not plus:
        return None
    out = _replace(t, plus[0], i + 1)
    if __debug__ and not is_semistandard(out, max(i + 1, _max_entry(out))):
        raise AssertionError(f"lowering broke semistandardness: {t}, i={i}")
    return out


def _max_entry(t: Tableau) -> int:
    return max((v for row in t for v in row), default=1)


def raising_changed_column(i: int, t: Tableau) -> tuple[Tableau, int]:
    """Apply the e-operator and also report the changed (0-indexed) column."""
    minus, _ = _signature(t, i)
    if not minus:
        raise ValueError(f"e_{i} vanishes on {t}")
    pos = minus[-1]
    return _replace(t, pos, i), pos[1]


# ---------------------------------------------------------------------------
# Weyl action and conjugates
# ---------------------------------------------------------------------------

def simple_act(i: int, t: Tableau, n: int) -> Tableau:
    """s_i via powers of the crystal operators (i is 1-indexed, 1..n-1)."""
    wt = weight(t, n)
    k = wt[i - 1] - wt[i]
    out = t
    if k >= 0:
        for _ in range(k):
            out = lowering(i, out)
    else:
        for _ in range(-k):
            out = raising(i, out)
    if out is None:
        raise AssertionError("Weyl action fell off the crystal")
    return out


def weyl_act(p: tuple[int, ...], t: Tableau, n: int,
             memo: dict[tuple[int, Tableau], Tableau] | None = None) -> Tableau:
    """
    Action of a permutation; independent of the chosen reduced word.  A
    memo (i, t) -> s_i t, which the caller owns, shares steps between calls.
    """
    if memo is None:
        memo = {}
    out = t
    for i in reversed(W.perm_word(p)):
        key = (i, out)
        if key not in memo:
            memo[key] = simple_act(i, out, n)
        out = memo[key]
    return out


def conjugate_to_weight(t: Tableau, target: tuple[int, ...], n: int) -> Tableau:
    """The conjugate of t with the given (rearranged) weight."""
    wt = weight(t, n)
    if sorted(wt) != sorted(target):
        raise ValueError(f"{target} is not a rearrangement of {wt}")
    perm = _matching_perm(wt, target)
    return weyl_act(perm, t, n)


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

def enumerate_weight_space(mu: tuple[int, ...], content: tuple[int, ...]
                           ) -> tuple[Tableau, ...]:
    """
    All semi-standard tableaux of shape mu with the given content, entries
    in 1..len(content), built by stacking horizontal strips one entry value
    at a time.
    """
    n = len(content)
    sh = shape_of_mu(mu)
    rows = len(sh)
    out: list[Tableau] = []
    filling = [[0] * k for k in sh]
    counts = [0] * rows  # boxes filled per row so far

    def place(v: int):
        if v > n:
            if all(counts[r] == sh[r] for r in range(rows)):
                out.append(tuple(tuple(row) for row in filling))
            return
        prev = counts[:]

        def strip(r: int, left: int):
            # add `left` more boxes of value v to rows >= r, at most one per
            # column: row r may grow from prev[r] up to the previous count of
            # the row above (column-strictness) and the row size
            if r == rows:
                if left == 0:
                    place(v + 1)
                return
            lo = prev[r]
            hi = min(sh[r], prev[r - 1] if r > 0 else sh[0])
            for take in range(0, min(left, hi - lo) + 1):
                for c in range(lo, lo + take):
                    filling[r][c] = v
                counts[r] = lo + take
                strip(r + 1, left - take)
            counts[r] = lo

        strip(0, content[v - 1])

    place(1)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the top stratum construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionData:
    b: Tableau
    m: int
    n: int
    mu: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]        # Far-Eastern columns of b
    op_factors: tuple[tuple[int, ...], ...]     # Far-Eastern columns of b^op
    w_list: tuple[tuple[int, ...], ...]         # permutations, one per factor
    w_of_b: tuple[int, ...]
    upsilon: tuple[tuple[int, ...], ...]
    lambda_of_b: tuple[int, ...]
    # sum_(j'<j) w_1^-1 ... w_(j'-1)^-1 wt(b_j') for j = 1..d, the shared
    # part of every conjugator's xi-family; the sum over all d is lambda(b)
    lambda_prefixes: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.factors)

    @functools.cached_property
    def b_minus(self) -> Tableau:
        """b conjugated to the antidominant rearrangement of lambda_b, shared
        by the xi-families of all conjugators."""
        lb_anti = W.antidominant_sort(SM.lambda_b(self.m, self.n))
        return conjugate_to_weight(self.b, lb_anti, self.n)


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
    conjugate, the product of their inverses is a Coxeter element, and the
    conjugators of the standard n-cycle power into it number exactly n.
    """
    import math

    if math.gcd(m, n) != 1:
        raise ValueError("m must be coprime to n")
    wt = weight(b, n)
    lb = SM.lambda_b(m, n)
    if wt != lb:
        raise ValueError(f"tableau weight {wt} is not {lb}")
    mu = tuple(weight_of_shape(b, n))
    d = shape(b)[0]
    word = _wmax_prime_word(m, n)

    cur = b
    letters_by_col: dict[int, list[int]] = {}
    for i in reversed(word):
        wcur = weight(cur, n)
        if wcur[i - 1] - wcur[i] != -1:
            raise AssertionError(
                f"letter s_{i} does not pair to -1 at weight {wcur}")
        cur, col = raising_changed_column(i, cur)
        letters_by_col.setdefault(col, []).append(i)

    lb_op = tuple(reversed(lb))
    if weight(cur, n) != lb_op:
        raise AssertionError("construction did not reach the opposite weight")

    factors = fe_factors(b)
    op_factors = fe_factors(cur)
    w_list = []
    for j in range(d):
        col = d - 1 - j                    # Far-Eastern factor j+1 is column d-1-j
        letters = letters_by_col.get(col, [])
        p = W.identity_perm(n)
        for i in letters:                  # chronological: later letters act on the left
            p = W.compose(W.transposition(n, i - 1, i), p)
        w_list.append(p)
        img = {p[v - 1] + 1 for v in factors[j]}
        if img != set(op_factors[j]):
            raise AssertionError(f"factor {j} does not match under its letters")
        if W.finite_supp(p) != frozenset(letters):
            raise AssertionError(f"letters of factor {j} are not its support")

    used = [i for ls in letters_by_col.values() for i in ls]
    if sorted(used) != list(range(1, n)):
        raise AssertionError("each simple reflection must occur exactly once")

    w_of_b = W.identity_perm(n)
    for p in w_list:
        w_of_b = W.compose(w_of_b, W.inverse_perm(p))
    if not W.is_coxeter(w_of_b):
        raise AssertionError(f"w(b) is not a Coxeter element: {w_of_b}")

    cm = tuple((i + m) % n for i in range(n))
    upsilon = W.conjugators(cm, w_of_b)
    if len(upsilon) != n:
        raise AssertionError("conjugator family must have size n")

    sums = _lambda_sums(w_list, factors, n)
    return ConstructionData(b=b, m=m, n=n, mu=mu, factors=factors,
                            op_factors=op_factors, w_list=tuple(w_list),
                            w_of_b=w_of_b, upsilon=upsilon, lambda_of_b=sums[-1],
                            lambda_prefixes=sums[:-1])


def weight_of_shape(b: Tableau, n: int) -> tuple[int, ...]:
    sh = shape(b)
    return tuple(list(sh) + [0] * (n - len(sh)))


def _lambda_sums(w_list, factors, n: int) -> tuple[tuple[int, ...], ...]:
    """The d + 1 partial sums of w_1^-1 ... w_(j-1)^-1 wt(b_j), from 0 to
    lambda(b)."""
    acc = W.identity_perm(n)
    lam = (0,) * n
    out = [lam]
    for j, f in enumerate(factors):
        wt = [0] * n
        for v in f:
            wt[v - 1] = 1
        moved = W.perm_on_cochar(acc, tuple(wt))
        lam = tuple(a + b for a, b in zip(lam, moved))
        out.append(lam)
        acc = W.compose(acc, W.inverse_perm(w_list[j]))
    return tuple(out)


def lambda_and_cyclicity(C: ConstructionData) -> tuple[tuple[int, ...], bool]:
    """lambda(b) and whether it is a rearrangement of the shape."""
    return C.lambda_of_b, sorted(C.lambda_of_b, reverse=True) == list(C.mu)


def xi_family(C: ConstructionData, upsilon: tuple[int, ...],
              memo: dict[tuple[int, Tableau], Tableau] | None = None
              ) -> tuple[tuple[int, ...], ...]:
    """
    The coweight family xi_j = u xi(u^-1 b^-) + sum_(j'<j) u w_1^-1 ... w_(j'-1)^-1
    wt(b_j'), for a chosen conjugator u; memo is passed to weyl_act.
    """
    if upsilon not in C.upsilon:
        raise ValueError("not one of the construction's conjugators")
    n = C.n
    bprime = weyl_act(W.inverse_perm(upsilon), C.b_minus, n, memo)
    eps = epsilons(bprime, n)
    xi0 = tuple(sum(eps[i:]) for i in range(n - 1)) + (0,)
    # u acts linearly, so xi_j = u (xi(u^-1 b^-) + the j-th lambda prefix)
    return tuple(W.perm_on_cochar(upsilon, tuple(x + y for x, y in zip(xi0, pre)))
                 for pre in C.lambda_prefixes)


def xi_normalized(C: ConstructionData) -> tuple[tuple[int, ...], ...]:
    """
    The family normalized so the first coweight sums to zero; all n
    conjugators give the same normalized family, which is asserted.  The
    conjugators all act on b^-, so one memo of s_i steps, local to this
    call, serves them all.
    """
    n = C.n
    memo: dict[tuple[int, Tableau], Tableau] = {}
    families = []
    for u in C.upsilon:
        fam = xi_family(C, u, memo)
        k = -sum(fam[0])
        tk = W.tau(n, k)
        families.append(tuple(W.act_on_cochar(tk, x) for x in fam))
    first = families[0]
    if any(f != first for f in families[1:]):
        raise AssertionError("conjugators gave inequivalent families")
    return first


def top_lambda(C: ConstructionData) -> tuple[int, ...]:
    """The normalized coweight indexing the top stratum attached to b."""
    return xi_normalized(C)[0]
