"""
Conjugation-reduction of affine Weyl group elements and class polynomials.

An element that is not of minimal length in its conjugacy class can always be
carried, by a chain of length-preserving conjugations by simple reflections,
to some w' admitting s with length(s w' s) = length(w') - 2.  A reduction
tree branches at each such step into s w' (a type I edge, length drop 1) and
s w' s (type II, drop 2) and recurses; its end points are minimal length in
their class.  Summing (q-1)^(#type I) q^(#type II) over the paths that end at
tau^m gives the class polynomial of (w, tau^m); its top-degree data recover
stratum dimension and component counts.  The search for such a step (X. He
and S. Nie, Compositio Math. 150, 2014) only asks whether s is a descent.

Path profiles come from one memoized recursion over the tree, with no tree
stored: the memo maps each element to its (end, a, b) path counts, and one
memo shared per shape lets the trees of the shape's cyclic elements share
their descendants.  Trees are not unique: exploration order is seeded, and
the polynomial's independence of the seed is a checkable invariant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import weyl as W
from .weyl import AffineWeylElement


@dataclass(frozen=True)
class ClassPolynomial:
    w: AffineWeylElement
    m: int
    path_profile: tuple[tuple[tuple[int, int], int], ...]  # ((lI, lII), count)
    coefficients: tuple[int, ...]                          # in q, ascending

    @property
    def dim_from_tree(self) -> int | None:
        profile = dict(self.path_profile)
        return max((a + b for a, b in profile), default=None)

    @property
    def top_components(self) -> int:
        d = self.dim_from_tree
        if d is None:
            return 0
        return sum(c for (a, b), c in self.path_profile if a + b == d)


def find_reduction_step(w: AffineWeylElement, rng: random.Random | None = None
                        ) -> tuple[AffineWeylElement, int] | None:
    """
    Search the orbit of w under length-preserving conjugation for a pivot w'
    and s with length(s w' s) = length(w') - 2; returns (w', s).  None when
    w is of minimal length in its class (no such pivot exists in the whole
    orbit).  At an orbit element z, s z s has the length of z iff s is a
    descent of z on exactly one side; z is a pivot iff s is a descent on
    both sides and s z != z s (else s z s = z).
    """
    order = list(range(w.n))
    if rng is not None:
        rng.shuffle(order)
    seen = {w}
    queue = [w]
    while queue:
        if rng is not None:
            idx = rng.randrange(len(queue))
            queue[idx], queue[-1] = queue[-1], queue[idx]
        z = queue.pop()
        for s in order:
            left = W.left_descent(s, z)
            if left != W.right_descent(z, s):
                zss = W.right_mul_simple(W.left_mul_simple(s, z), s)
                if zss not in seen:
                    seen.add(zss)
                    queue.append(zss)
            elif left and W.left_mul_simple(s, z) != W.right_mul_simple(z, s):
                return z, s
    return None


def path_profiles(w: AffineWeylElement, seed: int | None = None,
                  memo: dict | None = None
                  ) -> dict[AffineWeylElement, dict[tuple[int, int], int]]:
    """
    Per end point of a reduction tree of w, the multiset of (type I, type II)
    counts over its paths, exploring deterministically unless seeded.  The
    memo maps each element reached to its {(end, a, b): count} profile; a
    memo shared by several roots lets their trees share descendants.
    """
    rng = random.Random(seed) if seed is not None else None
    memo = {} if memo is None else memo

    def profile(z: AffineWeylElement) -> dict:
        if z in memo:
            return memo[z]
        step = find_reduction_step(z, rng)
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

    result: dict[AffineWeylElement, dict[tuple[int, int], int]] = {}
    for (end, a, b), c in profile(w).items():
        result.setdefault(end, {})[(a, b)] = c
    return result


def class_polynomial(w: AffineWeylElement, m: int, seed: int | None = None,
                     memo: dict | None = None) -> ClassPolynomial:
    """
    The class polynomial of (w, tau^m): the path profile over reduction paths
    ending at tau^m (the unique minimal-length class mapping to the
    superbasic element), and its expansion in powers of q.
    """
    if math.gcd(m, w.n) != 1:
        raise ValueError("m must be coprime to n")
    return _class_polynomial_of_profiles(w, m, path_profiles(w, seed, memo))


def _class_polynomial_of_profiles(w: AffineWeylElement, m: int,
                                  byend: dict) -> ClassPolynomial:
    """class_polynomial of (w, tau^m) from its path_profiles byend, for
    callers that also read them."""
    target = W.tau(w.n, m)
    for end in byend:
        if end != target and W.kappa(end) == m and W.length(end) == 0:
            raise AssertionError("another length-zero end point in the coset")
    profile = byend.get(target, {})
    lw = W.length(w)
    for (a, b), _ in profile.items():
        if a + 2 * b != lw:
            raise AssertionError("path lengths do not telescope")
    # c (q-1)^a q^b = sum_k c C(a, k) (-1)^(a-k) q^(b+k); path counts are
    # positive, so the top coefficient never cancels
    coeffs = [0] * (max((a + b for a, b in profile), default=0) + 1)
    for (a, b), c in profile.items():
        for k in range(a + 1):
            coeffs[b + k] += (-1) ** (a - k) * math.comb(a, k) * c
    return ClassPolynomial(w=w, m=m, path_profile=tuple(sorted(profile.items())),
                           coefficients=tuple(coeffs))
