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

Path profiles come from memoized recursions over the tree, with no tree
stored.  A memo is keyed by orbit under length-preserving conjugation: one
step search fills it for every element the search visited, which all share
the profile of the element it started from, so a later tree node that lands
anywhere in an explored orbit walks none of it again.  One memo shared per
shape lets the trees of the shape's cyclic elements share their descendants
and their orbits.  Trees are not unique: exploration order is seeded, and
the polynomial's independence of the seed is a checkable invariant.

There are two routes.  path_profiles walks the whole tree and keeps every
end (classpoly prints them all).  class_polynomial walks only the subtrees
that can reach tau^m, gcd(m, n) = 1.  Why the rest can be cut:
1. He (Geometric and homological properties of affine Deligne-Lusztig
   varieties, Ann. of Math. 179, 2014): X_z(b) is non-empty iff the class
   polynomial of z at some class lying over [b] is non-zero.  Path counts
   are positive, so its top coefficient never cancels: it is non-zero iff
   some path of a reduction tree of z ends in that class.
2. Only tau^m's class lies over [tau^m].  A class over it has kappa = m and
   central Newton point m/n.  A cycle C of p(z) gives the Newton point
   (sum of lam over C) / |C| on C, which is m/n only if |C| = n, as
   gcd(m, n) = 1.  So p(z) is an n-cycle, and z is conjugate to tau^m:
   conjugate p(z) to p(tau^m) = c by a finite permutation, then conjugate
   by t^nu, which adds nu - c nu to the translation part; 1 - c maps Z^n
   onto the vectors of sum zero, and the two translation parts differ by
   one of sum kappa - m = 0.  tau^m has length 0, so the only minimal
   element of its class is tau^m, the one length-zero element of kappa m.
3. So a node z of the tree has a path to tau^m below it iff the stratum of
   z is non-empty (x_w_nonempty(z, m)): z roots a reduction tree of its
   own, and an orbit element reached through the memo walks to the pivot
   first.  Simple reflections have kappa 0, so every node has kappa(w).
   With gcd(m, n) = 1 the sigma-support of every z != tau^m is full
   (x_w_nonempty, step 1), so steps 3 and 4 (admissible._nonempty_by_table)
   decide z exactly, and an n-cycle z is non-empty by the certificate of
   step 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import admissible as A
from . import weyl as W
from .weyl import AffineWeylElement


@dataclass(frozen=True)
class ClassPolynomial:
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


def find_reduction_step(w: AffineWeylElement, rng: random.Random
                        ) -> tuple[tuple[AffineWeylElement, int] | None,
                                   set[AffineWeylElement]]:
    """
    Search the orbit of w under length-preserving conjugation for a pivot w'
    and s with length(s w' s) = length(w') - 2.  Returns the step (w', s),
    or None when w is of minimal length in its class (no such pivot exists
    in the whole orbit), together with the set of orbit elements the search
    visited: the whole orbit when the step is None.  At an orbit element z,
    s z s has the length of z iff s is a descent of z on exactly one side; z
    is a pivot iff s is a descent on both sides and s z != z s (else
    s z s = z).  rng orders the simple reflections and picks which orbit
    element to expand next.

    A popped z = t^lam . p costs O(n), plus O(n) for each neighbour s z s:
    p^-1 is written once, each test reads (lam, p, p^-1) in O(1), and a
    neighbour becomes an AffineWeylElement only when it is new.  Let
    (a, b, least) = (s-1, s, 1), or (n-1, 0, 2) for s = s_0.
    - Left descent.  W.left_descent's rule is lam[b] - lam[a]
      + [p.index(a) > p.index(b)] >= least, and p.index(v) = p^-1(v).
    - Right descent.  right_descent's pair (p[s-1], p[s]), or
      (p[n-1], p[0]) for s_0, is (x, y) = (p[a], p[b]) either way; its rule
      d >= least, d = lam[x] - lam[y] + [x > y], is read unchanged.
    - s z s.  conjugate_simple's write: the values a and b of p sit at
      positions p^-1(a) and p^-1(b), so swapping them needs no scan; then
      positions a and b of p and of lam are swapped, and for s_0 the two
      affine steps add e_0 - e_(n-1) + e_(q[n-1]) - e_(q[0]), q the new p.
    - Pivot.  Let s be a descent on both sides.  The write puts b at
      p^-1(a) and a at p^-1(b), then swaps positions a and b, so it leaves
      p unchanged iff {p[a], p[b]} = {a, b}.  If p fixed a and b, the two
      rules' sides would sum to 2[a > b] < 2 least, so not both could hold;
      hence s z s = z forces p[a] = b, p[b] = a.  Then q = p, the s_0 steps
      add 2(e_0 - e_(n-1)), and lam is unchanged iff lam[a] = lam[b] (s_i)
      or lam[0] = lam[n-1] + 2 (s_0): in both cases iff d = least.  So s z
      = z s iff (x, y) = (b, a) and d = least.
    - rng.  The calls are one rng.shuffle(order), then one
      rng.randrange(len(queue)) per popped element.  Each test above has the
      verdict of the rule it replaces, and each neighbour is the element
      conjugate_simple builds, so the same neighbours enter the queue in the
      same order; by induction over the pops every queue length, hence
      every draw, the visited set and the pivot are those of the search by
      W.left_descent, right_descent and conjugate_simple one reflection at a
      time.  That search and the last two are reference routes kept in
      tests/oracles.py (find_reduction_step_by_descents).
    """
    n = w.n
    order = list(range(n))
    rng.shuffle(order)
    rules = [(s, n - 1, 0, 2) if s == 0 else (s, s - 1, s, 1) for s in order]
    seen = {w}
    queue = [w]
    pinv = [0] * n
    while queue:
        idx = rng.randrange(len(queue))
        queue[idx], queue[-1] = queue[-1], queue[idx]
        z = queue.pop()
        lam, p = z
        for j, v in enumerate(p):
            pinv[v] = j
        for s, a, b, least in rules:
            x, y = p[a], p[b]
            d = lam[x] - lam[y] + (x > y)
            left = lam[b] - lam[a] + (pinv[a] > pinv[b]) >= least
            if left != (d >= least):
                q = list(p)
                q[pinv[a]], q[pinv[b]] = b, a
                q[a], q[b] = q[b], q[a]
                t = list(lam)
                t[a], t[b] = lam[b], lam[a]
                if s == 0:
                    t[0] += 1
                    t[n - 1] -= 1
                    t[q[n - 1]] += 1
                    t[q[0]] -= 1
                # a NamedTuple equals the plain tuple of its fields, so the
                # pair looks itself up and only a new one becomes an element
                zss = (tuple(t), tuple(q))
                if zss not in seen:
                    zss = AffineWeylElement(*zss)
                    seen.add(zss)
                    queue.append(zss)
            elif left and (x != b or y != a or d != least):
                return (z, s), seen
    return None, seen


def path_profiles(w: AffineWeylElement, seed: int = 0,
                  memo: dict | None = None
                  ) -> dict[AffineWeylElement, dict[tuple[int, int], int]]:
    """
    Per end point of a reduction tree of w, the multiset of (type I, type II)
    counts over its paths, exploring in the order seed fixes.  The memo maps
    each element reached to its {(end, a, b): count} profile, or to None
    when the element is of minimal length in its class, which stands for
    {(element, 0, 0): 1} and saves a dict per element; a memo shared by
    several roots lets their trees share descendants.

    One step search from z fills the memo for every element y it visited,
    not only for z.  Each such y is reached from z by conjugations
    x -> s x s with length(s x s) = length(x); each is its own inverse, so y
    and z lie in one orbit O of these moves.
    - If the search returned a pivot p in O, a reduction tree of y may walk
      from y to p, adding no edge, and branch there exactly as the tree of z
      does: y gets z's profile (the same dict).  Its class polynomial is
      z's, as every reduction tree of y gives the same one (He-Nie).
    - If it returned None, the search emptied its queue, so it visited all
      of O and found no pivot there.  A fresh search from y explores the
      same O and returns None too: y gets {(y, 0, 0): 1} (memo entry
      None), which is what that search gives.
    The children s p and s p s are shorter than z, so they lie outside O,
    and the recursion below z writes no entry of O.  A later search
    starting in an explored orbit is a memo hit.

    A memo belongs to one route: class_polynomial's memo holds profiles of
    the paths to tau^m alone, keyed (type I, type II), and pruned subtrees
    as {}, so neither route may read the other's.
    """
    rng = random.Random(seed)
    memo = {} if memo is None else memo

    def profile(z: AffineWeylElement) -> dict:
        if z in memo:
            out = memo[z]
            return {(z, 0, 0): 1} if out is None else out
        step, orbit = find_reduction_step(z, rng)
        if step is None:
            memo.update(dict.fromkeys(orbit))
            return {(z, 0, 0): 1}
        pivot, s = step
        child1 = W.left_mul_simple(s, pivot)
        child2 = W.right_mul_simple(child1, s)
        out: dict = {}
        for (end, a, b), c in profile(child1).items():
            out[(end, a + 1, b)] = out.get((end, a + 1, b), 0) + c
        for (end, a, b), c in profile(child2).items():
            out[(end, a, b + 1)] = out.get((end, a, b + 1), 0) + c
        memo.update(dict.fromkeys(orbit, out))
        return out

    result: dict[AffineWeylElement, dict[tuple[int, int], int]] = {}
    for (end, a, b), c in profile(w).items():
        result.setdefault(end, {})[(a, b)] = c
    return result


def class_polynomial(w: AffineWeylElement, m: int, seed: int = 0,
                     memo: dict | None = None) -> ClassPolynomial:
    """
    The class polynomial of (w, tau^m): the path profile over reduction paths
    ending at tau^m (the unique minimal-length class mapping to the
    superbasic element), and its expansion in powers of q.  Only the subtrees
    that can reach tau^m are walked (module docstring, steps 1-3):
    - kappa(w) != m: no node reaches tau^m, the polynomial is zero;
    - a node whose finite part is an n-cycle is non-empty by certificate and
      is not tested;
    - any other node whose verdict table calls its stratum empty
      (admissible._nonempty_by_table) gets the profile {}, with no step
      search.
    The profile at tau^m is that of path_profiles: pruning drops only
    subtrees with no path to tau^m, and the profile is the same for every
    tree, as the polynomial is (He-Nie) and fixes it: the terms
    (q-1)^a q^b with a + 2b = length(w) have distinct degrees a + b.  The
    step searches draw from rng in another order than path_profiles' do, so
    the trees differ, not the profile.  Every node kept is non-empty, so
    it must end with a non-empty profile, and a kept node of minimal length
    must be tau^m; either failure raises, so each tree cross-checks the
    verdict table at every node it visits.  The memo maps each element
    reached to its {(type I, type II): count} profile (a memo belongs to
    one route; see path_profiles).
    """
    n = w.n
    if math.gcd(m, n) != 1:
        raise ValueError("m must be coprime to n")
    if W.kappa(w) != m:
        return _class_polynomial_of_profiles(w, m, {})
    target = W.tau(n, m)
    rng = random.Random(seed)
    memo = {} if memo is None else memo

    def profile(z: AffineWeylElement) -> dict[tuple[int, int], int]:
        if z in memo:
            return memo[z]
        label = W.cycle_labels(z.perm)
        if any(label) and not A._nonempty_by_table(z, label):
            memo[z] = {}
            return memo[z]
        step, orbit = find_reduction_step(z, rng)
        if step is None:
            if z != target:
                raise AssertionError(f"reduction tree and x_w_nonempty disagree: "
                                     f"{z} is minimal and non-empty")
            out = {(0, 0): 1}
        else:
            pivot, s = step
            child1 = W.left_mul_simple(s, pivot)
            child2 = W.right_mul_simple(child1, s)
            out = {(a + 1, b): c for (a, b), c in profile(child1).items()}
            for (a, b), c in profile(child2).items():
                out[(a, b + 1)] = out.get((a, b + 1), 0) + c
            if not out:
                raise AssertionError(f"reduction tree and x_w_nonempty disagree: "
                                     f"{z} is non-empty and has no path to tau^{m}")
        memo.update(dict.fromkeys(orbit, out))
        return out

    out = profile(w)
    return _class_polynomial_of_profiles(w, m, {target: out} if out else {})


def _class_polynomial_of_profiles(w: AffineWeylElement, m: int,
                                  byend: dict) -> ClassPolynomial:
    """The class polynomial of (w, tau^m) from path profiles by end: all of
    path_profiles' for classpoly, which also prints them, or the one end
    tau^m for class_polynomial."""
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
    return ClassPolynomial(path_profile=tuple(sorted(profile.items())),
                           coefficients=tuple(coeffs))
