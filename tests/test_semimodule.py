import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from adlv import compare as CP
from adlv import semimodule as S
from adlv import weyl as W

import oracles as O
from oracles import coroot


def addv(*vs):
    return tuple(sum(t) for t in zip(*vs))


# ---------------------------------------------------------------------------
# semi-modules
# ---------------------------------------------------------------------------

def test_from_lambda_trivial():
    sm = O.from_lambda((0, 0, 0, 0, 0), 2)
    assert sm.abar == (0, 1, 2, 3, 4)
    assert sm.conductor == 0
    assert sm.elements(-1, 20) == list(range(0, 20))


def test_from_lambda_chi15():
    sm = O.from_lambda(coroot(5, 1, 5), 2)
    assert sm.abar == (-1, 1, 2, 3, 5)
    # A = (2N - 1) union (N + 2)
    for a in range(-6, 20):
        expected = (a >= -1 and a % 2 == 1) or a >= 2
        assert (sm.elements(a, a + 1) == [a]) == expected


def test_from_lambda_rejects():
    with pytest.raises(ValueError):
        O.from_lambda((1, 0, 0), 2)          # sum != 0
    with pytest.raises(ValueError):
        O.from_lambda((5, 0, -5), 1)         # not stable under +1


def test_tau_shift_consistency():
    # A^(tau lam) = 1 + A^lam, where tau lam = (lam(n)+1, lam(1..n-1))
    for lam, m in [((1, 0, 0, 0, -1), 2), ((0, 1, 0, 0, 0, -1, 0), 2),
                   ((0,) * 7, 3)]:
        n = len(lam)
        sm = O.from_lambda(lam, m)
        tl = O.act_on_cochar(W.tau(n), lam)
        assert tl == (lam[-1] + 1,) + lam[:-1]
        shifted_abar = sorted(i + tl[i] * n for i in range(n))
        assert tuple(a - 1 for a in shifted_abar) == sm.abar


def test_type_of_examples():
    sm = O.from_lambda((0, 0, 0, 0, 0), 2)
    assert sorted(O.type_of(sm), reverse=True) == [1, 1, 0, 0, 0]
    sm7 = O.from_lambda((0, 0, 0, 0, 0), 7)
    assert sum(O.type_of(sm7)) == 7
    # the unique semi-module below omega_(n-1) is N with type conjugate to it
    smN = O.from_lambda((0, 0, 0, 0), 3)
    assert sorted(O.type_of(smN), reverse=True) == [1, 1, 1, 0]


def test_type_closed_form_agrees():
    for m, n in [(2, 5), (3, 7), (7, 5), (3, 4), (5, 6)]:
        for sm in O.enumerate_semimodules(m, n):
            assert sorted(O.type_closed_form(sm)) == sorted(sm.type)


def test_enumerate_semimodules_counts():
    assert len(O.enumerate_semimodules(1, 2)) == 1
    assert len(O.enumerate_semimodules(2, 5)) == 3
    # dominance criterion agrees with direct stability search over a box
    for m, n, box in [(2, 5, 2), (3, 7, 2), (3, 4, 2), (7, 5, 3), (2, 3, 2)]:
        got = {sm.abar for sm in O.enumerate_semimodules(m, n)}
        brute = set()
        for lam in itertools.product(range(-box, box + 1), repeat=n):
            if sum(lam) != 0:
                continue
            try:
                brute.add(O.from_lambda(lam, m).abar)
            except ValueError:
                continue
        assert got == brute


def compositions(total, parts):
    # stars and bars: bar positions among total + parts - 1 slots
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        cuts = (-1,) + bars + (total + parts - 1,)
        yield tuple(cuts[i + 1] - cuts[i] - 1 for i in range(parts))


def _passes_slope(mu_p):
    n, m = len(mu_p), sum(mu_p)
    return O.dominance_leq((m,) * n, tuple(n * v for v in reversed(mu_p)))


def test_valid_type_iff_slope_test():
    # a composition of m is the type of a semi-module exactly when its
    # reversal dominates (m/n, ..., m/n), tested in integers; the generator
    # _semimodules_below reads yields exactly the passing rearrangements, in
    # order, for every composition (coprime or not)
    for n in range(1, 7):
        for m in range(1, 10):
            expected = {}
            for mu_p in compositions(m, n):
                d = O.dominant_sort(mu_p)
                if d not in expected:
                    expected[d] = [r for r in sorted(set(itertools.permutations(d)))
                                   if _passes_slope(r)]
                assert list(W.rearrangements_under_slope(mu_p)) == expected[d], mu_p
                if math.gcd(m, n) == 1:
                    assert (O.valid_type(mu_p, m, n) is not None) == _passes_slope(mu_p), \
                        (m, n, mu_p)


def test_semimodules_below_matches_filtered_rearrangements():
    for mu in [(2, 1, 0, 0, 0), (3, 2, 0, 0), (2, 2, 1, 1, 0, 0, 0), (4, 2, 1, 0, 0)]:
        types = [O.type_of(sm) for sm in S._semimodules_below(mu)]
        expected = [r for d in W.dominant_below(mu)
                    for r in sorted(set(itertools.permutations(d))) if _passes_slope(r)]
        assert types == expected, mu


# (n, mu1_max) of the sweep shapes on which from_type is compared with the
# reference route: 370 shapes, 40,042 generated semi-modules
FROM_TYPE_RANGE = ((2, 8), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3), (8, 3), (9, 2))


@functools.lru_cache(maxsize=None)
def _generated_semimodules() -> tuple[S.SemiModule, ...]:
    return tuple(sm for n, mu1_max in FROM_TYPE_RANGE
                 for mu in CP.dominant_shapes(n, mu1_max)
                 for sm in S._semimodules_below(mu))


def test_from_type_matches_valid_type():
    # the one walk of from_type builds what the reference route rebuilds and
    # re-checks: Abar sorted to lambda, +m stability and the type walk
    sms = _generated_semimodules()
    assert len(sms) == 40042
    rebuilt = {}
    for sm in sms:
        key = (sm.m, sm.type)
        if key not in rebuilt:
            rebuilt[key] = O.valid_type(sm.type, sm.m, sm.n)
        assert sm == rebuilt[key], key
    assert len(rebuilt) == 10040


def test_generated_type_is_the_walked_type():
    for sm in _generated_semimodules():
        assert sm.type == O.type_of(sm), (sm.m, sm.abar)


# ---------------------------------------------------------------------------
# extended semi-modules
# ---------------------------------------------------------------------------

def test_cyclic_phi_presence():
    sm0 = O.from_lambda((0,) * 5, 2)
    mu = (1, 1, 0, 0, 0)
    ext = O.cyclic_phi(sm0, mu)
    assert ext is not None and ext.dim == 0
    sm1 = O.from_lambda(coroot(5, 1, 5), 2)
    ext1 = O.cyclic_phi(sm1, mu)
    assert ext1 is not None and ext1.dim == 1
    assert O.cyclic_phi(sm0, (2, 0, 0, 0, 0)) is None


def test_cyclic_phi_omega1():
    for n in (2, 3, 5):
        for sm in O.enumerate_semimodules(1, n):
            ext = O.cyclic_phi(sm, O.omega(n, 1))
            assert ext is not None and ext.dim == 0


def test_strata_omega2():
    # one stratum per dimension 0..(n-3)/2, explicit coweight representatives
    for n in (5, 7, 9):
        exts = S.enumerate_extended(O.omega(n, 2))
        assert all(e.is_cyclic for e in exts)
        by_dim = {e.dim: e.base.lam for e in exts}
        assert sorted(by_dim) == list(range((n - 3) // 2 + 1))
        for j in range(1, (n - 3) // 2 + 1):
            if j % 2:
                terms = [coroot(n, t, n - t + 1) for t in range(1, j + 1, 2)]
            else:
                terms = [coroot(n, t, n - t + 1) for t in range(2, j + 1, 2)]
            assert by_dim[j] == addv(*terms) if len(terms) > 1 else terms[0]
        assert by_dim[0] == (0,) * n


def test_strata_omega3():
    exts7 = S.enumerate_extended(O.omega(7, 3))
    got7 = {}
    for e in exts7:
        got7.setdefault(e.dim, set()).add(e.base.lam)
    assert got7 == {
        0: {(0,) * 7},
        1: {coroot(7, 1, 7)},
        2: {coroot(7, 1, 6), coroot(7, 2, 7)},
        3: {coroot(7, 3, 5)},
    }
    exts8 = S.enumerate_extended(O.omega(8, 3))
    got8 = {}
    for e in exts8:
        got8.setdefault(e.dim, set()).add(e.base.lam)
    assert got8 == {
        0: {(0,) * 8},
        1: {coroot(8, 1, 8)},
        2: {coroot(8, 1, 7), coroot(8, 2, 8)},
        3: {coroot(8, 2, 6), coroot(8, 3, 7)},
        4: {addv(coroot(8, 1, 8), coroot(8, 4, 5))},
    }


def expected_hook_family_reps(n, j):
    """The coweight lists for omega_1 + omega_(n-2): ascending chains of
    nested coroot sums up to the middle, then the mirrored tail."""
    out = []
    half = (j + 1) // 2 if j % 2 else j // 2
    for k in range(1, j + 1):
        if k <= half:
            terms = [coroot(n, t, n - j + 2 * k - t) for t in range(1, k + 1)]
        else:
            terms = [coroot(n, 2 * k - j - 1 + t, n + 1 - t)
                     for t in range(1, j + 2 - k)]
        out.append(addv(*terms) if len(terms) > 1 else terms[0])
    return set(out)


def test_strata_omega1_plus_omega_nminus2():
    for n in range(4, 9):
        mu = addv(O.omega(n, 1), O.omega(n, n - 2))
        exts = S.enumerate_extended(mu)
        assert all(e.is_cyclic for e in exts)
        got = {}
        for e in exts:
            got.setdefault(e.dim, set()).add(e.base.lam)
        assert 0 not in got
        for j in range(1, n - 1):
            assert got[j] == expected_hook_family_reps(n, j)
            assert len(got[j]) == j


def test_strata_omega1_plus_omega2_rank5():
    exts = S.enumerate_extended((2, 1, 0, 0, 0))
    assert all(e.is_cyclic for e in exts)
    got = {}
    for e in exts:
        got.setdefault(e.dim, set()).add(e.base.lam)
    assert got == {
        2: {coroot(5, 1, 4), coroot(5, 2, 5)},
        3: {coroot(5, 2, 3), coroot(5, 3, 4)},
    }


def test_noncyclic_exists_rank78():
    for n in (7, 8):
        mu = (2, 1) + (0,) * (n - 2)
        exts = S.enumerate_extended(mu)
        assert any(not e.is_cyclic for e in exts)
        # the non-cyclic pairs sit strictly below the top dimension here
        top = S.dim_x_mu(mu)
        assert all(e.is_cyclic for e in exts if e.dim == top)


def test_noncyclic_pair_detail_rank7():
    # the non-cyclic pair over the top omega_3 semi-module: phi drops to 0 at
    # the unique class minimum with slack, and dim drops by one from 5 to 4
    mu = (2, 1, 0, 0, 0, 0, 0)
    exts = S.enumerate_extended(mu)
    ncyc = [e for e in exts if not e.is_cyclic]
    assert len(ncyc) == 1
    e = ncyc[0]
    assert e.base.lam == coroot(7, 3, 5)
    diffs = [(a, v, e.base.maxk(a)) for a, v in e.phi_free if v != e.base.maxk(a)]
    assert diffs == [(1, 0, 1)]
    assert e.dim == 4


BRUTE_FORCE_SHAPES = [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0),
                      (2, 1, 1, 0, 0), (3, 1, 0), (2, 1, 0, 0, 0, 0, 0)]


def _brute_force_candidates(mu):
    """Every extended semi-module candidate for mu: each valid type under
    mu, with every phi value up to maxk on its free region."""
    n = len(mu)
    for mu_p in itertools.product(range(mu[0] + 1), repeat=n):
        if sum(mu_p) != sum(mu):
            continue
        if not O.dominance_leq(O.dominant_sort(mu_p), mu):
            continue
        sm = O.valid_type(mu_p, sum(mu), n)
        if sm is None:
            continue
        free = sm.elements(sm.abar[0], sm.conductor)
        for vals in itertools.product(*[range(sm.maxk(a) + 1) for a in free]):
            yield S.ExtendedSemiModule(base=sm, mu=mu, phi_free=tuple(zip(free, vals)))


def test_enumerate_matches_raw_product_enumeration():
    # the level-quota generator agrees with brute force over all phi values
    # bounded by the cap, filtered only by the independent checker
    for mu in BRUTE_FORCE_SHAPES:
        smart = sorted((e.base.lam, e.phi_free) for e in S.enumerate_extended(mu))
        brute = []
        for ext in _brute_force_candidates(mu):
            ok = S.verify_extended(ext)
            # the verdict does not depend on the window (see its proof)
            assert S.verify_extended(ext, scale=2) == ok
            assert S.verify_extended(ext, scale=3) == ok
            if ok:
                brute.append((ext.base.lam, ext.phi_free))
        assert smart == sorted(brute)


def test_check_window_gives_the_verdict_of_the_printed_window(monkeypatch):
    # verify_extended's window ends at conductor + 2n; on every brute-force
    # candidate, accepted or not, its verdict is the one it gives when the
    # window ends where the printed window does, at _window_end
    candidates = [ext for mu in BRUTE_FORCE_SHAPES for ext in _brute_force_candidates(mu)]
    verdicts = [S.verify_extended(ext) for ext in candidates]
    assert 0 < sum(verdicts) < len(verdicts)
    assert all(S._check_end(ext) < S._window_end(ext) for ext in candidates)
    monkeypatch.setattr(S, "_check_end", S._window_end)
    assert [S.verify_extended(ext) for ext in candidates] == verdicts


def _chains_exist_oracle(ext):
    """Oracle for condition (4), with no phi search: per level, the elements
    needing a jump must match injectively into the elements with no forced
    predecessor one level up, and the leftovers (the chain starts) must
    realize mu.  Levels are independent, so it matches level by level."""
    base = ext.base
    n = base.n
    free = dict(ext.phi_free)

    def phi(a):
        if a >= base.conductor:
            return base.maxk(a)
        return free[a]

    # jumping elements, grouped by their value
    jumps = {}
    for a, v in ext.phi_free:
        if phi(a + n) > v + 1:
            jumps.setdefault(v, []).append(a)

    # elements with no forced predecessor, grouped by value:
    # class minima, and free/tail elements whose predecessor's value is lower
    loose = {}
    for r in range(n):
        a0 = base.class_min[r]
        loose.setdefault(phi(a0), []).append(a0)
    for a, v in ext.phi_free:
        if phi(a + n) != v + 1:
            loose.setdefault(phi(a + n), []).append(a + n)

    # chain starts are the loose elements not consumed as jump targets;
    # their value multiset is forced by counting
    start_count = Counter({v: len(els) for v, els in loose.items()})
    for v, js in jumps.items():
        start_count[v + 1] -= len(js)
    if {k: v for k, v in start_count.items() if v} != Counter(ext.mu):
        return False

    # per level: injective matching of jumps at value v into loose elements
    # at value v + 1 strictly beyond a + n
    return all(_match_oracle(sorted(js, reverse=True), sorted(loose.get(v + 1, [])), n)
               for v, js in jumps.items())


def _match_oracle(jumps, targets, n):
    """Oracle for _level_matches: backtracking search for an injective
    matching of jumps into targets, a jump a only to a target beyond a + n."""
    def rec(i, used):
        if i == len(jumps):
            return True
        a = jumps[i]
        for t in targets:
            if t in used or t <= a + n:
                continue
            used.add(t)
            if rec(i + 1, used):
                return True
            used.discard(t)
        return False

    return rec(0, set())


def test_phi_search_yields_only_chain_decomposable_candidates():
    # the phi search alone decides condition (4): the oracle rejects none of
    # its candidates on the cyclicity range (n <= 6 with mu_1 <= 5, and
    # n = 7 with mu_1 <= 3)
    from adlv import compare as CP

    ranges = [(n, 5) for n in range(2, 7)] + [(7, 3)]
    for n, mu1 in ranges:
        for mu in CP.dominant_shapes(n, mu1):
            for sm in S._semimodules_below(mu):
                for free in S._phi_assignments(sm, mu):
                    ext = S.ExtendedSemiModule(base=sm, mu=mu, phi_free=free)
                    assert _chains_exist_oracle(ext), (mu, sm.lam, free)


def test_level_matches_agrees_with_backtracking():
    # the greedy Hall test against the backtracking matcher
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.randint(1, 6)
        jumps = rng.sample(range(-10, 20), rng.randint(0, 5))
        loose = rng.sample(range(-10, 30), rng.randint(0, 6))
        assert S._level_matches(jumps, loose, n) == \
            _match_oracle(sorted(jumps, reverse=True), sorted(loose), n), (jumps, loose, n)


def test_enumerate_extended_raises_on_a_candidate_the_checker_rejects(monkeypatch):
    # phi(-1) = 0 on A^(1,0,0,0,-1) is within its cap and increasing along
    # its class, but no chain decomposition realizes mu = (2, 1, 0, 0, 0):
    # should the search ever yield it, enumerate_extended raises, it does
    # not drop it
    mu = (2, 1, 0, 0, 0)
    bad_sm = O.from_lambda((1, 0, 0, 0, -1), 3)
    bad = ((-1, 0),)
    ext = S.ExtendedSemiModule(base=bad_sm, mu=mu, phi_free=bad)
    assert not S.verify_extended(ext) and not _chains_exist_oracle(ext)
    assert bad not in S._phi_assignments(bad_sm, mu)

    search = S._phi_assignments

    def search_and_bad(sm, mu):
        return search(sm, mu) + ([bad] if sm == bad_sm else [])

    monkeypatch.setattr(S, "_phi_assignments", search_and_bad)
    with pytest.raises(AssertionError, match="generator/checker disagreement"):
        S.enumerate_extended(mu)


def test_phi_table_matches_phi():
    # the phi table and the reporting window, both read off one walk per
    # residue class, against phi from its definition point by point
    for mu in [(2, 1, 0, 0, 0), (3, 1, 0), (2, 2, 1, 0), (2, 1, 0, 0, 0, 0, 0)]:
        for e in S.enumerate_extended(mu):
            base = e.base
            hi = S._window_end(e) + base.n
            assert S._phi_table(e, hi) == {a: v for a in range(base.abar[0] - base.n, hi)
                                           if (v := O.phi_at(e, a)) is not None}
            for scale in (1, 2, 3):
                assert e.phi_window(scale) == tuple(
                    (a, O.phi_at(e, a))
                    for a in base.elements(base.abar[0], S._window_end(e, scale)))


def test_window_doubling_stability():
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0), (2, 1, 1, 1, 0, 0),
               (3, 1, 0), (2, 2, 1, 0)]:
        for e in S.enumerate_extended(mu):
            assert S.verify_extended(e, scale=2)
            assert S.verify_extended(e, scale=3)


def test_strata_keep_no_phi_table():
    # a stratum holds what the phi search decides and its two cached
    # verdicts; each reader of phi builds its own table and drops it
    fields = {"base", "mu", "phi_free", "dim", "is_cyclic"}
    for mu in [(2, 1, 0, 0, 0), (3, 1, 0), (2, 2, 1, 0), (2, 1, 1, 1, 0, 0)]:
        for e in S.enumerate_extended(mu) + S.cyclic_top_strata(mu):
            e.phi_window(2)
            assert set(vars(e)) <= fields, sorted(vars(e))


def test_independent_checker_rejects_bad_phi():
    sm = O.from_lambda(coroot(5, 1, 5), 2)
    good = O.cyclic_phi(sm, (1, 1, 0, 0, 0))
    bad_vals = tuple((a, v + 1) for a, v in good.phi_free)
    bad = S.ExtendedSemiModule(base=sm, mu=(1, 1, 0, 0, 0), phi_free=bad_vals)
    assert not S.verify_extended(bad)
    # a free a with a < conductor <= a + n and phi(a + n) <= phi(a): the
    # chains alone can be built here (a jumps past a + n), so only the
    # pointwise pass, reading phi(a + n) = maxk(a + n) past the conductor,
    # rejects it
    sm = O.from_lambda((1, 0, 1, -1, -1), 6)
    bad = S.ExtendedSemiModule(base=sm, mu=(3, 2, 1, 0, 0),
                               phi_free=((-2, 0), (-1, 1), (1, 0)))
    assert -1 < sm.conductor <= -1 + sm.n and O.phi_at(bad, -1 + sm.n) <= O.phi_at(bad, -1)
    assert not S.verify_extended(bad)
    assert not S.verify_extended(bad, scale=2)


def test_cyclicity_two_ways():
    # equality everywhere in the cap condition iff type is a rearrangement
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0)]:
        for e in S.enumerate_extended(mu):
            assert e.is_cyclic == \
                (sorted(e.base.type, reverse=True) == list(mu))


def test_smaller_type_carries_cyclic_pair():
    # a non-cyclic pair forces its semi-module's type below mu, and the same
    # semi-module then carries the cyclic pair for that smaller shape
    for mu in [(2, 1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0, 0)]:
        for e in S.enumerate_extended(mu):
            if e.is_cyclic:
                continue
            smaller = O.dominant_sort(e.base.type)
            assert O.dominance_leq(smaller, mu) and smaller != mu
            cyc = O.cyclic_phi(e.base, smaller)
            assert cyc is not None
            assert any(x.base.lam == e.base.lam and x.is_cyclic
                       for x in S.enumerate_extended(smaller))


# ---------------------------------------------------------------------------
# V sets, duality, dimension
# ---------------------------------------------------------------------------

def test_v_set_examples():
    mu = (1, 1, 0, 0, 0)
    e0 = O.cyclic_phi(O.from_lambda((0,) * 5, 2), mu)
    assert S.v_set(e0) == frozenset()
    e1 = O.cyclic_phi(O.from_lambda(coroot(5, 1, 5), 2), mu)
    assert len(S.v_set(e1)) == 1
    mu6 = (2, 1, 1, 1, 0, 0)
    top = [e for e in S.enumerate_extended(mu6) if e.dim == 4]
    assert top and all(len(S.v_set(e)) == 4 for e in top)


def test_dualize():
    assert O.dualize((1, 1, 0, 0, 0), (0,) * 5)[0] == (1, 1, 1, 0, 0)
    assert O.dualize((2, 0, 0), (0, 0, 0))[0] == (2, 2, 0)
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0), (3, 2, 1, 1, 0)]:
        n = len(mu)
        mu2, _ = O.dualize(*O.dualize(mu, (0,) * n))
        assert mu2 == mu
    lam = (1, 0, -1)
    assert O.dualize((2, 1, 0), lam)[1] == (1, 0, -1)


def test_duality_of_enumerations():
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 1, 1, 0, 0), (3, 1, 0)]:
        n = len(mu)
        mu_star, _ = O.dualize(mu, (0,) * n)
        ex = S.enumerate_extended(mu)
        exs = S.enumerate_extended(mu_star)
        assert Counter((e.dim, e.is_cyclic) for e in ex) == \
            Counter((e.dim, e.is_cyclic) for e in exs)
        assert {O.dualize(mu, e.base.lam)[1] for e in ex} == \
            {e.base.lam for e in exs}


def test_dim_x_mu():
    assert S.dim_x_mu((1, 1, 0, 0, 0)) == 1
    assert S.dim_x_mu((1, 1, 1, 0, 0, 0, 0)) == 3
    for n in (2, 3, 5, 6):
        assert S.dim_x_mu(O.omega(n, 1)) == 0
    with pytest.raises(ValueError):
        S.dim_x_mu((1, 1, 0, 0))   # gcd(2, 4) != 1


def test_dim_matches_max_vset():
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 1, 1, 0, 0), (3, 1, 0), (2, 2, 1, 0)]:
        exts = S.enumerate_extended(mu)
        assert max(e.dim for e in exts) == S.dim_x_mu(mu)


def test_pair_count_equals_v_set_size():
    # dim = |V(A, phi)| = P(mu) - Q(A, phi) on every extended semi-module of
    # every shape over n <= 6 (6,224 of the 12,342 below the top)
    from adlv import compare as CP

    checked = below_top = 0
    for n, mu1 in [(2, 8), (3, 8), (4, 6), (5, 6), (6, 5)]:
        for mu in CP.dominant_shapes(n, mu1):
            total, d = S._pair_total(mu), S.dim_x_mu(mu)
            for e in S.enumerate_extended(mu):
                assert total - S._pairs_below(e.base, e.phi_free) == len(S.v_set(e)), \
                    (mu, e.base.lam, e.phi_free)
                checked += 1
                below_top += e.dim < d
    assert (checked, below_top) == (12342, 6224)


def test_pair_count_by_hand():
    # (2,1,0,0,0): L_0 = 3, L_1 = 4, so P = 3*2 + 4*1 = 10, and
    # dim X_mu = (2*4 + 1*2 - 4) / 2 = 3; omega_3 at n = 7: L_0 = 4, so
    # P = 4*3 = 12, and dim X_mu = (6 + 4 + 2 - 6) / 2 = 3.  A stratum is top
    # exactly when Q = P - dim X_mu
    for mu, total, d in [((2, 1, 0, 0, 0), 10, 3), ((1, 1, 1, 0, 0, 0, 0), 12, 3)]:
        assert S._pair_total(mu) == total and S.dim_x_mu(mu) == d
        assert total - d >= 0
        exts = S.enumerate_extended(mu)
        assert any(e.dim == d for e in exts) and any(e.dim < d for e in exts)
        for e in exts:
            q = S._pairs_below(e.base, e.phi_free)
            assert (e.dim == d) == (q == total - d), (mu, e.base.lam, e.phi_free)


def test_cyclic_top_strata_match_the_phi_search():
    # the strata built from their types against the cyclic top strata of
    # the full enumeration, compared as whole tuples in order, on the
    # benchmark's cyclicity range (n <= 5 with mu_1 <= 5, n = 6, 7 with
    # mu_1 <= 3) and on dominant_shapes(8, 3)
    from adlv import compare as CP

    ranges = [(n, 5) for n in range(2, 6)] + [(6, 3), (7, 3), (8, 3)]
    shapes = [mu for n, mu1 in ranges for mu in CP.dominant_shapes(n, mu1)]
    assert len(shapes) == 295
    for mu in shapes:
        d = S.dim_x_mu(mu)
        assert S.cyclic_top_strata(mu) == \
            tuple(e for e in S.enumerate_extended(mu) if e.is_cyclic and e.dim == d), mu


def test_cyclic_pair_count_reads_the_type():
    # the closed form of _cyclic_pairs_below against _pairs_below on
    # (from_type(mu'), maxk), for every rearrangement under the slope of the
    # shapes of test_cyclic_top_strata_match_the_phi_search, kept or not
    ranges = [(n, 5) for n in range(2, 6)] + [(6, 3), (7, 3), (8, 3)]
    shapes = [mu for n, mu1 in ranges for mu in CP.dominant_shapes(n, mu1)]
    assert len(shapes) == 295
    tried = 0
    for mu in shapes:
        m, n = sum(mu), len(mu)
        for mu_prime in W.rearrangements_under_slope(mu):
            sm = S.from_type(mu_prime)
            free = tuple((a, sm.maxk(a)) for a in sm.elements(sm.abar[0], sm.conductor))
            assert S._cyclic_pairs_below(mu_prime, m, n) == S._pairs_below(sm, free), mu_prime
            tried += 1
    assert tried == 6481


def test_cyclic_top_strata_build_only_the_kept_types(monkeypatch):
    # from_type runs once per stratum returned, none for a type whose count
    # falls below dim X_mu
    built = []

    def counted(mu_prime, _inner=S.from_type):
        built.append(mu_prime)
        return _inner(mu_prime)

    monkeypatch.setattr(S, "from_type", counted)
    skipped = 0
    for mu in [(2, 1, 0, 0, 0), (3, 2, 1, 1, 0), (3, 3, 1, 0), (5, 3, 2, 1, 0),
               (2, 1, 1, 1, 1, 0, 0), (4, 2, 1, 1, 0, 0, 0)]:
        built.clear()
        out = S.cyclic_top_strata(mu)
        assert len(built) == len(out)
        assert sorted(built) == sorted(e.base.type for e in out)
        skipped += len(list(W.rearrangements_under_slope(mu))) - len(out)
    assert skipped > 0


def test_pair_count_off_by_one_raises(monkeypatch):
    # a pair count off by one must raise, not filter, on the full
    # enumeration and on the strata built from their types alike; with the
    # dimension counted one too low, the top strata built from their types
    # fall below dim X_mu and out, and the crystal route finds them missing
    from adlv import compare as CP

    mu = (2, 1, 0, 0, 0)
    count = S._pairs_below
    for off in (-1, 1):
        monkeypatch.setattr(S, "_pairs_below", lambda sm, free: count(sm, free) + off)
        with pytest.raises(AssertionError, match="pair count and v_set disagree"):
            S.enumerate_extended(mu)
    cyclic_count = S._cyclic_pairs_below
    monkeypatch.setattr(S, "_cyclic_pairs_below",
                        lambda mp, m, n: cyclic_count(mp, m, n) - 1)
    with pytest.raises(AssertionError, match="pair count and v_set disagree"):
        S.cyclic_top_strata(mu)
    monkeypatch.setattr(S, "_cyclic_pairs_below",
                        lambda mp, m, n: cyclic_count(mp, m, n) + 1)
    assert S.cyclic_top_strata(mu) == ()
    with pytest.raises(AssertionError, match="routes disagree"):
        CP.all_top_cyclic(mu, len(mu))


def test_lambda_b():
    assert S.lambda_b(2, 5) == (0, 0, 1, 0, 1)
    assert S.lambda_b(3, 7) == (0, 0, 1, 0, 1, 0, 1)
    for m, n in [(2, 5), (3, 7), (5, 6), (7, 5)]:
        lb = S.lambda_b(m, n)
        assert sum(lb) == m
        assert all(v in (m // n, m // n + 1) for v in lb)
        assert tuple(W.tau(n, m).trans) == O.dominant_lambda_b(m, n)


@st.composite
def coprime_pairs(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.sampled_from([m for m in range(1, 9) if math.gcd(m, n) == 1]))
    return m, n


@given(coprime_pairs())
@settings(max_examples=40, deadline=None)
def test_types_partition_sum(mn):
    m, n = mn
    sms = O.enumerate_semimodules(m, n)
    for sm in sms:
        assert sum(O.type_of(sm)) == m
        assert sum(sm.abar) == n * (n - 1) // 2
        assert sum(sm.lam) == 0
