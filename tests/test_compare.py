import itertools
import math
import random
from collections import Counter

import pytest

from adlv import admissible as A
from adlv import compare as CP
from adlv import crystal as C
from adlv import semimodule as S
from adlv import weyl as W

import oracles as O


# ---------------------------------------------------------------------------
# list predicates
# ---------------------------------------------------------------------------

def test_condition_iii_rows():
    assert CP.condition_iii((1, 0, 0, 0), 4)            # omega_1 always
    assert CP.condition_iii((1, 1, 0, 0, 0), 5)         # omega_2, odd n
    assert CP.condition_iii((1, 1, 0, 0, 0, 0, 0, 0, 0), 9)
    assert not CP.condition_iii((1, 1, 0, 0, 0, 0), 6)  # omega_2, even n
    assert CP.condition_iii((1, 1, 1, 0, 0, 0, 0), 7)
    assert CP.condition_iii((1, 1, 1, 0, 0, 0, 0, 0), 8)
    assert not CP.condition_iii((1, 1, 1, 0, 0, 0, 0, 0, 0), 9)
    assert CP.condition_iii((3, 0, 0, 0), 4)
    assert CP.condition_iii((3, 0, 0, 0, 0), 5)
    assert not CP.condition_iii((3, 0, 0, 0, 0, 0, 0), 7)
    assert CP.condition_iii((2, 1, 0, 0, 0), 5)         # omega_1+omega_2 at 5
    assert not CP.condition_iii((2, 1, 0, 0, 0, 0, 0), 7)
    assert CP.condition_iii((2, 1, 1, 1, 0, 0), 6)      # omega_1+omega_(n-2)
    assert CP.condition_iii((2, 2, 1, 1, 1, 0), 6)      # omega_2+omega_(n-1)
    assert CP.condition_iii((4, 0, 0), 3)
    assert CP.condition_iii((4, 1, 0), 3)               # 3 omega_1 + omega_2
    for m in (1, 3, 5, 9):
        assert CP.condition_iii((m, 0), 2)
    assert not CP.condition_iii((2, 0), 2)


def test_thm12_rows():
    assert CP.thm12_member((1, 1, 0, 0, 0), 5)          # (i)
    assert not CP.thm12_member((1, 1, 0, 0), 4)         # gcd(2,4) fails (i)
    assert CP.thm12_member((2, 1, 1, 0, 0), 5)          # (ii), i+1 = 4
    assert not CP.thm12_member((2, 1, 1, 1, 0), 5)      # (ii), i+1 = 5 fails
    assert CP.thm12_member((2, 2, 1, 0), 4)             # (ii) dual form
    assert CP.thm12_member((5, 0, 0), 3)                # (iii)
    assert CP.thm12_member((7, 0, 0, 0, 0), 5)
    assert CP.thm12_member((4, 1, 0), 3)                # (iv): 3 omega_1 + omega_2
    assert not CP.thm12_member((3, 3, 1, 0), 4)
    assert not CP.thm12_member((2, 2, 0, 0, 0), 5)      # 2 omega_2
    # (v): omega_1 + omega_i + omega_(n-1) with gcd(i, n) = 1
    assert CP.thm12_member((3, 2, 1, 1, 0), 5)          # i = 2
    assert CP.thm12_member((3, 2, 2, 1, 0), 5)          # i = 3, the dual
    assert CP.thm12_member((3, 2, 1, 1, 1, 1, 0), 7)
    assert not CP.thm12_member((3, 2, 1, 1, 1, 0), 6)   # gcd(2, 6) fails (v)


def _list_shapes():
    """Every dominant mu with mu(n) = 0 for n <= 9 with mu_1 <= 4, and for
    n <= 6 with mu_1 <= 8, coprime totals or not."""
    return [(rest + (0,), n) for n in range(2, 10)
            for rest in itertools.combinations_with_replacement(
                range(8 if n <= 6 else 4, -1, -1), n - 1)]


def test_list_predicates_match_their_forms():
    # condition_iii and thm12_clause decide from mu's fundamental coweights
    # up to duality; the reference routes build every listed form
    shapes = _list_shapes()
    assert len(shapes) == 3036
    for mu, n in shapes:
        assert CP.condition_iii(mu, n) == O.condition_iii_by_forms(mu, n), mu
        assert CP.thm12_clause(mu, n) == O.thm12_clause_by_forms(mu, n), mu


def test_thm12_clause_labels():
    assert CP.thm12_clause((1, 1, 0, 0, 0), 5) == "i"
    assert CP.thm12_clause((2, 1, 1, 0, 0), 5) == "ii"
    assert CP.thm12_clause((5, 0, 0), 3) == "iii"
    assert CP.thm12_clause((4, 1, 0), 3) == "iv"
    assert CP.thm12_clause((3, 2, 1, 1, 0), 5) == "v"
    assert CP.thm12_clause((3, 2, 2, 1, 0), 5) == "v"
    assert CP.thm12_clause((3, 2, 1, 1, 1, 0), 6) is None
    assert CP.thm12_clause((2, 2, 0, 0, 0), 5) is None
    # i = 1 and i = n-1 of (v) are already shapes of (iv)
    for n in (4, 5, 6, 7):
        assert CP.thm12_clause((3,) + (1,) * (n - 2) + (0,), n) == "iv"
        assert CP.thm12_clause((3,) + (2,) * (n - 2) + (0,), n) == "iv"


# ---------------------------------------------------------------------------
# computed verdicts
# ---------------------------------------------------------------------------

def test_all_top_cyclic_examples():
    assert CP.all_top_cyclic((2, 1, 0, 0, 0), 5)
    assert CP.all_top_cyclic((2, 1, 0, 0, 0, 0, 0), 7)   # despite lower non-cyclic
    assert CP.all_top_cyclic((2, 2, 1, 0), 4)
    assert not CP.all_top_cyclic((3, 3, 1, 0), 4)
    assert not CP.all_top_cyclic((2, 2, 0, 0, 0), 5)
    assert CP.all_top_cyclic((1, 1, 0, 0, 0), 5)


def _ssyt_count(shape, content):
    """Semistandard tableaux of the given shape and content, by brute force."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    left = list(content)
    grid = {}

    def rec(k):
        if k == len(cells):
            return 1
        r, c = cells[k]
        lo = 0
        if c > 0:
            lo = max(lo, grid[(r, c - 1)])
        if r > 0:
            lo = max(lo, grid[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, len(content)):
            if left[v]:
                left[v] -= 1
                grid[(r, c)] = v
                total += rec(k + 1)
                left[v] += 1
        return total

    return rec(0)


def _cyclic_top_count(mu):
    """Semi-modules whose type rearranges mu and whose cyclic extension has
    the top dimension.  Only the rearrangements of mu that pass the slope
    test are types, so only those are built."""
    n, m = len(mu), sum(mu)
    top = S.dim_x_mu(mu)
    count = 0
    for mu_prime in W.rearrangements_under_slope(mu):
        ext = O.cyclic_phi(O.valid_type(mu_prime, m, n), mu)
        if ext.dim == top:
            count += 1
    return count


def test_clause_v_family_tableau_count():
    # third route, free of the crystal construction and the phi search: the
    # top strata number dim V_mu(lambda_b), the Kostka number, so when the
    # cyclic top strata alone reach that count every top stratum is cyclic
    family = [(n, (3,) + (2,) * (i - 1) + (1,) * (n - 1 - i) + (0,))
              for n in (5, 7, 8, 9) for i in range(2, n - 1) if math.gcd(i, n) == 1]
    assert len(family) == 12
    for n, mu in family:
        kostka = _ssyt_count(mu, S.lambda_b(sum(mu), n))
        assert _cyclic_top_count(mu) == kostka > 0, mu
        assert CP.thm12_clause(mu, n) == "v"
        if n == 9:
            # i = 2, 4, 5, 7: the two-route verdict agrees with the count
            assert CP.all_top_cyclic(mu, n), mu
    # negative controls: a non-cyclic top stratum leaves the count short
    for mu in [(2, 2, 0, 0, 0), (3, 3, 1, 0)]:
        kostka = _ssyt_count(mu, S.lambda_b(sum(mu), len(mu)))
        assert _cyclic_top_count(mu) < kostka, mu


def test_all_top_cyclic_checks_and_measures_only_top_strata(monkeypatch):
    # the standalone verdict runs no phi search: verify_extended and v_set
    # run once per cyclic top stratum, K(mu, lambda_b) of them here, and
    # never on the other strata
    mu, n = (2, 1, 1, 1, 1, 0, 0), 7
    d = S.dim_x_mu(mu)
    full = S.enumerate_extended(mu)
    top = Counter(e for e in full if e.is_cyclic and e.dim == d)
    assert sum(top.values()) == _ssyt_count(mu, S.lambda_b(sum(mu), n)) < len(full)

    def recording(inner, calls):
        def recorder(ext, *args, **kwargs):
            calls[ext] += 1
            return inner(ext, *args, **kwargs)
        return recorder

    def no_search(*args):
        raise AssertionError("phi search reached")

    monkeypatch.setattr(S, "_phi_assignments", no_search)
    calls = {"verify_extended": Counter(), "v_set": Counter()}
    for name, counter in calls.items():
        monkeypatch.setattr(S, name, recording(getattr(S, name), counter))
    assert CP.all_top_cyclic(mu, n) == CP.thm12_member(mu, n)
    assert calls["verify_extended"] == top
    assert calls["v_set"] == top


def test_all_top_cyclic_raises_off_the_top_dimension(monkeypatch):
    # cyclic top strata the crystal does not match, one missing or one too
    # many, raise; so does a cyclic stratum above dim X_mu in the direct
    # build, and an enumeration in full_report that does not reach dim X_mu
    # or passes it
    mu, n = (2, 1, 0, 0, 0), 5
    top = S.cyclic_top_strata(mu)
    assert top
    for wrong in [(), top[1:], top + top[:1]]:
        with pytest.raises(AssertionError, match="routes disagree"):
            CP._all_top_cyclic(mu, n, 3, wrong)
    d = S.dim_x_mu(mu)
    for formula in [d - 1, d + 1]:
        monkeypatch.setattr(S, "dim_x_mu", lambda mu, formula=formula: formula)
        with pytest.raises(AssertionError, match="top dimension"):
            CP.full_report(mu, n)
    monkeypatch.setattr(S, "dim_x_mu", lambda mu: d - 1)
    with pytest.raises(AssertionError, match="above dim X_mu"):
        S.cyclic_top_strata(mu)


def test_all_top_cyclic_matches_the_full_comparison():
    # the count over the cyclic top strata against the oracle that compares
    # every top stratum, cyclic or not, with every tableau, on the
    # benchmark's cyclicity range (n <= 5 with mu_1 <= 5, n = 6, 7 with
    # mu_1 <= 3)
    ranges = [(n, 5) for n in range(2, 6)] + [(6, 3), (7, 3)]
    shapes = [mu for n, mu1 in ranges for mu in CP.dominant_shapes(n, mu1)]
    assert len(shapes) == 235
    for mu in shapes:
        n = len(mu)
        assert CP.all_top_cyclic(mu, n) == O.all_top_cyclic_by_enumeration(mu, n), mu


def test_condition_ii_examples():
    assert CP.condition_ii((2, 1, 1, 1, 0, 0), 6)        # omega_1+omega_(n-2)
    assert CP.condition_ii((1, 1, 0, 0, 0), 5)
    assert CP.condition_ii((2, 1, 0, 0, 0), 5)
    assert not CP.condition_ii((2, 2, 1, 0, 0, 0), 6)    # omega_2+omega_3 at 6
    assert not CP.condition_ii((2, 2, 0, 0, 0), 5)       # 2 omega_2 at 5
    assert not CP.condition_ii((2, 1, 0, 0, 0, 0, 0), 7)


def test_condition_ii_false_rank9():
    assert not CP.condition_ii(O.omega(9, 4), 9)


def test_condition_ii_matches_the_walk():
    # the block route against walking s_adm in order, each run on an empty
    # block cache, with the shapes in two orders, so that the blocks are
    # first decided under different shapes
    shapes = [(mu, 7) for mu in CP.dominant_shapes(7, 4)] \
        + [(mu, 8) for mu in CP.dominant_shapes(8, 3)]
    assert len(shapes) == 240
    walked = {mu: O.condition_ii_by_walk(mu, n) for mu, n in shapes}
    for seed in (1, 2):
        random.Random(seed).shuffle(shapes)
        CP._block_verdict.cache_clear()
        for mu, n in shapes:
            assert CP.condition_ii(mu, n) == walked[mu], mu


def test_condition_ii_tests_each_element_once(monkeypatch):
    # a sweep decides each block t^mu' y once: after a cache clear, no
    # minimal-coset element goes through x_w_nonempty twice
    calls = Counter()

    def counted(w, m, _inner=A.x_w_nonempty):
        calls[w] += 1
        return _inner(w, m)

    CP._block_verdict.cache_clear()
    monkeypatch.setattr(A, "x_w_nonempty", counted)
    for mu in CP.dominant_shapes(8, 4):
        CP.condition_ii(mu, 8)
    assert calls and max(calls.values()) == 1


def test_mus_below():
    assert list(W.dominant_below((1, 1, 0, 0, 0))) == [(1, 1, 0, 0, 0)]
    assert set(W.dominant_below((2, 1, 0, 0, 0))) == {(2, 1, 0, 0, 0), (1, 1, 1, 0, 0)}
    assert set(W.dominant_below((2, 2, 1, 0))) == {(2, 2, 1, 0), (2, 1, 1, 1)}
    for mu_p in W.dominant_below((3, 2, 1, 0, 0)):
        assert W.is_dominant(mu_p)
        assert O.dominance_leq(mu_p, (3, 2, 1, 0, 0))
    # on every dominant mu with n <= 6 and entries in 0..4, a lazy walk
    # over exactly the brute-force set (every non-increasing nonnegative
    # n-tuple of the same total below mu), in increasing lexicographic order
    candidates = {(n, m): [c for c in itertools.combinations_with_replacement(range(m, -1, -1), n)
                           if sum(c) == m]
                  for n in range(1, 7) for m in range(4 * n + 1)}
    shapes = [mu for n in range(1, 7)
              for mu in itertools.combinations_with_replacement(range(4, -1, -1), n)]
    assert len(shapes) == 461
    for mu in shapes:
        walk = W.dominant_below(mu)
        assert iter(walk) is walk, mu
        assert list(walk) == sorted(c for c in candidates[len(mu), sum(mu)]
                                    if O.dominance_leq(c, mu)), mu


def test_point_count_identity():
    assert CP.point_count_identity((1, 1, 0, 0, 0), 5)
    assert CP.point_count_identity((1, 1, 1, 0, 0, 0, 0), 7)
    assert CP.point_count_identity((2, 1, 0, 0, 0), 5)
    assert CP.point_count_identity((2, 1, 0, 0), 4)      # omega_1+omega_(n-2)


def test_full_report_refinement_case():
    rep = CP.full_report((1, 1, 0, 0, 0), 5)
    assert rep.cond_ii and rep.cond_iii and rep.thm12_member
    assert rep.all_top_cyclic and rep.point_count_identity
    # dims of the cyclic rows match the strata dims
    dims = sorted(r.dim for r in rep.eo_rows if r.dim is not None)
    assert dims == sorted(e.dim for e in rep.strata)
    nonempty = [r for r in rep.eo_rows if r.nonempty]
    assert all(r.coxeter_witness is not None for r in nonempty)
    assert all(W.cycle_type(r.element.perm) == (5,) for r in nonempty)


def test_full_report_raises_on_a_tree_with_no_tau_end(monkeypatch):
    # every cyclic element is non-empty, so a reduction tree with no path to
    # tau^m is a disagreement, not a row with no dimension
    from adlv import reduction as R

    monkeypatch.setattr(R, "class_polynomial",
                        lambda w, m, memo=None: R.ClassPolynomial((), (0,)))
    with pytest.raises(AssertionError, match="reduction tree and x_w_nonempty disagree"):
        CP.full_report((1, 1, 0, 0, 0), 5)


def test_eo_dims_match_strata_dims_hook_family():
    # the cyclic minimal-coset elements come in lengths 2j with exactly j of
    # each, matching the strata dimension multiset
    from collections import Counter

    from adlv import admissible as A
    from adlv import reduction as R
    from adlv import weyl as W2

    mu = (2, 1, 1, 1, 0, 0)
    n, m = 6, 5
    cyc = O.s_adm_cyc(mu)
    lengths = Counter(W2.length(w) for w in cyc)
    assert lengths == Counter({0: 1, **{2 * j: j for j in range(1, n - 1)}})
    tree_dims = Counter(R.class_polynomial(w, m).dim_from_tree for w in cyc)
    strata_dims = Counter(e.dim for mu_p in W.dominant_below(mu)
                          for e in S.enumerate_extended(mu_p))
    assert tree_dims == strata_dims


def test_full_report_non_superbasic_is_well_formed():
    # omega_3 at n = 9 is basic but not superbasic: the list and witness
    # verdicts still evaluate (both false), the semi-module side is omitted
    rep = CP.full_report(O.omega(9, 3), 9)
    assert rep.cond_iii is False
    assert rep.cond_ii is False
    assert rep.all_top_cyclic is None
    assert rep.point_count_identity is None
    assert rep.strata == ()
    assert rep.eo_rows


def test_full_report_matches_standalone_predicates():
    # full_report reads condition ii off its rows and shares the semi-modules
    # and class polynomials between verdicts; a compare sweep builds its rows
    # from the standalone predicates instead, so the two rows must agree on
    # all five verdicts
    from adlv import cli

    for n in range(2, 7):
        for mu in CP.dominant_shapes(n, 3):
            assert cli._sweep_row(mu, n) == cli._report_row(mu, n, detail=False), mu


def test_full_report_negative_case():
    rep = CP.full_report((2, 2, 0, 0, 0), 5)
    assert rep.cond_ii is False and rep.cond_iii is False
    assert rep.point_count_identity is None
    assert rep.all_top_cyclic is False and rep.thm12_member is False


def test_dominant_shapes_guard():
    shapes = list(CP.dominant_shapes(4, 3))
    assert all(W.is_dominant(mu) and mu[-1] == 0 and
               math.gcd(sum(mu), 4) == 1 for mu in shapes)
    with pytest.raises(ValueError):
        list(CP.dominant_shapes(10, 3))
    with pytest.raises(ValueError):
        list(CP.dominant_shapes(4, 9))


def _no_work(monkeypatch):
    """Every routine that starts the work of a verdict, made to raise."""
    def work(*args, **kwargs):
        raise AssertionError("work started before the shape check")

    for module, name in ((W, "dominant_below"), (W, "rearrangements_under_slope"),
                         (A, "s_adm_walk"), (C, "enumerate_weight_space"),
                         (S, "_semimodules_below"), (S, "_pair_total"), (S, "dim_x_mu")):
        monkeypatch.setattr(module, name, work)


def test_empty_mu_refused_before_any_work(monkeypatch):
    # the shape checks read mu[-1] only once mu has entries
    _no_work(monkeypatch)
    for call in (lambda: CP.condition_ii((), 0), lambda: CP.condition_iii((), 0),
                 lambda: S.enumerate_extended(()), lambda: S.cyclic_top_strata(())):
        with pytest.raises(ValueError):
            call()


def test_n_equal_to_one_refused_before_any_work(monkeypatch):
    # n = 1, refused by the CLI, is refused by every verdict as well: the
    # crystal side has no xi-family there, so the two computed verdicts
    # could not be asked and the list predicates would answer alone
    _no_work(monkeypatch)
    for verdict in (CP.all_top_cyclic, CP.full_report, CP.condition_ii, CP.condition_iii,
                    CP.thm12_member, CP.thm12_clause, CP.point_count_identity):
        with pytest.raises(ValueError, match="n >= 2"):
            verdict((0,), 1)


def test_verdicts_dual_invariant():
    # the list predicates on every shape of _list_shapes, where
    # condition_iii and thm12_clause test mu and mu* alike, and the
    # computed verdicts on five
    for mu, n in _list_shapes():
        mu_star, _ = O.dualize(mu, (0,) * n)
        assert CP.condition_iii(mu, n) == CP.condition_iii(mu_star, n), mu
        assert CP.thm12_clause(mu, n) == CP.thm12_clause(mu_star, n), mu
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0), (3, 1, 0),
               (3, 2, 1, 1, 0)]:
        n = len(mu)
        mu_star, _ = O.dualize(mu, (0,) * n)
        assert CP.all_top_cyclic(mu, n) == CP.all_top_cyclic(mu_star, n)
        assert CP.condition_ii(mu, n) == CP.condition_ii(mu_star, n)


def test_cyclicity_list_agrees_rank7():
    # clause (v) outside the acceptance range: on every n = 7 shape with
    # mu_1 <= 4, the four rank-7 family shapes are the ones where clauses
    # (i)-(iv) alone fall short
    shapes = list(CP.dominant_shapes(7, 4))
    assert len(shapes) == 180
    gap = []
    for mu in shapes:
        assert CP.all_top_cyclic(mu, 7) == CP.thm12_member(mu, 7), mu
        if CP.thm12_clause(mu, 7) == "v":
            gap.append(mu)
    assert sorted(gap) == [(3, 2, 1, 1, 1, 1, 0), (3, 2, 2, 1, 1, 1, 0),
                           (3, 2, 2, 2, 1, 1, 0), (3, 2, 2, 2, 2, 1, 0)]


def test_equivalence_agrees_rank7():
    # condition ii (Coxeter witnesses over s_adm) against the explicit list,
    # on every n = 7 shape with mu_1 <= 4, one rank past the acceptance sweep
    shapes = list(CP.dominant_shapes(7, 4))
    assert len(shapes) == 180
    for mu in shapes:
        assert CP.condition_ii(mu, 7) == CP.condition_iii(mu, 7), mu


def test_cyclicity_list_agrees_rank9():
    shapes = list(CP.dominant_shapes(9, 3))
    assert len(shapes) == 108
    for mu in shapes:
        assert CP.all_top_cyclic(mu, 9) == CP.thm12_member(mu, 9), mu


def test_cyclicity_list_agrees_rank8():
    # all_top_cyclic (both routes, compared in full) against the list on
    # every n = 8 shape with mu_1 <= 3
    shapes = list(CP.dominant_shapes(8, 3))
    assert len(shapes) == 60
    for mu in shapes:
        assert CP.all_top_cyclic(mu, 8) == CP.thm12_member(mu, 8), mu


def test_equivalence_agrees_rank8():
    # condition ii against condition iii on every n = 8 shape with mu_1 <= 4
    shapes = list(CP.dominant_shapes(8, 4))
    assert len(shapes) == 160
    for mu in shapes:
        assert CP.condition_ii(mu, 8) == CP.condition_iii(mu, 8), mu


def test_equivalence_agrees_rank9():
    # condition ii against condition iii two ranks past the acceptance sweep,
    # on every n = 9 shape with mu_1 <= 4
    shapes = list(CP.dominant_shapes(9, 4))
    assert len(shapes) == 330
    for mu in shapes:
        assert CP.condition_ii(mu, 9) == CP.condition_iii(mu, 9), mu


def test_condition_ii_draws_mu_prime_up_to_its_first_failing_block(monkeypatch):
    # the standalone verdict stops drawing from the dominance walk at the
    # first block that fails: with the k-th block failing, exactly k of the
    # many mu' below (8, 7, ..., 1, 0) are drawn
    drawn = []

    def counted(mu, _inner=W.dominant_below):
        for mu_p in _inner(mu):
            drawn.append(mu_p)
            yield mu_p

    monkeypatch.setattr(W, "dominant_below", counted)
    for k in (1, 3):
        drawn.clear()
        monkeypatch.setattr(CP, "_block_verdict", lambda mu_p, k=k: len(drawn) < k)
        assert not CP.condition_ii((8, 7, 6, 5, 4, 3, 2, 1, 0), 9)
        assert len(drawn) == k


def test_equivalence_gap_up_to_the_mu1_guard():
    # condition ii against condition iii on every shape with n <= 9 and
    # mu_1 up to the hard guard: the routes disagree exactly on 5 omega_1
    # and its dual 5 omega_2 at n = 3, where every non-empty element has a
    # Coxeter witness but the list stops at 4 omega_1 (7 omega_1 is false
    # on both routes).  The list is not edited to agree; see README.
    shapes = [(mu, n) for n in range(2, 10)
              for mu in CP.dominant_shapes(n, CP.HARD_MAX_MU1)]
    assert len(shapes) == 15288
    gap = [mu for mu, n in shapes
           if CP.condition_ii(mu, n) != CP.condition_iii(mu, n)]
    assert sorted(gap) == [(5, 0, 0), (5, 5, 0)]
    for mu in gap:
        assert CP.condition_ii(mu, 3) and not CP.condition_iii(mu, 3)
        nonempty = [w for w in A.s_adm_walk(mu) if A.x_w_nonempty(w, sum(mu))]
        assert nonempty and all(O.condition_ii_witness_by_candidates(w) is not None
                                for w in nonempty), mu
    assert not CP.condition_ii((7, 0, 0), 3) and not CP.condition_iii((7, 0, 0), 3)


def _shapes(n, mu1_max):
    """Every dominant mu with mu(n) = 0 and 1 <= mu_1 <= mu1_max, coprime
    totals or not."""
    return [(first,) + rest + (0,) for first in range(1, mu1_max + 1)
            for rest in itertools.combinations_with_replacement(
                range(first, -1, -1), n - 2)]


def test_equivalence_off_the_coprime_totals():
    # both conditions are defined without coprimality (b = tau^m need not
    # be superbasic); on every non-coprime shape with n <= 9 and mu_1 <= 8
    # they agree
    shapes = [(mu, n) for n in range(2, 10) for mu in _shapes(n, CP.HARD_MAX_MU1)
              if math.gcd(sum(mu), n) != 1]
    assert len(shapes) == 9013
    for mu, n in shapes:
        assert CP.condition_ii(mu, n) == CP.condition_iii(mu, n), mu


def test_equivalence_past_the_mu1_guard():
    # at n = 3 up to mu_1 = 20, coprime or not, the gap is still 5 omega_1
    # and 5 omega_2 alone; at n = 2 up to mu_1 = 40 and at n = 4 up to
    # mu_1 = 12 the routes agree everywhere
    gap = [mu for mu in _shapes(3, 20)
           if CP.condition_ii(mu, 3) != CP.condition_iii(mu, 3)]
    assert sorted(gap) == [(5, 0, 0), (5, 5, 0)]
    for n, top in ((2, 40), (4, 12)):
        for mu in _shapes(n, top):
            assert CP.condition_ii(mu, n) == CP.condition_iii(mu, n), mu
