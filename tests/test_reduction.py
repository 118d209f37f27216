import random

import pytest

from adlv import admissible as A
from adlv import compare as CP
from adlv import reduction as R
from adlv import weyl as W

import oracles as O


def test_trivial_class_polynomial():
    for n, m in [(2, 1), (5, 2), (7, 3)]:
        cp = R.class_polynomial(W.tau(n, m), m)
        assert cp.coefficients == (1,)
        assert cp.path_profile == (((0, 0), 1),)
        assert cp.dim_from_tree == 0 and cp.top_components == 1


def test_fixture_rank5():
    w = W.parse_element("s0*s4*tau^2", 5)
    cp = R.class_polynomial(w, 2)
    assert cp.coefficients == (0, 1)          # F = q
    assert cp.dim_from_tree == 1 and cp.top_components == 1


def test_sum_over_cyclic_rank5():
    total = O.poly_sum(R.class_polynomial(w, 2).coefficients
                       for w in A.s_adm_cyc((1, 1, 0, 0, 0)))
    assert total == (1, 1)                    # 1 + q


def test_sum_over_cyclic_rank7():
    total = O.poly_sum(R.class_polynomial(w, 3).coefficients
                       for w in A.s_adm_cyc((1, 1, 1, 0, 0, 0, 0)))
    assert total == (1, 1, 2, 1)              # 1 + q + 2q^2 + q^3


def test_rank2_family():
    # t^((m+1)/2, -(m-1)/2) s_1 reduces to tau through (m-1)/2 closed steps
    for m in (1, 3, 5, 7, 9):
        w = W.mul(W.from_translation(((m + 1) // 2, -(m - 1) // 2)),
                  W.simple_reflection(2, 1))
        cp = R.class_polynomial(w, 1)
        d = (m - 1) // 2
        assert cp.dim_from_tree == d
        assert cp.coefficients == (0,) * d + (1,)


def test_path_length_accounting():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3, 4, 5])
        w = W.identity(n)
        for _ in range(rng.randint(0, 6)):
            w = W.mul(w, W.simple_reflection(n, rng.randrange(n)))
        w = W.mul(w, W.tau(n, rng.randint(0, 2)))
        lw = W.length(w)
        for end, profile in R.path_profiles(w).items():
            drop = lw - W.length(end)
            for (a, b), _count in profile.items():
                assert a + 2 * b == drop


def refinement_shapes(n_max):
    for n in range(2, n_max + 1):
        for mu in CP.dominant_shapes(n, CP.HARD_MAX_MU1):
            if CP.condition_iii(mu, n):
                yield mu


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_shared_memo_matches_fresh_memo(seed):
    # the trees of a shape's cyclic elements share one memo; each class
    # polynomial equals the one built from a memo of its own
    for mu in refinement_shapes(7):
        m = sum(mu)
        shared = CP._class_polynomials(mu, m, seed)
        assert shared == {w: R.class_polynomial(w, m, seed=seed)
                          for w in sorted(A.s_adm_cyc(mu))}


def test_compare_expands_each_element_once(tmp_path, monkeypatch):
    # one reduction step search per distinct element over all of a shape's
    # trees
    from adlv import cli

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    calls = []

    def counted(w, rng=None, _inner=R.find_reduction_step):
        calls.append(w)
        return _inner(w, rng)

    monkeypatch.setattr(R, "find_reduction_step", counted)
    assert cli.main(["compare", "--mu", "2,1,1,1,1,0,0",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert calls and len(calls) == len(set(calls))


def test_compare_computes_lengths_only_for_output_and_checks(tmp_path, monkeypatch):
    # reduction steps are found by descent tests: length is computed only for
    # the length column of each s_adm row and for the checks of each class
    # polynomial (w itself and every end point of its tree)
    from adlv import cli

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    lengths = []
    checks = []

    def counted_length(w, _inner=W.length):
        lengths.append(w)
        return _inner(w)

    def counted_checks(w, m, byend, _inner=R._class_polynomial_of_profiles):
        checks.append(1 + len(byend))
        return _inner(w, m, byend)

    monkeypatch.setattr(W, "length", counted_length)
    monkeypatch.setattr(R, "_class_polynomial_of_profiles", counted_checks)
    mu = (2, 1, 1, 1, 1, 0, 0)
    assert cli.main(["compare", "--mu", ",".join(map(str, mu)),
                     "--out", str(tmp_path / "r.json")]) == 0
    assert checks
    assert len(lengths) <= len(A.s_adm(mu)) + sum(checks)


def test_evaluation_and_q1():
    # at q = 1 the polynomial counts the paths with no open steps
    for w, m in [(W.parse_element("s0*s6*s5*s1*s0*s6*tau^3", 7), 3),
                 (W.parse_element("s0*s4*tau^2", 5), 2)]:
        cp = R.class_polynomial(w, m)
        ones = sum(c for (a, b), c in cp.path_profile if a == 0)
        assert O.evaluate(cp, 1) == ones
        assert sum(cp.coefficients) == O.evaluate(cp, 1)
    # the binomial expansion of the (q-1)-basis profile agrees with the sum
    # of c (q-1)^a q^b at more points than its degree, on every element of
    # s_adm of five shapes (zero polynomials included)
    count = 0
    for mu in [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 1, 1, 0, 0), (1, 1, 1, 0, 0, 0, 0),
               (2, 1, 1, 1, 0, 0)]:
        for w in A.s_adm(mu):
            cp = R.class_polynomial(w, sum(mu))
            count += 1
            for q in range(-1, len(cp.coefficients) + 1):
                assert O.evaluate(cp, q) == sum(c * q ** i
                                                for i, c in enumerate(cp.coefficients)), w
    assert count == 176


def test_nonnegative_in_qminus1_basis():
    # the path profile is the (q-1)-basis expansion: counts are nonnegative
    for mu, m in [((1, 1, 0, 0, 0), 2), ((1, 1, 1, 0, 0, 0, 0), 3)]:
        for w in A.s_adm_cyc(mu):
            cp = R.class_polynomial(w, m)
            assert all(c > 0 for (_, _), c in cp.path_profile)


def test_find_reduction_step_minimal():
    for n, m in [(3, 1), (5, 2)]:
        assert R.find_reduction_step(W.tau(n, m)) is None
    w = W.parse_element("s0*s4*tau^2", 5)
    step = R.find_reduction_step(w)
    assert step is not None
    pivot, s = step
    assert W.length(pivot) == W.length(w)
    assert W.length(W.right_mul_simple(W.left_mul_simple(s, pivot), s)) == \
        W.length(pivot) - 2


def test_length_one_elements_settle():
    # any length-1 element in the right coset either reduces or is minimal,
    # decided by the orbit search
    for n in (2, 3, 4):
        w = W.mul(W.simple_reflection(n, 0), W.tau(n))
        step = R.find_reduction_step(w)
        if step is None:
            assert W.length(w) == 1
        else:
            cp = R.class_polynomial(w, 1)
            assert sum(cp.coefficients) >= 0


def test_tree_invariance():
    cases = [(W.tau(5, 2), 2), (W.parse_element("s0*s4*tau^2", 5), 2),
             (W.parse_element("s0*s6*s5*s1*tau^3", 7), 3)]
    for w, m in cases:
        assert O.tree_invariance_check(w, m, trials=5, seed=11)
    with pytest.raises(ValueError):
        O.tree_invariance_check(W.tau(5, 2), 2, trials=1)

