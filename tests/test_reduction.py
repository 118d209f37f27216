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
                       for w in O.s_adm_cyc((1, 1, 0, 0, 0)))
    assert total == (1, 1)                    # 1 + q


def test_sum_over_cyclic_rank7():
    total = O.poly_sum(R.class_polynomial(w, 3).coefficients
                       for w in O.s_adm_cyc((1, 1, 1, 0, 0, 0, 0)))
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


@pytest.mark.parametrize("seed", [0, 3])
def test_shared_memo_matches_fresh_memo(seed):
    # the trees of a shape's cyclic elements share one memo; each class
    # polynomial equals the one built from a memo of its own
    for mu in refinement_shapes(7):
        m = sum(mu)
        cyclic = sorted(O.s_adm_cyc(mu))
        memo: dict = {}
        shared = {w: R.class_polynomial(w, m, seed=seed, memo=memo) for w in cyclic}
        assert shared == {w: R.class_polynomial(w, m, seed=seed) for w in cyclic}
        if seed == 0:
            assert CP._class_polynomials(cyclic, m) == shared


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_memo_matches_per_element_oracle(seed):
    # the memo keyed by orbit gives every cyclic element the class polynomial
    # of the reference route, one step search per distinct element
    for mu in [(2, 1, 1, 1, 1, 0, 0), (3, 2, 1, 1, 0), (2, 1, 0, 0, 0, 0, 0)]:
        m = sum(mu)
        cyclic = sorted(O.s_adm_cyc(mu))
        memo: dict = {}
        oracle_memo: dict = {}
        for w in cyclic:
            assert R.class_polynomial(w, m, seed=seed, memo=memo) == \
                O.class_polynomial_per_element(w, m, seed=seed, memo=oracle_memo), w
        assert len(memo) > len(oracle_memo)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_trees_match_full_trees(seed):
    # class_polynomial walks only the subtrees that can reach tau^m; on every
    # n-cycle element of the refinement shapes up to n = 7 and of
    # dominant_shapes(6, 3) it gives the polynomial of the whole tree, and
    # at seed 0 that of the reference route too
    shapes = sorted(set(refinement_shapes(7)) | set(CP.dominant_shapes(6, 3)))
    count = 0
    for mu in shapes:
        m = sum(mu)
        memo: dict = {}
        full_memo: dict = {}
        oracle_memo: dict = {}
        for w in A.s_adm_walk(mu):
            if not W.is_n_cycle(w.perm):
                continue
            cp = R.class_polynomial(w, m, seed=seed, memo=memo)
            assert cp == R._class_polynomial_of_profiles(
                w, m, R.path_profiles(w, seed, full_memo)), w
            if seed == 0:
                assert cp == O.class_polynomial_per_element(w, m, memo=oracle_memo), w
            count += 1
    assert count == 884


def test_pruned_trees_search_no_empty_element(tmp_path, monkeypatch):
    # no step search starts at an element whose stratum is empty: on
    # (2,1,1,1,1,0,0) the whole trees took 38 searches, the pruned ones 34
    from adlv import cli

    starts = []

    def counted(w, rng, _inner=R.find_reduction_step):
        starts.append(w)
        return _inner(w, rng)

    monkeypatch.setattr(R, "find_reduction_step", counted)
    mu = (2, 1, 1, 1, 1, 0, 0)
    assert cli.main(["compare", "--mu", ",".join(map(str, mu)),
                     "--out", str(tmp_path / "r.json")]) == 0
    assert len(starts) == 34
    assert all(A.x_w_nonempty(z, sum(mu)) for z in starts)


def test_pruned_tree_checks_the_table_at_each_node(monkeypatch):
    # a table that calls every node non-empty walks a subtree to an end other
    # than tau^m; one that calls a node of a tau^m path empty leaves a
    # non-empty node with no path: both raise
    w = W.parse_element("s0*s6*s5*s1*tau^3", 7)
    assert R.class_polynomial(w, 3).coefficients == (0, 0, 1)
    assert set(R.path_profiles(w)) != {W.tau(7, 3)}
    with monkeypatch.context() as patch:
        patch.setattr(A, "_nonempty_by_table", lambda z, label: True)
        with pytest.raises(AssertionError, match="reduction tree and x_w_nonempty disagree"):
            R.class_polynomial(w, 3)

    w = W.parse_element("t[3,2,1,0,0]*p[3,4,5,1,2]", 5)
    node = W.parse_element("t[1,1,2,2,0]*p[1,5,2,3,4]", 5)
    assert not W.is_n_cycle(node.perm) and A.x_w_nonempty(node, 6)
    visited = []

    def spy(z, label, _inner=A._nonempty_by_table):
        visited.append(z)
        return _inner(z, label)

    with monkeypatch.context() as patch:
        patch.setattr(A, "_nonempty_by_table", spy)
        assert R.class_polynomial(w, 6).dim_from_tree is not None
    assert node in visited

    def wrong_at_node(z, label, _inner=A._nonempty_by_table):
        return z != node and _inner(z, label)

    monkeypatch.setattr(A, "_nonempty_by_table", wrong_at_node)
    with pytest.raises(AssertionError, match="reduction tree and x_w_nonempty disagree"):
        R.class_polynomial(w, 6)


@pytest.mark.parametrize("seed", [0, 5])
def test_classpoly_keeps_the_whole_tree(tmp_path, seed):
    # classpoly prints every end of the tree, not only tau^m's
    import json

    from adlv import cli

    text = "s0*s6*s5*s1*tau^3"
    out = tmp_path / "c.json"
    assert cli.main(["classpoly", "--n", "7", "--m", "3", "--w", text,
                     "--seed", str(seed), "--out", str(out)]) == 0
    ends = R.path_profiles(W.parse_element(text, 7), seed)
    assert json.loads(out.read_text())["end_counts"] == \
        {W.encode_element(end): sum(prof.values()) for end, prof in ends.items()}
    assert set(ends) - {W.tau(7, 3)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_search_matches_search_by_descents(seed):
    # the search reading descents and s z s off one p^-1 against the search
    # one reflection at a time: from equal rng states, on every element of
    # s_adm_walk of the refinement-list shapes up to n = 7, the same step and
    # visited set, and the same rng state after
    pivots_at_s0 = 0
    moved_by_s0 = False
    for mu in refinement_shapes(7):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for w in A.s_adm_walk(mu):
            step, orbit = R.find_reduction_step(w, rng)
            assert (step, orbit) == O.find_reduction_step_by_descents(w, oracle_rng), w
            assert rng.getstate() == oracle_rng.getstate(), w
            pivots_at_s0 += step is not None and step[1] == 0
            moved_by_s0 = moved_by_s0 or any(
                O.conjugate_simple(0, z) != z and O.conjugate_simple(0, z) in orbit
                for z in orbit)
    assert pivots_at_s0 and moved_by_s0


def test_step_search_scans_no_permutation(tmp_path, monkeypatch):
    # the step search reads descents off p^-1, never W.left_descent's scans
    # of p: a tree-building compare and classpoly run with it disabled
    from adlv import cli

    def refuse(i, w):
        raise AssertionError("W.left_descent called")

    monkeypatch.setattr(W, "left_descent", refuse)
    assert cli.main(["compare", "--mu", "2,1,1,1,1,0,0",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert cli.main(["classpoly", "--n", "7", "--m", "3", "--w", "s0*s6*s5*s1*tau^3",
                     "--seed", "5", "--out", str(tmp_path / "c.json")]) == 0


def test_compare_expands_each_element_once(tmp_path, monkeypatch):
    # over all of a shape's trees, no step search starts at an element an
    # earlier search visited: the orbit memo answers for each of them
    from adlv import cli

    starts = []
    visited = set()

    def counted(w, rng, _inner=R.find_reduction_step):
        assert w not in visited
        step, orbit = _inner(w, rng)
        starts.append(w)
        visited.update(orbit)
        return step, orbit

    monkeypatch.setattr(R, "find_reduction_step", counted)
    assert cli.main(["compare", "--mu", "2,1,1,1,1,0,0",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert starts and visited > set(starts)


def test_compare_computes_lengths_only_for_output_and_checks(tmp_path, monkeypatch):
    # reduction steps are found by descent tests: length is computed only for
    # the length column of each s_adm row and for the checks of each class
    # polynomial (w itself and every end point of its tree)
    from adlv import cli

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
        for w in O.s_adm_cyc(mu):
            cp = R.class_polynomial(w, m)
            assert all(c > 0 for (_, _), c in cp.path_profile)


def test_find_reduction_step_minimal():
    for n, m in [(3, 1), (5, 2)]:
        # length zero: no descents, so the orbit is tau^m alone
        assert R.find_reduction_step(W.tau(n, m), random.Random(0)) == \
            (None, {W.tau(n, m)})
    w = W.parse_element("s0*s4*tau^2", 5)
    step, orbit = R.find_reduction_step(w, random.Random(0))
    assert step is not None
    pivot, s = step
    assert w in orbit and pivot in orbit
    assert {W.length(z) for z in orbit} == {W.length(w)}
    assert W.length(W.right_mul_simple(W.left_mul_simple(s, pivot), s)) == \
        W.length(pivot) - 2


def test_length_one_elements_settle():
    # any length-1 element in the right coset either reduces or is minimal,
    # decided by the orbit search
    for n in (2, 3, 4):
        w = W.mul(W.simple_reflection(n, 0), W.tau(n))
        step, _ = R.find_reduction_step(w, random.Random(0))
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

