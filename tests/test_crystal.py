import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from adlv import compare as CP
from adlv import crystal as C
from adlv import semimodule as S
from adlv import weyl as W

import oracles as O


SMALL_CRYSTALS = [((2, 1, 0), 3), ((1, 1, 0, 0, 0), 5), ((2, 1, 0, 0, 0), 5),
                  ((2, 2, 1, 0), 4), ((3, 1, 0), 3)]

# the 235 shapes of the benchmark's cyclicity workload: (n, largest mu_1)
CYCLICITY_SHAPES = [mu for n, top in ((2, 5), (3, 5), (4, 5), (5, 5), (6, 3), (7, 3))
                    for mu in CP.dominant_shapes(n, top)]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_operator_examples():
    assert O.lowering(1, ((1,),)) == ((2,),)
    assert O.lowering(2, ((1,), (2,))) == ((1,), (3,))
    hw = O.highest_weight_tableau((2, 1, 0))
    assert hw == ((1, 1), (2,))
    assert all(O.raising(i, hw) is None for i in (1, 2))


def test_crystal_axioms():
    for mu, n in SMALL_CRYSTALS:
        crystal = O.crystal_of(mu, n)
        assert len(crystal) <= 10_000
        for t in crystal:
            wt = O.weight(t, n)
            for i in range(1, n):
                e = O.raising(i, t)
                f = O.lowering(i, t)
                if e is not None:
                    assert O.lowering(i, e) == t
                    ewt = O.weight(e, n)
                    assert ewt[i - 1] == wt[i - 1] + 1 and ewt[i] == wt[i] - 1
                if f is not None:
                    assert O.raising(i, f) == t
                assert O.varphi(i, t) - O.epsilon(i, t) == wt[i - 1] - wt[i]


def test_operator_powers_vanish():
    for mu, n in SMALL_CRYSTALS[:3]:
        for t in O.crystal_of(mu, n):
            for i in range(1, n):
                u = t
                for _ in range(O.epsilon(i, t)):
                    u = O.raising(i, u)
                assert O.raising(i, u) is None
                v = t
                for _ in range(O.varphi(i, t)):
                    v = O.lowering(i, v)
                assert O.lowering(i, v) is None


# ---------------------------------------------------------------------------
# weight spaces
# ---------------------------------------------------------------------------

def test_weight_space_examples():
    assert C.enumerate_weight_space((1, 1, 0, 0, 0), (0, 0, 1, 0, 1)) == \
        (((3,), (5,)),)
    assert len(C.enumerate_weight_space((1, 1, 0), (1, 1, 0))) == 1
    # content omega_3-balanced for m=3, n=7
    ws = C.enumerate_weight_space((1, 1, 1, 0, 0, 0, 0), S.lambda_b(3, 7))
    exts = S.enumerate_extended((1, 1, 1, 0, 0, 0, 0))
    top = S.dim_x_mu((1, 1, 1, 0, 0, 0, 0))
    assert len(ws) == sum(1 for e in exts if e.dim == top)


def test_weight_space_against_crystal_orbit():
    for mu, n in SMALL_CRYSTALS:
        crystal = O.crystal_of(mu, n)
        byw = Counter(O.weight(t, n) for t in crystal)
        for content, count in byw.items():
            ws = C.enumerate_weight_space(mu, content)
            assert len(ws) == count
            assert list(ws) == sorted(set(ws)), (mu, content)    # sorted, no repeats
            assert set(ws) == {t for t in crystal if O.weight(t, n) == content}
            assert all(O.is_semistandard(t, n) for t in ws)
        # monotone under dominance: moving down never shrinks the count
        dominant_contents = sorted(c for c in byw if W.is_dominant(c))
        for a in dominant_contents:
            for b in dominant_contents:
                if O.dominance_leq(a, b):
                    assert byw[a] >= byw[b]


def test_weight_space_size_counts_the_weight_space():
    # the horizontal-strip count equals the number of tableaux listed: on
    # every weight of the small crystals (so with zero and repeated
    # entries), on lambda_b for the coprime shapes with n <= 7 and
    # mu_1 <= 3, and on two n = 9 shapes
    for mu, n in SMALL_CRYSTALS:
        for content, count in Counter(O.weight(t, n) for t in O.crystal_of(mu, n)).items():
            assert C.weight_space_size(mu, content) == count, (mu, content)
    assert C.weight_space_size((2, 1, 0), (1, 1, 0)) == 0    # wrong total
    shapes = 0
    for n in range(2, 8):
        for head in itertools.combinations_with_replacement((3, 2, 1, 0), n - 1):
            mu = head + (0,)
            if math.gcd(sum(mu), n) != 1:
                continue
            content = S.lambda_b(sum(mu), n)
            assert C.weight_space_size(mu, content) == \
                len(C.enumerate_weight_space(mu, content)), mu
            shapes += 1
    assert shapes > 100
    for mu in [(4, 4, 4, 3, 2, 1, 1, 0, 0), (2, 2, 1, 1, 1, 1, 0, 0, 0)]:
        content = S.lambda_b(sum(mu), 9)
        assert C.weight_space_size(mu, content) == \
            len(C.enumerate_weight_space(mu, content))
    assert C.weight_space_size((4, 4, 4, 3, 2, 1, 1, 0, 0), S.lambda_b(19, 9)) == 2632


def test_weyl_action():
    rng = random.Random(5)
    for mu, n in SMALL_CRYSTALS:
        crystal = sorted(O.crystal_of(mu, n))
        for t in crystal[:40]:
            sh, t = C.shape(t), C.reading_word(t, n)
            assert O.word_act(W.identity_perm(n), t, sh, n) == t
            for _ in range(4):
                p = tuple(rng.sample(range(n), n))
                q = tuple(rng.sample(range(n), n))
                pt = O.word_act(p, t, sh, n)
                assert C.weight(pt, n) == W.perm_on_cochar(p, C.weight(t, n))
                assert O.word_act(q, pt, sh, n) == O.word_act(W.compose(q, p), t, sh, n)


def test_memoized_weyl_action_matches_unmemoized():
    # one memo shared by every tableau and permutation of a crystal, as
    # xi_normalized shares one across its conjugators
    for mu, n in SMALL_CRYSTALS:
        memo = {}
        for t in sorted(O.crystal_of(mu, n)):
            sh, t = C.shape(t), C.reading_word(t, n)
            for p in O.all_perms(n):
                assert O.word_act(p, t, sh, n, memo) == O.word_act(p, t, sh, n)
        assert memo and all(O.word_act(W.transposition(n, i - 1, i), t, sh, n) == u
                            for (i, t), u in memo.items())


def test_epsilons_match_epsilon():
    for mu, n in SMALL_CRYSTALS:
        for t in O.crystal_of(mu, n):
            assert C.epsilons(C.reading_word(t, n), n) == [O.epsilon(i, t) for i in range(1, n)]


def _shape_of(geo):
    rows = Counter(r for r, _ in geo.cells)
    return tuple(rows[r] for r in range(len(rows)))


def test_kernel_keeps_every_tableau_semistandard(monkeypatch):
    # the kernel checks a flip against the flipped box's neighbours only;
    # every tableau it builds over the cyclicity range passes the full
    # row-form check: each step of the walk and of every Weyl action (each
    # flip), and b^- and each u^-1 b^- (the Weyl actions' results)
    flips, acts = set(), []

    def flip(word, i, raising, geo, n, _inner=C._flip):
        out = _inner(word, i, raising, geo, n)
        flips.add((out[0], _shape_of(geo), n))
        return out

    def act(letters, word, wt, sh, n, memo=None, _inner=C._act_letters):
        out = _inner(letters, word, wt, sh, n, memo)
        acts.append((out, sh, n))
        return out

    monkeypatch.setattr(C, "_flip", flip)
    monkeypatch.setattr(C, "_act_letters", act)
    assert len(CYCLICITY_SHAPES) == 235
    for mu in CYCLICITY_SHAPES:
        CP.all_top_cyclic(mu, len(mu))
    # 993 cyclic b, each with one b^- and n conjugators
    assert len(acts) == 6761
    assert len(flips) > 10_000
    for word, sh, n in flips | set(acts):
        assert O.is_semistandard(O.tableau_of_word(word, sh), n), (word, sh)


def test_kernel_simple_reflection_matches_rows():
    # s_i on the reading word equals iterated raising or lowering on rows,
    # on every tableau of every weight space of the cyclicity range with
    # n <= 6 whose weight rearranges lambda_b
    tried = 0
    for mu in CYCLICITY_SHAPES:
        n, m = len(mu), sum(mu)
        if n > 6:
            continue
        sh = C.shape_of_mu(mu)
        for content in set(itertools.permutations(S.lambda_b(m, n))):
            for t in C.enumerate_weight_space(mu, content):
                word = C.reading_word(t, n)
                for i in range(1, n):
                    assert O.word_act(W.transposition(n, i - 1, i), word, sh, n) == \
                        C.reading_word(O.simple_act(i, t, n), n), (t, i)
                    tried += 1
    assert tried > 10_000


def test_kernel_refuses_a_flip_that_breaks_semistandardness():
    # reading_word checks a tableau in full; a word built by hand skips that
    # check, and a flip that breaks a row or a column of it raises
    with pytest.raises(ValueError, match="not a semi-standard"):
        C.reading_word(((2,), (2,)), 2)
    # the column 2 over 2: s_1 raises the lower 2 to 1, under the upper 2
    with pytest.raises(AssertionError, match="broke semistandardness"):
        O.word_act((1, 0), (2, 2), (1, 1), 2)
    # the row 3 2, read (2, 3): s_1 raises the 2 to 1, right of the 3
    with pytest.raises(AssertionError, match="broke semistandardness"):
        O.word_act((1, 0, 2), (2, 3), (2,), 3)


def test_conjugate_to_weight():
    b = ((3,), (5,))
    p = O.matching_perm(O.weight(b, 5), (1, 0, 0, 0, 1))
    c = O.word_act(p, C.reading_word(b, 5), C.shape(b), 5)
    assert C.weight(c, 5) == (1, 0, 0, 0, 1)
    assert c == C.reading_word(((1,), (5,)), 5)


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

def construction_cases():
    cases = []
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 1, 1, 0, 0), (2, 1, 1, 1, 0, 0), (3, 1, 0), (2, 2, 1, 0),
               (3, 3, 1, 0)]:
        n = len(mu)
        m = sum(mu)
        if math.gcd(m, n) == 1:
            cases.append((mu, m, n))
    return cases


def test_construction_postconditions():
    for mu, m, n in construction_cases():
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            assert O.is_coxeter(cd.w_of_b)
            assert len(cd.upsilon) == n
            used = [i for p in cd.w_list for i in O.finite_supp(p)]
            assert sorted(used) == list(range(1, n))
            # reach the walk's end again by the Weyl action along the word
            end = b
            for i in reversed(C._wmax_prime_word(m, n)):
                end = O.simple_act(i, end, n)
            for p, col, op_col in zip(cd.w_list, O.fe_factors(b), O.fe_factors(end),
                                      strict=True):
                assert {p[v - 1] + 1 for v in col} == set(op_col)
            cm = tuple((i + m) % n for i in range(n))
            for u in cd.upsilon:
                assert W.compose(W.inverse_perm(u), W.compose(cm, u)) == cd.w_of_b


def test_construction_refuses_a_letter_that_does_not_pair(monkeypatch):
    # read in the wrong order, the sorting word reaches a letter s_i with
    # wt(i) - wt(i+1) != -1 on every tableau, and the walk refuses it
    original = C._wmax_prime_word
    monkeypatch.setattr(C, "_wmax_prime_word",
                        lambda m, n: tuple(reversed(original(m, n))))
    tried = 0
    for mu, m, n in construction_cases():
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            with pytest.raises(AssertionError, match="does not pair to -1"):
                C.build_construction(b, m, n)
            tried += 1
    assert tried == 18


def test_single_column_case():
    b = ((3,), (5,))
    cd = C.build_construction(b, 2, 5)
    assert cd.lambda_of_b == O.weight(b, 5)
    assert cd.is_cyclic
    assert C.top_lambda(cd) == O.coroot(5, 1, 5)
    assert len(cd.w_list) == 1
    # d = 1: the family is the bare xi vector for each conjugator
    b_minus = O.b_minus_rows(cd)
    for u in cd.upsilon:
        fam = O.xi_family(cd, u, b_minus)
        assert len(fam) == 1


def test_xi_tau_equivalence():
    for mu, m, n in construction_cases()[:5]:
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            norm = C.xi_normalized(cd)       # asserts all conjugators agree
            assert sum(norm[0]) == 0
            outsider = next(p for p in O.all_perms(n) if p not in cd.upsilon)
            with pytest.raises(ValueError):
                C.xi_zero(cd, outsider)


def test_xi_families_share_one_conjugation(monkeypatch):
    # b^- does not depend on the conjugator: one Weyl action on b per
    # tableau (the one with no memo of steps), not one per tableau and
    # conjugator, beside the n conjugators' actions on b^-, which share a
    # memo; and it starts from the reading word build_construction checked,
    # so reading_word runs once per tableau
    from adlv import compare as CP

    mu, n = (2, 1, 1, 0, 0), 5
    calls, reads = [], []

    def counted(letters, word, wt, sh, n_, memo=None, _inner=C._act_letters):
        calls.append(memo is None)
        return _inner(letters, word, wt, sh, n_, memo)

    def counted_reads(*args, _inner=C.reading_word):
        reads.append(args)
        return _inner(*args)

    monkeypatch.setattr(C, "_act_letters", counted)
    monkeypatch.setattr(C, "reading_word", counted_reads)
    assert CP.all_top_cyclic(mu, n) is not None
    tableaux = C.enumerate_weight_space(mu, S.lambda_b(4, n))
    assert calls.count(True) == len(tableaux)
    assert len(calls) == (n + 1) * len(tableaux)
    assert len(reads) == len(tableaux)


def test_b_minus_matches_rows():
    # b^- from the cached sorting word, on every tableau of the coprime
    # shapes of dominant_shapes(5, 3): its weight is lambda_b sorted
    # ascending, and it is the rows oracle's b^- read as a word
    tried = 0
    for mu in CP.dominant_shapes(5, 3):
        n, m = len(mu), sum(mu)
        if math.gcd(m, n) != 1:
            continue
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            assert C.weight(cd.b_minus, n) == tuple(sorted(S.lambda_b(m, n)))
            assert cd.b_minus == C.reading_word(O.b_minus_rows(cd), n), b
            tried += 1
    assert tried == 92


def test_sorting_word_is_reduced():
    # the cached letters spell the stable sorting permutation of lambda_b,
    # and their number is its inversion count, so the word is reduced
    for n in range(1, 10):
        for m in range(1, 3 * n):
            if math.gcd(m, n) != 1:
                continue
            lb = S.lambda_b(m, n)
            letters, wt = C._sorting_word(m, n)
            p = O.matching_perm(lb, tuple(sorted(lb)))
            assert wt == tuple(sorted(lb))
            assert O.perm_from_word(n, letters) == p, (m, n)
            assert len(letters) == O.inversions(p), (m, n)


def test_xi_normalized_asserts_every_conjugator(monkeypatch):
    # the n families share one memo of s_i steps, yet each is still compared:
    # perturbing xi(u^-1 b^-) for any single conjugator u, keeping its sum
    # or moving one entry by one (which moves k and sigma_u too), makes
    # xi_normalized and top_lambda raise
    original = C.xi_zero
    tried = 0
    for mu in [(2, 1, 1, 0, 0), (3, 2, 1, 1, 0), (2, 1, 1, 1, 1, 0, 0)]:
        n, m = len(mu), sum(mu)
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n))[:3]:
            cd = C.build_construction(b, m, n)
            C.xi_normalized(cd)
            assert len(cd.upsilon) == n
            for target in cd.upsilon:
                for shift in ((1, -1), (1,)):
                    def perturbed(cd_, u, memo=None, target=target, shift=shift):
                        xi0 = original(cd_, u, memo)
                        if u != target:
                            return xi0
                        return tuple(x + y for x, y in zip(xi0, shift)) + xi0[len(shift):]

                    monkeypatch.setattr(C, "xi_zero", perturbed)
                    with pytest.raises(AssertionError, match="inequivalent"):
                        C.xi_normalized(cd)
                    with pytest.raises(AssertionError, match="inequivalent"):
                        C.top_lambda(cd)
                    monkeypatch.setattr(C, "xi_zero", original)
                    tried += 1
    assert tried == 2 * 3 * (5 + 5 + 7)


def test_top_lambda_matches_the_families_oracle():
    # the families compared by their affine parts F_0 and sigma_u, against
    # the n full normalized families, built on rows and asserted equal, on
    # every cyclic b of the cyclicity range and of dominant_shapes(8, 3)
    cyclic = 0
    for mu in CYCLICITY_SHAPES + list(CP.dominant_shapes(8, 3)):
        n, m = len(mu), sum(mu)
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            if cd.is_cyclic:
                family = O.xi_normalized_by_families(cd)
                assert C.xi_normalized(cd) == family
                assert C.top_lambda(cd) == family[0]
                cyclic += 1
    assert cyclic > 993


def test_families_are_compared_past_the_first_coweight(monkeypatch):
    # a conjugator u o pi, with pi swapping two entries of xi_0 that are
    # equal, has the same first coweight F_0 as u; where pi moves a lambda
    # prefix, its family differs further on.  Added to Upsilon(b), with xi_0
    # read as u's, it makes xi_normalized raise
    original = C.xi_zero
    tried = 0
    for mu in [(2, 1, 1, 0, 0), (3, 2, 1, 1, 0), (2, 1, 1, 1, 1, 0, 0)]:
        n, m = len(mu), sum(mu)
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            if not cd.is_cyclic:
                continue
            u = cd.upsilon[-1]
            xi0 = original(cd, u)
            swaps = [(a, c) for a, c in itertools.combinations(range(n), 2)
                     if xi0[a] == xi0[c] and any(p[a] != p[c] for p in cd.lambda_prefixes)]
            if not swaps:
                continue
            a, c = swaps[0]
            fake = tuple(u[c] if x == a else u[a] if x == c else u[x] for x in range(n))
            assert W.perm_on_cochar(fake, xi0) == W.perm_on_cochar(u, xi0)
            cd = C.build_construction(b, m, n)
            cd.__dict__["upsilon"] = cd.upsilon + (fake,)
            monkeypatch.setattr(C, "xi_zero", lambda cd_, v, memo=None, fake=fake, u=u:
                                original(cd_, u if v == fake else v, memo))
            with pytest.raises(AssertionError, match="inequivalent"):
                C.xi_normalized(cd)
            monkeypatch.setattr(C, "xi_zero", original)
            tried += 1
    assert tried >= 5


def test_bridge_to_semimodules():
    # the normalized first coweight lands on a top stratum, with matching
    # (lambda, cyclicity) multisets on both sides
    for mu, m, n in construction_cases():
        ws = C.enumerate_weight_space(mu, S.lambda_b(m, n))
        exts = S.enumerate_extended(mu)
        top = S.dim_x_mu(mu)
        sm_side = Counter((e.base.lam, e.is_cyclic) for e in exts if e.dim == top)
        crystal_side = Counter()
        for b in ws:
            cd = C.build_construction(b, m, n)
            lam = C.top_lambda(cd)
            crystal_side[(lam, cd.is_cyclic)] += 1
            # the type of the indexed semi-module is the multiset of lambda(b)
            sm = O.from_lambda(lam, m)
            assert sorted(O.type_of(sm)) == sorted(cd.lambda_of_b)
        assert crystal_side == sm_side
        assert sum(crystal_side.values()) == len(ws)


def test_bridge_bijective_on_fixture_shapes():
    # on the fixture shapes each top stratum carries a single pair, so the
    # first-coweight map is a plain bijection
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
               (2, 1, 1, 1, 0, 0)]:
        n, m = len(mu), sum(mu)
        ws = C.enumerate_weight_space(mu, S.lambda_b(m, n))
        lams = {C.top_lambda(C.build_construction(b, m, n)) for b in ws}
        assert len(lams) == len(ws)


def test_cyclicity_examples():
    # all cyclic for fundamental coweights and for (n r + i) omega_1 shapes
    for mu in [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0), (2, 0, 0), (5, 0, 0)]:
        n, m = len(mu), sum(mu)
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            assert cd.is_cyclic
    # a shape outside the classification with a non-cyclic tableau
    mu = (3, 3, 1, 0)
    n, m = 4, 7
    flags = [C.build_construction(b, m, n).is_cyclic
             for b in C.enumerate_weight_space(mu, S.lambda_b(m, n))]
    assert not all(flags)


def test_column_containment_is_cyclicity():
    # the walk's criterion (each Far-Eastern column of b' inside the next
    # column of b) against lambda(b), on every tableau of the cyclicity
    # range, of dominant_shapes(8, 3) and of n = 9 with mu_1 <= 2
    shapes = CYCLICITY_SHAPES + list(CP.dominant_shapes(8, 3)) + list(CP.dominant_shapes(9, 2))
    tried = cyclic = 0
    for mu in shapes:
        n, m = len(mu), sum(mu)
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            walk = C.construction_walk(b, m, n)
            cd = C.finish_construction(walk)
            assert cd == C.build_construction(b, m, n)
            assert C.columns_nest(walk) == cd.is_cyclic, b
            tried += 1
            cyclic += cd.is_cyclic
    assert (tried, cyclic) == (3879, 1699)


def _count_calls(monkeypatch, name):
    calls = []

    def counted(*args, _inner=getattr(C, name)):
        calls.append(args)
        return _inner(*args)
    monkeypatch.setattr(C, name, counted)
    return calls


def test_all_top_cyclic_finishes_only_the_cyclic_b(monkeypatch):
    # (5,3,2,1,0): all 32 tableaux are walked, and only the 12 cyclic b are
    # finished into a construction
    mu, n = (5, 3, 2, 1, 0), 5
    walks = _count_calls(monkeypatch, "construction_walk")
    finished = _count_calls(monkeypatch, "finish_construction")
    assert CP.all_top_cyclic(mu, n) is False
    assert len(walks) == 32
    assert len(finished) == 12
    finished_b = sorted(w.b for (w,) in finished)
    monkeypatch.undo()
    assert finished_b == sorted(b for (b, m, _) in walks
                                if C.build_construction(b, m, n).is_cyclic)


@pytest.mark.parametrize("wrong", ["acyclic", "cyclic"])
def test_all_top_cyclic_raises_when_the_criterion_errs(monkeypatch, wrong):
    # the criterion calling one acyclic b cyclic is caught by that b's
    # lambda(b); calling one cyclic b acyclic, by the semi-module side
    mu, m, n = (5, 3, 2, 1, 0), 11, 5
    original = C.columns_nest
    target = next(b for b in C.enumerate_weight_space(mu, S.lambda_b(m, n))
                  if C.build_construction(b, m, n).is_cyclic == (wrong == "cyclic"))
    monkeypatch.setattr(C, "columns_nest",
                        lambda walk: original(walk) != (walk.b == target))
    match = "lambda" if wrong == "acyclic" else "routes disagree"
    with pytest.raises(AssertionError, match=match):
        CP.all_top_cyclic(mu, n)


def test_construction_rejects_wrong_weight():
    with pytest.raises(ValueError):
        C.build_construction(((1,), (2,)), 2, 5)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_weights_and_involution():
    for mu, m, n in construction_cases()[:6]:
        d = mu[0]
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            db = O.dual_tableau(b, n)
            assert O.weight(db, n) == tuple(d - v for v in O.weight(b, n))
            assert O.dual_tableau(db, n) == b


def test_dual_commutes_with_weyl_action():
    rng = random.Random(6)
    for mu, m, n in construction_cases()[:4]:
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            p = tuple(rng.sample(range(n), n))
            assert O.dual_tableau(O.kernel_act(p, b, n), n) == \
                O.kernel_act(p, O.dual_tableau(b, n), n)


def test_dual_lambda_identity():
    # lambda of the dual of the opposite conjugate is d - w(b)^-1 lambda(b)
    for mu, m, n in construction_cases():
        d = mu[0]
        m_star = n * d - m
        lb_op = tuple(reversed(S.lambda_b(m, n)))
        for b in C.enumerate_weight_space(mu, S.lambda_b(m, n)):
            cd = C.build_construction(b, m, n)
            p = O.matching_perm(S.lambda_b(m, n), lb_op)
            bop = O.tableau_of_word(O.word_act(p, C.reading_word(b, n), C.shape(b), n),
                                    C.shape(b))
            bop_star = O.dual_tableau(bop, n)
            assert O.weight(bop_star, n) == S.lambda_b(m_star, n)
            cds = C.build_construction(bop_star, m_star, n)
            pred = tuple(d - v for v in
                         W.perm_on_cochar(W.inverse_perm(cd.w_of_b),
                                          cd.lambda_of_b))
            assert cds.lambda_of_b == pred
            assert cd.is_cyclic == cds.is_cyclic
