import ast
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from adlv import cli


def run_cli(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "adlv.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc


def test_semimodules_fixture():
    proc = run_cli(["semimodules", "--mu", "1,1,0,0,0"])
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    assert len(records) == 2
    assert sorted(r["dim"] for r in records) == [0, 1]
    assert all(r["cyclic"] for r in records)


def test_semimodules_rank7():
    proc = run_cli(["semimodules", "--mu", "1,1,1,0,0,0,0"])
    records = json.loads(proc.stdout)
    assert len(records) == 5
    assert sorted(r["dim"] for r in records) == [0, 1, 2, 2, 3]


def test_semimodules_zero(tmp_path):
    # mu = 0 has the one semi-module A = N, with phi(a) = a // n, printed by
    # the record builder and window rule of every other shape
    from adlv import semimodule as SM

    proc = run_cli(["semimodules", "--mu", "0,0,0"])
    records = json.loads(proc.stdout)
    assert len(records) == 1 and records[0]["dim"] == 0

    def records_of(*args):
        out = tmp_path / "out.json"
        assert cli.main(["semimodules", *args, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    for k in (1, 2):
        (e,) = SM.enumerate_extended((0,))
        assert records_of("--mu", "0", "--window-scale", str(k)) == [{
            "lambda": list(e.base.lam), "abar": list(e.base.abar),
            "phi": [[a, v] for a, v in e.phi_window(k)], "dim": e.dim,
            "cyclic": e.is_cyclic, "type": list(e.base.type)}]
        (rec,) = records_of("--mu", "0,0,0", "--window-scale", str(k))
        assert rec["phi"] == [[a, a // 3] for a in range(6 * k)]
        assert rec["dim"] == 0 and rec["cyclic"] and rec["abar"] == [0, 1, 2]


def test_crystal_fixtures():
    proc = run_cli(["crystal", "--mu", "1,1,0,0,0"])
    records = json.loads(proc.stdout)
    assert len(records) == 1 and records[0]["cyclic"]
    assert records[0]["b"] == [[3], [5]]
    proc = run_cli(["crystal", "--mu", "2,0,0"])
    records = json.loads(proc.stdout)
    assert all(r["cyclic"] for r in records)
    proc = run_cli(["crystal", "--mu", "3,3,1,0"])
    records = json.loads(proc.stdout)
    assert any(not r["cyclic"] for r in records)


def test_adm_and_lp():
    proc = run_cli(["adm", "--mu", "1,1,0,0,0"])
    records = json.loads(proc.stdout)
    assert sum(r["nonempty"] for r in records) == 2
    assert {r["finite_part_cycle_type"] == [5] for r in records if r["nonempty"]} == {True}
    proc = run_cli(["lp", "--n", "5", "--w", "tau^2"])
    record = json.loads(proc.stdout)
    assert len(record["lp"]) == 120
    assert record["coxeter_witness"] is not None


def test_classpoly():
    proc = run_cli(["classpoly", "--n", "5", "--m", "2", "--w", "s0*s4*tau^2"])
    record = json.loads(proc.stdout)
    assert record["F_as_q_polynomial"] == [0, 1]
    assert record["dim"] == 1 and record["top_components"] == 1


def test_compare_single_and_sweep():
    proc = run_cli(["compare", "--mu", "1,1,0,0,0", "--format", "csv"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("n,mu,")
    assert "true,true,true,true,true" in lines[1]
    proc = run_cli(["compare", "--max-n", "3", "--max-mu1", "3", "--format", "csv"])
    assert proc.returncode == 0
    rows = proc.stdout.strip().splitlines()[1:]
    assert all(",true,true," in r or ",false,false," in r for r in rows)
    # a clause-(v) shape: on the all-top-cyclic list, off the refinement list
    proc = run_cli(["compare", "--mu", "3,2,1,1,0", "--format", "csv"])
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[1] == \
        '5,"3,2,1,1,0",false,false,true,true,'


def test_usage_errors():
    assert run_cli(["semimodules", "--mu", "1,1,0,0"]).returncode == 2   # gcd
    assert run_cli(["semimodules", "--mu", "0,1"]).returncode == 2       # order
    assert run_cli(["lp", "--n", "5"]).returncode == 2
    assert run_cli(["compare"]).returncode == 2
    assert run_cli(["compare", "--max-n", "99", "--max-mu1", "1"]).returncode == 2
    # sweeps that cover no shape
    for bounds in (("-1", "2"), ("1", "1"), ("3", "0"), ("3", "-2")):
        proc = run_cli(["compare", "--max-n", bounds[0], "--max-mu1", bounds[1]])
        assert proc.returncode == 2, bounds
        assert proc.stderr.startswith("error: ") and proc.stdout == "", bounds
    # one shape or a sweep, not both: the sweep bounds would go unread, even
    # past the hard guards
    for extra in (["--max-n", "5"], ["--max-mu1", "9"], ["--max-n", "5", "--max-mu1", "9"]):
        proc = run_cli(["compare", "--mu", "2,1,0,0,0", *extra])
        assert proc.returncode == 2, extra
        assert proc.stderr.startswith("error: ") and proc.stdout == "", extra
    # GL_1 has no simple affine reflection: s0 at n = 1 is refused, not read
    # as the translation t[-1]
    for args in (["classpoly", "--n", "1", "--m", "1", "--w", "s0*s0*tau"],
                 ["lp", "--n", "1", "--w", "s0"]):
        proc = run_cli(args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: ") and proc.stdout == "", args
        assert "Traceback" not in proc.stderr
    assert run_cli(["nonsense"]).returncode == 2


def test_mu_input_errors():
    # compare and adm refuse what semimodules refuses, with a message; compare
    # and crystal also refuse mu = (0), the one n = 1 shape ending in 0
    cases = [(cmd, args) for cmd in ("compare", "adm")
             for args in (["--mu", "1,2,0"], ["--mu", "1,x,0"])]
    cases += [(cmd, ["--mu", "0"]) for cmd in ("compare", "crystal")]
    for cmd, args in cases:
        proc = run_cli([cmd, *args])
        assert proc.returncode == 2, (cmd, args)
        assert proc.stderr.startswith("error: "), (cmd, args)
        assert "Traceback" not in proc.stderr


def test_compare_reads_an_empty_mu_as_given():
    # --mu "" is a malformed shape, as for every other command, not an
    # absent one that falls through to a sweep
    proc = run_cli(["compare", "--mu", ""])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --mu must be comma separated integers: ''\n"
    proc = run_cli(["compare", "--mu", "", "--max-n", "2", "--max-mu1", "1"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: --mu cannot be combined with the sweep "
                           "options --max-n/--max-mu1\n")


def test_mu_beyond_hard_guards_refused_before_work():
    # n = 10 is past HARD_MAX_N: refused at once, before the 10!-sized
    # arrays that the work would build
    for cmd in ("compare", "adm"):
        proc = run_cli([cmd, "--mu", "1,1,1,1,1,1,1,1,1,0"], timeout=30)
        assert proc.returncode == 2
        assert "hard guards" in proc.stderr
    proc = run_cli(["compare", "--mu", "9,0"])
    assert proc.returncode == 2 and "hard guards" in proc.stderr


def test_n_beyond_hard_guard_refused_before_work():
    # lp and classpoly take --n directly: n = 10 would build 10!-row arrays,
    # and n = 0 divided by zero
    for n in ("10", "0"):
        for args in (["lp", "--n", n, "--w", "tau^3"],
                     ["classpoly", "--n", n, "--m", "3", "--w", "tau^3"]):
            proc = run_cli(args, timeout=30)
            assert proc.returncode == 2, args
            assert proc.stderr.startswith("error: ") and "hard guards" in proc.stderr


def test_classpoly_refuses_element_longer_than_any_admissible():
    # a reduction tree recurses once per unit of length; past the longest
    # element of any Adm(mu) within the hard guards (8 at n = 2) classpoly
    # refuses before any work
    for w in ("t[2000,-1999]*p[2,1]", "t[9,0]"):
        proc = run_cli(["classpoly", "--n", "2", "--m", "1", "--w", w], timeout=30)
        assert proc.returncode == 2, w
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    for args in (["--n", "2", "--m", "1", "--w", "t[8,0]"],
                 ["--n", "5", "--m", "2", "--w", "s0*s4*tau^2"],
                 ["--n", "7", "--m", "3", "--w", "s0*s6*s5*s1*tau^3"],
                 ["--n", "7", "--m", "3", "--w", "s0*s6*s5*s1*s0*s6*tau^3"]):
        assert run_cli(["classpoly", *args]).returncode == 0, args


def test_window_scale_below_one_refused():
    # and above the hard guard, where window, phi table and output grow
    # linearly with the scale
    for scale in ("0", "-1", "9", "1000"):
        proc = run_cli(["semimodules", "--mu", "2,1,0,0,0", "--window-scale", scale])
        assert proc.returncode == 2, scale
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_sweep_reads_the_standalone_verdicts(monkeypatch):
    # a sweep row comes from condition_ii, condition_iii, thm12_member,
    # all_top_cyclic and, on refinement-list shapes only, the point-count
    # identity: no full_report, and no phi search but the identity's
    from adlv import compare as CP
    from adlv import semimodule as SM

    monkeypatch.setattr(CP, "full_report", lambda *a, **k: 1 / 0)
    identity_shapes, outside, inside = [], [], []
    depth = [0]

    def counted_enumeration(mu, *args, _inner=SM.enumerate_extended, **kwargs):
        (inside if depth[0] else outside).append(mu)
        return _inner(mu, *args, **kwargs)

    def counted_identity(mu, n, _inner=CP.point_count_identity):
        identity_shapes.append(mu)
        depth[0] += 1
        try:
            return _inner(mu, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(SM, "enumerate_extended", counted_enumeration)
    monkeypatch.setattr(CP, "point_count_identity", counted_identity)
    assert cli.main(["compare", "--max-n", "5", "--max-mu1", "2", "--format", "csv",
                     "--out", os.devnull]) == 0
    shapes = [mu for n in range(2, 6) for mu in CP.dominant_shapes(n, 2)]
    assert identity_shapes == [mu for mu in shapes if CP.condition_iii(mu, len(mu))]
    assert identity_shapes and inside and outside == []


def test_compare_builds_each_object_once(tmp_path, monkeypatch):
    # one full_report per shape, one class polynomial per cyclic element and
    # one semi-module enumeration per dominant mu' below mu
    from collections import Counter

    from adlv import compare as CP
    from adlv import reduction as R
    from adlv import semimodule as SM
    from adlv import weyl as W

    import oracles as O

    calls = Counter()
    for module, name in ((CP, "full_report"), (R, "class_polynomial"),
                         (SM, "enumerate_extended")):
        def counted(*args, _inner=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    mu = (2, 1, 0, 0, 0)
    assert cli.main(["compare", "--mu", "2,1,0,0,0", "--out", str(tmp_path / "r.json")]) == 0
    assert calls["full_report"] == 1
    assert calls["class_polynomial"] == len(O.s_adm_cyc(mu))
    assert calls["enumerate_extended"] == len(list(W.dominant_below(mu)))


def test_conjugators_built_only_where_xi_is_read(monkeypatch, tmp_path):
    # Upsilon(b) is built when the xi-family first reads it, once per
    # Coxeter element w(b): a compare verdict reads it for the cyclic b
    # only, crystal --mu for every b.  On (5,3,2,1,0) there are K = 32
    # tableaux with 4 distinct w(b); the 12 cyclic b have 3
    from adlv import compare as CP
    from adlv import crystal as C
    from adlv import semimodule as SM
    from adlv import weyl as W

    mu, m, n = (5, 3, 2, 1, 0), 11, 5
    tableaux = C.enumerate_weight_space(mu, SM.lambda_b(m, n))
    assert len(tableaux) == 32
    constructions = [C.build_construction(b, m, n) for b in tableaux]
    cyclic = {cd.w_of_b for cd in constructions if cd.is_cyclic}
    every = {cd.w_of_b for cd in constructions}
    assert sum(cd.is_cyclic for cd in constructions) == 12
    assert (len(cyclic), len(every)) == (3, 4)
    calls = []

    def counted(*args, _inner=W.conjugators):
        calls.append(args)
        return _inner(*args)
    monkeypatch.setattr(W, "conjugators", counted)
    C._conjugator_words.cache_clear()
    CP.all_top_cyclic(mu, n)
    assert sorted(w for _, w in calls) == sorted(cyclic)
    calls.clear()
    C._conjugator_words.cache_clear()
    assert cli.main(["crystal", "--mu", "5,3,2,1,0", "--out", str(tmp_path / "c.json")]) == 0
    assert sorted(w for _, w in calls) == sorted(every)


def test_signature_passes_only_where_the_weights_differ(monkeypatch):
    # a letter s_i with wt(i) = wt(i+1) acts as the identity and costs no
    # signature pass; every other letter costs one, unless the memo of the
    # Weyl action reading it already holds the step.  On (5,3,2,1,0) the
    # passes of all_top_cyclic are replayed on rows: the walk's letters, then
    # each Weyl action's letters, once per (letter, tableau) and memo
    from collections import Counter

    from adlv import compare as CP
    from adlv import crystal as C
    from adlv import semimodule as SM
    import oracles as O

    mu, m, n = (5, 3, 2, 1, 0), 11, 5
    sh = C.shape_of_mu(mu)
    passes, actions = [], []

    def flip(word, i, raising, geo, n_, _inner=C._flip):
        passes.append((i, word))
        return _inner(word, i, raising, geo, n_)

    def act(letters, word, wt, sh_, n_, memo=None, _inner=C._act_letters):
        memo = {} if memo is None else memo
        actions.append((letters, word, memo))
        return _inner(letters, word, wt, sh_, n_, memo)

    monkeypatch.setattr(C, "_flip", flip)
    monkeypatch.setattr(C, "_act_letters", act)
    CP.all_top_cyclic(mu, n)

    expected, identities = [], 0
    for b in C.enumerate_weight_space(mu, SM.lambda_b(m, n)):
        for i in reversed(C._wmax_prime_word(m, n)):
            expected.append((i, C.reading_word(b, n)))
            b = O.simple_act(i, b, n)
    steps: dict[int, set] = {}
    for letters, word, memo in actions:
        t = O.tableau_of_word(word, sh)
        for i in reversed(letters):
            wt = O.weight(t, n)
            if wt[i - 1] == wt[i]:
                identities += 1
            elif (i, t) not in steps.setdefault(id(memo), set()):
                steps[id(memo)].add((i, t))
                expected.append((i, C.reading_word(t, n)))
            t = O.simple_act(i, t, n)
    # b^- and the n conjugators' u^-1 b^- for each of the 12 cyclic b
    assert identities > 0 and len(actions) == 12 * (n + 1)
    assert all(C.weight(word, n)[i - 1] != C.weight(word, n)[i] for i, word in passes)
    assert Counter(passes) == Counter(expected)


def test_compare_rows_agree_with_adm_and_semimodules(tmp_path):
    # compare --mu prints each element as adm does, then compare's verdicts,
    # and each stratum as semimodules does, less abar and phi; both sides
    # come in the same walk or the same (dim, lambda, phi) order
    def records(*args):
        out = tmp_path / "out.json"
        assert cli.main([*args, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    for mu in ("2,1,0,0,0", "3,2,1,1,0", "2,2,0,0"):
        report = records("compare", "--mu", mu)
        adm = records("adm", "--mu", mu)
        assert len(report["eo_rows"]) == len(adm), mu
        for row, element in zip(report["eo_rows"], adm):
            assert list(row)[4:] == ["coxeter_witness", "dim"]
            assert {k: row[k] for k in list(row)[:4]} == element, mu
        if mu == "2,2,0,0":                   # not superbasic: no strata
            assert report["sm_rows"] == []
            continue
        strata = records("semimodules", "--mu", mu)
        assert report["sm_rows"] == [{k: e[k] for k in ("lambda", "dim", "cyclic", "type")}
                                     for e in strata], mu


def test_compare_rank9_builds_no_permutation_scan(tmp_path, monkeypatch):
    # non-emptiness, Coxeter witnesses and minimal coset representatives
    # come from p's cycles and mu's blocks, and LP(w) from a walk of its
    # verdict table, not from a scan of all of S_9 (which the oracles make
    # with itertools.permutations)
    import itertools

    calls = []

    def counted(*args, _inner=itertools.permutations):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(itertools, "permutations", counted)
    assert cli.main(["compare", "--mu", "1,1,0,0,0,0,0,0,0",
                     "--out", str(tmp_path / "r.json")]) == 0
    # an element of s_adm(omega_2) with 72,576 length-positive elements
    assert cli.main(["lp", "--n", "9", "--w", "t[1,1,0,0,0,0,0,0,0]*p[3,4,5,1,6,7,8,9,2]",
                     "--out", str(tmp_path / "lp.json")]) == 0
    assert len(json.loads((tmp_path / "lp.json").read_text())["lp"]) == 72576
    assert calls == []


def test_witnesses_build_no_conjugators(tmp_path, monkeypatch):
    # Coxeter witnesses come from a walk of LP(w) along arcs of p's cycle,
    # not from the conjugators of p into each Coxeter element, which only
    # the crystal construction builds
    from adlv import compare as CP
    from adlv import weyl as W

    import oracles as O

    calls = []

    def counted(*args, _inner=W.conjugators):
        calls.append(args)
        return _inner(*args)

    CP._block_verdict.cache_clear()     # decide omega_2's blocks here, not earlier
    monkeypatch.setattr(W, "conjugators", counted)
    assert cli.main(["lp", "--n", "9", "--w", "t[1,1,0,0,0,0,0,0,0]*p[3,4,5,1,6,7,8,9,2]",
                     "--out", str(tmp_path / "lp.json")]) == 0
    assert json.loads((tmp_path / "lp.json").read_text())["coxeter_witness"] is not None
    assert CP.condition_ii(O.omega(9, 2), 9)
    assert calls == []


def test_commands_walk_s_adm_without_building_it(tmp_path, monkeypatch):
    # condition_ii, full_report and adm iterate the ordered walk; none of
    # them builds the set s_adm
    from adlv import admissible as A
    from adlv import compare as CP

    def refused(mu):
        raise AssertionError("s_adm built")

    CP._block_verdict.cache_clear()     # walk the blocks, not read cached verdicts
    monkeypatch.setattr(A, "s_adm", refused)
    assert CP.condition_ii((2, 1, 0, 0, 0), 5)
    assert not CP.condition_ii((2, 2, 0, 0, 0), 5)
    rep = CP.full_report((2, 1, 0, 0, 0), 5)
    assert rep.cond_ii and rep.point_count_identity
    assert cli.main(["adm", "--mu", "2,2,1,0,0,0", "--out", str(tmp_path / "a.json")]) == 0
    assert len(json.loads((tmp_path / "a.json").read_text())) == 126


def test_adm_refuses_past_its_budget(tmp_path, monkeypatch, capsys):
    # the size of s_adm is counted in closed form before any element is
    # generated; past the budget adm exits 2 and names both numbers
    from adlv import admissible as A
    from adlv import compare as CP

    out = ["--out", str(tmp_path / "a.json")]
    CP._block_verdict.cache_clear()     # as in every test that patches what a block walks
    with monkeypatch.context() as mp:
        mp.setattr(A, "_min_coset_reps", lambda mu: 1 / 0)
        with pytest.raises(SystemExit) as exc:
            cli.main(["adm", "--mu", "8,7,6,5,4,3,2,1,0", *out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "10,026,505" in err
    assert f"{cli.ADM_MAX_ELEMENTS:,}" in err
    monkeypatch.setattr(cli, "ADM_MAX_ELEMENTS", 125)    # |s_adm(2,2,1,0,0,0)| - 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["adm", "--mu", "2,2,1,0,0,0", *out])
    assert exc.value.code == 2
    assert "126" in capsys.readouterr().err
    monkeypatch.setattr(cli, "ADM_MAX_ELEMENTS", 126)
    assert cli.main(["adm", "--mu", "2,2,1,0,0,0", *out]) == 0


def test_crystal_refuses_past_its_budget(tmp_path, monkeypatch, capsys):
    # K(mu, lambda_b) is counted by horizontal strips before any tableau is
    # built; past the budget crystal exits 2 and names both numbers
    from adlv import crystal as C

    out = ["--out", str(tmp_path / "c.json")]
    with monkeypatch.context() as mp:
        mp.setattr(C, "enumerate_weight_space", lambda *a: 1 / 0)
        with pytest.raises(SystemExit) as exc:
            cli.main(["crystal", "--mu", "8,7,6,5,4,3,2,2,0", *out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1,106,048" in err
    assert f"{cli.CRYSTAL_MAX_TABLEAUX:,}" in err
    monkeypatch.setattr(cli, "CRYSTAL_MAX_TABLEAUX", 4)    # K((2,2,1,0,0,0), lambda_b) - 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["crystal", "--mu", "2,2,1,0,0,0", *out])
    assert exc.value.code == 2
    assert "5 tableaux" in capsys.readouterr().err
    monkeypatch.setattr(cli, "CRYSTAL_MAX_TABLEAUX", 5)
    assert cli.main(["crystal", "--mu", "2,2,1,0,0,0", *out]) == 0
    assert len(json.loads((tmp_path / "c.json").read_text())) == 5


def test_compare_refuses_n_in_a_sweep(monkeypatch, capsys):
    # a sweep reads no --n, so one given with it is refused before any work
    from adlv import compare as CP

    for name in ("condition_ii", "all_top_cyclic"):
        monkeypatch.setattr(CP, name, lambda *a, **k: 1 / 0)
    for n in ("7", "3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", "--n", n, "--max-n", "3", "--max-mu1", "1"])
        assert exc.value.code == 2, n
        captured = capsys.readouterr()
        assert "unrecognized arguments: --n" in captured.err, n
        assert captured.out == "", n


def test_compare_refuses_past_its_budgets(tmp_path, monkeypatch, capsys):
    # compare --mu builds one construction per tableau of B_mu(lambda_b), and
    # a sweep as many as its shapes have in all; both sizes are counted by
    # horizontal strips before any tableau is built, and past the budget
    # compare exits 2 and names the size and the budget
    from adlv import compare as CP

    out = ["--out", str(tmp_path / "c.csv")]
    for name in ("full_report", "condition_ii", "all_top_cyclic"):
        monkeypatch.setattr(CP, name, lambda *a, **k: 1 / 0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--mu", "8,7,6,5,4,3,2,2,0", *out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1,106,048" in err
    assert f"{cli.CRYSTAL_MAX_TABLEAUX:,}" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--max-n", "9", "--max-mu1", "8", *out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{cli.SWEEP_MAX_TABLEAUX:,}" in err
    # the budgets are inclusive: one tableau fewer refuses the shape or range
    monkeypatch.undo()
    monkeypatch.setattr(cli, "CRYSTAL_MAX_TABLEAUX", 4)    # K((2,2,1,0,0,0), lambda_b) - 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--mu", "2,2,1,0,0,0", *out])
    assert exc.value.code == 2
    assert "5 tableaux" in capsys.readouterr().err
    monkeypatch.setattr(cli, "CRYSTAL_MAX_TABLEAUX", 5)
    assert cli.main(["compare", "--mu", "2,2,1,0,0,0", *out]) == 0
    monkeypatch.setattr(cli, "SWEEP_MAX_TABLEAUX", 9)     # the range's 10 tableaux - 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--max-n", "3", "--max-mu1", "3", *out])
    assert exc.value.code == 2
    assert "at least 10 tableaux" in capsys.readouterr().err
    monkeypatch.setattr(cli, "SWEEP_MAX_TABLEAUX", 10)
    assert cli.main(["compare", "--max-n", "3", "--max-mu1", "3", *out]) == 0


def test_classpoly_builds_one_tree(tmp_path, monkeypatch):
    # end_counts and the class polynomial read the same path profiles
    from adlv import reduction as R

    calls = []

    def counted(*args, _inner=R.path_profiles, **kwargs):
        calls.append(args)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(R, "path_profiles", counted)
    assert cli.main(["classpoly", "--n", "7", "--m", "3", "--w", "s0*s6*s5*s1*tau^3",
                     "--seed", "5", "--out", str(tmp_path / "c.json")]) == 0
    assert len(calls) == 1


# options a subcommand does not read, which it refuses (argparse exits 2);
# a command taking --mu reads n as its length, so --n is refused even when
# it equals that length
IGNORED_OPTIONS = {
    ("semimodules", "--mu", "1,1,0,0,0"): ("--n", "--m", "--format", "--seed"),
    ("crystal", "--mu", "2,1,0,0,0"): ("--n", "--m", "--format", "--seed",
                                       "--window-scale"),
    ("adm", "--mu", "1,1,0"): ("--n", "--m", "--format", "--seed", "--window-scale"),
    ("lp", "--n", "5", "--w", "s0*s4*tau^2"): ("--m", "--format", "--seed",
                                              "--window-scale"),
    ("classpoly", "--n", "5", "--m", "2", "--w", "s0*s4*tau^2"): ("--format",
                                                                 "--window-scale"),
    ("compare", "--mu", "2,1,0,0,0"): ("--n", "--m", "--seed", "--window-scale",
                                       "--jobs"),
    ("compare", "--max-n", "3", "--max-mu1", "1"): ("--n",),
}


def test_unread_options_are_refused(tmp_path, capsys):
    values = {"--n": "5", "--m": "3", "--format": "csv", "--seed": "3",
              "--window-scale": "2", "--jobs": "1"}
    pairs = 0
    for base, options in IGNORED_OPTIONS.items():
        out = ["--out", str(tmp_path / "o.json")]
        assert cli.main([*base, *out]) == 0
        for option in options:
            with pytest.raises(SystemExit) as exc:
                cli.main([*base, option, values[option], *out])
            assert exc.value.code == 2, (base, option)
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err
            pairs += 1
    assert pairs == 26


def _assert_refused_before_work(out, capsys, monkeypatch):
    """Every subcommand, with the computation it runs replaced by one that
    raises, exits 2 with an error about --out."""
    from adlv import admissible as A
    from adlv import compare as CP
    from adlv import crystal as C
    from adlv import reduction as R
    from adlv import semimodule as SM

    commands = {
        (SM, "enumerate_extended"): ["semimodules", "--mu", "1,1,0,0,0"],
        (C, "enumerate_weight_space"): ["crystal", "--mu", "2,1,0,0,0"],
        (A, "s_adm_walk"): ["adm", "--mu", "1,1,0"],
        (A, "lp"): ["lp", "--n", "5", "--w", "s0*s4*tau^2"],
        (R, "path_profiles"): ["classpoly", "--n", "5", "--m", "2", "--w", "s0*s4*tau^2"],
        (CP, "full_report"): ["compare", "--mu", "2,1,0,0,0"],
    }
    for (module, name), args in commands.items():
        monkeypatch.setattr(module, name, lambda *a, **k: 1 / 0)
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--out", out])
        assert exc.value.code == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err, args


def test_out_into_missing_directory_refused(tmp_path, capsys, monkeypatch):
    # the directory of --out is checked before any work
    _assert_refused_before_work(str(tmp_path / "missing" / "x.json"), capsys, monkeypatch)
    assert not (tmp_path / "missing").exists()


def test_out_naming_a_directory_refused(tmp_path, capsys, monkeypatch):
    # an --out that is a directory is refused before any work, and nothing
    # is written beside it
    (tmp_path / "existing").mkdir()
    _assert_refused_before_work(str(tmp_path / "existing"), capsys, monkeypatch)
    assert [p.name for p in tmp_path.rglob("*")] == ["existing"]


def test_failed_out_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    # a write whose final rename fails raises and removes its temporary file
    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        cli.main(["adm", "--mu", "1,1,0", "--out", str(tmp_path / "x.json")])
    assert list(tmp_path.iterdir()) == []


def test_out_honours_the_umask_and_the_target_mode(tmp_path):
    # a new --out file gets 0666 less the umask, and a file it replaces
    # keeps its mode
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("stale")
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        assert cli.main(["adm", "--mu", "1,1,0", "--out", str(new)]) == 0
        assert cli.main(["adm", "--mu", "1,1,0", "--out", str(old)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert old.read_text() == new.read_text() != "stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.json"]


def test_out_writes_through_a_symlink(tmp_path):
    # the file a symlink names is written, and the symlink stays, dangling
    # or not
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("stale")
    link.symlink_to(target)
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "made.json")
    for out in (link, dangling):
        assert cli.main(["adm", "--mu", "1,1,0", "--out", str(out)]) == 0
        assert out.is_symlink()
    assert json.loads(target.read_text()) == json.loads((tmp_path / "made.json").read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["dangling.json", "link.json", "made.json", "target.json"]


def test_out_writes_through_a_fifo(tmp_path):
    # a FIFO is written through, not replaced by a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(["adm", "--mu", "1,1,0", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert len(json.loads(got[0])) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_production_imports_no_numpy():
    code = ("import sys\n"
            "from adlv import cli\n"
            "assert cli.main(['lp', '--n', '5', '--w', 's0*s4*tau^2']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


# Module-level names that no adlv command reaches but that stay in src/adlv
# because the benchmark's worker (bench/worker.py) calls them by name: the
# set, which commands walk in order, and its reference route.
BENCHMARK_PINNED = {
    ("admissible", "s_adm"),
    ("admissible", "s_adm_via_enumeration"),
}

# What the pinned names reach and no command does: themselves, the full
# admissible set that the reference route filters, and the descent rule it
# peels by.
BENCHMARK_ONLY = BENCHMARK_PINNED | {
    ("admissible", "adm"),
    ("weyl", "left_descent"),
}


def _definition_graph(src: Path):
    """The module-level functions and classes of src/*.py, as (module, name);
    who names whom among them, as edges from each definition to the
    (module, name) of every Name in it that no enclosing definition binds
    and of every attribute of a module imported as `from . import module as
    X`, with the key (module, None) for what the module's other statements
    name on import; and (module, "Class.name") of every non-dunder method
    or property of a class, and of every annotated field of a @dataclass,
    whose name no attribute read anywhere in src carries.  NamedTuples are
    left out of the last: they are read by unpacking."""
    defined, edges, members, read = set(), {}, set(), set()
    for f in sorted(src.glob("*.py")):
        mod, tree = f.stem, ast.parse(f.read_text())
        read |= {sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        members |= {(mod, node.name, item.name) for node in classes for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))}
        members |= {(mod, node.name, item.target.id) for node in classes
                    if any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                           for d in node.decorator_list)
                    for item in node.body if isinstance(item, ast.AnnAssign)}
        aliases, imported = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        imported[a.asname or a.name] = (node.module, a.name)
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                defined.add((mod, own))
            bound = set()
            if own is not None:       # names local to the definition
                for sub in ast.walk(node):
                    if isinstance(sub, ast.arg):
                        bound.add(sub.arg)
                    elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
                        bound.add(sub.id)
            refs = edges.setdefault((mod, own), set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                        and sub.value.id in aliases and sub.value.id not in bound:
                    refs.add((aliases[sub.value.id], sub.attr))
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                        and sub.id not in bound:
                    refs.add(imported.get(sub.id, (mod, sub.id)))
    unread = {(mod, f"{cls}.{name}") for mod, cls, name in members if name not in read}
    return defined, edges, unread


def _reached(edges, starts) -> set:
    seen, stack = set(), list(starts)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(edges.get(node, ()))
    return seen


def test_production_defines_only_what_it_uses():
    # every definition in src/adlv is reached from cli.main (or from what a
    # module runs on import) or from a name the benchmark pins, and what
    # only the pinned names reach is BENCHMARK_ONLY; every method, property
    # or dataclass field of its classes is read as an attribute there;
    # reference routes live in tests/oracles.py, which no production module
    # imports
    src = Path(cli.__file__).parent
    defined, edges, unread = _definition_graph(src)
    on_import = [key for key in edges if key[1] is None]
    commands = _reached(edges, [("cli", "main"), *on_import])
    pinned = _reached(edges, BENCHMARK_PINNED)
    assert sorted(defined - commands - pinned) == [], \
        f"defined in src/adlv but reached by no command: {sorted(defined - commands - pinned)}"
    only_pinned = defined & (pinned - commands)
    assert sorted(only_pinned) == sorted(BENCHMARK_ONLY), \
        f"reached only from the pinned names: {sorted(only_pinned)}"
    assert sorted(unread) == [], f"members never read in src/adlv: {sorted(unread)}"
    for f in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                assert not any("oracles" in name for name in names), f.name


def _unloaded_imports(src: Path) -> set[tuple[str, str]]:
    """(module, name) of every name an import statement in src/*.py binds
    that the module never loads: no Name in it reads the name, directly or
    as the base of an attribute."""
    out = set()
    for f in sorted(src.glob("*.py")):
        tree = ast.parse(f.read_text())
        bound, loaded = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        out |= {(f.stem, name) for name in bound - loaded}
    return out


def test_production_loads_every_import():
    src = Path(cli.__file__).parent
    assert sorted(_unloaded_imports(src)) == []


def test_production_checks_survive_optimization():
    # python -O drops assert statements and `if __debug__` blocks, so every
    # check in src/adlv raises explicitly
    src = Path(cli.__file__).parent
    found = [(f.name, node.lineno) for f in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "__debug__")]
    assert found == [], f"checks that python -O drops: {found}"


def test_determinism():
    # every command computes its result: two fresh processes print the same
    # bytes for the same arguments and seed
    for args in (["semimodules", "--mu", "2,1,1,0,0", "--window-scale", "2"],
                 ["crystal", "--mu", "2,1,0,0,0"],
                 ["adm", "--mu", "2,1,0"],
                 ["lp", "--n", "5", "--w", "s0*s4*tau^2"],
                 ["classpoly", "--n", "7", "--m", "3", "--w", "s0*s6*s5*s1*tau^3",
                  "--seed", "5"]):
        first, second = run_cli(args), run_cli(args)
        assert first.returncode == 0, (args, first.stderr)
        assert second.stdout == first.stdout, args


def test_former_cache_variable_is_ignored(tmp_path):
    # ADLV_CACHE_DIR once named a result cache; it is read by nothing now,
    # whether it names a regular file or a directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    plain = run_cli(["adm", "--mu", "1,1,0"])
    proc = run_cli(["adm", "--mu", "1,1,0"], {"ADLV_CACHE_DIR": str(blocker)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain.stdout
    cache = tmp_path / "cache"
    cache.mkdir()
    proc = run_cli(["classpoly", "--n", "7", "--m", "3", "--w", "s0*s6*s5*s1*tau^3",
                    "--seed", "5"], {"ADLV_CACHE_DIR": str(cache)})
    assert proc.returncode == 0, proc.stderr
    assert list(cache.iterdir()) == []


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = re.search(r'^version = "(.*)"', pyproject.read_text(), re.M).group(1)
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert proc.stdout == version + "\n"


def test_out_flag(tmp_path):
    out = tmp_path / "strata.json"
    proc = run_cli(["semimodules", "--mu", "1,1,0,0,0", "--out", str(out)])
    assert proc.returncode == 0
    assert json.loads(out.read_text())
