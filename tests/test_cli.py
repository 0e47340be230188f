"""Command-line behavior: exit codes, JSON output and suite options."""

import json

import pytest

from raytheta.cli import main
from raytheta.parsing import (
    ParseError,
    parse_class_spec,
    parse_conductor_expr,
    parse_element,
    parse_fraction,
    parse_named_prime,
)
from raytheta.quadfield import field, principal_ideal, split_prime
from raytheta.rayclass import Conductor, ray_class


# -- parsing ------------------------------------------------------------------


def test_parse_fraction():
    from fractions import Fraction

    assert parse_fraction("20/1") == Fraction(20)
    assert parse_fraction("-3/4") == Fraction(-3, 4)
    assert parse_fraction(" 7 ") == Fraction(7)
    with pytest.raises(ParseError):
        parse_fraction("x/2")


def test_parse_element_forms():
    k2 = field(-2)
    assert parse_element(k2, "1+2*w") == k2.elem(1, 2)
    assert parse_element(k2, "-w") == k2.elem(0, -1)
    assert parse_element(k2, "5-2w") == k2.elem(5, -2)
    assert parse_element(k2, "7") == k2.elem(7)
    with pytest.raises(ParseError):
        parse_element(k2, "q+1")


def test_parse_named_primes():
    k2 = field(-2)
    p3 = parse_named_prime(k2, "P3")
    p3bar = parse_named_prime(k2, "P3bar")
    rec = split_prime(k2, 3)
    assert p3 == rec.prime and p3bar == rec.conj
    with pytest.raises(ParseError):
        parse_named_prime(field(-1), "P3")  # 3 inert in Q[i]


def test_parse_conductor_expressions():
    k2 = field(-2)
    F = parse_conductor_expr(k2, "4*P2")
    assert F == principal_ideal(k2.elem(0, 4))
    F2 = parse_conductor_expr(k2, "P3*4*P2")
    assert int(F2.norm()) == 96
    F3 = parse_conductor_expr(k2, "(1+w)*(1-w)")
    assert int(F3.norm()) == 9


def test_parse_class_spec_products():
    k2 = field(-2)
    Fc = Conductor(parse_conductor_expr(k2, "4*P2"))
    ref = parse_class_spec(k2, "[5+2*w]", Fc)
    assert ref.same_class(ray_class(k2.elem(5, 2), Fc))
    ref2 = parse_class_spec(k2, "[5+2*w]^-1*[5+2*w]^2", Fc)
    assert ref2.same_class(ref)
    # CRT form at a composite conductor; 4P2 is one juxtaposed factor
    Fbig = Conductor(parse_conductor_expr(k2, "P3*4*P2"))
    ref3 = parse_class_spec(k2, "[1,-1]@P3*4P2", Fbig)
    assert ref3.same_class(ray_class(7, Fbig))
    ref4 = parse_class_spec(k2, "[7]", Fbig)
    assert ref4.same_class(ref3)


def test_parse_class_spec_exponent_taken_modulo_the_order():
    import time

    k2 = field(-2)
    Fc = Conductor(parse_conductor_expr(k2, "4*P2"))
    n = Fc.group.order
    assert n > 1
    for spec in ("[3]", "[5+2*w]"):
        def power(k):
            return parse_class_spec(k2, f"{spec}^{k}", Fc)

        assert power(n + 3) == power(3)
        assert power(-1) == power(n - 1) == power(1).inv()
        assert power(0) == power(n) == ray_class(1, Fc)
        assert power(5) == power(1) * power(2) * power(2)
    t0 = time.perf_counter()
    assert parse_class_spec(k2, "[3]^99999999", Fc) == parse_class_spec(k2, f"[3]^{99999999 % n}", Fc)
    assert time.perf_counter() - t0 < 1


# -- CLI commands --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "id1"], 0),
        (["verify", "thm51", "--a", "9", "--r", "1", "--eps", "0", "--trunc", "2/1"], 1),
        (["verify", "id1", "--jobs", "2"], 2),
        (["verify", "nosuch"], 2),
        (["verify", "thm51", "--a", "341"], 2),
        (["verify", "thm51", "--a", "-3"], 2),
        (["verify", "sec54", "--bound", "-5"], 2),
        (["verify", "relations55", "--bound", "1"], 2),
        (["verify", "sec54", "--bound", "10"], 3),
        (["verify", "thm51", "--eps", "7"], 2),
        (["verify", "id1", "--a", "5"], 2),
        (["verify", "id1", "--bound", "10"], 2),
        (["verify", "id1", "--config", "x"], 2),
        (["verify", "pell", "--trunc", "5/1"], 2),
        (["verify", "pell"], 0),
        (["verify", "--trunc=0/1"], 2),
        (["verify", "thm51", "--trunc=1/100"], 2),
        (["verify", "search", "--trunc", "1/100"], 2),
        (["search", "--pool", "id24", "--trunc", "1/100"], 2),
    ],
    ids=["pass", "fail", "jobs_flag", "unknown_suite", "p_divides_aprime", "negative_a", "bound_negative", "bound_one",
         "closure", "eps_seven", "id1_a", "id1_bound", "config_flag", "pell_trunc", "pell", "trunc_zero",
         "thm51_trunc_below_every_term", "search_trunc_below_every_term", "search_pool_trunc_below_every_term"],
)
def test_verify_exit_codes(argv, code, capsys):
    # 0 all passed, 1 a comparison failed, 2 bad usage, 3 a certificate failure
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags itself
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == code
    if code == 0:
        assert "PASS" in out and "FAIL" not in out
    elif code == 1:
        assert "FAIL" in out
    else:
        assert out == "" and err


def test_verify_thm51_options_without_a_run_one_row(capsys):
    # a defaults to 1, r to 1 and eps to 0 once any of the three is given
    assert main(["verify", "thm51", "--r", "3", "--eps", "1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(row["pass"], row["params"]["a"], row["params"]["r"], row["params"]["eps"]) for row in rows] == [(True, 1, 3, 1)]


def test_plain_verify_with_a_runs_one_thm51_row(capsys):
    assert main(["verify", "--a", "5", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in rows] == ["id1"] * 3 + ["id2"] * 6 + ["relations55"] * 3 + ["thm51"] + ["consolidate"] * 4 + ["pell"] * 2
    thm51 = [row["params"] for row in rows if row["name"] == "thm51"]
    assert [(p["a"], p["r"], p["eps"]) for p in thm51] == [(5, 1, 0)]


def test_plain_verify_trunc_leaves_pell_at_zero(capsys):
    # --trunc belongs to every suite but pell, whose rows are exact integer checks
    assert main(["verify", "--trunc", "5/1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    truncs = {row["name"]: row["trunc"] for row in rows}
    assert truncs.pop("pell") == [0, 1]
    assert set(map(tuple, truncs.values())) == {(5, 1)}


def test_cli_import_loads_no_thread_pool():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import raytheta

    env = {**os.environ, "PYTHONPATH": str(Path(raytheta.__file__).parent.parent)}
    probe = "import sys, raytheta.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _strip_timing(text):
    rows = json.loads(text)
    for row in rows:
        row.pop("wall_time_ms")
    return rows


def test_verify_json_deterministic(capsys):
    rc = main(["verify", "id1", "--trunc", "6/1", "--json"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(["verify", "id1", "--trunc", "6/1", "--json"])
    second = capsys.readouterr().out
    # identical up to wall-clock measurements
    assert _strip_timing(first) == _strip_timing(second)
    blob = json.loads(first)
    assert [row["pass"] for row in blob] == [True, True, True]
    assert all(row["first_mismatch"] is None for row in blob)


@pytest.mark.parametrize("eps", ["0", "1"])
def test_verify_thm51_large_p_member(eps, capsys):
    # a = 705: p = 1,988,101 and a' = 1, so the left side has 994,050 u
    rc = main(["verify", "thm51", "--a", "705", "--eps", eps, "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [(row["params"]["p"], row["pass"]) for row in rows] == [(1988101, True)]


def test_verify_thm51_flags(capsys):
    rc = main(["verify", "thm51", "--a", "5", "--r", "1", "--eps", "0", "--trunc", "2/1"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_dump_eta_pentagonal(capsys):
    rc = main(["dump", "eta", "--trunc", "8/1"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["denom"] == 24
    assert blob["terms"] == [[1, 1], [25, -1], [49, -1], [121, 1], [169, 1]]


def test_dump_theta_squares(capsys):
    rc = main(["dump", "theta", "--ell", "0", "--k", "1", "--trunc", "9/1"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"denom": 1, "terms": [[0, 1], [1, 2], [4, 2], [9, 2]], "trunc": [9, 1]}


def test_dump_v_matches_library(capsys):
    from raytheta.qseries import v_func

    rc = main(["dump", "v", "--r", "1", "--m", "3", "--trunc", "10/1"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == v_func(1, 3, 10).to_json_dict()


def test_dump_rayclass_skew_sets(capsys):
    rc = main(["dump", "rayclass", "-D", "-2", "--Dp", "-1", "-F", "4*P2"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["A"] == [[1, 0, 1]]
    assert len(blob["S"]) == 1
    k2 = field(-2)
    from raytheta.quadfield import QIdeal
    from raytheta.rayclass import RayClassRef, conductor_of

    srep = QIdeal(k2, 1, *blob["S"][0])
    Fc = conductor_of(k2.elem(0, 4))
    assert RayClassRef(srep, Fc).same_class(ray_class(k2.elem(5, 2), Fc))


def test_dump_rayclass_bad_conductor(capsys):
    assert main(["dump", "rayclass", "-D", "-2", "--Dp", "-1", "-F", "4*Q9"]) == 2


def test_dump_class_spec_theta(capsys):
    rc = main([
        "dump", "class", "-D", "-2", "-F", "4*P2",
        "--class", "[5+2*w]", "--d", "16", "--trunc", "3/1",
    ])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    from raytheta.qseries import QSeries
    from raytheta.rayclass import ray_class, conductor_of

    k2 = field(-2)
    Fc = conductor_of(k2.elem(0, 4))
    want = ray_class(k2.elem(5, 2), Fc)
    assert blob["class"] == list(want.canonical_key()[1:])
    got = QSeries.from_json_dict(blob["theta"])
    from raytheta.rayclass import ray_theta

    assert got == ray_theta(want, 16, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["dump", "eta", "--ell", "5"],
        ["dump", "theta", "--r", "3"],
        ["dump", "v", "--k", "6"],
        ["dump", "rayclass", "-D", "-2", "--Dp", "-1", "-F", "4*P2", "--class", "[3]"],
        ["dump", "class", "-D", "-2", "-F", "4*P2", "--class", "[3]", "--bound", "10"],
        ["dump", "rayclass", "-D", "-2", "-F", "4*P2"],
        ["dump", "class", "-D", "-2", "-F", "4*P2"],
    ],
    ids=["eta_ell", "theta_r", "v_k", "rayclass_class", "class_bound", "rayclass_without_Dp", "class_without_class"],
)
def test_dump_kind_takes_only_its_own_flags(argv, capsys):
    # each kind has its own subparser: argparse refuses a flag of another kind
    # and a missing required flag, before anything is computed, and shows the
    # usage line of the kind, which lists the flags it takes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and err.startswith(f"usage: raytheta dump {argv[1]} [-h]") and "Traceback" not in err
    assert f"raytheta dump {argv[1]}: error: " in err


def test_search_command(capsys):
    rc = main(["search", "--pool", "idp1", "--trunc", "16/1"])
    assert rc == 0
    rels = json.loads(capsys.readouterr().out)
    assert len(rels) == 3


def test_verify_search_regression_suite(capsys):
    rc = main(["verify", "search", "--trunc", "16/1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "id1", "--cache", "as-cache"],
        ["dump", "rayclass", "-D", "-2", "--Dp", "-1", "-F", "4*P2", "--cache", "as-cache"],
        ["cache", "stats", "--cache", "as-cache"],
    ],
    ids=["verify", "dump", "cache"],
)
def test_skew_set_cache_is_gone(argv, capsys):
    # skew sets are always recomputed; the old cache flags are bad usage
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_exit_three_on_closure_failure(capsys, monkeypatch):
    import raytheta.identities as ident
    from raytheta.rayclass import ClosureError

    def fake_run(name, trunc=None, **kw):
        raise ClosureError("increase bound")

    monkeypatch.setattr(ident, "run_suite", fake_run)
    assert main(["verify", "id1"]) == 3
    assert "enumeration failure" in capsys.readouterr().err


def test_exit_one_on_failure(capsys, monkeypatch):
    import raytheta.identities as ident
    from fractions import Fraction

    def fake_run(name, trunc=None, **kw):
        return [ident.negative_control("id1", Fraction(6))]

    monkeypatch.setattr(ident, "run_suite", fake_run)
    rc = main(["verify", "id1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_bad_family_parameter_exit_two(capsys):
    # a = 7 is not 1 mod 4: bad usage, not a failed comparison
    assert main(["verify", "thm51", "--a", "7"]) == 2
    captured = capsys.readouterr()
    assert "1 mod 4" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["search", "--trunc=-1/1"], "error: truncation must be >= 0"),
        (["search", "--max-coeff", "-1", "--trunc", "4/1"], "error: max coefficient must be >= 0"),
        (["dump", "rayclass", "-D", "-30", "--Dp", "-10", "-F", "P5*P3*4P2", "--bound", "10"],
         "enumeration failure: the 256 ray classes need generator primes up to norm 17, above the bound 10\n"),
        (["verify", "sec54", "--bound", "10"],
         "enumeration failure: the 256 ray classes need generator primes up to norm 17, above the bound 10\n"),
        (["dump", "rayclass", "-D", "-5", "--Dp", "-15", "-F", "P3*P3bar"], "not applicable: "),
        (["dump", "rayclass", "-D", "-2", "--Dp", "-2", "-F", "4*P2"], "error: "),
        (["dump", "rayclass", "-D", "-2", "--Dp", "-1", "-F", "4*P2", "--bound", "-3"], "error: bound must be at least 2"),
        (["verify", "thm51", "--r", "5", "--eps", "1"], "error: r must be prime to p"),  # p = 5 at a = 1
        (["verify", "id1", "pell", "--bound", "10", "--count", "3", "--eps", "1"], "error: no suite among id1, pell takes --bound, --eps\n"),
        (["verify", "thm51", "--experimental", "--count", "3"], "error: no suite among thm51 takes --count\n"),
    ],
    ids=["search_trunc", "search_max_coeff", "dump_closure", "verify_closure", "dump_overlap", "dump_same_field",
         "dump_bound", "thm51_r_not_prime_to_p", "options_of_no_named_suite", "count_without_pell"],
)
def test_errors_map_to_exit_codes_without_traceback(argv, message, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == (3 if message.startswith("enumeration") else 2)
    assert out == "" and err.startswith(message)


# The family_deep sequence of one benchmark instance (plain verify, the four
# thm51 rows, the deep suites), with bad-usage calls between them, then a
# dump kind and a dump flag of another kind.
_REUSE_ARGVS = [
    ["verify", "--json"],
    ["verify", "--trunc", "x", "--json"],
    ["verify", "thm51", "--a", "5", "--r", "7", "--eps", "0", "--trunc", "20/1", "--json"],
    ["verify", "thm51", "--a", "5", "--r", "1", "--eps", "1", "--trunc", "20/1", "--json"],
    ["verify", "nosuch", "--json"],
    ["verify", "thm51", "--a", "13", "--r", "15", "--eps", "0", "--trunc", "20/1", "--json"],
    ["nosuchcommand"],
    ["verify", "thm51", "--a", "13", "--r", "9", "--eps", "1", "--trunc", "20/1", "--json"],
    ["verify", "thm51", "--a", "-3", "--json"],
    ["verify", "id1", "id2", "consolidate", "search", "--trunc", "400/1", "--json"],
    ["dump", "class", "-D", "-2", "-F", "4*P2", "--class", "[5+2*w]", "--d", "16", "--trunc", "3/1"],
    ["dump", "eta", "--ell", "5"],
]


def test_main_reuses_its_parser_and_matches_fresh_processes(monkeypatch, capsys):
    # one process, one parser: every call prints what a fresh process prints
    import os
    import subprocess
    import sys
    from pathlib import Path

    import raytheta
    import raytheta.cli as cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    env = {**os.environ, "PYTHONPATH": str(Path(raytheta.__file__).parent.parent)}
    for argv in _REUSE_ARGVS:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "raytheta.cli", *argv], env=env, capture_output=True, text=True)
        assert rc == fresh.returncode, argv
        assert err == fresh.stderr, argv
        if rc == 2:
            assert out == fresh.stdout == "", argv
        elif argv[0] == "dump":
            assert out == fresh.stdout, argv
        else:
            assert _strip_timing(out) == _strip_timing(fresh.stdout), argv
    assert built == [1]


def test_bench_trace_targets_resolve():
    # the benchmark's span tracer wraps these public names; a name removed
    # from raytheta would make its traced runs fail
    import types
    from pathlib import Path

    import raytheta
    import raytheta.cli

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    targets = spans.targets(raytheta, raytheta.cli)
    assert targets
    for name, owner, attr in targets:
        assert callable(vars(owner).get(attr)), (name, attr)


def _bench_workloads():
    """perfbench/workloads.py, loaded read-only from this checkout."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_runs():
    workloads = _bench_workloads()
    runs = [pytest.param(w, seed, False, id=f"{w}-{seed}") for w in workloads.WORKLOADS for seed in (1, 2, 3)]
    return runs + [pytest.param("family_deep", 1, True, id="family_deep-1-trace")]


def test_default_suites_match_the_benchmark():
    # the benchmark checks plain-verify rows against its own copy of the
    # default suites and their truncations
    from raytheta.identities import SUITES

    defaults = [(name, suite.trunc) for name, suite in SUITES.items() if suite.default]
    assert defaults == list(_bench_workloads().DEFAULT_SUITE_TRUNC.items())


def test_bench_round_trips_label_without_a_class_table(monkeypatch):
    # a round trip labels one ideal and sums its class's coset: one
    # principality test per label, and no class product, so no group builds
    # its h^2 class table
    import raytheta.rayclass as rc
    from raytheta.bridge import coset_to_rayclass, product_to_coset

    workloads = _bench_workloads()
    calls = {"is_principal": 0, "label": 0, "table": 0}
    real_principal, real_label, real_table = rc.is_principal, rc.RayClassGroup.label, rc.RayClassGroup.table

    def principal(I):
        calls["is_principal"] += 1
        return real_principal(I)

    def label(self, I):
        calls["label"] += 1
        return real_label(self, I)

    def table(self):
        calls["table"] += 1
        return real_table.fget(self)

    monkeypatch.setattr(rc, "is_principal", principal)
    monkeypatch.setattr(rc.RayClassGroup, "label", label)
    monkeypatch.setattr(rc.RayClassGroup, "table", property(table))
    products = [step.product for step in workloads.build("theta_deep", 1) if step.product]
    assert len(products) == len(workloads.ROUND_TRIP_BASES) == 20
    for r, k, s, ell in products:
        spec = coset_to_rayclass(product_to_coset(r, k, s, ell))
        assert not spec.theta(workloads.ROUND_TRIP_TRUNC).is_zero()
    assert calls == {"is_principal": 20, "label": 20, "table": 0}


# Traced family_deep at seed 1: the suite runners reach each traced name
# through the module, so every call of the parent design is still seen.
TRACED_FAMILY_DEEP_CALLS = {
    "identities.run_suite": 14,
    "identities.thm51_check": 7,
    "identities.consolidate": 8,
    "identities.pell_levels": 1,
    "identities.search_relations": 2,
}


@pytest.mark.parametrize("workload,seed,trace", _bench_runs())
def test_bench_worker_rows_are_correct(workload, seed, trace):
    # the benchmark's own correctness check: every row present, asked-for and
    # PASS, exit codes agreeing with the verdicts, and no step raising or
    # exiting 2 or 3; the worker imports raytheta from this checkout's src/
    import subprocess
    import sys
    from pathlib import Path

    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    argv = [sys.executable, str(worker), "--workload", workload, "--seed", str(seed)] + ["--trace"] * trace
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["ops_failed"] == 0
    assert result["rows_passed"] == result["rows"]
    if trace:
        calls = result["trace"]["calls"]
        assert {name: n for name, n in calls.items() if name.startswith("identities.")} == TRACED_FAMILY_DEEP_CALLS
        # relations55 asks once per conductor of its two pairs; nothing prints a class
        assert calls["rayclass.skew_sets"] == 4 and calls.get("rayclass.canonical_rep", 0) == 0
        assert result["trace"]["counts"]["identities.reports"] == 40
