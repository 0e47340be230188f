"""Command-line behavior: exit codes, JSON output and config handling."""

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


# -- CLI commands --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,config,code",
    [
        (["verify", "id1"], None, 0),
        (["verify", "thm51", "--a", "9", "--r", "1", "--eps", "0", "--trunc", "2/1"], None, 1),
        (["verify", "id1", "--jobs", "2"], None, 2),
        (["verify", "nosuch"], None, 2),
        (["verify", "id1"], "trunk=6/1\n", 2),
        (["verify", "id1"], "jobs=2\n", 2),
        (["verify", "id1"], "cache=skew-sets\n", 2),
        (["verify", "id1"], "bound=abc\n", 2),
        (["verify", "id1"], "json=ture\n", 2),
        (["verify", "sec54", "--bound", "10"], None, 3),
    ],
    ids=["pass", "fail", "jobs_flag", "unknown_suite", "config_typo", "config_jobs", "config_cache", "config_bound",
         "config_json", "closure"],
)
def test_verify_exit_codes(argv, config, code, tmp_path, capsys):
    # 0 all passed, 1 a comparison failed, 2 bad usage, 3 a certificate failure
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
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
    if config is not None:
        assert err.startswith("error: ")


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


@pytest.mark.parametrize("value,as_json", [("YES", True), ("1", True), ("False", False), ("no", False)])
def test_config_json_values(value, as_json, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"json={value}\ntrunc=2/1\n")
    assert main(["verify", "id1", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[") == as_json


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


def test_verify_thm51_flags(capsys):
    rc = main(["verify", "thm51", "--a", "5", "--r", "1", "--eps", "0", "--trunc", "2/1"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trunc=6/1\njson=true\n")
    rc = main(["verify", "id1", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)[0]["trunc"] == [6, 1]


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
        "dump", "rayclass", "-D", "-2", "-F", "4*P2",
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
