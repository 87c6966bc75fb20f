"""CLI behavior: exit codes, dump formats, schema stability, multi-file
namespaces."""

import json
import subprocess
import sys

import pytest

from conftest import CORPUS, ROOT


def rsc(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rsccore.cli", *args],
        capture_output=True, text=True, cwd=cwd or str(ROOT),
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})


def test_check_verified_exit_zero():
    r = rsc("check", str(CORPUS / "minindex.rsc"))
    assert r.returncode == 0
    assert "VERIFIED" in r.stderr


def test_check_errors_exit_one():
    r = rsc("check", str(CORPUS / "bad_undefined.rsc"))
    assert r.returncode == 1
    assert "error[" in r.stderr
    assert "bad_undefined.rsc:2:" in r.stderr


def test_usage_error_exit_two():
    r = rsc("check", str(CORPUS / "minindex.rsc"), "--solver", "external")
    assert r.returncode == 2


def test_missing_file_exit_two():
    r = rsc("check", "no_such_file.rsc")
    assert r.returncode == 2


def test_check_json_format():
    r = rsc("check", "--format", "json", str(CORPUS / "bad_head0.rsc"))
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert data["schema"] == "rsc/check/v1"
    assert data["verdict"] == "errors"
    assert data["diagnostics"][0]["span"]["line"] == 8


def test_dump_vcs_json():
    r = rsc("check", "--dump-vcs", str(CORPUS / "head.rsc"))
    data = json.loads(r.stdout)
    assert data["schema"] == "rsc/vcs/v1"
    assert data["constraints"]
    kinds = {c["kind"] for c in data["constraints"]}
    assert "sub" in kinds and "wf" in kinds


def test_dump_solution_json():
    r = rsc("check", "--dump-solution", str(CORPUS / "ssa_reduce.rsc"))
    data = json.loads(r.stdout)
    assert data["schema"] == "rsc/solution/v1"
    assert any(v["origin"][0] == "phi" for v in data["kvars"].values())


def test_dump_ssa_deterministic():
    outs = {rsc("check", "--dump-ssa", str(CORPUS / "minindex.rsc")).stdout
            for _ in range(2)}
    assert len(outs) == 1
    assert "letwhile" in outs.pop()


def test_dump_ssa_reports_ssa_errors(tmp_path):
    """An SSA error under --dump-ssa gives the diagnostics and exit code
    of a plain check, not a traceback."""
    src = tmp_path / "unbound.rsc"
    src.write_text("function f(x) { return y; }\n")
    plain = rsc("check", str(src))
    r = rsc("check", "--dump-ssa", str(src))
    assert r.returncode == plain.returncode == 1
    assert r.stderr == plain.stderr == \
        f"{src}:1:24: error[SSA]: unbound variable 'y'\nERRORS\n"
    assert r.stdout == ""


def test_run_entry_and_args():
    r = rsc("run", str(CORPUS / "minindex.rsc"), "--entry", "minIndex",
            "--args", "[9,4,6,2,8]")
    assert r.returncode == 0
    assert r.stdout.strip() == "3"


def test_run_stuck_exit_one():
    r = rsc("run", str(CORPUS / "head.rsc"), "--entry", "head",
            "--args", "[]")
    assert r.returncode == 1
    assert "stuck" in r.stdout


def test_simulate_json_report():
    r = rsc("simulate", str(CORPUS / "field_ghost.rsc"))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["schema"] == "rsc/sim/v1"
    assert data["status"] == "ok"
    assert data["frsc_steps"] <= data["irsc_steps"]


def test_multi_file_concatenation(tmp_path):
    lib = tmp_path / "lib.rsc"
    lib.write_text("/*@ (x: nat) => nat */\nfunction inc(x) {"
                   " return x + 1; }\n")
    main = tmp_path / "main.rsc"
    main.write_text("var r = inc(3);\n")
    r = rsc("check", str(lib), str(main))
    assert r.returncode == 0


def test_qualifier_file_flag(tmp_path):
    quals = tmp_path / "q.txt"
    quals.write_text("v = ★ + 1\n")
    r = rsc("check", "--qualifiers", str(quals),
            str(CORPUS / "ssa_reduce.rsc"))
    assert r.returncode == 0


def test_limits_are_one_line_diagnostics(tmp_path, capsys, monkeypatch):
    """Deep nesting and the fixpoint bound end as `rsc:` lines with exit
    code 2, not as tracebacks."""
    from rsccore import cli
    from rsccore.infer import FixpointBoundError
    deep = tmp_path / "deep.rsc"
    deep.write_text("/*@ () => number */\nfunction f() { return "
                    + "(" * 3000 + "1" + ")" * 3000 + "; }\n")
    assert cli.main(["check", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rsc: ") and err.count("\n") == 1
    assert "Traceback" not in err

    def bound(*args, **kwargs):
        raise FixpointBoundError("fixpoint iteration bound exceeded")
    monkeypatch.setattr(cli, "check_program", bound)
    assert cli.main(["check", str(CORPUS / "head.rsc")]) == 2
    assert capsys.readouterr().err == \
        "rsc: fixpoint iteration bound exceeded\n"


_BAD_HIERARCHIES = {
    "cycle": ("class A extends B { }\nclass B extends A { }\nvar x = 1;\n",
              "inheritance cycle through A"),
    "unknown-parent": ("class A extends Zed { }\nvar x = 1;\n",
                       "unknown class Zed"),
    "override": ("class A {\n  f(): number { return 1; }\n}\n"
                 "class B extends A {\n  f(): number { return 2; }\n}\n"
                 "var b = new B();\nvar r = b.f();\n",
                 "method f of B overrides an inherited method"),
}


@pytest.mark.parametrize("cmd", ["check", "run", "simulate"])
@pytest.mark.parametrize("kind", sorted(_BAD_HIERARCHIES))
def test_class_table_errors_on_every_subcommand(tmp_path, cmd, kind):
    """The machines reject the class tables the checker rejects, with the
    checker's one-line diagnostic."""
    text, reason = _BAD_HIERARCHIES[kind]
    src = tmp_path / "bad.rsc"
    src.write_text(text)
    r = rsc(cmd, str(src))
    assert r.returncode == 1
    assert r.stderr.splitlines()[0] == f"{src}:1:1: error[CLASS]: {reason}"
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("cmd", ["run", "simulate"])
def test_unknown_entry_is_a_usage_error(cmd):
    r = rsc(cmd, str(CORPUS / "head.rsc"), "--entry", "nope")
    assert r.returncode == 2
    assert r.stderr == "rsc: no function 'nope'\n"
    assert r.stdout == ""


_OUTSIDE = "is not an integer, boolean, string, null or array of these"


@pytest.mark.parametrize("cmd", ["run", "simulate"])
@pytest.mark.parametrize("arg,shown", [
    ("1.5", "1.5"), ("NaN", "NaN"), ("Infinity", "Infinity"),
    ('{"a":1}', '{"a": 1}'), ("[1, 2.0]", "2.0"),
    ('[1, [2, {"a": 1}]]', '{"a": 1}'),
], ids=["float", "nan", "infinity", "object", "float-in-array",
        "object-in-nested-array"])
def test_args_outside_the_value_domain_are_usage_errors(cmd, arg, shown):
    """A float or an object, at any depth, never reaches a machine."""
    r = rsc(cmd, str(CORPUS / "head.rsc"), "--entry", "head0",
            "--args", arg)
    assert r.returncode == 2
    assert r.stderr == f"rsc: --args value {shown} {_OUTSIDE}\n"
    assert r.stdout == ""


def test_null_arg_is_undefined():
    r = rsc("run", str(CORPUS / "head.rsc"), "--entry", "head0",
            "--args", "[null]")
    assert (r.returncode, r.stdout) == (0, "undefined\n")


def test_simulate_return_after_statements_exits_zero(tmp_path):
    src = tmp_path / "f.rsc"
    src.write_text("/*@ (a: number) => number */\n"
                   "function f(a) { var y = a + 1; var x = y + 2;"
                   " return x; }\n")
    r = rsc("simulate", str(src), "--entry", "f", "--args", "3")
    assert r.returncode == 0, r.stdout
    data = json.loads(r.stdout)
    assert (data["status"], data["value"]) == ("ok", "6")


_DUP_PARAMS = "function f(x, x) { return x; }\n"


@pytest.mark.parametrize("cmd,extra", [
    ("check", []),
    ("run", ["--entry", "f", "--args", "1", "2"]),
    ("simulate", ["--entry", "f", "--args", "1", "2"]),
])
def test_duplicate_parameter_is_a_located_error(tmp_path, capsys, cmd,
                                                extra):
    """A repeated parameter name stops every subcommand with one located
    message, before the last argument could silently win."""
    from rsccore import cli
    src = tmp_path / "dup.rsc"
    src.write_text(_DUP_PARAMS)
    assert cli.main([cmd, str(src), *extra]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == \
        ("", f"{src}:1:15: duplicate parameter 'x'\n")
