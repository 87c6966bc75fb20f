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


@pytest.mark.parametrize("cmd", ["check", "run", "simulate"])
def test_non_utf8_file_exit_two(tmp_path, cmd):
    path = tmp_path / "bom.rsc"
    path.write_bytes(b"\xff\xfefunction f() { return 1; }\n")
    r = rsc(cmd, str(path))
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        f"rsc: {path}: not UTF-8 text (byte 0: invalid start byte)"]


@pytest.mark.parametrize("cmd", ["run", "simulate"])
def test_negative_fuel_exit_two(cmd):
    r = rsc(cmd, str(CORPUS / "head.rsc"), "--fuel", "-1")
    assert r.returncode == 2
    assert "argument --fuel: must not be negative: -1" in r.stderr
    assert "out-of-fuel" not in r.stdout


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


_G_FN = "function g(x) { return x + 1; }\n"


@pytest.mark.parametrize("cmd,extra", [
    ("check", []),
    ("run", ["--entry", "f", "--args", "1"]),
    ("simulate", ["--entry", "f", "--args", "1"]),
])
@pytest.mark.parametrize("text,at,name", [
    (_G_FN + "function f(a) { var g = 5; return g(a); }\n", "2:35", "g"),
    (_G_FN + "function f(g) { return g(2); }\n", "2:24", "g"),
    ("/*@ (a: {v:number[] | 0 < len(v)}) => number */\n"
     "function f(a) { var length = 3; return a.length; }\n", "2:42",
     "length"),
    (_G_FN + "function f(a) { var g = 5; function h(z) { return g(z); }"
     " var r = h(a); return r; }\n", "2:51", "g"),
], ids=["var", "parameter", "builtin", "captured"])
def test_a_call_through_a_shadowing_local_is_rejected(tmp_path, cmd, extra,
                                                      text, at, name):
    """A callee that names a global function or builtin is that global, so
    a local of the same name at the call is one located error on every
    subcommand, where the two machines used to resolve it apart."""
    src = tmp_path / "shadow.rsc"
    src.write_text(text)
    r = rsc(cmd, str(src), *extra)
    line = f"{src}:{at}: error[SSA]: local {name!r} shadows the global" \
        f" function {name!r}\n"
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == line + ("ERRORS\n" if cmd == "check" else "")


@pytest.mark.parametrize("cmd,extra", [
    ("check", []),
    ("run", ["--entry", "f", "--args", "1"]),
    ("simulate", ["--entry", "f", "--args", "1"]),
])
def test_the_constructor_initializer_is_not_a_source_name(tmp_path, cmd,
                                                          extra):
    """The callee the constructor rewriting introduces cannot be spelled,
    so `ctor_init` in a program is an unbound function everywhere."""
    src = tmp_path / "init.rsc"
    src.write_text("function f(a) { return ctor_init(a); }\n")
    r = rsc(cmd, str(src), *extra)
    line = f"{src}:1:24: error[SSA]: unbound function 'ctor_init'\n"
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == line + ("ERRORS\n" if cmd == "check" else "")


@pytest.mark.parametrize("cmd", ["check", "run", "simulate"])
def test_arguments_length_outside_a_function_is_rejected(tmp_path, cmd):
    src = tmp_path / "top.rsc"
    src.write_text("var y = arguments.length;\n")
    r = rsc(cmd, str(src))
    line = f"{src}:1:18: error[SSA]: arguments.length used outside a" \
        " function\n"
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == line + ("ERRORS\n" if cmd == "check" else "")


_CTOR_IF = """class P {{
  x : number;
  constructor(a: number) {{
    if (a > 0) {{ this.x = a; }} else {{ {other} }}
  }}
}}
"""


@pytest.mark.parametrize("other,stderr", [
    ("this.x = 0;", "VERIFIED\n"),
    ("a = 0;", "{src}:4:5: error[CTOR]: field 'x' initialized on only one"
               " branch\nERRORS\n"),
], ids=["both-branches", "one-branch"])
def test_constructor_with_a_conditional(tmp_path, other, stderr):
    """A constructor whose `if` writes a field checks instead of ending in
    a traceback."""
    src = tmp_path / "ctor.rsc"
    src.write_text(_CTOR_IF.format(other=other))
    r = rsc("check", str(src))
    assert r.stderr == stderr.format(src=src)
    assert r.returncode == (0 if stderr == "VERIFIED\n" else 1)


_CTOR_OVERWRITE = """class P {{
  immutable x : number;
  constructor(a: number, c: boolean) {{
    {first}
    if (c) {{ {then} }} else {{ }}
  }}
}}
/*@ (a: number) => {{v: number | {post}}} */
function mk(a) {{ return new P(a, true).x; }}
"""


@pytest.mark.parametrize("first,then,post,verified,out", [
    ("this.x = a;", "this.x = 0;", "v = a", False, "0\n"),
    ("this.x = a;", "this.x = 0;", "0 <= v || v < 0", True, "0\n"),
    ("this.x = a;", "", "v = a", True, "4\n"),
    ("a = 0; this.x = a;", "", "v = a", False, "0\n"),
], ids=["overwritten", "overwritten-weak", "kept", "parameter-reassigned"])
def test_constructor_field_witnesses(tmp_path, first, then, post,
                                     verified, out):
    """A field keeps its constructor-parameter witness only while it holds
    the parameter's value at the call: not when an arm of a later `if`
    overwrites it (`new P(a, true).x` is 0), and not when the body
    reassigns the parameter first."""
    src = tmp_path / "ctor.rsc"
    src.write_text(_CTOR_OVERWRITE.format(first=first, then=then,
                                          post=post))
    r = rsc("check", str(src))
    if verified:
        assert (r.returncode, r.stderr) == (0, "VERIFIED\n")
    else:
        assert r.returncode == 1
        assert r.stderr.startswith(f"{src}:9:1: error[RET]: ")
        assert r.stderr.endswith("ERRORS\n")
    for machine in ("irsc", "frsc"):
        r = rsc("run", str(src), "--entry", "mk", "--machine", machine,
                "--args", "4")
        assert (r.returncode, r.stdout) == (0, out), machine


_ADD = """/*@ (x: number) => number
    (x: number, y: number) => number */
function add(x, y) { var r = x; var i = 0; while (i < 1) { i = i + 1; }\
 if (arguments.length === 2) { r = r + y; } return r; }
"""


def test_intersection_with_a_loop_verifies_and_runs(tmp_path):
    src = tmp_path / "add.rsc"
    src.write_text(_ADD)
    assert rsc("check", str(src)).stderr == "VERIFIED\n"
    for args, out in ((["3"], "3\n"), (["3", "4"], "7\n")):
        for machine in ("irsc", "frsc"):
            r = rsc("run", str(src), "--entry", "add", "--machine", machine,
                    "--args", *args)
            assert (r.returncode, r.stdout) == (0, out), (args, machine)


def _fn_field_program(ret: str) -> str:
    return ("class P {\n"
            f"  immutable f : (x: number) => {ret};\n"
            f"  constructor(f: (x: number) => {ret}) {{ this.f = f; }}\n"
            "}\n"
            "/*@ (n: number) => number */\n"
            "function id(n) { return n; }\n"
            "/*@ () => P */\n"
            "function mk() { return new P(id); }\n")


def test_a_function_typed_field_checks_runs_and_simulates(tmp_path):
    """A field of function type is rewritten like any other field type in
    the constructor's initializer signature."""
    src = tmp_path / "fnfield.rsc"
    src.write_text(_fn_field_program("number"))
    r = rsc("check", str(src))
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "VERIFIED\n")
    r = rsc("run", str(src), "--entry", "mk")
    assert (r.returncode, r.stdout) == (0, "P {f: <function id>}\n")
    r = rsc("simulate", str(src), "--entry", "mk")
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["status"] == "ok"


def test_a_function_typed_field_too_weak_is_an_error(tmp_path):
    src = tmp_path / "fnfield.rsc"
    src.write_text(_fn_field_program("{v: number | 0 <= v}"))
    r = rsc("check", str(src))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith(f"{src}:8:30: error[LQ-CHK-NEW]: ")
    assert r.stderr.endswith("\nERRORS\n")



_FN_FIELD_READ = """class B {
  immutable k : (number) => number;
  constructor(k: (number) => number) { this.k = k; }
}
/*@ (x: B) => RET */
function pick(x) { var h = x.k; return h(1); }
"""


@pytest.mark.parametrize("ret, code, stderr", [
    ("number", 0, "VERIFIED\n"),
    ("{v: number | 0 <= v}", 1, "error[RET]: "),
])
def test_a_read_of_an_immutable_function_typed_field(tmp_path, ret, code,
                                                     stderr):
    """Reading an immutable field of function type gives the field's
    type, which is not selfified, since only a base type can be."""
    src = tmp_path / "fnread.rsc"
    src.write_text(_FN_FIELD_READ.replace("RET", ret))
    r = rsc("check", str(src))
    assert (r.returncode, r.stdout) == (code, "")
    assert stderr in r.stderr
    assert "Traceback" not in r.stderr


# bodies that verify under one signature and, since phase one of two-phase
# checking is the refinement checker's own structural check, also as an
# overload whose second conjunct takes one more parameter
_OVERLOADS = {
    "array literal": """/*@ (x: number) => number
    (x: number, y: number) => number */
function f(x, y) { var a = [x, x]; return a.length; }
""",
    "conditional expression": """/*@ (x: number) => number
    (x: number, y: number) => number */
function f(x, y) { var r = x > 0 ? 1 : 0; return r; }
""",
    "typeof on a generic parameter": """/*@ <A>(x: A) => number
    <A>(x: A, y: number) => number */
function f(x, y) {
  var r = 1;
  if (typeof x === "number") r = r + x;
  return r;
}
""",
}


@pytest.mark.parametrize("kind, args, out", [
    ("array literal", ["3"], "2\n"),
    ("conditional expression", ["3", "4"], "1\n"),
    ("typeof on a generic parameter", ["3", "4"], "4\n"),
])
def test_an_overload_verifies_where_its_conjuncts_do(tmp_path, kind, args,
                                                     out):
    src = tmp_path / "overload.rsc"
    src.write_text(_OVERLOADS[kind])
    r = rsc("check", str(src))
    assert (r.returncode, r.stderr) == (0, "VERIFIED\n")
    for machine in ("irsc", "frsc"):
        r = rsc("run", str(src), "--entry", "f", "--machine", machine,
                "--args", *args)
        assert (r.returncode, r.stdout) == (0, out), machine


# checks each file named on the command line in turn, in this one process
_CHECK_EACH = """
import contextlib, io, sys
from rsccore.cli import main
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--format", "json", "--dump-solution", path])
    print(path, code, out.getvalue(), err.getvalue())
"""


def test_check_output_does_not_depend_on_the_hash_seed():
    """`rsc check --format json --dump-solution` on each corpus file, all
    in one process, prints the same bytes under two hash seeds.  The
    order in which a congruence closure's term set iterates follows the
    seed, and a copied closure's differs from that of one built afresh,
    so no output may read it."""
    files = sorted(map(str, CORPUS.glob("*.rsc")))
    outputs = []
    for seed in ("1", "2"):
        r = subprocess.run(
            [sys.executable, "-c", _CHECK_EACH, *files],
            capture_output=True, text=True, cwd=str(ROOT),
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": seed}, timeout=600)
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert len(files) == 14
    assert outputs[0].count('"rsc/solution/v1"') == 14
    assert outputs[0] == outputs[1]
