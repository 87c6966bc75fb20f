"""Command-line driver: check / run / simulate.

Exit codes: 0 success (verified, terminal run, consistent simulation),
1 analysis or runtime findings (type errors, stuck, divergence),
2 usage, IO, or solver-infrastructure failure, and inputs past a limit
(nesting deeper than the recursion limit, the fixpoint iteration bound)."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checker import Diagnostic, check_program, class_diagnostic
from .frontend import FrontendError, parse_program
from .frontend.lexer import LexError
from .frontend.parser import ParseError
from .frontend.types_parser import ParseErrorBase
from .infer import FixpointBoundError, load_qualifier_file
from .logic import WfViolation
from .semantics import run as run_machine, simulate
from .solver import SolverConfig
from .ssa import SsaErrors, ssa_program
from .syntax import expr_str


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rsc", description="refinement type checker and differential"
        " interpreter harness")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("files", nargs="+", help="source files (.rsc);"
                       " multiple files share one namespace")

    def solver_opts(p):
        p.add_argument("--solver", choices=["internal", "external"],
                       default="internal")
        p.add_argument("--solver-cmd",
                       default=os.environ.get("RSC_SOLVER_CMD"),
                       help="external solver command reading SMT-LIB2 on"
                       " stdin (e.g. 'z3 -in')")
        p.add_argument("--solver-timeout-ms", type=int, default=10_000)
        p.add_argument("--qualifiers", help="extra qualifier file, one"
                       " predicate per line with ★ placeholders")

    pc = sub.add_parser("check", help="verify a program")
    common(pc)
    solver_opts(pc)
    pc.add_argument("--dump-vcs", action="store_true",
                    help="print all constraints (pre-solve) as JSON")
    pc.add_argument("--dump-solution", action="store_true",
                    help="print the final refinement-variable assignment")
    pc.add_argument("--dump-ssa", action="store_true",
                    help="pretty-print the functional SSA program")
    pc.add_argument("--strict-unknown", action="store_true",
                    help="treat solver unknowns during inference as "
                         "errors; a candidate that a checked countermodel "
                         "refutes is dropped without a query, so it reports "
                         "no unknown")
    pc.add_argument("--format", choices=["text", "json"], default="text")

    pr = sub.add_parser("run", help="execute a program")
    common(pr)
    pr.add_argument("--entry", help="function to call (default: top level)")
    pr.add_argument("--args", nargs="*", default=[],
                    help="JSON literals for the entry arguments")
    pr.add_argument("--fuel", type=int, default=100_000)
    pr.add_argument("--machine", choices=["frsc", "irsc"], default="frsc")

    ps = sub.add_parser("simulate", help="run both machines in lockstep and"
                        " report the consistency verdict as JSON")
    common(ps)
    ps.add_argument("--entry")
    ps.add_argument("--args", nargs="*", default=[])
    ps.add_argument("--fuel", type=int, default=10_000)
    return ap


def _load(files: list) -> str:
    parts = []
    for f in files:
        with open(f, "r", encoding="utf-8") as fh:
            parts.append(fh.read())
    return "\n".join(parts)


def _parse(files: list):
    text = _load(files)
    return parse_program(text, files[0] if len(files) == 1 else
                         "+".join(files))


def _parse_args_list(items: list) -> list:
    """The entry arguments: JSON literals, bare words as strings.  A value
    the machines have no form for, a float (`1.5`, `NaN`, `Infinity`) or
    an object at any depth, is a usage error, exit 2."""
    out = []
    for a in items:
        try:
            v = json.loads(a)
        except json.JSONDecodeError:
            v = a  # bare words are strings
        bad = _outside_domain(v)
        if bad is not None:
            print(f"rsc: --args value {json.dumps(bad)} is not an integer,"
                  " boolean, string, null or array of these",
                  file=sys.stderr)
            raise SystemExit(2)
        out.append(v)
    return out


def _outside_domain(v):
    """The first part of the JSON value `v` that is a float or an object,
    or None if there is none."""
    if isinstance(v, list):
        for x in v:
            bad = _outside_domain(x)
            if bad is not None:
                return bad
        return None
    return v if isinstance(v, (float, dict)) else None


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        return _dispatch(ns)
    except (LexError, ParseError, ParseErrorBase, FrontendError) as e:
        print(f"{e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"rsc: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("rsc: input nested too deeply (maximum recursion depth"
              " exceeded)", file=sys.stderr)
        return 2
    except FixpointBoundError as e:
        print(f"rsc: {e}", file=sys.stderr)
        return 2


def _dispatch(ns) -> int:
    if ns.cmd == "check":
        return _cmd_check(ns)
    if ns.cmd == "run":
        return _cmd_run(ns)
    if ns.cmd == "simulate":
        return _cmd_simulate(ns)
    raise AssertionError(ns.cmd)


def _solver_config(ns) -> SolverConfig:
    if ns.solver == "external" and not ns.solver_cmd:
        print("rsc: --solver external needs --solver-cmd or RSC_SOLVER_CMD",
              file=sys.stderr)
        raise SystemExit(2)
    return SolverConfig(backend=ns.solver, command=ns.solver_cmd,
                        timeout_ms=ns.solver_timeout_ms)


def _cmd_check(ns) -> int:
    program = _parse(ns.files)
    config = _solver_config(ns)
    quals = None
    if ns.qualifiers:
        quals = load_qualifier_file(ns.qualifiers)
    if ns.dump_ssa:
        try:
            _print_ssa(ssa_program(program)[0])
        except SsaErrors:
            pass  # check_program reports them as diagnostics
    result = check_program(program, config, quals,
                           strict_unknown=ns.strict_unknown)
    if ns.dump_vcs:
        print(json.dumps({
            "schema": "rsc/vcs/v1",
            "constraints": [c.to_json() for c in result.constraints],
            "clauses": [cl.describe() for cl in result.clauses],
        }, indent=2, sort_keys=True))
    if ns.dump_solution:
        sol = result.assignment.to_json(result.registry) \
            if result.assignment else {}
        print(json.dumps({"schema": "rsc/solution/v1", "kvars": sol},
                         indent=2, sort_keys=True))
    if ns.format == "json":
        print(json.dumps({
            "schema": "rsc/check/v1",
            "verdict": result.verdict,
            "diagnostics": [d.to_json() for d in result.diagnostics],
        }, indent=2, sort_keys=True))
    else:
        for d in result.diagnostics:
            print(d.render(), file=sys.stderr)
        print("VERIFIED" if result.ok else "ERRORS", file=sys.stderr)
    return 0 if result.ok else 1


def _print_ssa(sp) -> None:
    for name in sorted(sp.functions):
        f = sp.functions[name]
        if f.body is None:
            continue
        print(f"function {name}({', '.join(f.params)}) =")
        print(expr_str(f.body))
        print()
    for (cname, mname) in sorted(sp.methods):
        m = sp.methods[(cname, mname)]
        print(f"method {cname}.{mname}({', '.join(m.params)}) =")
        print(expr_str(m.body))
        print()
    if sp.top is not None:
        print("top =")
        print(expr_str(sp.top))


def _cmd_run(ns) -> int:
    def go(sp, theta, args) -> int:
        r = run_machine(sp, entry=ns.entry, args=args, fuel=ns.fuel,
                        machine=ns.machine)
        print(r.render())
        return 0 if r.status == "terminal" else 1
    return _execute(ns, go)


def _cmd_simulate(ns) -> int:
    def go(sp, theta, args) -> int:
        rep = simulate(sp, theta, entry=ns.entry, args=args, fuel=ns.fuel)
        print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
        return 0 if rep.status == "ok" else 1
    return _execute(ns, go)


def _execute(ns, go) -> int:
    """Translate the program, check that it can start as asked, and hand
    it to `go`; a program the translation or the class table rejects gets
    the diagnostics `check` gives it."""
    args = _parse_args_list(ns.args)
    program = _parse(ns.files)
    try:
        sp, theta = ssa_program(program)
    except SsaErrors as errs:
        for e in errs.errors:
            print(Diagnostic("error", e.span, "SSA", e.msg).render(),
                  file=sys.stderr)
        return 1
    if ns.entry is None and program.top is None:
        print("rsc: program has no top-level body; use --entry",
              file=sys.stderr)
        return 2
    if ns.entry is not None and ns.entry not in sp.functions:
        print(f"rsc: no function {ns.entry!r}", file=sys.stderr)
        return 2
    try:
        return go(sp, theta, args)
    except WfViolation as e:
        print(class_diagnostic(program, e).render(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
