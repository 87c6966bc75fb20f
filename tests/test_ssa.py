"""SSA translation: the selected transformation rules, the join operator,
single-assignment/dominance validation, and determinism."""

import pytest

from conftest import CORPUS, parse, parse_text

from rsccore.ssa import SsaError, SsaErrors, env_diff, ssa_program, validate_ssa
from rsccore.syntax import (
    ECtxApply, EFuncCall, EVar, KLetIf, KLetIn, KLetWhile, SAssign, SVarDecl,
    expr_str, walk_tree,
)


def test_env_diff_basic():
    d1 = {"x": "x1", "y": "y0"}
    d2 = {"x": "x2", "y": "y0"}
    assert env_diff(d1, d2) == [("x", "x1", "x2")]


def test_env_diff_equal():
    d = {"x": "x1"}
    assert env_diff(d, dict(d)) == []


def test_env_diff_domain_mismatch():
    with pytest.raises(SsaError):
        env_diff({"x": "x1"}, {"x": "x1", "y": "y1"})


def test_var_ref_renamed():
    p = parse_text("""
/*@ (x: number) => number */
function f(x) {
  var y = x;
  y = y + 1;
  return y;
}
""")
    sp, _ = ssa_program(p)
    body = expr_str(sp.functions["f"].body)
    # declaration introduces a fresh name; the assignment another
    assert "let y#" in body
    assert body.count("let y#") == 2


def test_unbound_variable_error():
    p = parse_text("""
/*@ (x: number) => number */
function f(x) { return zz; }
""")
    with pytest.raises(SsaErrors):
        ssa_program(p)


def test_skip_translates_to_nothing():
    p = parse_text("""
/*@ (x: number) => number */
function f(x) {
  ;
  return x;
}
""")
    sp, _ = ssa_program(p)
    assert expr_str(sp.functions["f"].body) == "x"


def test_ite_phi_from_fig3():
    """if (c) x=1 else x=2; return x  -- hand-applied join rule: one phi
    triple, hole filled by the phi name."""
    p = parse_text("""
/*@ (c: bool) => number */
function f(c) {
  var x = 0;
  if (c) { x = 1; } else { x = 2; }
  return x;
}
""")
    sp, _ = ssa_program(p)
    e = sp.functions["f"].body
    assert isinstance(e, ECtxApply)
    k = e.ctx
    assert isinstance(k, KLetIn)  # var x = 0
    ki = k.rest
    assert isinstance(ki, KLetIf)
    assert len(ki.phis) == 1
    phi = ki.phis[0]
    assert phi.src == "x"
    assert phi.left != phi.right != phi.phi
    # the continuation returns the phi name
    assert isinstance(e.expr, EVar) and e.expr.name == phi.phi


def test_reduce_loop_translation_shape():
    """The while form of reduce: lets for r0/i0, a letwhile joining
    (i0,r0) with the back-edge names, returning the r phi."""
    p = parse(CORPUS / "ssa_reduce.rsc")
    sp, _ = ssa_program(p)
    e = sp.functions["reduce"].body
    k = e.ctx
    assert isinstance(k, KLetIn) and k.name.startswith("r0#")
    k2 = k.rest
    assert isinstance(k2, KLetIn) and k2.name.startswith("i0#")
    kw = k2.rest
    assert isinstance(kw, KLetWhile)
    srcs = [p.src for p in kw.phis]
    assert srcs == ["r0", "i0"]
    for phi in kw.phis:
        assert phi.init in (k.name, k2.name)
    assert isinstance(e.expr, EVar)
    assert e.expr.name == kw.phis[0].phi


def test_single_assignment_and_dominance_whole_corpus():
    for path in sorted(CORPUS.glob("*.rsc")):
        try:
            p = parse(path)
            sp, _ = ssa_program(p)
        except Exception:
            continue  # negative parse fixtures
        g = sp.globals
        for name, f in sp.functions.items():
            if f.body is None:
                continue
            errs = validate_ssa(f.body, f.params, g)
            assert errs == [], f"{path.name}:{name}: {errs}"
        for key, m in sp.methods.items():
            errs = validate_ssa(m.body, m.params, g)
            assert errs == [], f"{path.name}:{key}: {errs}"


def test_translation_deterministic():
    src = (CORPUS / "minindex.rsc").read_text()
    from rsccore.frontend import parse_program
    out = []
    for _ in range(2):
        p = parse_program(src, "m.rsc")
        sp, _ = ssa_program(p)
        out.append("\n".join(expr_str(sp.functions[n].body)
                             for n in sorted(sp.functions)
                             if sp.functions[n].body is not None))
    assert out[0] == out[1]


def test_theta_covers_expression_nodes():
    # every declaration and assignment records the SSA name it binds
    # (head.rsc has none, so minindex.rsc supplies them)
    decls = []
    for name in ("head.rsc", "minindex.rsc"):
        p = parse(CORPUS / name)
        _, theta = ssa_program(p)
        bodies = [f.body for f in p.functions if f.body is not None]
        for s in walk_tree(bodies):
            if isinstance(s, (SVarDecl, SAssign)):
                assert theta.stmt_aux[s.nid].split("#")[0] == s.name
                decls.append(s)
    assert len(decls) >= 3
