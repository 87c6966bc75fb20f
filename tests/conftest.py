import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "src"))

# a while loop carrying two accumulators across its join
LOOP_K2 = """\
/*@ (a: number[]) => number */
function f(a) {
  var i = 0;
  var s0 = 0;
  var s1 = 0;
  while (i < a.length) {
    var x = a[i];
    s0 = s0 + x;
    s1 = s1 + x;
    i = i + 1;
  }
  return i;
}
"""


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


def parse(path):
    from rsccore.frontend import parse_program
    text = Path(path).read_text()
    return parse_program(text, str(path))


def parse_text(text, name="<test>"):
    from rsccore.frontend import parse_program
    return parse_program(text, name)


def check(path, **kw):
    from rsccore.checker import check_program
    return check_program(parse(path), **kw)


def check_text(text, **kw):
    from rsccore.checker import check_program
    return check_program(parse_text(text), **kw)


def external_solver_cmd():
    """An external SMT-LIB2 solver command, when the environment has one."""
    import shutil
    cmd = os.environ.get("RSC_SOLVER_CMD")
    if cmd:
        return cmd
    if shutil.which("z3"):
        return "z3 -in"
    if shutil.which("cvc5"):
        return "cvc5 --lang smt2 -q -"
    return None
