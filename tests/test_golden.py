"""Golden output of `rsc check`: the sha256 of stdout and the exit code of
`check --format json --dump-vcs --dump-solution --dump-ssa` on every corpus
file and on one inline program per checker path that opens an existential
or binds a checked subexpression under a fresh name.  The fresh `!n` names
and the constraint ids run through these dumps, so a digest also pins the
order in which names are allocated."""

import hashlib

import pytest

from conftest import CORPUS, ROOT

from rsccore import cli

INLINE = {
    # array literal whose first element has an existential type
    "arraylit.rsc": """
/*@ (x: number) => {v:number | v = 2} */
function f(x) {
  var a = [x + 1 + 1, 2];
  return a.length;
}
""",
    # field read and method call on a receiver that is not a term
    "newrecv.rsc": """
class P {
  immutable x : number;
  constructor(x: number) { this.x = x; }
  add(d: number) : number { return this.x + d; }
}

/*@ (n: number) => {v:number | v = n} */
function g(n) { return (new P(n)).x; }

/*@ (n: number) => number */
function h(n) { return (new P(n)).add(1); }
""",
    # field write through a call result
    "fieldwrite.rsc": """
class Q {
  f : nat;
  constructor(f: nat) { this.f = f; }
}

/*@ (n: nat) => Q */
function mk(n) { return new Q(n); }

/*@ (n: nat) => number */
function w(n) { mk(n).f = n + 1; return 0; }
""",
    # an unannotated nested function with a capture, passed to an
    # annotated one
    "nested.rsc": """
/*@ <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B */
function reduce(a, f, x) {
  var r = x, i = 0;
  while (i < a.length) {
    r = f(r, a[i], i);
    i = i + 1;
  }
  return r;
}

/*@ (a: number[], k: nat) => number */
function sumPlus(a, k) {
  function step(acc, y, i) { return acc + y + k; }
  return reduce(a, step, 0);
}
""",
    # a constructor whose immutable fields are witnessed by its parameters
    "ctorwit.rsc": """
class R {
  immutable lo : number;
  immutable hi : {v:number | this.lo <= v};
  constructor(lo: number, hi: {v:number | lo <= v}) {
    this.lo = lo; this.hi = hi;
  }
}

/*@ (a: number) => {v:number | v >= 0} */
function span(a) {
  var r = new R(a, a + 1);
  return r.hi - r.lo;
}
""",
    # an overload clone that fails, blamed on its conjunct
    "overload_bad.rsc": """
/*@ (x: {v:number | v >= 0}) => number
    (x: bool, y: number) => number */
function f(x, y) {
  return x + 1;
}
""",
}

# (sha256 of stdout, exit code), computed on the checker before its
# existential opening was merged into `TypeEnv.open`; an intended output
# change edits a digest and says why
DIGESTS = {
    "arraylit.rsc": ("1982e8d861139014746d8b3422598e568ab3f730e6483dbae0db971b32767ded", 0),
    "bad_cast_flags.rsc": ("40e6a3a29b67b8ff85e45ea1bebb04ec868bdcaba0398108c47916d92f8ff7dd", 1),
    "bad_field_ctor.rsc": ("df40b970f593fb99019245a1a07bcef08bd7e9bbe47b0d98498ebc054d68dcfa", 1),
    "bad_field_getdensity.rsc": ("681feccbb445008c494db48f7f179f80eaac6de622a26d1f15294603c4324b1e", 1),
    "bad_field_reset.rsc": ("4e1f4c65a9b840d198b66a79e462d56427f19c4926f82ab1d9a15c2ba8c9f459", 1),
    "bad_head0.rsc": ("f1c8994b56d46c55923469ad9ca9cb45b24f9174a048fdd1301307a9c39eb9d7", 1),
    "bad_undefined.rsc": ("637d2ef1315a59a2fa4866594528fe170559615b90b77214d74a4135f461eb17", 1),
    "cast_flags.rsc": ("b37e9e4bfbf2678df410e3b74f2118f0d9f466f12f3bf47aa95f34c08db7d302", 0),
    "ctorwit.rsc": ("a4c9bd0f6c3341e51137adebec78808caa7ee7ce86c57c7fb293647797aaab93", 0),
    "field.rsc": ("ad7622396bd33b0174e05cf3d1ca369c53232a01dc03bd853fd74f9f1a761fbd", 1),
    "field_ghost.rsc": ("a4aeeb8c4a9238ae49adecdc5ccde4a323d7da866f96093c2243f8b55ade2936", 0),
    "fieldwrite.rsc": ("6ed7ad430c3682fffb3576f6ab48809eaae17526a10809d2af2327cccd6858ee", 0),
    "head.rsc": ("4c08b487cf456a494fcc1321daf97e9f9a4996a2b9d244f3cb82dc393d1e5ab8", 0),
    "minindex.rsc": ("cc89e7c938db7533db1d1f123940803838b76c2507c71e8fbf03c8aba1a38bdc", 0),
    "nested.rsc": ("abba5dc5133f4665e670bde1bf05d0546e5f9e91c762a463450837f7d0d221ff", 0),
    "newrecv.rsc": ("17fd19bc2418099d8ebc1244775a8dde4caa4c81332da82a05ca169bf487405a", 0),
    "overload_bad.rsc": ("d4528280fcb253cc491110e6edd77a0f9868b8ab51fcfe87006d751aef0d9250", 1),
    "overload_reduce.rsc": ("2e071705064f08b65137246f0c48c7fb74ccdf1ef620235107e1f8a145bb5168", 0),
    "ssa_reduce.rsc": ("9fc0589acf1572f4785ce0d9023f68c9de0b687c75cddcc12d77613ba1fc6051", 0),
    "typeof.rsc": ("3ce857567fc5ef76f30bb8d6b4eeefe3e4f8647fe4c6be9e022a8bdaa0a8ddf4", 0),
}

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.rsc"))


def _digest(path, capsys):
    code = cli.main(["check", "--format", "json", "--dump-vcs",
                     "--dump-solution", "--dump-ssa", path])
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), code


def test_corpus_files_listed():
    """Every corpus file and inline program has a digest, and no other."""
    assert len(CORPUS_FILES) == 14
    assert set(CORPUS_FILES) | set(INLINE) == set(DIGESTS)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_check_output_corpus(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _digest(f"corpus/{name}", capsys) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INLINE))
def test_check_output_inline(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(INLINE[name])
    assert _digest(name, capsys) == DIGESTS[name]
