"""Seeded source generators for the benchmark workloads.

Pure text generation: nothing here imports rsccore, so the generators can
be tested for determinism on their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# loop-ladder: k integer variables carried across a join


@dataclass(frozen=True)
class LadderProgram:
    name: str          # e.g. "loop-k2-safe"
    safe: bool         # False for the off-by-one twin
    source: str        # defines the entry function f
    read_lines: tuple  # 1-based lines holding the guarded array reads
    takes_flag: bool   # f takes (a, c) instead of (a)


# Join kinds and the values of k each is run at.  The while-loop kind
# stops deciding at k = 2 (Fourier-Motzkin row growth); the if/else kind
# still decides at k = 2, its check time doubling with each k (k = 3
# takes two thirds of the deadline when traced, too close to call).
# Rungs are never dropped to hide the cliff.
LADDER_RUNGS = (("loop", (0, 1, 2)), ("ite", (0, 1, 2)))


def _names(k: int) -> tuple:
    """Identifiers are fixed: they enter solver terms, and seeded names
    moved a check's time by up to 15% and doubled the run-to-run spread of
    the workload's median."""
    return "i", "x", [f"s{j}" for j in range(k)]


def _loop_program(k: int, safe: bool) -> tuple:
    i, x, accs = _names(k)
    cmp = "<" if safe else "<="
    lines = ["/*@ (a: number[]) => number */",
             "function f(a) {",
             f"  var {i} = 0;"]
    lines += [f"  var {s} = 0;" for s in accs]
    lines += [f"  while ({i} {cmp} a.length) {{",
              f"    var {x} = a[{i}];"]
    reads = (len(lines),)
    lines += [f"    {s} = {s} + {x};" for s in accs]
    lines += [f"    {i} = {i} + 1;",
              "  }",
              f"  return {i};",
              "}"]
    return "\n".join(lines) + "\n", reads


def _ite_program(k: int, safe: bool) -> tuple:
    i, _, accs = _names(k)
    cmp = "<" if safe else "<="
    lines = ["/*@ (a: number[], c: boolean) => number */",
             "function f(a, c) {",
             f"  var {i} = 0;"]
    lines += [f"  var {s} = 0;" for s in accs]
    lines += ["  if (c) {",
              f"    {i} = a.length;"]
    lines += [f"    {s} = {s} + {j + 1};" for j, s in enumerate(accs)]
    lines += ["  } else {",
              f"    {i} = 0;"]
    lines += [f"    {s} = {j + 2};" for j, s in enumerate(accs)]
    lines += ["  }",
              f"  if ({i} {cmp} a.length) return a[{i}];"]
    reads = (len(lines),)
    lines += ["  return 0;",
              "}"]
    return "\n".join(lines) + "\n", reads


def ladder_programs() -> list:
    """Every rung as a safe twin and an off-by-one twin.  The programs do
    not depend on the seed; the seed draws the arrays their ground truth
    is established on."""
    out = []
    for join, ks in LADDER_RUNGS:
        make = _loop_program if join == "loop" else _ite_program
        for k in ks:
            for safe in (True, False):
                src, reads = make(k, safe)
                name = f"{join}-k{k}-{'safe' if safe else 'off'}"
                out.append(LadderProgram(name, safe, src, reads,
                                         join == "ite"))
    return out


def ladder_arrays(seed: int, count: int = 6) -> list:
    """Ground-truth inputs: short arrays, the empty one included."""
    rng = random.Random(f"loop-ladder/arrays/{seed}")
    arrays = [[]]
    while len(arrays) < count:
        arrays.append([rng.randrange(-9, 10)
                       for _ in range(rng.randrange(1, 7))])
    return arrays


# ---------------------------------------------------------------------------
# simulate-random: the straight-line/branch/loop grammar of the semantics
# test-suite generator, written out again here


def random_program(rng: random.Random) -> str:
    """2-5 integer declarations, then 2-6 statements: assignments,
    if/else over a comparison, and counter-bounded while loops, nested at
    most twice; expressions over +, -, * of depth at most 3.  Draws from
    `rng` exactly as the test generator does, so one seed gives the same
    programs."""
    names = [f"v{n}" for n in range(rng.randrange(2, 6))]
    out = [f"var {v} = {rng.randrange(-5, 10)};" for v in names]

    def expr(depth: int = 0) -> str:
        if depth > 2 or rng.random() < 0.4:
            if rng.random() < 0.6:
                return rng.choice(names)
            return str(rng.randrange(-4, 9))
        op = rng.choice("+-*")
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    def cond() -> str:
        op = rng.choice(["<", "<=", ">", ">=", "===", "!=="])
        return f"({expr()} {op} {expr()})"

    def block(depth: int) -> str:
        return " ".join(s for _ in range(rng.randrange(1, 4))
                        for s in stmt(depth))

    def stmt(depth: int) -> list:
        roll = rng.random()
        if roll < 0.45 or depth >= 2:
            return [f"{rng.choice(names)} = {expr()};"]
        if roll < 0.8:
            then = block(depth + 1)
            other = block(depth + 1)
            return [f"if ({cond()}) {{ {then} }} else {{ {other} }}"]
        rng.choice(names)  # drawn and unused, as in the test generator
        bound = rng.randrange(1, 5)
        body = block(depth + 1)
        ctr = f"c{rng.randrange(1000)}"
        return [f"var {ctr} = 0;",
                f"while ({ctr} < {bound}) {{ {body} {ctr} = {ctr} + 1; }}"]

    for _ in range(rng.randrange(2, 7)):
        out.extend(stmt(0))
    return "\n".join(out)


# The simulation inputs are the first programs of the stream the acceptance
# suite draws for its SSA-consistency criterion (200 programs from this
# seed), unfiltered.  All 200 take about 150 s per pass on a 2-vCPU VM, too
# long for a run; the first 12 take about 15 s.  The stream is fixed rather
# than drawn from the run's seed: the grammar's simulation times span three
# orders of magnitude, and a draw of a few dozen programs moves a run's
# percentiles by a third from seed to seed (see bench/NOTES.md).
SIM_STREAM_SEED = 20_260_808
SIM_PROGRAMS = 12


def sim_programs(count: int = SIM_PROGRAMS) -> list:
    """The first `count` programs of the acceptance suite's stream."""
    rng = random.Random(SIM_STREAM_SEED)
    return [random_program(rng) for _ in range(count)]
