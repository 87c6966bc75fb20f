"""Fourier-Motzkin elimination over integer rows with integer tightening:
strict bounds over integer-sorted unknowns shift by one, and rows divide
through by the gcd of their coefficients with the bound floored.

Elimination works on exact `int` rows and keeps each distinct coefficient
vector once: a parallel row merges into the kept one, which takes the
tighter bound and counts how many rows of plain elimination it stands for
(`mult`).  The variable order sums those counts, so it, the rows that
survive and the candidate point are those of elimination without merging.
Rows shared by many systems are tightened once into a table (`table`)
that `solve` extends without changing it.  The caller writes its rows
over congruence-class representatives, so the unknowns here are class
anchors and the equalities left are those congruence does not know.
Sound for unsatisfiability;
satisfiable outcomes come with a candidate point for model checking."""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm
from typing import Optional


class Row:
    """sum(coeffs[k] * k) <= bound over integers, standing for `mult`
    parallel rows of plain elimination."""

    __slots__ = ("coeffs", "bound", "mult")

    def __init__(self, coeffs: dict, bound: int, mult: int):
        self.coeffs = coeffs
        self.bound = bound
        self.mult = mult


def _primitive(coeffs: dict, bound: int, mult: int = 1) -> Row:
    """Divide an integer row by the gcd of its coefficients, flooring the
    bound."""
    g = gcd(*coeffs.values())
    if g > 1:
        coeffs = {k: c // g for k, c in coeffs.items()}
        bound //= g
    return Row(coeffs, bound, mult)


def _tighten(coeffs: dict, bound, strict: bool) -> Row:
    """Scale an int or Fraction row to integers, tighten strictness, divide
    by the gcd, floor."""
    scale = lcm(bound.denominator,
                *(c.denominator for c in coeffs.values()))
    if scale == 1:
        coeffs = {k: int(c) for k, c in coeffs.items()}
        ib = int(bound)
    else:
        coeffs = {k: int(c * scale) for k, c in coeffs.items()}
        ib = int(bound * scale)
    if strict:
        # integer-sorted atoms: sum < b  =>  sum <= b - 1
        ib -= 1
    return _primitive(coeffs, ib)


def _add(rows: dict, row: Row) -> None:
    """Insert `row`, merging it with a kept row of the same coefficients
    into a new row: the tighter bound wins and the multiplicities add.  A
    kept row may belong to a table, so it is never changed."""
    key = frozenset(row.coeffs.items())
    kept = rows.get(key)
    if kept is None:
        rows[key] = row
    else:
        rows[key] = Row(kept.coeffs, min(kept.bound, row.bound),
                        kept.mult + row.mult)


def table(rows_in: list, rows: Optional[dict] = None) -> dict:
    """The tightened rows of `rows_in`, added to a copy of the table
    `rows`: frozenset(coeffs.items()) -> Row, in insertion order."""
    rows = {} if rows is None else dict(rows)
    for coeffs, bound, op in rows_in:
        if op == "eq":
            _add(rows, _tighten(coeffs, bound, False))
            _add(rows, _tighten({k: -c for k, c in coeffs.items()}, -bound,
                                False))
        else:
            _add(rows, _tighten(coeffs, bound, op == "lt"))
    return rows


def _quotient(a, b: int):
    """a / b for a positive int `b`, an int when it divides exactly."""
    if a.__class__ is int and not a % b:
        return a // b
    return Fraction(a, b)


def solve(rows_in: list, prepared: Optional[dict] = None) -> tuple:
    """rows_in: list of (coeffs dict, bound int or Fraction, op in
    le/lt/eq), solved together with the rows of the table `prepared`,
    which is left as it was.  Returns ("unsat",) or ("sat", model dict
    key -> int, or Fraction where no integer was found)."""
    rows = table(rows_in, prepared)
    # the names that order eliminations; elimination adds no key
    names = {k: str(k) for r in rows.values() for k in r.coeffs}
    eliminated: list[tuple] = []  # (key, lower rows, upper rows)
    while True:
        trivial = rows.pop(frozenset(), None)
        if trivial is not None and trivial.bound < 0:
            return ("unsat",)
        signs: dict = {}  # key -> [positive rows, negative rows]
        for r in rows.values():
            for k, c in r.coeffs.items():
                count = signs.setdefault(k, [0, 0])
                if c > 0:
                    count[0] += r.mult
                elif c < 0:
                    count[1] += r.mult
        if not signs:
            break
        # cheapest elimination first: fewest combined rows, then by name;
        # an exact tie goes to the key that appeared first
        var = min(signs, key=lambda k: (signs[k][0] * signs[k][1], names[k]))
        uppers = []  # var <= expr
        lowers = []  # var >= expr
        new_rows: dict = {}
        for key, r in rows.items():
            c = r.coeffs.get(var, 0)
            if c > 0:
                uppers.append(r)
            elif c < 0:
                lowers.append(r)
            else:
                new_rows[key] = r
        eliminated.append((var, lowers, uppers))
        for up in uppers:
            cu = up.coeffs[var]
            for lo in lowers:
                cl = -lo.coeffs[var]
                # cl * up + cu * lo cancels var
                coeffs = {k: cl * c for k, c in up.coeffs.items()
                          if k != var}
                for k, c in lo.coeffs.items():
                    if k != var:
                        coeffs[k] = coeffs.get(k, 0) + cu * c
                coeffs = {k: c for k, c in coeffs.items() if c != 0}
                _add(new_rows, _primitive(coeffs, cl * up.bound +
                                          cu * lo.bound, up.mult * lo.mult))
        rows = new_rows
    # back-substitute a candidate point, preferring integers; it stays in
    # int until a division is inexact
    model: dict = {}

    def rest(r: Row, var):
        # bound - sum(c * k) over the row's other keys; keys whose rows
        # were discarded by a one-sided elimination default to zero, and
        # the caller re-verifies the model anyway
        acc = r.bound
        for k, c in r.coeffs.items():
            if k != var:
                acc -= c * model.setdefault(k, 0)
        return acc

    for var, lowers, uppers in reversed(eliminated):
        lo_bound = hi_bound = None
        for r in uppers:
            b = _quotient(rest(r, var), r.coeffs[var])
            hi_bound = b if hi_bound is None else min(hi_bound, b)
        for r in lowers:
            b = _quotient(-rest(r, var), -r.coeffs[var])
            lo_bound = b if lo_bound is None else max(lo_bound, b)
        if lo_bound is None and hi_bound is None:
            model[var] = 0
        elif lo_bound is None:
            model[var] = floor(hi_bound)
        elif hi_bound is None:
            model[var] = -floor(-lo_bound)
        else:
            c = -floor(-lo_bound)  # ceil(lo)
            model[var] = c if c <= hi_bound else \
                _quotient(lo_bound + hi_bound, 2)
    return ("sat", model)
