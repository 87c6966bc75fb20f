"""Fourier-Motzkin elimination over the rationals with integer tightening:
strict bounds over integer-sorted unknowns shift by one, and rows divide
through by the gcd of their coefficients with the bound floored.
Sound for unsatisfiability; satisfiable outcomes come with a candidate
point for model checking."""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd
from typing import Optional


class Row:
    """sum(coeffs[k] * k) <= bound (le) or < bound (lt, pre-tightening)."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: dict, bound: Fraction):
        self.coeffs = coeffs
        self.bound = bound


def _tighten(coeffs: dict, bound: Fraction, strict: bool) -> Optional[Row]:
    """Scale to integers, tighten strictness, divide by the gcd, floor."""
    if not coeffs:
        if strict:
            return Row({}, bound - 1) if bound == int(bound) else \
                Row({}, Fraction(floor(bound)))
        return Row({}, bound)
    denoms = [c.denominator for c in coeffs.values()] + [bound.denominator]
    scale = 1
    for d in denoms:
        scale = scale * d // gcd(scale, d)
    ic = {k: int(c * scale) for k, c in coeffs.items()}
    ib = bound * scale
    if strict:
        # integer-sorted atoms: sum < b  =>  sum <= ceil(b) - 1
        ib = Fraction(int(ib) - 1) if ib == int(ib) else Fraction(floor(ib))
    g = 0
    for c in ic.values():
        g = gcd(g, abs(c))
    if g > 1:
        ic = {k: c // g for k, c in ic.items()}
        ib = Fraction(floor(Fraction(ib) / g))
    return Row(ic, Fraction(ib))


def solve(rows_in: list) -> tuple:
    """rows_in: list of (coeffs dict, bound Fraction, op in le/lt/eq).
    Returns ("unsat",) or ("sat", model dict key->Fraction)."""
    rows: list[Row] = []
    for coeffs, bound, op in rows_in:
        if op == "eq":
            r1 = _tighten(dict(coeffs), bound, False)
            r2 = _tighten({k: -c for k, c in coeffs.items()}, -bound, False)
            rows.extend([r1, r2])
        else:
            rows.append(_tighten(dict(coeffs), bound, op == "lt"))
    eliminated: list[tuple] = []  # (key, lower rows, upper rows)
    while True:
        for r in rows:
            if not r.coeffs and r.bound < 0:
                return ("unsat",)
        rows = [r for r in rows if r.coeffs]
        signs: dict = {}  # key -> [positive rows, negative rows]
        for r in rows:
            for k, c in r.coeffs.items():
                count = signs.setdefault(k, [0, 0])
                if c > 0:
                    count[0] += 1
                elif c < 0:
                    count[1] += 1
        if not signs:
            break
        # cheapest elimination first: fewest combined rows, then by name;
        # an exact tie goes to the key that appeared first
        var = min(signs, key=lambda k: (signs[k][0] * signs[k][1], str(k)))
        uppers = []  # var <= expr
        lowers = []  # var >= expr
        rest = []
        for r in rows:
            c = r.coeffs.get(var, 0)
            if c == 0:
                rest.append(r)
            elif c > 0:
                uppers.append(r)
            else:
                lowers.append(r)
        eliminated.append((var, lowers, uppers))
        new_rows = rest
        for up in uppers:
            cu = up.coeffs[var]
            for lo in lowers:
                cl = -lo.coeffs[var]
                coeffs: dict = {}
                for k, c in up.coeffs.items():
                    if k != var:
                        coeffs[k] = coeffs.get(k, Fraction(0)) + \
                            Fraction(c, cu)
                for k, c in lo.coeffs.items():
                    if k != var:
                        coeffs[k] = coeffs.get(k, Fraction(0)) + \
                            Fraction(c, cl)
                coeffs = {k: c for k, c in coeffs.items() if c != 0}
                bound = Fraction(up.bound, cu) + Fraction(lo.bound, cl)
                new_rows.append(_tighten(coeffs, bound, False))
        rows = new_rows
    # back-substitute a candidate point, preferring integers
    model: dict = {}

    def val(expr_coeffs: dict, bound: Fraction, sign: int) -> Fraction:
        acc = bound
        for k, c in expr_coeffs.items():
            # keys whose rows were discarded by a one-sided elimination
            # default to zero; the caller re-verifies the model anyway
            acc -= c * model.setdefault(k, Fraction(0))
        return acc * sign

    for var, lowers, uppers in reversed(eliminated):
        lo_bound: Optional[Fraction] = None
        hi_bound: Optional[Fraction] = None
        for r in uppers:
            cu = r.coeffs[var]
            rest = {k: c for k, c in r.coeffs.items() if k != var}
            b = Fraction(val(rest, r.bound, 1), cu)
            hi_bound = b if hi_bound is None else min(hi_bound, b)
        for r in lowers:
            cl = -r.coeffs[var]
            rest = {k: c for k, c in r.coeffs.items() if k != var}
            b = Fraction(-val(rest, r.bound, 1), cl)
            lo_bound = b if lo_bound is None else max(lo_bound, b)
        if lo_bound is None and hi_bound is None:
            model[var] = Fraction(0)
        elif lo_bound is None:
            model[var] = Fraction(floor(hi_bound))
        elif hi_bound is None:
            model[var] = Fraction(-floor(-lo_bound))
        else:
            c = Fraction(-floor(-lo_bound))  # ceil(lo)
            model[var] = c if c <= hi_bound else \
                Fraction(lo_bound + hi_bound, 2)
    return ("sat", model)
