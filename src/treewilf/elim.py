"""Exact polynomial algebra: variable elimination by iterated resultants,
divisibility over Q[x], and annihilation tests against truncated series.

Every polynomial is one representation, MPoly: a sparse dict from exponent
tuples to integer coefficients.  BivarPoly is an immutable view of an MPoly
in (G, x), and a content in Z[x] is an MPoly over (x,).  All arithmetic is
over the integers: divisions inside the subresultant remainder sequence and
by a content are exact by construction and checked.  The resultant of two
polynomials lies in the ideal they generate, so every polynomial produced by
eliminate vanishes on any common solution of the system; the annihilation
test makes that checkable against solved series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd

from .series import TruncatedSeries
from .systems import AlgebraicSystem

Exps = tuple[int, ...]
MPoly = dict[Exps, int]


class EliminationError(RuntimeError):
    pass


class EliminationBoundError(EliminationError):
    """Unknown-count or time budget exceeded."""


# -- multivariate integer polynomials as {exponent tuple: coeff} ------------------


def mp_add(p: MPoly, q: MPoly) -> MPoly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mp_neg(p: MPoly) -> MPoly:
    return {e: -c for e, c in p.items()}

def mp_scale(p: MPoly, c: int) -> MPoly:
    if c == 0:
        return {}
    return {e: c * v for e, v in p.items()}


def mp_mul(p: MPoly, q: MPoly) -> MPoly:
    out: MPoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def mp_pow(p: MPoly, n: int) -> MPoly:
    if n == 0:
        if not p:
            raise ValueError("0^0 is undefined here")
        return {(0,) * len(next(iter(p))): 1}
    result = None
    base = p
    while n:
        if n & 1:
            result = base if result is None else mp_mul(result, base)
        n >>= 1
        if n:
            base = mp_mul(base, base)
    return result


def mp_degree(p: MPoly, var: int) -> int:
    return max((e[var] for e in p), default=-1)


def mp_coeff_of(p: MPoly, var: int, deg: int) -> MPoly:
    """Coefficient of var^deg, as a polynomial with that exponent zeroed."""
    out: MPoly = {}
    for e, c in p.items():
        if e[var] == deg:
            out[e[:var] + (0,) + e[var + 1:]] = c
    return out


def mp_divexact(p: MPoly, q: MPoly) -> MPoly:
    """Exact division; raises if q does not divide p.  Uses lexicographic
    leading-term elimination, which terminates because exponents shrink."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return {}
    qlead = max(q)
    qc = q[qlead]
    rem = dict(p)
    quo: MPoly = {}
    while rem:
        rlead = max(rem)
        rc = rem[rlead]
        e = tuple(a - b for a, b in zip(rlead, qlead))
        if any(v < 0 for v in e) or rc % qc != 0:
            raise ArithmeticError("inexact polynomial division")
        c = rc // qc
        quo[e] = quo.get(e, 0) + c
        for qe, qv in q.items():
            te = tuple(a + b for a, b in zip(e, qe))
            s = rem.get(te, 0) - c * qv
            if s:
                rem[te] = s
            else:
                rem.pop(te, None)
    return quo


def mp_prem(p: MPoly, q: MPoly, var: int) -> MPoly:
    """Pseudo-remainder of p by q with respect to var: lc(q)^(dp-dq+1) p mod q."""
    dq = mp_degree(q, var)
    if dq < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lcq = mp_coeff_of(q, var, dq)
    rem = dict(p)
    dp = mp_degree(rem, var)
    steps = max(dp - dq + 1, 0)
    done = 0
    nvars = len(next(iter(q)))
    while True:
        dr = mp_degree(rem, var)
        if dr < dq or not rem:
            break
        lcr = mp_coeff_of(rem, var, dr)
        shift = {tuple(dr - dq if i == var else 0 for i in range(nvars)): 1}
        rem = mp_add(mp_mul(lcq, rem), mp_neg(mp_mul(mp_mul(lcr, shift), q)))
        done += 1
    # normalize to the standard prem: multiply by lcq^(steps - done)
    for _ in range(steps - done):
        rem = mp_mul(lcq, rem)
    return rem


def mp_resultant(p: MPoly, q: MPoly, var: int) -> MPoly:
    """Resultant of p and q with respect to var, by the subresultant
    polynomial remainder sequence (exact integer divisions throughout)."""
    dp, dq = mp_degree(p, var), mp_degree(q, var)
    if dp < 0 or dq < 0:
        return {}
    if dp == 0 and dq == 0:
        raise ValueError("resultant needs positive degree in the eliminated variable")
    sign = 1
    if dp < dq:
        p, q, dp, dq = q, p, dq, dp
        if (dp & 1) and (dq & 1):
            sign = -sign
    if dq == 0:
        return mp_scale(mp_pow(q, dp), sign)
    nvars = len(next(iter(p)))
    one: MPoly = {(0,) * nvars: 1}
    g, h = one, one
    while True:
        delta = dp - dq
        if (dp & 1) and (dq & 1):
            sign = -sign
        rem = mp_prem(p, q, var)
        if not rem:
            return {}
        divisor = mp_mul(g, mp_pow(h, delta))
        p, q = q, mp_divexact(rem, divisor)
        dp = dq
        dq = mp_degree(q, var)
        g = mp_coeff_of(p, var, dp)
        if delta >= 1:
            h = mp_divexact(mp_pow(g, delta), mp_pow(h, delta - 1))
        if dq == 0:
            # res = h^(1-dp) * q^dp up to the accumulated sign
            num = mp_pow(q, dp)
            if dp >= 1:
                num = mp_divexact(num, mp_pow(h, dp - 1))
            return mp_scale(num, sign)


def mp_primitive(p: MPoly) -> MPoly:
    """p divided by the gcd of its coefficients, signed so that the
    coefficient of the lexicographically largest exponent is positive."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    return {e: v // c for e, v in p.items()}


def mp_univariate_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Gcd in Z[x] of two polynomials over (x,), not both zero, by the
    primitive polynomial remainder sequence, with positive leading coefficient."""
    c = gcd(*p.values(), *q.values())
    if mp_degree(p, 0) < mp_degree(q, 0):
        p, q = q, p
    p = mp_primitive(p)
    while q:
        q = mp_primitive(q)
        p, q = q, mp_prem(p, q, 0)
    return mp_scale(p, c)


# -- bivariate polynomials in (G, x) ----------------------------------------------


@dataclass(frozen=True)
class BivarPoly:
    """Polynomial in the series unknown G with integer polynomial coefficients in x.

    terms is the MPoly in (G, x), (g_degree, x_degree) -> coefficient, frozen
    as a sorted tuple; as_dict() returns it for the mp_* operations.  Content
    (the common Z[x] factor of the G-coefficients) is never stripped
    implicitly; use content_and_primitive explicitly.
    """

    terms: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "BivarPoly":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

    @classmethod
    def from_g_coefficients(cls, coeffs: dict[int, dict[int, int]]) -> "BivarPoly":
        """Build from {g_degree: {x_degree: coeff}}."""
        return cls.from_dict({
            (g, xd): c for g, xs in coeffs.items() for xd, c in xs.items()
        })

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def g_degree(self) -> int:
        return max((g for (g, _), _ in self.terms), default=-1)

    def g_coefficient(self, g: int) -> dict[int, int]:
        return {xd: c for (gg, xd), c in self.terms if gg == g}

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly.from_dict(mp_add(self.as_dict(), other.as_dict()))

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly.from_dict(mp_add(self.as_dict(), mp_neg(other.as_dict())))

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly.from_dict(mp_mul(self.as_dict(), other.as_dict()))

    def scale(self, c: int) -> "BivarPoly":
        return BivarPoly.from_dict(mp_scale(self.as_dict(), c))

    def content_and_primitive(self) -> tuple[MPoly, "BivarPoly"]:
        """The Z[x] content, as an MPoly over (x,) with positive leading
        coefficient, and the matching primitive part.

        The content is the gcd of the G-coefficients; by Gauss's lemma it
        divides each of them in Z[x], so the division is exact over Z.
        """
        if self.is_zero():
            return {}, self
        coeffs: dict[int, MPoly] = {}
        for (g, xd), c in self.terms:
            coeffs.setdefault(g, {})[(xd,)] = c
        content = reduce(mp_univariate_gcd, coeffs.values(), {})
        lifted = {(0, xd): c for (xd,), c in content.items()}
        return content, BivarPoly.from_dict(mp_divexact(self.as_dict(), lifted))

    def canonical_text(self) -> str:
        """Stable text form: terms sorted by G-degree then x-degree."""
        parts = [f"G^{g},x^{x}:{c}" for (g, x), c in
                 sorted(self.terms, key=lambda t: (t[0][0], t[0][1]))]
        return "bivar;" + ";".join(parts)

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        chunks = []
        for g in range(self.g_degree + 1):
            coeff = self.g_coefficient(g)
            if not coeff:
                continue
            xs = " + ".join(
                f"{c}" + ("" if xd == 0 else f"*x^{xd}" if xd > 1 else "*x")
                for xd, c in sorted(coeff.items())
            )
            if g == 0:
                chunks.append(f"({xs})")
            elif g == 1:
                chunks.append(f"({xs})*G")
            else:
                chunks.append(f"({xs})*G^{g}")
        return " + ".join(chunks)


# -- the public operations ---------------------------------------------------------


def poly_divides(p: BivarPoly, q: BivarPoly) -> bool:
    """True iff p = q * r for some polynomial r with rational coefficients in x.

    Split off the Z[x] contents (Gauss), then test the contents in x and the
    primitive parts in G by pseudo-division: a zero pseudo-remainder is
    equivalent to divisibility over the fraction field, and for primitive
    parts that descends to Z[x][G].
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return True
    if p.g_degree < q.g_degree:
        return False
    cont_p, prim_p = p.content_and_primitive()
    cont_q, prim_q = q.content_and_primitive()
    if mp_prem(cont_p, cont_q, 0):
        return False
    return not mp_prem(prim_p.as_dict(), prim_q.as_dict(), 0)


def annihilates(p: BivarPoly, series: TruncatedSeries, order: int) -> bool:
    """True iff substituting the truncated series for G yields 0 modulo x^(order+1)."""
    if not series.is_univariate:
        raise ValueError("annihilation test is univariate-only")
    if order > series.order:
        raise ValueError(f"series only known to order {series.order}")
    s = series.restrict(order)
    var = series.variables[0]
    acc = TruncatedSeries.zero((var,), order)
    for g in range(p.g_degree, -1, -1):
        acc = acc * s
        coeff = p.g_coefficient(g)
        if coeff:
            dense = [0] * (order + 1)
            for xd, c in coeff.items():
                if xd <= order:
                    dense[xd] = c
            acc = acc + TruncatedSeries.univariate(var, order, dense)
    return acc.is_zero()


def system_polynomials(system: AlgebraicSystem) -> tuple[list[MPoly], int]:
    """Defining polynomials unknown_i - rhs_i over variables (x, y_0..y_{N-1}, G),
    plus the target-combination polynomial G - sum(target).  Returns (polys, nvars)."""
    if len(system.weight_vars) != 1:
        raise EliminationError("elimination supports one weight variable")
    n = system.n_unknowns
    nvars = 1 + n + 1

    def mono(m) -> MPoly:
        e = [0] * nvars
        e[0] = m.wexp[0]
        for f in m.factors:
            e[1 + f] += 1
        return {tuple(e): m.coeff}

    polys: list[MPoly] = []
    for i, eq in enumerate(system.equations):
        p: MPoly = {tuple(1 if j == 1 + i else 0 for j in range(nvars)): 1}
        for m in eq:
            p = mp_add(p, mp_neg(mono(m)))
        polys.append(p)
    gpoly: MPoly = {tuple(1 if j == nvars - 1 else 0 for j in range(nvars)): 1}
    for coeff, ui in system.target:
        gpoly = mp_add(gpoly, {tuple(1 if j == 1 + ui else 0 for j in range(nvars)): -coeff})
    polys.append(gpoly)
    return polys, nvars


def eliminate(system: AlgebraicSystem, max_unknowns: int = 12,
              deadline_seconds: float | None = None,
              elimination_order: list[int] | None = None) -> BivarPoly:
    """Eliminate all series unknowns from the system by iterated resultants,
    producing a nonzero polynomial in (x, G) that annihilates the target
    series.  The result is returned content-free (primitive part) with a
    positive leading term.

    The default elimination order is sparsest-first: unknowns appearing in
    the fewest monomials go first, re-evaluated greedily after each step.
    elimination_order (a permutation of the unknown indices) overrides it.
    """
    if system.n_unknowns > max_unknowns:
        raise EliminationBoundError(
            f"{system.n_unknowns} unknowns exceed the elimination bound of {max_unknowns}; "
            "resultant degrees grow multiplicatively"
        )
    if elimination_order is not None and sorted(elimination_order) != list(range(system.n_unknowns)):
        raise ValueError("elimination_order must be a permutation of the unknown indices")
    start = time.monotonic()
    polys, nvars = system_polynomials(system)
    remaining = list(range(1, 1 + system.n_unknowns))
    forced = [1 + u for u in elimination_order] if elimination_order is not None else None

    while remaining:
        if deadline_seconds is not None and time.monotonic() - start > deadline_seconds:
            raise EliminationBoundError("elimination deadline exceeded")
        if forced:
            var = forced.pop(0)
        else:
            occurrence = {
                v: sum(1 for p in polys for e in p if e[v] > 0) for v in remaining
            }
            var = min(remaining, key=lambda v: (occurrence[v], v))
        holding = [p for p in polys if mp_degree(p, var) > 0]
        passing = [p for p in polys if mp_degree(p, var) <= 0]
        if not holding:
            remaining.remove(var)
            continue
        pivot = min(holding, key=lambda p: (mp_degree(p, var), len(p)))
        new_polys: list[MPoly] = []
        for p in holding:
            if p is pivot:
                continue
            res = mp_resultant(pivot, p, var)
            if not res:
                raise EliminationError(
                    f"resultant vanished while eliminating unknown {var - 1}; "
                    "the inputs share a factor - strip contents or square-free parts first"
                )
            new_polys.append(res)
        polys = passing + new_polys
        remaining.remove(var)

    candidates = []
    for p in polys:
        if not p:
            continue
        if any(any(e[1:-1]) for e in p):
            raise EliminationError("an unknown survived elimination; this is a bug")
        d = {(e[-1], e[0]): c for e, c in p.items()}
        bp = BivarPoly.from_dict(d)
        if not bp.is_zero() and bp.g_degree >= 1:
            candidates.append(bp)
    if not candidates:
        raise EliminationError("no nonzero polynomial in the target survived elimination")
    best = min(candidates, key=lambda b: (b.g_degree, len(b.terms), b.canonical_text()))
    _, prim = best.content_and_primitive()
    lead = sorted(prim.terms)[-1]
    if lead[1] < 0:
        prim = prim.scale(-1)
    return prim


# -- the shipped certificate fixtures ----------------------------------------------

# Two different eliminations of 8-leaf avoidance systems yield these two
# polynomials; the quintic is divisible by the quartic, so both define the
# same power series and the two pattern classes they came from coincide.
# This is the certificate that upgrades the 8-leaf class count from a lower
# bound to an exact value.

WITNESS_QUINTIC = BivarPoly.from_g_coefficients({
    0: {1: -1, 3: 1, 5: -1, 7: -1, 9: 1, 13: 1},
    1: {0: 1, 2: -2, 4: 4, 6: 2, 8: -6, 10: 2, 12: -4, 14: 3},
    2: {3: -3, 7: 9, 9: -8, 11: 7, 13: -8, 15: 3},
    3: {6: -3, 8: 7, 10: -8, 12: 6, 14: -3, 16: 1},
    4: {9: 3, 11: -2, 13: -3, 15: 2},
    5: {12: 2, 14: -3, 16: 1},
})

WITNESS_QUARTIC = BivarPoly.from_g_coefficients({
    0: {1: 1, 3: -1, 5: 2, 9: 1},
    1: {0: -1, 2: 2, 4: -6, 6: 2, 8: -3, 10: 2},
    2: {3: 4, 5: -3, 7: 3, 9: -3, 11: 1},
    3: {6: -1, 10: 1},
    4: {9: -2, 11: 1},
})

# Lexicographically first 8-leaf pattern whose avoidance series both witness
# polynomials annihilate (found by sweeping all 429 patterns at order 101).
COLLAPSE_MEMBER = "mmmxmmxmxxxxmxx"


def collapse_certificate(order: int = 100) -> bool:
    """Run the 8-leaf collapse certificate: the quintic witness is divisible
    by the quartic one, and both annihilate the avoidance series of the
    collapse class, so the two post-elimination equations define one series."""
    from .series import av_series
    from .trees import Alphabet, parse_polish

    member = parse_polish(COLLAPSE_MEMBER, Alphabet.binary())
    series = av_series(member, order)
    return (
        poly_divides(WITNESS_QUINTIC, WITNESS_QUARTIC)
        and annihilates(WITNESS_QUARTIC, series, order)
        and annihilates(WITNESS_QUINTIC, series, order)
    )
