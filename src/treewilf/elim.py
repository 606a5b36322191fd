"""Exact polynomial algebra: variable elimination by iterated resultants,
divisibility over Q[x], and annihilation tests against truncated series.

Every polynomial is one representation, MPoly: a sparse dict from packed
exponent keys to integer coefficients, and PackedRing holds the one
implementation of its arithmetic.  A key holds one FIELD-bit field per
variable, variable 0 in the most significant field, so integer order on keys
is lexicographic order on exponent vectors (max() is the leading term) and a
monomial product is one integer addition.  The top bit of each field is a
guard: exponents stay below 2^(FIELD-1), and an exponent that would reach it,
on packing or in a product, raises EliminationBoundError instead of carrying
into the next field.  Exact division tests that every field of a quotient
monomial is nonnegative with one guard-bit subtraction.

Exponent tuples appear only in PackedRing.pack and unpack and in the
BivarPoly.terms view.  system_polynomials builds packed keys directly, with
G and x in the top two fields, so a survivor of eliminate becomes the
GX_RING keys of a BivarPoly by one shift; BivarPoly, an immutable polynomial
in (G, x), holds those keys and computes on them, and a G-coefficient or a
content in Z[x] is a polynomial of X_RING, keyed by x-exponent.  All
arithmetic is over the integers: divisions inside the subresultant remainder
sequence and by a content are exact by construction and checked.  The
resultant of two polynomials lies in the ideal they generate, so every
polynomial produced by eliminate vanishes on any common solution of the
system; the annihilation test makes that checkable against solved series.

A content is found by evaluation, the heuristic gcd of Char, Geddes and
Gonnet (J. Symbolic Computation 7, 1989): the G-coefficients are evaluated
at one power of two xi above twice their largest absolute coefficient, the
integer gcd of the values is read back as a polynomial in balanced base xi,
and its primitive part is accepted only once it divides every G-coefficient
exactly.  Past that check it is the primitive gcd, since a nonconstant
factor of a coefficient takes a value at xi larger than any balanced digit.
A rejected candidate is retried at two larger xi, and only then does the
primitive remainder sequence (univariate_gcd) compute the gcd.  Either way
evaluation_gcd divides every G-coefficient by it with X_RING.divexact and
returns the quotients, so a content and its primitive part take one route.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import countOf, or_

from .series import TruncatedSeries
from .systems import AlgebraicSystem

Exps = tuple[int, ...]
# {packed exponent key: coeff}.  A key is sum(e_i << FIELD*(nvars-1-i)):
# FIELD bits per variable, variable 0 highest; bit FIELD-1 of each field is
# a guard bit that no exponent may reach, so exponents lie in [0, 2^(FIELD-1)).
MPoly = dict[int, int]

FIELD = 32
FIELD_MASK = (1 << FIELD) - 1


class EliminationError(RuntimeError):
    pass


class EliminationBoundError(EliminationError):
    """Unknown-count, time or exponent budget exceeded."""


# -- multivariate integer polynomials on packed keys ----------------------------------


class PackedRing:
    """Z[v_0..v_{nvars-1}] on packed keys: one implementation of each
    operation the elimination needs.  No method mutates its arguments except
    addmul's out.

    A ring made with a deadline (a time.monotonic() value) raises
    EliminationBoundError once it has passed, checking before every row of a
    product, every quotient term of an exact division and every v-degree part
    of a linear pseudo-remainder, so no single operation runs far past it.

    Linear pivots take a one-pass route: prem by a divisor of degree 1 in the
    variable is an evaluation (prem_linear), and resultant returns it, signed,
    when the lower-degree operand is linear.  Every other divisor goes through
    the general pseudo-division loop, and every other resultant through the
    subresultant sequence.
    """

    __slots__ = ("nvars", "guard", "deadline")

    def __init__(self, nvars: int, deadline: float | None = None):
        self.nvars = nvars
        # the top bit of every field
        self.guard = sum(1 << (FIELD * i + FIELD - 1) for i in range(nvars))
        self.deadline = deadline

    def shift(self, var: int) -> int:
        """Bit offset of variable var's field; variable 0 is the top field."""
        return FIELD * (self.nvars - 1 - var)

    def pack(self, p: dict[Exps, int]) -> MPoly:
        out: MPoly = {}
        for exps, c in p.items():
            key = 0
            for e in exps:
                if e >> (FIELD - 1):
                    raise EliminationBoundError(
                        f"exponent {e} is outside the packed range [0, 2^{FIELD - 1})")
                key = (key << FIELD) | e
            out[key] = c
        return out

    def unpack(self, p: MPoly) -> dict[Exps, int]:
        shifts = [self.shift(v) for v in range(self.nvars)]
        return {tuple((k >> s) & FIELD_MASK for s in shifts): c for k, c in p.items()}

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise EliminationBoundError("elimination deadline exceeded")

    def addmul(self, out: MPoly, p: MPoly, q: MPoly) -> MPoly:
        """out += p * q in place, returning out; raises EliminationBoundError
        when an exponent of the result reaches the guard bit of its field."""
        get = out.get
        q_items = list(q.items())
        timed = self.deadline is not None
        for k1, c1 in p.items():
            if timed:
                self.check_deadline()
            for k2, c2 in q_items:
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        if reduce(or_, out, 0) & self.guard:
            raise EliminationBoundError(f"an exponent reached 2^{FIELD - 1} in a product")
        return out

    def mul(self, p: MPoly, q: MPoly) -> MPoly:
        return self.addmul({}, p, q)

    def pow(self, p: MPoly, n: int) -> MPoly:
        if n == 0:
            if not p:
                raise ValueError("0^0 is undefined here")
            return {0: 1}
        result = None
        base = p
        while n:
            if n & 1:
                result = base if result is None else self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def degree(self, p: MPoly, var: int) -> int:
        """Degree in var; -1 for the zero polynomial."""
        if not p:
            return -1
        shift = self.shift(var)
        return max(map((FIELD_MASK << shift).__and__, p)) >> shift

    def coeff_of(self, p: MPoly, var: int, deg: int) -> MPoly:
        """Coefficient of var^deg, as a polynomial with that exponent zeroed."""
        shift = self.shift(var)
        field, top = FIELD_MASK << shift, deg << shift
        return {k - top: c for k, c in p.items() if k & field == top}

    def divexact(self, p: MPoly, q: MPoly) -> MPoly:
        """Exact division; raises if q does not divide p.  Uses lexicographic
        leading-term elimination, which terminates because the leading key of
        the remainder strictly decreases.  A heap of negated keys yields the
        leading key; entries whose term has cancelled are skipped."""
        if not q:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(q) == 1 and q.get(0) in (1, -1):
            return pk_scale(p, q[0])
        if not p:
            return {}
        guard = self.guard
        timed = self.deadline is not None
        qlead = max(q)
        qc = q[qlead]
        q_rest = [(k, c) for k, c in q.items() if k != qlead]
        rem = dict(p)
        heap = [-k for k in rem]
        heapify(heap)
        quo: MPoly = {}
        while heap:
            rlead = -heappop(heap)
            rc = rem.pop(rlead, 0)
            if not rc:
                continue
            # every field of rlead - qlead is nonnegative iff no guard bit is borrowed
            if ((rlead | guard) - qlead) & guard != guard or rc % qc != 0:
                raise ArithmeticError("inexact polynomial division")
            if timed:
                self.check_deadline()
            e = rlead - qlead
            c = rc // qc
            quo[e] = c
            for qk, qv in q_rest:
                k = e + qk
                old = rem.get(k, 0)
                s = old - c * qv
                if s:
                    rem[k] = s
                    if not old:
                        heappush(heap, -k)
                else:
                    del rem[k]
        return quo

    def prem(self, p: MPoly, q: MPoly, var: int) -> MPoly:
        """Pseudo-remainder of p by q with respect to var: lc(q)^(dp-dq+1) p mod q."""
        dq = self.degree(q, var)
        if dq < 0:
            raise ZeroDivisionError("pseudo-division by zero")
        if dq == 1:
            return self.prem_linear(p, q, var)
        shift = self.shift(var)
        field, qtop = FIELD_MASK << shift, dq << shift
        lcq = self.coeff_of(q, var, dq)
        q_low = {k: c for k, c in q.items() if k & field != qtop}
        rem = p
        steps = max(self.degree(rem, var) - dq + 1, 0)
        done = 0
        while True:
            dr = self.degree(rem, var)
            if dr < dq:
                break
            # lcq * rem - lcr * var^(dr-dq) * q, leaving out the var^dr terms, which cancel
            rtop = dr << shift
            low: MPoly = {}
            shifted_lcr: MPoly = {}
            for k, c in rem.items():
                if k & field == rtop:
                    shifted_lcr[k - qtop] = -c
                else:
                    low[k] = c
            rem = self.addmul(self.mul(lcq, low), shifted_lcr, q_low)
            done += 1
        # normalize to the standard prem: multiply by lcq^(steps - done)
        for _ in range(steps - done):
            rem = self.mul(lcq, rem)
        return rem

    def prem_linear(self, p: MPoly, q: MPoly, var: int) -> MPoly:
        """prem(p, q, var) for q = a*v + b of degree 1 in v = var.  With p_k
        the coefficient of v^k, that is a^dp * p(-b/a) = sum over k of
        p_k * (-b)^k * a^(dp-k) (von zur Gathen & Gerhard, Modern Computer
        Algebra, ch. 6): p is split by v-degree once and summed by Horner's
        rule.  When a is +-1 and b one term, each p_k is re-keyed instead, so
        every term of p is visited once."""
        dp = self.degree(p, var)
        if dp < 1:
            return p
        shift = self.shift(var)
        field = FIELD_MASK << shift
        parts: list[MPoly] = [{} for _ in range(dp + 1)]
        for k, c in p.items():
            parts[(k & field) >> shift][k & ~field] = c
        a = self.coeff_of(q, var, 1)
        neg_b = {k: -c for k, c in q.items() if not k & field}
        if len(neg_b) == 1 and len(a) == 1 and a.get(0) in (1, -1):
            (b_key, b_c), = neg_b.items()
            unit = a[0]
            out: MPoly = {}
            get = out.get
            # at v-degree k: step = k * b_key and f = b_c^k * a^(dp-k), where
            # b_c * (monomial b_key) is -b
            step, f = 0, unit ** dp
            for part in parts:
                self.check_deadline()
                # every field of step is below 2^(FIELD-1), so step + key carries
                # into no other field and the final guard test sees an overflow
                if step & self.guard:
                    raise EliminationBoundError(f"an exponent reached 2^{FIELD - 1} in a substitution")
                for k, c in part.items():
                    k += step
                    s = get(k, 0) + c * f
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                step += b_key
                f *= b_c * unit
            if reduce(or_, out, 0) & self.guard:
                raise EliminationBoundError(f"an exponent reached 2^{FIELD - 1} in a substitution")
            return out
        # Horner's rule; the products check the deadline and the guard bits
        rem = parts[dp]
        a_pow: MPoly = {0: 1}
        for k in range(dp - 1, -1, -1):
            a_pow = self.mul(a_pow, a)
            rem = self.addmul(self.mul(parts[k], a_pow), rem, neg_b)
        return rem

    def resultant(self, p: MPoly, q: MPoly, var: int) -> MPoly:
        """Resultant of p and q with respect to var, by the subresultant
        polynomial remainder sequence (exact integer divisions throughout), or
        by one pseudo-remainder when the lower-degree operand is linear."""
        dp, dq = self.degree(p, var), self.degree(q, var)
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
            return pk_scale(self.pow(q, dp), sign)
        if dq == 1:
            # res(p, a*v + b) = (-1)^dp * a^dp * p(-b/a) = (-1)^dp * prem(p, q)
            return pk_scale(self.prem_linear(p, q, var), -sign if dp & 1 else sign)
        g, h = {0: 1}, {0: 1}
        while True:
            delta = dp - dq
            if (dp & 1) and (dq & 1):
                sign = -sign
            rem = self.prem(p, q, var)
            if not rem:
                return {}
            divisor = self.mul(g, self.pow(h, delta))
            p, q = q, self.divexact(rem, divisor)
            dp = dq
            dq = self.degree(q, var)
            g = self.coeff_of(p, var, dp)
            if delta >= 1:
                h = self.divexact(self.pow(g, delta), self.pow(h, delta - 1))
            if dq == 0:
                # res = h^(1-dp) * q^dp up to the accumulated sign
                num = self.pow(q, dp)
                if dp >= 1:
                    num = self.divexact(num, self.pow(h, dp - 1))
                return pk_scale(num, sign)


def pk_scale(p: MPoly, c: int) -> MPoly:
    if c == 0:
        return {}
    return {k: c * v for k, v in p.items()}


def pk_primitive(p: MPoly) -> MPoly:
    """p divided by the gcd of its coefficients, signed so that the
    coefficient of the lexicographically largest exponent is positive."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    return {k: v // c for k, v in p.items()}


X_RING = PackedRing(1)   # Z[x]: a key is the x-exponent
GX_RING = PackedRing(2)  # Z[G, x]: BivarPoly, G in the top field


def univariate_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Gcd in Z[x] of two polynomials of X_RING, not both zero, by the
    primitive polynomial remainder sequence, with positive leading coefficient."""
    c = gcd(*p.values(), *q.values())
    if X_RING.degree(p, 0) < X_RING.degree(q, 0):
        p, q = q, p
    p = pk_primitive(p)
    while q:
        q = pk_primitive(q)
        p, q = q, X_RING.prem(p, q, 0)
    return pk_scale(p, c)


def balanced_digits(n: int, bits: int) -> MPoly:
    """n written in base 2^bits with digits in [-2^(bits-1), 2^(bits-1)), as
    the polynomial of X_RING whose value at 2^bits is n."""
    out: MPoly = {}
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    k = 0
    while n:
        d = n & mask
        if d >= half:
            d -= 1 << bits
        if d:
            out[k] = d
        n = (n - d) >> bits
        k += 1
    return out


def evaluation_gcd(polys: list[MPoly]) -> tuple[MPoly, list[MPoly]]:
    """The gcd of nonzero polynomials of X_RING up to an integer factor,
    primitive with positive leading coefficient, with the quotient of each
    polynomial by it.  When three evaluations give no candidate that divides
    them all, the primitive remainder sequence (univariate_gcd) gives it;
    being primitive, it divides each polynomial in Z[x] (Gauss's lemma).

    With xi = 2^bits > 2M + 2, M the largest absolute coefficient, a root of
    any of the polynomials lies within 1 + M of 0 (Cauchy), so a nonconstant
    factor h of one of them has |h(xi)| > xi/2.  The primitive gcd g divides
    the values' gcd, which is read back as d * c(xi) with c primitive and
    |d| <= xi/2; when c divides every polynomial, g = c * h with h(xi)
    dividing d, so h is constant and c = g."""
    top = max(abs(c) for p in polys for c in p.values())
    bits = (2 * top + 2).bit_length()
    for _ in range(3):
        value = 0
        for p in polys:
            value = gcd(value, sum(c << (bits * k) for k, c in p.items()))
        candidate = pk_primitive(balanced_digits(value, bits))
        try:
            return candidate, [X_RING.divexact(p, candidate) for p in polys]
        except ArithmeticError:
            bits *= 2
    candidate = pk_primitive(reduce(univariate_gcd, polys, {}))
    return candidate, [X_RING.divexact(p, candidate) for p in polys]


# -- bivariate polynomials in (G, x) ----------------------------------------------


@dataclass(frozen=True)
class BivarPoly:
    """Polynomial in the series unknown G with integer polynomial coefficients in x.

    mpoly is an MPoly of GX_RING, G in the top field and x in the bottom one,
    so key order is (g_degree, x_degree) order and the low field of a key is
    the x-degree within its G-coefficient.  terms is the read-only view
    ((g_degree, x_degree), coefficient) in that order.  Content (the common
    Z[x] factor of the G-coefficients) is never stripped implicitly; use
    content_and_primitive explicitly.
    """

    mpoly: MPoly

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "BivarPoly":
        """From {(g_degree, x_degree): coeff}; raises EliminationBoundError for
        an exponent outside [0, 2^(FIELD-1))."""
        return cls(GX_RING.pack({k: v for k, v in d.items() if v}))

    @classmethod
    def from_g_coefficients(cls, coeffs: dict[int, dict[int, int]]) -> "BivarPoly":
        """Build from {g_degree: {x_degree: coeff}}."""
        return cls.from_dict({
            (g, xd): c for g, xs in coeffs.items() for xd, c in xs.items()
        })

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(((k >> FIELD, k & FIELD_MASK), c) for k, c in sorted(self.mpoly.items()))

    def is_zero(self) -> bool:
        return not self.mpoly

    @property
    def g_degree(self) -> int:
        return GX_RING.degree(self.mpoly, 0)

    def g_coefficients(self) -> dict[int, MPoly]:
        """{g_degree: its coefficient, a polynomial of X_RING} for the nonzero
        G-coefficients, by increasing G-degree and each by increasing x-degree."""
        out: dict[int, MPoly] = {}
        for k, c in sorted(self.mpoly.items()):
            out.setdefault(k >> FIELD, {})[k & FIELD_MASK] = c
        return out

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly(GX_RING.mul(self.mpoly, other.mpoly))

    def content_and_primitive(self) -> tuple[MPoly, "BivarPoly"]:
        """The Z[x] content, a polynomial of X_RING with positive leading
        coefficient, and the matching primitive part.

        The content is the gcd of the G-coefficients: the integer gcd of
        their coefficients times the primitive gcd that evaluation_gcd
        returns with the quotient of each G-coefficient by it, found by
        evaluation or else by the remainder sequence and checked by exact
        division either way.  The primitive part is read off those
        quotients, so no bivariate division runs.
        """
        if self.is_zero():
            return {}, self
        coeffs = self.g_coefficients()
        primitive_gcd, quotients = evaluation_gcd(list(coeffs.values()))
        icont = gcd(*self.mpoly.values())
        prim = BivarPoly({g << FIELD | xd: c // icont for g, q in zip(coeffs, quotients)
                          for xd, c in q.items()})
        return pk_scale(primitive_gcd, icont), prim

    def canonical_text(self) -> str:
        """Stable text form: terms sorted by G-degree then x-degree."""
        return "bivar;" + ";".join(f"G^{g},x^{x}:{c}" for (g, x), c in self.terms)

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        chunks = []
        for g, coeff in self.g_coefficients().items():
            xs = " + ".join(
                f"{c}" + ("" if xd == 0 else f"*x^{xd}" if xd > 1 else "*x")
                for xd, c in coeff.items()
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
    if X_RING.prem(cont_p, cont_q, 0):
        return False
    return not GX_RING.prem(prim_p.mpoly, prim_q.mpoly, 0)


def annihilates(p: BivarPoly, series: TruncatedSeries, order: int) -> bool:
    """True iff substituting the truncated series for G yields 0 modulo x^(order+1)."""
    if not series.is_univariate:
        raise ValueError("annihilation test is univariate-only")
    if order > series.order:
        raise ValueError(f"series only known to order {series.order}")
    s = series.restrict(order)
    var = series.variables[0]
    acc = TruncatedSeries.zero((var,), order)
    coeffs = p.g_coefficients()
    for g in range(p.g_degree, -1, -1):
        acc = acc * s
        coeff = coeffs.get(g)
        if coeff:
            dense = [0] * (order + 1)
            for xd, c in coeff.items():
                if xd <= order:
                    dense[xd] = c
            acc = acc + TruncatedSeries.univariate(var, order, dense)
    return acc.is_zero()



def system_polynomials(system: AlgebraicSystem) -> tuple[list[MPoly], int]:
    """Defining polynomials unknown_i - rhs_i over variables (G, x, y_0..y_{N-1}),
    plus the target polynomial G - sum(target), as MPolys of PackedRing(nvars).
    G and x hold the top two fields, so a polynomial free of the unknowns is
    its GX_RING keys shifted up by FIELD*N.  Returns (polys, nvars)."""
    if len(system.weight_vars) != 1:
        raise EliminationError("elimination supports one weight variable")
    nvars = 2 + system.n_unknowns
    ring = PackedRing(nvars)
    unit = [1 << ring.shift(v) for v in range(nvars)]
    polys: list[MPoly] = []
    for i, eq in enumerate(system.equations):
        p = {unit[2 + i]: 1}
        for m in eq:
            if m.wexp[0] >> (FIELD - 1):
                raise EliminationBoundError(
                    f"exponent {m.wexp[0]} is outside the packed range [0, 2^{FIELD - 1})")
            key = m.wexp[0] * unit[1] + sum(unit[2 + f] for f in m.factors)
            p[key] = p.get(key, 0) - m.coeff
        polys.append({k: c for k, c in p.items() if c})
    gpoly = {unit[0]: 1}
    for ui in system.target:
        gpoly[unit[2 + ui]] = -1
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
    deadline_seconds bounds the wall time: past it, EliminationBoundError is
    raised within one row of a product or one quotient term of a division.
    """
    if system.n_unknowns > max_unknowns:
        raise EliminationBoundError(
            f"{system.n_unknowns} unknowns exceed the elimination bound of {max_unknowns}; "
            "resultant degrees grow multiplicatively"
        )
    if elimination_order is not None and sorted(elimination_order) != list(range(system.n_unknowns)):
        raise ValueError("elimination_order must be a permutation of the unknown indices")
    deadline = None if deadline_seconds is None else time.monotonic() + deadline_seconds
    polys, nvars = system_polynomials(system)
    ring = PackedRing(nvars, deadline)
    remaining = list(range(2, 2 + system.n_unknowns))
    forced = [2 + u for u in elimination_order] if elimination_order is not None else None

    while remaining:
        ring.check_deadline()
        if forced:
            var = forced.pop(0)
        else:
            # the keys holding v are those whose field of v is not zero
            keys = [k for p in polys for k in p]
            var = min(remaining, key=lambda v: (
                len(keys) - countOf(map((FIELD_MASK << ring.shift(v)).__and__, keys), 0), v))
        degrees = [ring.degree(p, var) for p in polys]
        holding = [(d, p) for d, p in zip(degrees, polys) if d > 0]
        passing = [p for d, p in zip(degrees, polys) if d <= 0]
        if not holding:
            remaining.remove(var)
            continue
        pivot = min(holding, key=lambda dp: (dp[0], len(dp[1])))[1]
        new_polys: list[MPoly] = []
        for _, p in holding:
            if p is pivot:
                continue
            res = ring.resultant(pivot, p, var)
            if not res:
                raise EliminationError(
                    f"resultant vanished while eliminating unknown {var - 2}; "
                    "the inputs share a factor - strip contents or square-free parts first"
                )
            new_polys.append(res)
        polys = passing + new_polys
        remaining.remove(var)

    # the survivors lie in Z[G, x], the top two fields; the unknowns hold the rest
    unknown_bits = FIELD * system.n_unknowns
    candidates = []
    for p in polys:
        if not p:
            continue
        if reduce(or_, p, 0) & ((1 << unknown_bits) - 1):
            raise EliminationError("an unknown survived elimination; this is a bug")
        bp = BivarPoly({k >> unknown_bits: c for k, c in p.items()})
        if bp.g_degree >= 1:
            candidates.append(bp)
    if not candidates:
        raise EliminationError("no nonzero polynomial in the target survived elimination")
    best = min(candidates, key=lambda b: (b.g_degree, len(b.mpoly), b.canonical_text()))
    _, prim = best.content_and_primitive()
    if prim.mpoly[max(prim.mpoly)] < 0:
        prim = BivarPoly(pk_scale(prim.mpoly, -1))
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
