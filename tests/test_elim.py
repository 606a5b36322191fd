import hashlib
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treewilf import elim
from treewilf.elim import (
    COLLAPSE_MEMBER,
    BivarPoly,
    EliminationBoundError,
    EliminationError,
    PackedRing,
    WITNESS_QUARTIC,
    WITNESS_QUINTIC,
    annihilates,
    collapse_certificate,
    eliminate,
    poly_divides,
)
from treewilf.grammar import build_grammar
from treewilf.series import av_series, solve_truncated
from treewilf.systems import cs_system, enumeration_system, stamp_system
from treewilf.trees import Alphabet, PatternSet, parse_polish

BIN = Alphabet.binary()

CATALAN_POLY = BivarPoly.from_dict({(0, 1): 1, (1, 0): -1, (2, 1): 1})
GEOMETRIC_POLY = BivarPoly.from_dict({(0, 1): 1, (1, 0): -1, (1, 2): 1})


def catalan_system():
    return cs_system(build_grammar(BIN, PatternSet(BIN, ())))


def geometric_system():
    return cs_system(build_grammar(BIN, PatternSet.from_words(["mmxxx"])))


class TestResultant:
    def test_univariate_known_values(self):
        # res_x(x^2 - 2, x - 3) = 7;  res_x(x^2 + 1, x^2 - 1) = 4
        ring = PackedRing(2)
        a = ring.pack({(2, 0): 1, (0, 0): -2})
        b = ring.pack({(1, 0): 1, (0, 0): -3})
        assert ring.unpack(ring.resultant(a, b, 0)) == {(0, 0): 7}
        c = ring.pack({(2, 0): 1, (0, 0): 1})
        d = ring.pack({(2, 0): 1, (0, 0): -1})
        assert ring.unpack(ring.resultant(c, d, 0)) == {(0, 0): 4}

    def test_common_factor_gives_zero(self):
        # both divisible by (x - 1)
        ring = PackedRing(2)
        a = ring.pack({(2, 0): 1, (0, 0): -1})
        b = ring.pack({(1, 0): 1, (0, 0): -1})
        assert ring.resultant(a, b, 0) == {}

    def test_bivariate(self):
        # res_y(y^2 - x, y - x) = x^2 - x
        ring = PackedRing(2)
        a = ring.pack({(0, 2): 1, (1, 0): -1})
        b = ring.pack({(0, 1): 1, (1, 0): -1})
        assert ring.unpack(ring.resultant(a, b, 1)) == {(2, 0): 1, (1, 0): -1}


class TestPackedKeys:
    def test_exponent_too_large_to_pack(self):
        with pytest.raises(EliminationBoundError):
            PackedRing(2).pack({(2**31, 0): 1})

    def test_product_overflowing_a_field(self):
        ring = PackedRing(2)
        for var in (0, 1):
            mono = ring.pack({tuple(2**30 if v == var else 0 for v in range(2)): 1})
            with pytest.raises(EliminationBoundError):
                ring.mul(mono, mono)

    def test_inexact_division_by_a_lower_field(self):
        # the leading exponent of the divisor exceeds the dividend's in a field
        # below the top one, where a plain key subtraction borrows silently
        ring = PackedRing(3)
        for dividend, divisor in (({(1, 0, 0): 1}, {(0, 1, 0): 1}),
                                  ({(1, 2, 0): 1}, {(0, 1, 1): 1})):
            with pytest.raises(ArithmeticError):
                ring.divexact(ring.pack(dividend), ring.pack(divisor))

    @pytest.mark.parametrize("lead", [1, -1, 2])
    @pytest.mark.parametrize("var, dividend, tail", [
        (1, {(0, 4): 1}, {(2**30, 0): -1}),
        (0, {(4, 0): 1}, {(0, 2**30): -1}),
        (0, {(1, 2**31 - 1): 1}, {(0, 1): -1}),
    ], ids=["into-top-field", "into-bottom-field", "in-the-sum"])
    def test_substitution_overflowing_a_field(self, var, dividend, tail, lead):
        # prem by lead*v + tail substitutes v = -tail/lead; each case reaches an
        # exponent of 2^31 or more, which must not carry into a neighbouring field
        ring = PackedRing(2)
        v = tuple(1 if i == var else 0 for i in range(2))
        divisor = ring.pack({v: lead, **tail})
        with pytest.raises(EliminationBoundError):
            ring.prem(ring.pack(dividend), divisor, var)

    @pytest.mark.parametrize("divisor", [{(0, 1): 1, (1, 0): -1},
                                         {(0, 1): 2, (1, 0): -1, (0, 0): 3}],
                             ids=["unit-lead-one-term-tail", "general"])
    def test_deadline_inside_a_linear_prem(self, divisor):
        ring = PackedRing(2, deadline=time.monotonic() - 1)
        dividend = ring.pack({(k, k): k + 1 for k in range(60)})
        with pytest.raises(EliminationBoundError, match="deadline"):
            ring.prem(dividend, ring.pack(divisor), 1)

    def test_largest_exponent_round_trips(self):
        ring = PackedRing(3)
        p = {(2**31 - 1, 0, 5): 3, (0, 2**31 - 1, 0): -1}
        assert ring.unpack(ring.pack(p)) == p


class TestEliminate:
    def test_catalan(self):
        assert eliminate(catalan_system()) == CATALAN_POLY

    def test_geometric(self):
        assert eliminate(geometric_system()) == GEOMETRIC_POLY

    @pytest.mark.parametrize("word, digest", [
        ("mmxmmxmmxxxxx", "1af3261cd7512c01455f79cba4a47f424999083a6f6df93e9a005822cc2a31d5"),
        ("mmmxxmxmmxxxx", "411ecdb2963fb1491a2068dd37ccef1876801de6b0e8a09c3de87a23f879f894"),
        ("mmmmxmxxxxmxx", "d19bb5127d41cbb340150d505144fa60ab5075de7700d358f3403700ae43fa41"),
        ("mmmxmxmxmxxxx", "05e441e59bdce28d834c5bb406ded4b0f5c1284ff522e2f2937058267dbd5826"),
    ])
    def test_pinned_output(self, word, digest):
        # a different polynomial that still annihilates the series would pass the
        # soundness tests; these pin the exact polynomial of reduced avoidance systems
        system = enumeration_system(parse_polish(word, BIN), marked=False)
        text = eliminate(system).canonical_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_soundness_catalan(self):
        system = catalan_system()
        poly = eliminate(system)
        _, target = solve_truncated(system, 80)
        assert annihilates(poly, target, 80)

    def test_soundness_four_leaf_patterns(self):
        from treewilf.trees import enumerate_binary_patterns

        for pattern in enumerate_binary_patterns(4):
            ps = PatternSet(BIN, (pattern,))
            for system, bound in (
                (cs_system(build_grammar(BIN, ps)), 20),
                (stamp_system(BIN, ps), 12),
            ):
                poly = eliminate(system, max_unknowns=bound)
                _, target = solve_truncated(system, 60)
                assert annihilates(poly, target, 60)

    def test_order_insensitive_annihilation(self):
        system = geometric_system()
        _, target = solve_truncated(system, 50)
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            poly = eliminate(system, elimination_order=order)
            assert annihilates(poly, target, 50)

    def test_unknown_bound(self):
        comb5 = parse_polish("mmmmxxxxx", BIN)
        system = stamp_system(BIN, PatternSet(BIN, (comb5,)))
        assert system.n_unknowns > 12
        with pytest.raises(EliminationBoundError):
            eliminate(system)

    def test_deadline(self):
        system = stamp_system(BIN, PatternSet.from_words(["mmxxmxx"]))
        with pytest.raises(EliminationBoundError):
            eliminate(system, deadline_seconds=0.0)

    def test_deadline_inside_a_resultant(self):
        # one pseudo-division step of this system multiplies thousands of terms
        # by hundreds, so a deadline checked only between unknowns or between
        # steps runs seconds late
        system = enumeration_system(parse_polish("mmxmmmmxxxxxx", BIN), marked=False)
        start = time.monotonic()
        with pytest.raises(EliminationBoundError, match="deadline"):
            eliminate(system, max_unknowns=40, deadline_seconds=1)
        assert time.monotonic() - start < 3

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            eliminate(catalan_system(), elimination_order=[1])

    def test_bivariate_system_rejected(self):
        system = enumeration_system(parse_polish("mxx", BIN))
        with pytest.raises(EliminationError):
            eliminate(system)


class TestDivides:
    def test_witness_pair(self):
        assert poly_divides(WITNESS_QUINTIC, WITNESS_QUARTIC)
        assert not poly_divides(WITNESS_QUARTIC, WITNESS_QUINTIC)

    def test_known_negative(self):
        assert not poly_divides(CATALAN_POLY, GEOMETRIC_POLY)

    def test_self_division(self):
        assert poly_divides(CATALAN_POLY, CATALAN_POLY)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divides(CATALAN_POLY, BivarPoly.from_dict({}))

    def test_zero_dividend(self):
        assert poly_divides(BivarPoly.from_dict({}), CATALAN_POLY)

    def test_product_is_divisible(self):
        rng = random.Random(7)
        for _ in range(10):
            r = BivarPoly.from_dict({
                (rng.randrange(3), rng.randrange(4)): rng.randrange(-5, 6) or 1
                for _ in range(4)
            })
            if r.is_zero():
                continue
            assert poly_divides(CATALAN_POLY * r, CATALAN_POLY)

    def test_divisibility_transfers_annihilation(self):
        system = catalan_system()
        _, target = solve_truncated(system, 60)
        rng = random.Random(3)
        for _ in range(5):
            r = BivarPoly.from_dict({
                (rng.randrange(3), rng.randrange(4)): rng.randrange(-4, 5) or 2
                for _ in range(3)
            })
            if r.is_zero():
                continue
            prod = CATALAN_POLY * r
            assert poly_divides(prod, CATALAN_POLY)
            assert annihilates(prod, target, 60)


class TestContent:
    # 3 - 3x + 3x^2 times the Catalan polynomial x - G + x G^2; the negative
    # coefficient needs a balanced digit
    POLY = CATALAN_POLY * BivarPoly.from_dict({(0, 0): 3, (0, 1): -3, (0, 2): 3})
    CONTENT = {(0,): 3, (1,): -3, (2,): 3}

    def test_evaluation_needs_no_remainder_sequence(self, monkeypatch):
        def unused(p, q):
            raise AssertionError("the remainder sequence ran")

        monkeypatch.setattr(elim, "univariate_gcd", unused)
        assert self.POLY.content_and_primitive() == (self.CONTENT, CATALAN_POLY)

    def test_rejected_candidates_fall_back(self, monkeypatch):
        tried = []

        def wrong_digits(n, bits):
            tried.append(bits)
            return {1: 1, 0: 7}  # x + 7 divides none of the G-coefficients

        monkeypatch.setattr(elim, "balanced_digits", wrong_digits)
        assert self.POLY.content_and_primitive() == (self.CONTENT, CATALAN_POLY)
        assert len(tried) == 3 and tried == sorted(set(tried))


class TestAnnihilates:
    def test_catalan_negative_case(self):
        system = geometric_system()
        _, geometric = solve_truncated(system, 40)
        assert not annihilates(CATALAN_POLY, geometric, 40)
        assert annihilates(GEOMETRIC_POLY, geometric, 40)

    def test_mismatch_at_low_order(self):
        _, catalan_series = solve_truncated(catalan_system(), 10)
        assert not annihilates(GEOMETRIC_POLY, catalan_series, 10)

    def test_order_beyond_series_rejected(self):
        _, s = solve_truncated(catalan_system(), 10)
        with pytest.raises(ValueError):
            annihilates(CATALAN_POLY, s, 11)


class TestWitnessFixtures:
    def test_transcription_checksums(self):
        quintic = hashlib.sha256(WITNESS_QUINTIC.canonical_text().encode()).hexdigest()
        quartic = hashlib.sha256(WITNESS_QUARTIC.canonical_text().encode()).hexdigest()
        assert quintic == "895ab933e75c965f29d2bcf61ba46a60b19922fc43cb4c3bcacf5d5a60cbd8e6"
        assert quartic == "71f3109dd52449a001a3c32c09c568681f6b99b7f0488d42d7f02a65a82daa3f"

    def test_degrees(self):
        assert WITNESS_QUINTIC.g_degree == 5
        assert WITNESS_QUARTIC.g_degree == 4

    def test_both_annihilate_the_collapse_series(self):
        series = av_series(parse_polish(COLLAPSE_MEMBER, BIN), 100)
        assert annihilates(WITNESS_QUARTIC, series, 100)
        assert annihilates(WITNESS_QUINTIC, series, 100)

    def test_certificate(self):
        assert collapse_certificate(100)


# -- property tests against sympy, which shares no code with elim --------------

def mpolys(nvars: int):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                           st.integers(-5, 5).filter(bool), min_size=1, max_size=5)


def linear_in(var: int, lead: dict, tail: dict) -> dict:
    """lead*v + tail over (x, y, z), v the variable var: degree exactly 1 in v
    when lead and tail are polynomials in the other two variables."""
    def lift(p, e):
        return {k[:var] + (e,) + k[var:]: c for k, c in p.items()}
    return {**lift(tail, 0), **lift(lead, 1)}


def leads():
    return st.sampled_from([{(0, 0): 1}, {(0, 0): -1}]) | mpolys(2)


def tails():
    return mpolys(2).map(lambda p: dict([next(iter(p.items()))])) | mpolys(2)


def linear_examples(test):
    """Explicit linear operands: unit and non-unit lead, one-term and
    many-term tail, as the first and as the second argument."""
    other = {(3, 1, 0): 2, (1, 0, 2): -1, (0, 2, 1): 3, (2, 0, 0): -4}
    for side in ("p", "q"):
        for lead in ({(0, 0): 1}, {(0, 0): -1}, {(1, 0): 2, (0, 2): -1}):
            for tail in ({(2, 1): -3}, {(1, 0): 1, (0, 2): -2, (1, 1): 4}):
                test = example(p=other, q=other, var=0, linear=side, lead=lead, tail=tail)(test)
    return test


def bivars():
    return mpolys(2).map(BivarPoly.from_dict)


def x_factors():
    # a polynomial in x alone, lifted to (G, x): a content for a bivariate product
    return mpolys(1).map(lambda p: BivarPoly.from_dict({(0, xd): c for (xd,), c in p.items()}))


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, p: dict, gens):
    return sp.Poly.from_dict(p, *gens).as_expr()


def from_sympy(sp, expr, gens) -> dict:
    return {e: int(c) for e, c in sp.Poly(expr, *gens).as_dict().items()}


class TestAgainstSympy:
    @settings(max_examples=80, deadline=None)
    @given(mpolys(3), mpolys(3), st.integers(0, 2), st.sampled_from([None, "p", "q"]),
           leads(), tails())
    @linear_examples
    def test_resultant(self, sp, p, q, var, linear, lead, tail):
        # linear names the operand replaced by lead*v + tail, of degree 1 in v
        if linear == "p":
            p = linear_in(var, lead, tail)
        elif linear == "q":
            q = linear_in(var, lead, tail)
        packed = PackedRing(3)
        p_key, q_key = packed.pack(p), packed.pack(q)
        assume(max(packed.degree(p_key, var), packed.degree(q_key, var)) >= 1)
        # the determinant of the Sylvester matrix, which defines the resultant;
        # sympy.resultant itself returns res(q, p) when p has the lower degree
        from sympy.polys.subresultants_qq_zz import sylvester

        gens = sp.symbols("x y z")
        # a fraction-free determinant over Z[the other two variables]: the same
        # value as Matrix.det(), which spends seconds on cancellation per example
        ring = sp.ZZ[[g for i, g in enumerate(gens) if i != var]]
        matrix = sylvester(to_sympy(sp, p, gens), to_sympy(sp, q, gens), gens[var])
        want = ring.to_sympy(matrix.to_DM(ring).det())
        got = packed.unpack(packed.resultant(p_key, q_key, var))
        assert got == from_sympy(sp, sp.expand(want), gens)

    @settings(max_examples=50, deadline=None)
    @given(mpolys(3), st.integers(0, 2), leads(), tails())
    def test_linear_prem(self, sp, p, var, lead, tail):
        q = linear_in(var, lead, tail)
        gens = sp.symbols("x y z")
        want = sp.prem(to_sympy(sp, p, gens), to_sympy(sp, q, gens), gens[var])
        ring = PackedRing(3)
        got = ring.unpack(ring.prem(ring.pack(p), ring.pack(q), var))
        assert got == from_sympy(sp, sp.expand(want), gens)

    @settings(max_examples=50, deadline=None)
    @given(bivars(), x_factors())
    @example(a=CATALAN_POLY, c=BivarPoly.from_dict({(0, 0): 1}))  # content 1
    @example(a=CATALAN_POLY, c=BivarPoly.from_dict({(0, 4): 1}))  # a monomial x^k
    @example(a=BivarPoly.from_dict({(0, 0): 2, (1, 1): 1, (2, 0): 1}),
             c=BivarPoly.from_dict({(0, 0): 2, (0, 1): -3, (0, 3): 1}))  # three terms
    @example(a=BivarPoly.from_dict({(0, 0): -6, (0, 1): -6, (1, 1): -3, (1, 2): -3}),
             c=BivarPoly.from_dict({(0, 0): 1, (0, 2): -4}))  # negative leading coefficient
    @example(a=BivarPoly.from_dict({(1, 0): 1}),
             c=BivarPoly.from_dict({(0, 0): -3, (0, 1): 1}))  # at xi = 4, x - 3 would read as 1
    def test_content_and_primitive(self, sp, a, c):
        poly = a * c
        G, x = gens = sp.symbols("G x")
        want_content, want_prim = sp.Poly(to_sympy(sp, poly.as_dict(), gens), G,
                                          domain=sp.ZZ[x]).primitive()
        if sp.Poly(want_content, x).LC() < 0:
            want_content, want_prim = -want_content, -want_prim
        content, prim = poly.content_and_primitive()
        assert content == from_sympy(sp, want_content, (x,))
        assert prim.as_dict() == from_sympy(sp, want_prim.as_expr(), gens)

    @settings(max_examples=50, deadline=None)
    @given(bivars(), bivars(), x_factors())
    def test_divides(self, sp, a, b, c):
        b = b * c
        gens = sp.symbols("G x")

        def divides_over_q(p, q):
            _, rem = sp.div(sp.Poly.from_dict(p.as_dict(), *gens, domain=sp.QQ),
                            sp.Poly.from_dict(q.as_dict(), *gens, domain=sp.QQ))
            return rem.is_zero

        assert poly_divides(a * b, b) and divides_over_q(a * b, b)
        assert poly_divides(a, b) == divides_over_q(a, b)
        assert poly_divides(b, a) == divides_over_q(b, a)
