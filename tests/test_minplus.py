import math
import random
from fractions import Fraction

import pytest

from redcalc.minplus import (
    UNBOUNDED,
    Affine,
    ConcaveCurve,
    RateLatency,
    TokenBucket,
    add,
    convolve,
    curve_leq,
    deconvolve_delay,
    h_dev,
    is_unbounded,
    lower_pseudo_inverse,
    parse_rational,
    rational_str,
    v_dev,
)
from redcalc.topology import parse_curve
from oracles import (
    convolution_value,
    curve_value,
    rate_latency_delay,
    sum_by_segment_products,
)


def tb(r, b):
    return TokenBucket(r, b)


def curve(*pairs):
    return ConcaveCurve([tb(r, b) for r, b in pairs])


TOY_PEF_OUT = curve((2, 4), (1, 8))  # min of two token buckets


def random_fraction(rng, lo=0, hi=9, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_curve(rng, max_segments=4, min_rate=0):
    n = rng.randint(1, max_segments)
    segs = []
    for _ in range(n):
        segs.append(tb(random_fraction(rng, lo=min_rate), random_fraction(rng)))
    return ConcaveCurve(segs)


class TestCurveModel:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConcaveCurve([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tb(-1, 0)
        with pytest.raises(ValueError):
            tb(1, -2)
        with pytest.raises(ValueError):
            RateLatency(0, 0)

    def test_value_at_zero_is_zero(self):
        assert TOY_PEF_OUT.eval(0) == 0
        assert TOY_PEF_OUT.eval(Fraction(0)) == 0

    def test_eval_is_min_over_segments(self):
        assert TOY_PEF_OUT.eval(4) == 12  # both segments meet at t=4
        assert TOY_PEF_OUT.eval(1) == 6
        assert TOY_PEF_OUT.eval(10) == 18

    def test_dominated_segment_removed(self):
        assert curve((1, 1), (2, 5)) == curve((1, 1))

    def test_tangent_segment_removed(self):
        # 2t+2 touches min(t+4, 3t) only at t=2, never strictly below
        assert curve((1, 4), (3, 0), (2, 2)) == curve((1, 4), (3, 0))

    def test_equal_rate_keeps_lower_burst(self):
        assert curve((1, 3), (1, 7)) == curve((1, 3))

    def test_normalization_idempotent_randomized(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            c = random_curve(rng)
            again = ConcaveCurve(list(c.segments))
            assert again.segments == c.segments

    def test_normalized_forms_give_equality(self):
        a = curve((2, 4), (1, 8), (3, 9))  # (3,9) dominated by (2,4)? no: by (1,8)? no
        b = curve((1, 8), (2, 4))
        # (3,9) never below min(2t+4, t+8): at small t 2t+4 wins
        assert a == b

    def test_json_round_trip(self):
        c = curve((Fraction(3, 2), Fraction(1, 3)), (1, 8))
        assert parse_curve(c.to_json(), "curve") == c

    def test_json_accepts_pq_and_decimal_strings(self):
        c = parse_curve(
            {"segments": [{"rate": "3/2", "burst": "0.25"}]}, "curve"
        )
        assert c.segments[0].rate == Fraction(3, 2)
        assert c.segments[0].burst == Fraction(1, 4)

    def test_parse_rational(self):
        for value, expected in [
            ("7/2", Fraction(7, 2)),
            ("1.5", Fraction(3, 2)),
            (4, Fraction(4)),
            (1.5, Fraction(3, 2)),
        ]:
            got = parse_rational(value)
            assert type(got) is Fraction and got == expected
        x = Fraction(3, 7)
        assert parse_rational(x) is x
        assert rational_str(Fraction(7, 2)) == "7/2"
        assert rational_str(UNBOUNDED) == "unbounded"

    @pytest.mark.parametrize(
        "value, error",
        [
            (True, TypeError),
            (float("nan"), ValueError),
            (float("inf"), ValueError),
            ("1/0", ValueError),
            ([1], TypeError),
        ],
    )
    def test_parse_rational_rejects(self, value, error):
        with pytest.raises(error):
            parse_rational(value)

    def test_is_unbounded(self):
        other_inf = float("inf")
        assert other_inf is not UNBOUNDED
        assert is_unbounded(math.inf)
        assert is_unbounded(other_inf)
        assert not is_unbounded(Fraction(10**30))
        assert not is_unbounded(10**400)
        assert not is_unbounded(0)


class TestAlgebraExamples:
    def test_add_with_token_bucket(self):
        s = add(TOY_PEF_OUT, curve((1, 1)))
        assert s.eval(4) == 17

    def test_add_two_buckets_sums_rate_and_burst(self):
        assert add(curve((1, 2)), curve((1, 2))) == curve((2, 4))

    def test_convolve_is_min(self):
        assert convolve(curve((1, 1)), curve((2, 5))) == curve((1, 1))
        assert convolve(curve((2, 4)), curve((1, 8))) == TOY_PEF_OUT

    def test_deconvolve_delay(self):
        assert deconvolve_delay(TOY_PEF_OUT, 2) == curve((2, 8), (1, 10))

    def test_deconvolve_rejects_negative(self):
        with pytest.raises(ValueError):
            deconvolve_delay(TOY_PEF_OUT, -1)

    def test_lower_pseudo_inverse(self):
        assert lower_pseudo_inverse(TOY_PEF_OUT, 12) == 4
        assert lower_pseudo_inverse(TOY_PEF_OUT, 0) == 0
        assert lower_pseudo_inverse(curve((1, 1)), 2) == 1

    def test_lower_pseudo_inverse_capped_curve(self):
        flat = curve((0, 5))
        assert lower_pseudo_inverse(flat, 5) == 0
        assert is_unbounded(lower_pseudo_inverse(flat, 6))

    def test_h_dev_rate_latency(self):
        assert h_dev(TOY_PEF_OUT, RateLatency(4, 1)) == 2

    def test_h_dev_against_shaping_curve(self):
        assert h_dev(curve((1, 8)), curve((1, 1))) == 7
        assert h_dev(curve((1, 1)), curve((1, 1))) == 0

    def test_h_dev_overload_is_unbounded(self):
        assert is_unbounded(h_dev(curve((2, 1)), RateLatency(1, 0)))
        assert is_unbounded(h_dev(curve((2, 1)), curve((1, 5))))

    def test_h_dev_equal_rates_is_bounded(self):
        assert h_dev(curve((1, 9)), RateLatency(1, 0)) == 9

    def test_v_dev(self):
        assert v_dev(curve((1, 8)), RateLatency(1, 0)) == 8
        assert v_dev(curve((2, 4)), RateLatency(2, 1)) == 6

    def test_v_dev_overload(self):
        assert is_unbounded(v_dev(curve((3, 0)), RateLatency(2, 0)))

    def test_curve_leq(self):
        assert curve_leq(curve((1, 1)), curve((2, 5)))
        assert not curve_leq(curve((2, 5)), curve((1, 1)))
        assert curve_leq(TOY_PEF_OUT, curve((2, 4)))


class TestAlgebraProperties:
    def test_convolution_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(400):
            a = random_curve(rng)
            b = random_curve(rng)
            c = convolve(a, b)
            t = random_fraction(rng, lo=0, hi=12)
            assert curve_value(c, t) == convolution_value(a, b, t)

    def test_convolution_is_pointwise_min(self):
        rng = random.Random(42)
        for _ in range(400):
            a = random_curve(rng)
            b = random_curve(rng)
            c = convolve(a, b)
            t = random_fraction(rng, lo=1, hi=12)
            assert c.envelope(t) == min(a.envelope(t), b.envelope(t))

    def test_deconvolution_shifts_window(self):
        rng = random.Random(43)
        for _ in range(400):
            a = random_curve(rng)
            j = random_fraction(rng, lo=0, hi=6)
            d = deconvolve_delay(a, j)
            t = random_fraction(rng, lo=0, hi=12)
            assert d.envelope(t) == a.envelope(t + j)

    def test_add_commutative_associative(self):
        rng = random.Random(44)
        for _ in range(200):
            a, b, c = (random_curve(rng) for _ in range(3))
            assert add(a, b) == add(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_add_matches_segment_product_oracle(self):
        rng = random.Random(47)
        for _ in range(300):
            a, b, c = (random_curve(rng) for _ in range(3))
            got = add(a, b, c)
            assert got.segments == sum_by_segment_products(a, b, c).segments
            assert got.segments == add(add(a, b), c).segments
            for s in got.segments:
                assert type(s.rate) is Fraction and type(s.burst) is Fraction

    def test_add_is_independent_of_operand_order(self):
        rng = random.Random(48)
        for _ in range(100):
            curves = [random_curve(rng) for _ in range(rng.randint(2, 5))]
            shuffled = curves[:]
            rng.shuffle(shuffled)
            assert add(*curves) == add(*shuffled) == sum_by_segment_products(*curves)

    def test_add_evaluates_pointwise(self):
        rng = random.Random(45)
        for _ in range(300):
            a = random_curve(rng)
            b = random_curve(rng)
            t = random_fraction(rng, lo=0, hi=12)
            assert add(a, b).eval(t) == a.eval(t) + b.eval(t)

    def test_pseudo_inverse_galois_connection(self):
        # f_inv(y) <= t  iff  y <= f(t), for t > 0
        rng = random.Random(46)
        for _ in range(500):
            a = random_curve(rng)
            y = random_fraction(rng, lo=0, hi=14)
            t = random_fraction(rng, lo=0, hi=14) + Fraction(1, 8)
            inv = lower_pseudo_inverse(a, y)
            lhs = (not is_unbounded(inv)) and inv <= t
            rhs = y <= a.eval(t)
            assert lhs == rhs

    def test_h_dev_matches_scan_oracle(self):
        rng = random.Random(47)
        for _ in range(250):
            a = random_curve(rng)
            rate = random_fraction(rng, lo=1, hi=9)
            lat = random_fraction(rng, lo=0, hi=3)
            if a.min_rate > rate:
                assert is_unbounded(h_dev(a, RateLatency(rate, lat)))
                continue
            grid = [Fraction(k, 2) for k in range(0, 41)]
            assert h_dev(a, RateLatency(rate, lat)) == rate_latency_delay(
                a, rate, lat, grid
            )

    def test_deviations_monotone_in_arrival(self):
        rng = random.Random(48)
        for _ in range(200):
            a = random_curve(rng)
            bigger = deconvolve_delay(a, random_fraction(rng, lo=0, hi=4))
            beta = RateLatency(a.min_rate + 1, random_fraction(rng, lo=0, hi=2))
            assert h_dev(a, beta) <= h_dev(bigger, beta)
            assert v_dev(a, beta) <= v_dev(bigger, beta)


class TestAffine:
    """An affine form carries a value and the coefficients of some unknowns
    through the curve operations; each result is the affine piece of the
    operation at the current value."""

    def test_arithmetic_keeps_the_value_and_the_coefficients(self):
        x = Affine(Fraction(2), {0: 1})
        y = Affine(Fraction(3), {1: Fraction(1, 2)})
        z = 1 + x * 3 - y / 2 + Fraction(1, 4)
        assert z.value == 1 + 6 - Fraction(3, 2) + Fraction(1, 4)
        assert z.coeffs == {0: 3, 1: Fraction(-1, 4)}
        assert (2 - x).value == 0 and (2 - x).coeffs == {0: -1}
        with pytest.raises(TypeError):
            x * y

    def test_comparisons_look_at_the_value(self):
        x = Affine(Fraction(2), {0: 1})
        assert x == 2 and x == Affine(Fraction(2), {1: 5}) and x != Affine(Fraction(3), {0: 1})
        assert x < 3 and 1 < x and Fraction(5, 2) > x >= 2
        assert max(Fraction(0), x) is x and min(x, Fraction(5)) is x
        assert parse_rational(x) is x

    def test_curve_operations_give_their_affine_piece(self):
        # bursts and a jitter that move with one unknown t; the form of the
        # delay at t = 0, moved by a small step, is the delay computed at
        # that step (random large denominators keep breakpoints apart)
        rng = random.Random(11)
        step = Fraction(1, 10**9)

        def rational():
            return Fraction(rng.randint(1, 10**6), 999983)

        for _ in range(100):
            segments = [[(rational(), rational(), rng.choice([0, 1, rational()]))
                         for _ in range(rng.randint(1, 3))] for _ in range(2)]
            jitter = rational()
            total = sum(max(r for r, _, _ in segs) for segs in segments)
            service = RateLatency(total + 1, rational())

            def delay(t):
                a, b = (ConcaveCurve([(r, x + k * t) for r, x, k in segs]) for segs in segments)
                spread = deconvolve_delay(a, jitter + t)
                return h_dev(add(spread, convolve(b, spread)), service)

            form = delay(Affine(Fraction(0), {0: Fraction(1)}))
            value, slope = (form.value, form.coeffs.get(0, 0)) if isinstance(form, Affine) else (form, 0)
            assert value == delay(Fraction(0))
            assert delay(step) == value + slope * step


class TestUncheckedKernels:
    """`add`, `convolve` and `deconvolve_delay` build their token buckets
    without the sign checks, `add` and `deconvolve_delay` sum on an integer
    grid, and `add` and a one-segment `deconvolve_delay` skip the
    normalization: each result must be the checked, normalized curve of its
    own segments, and equal to the curve of Fraction sums."""

    @staticmethod
    def _fraction(rng):
        return Fraction(rng.randint(0, 30), rng.choice([1, 2, 3, 5, 7, 12, 35, 1001]))

    def _curve(self, rng):
        return ConcaveCurve(
            [tb(self._fraction(rng), self._fraction(rng)) for _ in range(rng.randint(1, 5))]
        )

    @staticmethod
    def _canonical(c):
        checked = ConcaveCurve([(s.rate, s.burst) for s in c.segments])
        assert c.segments == checked.segments
        assert all(type(s) is TokenBucket for s in c.segments)
        assert all(type(s.rate) is Fraction and type(s.burst) is Fraction for s in c.segments)
        assert all(s.rate >= 0 and s.burst >= 0 for s in c.segments)

    def test_results_are_checked_canonical_curves(self):
        rng = random.Random(0x5EED)
        one_segment = 0
        for _ in range(300):
            curves = [self._curve(rng) for _ in range(rng.randint(2, 5))]
            a = curves[0]
            jitter = Fraction(0) if rng.random() < 0.1 else self._fraction(rng)
            total = add(*curves)
            self._canonical(total)
            if len(curves) <= 3:
                assert total == sum_by_segment_products(*curves)
            self._canonical(convolve(a, curves[1]))
            spread = deconvolve_delay(a, jitter)
            self._canonical(spread)
            assert spread == ConcaveCurve([(s.rate, s.burst + s.rate * jitter) for s in a.segments])
            one_segment += len(a.segments) == 1
        assert one_segment >= 30

    def test_deconvolve_rejects_a_negative_jitter(self):
        a = curve((2, 3), (1, 5))
        for jitter in (-1, Fraction(-1, 7), "-1/3", Affine(Fraction(-1, 2), {0: Fraction(1)})):
            with pytest.raises(ValueError, match="jitter must be >= 0"):
                deconvolve_delay(a, jitter)

    def test_deconvolve_by_zero_returns_its_input(self):
        for a in (curve((2, 3), (1, 5)), curve((1, 2))):
            for jitter in (0, Fraction(0), "0", Affine(Fraction(0), {0: Fraction(1)})):
                assert deconvolve_delay(a, jitter) is a

    def test_affine_burst_or_jitter_spreads_as_a_form(self):
        x = Affine(Fraction(1, 3), {0: Fraction(1)})
        a = ConcaveCurve._canonical((TokenBucket(Fraction(3, 2), 0)._replace(burst=x),))
        (s,) = deconvolve_delay(a, Fraction(2, 5)).segments
        assert type(s.burst) is Affine and s.burst.value == Fraction(14, 15)
        assert s.burst.coeffs == {0: 1}
        (s,) = deconvolve_delay(curve((Fraction(3, 2), Fraction(1, 3))), x).segments
        assert type(s.burst) is Affine and s.burst.value == Fraction(5, 6)
        assert s.burst.coeffs == {0: Fraction(3, 2)}

    def test_affine_bursts_sum_term_by_term(self):
        # the solve's curves have Affine bursts: add sums them as forms
        x = Affine(Fraction(1, 3), {0: Fraction(1)})
        y = Affine(Fraction(1, 2), {1: Fraction(2)})
        a = ConcaveCurve._canonical((TokenBucket(1, 0)._replace(burst=x),))
        b = ConcaveCurve._canonical((TokenBucket(2, 0)._replace(burst=y),))
        (total,) = add(a, b, curve((Fraction(1, 7), 1))).segments
        assert total.rate == Fraction(22, 7)
        assert type(total.burst) is Affine
        assert total.burst.value == Fraction(11, 6)
        assert total.burst.coeffs == {0: 1, 1: 2}
