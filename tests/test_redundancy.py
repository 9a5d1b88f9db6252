import random
from fractions import Fraction

import pytest

from redcalc.minplus import (
    UNBOUNDED,
    ConcaveCurve,
    curve_leq,
    deconvolve_delay,
    is_unbounded,
)
from redcalc.redundancy import (
    lossy_jitter_output_curve,
    pef_output_curve,
    pef_output_curve_parallel,
    pef_rto_bound,
    rbo_from_rto,
)
from redcalc.topology import DelayInterval


def curve(*pairs):
    return ConcaveCurve(list(pairs))


TOY_REF = curve((1, 1))
TOY_SECTION = DelayInterval(0, 7)
TOY_PEF_IN = curve((2, 4))
TOY_PEF_OUT = curve((2, 4), (1, 8))


class TestOutputCurves:
    def test_jitter_shift(self):
        assert lossy_jitter_output_curve(curve((2, 3)), DelayInterval(1, 4)) == curve(
            (2, 9)
        )

    def test_jitter_shift_zero_width(self):
        c = curve((2, 3), (1, 5))
        assert lossy_jitter_output_curve(c, DelayInterval(4, 4)) == c

    def test_pef_output_toy(self):
        got = pef_output_curve(TOY_PEF_IN, [(TOY_REF, TOY_SECTION)])
        assert got == TOY_PEF_OUT

    def test_pef_output_two_ancestors(self):
        got = pef_output_curve(
            TOY_PEF_IN,
            [(TOY_REF, TOY_SECTION), (curve((1, 2)), DelayInterval(1, 3))],
        )
        # gamma(1,2) spread by 2 already dominates both other terms
        assert got == curve((1, 4))

    def test_pef_output_no_ancestors_is_input(self):
        assert pef_output_curve(TOY_PEF_IN, []) == TOY_PEF_IN

    def test_pef_output_never_above_input(self):
        rng = random.Random(7)
        for _ in range(150):
            alpha_in = curve(
                (Fraction(rng.randint(1, 6)), Fraction(rng.randint(0, 9)))
            )
            ancestors = []
            for _k in range(rng.randint(1, 3)):
                lo = Fraction(rng.randint(0, 4))
                hi = lo + Fraction(rng.randint(0, 6))
                ancestors.append(
                    (
                        curve((Fraction(rng.randint(1, 6)), Fraction(rng.randint(0, 9)))),
                        DelayInterval(lo, hi),
                    )
                )
            out = pef_output_curve(alpha_in, ancestors)
            assert curve_leq(out, alpha_in)
            for ref, bounds in ancestors:
                assert curve_leq(out, deconvolve_delay(ref, bounds.width))

    def test_parallel_identical_branches_toy(self):
        got = pef_output_curve_parallel(
            TOY_REF, [DelayInterval(0, 1), DelayInterval(6, 7)]
        )
        assert got == TOY_PEF_OUT

    def test_parallel_three_branches(self):
        got = pef_output_curve_parallel(
            curve((1, 2)),
            [DelayInterval(0, 2), DelayInterval(1, 3), DelayInterval(5, 6)],
        )
        assert got == curve((3, 11), (1, 8))

    def test_parallel_single_branch_degenerates_to_jitter(self):
        bounds = DelayInterval(2, 5)
        assert pef_output_curve_parallel(TOY_REF, [bounds]) == lossy_jitter_output_curve(
            TOY_REF, bounds
        )

    def test_parallel_matches_general_form_on_identical_branches(self):
        rng = random.Random(8)
        for _ in range(100):
            alpha = curve((Fraction(rng.randint(1, 5)), Fraction(rng.randint(0, 7))))
            branches = []
            for _k in range(rng.randint(1, 3)):
                lo = Fraction(rng.randint(0, 5))
                branches.append(DelayInterval(lo, lo + Fraction(rng.randint(0, 5))))
            total = None
            for b in branches:
                shifted = deconvolve_delay(alpha, b.width)
                total = shifted if total is None else ConcaveCurve(
                    [
                        (sa.rate + sb.rate, sa.burst + sb.burst)
                        for sa in total.segments
                        for sb in shifted.segments
                    ]
                )
            spread = DelayInterval(
                min(b.lo for b in branches), max(b.hi for b in branches)
            )
            via_ancestor = pef_output_curve(total, [(alpha, spread)])
            assert pef_output_curve_parallel(alpha, branches) == via_ancestor


class TestReorderingBounds:
    def test_toy_rto(self):
        assert pef_rto_bound(TOY_REF, TOY_SECTION, 1) == 6

    def test_fractional_rto(self):
        assert pef_rto_bound(curve((2, 1)), DelayInterval(1, 5), 1) == Fraction(7, 2)

    def test_rto_clamped_at_zero(self):
        assert pef_rto_bound(TOY_REF, DelayInterval(3, 3), 1) == 0

    def test_rto_with_profile_that_never_fits_two_units(self):
        flat = curve((0, 1))  # at most one unit of size 1 ever
        assert pef_rto_bound(flat, TOY_SECTION, 1) == 0

    def test_rto_monotone_in_jitter(self):
        rng = random.Random(9)
        for _ in range(100):
            ref = curve((Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))))
            lo = Fraction(rng.randint(0, 3))
            w1 = Fraction(rng.randint(0, 8))
            w2 = w1 + Fraction(rng.randint(0, 4))
            lmin = Fraction(rng.randint(1, 2))
            assert pef_rto_bound(ref, DelayInterval(lo, lo + w1), lmin) <= pef_rto_bound(
                ref, DelayInterval(lo, lo + w2), lmin
            )

    def test_toy_rbo(self):
        assert rbo_from_rto(TOY_PEF_OUT, 6) == 14

    def test_rbo_examples(self):
        assert rbo_from_rto(curve((1, 3)), 2) == 5
        assert rbo_from_rto(curve((1, 3)), 0) == 0

    def test_rbo_unbounded_rto(self):
        assert is_unbounded(rbo_from_rto(curve((1, 3)), float("inf")))
        assert rbo_from_rto(curve((0, 3)), float("inf")) == 3


class TestResequencerCurve:
    # a re-sequencer's output is the reference curve spread by the section
    # widened by its own wait: [0, 0] lossless, [0, timeout] lossy, and
    # unbounded for lossy traffic without a timeout
    def test_lossless(self):
        section = TOY_SECTION.plus(DelayInterval(0, 0))
        assert lossy_jitter_output_curve(TOY_REF, section) == curve((1, 8))

    def test_lossy_adds_timeout(self):
        section = TOY_SECTION.plus(DelayInterval(0, 6))
        assert lossy_jitter_output_curve(TOY_REF, section) == curve((1, 14))

    def test_lossy_requires_timeout(self):
        section = TOY_SECTION.plus(DelayInterval(0, UNBOUNDED))
        with pytest.raises(ValueError):
            lossy_jitter_output_curve(TOY_REF, section)
