import random
from fractions import Fraction

import pytest

from redcalc.minplus import UNBOUNDED, ConcaveCurve, is_unbounded
from redcalc.regulators import (
    IR_AFTER_PEF_NO_POF,
    UNPROVEN_CONFIGURATION,
    RegulatorVerdict,
    ir_after_pef_verdict,
    ir_q_min,
    pfr_after_pef_bounds,
    pfr_after_pef_rto,
    preof_for_free_bounds,
)
from redcalc.topology import DelayInterval


def curve(*pairs):
    return ConcaveCurve(list(pairs))


TOY_SIGMA = curve((1, 1))
TOY_SECTION = DelayInterval(0, 7)
TOY_BRANCHES = [DelayInterval(0, 1), DelayInterval(6, 7)]


class TestPerFlowRegulator:
    def test_toy_bounds(self):
        assert pfr_after_pef_bounds(TOY_SIGMA, TOY_SECTION) == DelayInterval(0, 14)

    def test_example_bounds(self):
        assert pfr_after_pef_bounds(curve((2, 3)), DelayInterval(1, 5)) == DelayInterval(
            1, 9
        )

    def test_zero_jitter_is_transparent(self):
        assert pfr_after_pef_bounds(TOY_SIGMA, DelayInterval(3, 3)) == DelayInterval(
            3, 3
        )

    def test_concave_sigma_fallback_matches_token_bucket(self):
        # a two-segment sigma whose binding segment behaves like the bucket
        sigma = curve((1, 1), (5, 30))
        got = pfr_after_pef_bounds(sigma, TOY_SECTION)
        assert got.lo == 0
        assert got.hi >= 14  # never better than the pure token-bucket case

    def test_token_bucket_pays_the_section_jitter(self):
        # oracle: behind a section of delay [d, D] a token-bucket regulator
        # adds at most the jitter D - d, so the through-delay is [d, 2D - d]
        rng = random.Random(0x7B)
        for _ in range(2000):
            sigma = curve((Fraction(rng.randint(1, 40), rng.randint(1, 8)),
                           Fraction(rng.randint(0, 40), rng.randint(1, 8))))
            d = Fraction(rng.randint(0, 30), rng.randint(1, 6))
            big_d = d + Fraction(rng.randint(0, 30), rng.randint(1, 6))
            got = pfr_after_pef_bounds(sigma, DelayInterval(d, big_d))
            assert got == DelayInterval(d, 2 * big_d - d), (sigma, d, big_d)

    def test_rto_is_pef_offset_plus_jitter(self):
        assert pfr_after_pef_rto(6, TOY_SECTION) == 13
        assert pfr_after_pef_rto(Fraction(7, 2), DelayInterval(1, 5)) == Fraction(15, 2)


class TestInterleavedThreshold:
    def test_toy_threshold(self):
        assert ir_q_min(1, 1, *TOY_BRANCHES) == 13

    def test_example_threshold(self):
        assert ir_q_min(2, 4, DelayInterval(0, 1), DelayInterval(2, 9)) == 4

    def test_branch_order_does_not_matter(self):
        assert ir_q_min(1, 1, TOY_BRANCHES[1], TOY_BRANCHES[0]) == 13

    def test_overlapping_branches_floor(self):
        # branches overlap: the gap term vanishes, threshold is 3
        assert ir_q_min(1, 1, DelayInterval(0, 5), DelayInterval(2, 9)) == 3

    def test_invalid_shaping(self):
        with pytest.raises(ValueError):
            ir_q_min(0, 1, *TOY_BRANCHES)


class TestInterleavedVerdict:
    def test_enough_flows_proven_unstable(self):
        shaping = {f"f{i}": TOY_SIGMA for i in range(13)}
        lmin = {f: 1 for f in shaping}
        verdict = ir_after_pef_verdict(shaping, TOY_BRANCHES, lmin)
        assert not verdict.bounded
        assert verdict.reason == IR_AFTER_PEF_NO_POF
        assert verdict.q_min == 13
        assert verdict.proven

    def test_below_threshold_conservative(self):
        shaping = {f"f{i}": TOY_SIGMA for i in range(3)}
        lmin = {f: 1 for f in shaping}
        verdict = ir_after_pef_verdict(shaping, TOY_BRANCHES, lmin)
        assert not verdict.bounded
        assert verdict.q_min == 13
        assert not verdict.proven

    def test_heterogeneous_shaping_unproven(self):
        shaping = {"a": TOY_SIGMA, "b": curve((2, 2))}
        verdict = ir_after_pef_verdict(shaping, TOY_BRANCHES, {"a": 1, "b": 1})
        assert not verdict.bounded
        assert verdict.reason == UNPROVEN_CONFIGURATION
        assert not verdict.proven

    def test_equal_constant_branches_conservative(self):
        shaping = {f"f{i}": TOY_SIGMA for i in range(20)}
        lmin = {f: 1 for f in shaping}
        branches = [DelayInterval(2, 2), DelayInterval(2, 2)]
        verdict = ir_after_pef_verdict(shaping, branches, lmin)
        assert not verdict.bounded
        assert verdict.reason == UNPROVEN_CONFIGURATION

    def test_burst_below_packet_size_conservative(self):
        sigma = curve((1, Fraction(1, 2)))
        shaping = {f"f{i}": sigma for i in range(25)}
        lmin = {f: 1 for f in shaping}
        verdict = ir_after_pef_verdict(shaping, TOY_BRANCHES, lmin)
        assert not verdict.bounded
        assert verdict.reason == UNPROVEN_CONFIGURATION

    def test_verdict_json(self):
        verdict = RegulatorVerdict.unbounded(IR_AFTER_PEF_NO_POF, q_min=13)
        data = verdict.to_json()
        assert data["verdict"] == "unbounded"
        assert data["reason"] == IR_AFTER_PEF_NO_POF
        assert data["q_min"] == 13


class TestWithResequencer:
    def test_lossless_is_transparent(self):
        assert preof_for_free_bounds(TOY_SECTION, DelayInterval(0, 0)) == TOY_SECTION

    def test_lossy_adds_timeout(self):
        got = preof_for_free_bounds(TOY_SECTION, DelayInterval(0, 6))
        assert got == DelayInterval(0, 13)

    def test_lossy_needs_timeout(self):
        # without a timeout a lost unit holds its successors without bound
        got = preof_for_free_bounds(TOY_SECTION, DelayInterval(0, UNBOUNDED))
        assert got.lo == 0 and is_unbounded(got.hi)
