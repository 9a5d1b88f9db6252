"""Trajectory engine, measurement, and generator tests.

Expected timelines for the toy runs were derived by hand from the stage
semantics: branch exits at generation + scheduled delay, first replicate wins
at the eliminator, in-order release (with flush-before on timeout) at the
re-sequencer, and token-bucket release at the regulators.
"""

import gc
import json
import random
from fractions import Fraction

import pytest

from redcalc.cli import bundled_dir
from redcalc.minplus import ConcaveCurve
from redcalc.sim import (
    BRANCH_EXIT,
    DROP,
    PEF_EXIT,
    POF_EXIT,
    REG_EXIT,
    PathSpec,
    Pipeline,
    PofSpec,
    RegSpec,
    Scenario,
    ScenarioError,
    SourceUnit,
    Trace,
    TraceEvent,
    check_compliance,
    gen_adversarial_ir,
    gen_tightness_trajectory,
    is_fifo_per_flow,
    load_scenario,
    measure_reordering,
    run_scenario,
    toy_scenario,
)
from redcalc.sim.engine import FlowProfile
from redcalc.sim.generators import TOY_VARIANTS
from redcalc.topology import DelayInterval, SpecError

from netfixtures import shaped_scenario, times
from oracles import (
    compliance_violations,
    fifo_per_flow_by_fractions,
    fraction_trace_measures,
    reordering_by_pairs,
    replay_in_fractions,
)

F = Fraction
TOY_PEF_OUT = ConcaveCurve([(2, 4), (1, 8)])


def one_flow(units, paths, pipeline, **kw):
    return Scenario("t", units, paths, pipeline, **kw)


def unit_delays(trace):
    return {int(u): d for (_f, u), d in trace.delays().items()}


class TestEngineValidation:
    def test_delay_outside_declared_bounds(self):
        sc = one_flow(
            [SourceUnit("f", "1", 0, 1)],
            [PathSpec("p", DelayInterval(0, 1), {("f", "1"): F(2)})],
            Pipeline(),
        )
        with pytest.raises(ScenarioError, match="outside declared bounds"):
            run_scenario(sc)

    def test_path_fifo_violation(self):
        sc = one_flow(
            [SourceUnit("f", "1", 0, 1), SourceUnit("f", "2", 1, 1)],
            [PathSpec("p", DelayInterval(0, 5), {("f", "1"): F(4), ("f", "2"): F(0)})],
            Pipeline(),
        )
        with pytest.raises(ScenarioError, match="FIFO"):
            run_scenario(sc)

    def test_drop_on_lossless_path(self):
        sc = one_flow(
            [SourceUnit("f", "1", 0, 1)],
            [PathSpec("p", DelayInterval(0, 1), {("f", "1"): DROP}, lossy=False)],
            Pipeline(),
        )
        with pytest.raises(ScenarioError, match="lossless"):
            run_scenario(sc)

    def test_zero_size_needs_flag(self):
        mk = lambda flag: one_flow(
            [SourceUnit("f", "1", 0, 0)],
            [PathSpec("p", DelayInterval(0, 1), {("f", "1"): F(0)})],
            Pipeline(),
            allow_zero_size=flag,
        )
        with pytest.raises(ScenarioError, match="zero size"):
            run_scenario(mk(False))
        run_scenario(mk(True))

    @pytest.mark.parametrize(
        "stage",
        [{"pof": PofSpec(timeout=1)}, {"reg": RegSpec("per-flow", {"f": ConcaveCurve([(1, 1)])})}],
        ids=["resequencer", "regulator"],
    )
    def test_duplicates_need_an_eliminator_before_the_pipeline(self, stage):
        paths = [PathSpec(name, DelayInterval(0, 1), {}, default=F(0)) for name in ("a", "b")]
        sc = one_flow([SourceUnit("f", "1", 0, 1)], paths, Pipeline(pef=False, **stage))
        with pytest.raises(ScenarioError, match="^duplicate replicates reach the pipeline"):
            run_scenario(sc)
        # one replicate, or an eliminator, is fine
        sc.paths = paths[:1]
        assert unit_delays(run_scenario(sc)) == {1: 0}
        sc.paths, sc.pipeline = paths, Pipeline(pef=True, **stage)
        assert unit_delays(run_scenario(sc)) == {1: 0}

    def test_scenario_needs_a_path(self):
        sc = one_flow([SourceUnit("f", "1", 0, 1)], [], Pipeline())
        with pytest.raises(ScenarioError, match="^scenario needs at least one path$"):
            run_scenario(sc)

    def test_duplicate_source_unit(self):
        units = [SourceUnit(fid, "1", t, 1) for fid, t in (("f", 0), ("g", 0), ("f", 2))]
        path = PathSpec("p", DelayInterval(0, 1), {}, default=F(0))
        with pytest.raises(ScenarioError, match="^duplicate source unit f/1$"):
            run_scenario(one_flow(units, [path], Pipeline()))

    def test_size_checks_name_the_first_offending_unit(self):
        # units 1, 2 and 4 share a valid (flow, size) pair, which is checked
        # once; unit 3 of the same flow is too large and is named, not unit 6
        units = [SourceUnit("f", str(i), i, size) for i, size in enumerate([2, 2, 5, 2, 0, 9], 1)]
        sc = one_flow(
            units,
            [PathSpec("p", DelayInterval(0, 1), {}, default=F(0))],
            Pipeline(),
            flows={"f": FlowProfile(lmin=1, lmax=4)},
        )
        with pytest.raises(ScenarioError, match="unit f/3: size above flow maximum"):
            run_scenario(sc)
        sc.sources[2] = SourceUnit("f", "3", 3, 2)
        with pytest.raises(ScenarioError, match="unit f/5: zero size not allowed"):
            run_scenario(sc)
        sc.sources[4] = SourceUnit("f", "5", 5, F(1, 2))
        with pytest.raises(ScenarioError, match="unit f/5: size below flow minimum"):
            run_scenario(sc)

    @pytest.mark.parametrize("lmax", [-3, 0])
    def test_lmax_alone_must_be_positive(self, lmax):
        with pytest.raises(ScenarioError, match=r"^maximum data unit size must be > 0$"):
            FlowProfile(lmax=lmax)
        assert FlowProfile(lmax=F(1, 2)).lmax == F(1, 2)

    @pytest.mark.parametrize("field, what", [("time", "emission time"), ("size", "size")])
    @pytest.mark.parametrize(
        "value", [-1, "-1/3", F(-2, 7), -0.5], ids=["int", "str", "Fraction", "float"]
    )
    def test_negative_source_value(self, field, what, value):
        args = {"time": 1, "size": 1, field: value}
        with pytest.raises(ScenarioError, match=f"^unit f/1: negative {what}$"):
            SourceUnit("f", "1", **args)

    def test_missing_action_without_default(self):
        sc = one_flow(
            [SourceUnit("f", "1", 0, 1)],
            [PathSpec("p", DelayInterval(0, 1), {})],
            Pipeline(),
        )
        with pytest.raises(ScenarioError, match="no action"):
            run_scenario(sc)

    def test_resequencer_deadlock_without_timeout(self):
        # unit 1 lost on the only path: unit 2 can never be released
        sc = one_flow(
            [SourceUnit("f", "1", 0, 1), SourceUnit("f", "2", 1, 1)],
            [PathSpec("p", DelayInterval(0, 1), {("f", "1"): DROP, ("f", "2"): F(0)})],
            Pipeline(pof=PofSpec()),
        )
        with pytest.raises(ScenarioError, match="stuck"):
            run_scenario(sc)

    def test_unit_bigger_than_shaping_burst(self):
        sc = one_flow(
            [SourceUnit("f", "1", 0, 3)],
            [PathSpec("p", DelayInterval(0, 1), {("f", "1"): F(0)})],
            Pipeline(reg=RegSpec("per-flow", {"f": ConcaveCurve([(1, 2)])})),
        )
        with pytest.raises(ScenarioError, match="shaping burst"):
            run_scenario(sc)

    def test_rate_zero_bucket_starves(self):
        # a rate-0 bucket never refills: 2 + 2 exceeds its burst of 3
        units = [SourceUnit("f", "1", 0, 2), SourceUnit("f", "2", 1, 2)]
        path = PathSpec("p", DelayInterval(0, 1), {}, default=F(0))
        curve = ConcaveCurve([(0, 3), (1, 2)])
        sc = one_flow(units, [path], Pipeline(reg=RegSpec("per-flow", {"f": curve})))
        with pytest.raises(ScenarioError, match="starves"):
            run_scenario(sc)
        sc.sources = units[:1]
        assert unit_delays(run_scenario(sc)) == {1: 0}

    # the engine decides each shared value once per run; these pin what
    # that must not change: each path's own bounds, each flow's own limits,
    # one trace for one delay however it is given, and the first fault in
    # emission order

    def test_one_delay_object_is_checked_against_each_path(self):
        delay = F(3)  # within a's bounds, outside b's
        units = [SourceUnit("f", str(i), i, 1) for i in (1, 2)]
        paths = [
            PathSpec("a", DelayInterval(0, 5), {}, default=delay),
            PathSpec("b", DelayInterval(0, 2), {("f", "1"): F(1), ("f", "2"): delay}),
        ]
        with pytest.raises(ScenarioError) as info:
            run_scenario(one_flow(units, paths, Pipeline()))
        assert str(info.value) == "path b: delay 3 for f/2 outside declared bounds"

    def test_one_size_object_is_checked_against_each_flow(self):
        size = F(3)  # within f's limits, beyond g's
        units = [SourceUnit("f", "1", 0, size), SourceUnit("g", "1", 1, size)]
        path = PathSpec("p", DelayInterval(0, 1), {}, default=F(0))
        sc = one_flow(
            units, [path], Pipeline(), flows={"f": FlowProfile(lmax=4), "g": FlowProfile(lmax=2)}
        )
        with pytest.raises(ScenarioError) as info:
            run_scenario(sc)
        assert str(info.value) == "unit g/1: size above flow maximum"
        sc.flows = {}
        curves = {"f": ConcaveCurve([(1, 4)]), "g": ConcaveCurve([(1, 2)])}
        sc.pipeline = Pipeline(reg=RegSpec("per-flow", curves))
        with pytest.raises(ScenarioError) as info:
            run_scenario(sc)
        assert str(info.value) == "unit g/1: larger than its shaping burst, can never release"
        curves["g"] = ConcaveCurve([(1, 3)])
        sc.pipeline = Pipeline(reg=RegSpec("per-flow", curves))
        assert run_scenario(sc).delays() == {("f", "1"): 0, ("g", "1"): 0}

    def test_a_delay_gives_one_trace_however_it_is_given(self):
        units = [SourceUnit("f", str(i), F(i, 3), 1) for i in (1, 2, 3, 4)]
        shared = F(3, 2)

        def trace(delays):
            # the delays on p, a drop on q between each of them
            actions = dict(zip((u.key for u in units), delays))
            paths = [
                PathSpec("p", DelayInterval(1, 2), actions),
                PathSpec("q", DelayInterval(0, 9), {}, default=DROP),
            ]
            return run_scenario(one_flow(units, paths, Pipeline()))

        traces = [
            trace(delays)
            for delays in (
                ["3/2"] * 4,
                ["3/2", "".join(["3/", "2"]), "3/2", "6/4"],
                [shared] * 4,
                [F(3, 2), F(3, 2), F(6, 4), shared],
                ["3/2", shared, F(3, 2), "3/2"],
            )
        ]
        expected = traces[0]
        assert expected.grid == 6
        assert set(expected.delays().values()) == {shared}
        for other in traces[1:]:
            assert other.events == expected.events
            assert other.to_csv() == expected.to_csv()

    def test_the_sources_give_one_trace_in_any_listing(self):
        # f/1 and f/2 leave the path at one instant; each path is walked in
        # emission order, so the listing decides no order of their events
        units = [SourceUnit("f", "1", 0, 1), SourceUnit("f", "2", 1, 1)]
        path = PathSpec("p", DelayInterval(0, 5), {("f", "1"): F(5), ("f", "2"): F(4)})
        traces = [run_scenario(one_flow(listing, [path], Pipeline()))
                  for listing in (units, units[::-1])]
        assert [e.unit for e in traces[0].of_kind(BRANCH_EXIT)] == ["1", "2"]
        assert traces[0].to_csv() == traces[1].to_csv()
        # and one fault, at the first unit in emission order that has it
        units = [SourceUnit("f", u.unit, u.time, 2) for u in units]
        for listing in (units, units[::-1]):
            sc = one_flow(listing, [path], Pipeline(), flows={"f": FlowProfile(lmax=1)})
            with pytest.raises(ScenarioError, match="^unit f/1: size above flow maximum$"):
                run_scenario(sc)

    def test_the_first_fault_in_unit_order_is_raised(self):
        # unit order is the order of the emissions, not of the listing
        units = [SourceUnit("f", str(i), t, 1) for i, t in ((1, 5), (2, 0), (3, 9))]
        too_long = F(2)

        def error(actions):
            path = PathSpec("p", DelayInterval(0, 1), dict(zip((u.key for u in units), actions)),
                            lossy=False)
            with pytest.raises(ScenarioError) as info:
                run_scenario(one_flow(units, [path], Pipeline()))
            return str(info.value)

        assert error([F(0), DROP, too_long]) == "path p: drop on a lossless path"
        assert error([F(0), too_long, DROP]) == "path p: delay 2 for f/2 outside declared bounds"
        assert error([too_long, DROP, too_long]) == "path p: drop on a lossless path"
        assert error([DROP, too_long, DROP]) == "path p: delay 2 for f/2 outside declared bounds"


class TestExactWork:
    """A run does its exact work once per distinct value: the Fractions
    it makes, hashes and compares do not grow with the number of units."""

    COUNTED = ("__new__", "__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

    @classmethod
    def counts(cls, monkeypatch, periods: int) -> dict:
        sc = gen_adversarial_ir(1, 1, 0, 1, 6, 7, q=13, periods=periods)
        counts = dict.fromkeys(cls.COUNTED, 0)

        def counting(name, method):
            def counted(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return counted

        with monkeypatch.context() as m:
            for name in cls.COUNTED:
                m.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
            trace = run_scenario(sc)
        assert len(trace.events) == 4 * len(sc.sources) == 4 * 13 * 2 * periods
        return counts

    def test_exact_work_does_not_grow_with_the_unit_count(self, monkeypatch):
        few, many = (self.counts(monkeypatch, periods) for periods in (2, 7))
        assert few == many
        assert sum(few.values()) > 0  # the counters are in place


class TestToyRuns:
    def test_double_rate_output(self):
        trace = run_scenario(toy_scenario("double-rate"))
        delays = unit_delays(trace)
        assert delays == {k: 7 for k in range(1, 7)} | {k: 1 for k in range(7, 15)}
        pef = [(e.time, e.size) for e in trace.of_kind(PEF_EXIT)]
        # six instants carry two units each: double the source rate
        per_instant = {}
        for t, sz in pef:
            per_instant[t] = per_instant.get(t, 0) + sz
        assert {t: v for t, v in per_instant.items() if v == 2} == {
            F(t): F(2) for t in range(8, 14)
        }
        assert check_compliance(pef, TOY_PEF_OUT) is None
        assert compliance_violations(pef, TOY_PEF_OUT) == []

    def test_rto_run_measures_four(self):
        trace = run_scenario(toy_scenario("rto"))
        delays = unit_delays(trace)
        assert delays[1] == 7 and delays[7] == 1 and delays[14] == 0
        exits = times(trace, PEF_EXIT)
        arrived = [(int(u) - 1, t, F(1)) for (_f, u), t in exits.items()]
        rto, rbo = measure_reordering(arrived)
        assert rto == 4  # unit 6 lands at 12, unit 7 landed at 8
        assert rbo == 5  # units 7..11 are already in when unit 6 lands
        assert check_compliance([(t, F(1)) for t in exits.values()], TOY_PEF_OUT) is None

    def test_resequencer_restores_order(self):
        trace = run_scenario(toy_scenario("pof"))
        out = times(trace, POF_EXIT)
        expected = {1: 8, 2: 8, 3: 9, 4: 10, 5: 11, 13: 13, 14: 14}
        expected.update({k: 12 for k in range(6, 13)})
        assert {int(u): t for (_f, u), t in out.items()} == expected
        assert is_fifo_per_flow(trace, POF_EXIT)
        assert measure_reordering(
            [(int(u), t, F(1)) for (_f, u), t in out.items()]
        ) == (0, 0)
        assert max(unit_delays(trace).values()) == 7
        assert check_compliance(
            [(t, F(1)) for t in out.values()], ConcaveCurve([(1, 8)])
        ) is None

    def test_per_flow_regulator_worst_delay(self):
        trace = run_scenario(toy_scenario("pfr"))
        out = {int(u): t for (_f, u), t in times(trace, REG_EXIT).items()}
        assert out == {
            7: 8, 8: 9, 1: 10, 9: 11, 2: 12, 10: 13, 3: 14,
            11: 15, 4: 16, 12: 17, 5: 18, 13: 19, 6: 20, 14: 21,
        }
        delays = unit_delays(trace)
        assert max(delays.values()) == 14 and delays[6] == 14
        rto, _rbo = measure_reordering(
            [(int(u) - 1, t, F(1)) for u, t in ((str(k), out[k]) for k in out)]
        )
        assert rto == 12  # unit 6 leaves 12 after unit 7 did
        assert check_compliance(
            [(t, F(1)) for t in out.values()], ConcaveCurve([(1, 1)])
        ) is None

    @pytest.mark.parametrize("timeout", [None, 6])
    def test_resequencer_before_regulator_cancels_reordering(self, timeout):
        trace = run_scenario(toy_scenario("pof-pfr", timeout=timeout))
        delays = unit_delays(trace)
        assert set(delays.values()) == {7}
        assert is_fifo_per_flow(trace, REG_EXIT)

    def test_lossy_run_with_timeout(self):
        trace = run_scenario(toy_scenario("lossy"))
        assert trace.lost_units() == [("f", "3")]
        delays = unit_delays(trace)
        assert delays == {1: 7, 2: 7} | {k: 10 for k in range(4, 15)}
        assert max(delays.values()) <= 13
        # nothing sits in the re-sequencer longer than the timeout
        pef = times(trace, PEF_EXIT)
        pof = times(trace, POF_EXIT)
        assert all(pof[k] - pef[k] <= 6 for k in pof)
        assert is_fifo_per_flow(trace, POF_EXIT)

    def test_late_replicate_after_timeout_is_forwarded_as_is(self):
        sc = one_flow(
            [SourceUnit("f", "1", 0, 1), SourceUnit("f", "2", 0, 1)],
            [
                PathSpec("fast", DelayInterval(0, 1), {("f", "1"): DROP, ("f", "2"): F(0)}),
                PathSpec("slow", DelayInterval(0, 10), {("f", "1"): F(9), ("f", "2"): DROP}),
            ],
            Pipeline(pof=PofSpec(timeout=2)),
        )
        trace = run_scenario(sc)
        out = times(trace, POF_EXIT)
        assert out[("f", "2")] == 2  # waited the full timeout for unit 1
        assert out[("f", "1")] == 9  # released on arrival, slot already passed


class TestMeasures:
    def test_reordering_basic(self):
        rto, rbo = measure_reordering([(0, 10, 1), (1, 8, 2)])
        assert (rto, rbo) == (2, 2)
        assert measure_reordering([(0, 1, 5), (1, 2, 5), (2, 2, 5)]) == (0, 0)
        assert measure_reordering([(3, 4, 2)]) == (0, 0)

    def test_reordering_byte_offset_counts_strictly_earlier(self):
        # unit 0 arrives last; units 2 and 3 are strictly earlier, unit 1 ties
        units = [(0, 5, 1), (1, 5, 7), (2, 3, 2), (3, 4, 4)]
        rto, rbo = measure_reordering(units)
        assert rto == 2 and rbo == 6

    @pytest.mark.parametrize(
        "rank", [F(3, 2), 1.5, True, False, "1", None],
        ids=["fraction", "float", "true", "false", "string", "none"],
    )
    def test_reordering_rejects_a_rank_that_is_not_an_int(self, rank):
        with pytest.raises(TypeError, match=r"^rank .* is not an int$"):
            measure_reordering([(0, 1, 1), (rank, 0, 1)])
        with pytest.raises(TypeError):
            measure_reordering([(rank, 0, 1)])

    def test_reordering_rejects_a_duplicate_rank(self):
        # a tie in rank is no reordering to the pairwise definition, and
        # counting it as one would be wrong: such a sequence is refused
        assert reordering_by_pairs([(0, 5, 1), (0, 3, 1)]) == (0, 0)
        with pytest.raises(ValueError, match="^duplicate rank 0$"):
            measure_reordering([(0, 5, 1), (0, 3, 1)])
        with pytest.raises(ValueError, match="^duplicate rank 7$"):
            measure_reordering([(7, 1, 1), (2, 2, 1), (9, 0, 1), (7, 3, 1)])

    def test_reordering_rejects_a_negative_size(self):
        with pytest.raises(ValueError, match="^negative size$"):
            measure_reordering([(0, 1, 1), (1, 0, -1)])

    def test_reordering_of_reversed_shuffled_and_tied_sequences(self):
        n = 40
        sizes = [F(k % 5, 1 + k % 3) for k in range(n)]
        # rank k arrives at n - 1 - k: every unit overtakes every earlier one
        reversed_units = [(k, n - 1 - k, sizes[k]) for k in range(n)]
        assert measure_reordering(reversed_units) == (n - 1, sum(sizes[1:]))
        in_order = [(k, k, sizes[k]) for k in range(n)]
        assert measure_reordering(in_order) == (0, 0)
        tied = [(k, F(7, 3), sizes[k]) for k in range(n)]
        assert measure_reordering(tied) == (0, 0)
        rng = random.Random(37)
        for units in (reversed_units, in_order):
            for _ in range(5):
                shuffled = [(r, t, sz) for (r, _t, sz), (_r, t, _sz) in
                            zip(units, rng.sample(units, n))]
                got = measure_reordering(shuffled)
                assert got == reordering_by_pairs(shuffled)
                # the input's order is not read: only ranks say who is first
                assert measure_reordering(rng.sample(shuffled, n)) == got

    def test_reordering_matches_oracle_on_long_tied_sequences(self):
        rng = random.Random(4242)
        for n in (120, 200, 300):
            for _ in range(2):
                ranks = rng.sample(range(2 * n), n)
                # few instants and many zero sizes
                instants = [F(rng.randint(0, 40), rng.choice((1, 2, 3))) for _ in range(n // 10)]
                units = [
                    (r, rng.choice(instants), rng.choice((F(0), F(0), F(rng.randint(1, 9), 4))))
                    for r in ranks
                ]
                assert measure_reordering(units) == reordering_by_pairs(units)

    def test_reordering_of_the_benchmark_trajectory(self):
        sc = gen_adversarial_ir(1, 1, 0, 1, 6, 7, q=13, periods=51)
        trace = run_scenario(sc)
        rank = {u.key: i for i, u in enumerate(sorted(sc.sources, key=lambda u: u.time))}
        assert measure_reordering(
            (rank[(e.flow, e.unit)], e.time, e.size) for e in trace.of_kind(PEF_EXIT)
        ) == (F(53, 11), 6)

    def test_compliance_exact_envelope_passes(self):
        curve = ConcaveCurve([(2, 3)])
        events = [(0, 3), (1, 2), (2, 2), (F(5, 2), 1)]
        assert check_compliance(events, curve) is None
        assert compliance_violations(events, curve) == []

    def test_compliance_reports_first_violation(self):
        curve = ConcaveCurve([(1, 2)])
        events = [(0, 2), (3, 2), (F(7, 2), 2)]
        report = check_compliance(events, curve)
        assert report is not None
        assert (report["window_start"], report["window_end"]) == (3, F(7, 2))
        assert report["observed"] == 4 and report["allowed"] == F(5, 2)
        assert compliance_violations(events, curve)

    @staticmethod
    def _matches_compliance_oracle(events, curve):
        # sorted as check_compliance sorts them, so window indices line up
        events = sorted(events)
        got = check_compliance(events, curve)
        oracle = compliance_violations(events, curve)
        assert (got is None) == (oracle == [])
        if got is None:
            return
        assert all(isinstance(v, Fraction) for v in got.values())
        assert any(
            events[i][0] == got["window_start"]
            and events[j][0] == got["window_end"]
            and sum(sz for _t, sz in events[i : j + 1]) == got["observed"]
            for i, j in oracle
        )
        assert got["allowed"] == curve.envelope(got["window_end"] - got["window_start"])
        assert got["observed"] > got["allowed"]

    def test_compliance_matches_oracle_randomized(self):
        rng = random.Random(4242)
        for _ in range(150):
            curve = ConcaveCurve(
                [
                    (F(rng.randint(1, 4)), F(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            events = []
            t = F(0)
            for _ in range(rng.randint(1, 12)):
                t += F(rng.randint(0, 5), 2)
                events.append((t, F(rng.randint(0, 4))))
            self._matches_compliance_oracle(events, curve)

        # fractional rates, bursts, times and sizes over mixed denominators,
        # with zero sizes and equal instants
        dens = (1, 2, 3, 7)
        rng = random.Random(777)
        for _ in range(300):
            curve = ConcaveCurve(
                [
                    (
                        F(rng.randint(1, 9), rng.choice(dens)),
                        F(rng.randint(1, 12), rng.choice(dens)),
                    )
                    for _ in range(rng.randint(1, 3))
                ]
            )
            events = []
            t = F(rng.randint(0, 6), rng.choice(dens))
            for _ in range(rng.randint(1, 12)):
                t += rng.choice((F(0), F(rng.randint(1, 9), rng.choice(dens))))
                size = rng.choice((F(0), F(rng.randint(1, 9), rng.choice(dens))))
                events.append((t, size))
            self._matches_compliance_oracle(events, curve)

    def test_reordering_matches_oracle_randomized(self):
        dens = (1, 2, 3, 5, 7)
        rng = random.Random(2024)
        assert measure_reordering([]) == reordering_by_pairs([]) == (0, 0)
        for _ in range(300):
            n = rng.randint(1, 14)
            ranks = rng.sample(range(3 * n), n)
            # a small pool of instants, so that some units arrive together
            instants = [F(rng.randint(0, 30), rng.choice(dens)) for _ in range(rng.randint(1, n))]
            units = [
                (r, rng.choice(instants), F(rng.randint(0, 9), rng.choice(dens)))
                for r in ranks
            ]
            got = measure_reordering(units)
            assert got == reordering_by_pairs(units)
            assert all(isinstance(v, Fraction) for v in got)
            if n == 1:
                assert got == (0, 0)


def random_tightness_cases():
    """25 seeded branch settings (rate, burst, d1, D1, d2, D2)."""
    rng = random.Random(7)
    for _ in range(25):
        r = F(rng.randint(1, 4))
        b = F(rng.randint(1, 5))
        lo1, lo2 = (F(rng.randint(0, 6), 2) for _ in range(2))
        hi1 = lo1 + F(rng.randint(0, 8), 2)
        hi2 = lo2 + F(rng.randint(0, 8), 2)
        yield (r, b, lo1, hi1, lo2, hi2)


class TestTightnessGenerator:
    def run_and_check(self, params):
        sc = gen_tightness_trajectory(*params)
        trace = run_scenario(sc)
        curve = sc.flows["f"].arrival
        gen = [(e.time, e.size) for e in trace.of_kind("generated")]
        assert check_compliance(gen, curve) is None
        instant = sc.meta["burst_instant"]
        landed = sum(e.size for e in trace.of_kind(PEF_EXIT) if e.time == instant)
        assert landed == sc.meta["expected_burst"]
        assert trace.lost_units() == []
        return sc, trace

    def test_toy_branches_land_the_analyzer_burst(self):
        sc, trace = self.run_and_check((1, 1, 0, 1, 6, 7))
        assert sc.meta["case"] == 1
        assert sc.meta["expected_burst"] == 4  # burst of the eliminator output curve
        pef = [(e.time, e.size) for e in trace.of_kind(PEF_EXIT)]
        assert check_compliance(pef, TOY_PEF_OUT) is None

    def test_case_two_without_bridge(self):
        sc, trace = self.run_and_check((1, 2, 1, 3, 2, 4))
        assert sc.meta["case"] == 2
        assert sc.meta["expected_burst"] == 5

    def test_case_two_with_bridge(self):
        sc, _ = self.run_and_check((1, 1, 0, 1, F(3, 2), 5))
        assert sc.meta["case"] == 2
        assert sc.meta["expected_burst"] == 6
        assert any(u.unit == "bridge" for u in sc.sources)

    def test_degenerate_constant_branches(self):
        sc, _ = self.run_and_check((1, 1, 2, 2, 2, 2))
        assert sc.meta["expected_burst"] == 1

    def test_randomized_schedules_comply_and_land(self):
        for params in random_tightness_cases():
            self.run_and_check(params)


class TestAdversarialGenerator:
    def test_small_q_rejected(self):
        with pytest.raises(ValueError, match="at least 13 flows"):
            gen_adversarial_ir(1, 1, 0, 1, 6, 7, q=12)

    def test_identical_constant_branches_rejected(self):
        with pytest.raises(ValueError, match="same constant delay"):
            gen_adversarial_ir(1, 1, 2, 2, 2, 2, q=5)

    def test_negative_start_is_named_at_the_first_unit(self):
        with pytest.raises(ScenarioError) as info:
            gen_adversarial_ir(1, 1, 0, 1, 6, 7, q=13, x1=-1)
        assert str(info.value) == "unit f1/m1_0: negative emission time"

    def test_units_are_those_of_the_checked_constructor(self):
        for params, q, periods, x1 in ADVERSARIAL_CASES:
            for u in gen_adversarial_ir(*params, q=q, periods=periods, x1=x1).sources:
                assert type(u.time) is Fraction and type(u.size) is Fraction
                assert u == SourceUnit(u.flow, u.unit, u.time, u.size)

    def test_backlog_diverges_at_the_threshold(self):
        sc = gen_adversarial_ir(1, 2, 0, 0, 1, 1, q=4, periods=8)
        assert sc.meta["q_min"] == 4
        step = sc.meta["divergence_step"]
        assert step > 0
        trace = run_scenario(sc)
        delays = trace.delays()
        for k in range(8):
            assert delays[("f1", f"m1_{k}")] >= -sc.meta["D"] + k * step
        assert trace.lost_units() == []
        # sources comply per flow with the regulator curve
        gen = {}
        for e in trace.of_kind("generated"):
            gen.setdefault(e.flow, []).append((e.time, e.size))
        for fid, events in gen.items():
            assert check_compliance(events, sc.flows[fid].arrival) is None

    def test_overlapping_bounds_still_diverge(self):
        # second branch starts below the first one's maximum: d2 < D1
        sc = gen_adversarial_ir(1, 2, 0, 5, 1, 6, q=4, periods=6)
        trace = run_scenario(sc)
        delays = trace.delays()
        step = sc.meta["divergence_step"]
        assert step > 0
        assert delays[("f1", "m1_5")] >= -sc.meta["D"] + 5 * step
        assert delays[("f1", "m1_5")] > delays[("f1", "m1_0")]

    def test_touching_bounds_perturb_the_forward_delay(self):
        # d2 == D1 exactly: the divergence needs a slightly later forwarding
        sc = gen_adversarial_ir(1, 2, 0, 2, 2, 3, q=4, periods=6)
        trace = run_scenario(sc)
        assert trace.lost_units() == []
        assert sc.meta["divergence_step"] > 0
        assert trace.delays()[("f1", "m1_5")] >= -sc.meta["D"] + 5 * sc.meta["divergence_step"]

    def test_single_point_slow_branch(self):
        # d2 == D2 == D1 with jitter only on the fast branch
        sc = gen_adversarial_ir(1, 2, 0, 2, 2, 2, q=4, periods=6)
        trace = run_scenario(sc)
        assert sc.meta["divergence_step"] > 0
        assert trace.delays()[("f1", "m1_5")] >= -sc.meta["D"] + 5 * sc.meta["divergence_step"]


# the two generators, each on two branches, as a function of their
# (rate, burst, d1, D1, d2, D2)
GENERATORS = {
    "tightness": gen_tightness_trajectory,
    "adversarial": lambda *params: gen_adversarial_ir(*params, q=13, periods=2, x1=F(1, 3)),
}


@pytest.mark.parametrize("generator", GENERATORS.values(), ids=GENERATORS.keys())
class TestGeneratorArguments:
    @pytest.mark.parametrize(
        "params, message",
        [
            ((0, 1, 0, 1, 6, 7), "need a positive rate and burst"),
            ((1, -1, 0, 1, 6, 7), "need a positive rate and burst"),
            ((1, 1, 2, 1, 6, 7), "branch bounds must satisfy 0 <= min <= max"),
            ((1, 1, 0, 1, 8, 7), "branch bounds must satisfy 0 <= min <= max"),
            ((1, 1, -1, 1, 6, 7), "branch bounds must satisfy 0 <= min <= max"),
        ],
        ids=["rate-0", "burst-negative", "lo-above-hi-first", "lo-above-hi-second", "lo-negative"],
    )
    def test_rejected(self, generator, params, message):
        with pytest.raises(ValueError) as info:
            generator(*params)
        assert str(info.value) == message

    @pytest.mark.parametrize("params", [(1, 1, 0, 1, 6, 7), (1, 2, 0, 5, 1, 6), (1, 2, 1, 3, 0, 3)])
    def test_the_order_of_the_branches_does_not_matter(self, generator, params):
        r, b, d1, D1, d2, D2 = params
        assert generator(r, b, d1, D1, d2, D2) == generator(r, b, d2, D2, d1, D1)


TIGHTNESS_CASES = [
    (1, 1, 0, 1, 6, 7),
    (1, 2, 1, 3, 2, 4),
    (1, 1, 0, 1, F(3, 2), 5),
    (1, 1, 2, 2, 2, 2),
]


ADVERSARIAL_CASES = [
    ((1, 1, 0, 1, 6, 7), 13, 4, F(123, 997)),
    ((1, 2, 0, 0, 1, 1), 4, 8, 0),
    ((1, 2, 0, 5, 1, 6), 5, 6, F(7, 3)),
    ((1, 2, 0, 2, 2, 3), 4, 6, F(1, 6)),
    ((1, 2, 0, 2, 2, 2), 6, 3, 5),
    ((F(3, 4), F(5, 2), F(1, 3), 2, 3, F(9, 2)), 9, 5, F(2, 11)),
]


def _differential_scenarios(family):
    if family == "toy":
        rng = random.Random(16)
        for variant in TOY_VARIANTS:
            yield toy_scenario(variant)
            for _ in range(3):
                yield toy_scenario(variant, timeout=F(rng.randint(0, 40), rng.randint(1, 6)))
    elif family == "tightness":
        for params in (*TIGHTNESS_CASES, *random_tightness_cases()):
            yield gen_tightness_trajectory(*params)
    elif family == "shaped":
        yield shaped_scenario("per-flow")
        yield shaped_scenario("interleaved")
    else:
        for params, q, periods, x1 in ADVERSARIAL_CASES:
            yield gen_adversarial_ir(*params, q=q, periods=periods, x1=x1)


class TestFractionReplay:
    """The integer-tick engine against a replay that keeps every instant a
    Fraction (`oracles.replay_in_fractions`)."""

    @pytest.mark.parametrize("family", ["toy", "tightness", "shaped", "adversarial"])
    def test_trace_matches_fraction_replay(self, family):
        for sc in _differential_scenarios(family):
            trace = run_scenario(sc)
            expected = replay_in_fractions(sc)
            got = [(e.time, e.kind, e.flow, e.unit, e.size, e.branch) for e in trace.events]
            assert got == expected, sc.name
            assert all(type(e.tick) is int and e.grid == trace.grid for e in trace.events)
            delays, lost = fraction_trace_measures(sc, expected)
            assert list(trace.delays().items()) == list(delays.items()), sc.name
            assert trace.lost_units() == lost, sc.name
            for kind in (BRANCH_EXIT, PEF_EXIT, POF_EXIT, REG_EXIT):
                fifo = fifo_per_flow_by_fractions(sc, expected, kind)
                assert is_fifo_per_flow(trace, kind) == fifo, (sc.name, kind)

    @pytest.mark.parametrize("params, q, periods, x1", ADVERSARIAL_CASES)
    def test_adversarial_emissions_follow_the_schedule(self, params, q, periods, x1):
        sc = gen_adversarial_ir(*params, q=q, periods=periods, x1=x1)
        meta = sc.meta
        flow_by_flow = [
            (f"f{i}", f"{tag}_{k}", x1 + (i - 1) * meta["phi"] + k * meta["tau"] + offset)
            for i in range(1, q + 1)
            for k in range(periods)
            for tag, offset in (("m1", 0), ("m2", meta["I"]))
        ]
        # in emission order; units of one instant flow by flow
        expected = sorted(flow_by_flow, key=lambda e: e[2])
        assert [(u.flow, u.unit, u.time) for u in sc.sources] == expected

    @pytest.mark.parametrize("params, q, periods, x1", ADVERSARIAL_CASES)
    def test_adversarial_trace_does_not_depend_on_the_order_of_sources(self, params, q, periods, x1):
        sc = gen_adversarial_ir(*params, q=q, periods=periods, x1=x1)
        position = {(f"f{i}", f"{tag}_{k}"): (i, k, tag)
                    for i in range(1, q + 1) for k in range(periods) for tag in ("m1", "m2")}
        flow_by_flow = sorted(sc.sources, key=lambda u: position[u.key])
        assert flow_by_flow != sc.sources
        other = Scenario(sc.name, flow_by_flow, sc.paths, sc.pipeline, sc.flows,
                         sc.allow_zero_size, sc.meta)
        trace, other_trace = run_scenario(sc), run_scenario(other)
        assert trace.to_csv() == other_trace.to_csv()
        assert list(trace.delays().items()) == list(other_trace.delays().items())

    def test_trace_event_is_immutable_and_derives_its_time(self):
        trace = run_scenario(toy_scenario("lossy", timeout=F(13, 3)))
        for e in trace.events:
            assert e.time == Fraction(e.tick, e.grid)
            assert type(e.time) is Fraction
        e = trace.events[0]
        assert isinstance(e, TraceEvent)
        with pytest.raises(AttributeError):
            e.tick = 0
        with pytest.raises(AttributeError):
            e.time = F(0)

    def test_duplicate_generation_is_an_error(self):
        trace = run_scenario(toy_scenario("rto"))
        trace.events.append(trace.events[0])
        for measure in (trace.delays, trace.lost_units, lambda: times(trace, "generated")):
            with pytest.raises(ScenarioError, match="duplicate generated event for f/1"):
                measure()


class TestSerialization:
    def test_toy_scenario_is_the_bundled_run_with_its_timeout(self):
        def bundled(name):
            return load_scenario(bundled_dir().joinpath(f"scn-toy-{name}.json"))

        for variant in TOY_VARIANTS:
            for timeout in (None, F(13, 3)):
                sc = toy_scenario(variant, timeout)
                base = bundled("rto" if variant == "pof" else variant)
                assert (sc.name, sc.meta) == (f"toy-{variant}", {"variant": variant})
                assert (sc.sources, sc.paths, sc.flows) == (base.sources, base.paths, base.flows)
                assert sc.allow_zero_size == base.allow_zero_size
                pipe = sc.pipeline
                assert (pipe.pef, pipe.reg) == (base.pipeline.pef, base.pipeline.reg)
                if variant == "pof":
                    # the rto run, whose pipeline has no re-sequencer, plus one
                    assert base.pipeline.pof is None
                    assert pipe.pof == PofSpec(timeout)
                elif base.pipeline.pof is None:
                    assert pipe.pof is None, variant
                elif timeout is None:
                    assert pipe.pof == base.pipeline.pof, variant
                else:
                    assert pipe.pof == base.pipeline.pof._replace(timeout=timeout), variant
        # the bundled timeouts that a given one replaces
        assert bundled("lossy").pipeline.pof.timeout == 6
        assert bundled("pof-pfr").pipeline.pof.timeout is None
        with pytest.raises(ValueError, match="unknown toy variant 'pef'"):
            toy_scenario("pef")

    @pytest.mark.parametrize(
        "where, path",
        [("arrival", "flows.lossy.arrival"), ("shaping", "pipeline.reg.shaping.lossy")],
    )
    def test_bad_curve_names_its_path(self, where, path):
        with bundled_dir().joinpath("scn-toy-lossy.json").open() as fh:
            doc = json.load(fh)
        bad = {"rate": "fast", "burst": "1"}
        if where == "arrival":
            doc["flows"] = {"lossy": {"arrival": bad}}
        else:
            doc["pipeline"]["reg"] = {"mode": "per-flow", "shaping": {"lossy": bad}}
        with pytest.raises(SpecError, match=rf"^{path}: bad curve"):
            load_scenario(doc)

    def test_trace_csv_shape(self):
        trace = run_scenario(toy_scenario("rto"))
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "time,kind,branch,flow,unit,size"
        assert len(lines) == 1 + len(trace.events)


class TestCollectorPause:
    """The functions that build per-unit objects pause the cyclic garbage collector
    and leave it as they found it."""

    GUARDED = {
        "gen_adversarial_ir": gen_adversarial_ir,
        "run_scenario": run_scenario,
        "delays": Trace.delays,
        "check_compliance": check_compliance,
        "measure_reordering": measure_reordering,
    }

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_guarded_names_keep_their_identity(self):
        # bench/tracing.py binds them by name, and its spans wrap them
        for name, fn in self.GUARDED.items():
            assert fn.__name__ == name
            assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__
            assert fn.__wrapped__ is not fn

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_kept(self, enabled):
        (gc.enable if enabled else gc.disable)()
        inside = []

        def probed(items):
            for item in items:
                inside.append(gc.isenabled())
                yield item

        sc = gen_adversarial_ir(1, 2, 0, 0, 1, 1, q=4, periods=2)
        assert gc.isenabled() is enabled
        trace = run_scenario(sc)
        assert gc.isenabled() is enabled
        assert trace.delays() and gc.isenabled() is enabled
        events = [(e.time, e.size) for e in trace.of_kind(PEF_EXIT)]
        assert check_compliance(probed(events), ConcaveCurve([(100, 100)])) is None
        assert gc.isenabled() is enabled
        measure_reordering(probed((i, t, sz) for i, (t, sz) in enumerate(events)))
        assert gc.isenabled() is enabled
        assert inside and not any(inside)

    def test_collector_is_restored_after_an_error(self):
        gc.enable()
        sc = one_flow([SourceUnit("f", "1", 0, 1)], [], Pipeline())
        with pytest.raises(ScenarioError, match="at least one path"):
            run_scenario(sc)
        assert gc.isenabled()

    def test_the_guarded_work_makes_no_reference_cycles(self):
        # the premise of the pause: with the collector off, nothing the
        # guarded functions leave behind is a cycle only a collection frees
        sc = load_scenario(bundled_dir().joinpath("scn-adversarial-ir.json"))
        gc.disable()
        gc.collect()
        trace = run_scenario(sc)
        trace.delays()
        for fid in sc.flows:
            check_compliance(
                [(e.time, e.size) for e in trace.of_kind("generated") if e.flow == fid],
                sc.flows[fid].arrival,
            )
        measure_reordering(
            (i, e.time, e.size) for i, e in enumerate(trace.of_kind(PEF_EXIT))
        )
        gen_adversarial_ir(1, 1, 0, 1, 6, 7, q=13, periods=2)
        assert gc.collect() == 0
