"""End-to-end acceptance gate: one test per shipped guarantee, in order.

Each test is self-contained and checks exact rational values (no float
tolerances anywhere); the timed ones assert their own wall-clock budget.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from oracles import convolution_value, curve_value
from netfixtures import random_pef_network, result_for, shared_tail_network, times

from redcalc.cli import bundled_dir, main
from redcalc.minplus import (
    ConcaveCurve,
    convolve,
    deconvolve_delay,
    is_unbounded,
    lower_pseudo_inverse,
)
from redcalc.regulators import ir_q_min
from redcalc.sim import (
    PEF_EXIT,
    REG_EXIT,
    check_compliance,
    gen_adversarial_ir,
    gen_tightness_trajectory,
    is_fifo_per_flow,
    load_scenario,
    measure_reordering,
    run_scenario,
)
from redcalc.tfa import analyze, compare_models
from redcalc.topology import DelayInterval, load_network


def bundled(name):
    with bundled_dir().joinpath(name).open() as fh:
        if name.startswith("net-"):
            return load_network(fh)
        return load_scenario(fh)


def toy_report(net_name, **kw):
    return analyze(bundled(net_name), **kw)


def test_01_eliminator_output_curve_is_exact():
    t0 = time.perf_counter()
    report = toy_report("net-toy-pef.json")
    site = report.pef_sites[0]
    assert site["tight_curve"] == ConcaveCurve([(2, 4), (1, 8)])
    assert time.perf_counter() - t0 < 1


def test_02_late_time_offset_bound_and_measurement():
    t0 = time.perf_counter()
    report = toy_report("net-toy-pef.json")
    bound = report.pef_sites[0]["rto_bound"]
    assert bound == 6
    trace = run_scenario(bundled("scn-toy-rto.json"))
    exits = times(trace, PEF_EXIT)
    arrived = [(int(u) - 1, t, F(1)) for (_f, u), t in exits.items()]
    rto, _rbo = measure_reordering(arrived)
    assert rto == 4
    assert rto <= bound
    assert time.perf_counter() - t0 < 1


def test_03_byte_offset_bound():
    report = toy_report("net-toy-pef.json")
    site = report.pef_sites[0]
    assert site["rbo_bound"] == 14
    # the buffer bound is the output envelope taken at the time offset bound
    assert site["tight_curve"].envelope(6) == 14


def test_04_regulated_bound_is_attained():
    t0 = time.perf_counter()
    report = toy_report("net-toy-pef-pfr.json")
    row = result_for(report, "f", "F")
    assert (row.interval.lo, row.interval.hi) == (0, 14)
    reg = report.reg_sites[0]
    assert reg["rto_bound"] == 13

    trace = run_scenario(bundled("scn-toy-pfr.json"))
    delays = trace.delays()
    assert max(delays.values()) == 14
    out = times(trace, REG_EXIT)
    rto, _rbo = measure_reordering(
        [(int(u) - 1, t, F(1)) for (_f, u), t in out.items()]
    )
    assert rto == 12
    assert reg["rto_bound"] >= rto
    assert time.perf_counter() - t0 < 1


def test_05_resequencer_bounds_lossless_and_lossy():
    lossless = toy_report("net-toy-pef-pof-pfr.json", lossless=True)
    assert result_for(lossless, "f", "F").interval.hi == 7
    trace = run_scenario(bundled("scn-toy-pof-pfr.json"))
    assert trace.lost_units() == []
    assert all(d <= 7 for d in trace.delays().values())

    lossy = toy_report("net-toy-pef-pof-pfr.json", lossless=False)
    assert result_for(lossy, "f", "F").interval.hi == 13
    trace = run_scenario(bundled("scn-toy-lossy.json"))
    assert all(d <= 13 for d in trace.delays().values())


def test_06_worst_burst_schedules_land_exactly():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    seen = 0
    while seen < 20:
        r = F(rng.randint(1, 4), rng.randint(1, 2))
        b = F(rng.randint(1, 6), rng.randint(1, 2))
        d1 = F(rng.randint(0, 4), 2)
        D1 = d1 + F(rng.randint(0, 6), 2)
        d2 = D1 + b / r + F(rng.randint(0, 8), 4)
        D2 = d2 + F(rng.randint(0, 6), 2)
        sc = gen_tightness_trajectory(r, b, d1, D1, d2, D2)
        assert sc.meta["case"] == 1
        trace = run_scenario(sc)
        gen = [(e.time, e.size) for e in trace.of_kind("generated")]
        assert check_compliance(gen, sc.flows["f"].arrival) is None

        expected = 2 * b + r * (D1 - d1 + D2 - d2)
        assert sc.meta["expected_burst"] == expected
        per_instant = {}
        for e in trace.of_kind(PEF_EXIT):
            per_instant[e.time] = per_instant.get(e.time, F(0)) + e.size
        hits = [t for t, mass in per_instant.items() if mass == expected]
        assert hits == [sc.meta["burst_instant"]]
        assert max(per_instant.values()) == expected
        seen += 1
    assert time.perf_counter() - t0 < 5


def test_07_interleaved_regulator_diverges_at_threshold():
    t0 = time.perf_counter()
    param_sets = [
        (F(1), F(2), F(0), F(0), F(1), F(1)),
        (F(1), F(1), F(0), F(1), F(6), F(7)),
        (F(2), F(3), F(0), F(1), F(2), F(3)),
        (F(1), F(2), F(0), F(5), F(1), F(6)),
        (F(1), F(2), F(0), F(2), F(2), F(3)),
    ]
    for r, b, d1, D1, d2, D2 in param_sets:
        lo1, hi1, lo2, hi2 = d1, D1, d2, D2
        if (hi1, lo1) > (hi2, lo2):
            lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
        q = ir_q_min(r, b, DelayInterval(lo1, hi1), DelayInterval(lo2, hi2))

        probe = gen_adversarial_ir(r, b, d1, D1, d2, D2, q=q, periods=1)
        step = probe.meta["divergence_step"]
        assert step > 0
        d_up = max(D1, D2)
        periods = max(51, int(math.ceil((10 * d_up + probe.meta["D"]) / step)) + 2)

        sc = gen_adversarial_ir(r, b, d1, D1, d2, D2, q=q, periods=periods)
        trace = run_scenario(sc)
        delays = trace.delays()
        for k in range(51):
            assert delays[("f1", f"m1_{k}")] >= -sc.meta["D"] + k * step
        assert max(delays.values()) > 10 * d_up

        gen = {}
        for e in trace.of_kind("generated"):
            gen.setdefault(e.flow, []).append((e.time, e.size))
        for fid, events in gen.items():
            assert check_compliance(events, sc.flows[fid].arrival) is None
        assert is_fifo_per_flow(trace, PEF_EXIT)
        assert trace.lost_units() == []
        assert len(trace.of_kind(PEF_EXIT)) == len(sc.sources)
    assert time.perf_counter() - t0 < 10


def test_08_tight_model_dominates_intuitive():
    def hi_leq(a, b):
        return is_unbounded(b.hi) or (not is_unbounded(a.hi) and a.hi <= b.hi)

    out = compare_models(bundled("net-volvo-like.json"))
    strict_sharing = 0
    for (fid, _dest), (tight, intuit) in out["pairs"].items():
        assert hi_leq(tight, intuit)
        if fid in ("g1", "g2") and tight.hi < intuit.hi:
            strict_sharing += 1
    assert strict_sharing >= 1

    rng = random.Random(88)
    for _ in range(50):
        net = load_network(random_pef_network(rng))
        pairs = compare_models(net)["pairs"]
        for tight, intuit in pairs.values():
            assert hi_leq(tight, intuit)

    # a cross flow behind a shared bottleneck: bounded under the tight
    # aggregate, unbounded under the intuitive one
    shared = compare_models(load_network(shared_tail_network()))
    g_tight, g_intuit = shared["pairs"][("g", "T")]
    assert not is_unbounded(g_tight.hi)
    assert is_unbounded(g_intuit.hi)


def test_09_every_bundled_pair_is_sound(tmp_path):
    with bundled_dir().joinpath("pairs.json").open() as fh:
        pairs = json.load(fh)
    assert pairs
    for pair in pairs:
        out = tmp_path / "verify.json"
        argv = [
            "verify",
            "--scenario", f"bundled:{pair['scenario']}",
            "--network", f"bundled:{pair['network']}",
            "--model", pair["model"],
            "--out", str(out),
        ]
        if pair["lossless"]:
            argv.append("--lossless")
        assert main(argv) == 0, pair
        doc = json.loads(out.read_text())
        assert doc["sound"] is True, pair


def test_10_algebra_properties_hold_at_scale():
    t0 = time.perf_counter()
    rng = random.Random(31337)

    def rand_fraction(lo=0, hi=9, den=4):
        return F(rng.randint(lo, hi), rng.randint(1, den))

    def rand_curve():
        return ConcaveCurve(
            [(rand_fraction(), rand_fraction()) for _ in range(rng.randint(1, 4))]
        )

    for _ in range(3400):
        a, b = rand_curve(), rand_curve()
        c = convolve(a, b)
        t = rand_fraction(hi=12)
        assert curve_value(c, t) == convolution_value(a, b, t)

    for _ in range(3300):
        a = rand_curve()
        j1 = rand_fraction(hi=6)
        j2 = rand_fraction(hi=6)
        assert deconvolve_delay(a, j1 + j2) == deconvolve_delay(
            deconvolve_delay(a, j1), j2
        )
        t = rand_fraction(hi=12)
        assert deconvolve_delay(a, j1).envelope(t) == a.envelope(t + j1)

    for _ in range(3300):
        a = rand_curve()
        y = rand_fraction(hi=14)
        t = rand_fraction(hi=14) + F(1, 8)
        inv = lower_pseudo_inverse(a, y)
        assert ((not is_unbounded(inv)) and inv <= t) == (y <= a.eval(t))

    assert time.perf_counter() - t0 < 30
