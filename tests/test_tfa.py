import collections
import copy
import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from redcalc import tfa
from redcalc.cli import bundled_names, main, resolve_input
from redcalc.minplus import (
    UNBOUNDED,
    Affine,
    ConcaveCurve,
    RateLatency,
    curve_leq,
    is_unbounded,
    rational_str,
    to_jsonable,
)
from redcalc.redundancy import rbo_from_rto
from redcalc.tfa import (
    CONVERGED,
    DIVERGED,
    ITERATION_CAP,
    MODEL_INTUITIVE,
    MODEL_TIGHT,
    AnalysisReport,
    _Analyzer,
    _sweep_order,
    analyze,
    compare_models,
    vertex_delay,
)
from redcalc.topology import (
    POF,
    REG,
    DelayInterval,
    SpecError,
    VertexSpec,
    ep_vertices,
    load_network,
    network_from_json,
)
from netfixtures import (
    PEF_AT_F,
    PEF_PFR_AT_F,
    diamond_grid_network,
    fwd_flow,
    gamma,
    lossy_pof_network,
    mixed_interleaved_network,
    off_path_pof_network,
    random_cyclic_network,
    random_pef_network,
    reference_parent_network,
    relabeled,
    result_for,
    rev_flow,
    ring_network,
    ring_sites_network,
    series_pef_network,
    series_rings_network,
    shaped_after_overload_network,
    shared_tail_network,
    sibling_pef_network,
    steady_cycle_member_network,
    toy_network,
    toy_pof_pfr_placements,
    twin_ring_network,
)
from oracles import (
    compare_models_independently,
    curve_service_delay,
    disordered_by_paths,
    flow_cumulative_by_order,
    full_sweep_analyze,
    least_fixed_point_by_fractions,
    sum_by_segment_products,
    tarjan_sweep_order,
)
from test_golden import RINGS, SOLVED as SOLVED_RINGS

TOY_PEF_OUT = ConcaveCurve([(2, 4), (1, 8)])


def net(doc):
    return network_from_json(doc)


def _below(solution: list, floor: list) -> bool:
    """Does the solution lie below the floor at some unknown, so that the
    solve rejects it?"""
    return any(w < x for w, x in zip(solution, floor))


def _negative_coefficient(forms: list) -> bool:
    """Does one of the affine forms have a negative coefficient, so that
    the solve rejects the piece before eliminating?"""
    return any(c < 0 for w in forms if type(w) is Affine for c in w.coeffs.values())


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _count_calls(monkeypatch, *names) -> collections.Counter:
    """Calls to each of the named functions where `tfa` binds them."""
    counts = collections.Counter()
    for name in names:
        wrapped = getattr(tfa, name)

        def counted(*args, _name=name, _wrapped=wrapped):
            counts[_name] += 1
            return _wrapped(*args)

        monkeypatch.setattr(tfa, name, counted)
    return counts


def site_record(report, sites: str, vertex: str, flow: str) -> dict:
    """The record of `flow` at `vertex` among the report's `sites`
    (pef_sites, pof_sites or reg_sites)."""
    for s in getattr(report, sites):
        if s["vertex"] == vertex and s["flow"] == flow:
            return s
    raise KeyError((sites, vertex, flow))


class TestVertexDelay:
    def test_pure_delay_keeps_tech(self):
        v = VertexSpec("p", tech=DelayInterval(2, 5))
        assert vertex_delay(v, ConcaveCurve([(100, 100)])) == DelayInterval(2, 5)
        assert vertex_delay(v, None) == DelayInterval(2, 5)

    def test_served_port_adds_horizontal_deviation(self):
        v = VertexSpec("q", service=RateLatency(2, 0))
        assert vertex_delay(v, ConcaveCurve([(1, 8)])) == DelayInterval(0, 4)
        v = VertexSpec("q", service=RateLatency(2, 3), tech=DelayInterval(1, 1))
        # latency shifts the deviation, tech floor adds on top
        assert vertex_delay(v, ConcaveCurve([(1, 8)])) == DelayInterval(1, 8)

    def test_no_traffic_leaves_only_the_floor(self):
        v = VertexSpec("q", service=RateLatency(2, 3), tech=DelayInterval(1, 4))
        assert vertex_delay(v, None) == DelayInterval(1, 1)

    def test_overload_is_unbounded(self):
        v = VertexSpec("q", service=RateLatency(1, 0))
        assert vertex_delay(v, ConcaveCurve([(2, 1)])).hi == UNBOUNDED

    def test_capped_curve_service_matches_the_deviation_oracle(self):
        # a port whose service is a curve with a rate-0 cap: bounded while
        # the aggregate stays under the cap, and unbounded above it
        arrivals = {"f": [("1", "2"), ("0", "4")], "g": [("1/2", "1"), ("0", "3/2")]}
        service = [("3", "0"), ("1", "2"), ("0", "6")]
        segments = lambda pairs: {"segments": [{"rate": r, "burst": b} for r, b in pairs]}
        doc = {
            "vertices": [{"name": "P", "service": segments(service), "tech": ["1/4", "1/2"]},
                         {"name": "T"}],
            "edges": [{"from": "P", "to": "T"}],
            "flows": [{"id": fid, "source": "P", "destinations": ["T"], "edges": [["P", "T"]],
                       "arrival": segments(pairs)} for fid, pairs in arrivals.items()],
        }
        rep = analyze(net(doc))
        aggregate = sum_by_segment_products(*(ConcaveCurve(p) for p in arrivals.values()))
        beta = ConcaveCurve(service)
        grid = [Fraction(k, 8) for k in range(1, 81)]
        wait = curve_service_delay(aggregate, beta, grid)
        assert wait > 0 and rep.status == CONVERGED
        assert rep.vertex_delays["P"] == DelayInterval(Fraction(1, 4), Fraction(1, 4) + wait)
        # past the cap the port has no bound
        arrivals["g"] = [("1/2", "1"), ("0", "3")]
        doc["flows"][1]["arrival"] = segments(arrivals["g"])
        aggregate = sum_by_segment_products(*(ConcaveCurve(p) for p in arrivals.values()))
        assert curve_service_delay(aggregate, beta, grid) is None
        assert is_unbounded(analyze(net(doc)).vertex_delays["P"].hi)


class TestToyAnalysis:
    def test_eliminator_output_curves(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        assert rep.status == CONVERGED and rep.iterations == 1
        site = site_record(rep, "pef_sites", "F", "f")
        assert site["tight_curve"] == TOY_PEF_OUT
        assert site["intuitive_curve"] == ConcaveCurve([(2, 4)])
        assert site["reference"] == "B"

    def test_branch_delays_and_ete(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        assert rep.vertex_delays["C"] == DelayInterval(0, 1)
        assert rep.vertex_delays["D"] == DelayInterval(6, 7)
        assert result_for(rep, "f", "F").interval == DelayInterval(0, 7)

    def test_reordering_offsets_at_the_eliminator(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        site = site_record(rep, "pef_sites", "F", "f")
        assert site["rto_bound"] == 6
        assert site["rbo_bound"] == 14

    def test_intuitive_model_inflates_the_buffer_bound(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_INTUITIVE, lossless=True)
        site = site_record(rep, "pef_sites", "F", "f")
        assert site["rto_bound"] == 6
        assert site["rbo_bound"] == 16  # sum curve at 6: 2*6 + 4

    def test_per_flow_regulator_doubles_the_horizon(self):
        rep = analyze(net(toy_network(PEF_PFR_AT_F)), MODEL_TIGHT, lossless=True)
        assert result_for(rep, "f", "F").interval == DelayInterval(0, 14)
        site = site_record(rep, "reg_sites", "F", "f")
        assert site["verdict"].bounded
        assert site["verdict"].delay == DelayInterval(0, 14)
        assert site["rto_bound"] == 13

    @pytest.mark.parametrize("timeout", [None, 6])
    def test_resequencer_lossless_is_free(self, timeout):
        rep = analyze(
            net(toy_network(toy_pof_pfr_placements(timeout))), MODEL_TIGHT, lossless=True
        )
        assert result_for(rep, "f", "F").interval == DelayInterval(0, 7)
        site = site_record(rep, "pof_sites", "F", "f")
        assert site["required_timeout"] == 6
        assert site["required_buffer"] == 14
        assert site["output_curve"] == ConcaveCurve([(1, 8)])

    def test_resequencer_lossy_pays_the_timeout(self):
        rep = analyze(
            net(toy_network(toy_pof_pfr_placements(timeout=6))), MODEL_TIGHT, lossless=False
        )
        assert result_for(rep, "f", "F").interval == DelayInterval(0, 13)
        # the reference curve spread by the section jitter plus the timeout
        assert site_record(rep, "pof_sites", "F", "f")["output_curve"] == ConcaveCurve([(1, 14)])

    def test_resequencer_lossy_without_timeout_is_unbounded(self):
        rep = analyze(net(toy_network(toy_pof_pfr_placements())), MODEL_TIGHT, lossless=False)
        r = result_for(rep, "f", "F")
        assert is_unbounded(r.interval.hi)
        assert r.verdict == "unbounded"
        assert any("timeout" in n for n in rep.notes)
        assert site_record(rep, "pof_sites", "F", "f")["output_curve"] is None
        verdict = site_record(rep, "reg_sites", "F", "f")["verdict"]
        assert not verdict.bounded and not verdict.proven
        assert verdict.reason == "UNPROVEN_CONFIGURATION"

    def test_deadline_verdicts(self):
        rep = analyze(
            net(toy_network(PEF_AT_F, deadlines={"F": "7"})), MODEL_TIGHT, lossless=True
        )
        assert result_for(rep, "f", "F").verdict == "met"
        assert not rep.any_violation()
        rep = analyze(
            net(toy_network(PEF_AT_F, deadlines={"F": "13/2"})), MODEL_TIGHT, lossless=True
        )
        assert result_for(rep, "f", "F").verdict == "violated"
        assert rep.any_violation()


class TestRegulatorDispatch:
    def test_no_reordering_is_for_free(self):
        # same flow with and without a shaper behind a FIFO stretch
        def chain(placements):
            return {
                "vertices": [
                    {"name": "a"},
                    {"name": "b", "tech": ["1", "3"]},
                    {"name": "c", "tech": ["2", "2"]},
                    {"name": "t"},
                ],
                "edges": [
                    {"from": "a", "to": "b"},
                    {"from": "b", "to": "c"},
                    {"from": "c", "to": "t"},
                ],
                "flows": [
                    {
                        "id": "f",
                        "source": "a",
                        "destinations": ["t"],
                        "edges": [["a", "b"], ["b", "c"], ["c", "t"]],
                        "arrival": gamma(1, 2),
                        "lmin": 1,
                        "lmax": 1,
                    }
                ],
                "placements": placements,
            }

        reg = [
            {
                "kind": "reg",
                "vertex": "t",
                "flows": ["f"],
                "reference": "a",
                "mode": "per-flow",
                "shaping": {"f": gamma(1, 2)},
            }
        ]
        plain = analyze(net(chain([])), MODEL_TIGHT, lossless=True)
        shaped = analyze(net(chain(reg)), MODEL_TIGHT, lossless=True)
        assert result_for(plain, "f", "t").interval == DelayInterval(3, 5)
        assert result_for(shaped, "f", "t").interval == DelayInterval(3, 5)
        verdict = site_record(shaped, "reg_sites", "t", "f")["verdict"]
        assert verdict.bounded and verdict.delay == DelayInterval(3, 5)

    def _with_tail(self, placements):
        doc = toy_network(PEF_AT_F)
        doc["vertices"].append({"name": "W"})
        doc["edges"].append({"from": "F", "to": "W"})
        doc["flows"][0]["destinations"] = ["W"]
        doc["flows"][0]["edges"].append(["F", "W"])
        doc["placements"] = placements
        return net(doc)

    def test_downstream_regulator_still_sees_the_reordering(self):
        placements = [
            {"kind": "pef", "vertex": "F", "flows": ["f"]},
            {
                "kind": "reg",
                "vertex": "W",
                "flows": ["f"],
                "reference": "B",
                "mode": "per-flow",
                "shaping": {"f": gamma(1, 1)},
            },
        ]
        rep = analyze(self._with_tail(placements), MODEL_TIGHT, lossless=True)
        assert result_for(rep, "f", "W").interval == DelayInterval(0, 14)

    def test_resequencer_between_restores_fifo(self):
        placements = [
            {"kind": "pef", "vertex": "F", "flows": ["f"]},
            {"kind": "pof", "vertex": "F", "flows": ["f"], "reference": "B"},
            {
                "kind": "reg",
                "vertex": "W",
                "flows": ["f"],
                "reference": "B",
                "mode": "per-flow",
                "shaping": {"f": gamma(1, 1)},
            },
        ]
        rep = analyze(self._with_tail(placements), MODEL_TIGHT, lossless=True)
        assert result_for(rep, "f", "W").interval == DelayInterval(0, 7)

    def _interleaved_toy(self, q, with_pof=False, shaping_of=None):
        doc = toy_network(PEF_AT_F)
        flows = []
        ids = [f"f{i}" for i in range(1, q + 1)]
        for fid in ids:
            flows.append(
                {
                    "id": fid,
                    "source": "B",
                    "destinations": ["F"],
                    "edges": [["B", "C"], ["B", "D"], ["C", "F"], ["D", "F"]],
                    "arrival": gamma(1, 1),
                    "lmin": 1,
                    "lmax": 1,
                }
            )
        doc["flows"] = flows
        shaping = {fid: (shaping_of(fid) if shaping_of else gamma(1, 1)) for fid in ids}
        doc["placements"] = [{"kind": "pef", "vertex": "F", "flows": ids}]
        if with_pof:
            doc["placements"].append(
                {"kind": "pof", "vertex": "F", "flows": ids, "reference": "B"}
            )
        doc["placements"].append(
            {
                "kind": "reg",
                "vertex": "F",
                "flows": ids,
                "reference": "B",
                "mode": "interleaved",
                "shaping": shaping,
            }
        )
        return net(doc)

    def test_interleaved_at_threshold_is_provably_unstable(self):
        rep = analyze(self._interleaved_toy(13), MODEL_TIGHT, lossless=True)
        site = site_record(rep, "reg_sites", "F", "f1")
        assert not site["verdict"].bounded
        assert site["verdict"].proven
        assert site["verdict"].q_min == 13
        assert all(r.verdict == "unbounded" for r in rep.results)

    def test_interleaved_below_threshold_is_unproven(self):
        rep = analyze(self._interleaved_toy(2), MODEL_TIGHT, lossless=True)
        site = site_record(rep, "reg_sites", "F", "f1")
        assert not site["verdict"].bounded
        assert not site["verdict"].proven
        assert site["verdict"].q_min == 13

    def test_interleaved_heterogeneous_is_unproven(self):
        shaping_of = lambda fid: gamma(1, 1) if fid == "f1" else gamma(2, 5)
        rep = analyze(
            self._interleaved_toy(3, shaping_of=shaping_of), MODEL_TIGHT, lossless=True
        )
        assert not site_record(rep, "reg_sites", "F", "f2")["verdict"].bounded
        assert not site_record(rep, "reg_sites", "F", "f2")["verdict"].proven

    def test_resequencer_rescues_the_interleaved_queue(self):
        rep = analyze(self._interleaved_toy(13, with_pof=True), MODEL_TIGHT, lossless=True)
        site = site_record(rep, "reg_sites", "F", "f1")
        assert site["verdict"].bounded
        assert site["verdict"].delay == DelayInterval(0, 7)
        assert all(r.interval == DelayInterval(0, 7) for r in rep.results)

    def test_single_flow_interleaved_is_per_flow(self):
        # alone in its queue, the flow pays the per-flow penalty
        placements = copy.deepcopy(PEF_PFR_AT_F)
        placements[1]["mode"] = "interleaved"
        rep = analyze(net(toy_network(placements)), MODEL_TIGHT, lossless=True)
        assert result_for(rep, "f", "F").interval == DelayInterval(0, 14)
        assert site_record(rep, "reg_sites", "F", "f")["verdict"].delay == DelayInterval(0, 14)

    def test_bundled_interleaved_queue_is_decided_once(self, monkeypatch):
        # one verdict for the queue of four flows, its eight branch legs once
        counts = _count_calls(monkeypatch, "ir_after_pef_verdict", "path_delay_bounds")
        with resolve_input("bundled:net-ir-instability.json").open() as fh:
            rep = analyze(load_network(fh))
        assert counts == {"ir_after_pef_verdict": 1, "path_delay_bounds": 20}
        assert len({s["verdict"] for s in rep.reg_sites}) == 1 and len(rep.reg_sites) == 4

    def test_queue_legs_grow_linearly_with_its_flows(self, monkeypatch):
        counts = _count_calls(monkeypatch, "path_delay_bounds")
        queue = _Analyzer._queue_verdict
        legs, totals = {}, {}

        def counted(an, v, placement, flows):
            before = counts["path_delay_bounds"]
            verdict = queue(an, v, placement, flows)
            legs[len(flows)] = legs.get(len(flows), 0) + counts["path_delay_bounds"] - before
            return verdict

        monkeypatch.setattr(_Analyzer, "_queue_verdict", counted)
        for q in (2, 4, 8):
            counts.clear()
            analyze(self._interleaved_toy(q), MODEL_TIGHT, lossless=True)
            totals[q] = counts["path_delay_bounds"]
        # two branches per flow, each leg taken once for the whole queue
        assert legs == {2: 4, 4: 8, 8: 16}
        assert totals[8] - totals[4] == 2 * (totals[4] - totals[2])

    @pytest.mark.parametrize("resequenced", [False, True], ids=["fifo-g", "resequenced-g"])
    def test_in_order_flow_sharing_a_reordered_queue_is_unproven(self, resequenced):
        # g reaches the regulator in order, re-sequenced or not, but waits
        # behind f's reordered units in the one queue: no flow keeps a bound
        network = net(mixed_interleaved_network(resequenced))
        rep = analyze(network, MODEL_TIGHT, lossless=resequenced)
        for fid in ("f", "g"):
            verdict = site_record(rep, "reg_sites", "F", fid)["verdict"]
            assert not verdict.bounded and not verdict.proven
            assert verdict.reason == "UNPROVEN_CONFIGURATION"
            assert is_unbounded(result_for(rep, fid, "F").interval.hi)

    @pytest.mark.parametrize("source_tech", [("0", "0"), ("3", "3")])
    def test_branch_from_the_reference_starts_at_its_output(self, source_tech):
        # the S -> F leg is [0, 0] whatever S's own delay: same threshold
        rep = analyze(net(reference_parent_network(source_tech)), MODEL_TIGHT, lossless=True)
        verdict = site_record(rep, "reg_sites", "F", "f1")["verdict"]
        assert verdict.reason == "IR_AFTER_PEF_NO_POF"
        assert verdict.q_min == 15 and not verdict.proven

    def test_shaping_below_the_reference_curve(self):
        placements = [
            {"kind": "pef", "vertex": "F", "flows": ["f"]},
            {
                "kind": "reg",
                "vertex": "F",
                "flows": ["f"],
                "reference": "B",
                "mode": "per-flow",
                "shaping": {"f": gamma(1, "1/2")},  # burst below the source's
            },
        ]
        rep = analyze(net(toy_network(placements)), MODEL_TIGHT, lossless=True)
        verdict = site_record(rep, "reg_sites", "F", "f")["verdict"]
        assert not verdict.bounded and not verdict.proven
        assert result_for(rep, "f", "F").verdict == "unbounded"

    def test_shaping_rate_deficit_diverges(self):
        placements = [
            {"kind": "pef", "vertex": "F", "flows": ["f"]},
            {
                "kind": "reg",
                "vertex": "F",
                "flows": ["f"],
                "reference": "B",
                "mode": "per-flow",
                "shaping": {"f": gamma("1/2", 1)},
            },
        ]
        rep = analyze(net(toy_network(placements)), MODEL_TIGHT, lossless=True)
        verdict = site_record(rep, "reg_sites", "F", "f")["verdict"]
        assert not verdict.bounded
        assert verdict.reason == "RATE_OVERLOAD" and verdict.proven

    def test_resequencer_in_front_keeps_the_regulator_rate_deficit(self):
        placements = toy_pof_pfr_placements()
        placements[2]["shaping"] = {"f": gamma("1/2", 1)}
        rep = analyze(net(toy_network(placements)), MODEL_TIGHT, lossless=True)
        assert site_record(rep, "reg_sites", "F", "f")["verdict"].reason == "RATE_OVERLOAD"
        assert is_unbounded(result_for(rep, "f", "F").interval.hi)

    def test_resequencer_on_a_sibling_branch_keeps_the_penalty(self):
        # the POF at Q never sees the units that reach V out of order
        rep = analyze(net(off_path_pof_network()), MODEL_TIGHT, lossless=True)
        assert result_for(rep, "f", "V").interval == DelayInterval(0, 14)
        assert result_for(rep, "f", "Q").interval == DelayInterval(0, 7)

    def test_eliminator_on_a_sibling_branch_adds_no_penalty(self):
        rep = analyze(net(sibling_pef_network()), MODEL_TIGHT)
        assert result_for(rep, "f", "V").interval == DelayInterval(0, 1)
        assert site_record(rep, "reg_sites", "V", "f")["rto_bound"] is None

    def test_lossy_resequencer_wait_counts_inside_a_section(self):
        lossy = analyze(net(lossy_pof_network()), MODEL_TIGHT)
        assert result_for(lossy, "f", "V").interval == DelayInterval(0, 13)
        assert site_record(lossy, "reg_sites", "V", "f")["verdict"].delay == DelayInterval(0, 13)
        lossless = analyze(net(lossy_pof_network()), MODEL_TIGHT, lossless=True)
        assert result_for(lossless, "f", "V").interval == DelayInterval(0, 7)

    def test_resequencer_without_timeout_unbounds_the_sections_across_it(self):
        doc = lossy_pof_network()
        del doc["placements"][1]["timeout"]
        rep = analyze(net(doc), MODEL_TIGHT)
        assert is_unbounded(result_for(rep, "f", "V").interval.hi)


def _random_reordering_case(rng, fids=("f",)):
    """Random DAGs of the flows `fids` over one vertex order, with
    eliminators and re-sequencers at random places and one regulator for
    all of them (interleaved if they are two or more), as a network
    document; the loader may still reject it."""
    n = rng.randint(4, 8)
    names = [f"v{i}" for i in range(n)]
    reg_at = rng.choice(names[1:])
    reference = rng.choice([names[0], *names[: names.index(reg_at)]])
    placed = {(reg_at, "reg"): list(fids)}  # (vertex, kind) -> its flows
    edges = set()
    flows = []
    for fid in fids:
        fedges = set()
        for i in range(1, n):
            for p in rng.sample(range(i), min(i, rng.choice([1, 2, 2]))):
                fedges.add((names[p], names[i]))
        fedges = sorted(fedges)
        merges = sorted({v for _, v in fedges if sum(1 for _, w in fedges if w == v) > 1})
        for kind, vertices, odds in (("pef", merges, 0.7), ("pof", names[1:], 0.15)):
            for v in vertices:
                if rng.random() < odds:
                    placed.setdefault((v, kind), []).append(fid)
        sinks = [v for v in names if not any(u == v for u, _ in fedges)]
        flows.append(
            {
                "id": fid,
                "source": names[0],
                "destinations": sorted({*sinks, reg_at}),
                "edges": [list(e) for e in fedges],
                "arrival": gamma(1, 1),
            }
        )
        edges.update(fedges)
    extra = {
        "pef": {},
        "pof": {"reference": names[0], "timeout": "1"},
        "reg": {
            "reference": reference,
            "mode": "per-flow" if len(fids) == 1 else "interleaved",
            "shaping": {fid: gamma(1, 1) for fid in fids},
        },
    }
    placements = [
        {"kind": kind, "vertex": v, "flows": pflows, **extra[kind]}
        for (v, kind), pflows in sorted(
            placed.items(), key=lambda item: (item[0][0], ["pef", "pof", "reg"].index(item[0][1]))
        )
    ]
    return {
        "vertices": [{"name": v} for v in names],
        "edges": [{"from": u, "to": v} for u, v in sorted(edges)],
        "flows": flows,
        "placements": placements,
    }


class TestStructureWalks:
    def test_sweep_order_matches_tarjan(self):
        # union graphs with cycles, isolated vertices and disconnected parts;
        # no self-loops, which the loader rejects with their cyclic flow
        rng = random.Random(0x5CC)
        cyclic = 0
        for _ in range(500):
            names = [f"v{i:02d}" for i in range(rng.randint(1, 14))]
            p = rng.choice([0.05, 0.12, 0.25])
            flows = {}
            for u in names:
                for v in names:
                    if u != v and rng.random() < p:
                        flows.setdefault(rng.randint(0, 2), []).append((u, v))
            network = SimpleNamespace(
                vertices=dict.fromkeys(names),
                flows={k: SimpleNamespace(edges=e) for k, e in flows.items()},
            )
            components = _sweep_order(network)
            order, acyclic = tarjan_sweep_order(network)
            assert [v for comp in components for v in comp] == order
            assert all(len(comp) == 1 for comp in components) == acyclic
            cyclic += not acyclic
        assert 100 < cyclic < 450

    @staticmethod
    def _check_reordering_flags(fids):
        """Checks the regulator's ordering flags on 200 random networks
        against path enumeration; returns how many of them were out of order."""
        rng = random.Random(0x2E0)
        checked = reordered = 0
        while checked < 200:
            try:
                network = net(_random_reordering_case(rng, fids))
            except SpecError:
                continue
            (reg,) = [p for p in network.placements if p.kind == "reg"]

            def sites(kind, fid):
                return {p.vertex for p in network.placements if p.kind == kind and fid in p.flows}

            # a shared queue is out of order when the units of any flow are
            expected = any(
                disordered_by_paths(
                    network.flows[fid].edges,
                    reg.reference,
                    reg.vertex,
                    ep_vertices(network, fid) | sites("pef", fid),
                    sites("pof", fid),
                )
                for fid in fids
            )
            an = _Analyzer(network, MODEL_TIGHT, False)
            flags = [an._out_of_order[(fid, reg.vertex)] for fid in fids]
            assert flags == [expected] * len(fids), network
            checked += 1
            reordered += expected
        return reordered

    def test_regulator_reordering_matches_path_enumeration(self):
        assert 30 < self._check_reordering_flags(("f",)) < 170

    def test_shared_queue_reordering_matches_path_enumeration(self):
        assert 30 < self._check_reordering_flags(("f", "g")) < 170


class TestSweepBehavior:
    def test_feed_forward_settles_in_one_sweep(self):
        for doc in (toy_network(PEF_AT_F), shared_tail_network("4")):
            rep = analyze(net(doc), MODEL_TIGHT, lossless=True)
            assert rep.status == CONVERGED
            assert rep.iterations == 1

    def test_contractive_ring_converges(self):
        doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True)
        assert rep.status == CONVERGED
        assert rep.iterations > 1
        # symmetric fixed point: each served hop contributes [0, 2]
        assert result_for(rep, "f1", "t1").interval == DelayInterval(0, 4)
        assert result_for(rep, "f2", "t2").interval == DelayInterval(0, 4)

    def test_regulator_cuts_the_feedback_loop(self):
        placements = [
            {
                "kind": "reg",
                "vertex": "u",
                "flows": ["f2"],
                "reference": "s2",
                "mode": "per-flow",
                "shaping": {"f2": gamma(1, 1)},
            }
        ]
        doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4, placements=placements)
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True)
        assert rep.status == CONVERGED
        assert rep.iterations == 2
        assert result_for(rep, "f1", "t1").interval == DelayInterval(0, Fraction(27, 8))

    def test_iteration_cap(self):
        doc = ring_network([fwd_flow("f1", 2, 1), rev_flow("f2", 2, 1)], 4)
        # one pass leaves no room for the confirmation of a solve
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True, iter_cap=1)
        assert rep.status == ITERATION_CAP
        assert rep.iterations == 1
        assert any("fixed point" in n for n in rep.notes)
        # a cut-off iterate is no bound
        assert result_for(rep, "f1", "t1").verdict == "unbounded"
        # two passes are one sweep and the confirmation of its solve
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True, iter_cap=2)
        assert rep.status == CONVERGED and rep.iterations == 2
        assert result_for(rep, "f1", "t1").interval == DelayInterval(0, 6)

    def test_an_iteration_cap_that_is_no_int_is_rejected(self):
        network = net(random_cyclic_network(random.Random(7)))
        for cap in (2.5, "3", True, False, Fraction(3)):
            for run in (analyze, compare_models):
                with pytest.raises(ValueError, match="iteration cap must be an integer"):
                    run(network, iter_cap=cap)
        for cap in (0, -2):
            with pytest.raises(ValueError, match="iteration cap must be at least 1"):
                compare_models(network, iter_cap=cap)

    @staticmethod
    def _path_doc(ports, arrival, placements=()):
        """One flow s -> ports -> t, each port given as (name, rate)."""
        names = ["s", *(name for name, _ in ports), "t"]
        edges = list(zip(names, names[1:]))
        vertices = [{"name": "s", "tech": ["0", "0"]}, {"name": "t"}]
        vertices += [{"name": name, "service": {"rate": str(rate), "latency": "1"}}
                     for name, rate in ports]
        return {
            "vertices": vertices,
            "edges": [{"from": u, "to": v} for u, v in edges],
            "flows": [{"id": "f", "source": "s", "destinations": ["t"], "edges": edges,
                       "arrival": arrival, "lmin": 1, "lmax": 1}],
            "placements": list(placements),
        }

    def test_a_large_burst_on_no_cycle_is_a_bound(self, tmp_path, capsys):
        # a vertex on no cycle is processed once, so a burst of 2*10^9 out
        # of a fast port is a bound, not a sign of divergence
        doc = self._path_doc([("p", 4 * 10**9)], gamma(1, 2 * 10**9))
        rep = analyze(net(doc))
        assert rep.status == CONVERGED and rep.notes == []
        assert result_for(rep, "f", "t").interval == DelayInterval(0, Fraction(3, 2))
        target = tmp_path / "fast-port.json"
        target.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(target)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == CONVERGED

    def test_a_large_shaping_burst_on_no_cycle_is_a_bound(self):
        # the regulator at b shapes to a burst of 2*10^9, which b's port
        # reads once
        shaping = {"kind": "reg", "vertex": "b", "flows": ["f"], "reference": "s",
                   "mode": "per-flow", "shaping": {"f": gamma(1, 2 * 10**9)}}
        doc = self._path_doc([("a", 10), ("b", 10)], gamma(1, 1), [shaping])
        rep = analyze(net(doc))
        assert rep.status == CONVERGED and rep.notes == []
        assert result_for(rep, "f", "t").interval.hi == Fraction(2000000021, 10)

    def test_sites_come_from_the_final_sweep_only(self):
        doc = ring_sites_network()
        rep = analyze(net(doc), MODEL_TIGHT, lossless=False)
        assert rep.status == CONVERGED and rep.iterations > 1
        placed = sorted(
            (f"{p['kind']}_sites", p["vertex"], fid)
            for p in doc["placements"]
            for fid in p["flows"]
        )
        recorded = sorted(
            (sites, s["vertex"], s["flow"])
            for sites in ("pef_sites", "pof_sites", "reg_sites")
            for s in getattr(rep, sites)
        )
        assert recorded == placed
        timeout_notes = [n for n in rep.notes if "needs a finite timeout" in n]
        assert timeout_notes == ["re-sequencer for f3 at t1: lossy traffic needs a finite timeout"]

    def test_sites_come_in_placement_order(self):
        # the site records and timeout notes of one vertex follow its
        # placements as listed, g's before f's, not the sorted flows
        flows = [{"id": fid, "source": "S", "destinations": ["T"],
                  "edges": [["S", "A"], ["S", "B"], ["A", "M"], ["B", "M"], ["M", "T"]],
                  "arrival": gamma(1, 1), "lmin": 1, "lmax": 1} for fid in "fg"]
        vertices = [{"name": "S"}, {"name": "A", "tech": ["0", "1"]},
                    {"name": "B", "tech": ["6", "7"]}, {"name": "M"}, {"name": "T"}]
        placements = [{"kind": "pef", "vertex": "M", "flows": [fid]} for fid in "gf"]
        placements += [{"kind": "pof", "vertex": "M", "flows": [fid], "reference": "S"}
                       for fid in "gf"]
        doc = {"vertices": vertices, "edges": [{"from": u, "to": v} for u, v in flows[0]["edges"]],
               "flows": flows, "placements": placements}
        rep = analyze(net(doc), MODEL_TIGHT, lossless=False)
        assert [s["flow"] for s in rep.pef_sites] == ["g", "f"]
        assert [s["flow"] for s in rep.pof_sites] == ["g", "f"]
        assert [n for n in rep.notes if "needs a finite timeout" in n] == [
            f"re-sequencer for {fid} at M: lossy traffic needs a finite timeout" for fid in "gf"
        ]

    def test_overloaded_port_diverges(self):
        doc = shared_tail_network("3/2")  # below even the eliminator-aware rate 2
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True)
        assert rep.status == DIVERGED
        assert any("service rate at W" in n for n in rep.notes)
        assert result_for(rep, "g", "T").verdict == "unbounded"

    def test_analysis_is_deterministic(self):
        doc = random_pef_network(random.Random(7))
        a = analyze(net(doc), MODEL_TIGHT, lossless=True).to_json()
        b = analyze(net(doc), MODEL_TIGHT, lossless=True).to_json()
        assert a == b


def _analysis_kwargs(flags):
    """analyze() keywords of the CLI analysis flags in `flags`."""
    value = dict(zip(flags, flags[1:]))
    return {
        "lossless": "--lossless" in flags,
        "iter_cap": int(value["--iter-cap"]) if "--iter-cap" in value else None,
    }


@pytest.fixture
def visits(monkeypatch):
    """Counts each vertex processing of the analyzer, by vertex."""
    counts = collections.Counter()
    process = _Analyzer._process_vertex

    def counted(self, v):
        counts[v] += 1
        return process(self, v)

    monkeypatch.setattr(_Analyzer, "_process_vertex", counted)
    return counts


class _LoggedReads(dict):
    """A dict that records the keys read through [] and get() in `log`, each
    as `(flow, key)` when it is given the flow whose view it is."""

    def __init__(self, data, log, flow=None):
        super().__init__(data)
        self.log = log
        self.flow = flow

    def __getitem__(self, key):
        self.log.add(key if self.flow is None else (self.flow, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(key if self.flow is None else (self.flow, key))
        return super().get(key, default)


class _ReadLog:
    """The keys read during each open call: a read counts in every call
    open at that moment, so a call nested in another counts in both."""

    def __init__(self):
        self.open = []

    def add(self, key):
        for reads in self.open:
            reads.add(key)

    def watch(self, call, *args):
        """`call(*args)` and the keys read while it ran."""
        self.open.append(set())
        try:
            return call(*args), self.open[-1]
        finally:
            self.open.pop()


def _upstream(flow, v) -> set:
    """The vertices with a path to v in the flow, v left out."""
    seen, todo = set(), [v]
    while todo:
        for p in flow.parents[todo.pop()]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def _watch_reads(monkeypatch, on_process, on_post=None):
    """Patch the analyzer so that each processing of a vertex calls
    `on_process(an, v, read)`, and each curve the exact solve rebuilds calls
    `on_post(an, v, read)`, with `read` the (flow, vertex) pairs of the
    curves and port delays it read of other vertices.  A processing builds
    its curves through `_post` too; what those read counts in the
    processing, and the solve's rebuild is the `_post` called outside one."""
    log = _ReadLog()
    process, post, delays = _Analyzer._process_vertex, _Analyzer._post, _Analyzer._delays

    def logged_process(an, v):
        if not isinstance(an.curves, _LoggedReads):
            an.curves = _LoggedReads(an.curves, log)
        changed, reads = log.watch(process, an, v)
        on_process(an, v, {(fid, x) for fid, x in reads if x != v})
        return changed

    def logged_post(an, fid, v):
        rebuilt = not log.open
        curve, reads = log.watch(post, an, fid, v)
        if rebuilt and on_post is not None:
            on_post(an, v, {(g, x) for g, x in reads if x != v})
        return curve

    monkeypatch.setattr(_Analyzer, "_process_vertex", logged_process)
    monkeypatch.setattr(_Analyzer, "_post", logged_post)
    monkeypatch.setattr(
        _Analyzer, "_delays", lambda an, fid: _LoggedReads(delays(an, fid), log, fid)
    )


def _random_cyclic_cases(count):
    """(network document, analyze keywords) of `count` seeded random cyclic
    networks; a small iteration cap cuts some runs off."""
    rng = random.Random(0xC7C1E)
    for _ in range(count):
        doc = random_cyclic_network(rng)
        kw = {
            "model": rng.choice([MODEL_TIGHT, MODEL_INTUITIVE]),
            "lossless": rng.random() < 0.5,
            "iter_cap": rng.choice([3, 100, 100]),
        }
        rng.randrange(2)  # the draw of a cap that no longer exists keeps the stream
        yield doc, kw


def _beside_the_grid(doc, prefix: str) -> dict:
    """`diamond_grid_network(32, 12, 12)`, Diverged on the affine piece of
    each chain, with a disjoint copy of `doc` beside it, each vertex name
    and flow id of the copy prefixed with `prefix`."""
    p = prefix
    grid = diamond_grid_network(32, 12, 12)
    grid["vertices"] += [{**v, "name": p + v["name"]} for v in doc["vertices"]]
    grid["edges"] += [{"from": p + e["from"], "to": p + e["to"]} for e in doc["edges"]]
    grid["flows"] += [{**f, "id": p + f["id"], "source": p + f["source"],
                       "destinations": [p + d for d in f["destinations"]],
                       "edges": [[p + u, p + v] for u, v in f["edges"]]}
                      for f in doc["flows"]]
    for placement in doc["placements"]:
        placement = {**placement, "vertex": p + placement["vertex"],
                     "flows": [p + fid for fid in placement["flows"]]}
        if "reference" in placement:
            placement["reference"] = p + placement["reference"]
        if "shaping" in placement:
            placement["shaping"] = {p + fid: c for fid, c in placement["shaping"].items()}
        grid["placements"].append(placement)
    return grid


def _ring_beside_the_grid(prefix: str = "z") -> tuple:
    """(a contractive ring, the diverging grid with that ring beside it,
    renamed with `prefix`): the prefix `z` puts the ring first in sweep
    order, `0` puts it after both chains."""
    ring = ring_network([fwd_flow("f1", "2/3", 1), rev_flow("f2", "2/3", 1)], 4)
    return ring, _beside_the_grid(ring, prefix)


def _solved(rep) -> bool:
    """Were the port delays of a cyclic component solved exactly?"""
    return any("solved exactly" in n for n in rep.notes)


def _against_the_grid(network, **kw):
    """The reports of `analyze` and of the grid reference
    (`full_sweep_analyze`, which keeps no exact solve), checked against
    each other.  A run whose port delays were never solved exactly is
    byte-identical to the exact global sweep (the reference with its
    rounding off).  A solved run reports Converged wherever the grid
    reference does, every lower end equal and every upper end at most the
    reference's (a cut-off reference holds no bound on its cycles)."""
    rep, old = analyze(network, **kw), full_sweep_analyze(network, **kw)
    if not _solved(rep):
        assert rep.to_json() == full_sweep_analyze(network, **kw, grid=False).to_json()
        return rep, old
    assert old.status != CONVERGED or rep.status == CONVERGED
    assert [(r.flow, r.destination) for r in rep.results] == [
        (r.flow, r.destination) for r in old.results
    ]
    pairs = [(r.interval, o.interval) for r, o in zip(rep.results, old.results)]
    pairs += [(rep.vertex_delays[v], d) for v, d in old.vertex_delays.items()]
    for new, ref in pairs:
        assert new.lo == ref.lo
        assert new.hi <= ref.hi
    return rep, old


# SHA-256 of json.dumps of the `results` of each _random_cyclic_cases(60) run,
# and of the whole report of each Converged run, by index; recorded before
# the regulator verdicts moved out of the fixed point, and still those of the
# grid reference `full_sweep_analyze`, but for the half of the runs that set a
# burst cap of 6, re-recorded when that cap was deleted
RANDOM_CYCLIC_RESULTS = [
    "5fef99a90c8b1c39930476ea20abdc0d74f5e01e345da98555f4394252da8045",
    "4962f31841699b64fab8775b483f26c6bc9ad0122dfa98e81c2c64db523bc781",
    "46ff5a2bacbee196909725245f72c0c66a37c5d2046261fbd29de1497d58acff",
    "cee5eea555cae9ef59c86d15afe121d1f6f007b446e5352ec00222dde3312b81",
    "eb7f818834cf5e629ad874f70ba1525a7ed21cc3bf4566b0f980bb4be2786c15",
    "f05d6a3d5d243695ab78481884799c83f53bbadb19c389b7a0d0bb6ef1ea613f",
    "11c14eedc95ecd070c3e7d5415a27522266713c30642b732eab6d43688521a27",
    "be2a4d99a25c3449a1b67c0fd0072f723461c2a5580afd610e0cb5ecacac987e",
    "56a50610d68d8d652666dd27e70982f219b6ea52b6a894c4198be39443c16a96",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "be2a4d99a25c3449a1b67c0fd0072f723461c2a5580afd610e0cb5ecacac987e",
    "0227e2e77297500b02afc7e1046fd43fd8a4aa36fb3ee8f6ddd28b2b7c1bf5be",
    "8b4129ebe6a352cb3851af7765ddff1a199cdc64ae8a4aa7339f22261166bdc9",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "0939fe7bdfaa30769403365710bfb8aa1b834e925adb89b8b648f156cfb60452",
    "14a7f3bdf6249615efd9191a575b948b93cd246f2f37b676aab5bbba6cefb58c",
    "be2a4d99a25c3449a1b67c0fd0072f723461c2a5580afd610e0cb5ecacac987e",
    "d5e3b0416e586186ae176455d1c735fb5fbcec8b29ebe0a5c4670ba2770aae36",
    "7d806893779d4013cd7fddcb157b8a35ca98e785841d4fc74e465448506e4acf",
    "d3829770c3e402f80d69d074e7cf6f5f6b5d388e3c54702dbbad49683246417e",
    "44a416d8c44a6c776fae25ee33bb03f17acaaf86b85fcd41b9f35ef2d5b413b0",
    "dc856deeb11b4b0b532240d316292951be4395c2b19d1023399a65547a45045c",
    "11b0ed0a556492dfc666fa40d41211fc3bb5a2b7b2d0483b828fcf418663aa5d",
    "4a7c38098446587d6ec850b19176291e4d07ecc69f62e3fc61dc5e5e62cf2776",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "072d7bf74bc60c678cb727f1367b60fcc33c805967887c5946fea195a9701872",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "2cbb5cdaade78f1e6218ff34883024b8b76e8289f1b0e4d592748b2f8c9fb3b2",
    "53c0a454bd4436acbfd05875ac232c13688fad89a10950bde750294c2f58bb8f",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "53c0a454bd4436acbfd05875ac232c13688fad89a10950bde750294c2f58bb8f",
    "0c6afe7518f9aa34ce48f0ad5f3b747c65244e1cf9706794d0c0325c9bd99e7b",
    "096641741cb0502511b3ab81a69ca669634c2a9c1b1ba3949f3342489e537512",
    "8524ccea0b8b2903f9b0b34846473dc2138ca34d07eb25c1cb777e8f534ce4c1",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "2a7dd2446513eea1a45d83656de4f076c809c59b3da04e8114d87447ca8143c5",
    "8407e91303a3354b068ab35f2c95d5605ecd918601a207f526d7f8c1e6ee069e",
    "7d495e2703d546e90144351bcc58e33b8be5c3195370346c03c0b92cadb49a8b",
    "24a613be843b9f9c9ca39ca7a2c6c5eb1382d241856b6f8b357e2b39a2db053b",
    "2f7f03d7a272f585400408937bf5e2a89c9326aa218a7f9f17e1334aa9caa031",
    "53c0a454bd4436acbfd05875ac232c13688fad89a10950bde750294c2f58bb8f",
    "b50ae1a955355b575b22fa2da6380c65637980bf42df2113885b8a43fb3b40ed",
    "4089613ec2263ace1b067adfefb8cba26289d5145c52c608f5fa38648c9e73d8",
    "2a7dd2446513eea1a45d83656de4f076c809c59b3da04e8114d87447ca8143c5",
    "9a26bb6c3b560cee6cb07a1a16b4ca0940e907af948e35fc2cce1b0597aff6d0",
    "4f954726a4dacc6bc4e0968993718ee6b7d4b6ca4ffef25f552a32f1b8b82693",
    "53c0a454bd4436acbfd05875ac232c13688fad89a10950bde750294c2f58bb8f",
    "0380900377e384bd4a1c334572735a42624d412efd559a95b9d79047677107f1",
    "67d1facf9b7bb6623803546d06af975c9c27dfc9a8465441b280f24c60f3af3f",
    "3f2d41da6fd9e0c3bc6e661a95625e7f83f6a166025cc344b2fb79ffc23dc535",
    "096641741cb0502511b3ab81a69ca669634c2a9c1b1ba3949f3342489e537512",
    "5fef99a90c8b1c39930476ea20abdc0d74f5e01e345da98555f4394252da8045",
    "01237cc9a45f44145d55783f80ef5e7864f35dac5608e26357757acc281c07bd",
    "a09280d0f1dcd7ba03802dba66afb944753628069a780a4e9933d20eeb787703",
    "90d98e516e89668373ddd685c3b7eb8d4f941f4cf56863d6b1913be0d7b62802",
    "0679e84bcb927265b5b42b3d765411711c77123ae6f050e799fd4ed79cdeaabc",
    "b36d6f5e18ca822fb2d33fa71f077ad619ae779b05d91b4789cc1747a53d192a",
    "f5e281c8c25e165bce65a39510907b86d707f196ae625a2c9ead2023ee1f854e",
    "8164898715a308e7969e23800c3edc6828ef4637d4a54a82d7c08011f71ed437",
    "18329acaaef949f00b9e2f027f41eab4070e2138ef6a88ce8b7a1a33ea421c40",
]
RANDOM_CYCLIC_REPORTS = {
    1: "d63b3bdd00f375cc827a82886450c83ada4bb5e76bb88474dd5ebcd3840dcac6",
    2: "50a3e266400083a2d1301c92f3cdd060c585abcecebfc4b8ddcf07b1b3ef5862",
    3: "fe3248f78cc0c0c7828a2105ccfe3badcf4cefb25df60ac90db94876c5661edc",
    4: "5c9e00ca2fd4b749db45d709f1ad8ca1e090e7be307694d58d58fbed4ee1388a",
    5: "7728c3f2c5d68ac871f452fcaf72b32d856732dc8e1c69c17c360ec8d7ca4f95",
    6: "7331bacb2347afc81379202eb85f1d471d568616a458ea8dfc59805059027b75",
    8: "bbd383affeb2a09663896a3f94ca4d2c96a4aadbff14f2bb428d97b42ba36489",
    11: "e97f1c0f07d53d431a49d33eac829593c6d02c35a2c2710c5e9faaeef15fa4f4",
    12: "571c265d6963be003fba4e39d4258cede2e845e6bfdde45f3a79b71880e03b5e",
    14: "b06b001cdeb948eff8a1c5843aeb756065f35aef6ca6e76c5e43046301971876",
    15: "f1707879d4db2dbf5dc7f4fc7bc809082d7ad42ba7fa995b1fdb2b0d94fbea79",
    17: "03fea091140254db69359edfa6d72feab3bf8630d4eaa0ad1d234b5d31c0e5ff",
    18: "3b8d84007a4b7ed36035dd7e8ccc369faaf0be7c5497cdb2d2c61474c0a6b63e",
    19: "748aa9f58796812753ac5e1ed211de4d73f3dbd8e77c78ceb5891bf649833b6b",
    20: "2eab736752df95478eac491ce0515ae0498b505154a85c9d62b08c264cf792f0",
    21: "287c4b3d977e558aaba6af2660fad9e545ab69774b8de130cfdfc51c3010bb6d",
    22: "9073cac61fb67eb4f10514a2030c854631a2f8e3677b9d644734a718eea81087",
    23: "8ab6010da36a60725fd8b0798c74d7f18c89a777a04a2a644eb5a3db9a98c037",
    25: "ff93fbab9aea3a6ee360913b9734c10d0a3057503f39368286d0cd551881f120",
    27: "0e58ffe12f987b71b7c60b5af5af15d966762fee3fbaf8e9d85bd4cf630ac29f",
    31: "54fb8a52f567f4c1eb821c1d9e23f77d5f242ab91f088ecafc8429bc791aff81",
    33: "01c61bec5fb8a7a1a0804426c376a6a8baa2dc4768d50ba7aaee7f1912fa45be",
    36: "b0b4771f6783799814479ec7bc2db4b98aebe23a1b60268fa38bd77fccdb216b",
    37: "b05d3a0c9729c28b84171ddc656f8747cf4ddd0514144cc0b75d5020b4d7ccac",
    38: "5c15e87bf044acd05a32bab2a467b65eef11b5b7f7fddeeab0dd1b52b48778fa",
    39: "fce2767d26024c6c39c70c93ecd28156519fe61e99c7eb5b8164ef6ac630e486",
    41: "e0242c44333b871ffc7f495f0441fe3bb30c134ca8087c8e94d9502b7d4ad535",
    42: "6936751359c30012d1339e296e69f81ba8394d4e18460f2cacfd327f5d77f8ef",
    44: "ea0bc96244514bb867dd69e110c22eb5af816f6afde75f5adea9d7257c9b64be",
    45: "9b6a1b1d4a70c90d6d016500f4b0f54fe75d5ab73c225b2c6c44db095633df87",
    47: "5ba5d08270b3b93d24d0a393bb259e53b92d9288e73ff464c57a23fb1470db90",
    48: "bbd68496004e269c47301f37fb3fd769dab28e737ff90e3c521ac040921e76da",
    49: "263485aaf72848b2fb8d8018415b22015329322477727ba8eb0c31470df97308",
    52: "5be4a22de4770b04adb9077b943f9ceea41a7450b967d815824ed14250065765",
    53: "529a2512e4e2820cd6883105a79d9c7dc549fd0ae36b9c7dc95462d307009e4c",
    55: "bc6c2c91590fa00d7c97892e4cc0d666b2e1fd8284aec11268cb66594661592e",
    56: "e12de2e285dfd84361545a976fe2b090cc2c790f8385373110bd05223d18dce8",
    57: "65a24897bb370e8e0d773e6dec4c0cf6db6fdbfc36723008137f2390b0498012",
    58: "0d132057011252a2fd02ebc7a4542e8726d4eb6e3ffb64106c7263f193746c34",
    59: "ba3fabbf1d19eb2723ee6467843986a1cc060b384d60c753dbe4ae7e1390be3b",
}


def _stall_cases():
    """(network, analyze keywords) of the first 25 `random_cyclic_network`
    draws from a second seed, each tight and intuitive, lossy and lossless,
    at the default caps."""
    rng = random.Random(0x5EED)
    for _ in range(25):
        network = net(random_cyclic_network(rng))
        for model in (MODEL_TIGHT, MODEL_INTUITIVE):
            for lossless in (False, True):
                yield network, {"model": model, "lossless": lossless}


# SHA-256 of json.dumps of the `results` of each _stall_cases() run, recorded
# before the stall rule; the runs at STALL_CAPPED ended IterationCap then
STALL_CAPPED = [64, 65]
STALL_CASE_RESULTS = [
    "b9dcdedafb5abf7bf9f9d47502867d012d5cfe50fba35a0a90ff3de60a9f31e9",
    "87bcb2d835179222e147f86a032c0cdd64088d182da211aaed75ba1c551c24af",
    "b9dcdedafb5abf7bf9f9d47502867d012d5cfe50fba35a0a90ff3de60a9f31e9",
    "87bcb2d835179222e147f86a032c0cdd64088d182da211aaed75ba1c551c24af",
    "2ded36b6c077ffea5b8ecf7abc2f2fa8c9427eb42f4acac4be8072e45faf0e8d",
    "2ded36b6c077ffea5b8ecf7abc2f2fa8c9427eb42f4acac4be8072e45faf0e8d",
    "1f25b407c924ac0774a542b3dffbd276ca63903976855818bc5b431e0c0bf01b",
    "1f25b407c924ac0774a542b3dffbd276ca63903976855818bc5b431e0c0bf01b",
    "3cbe10a8ee8d94bbba9c6daa78997c4c0011bdb8780f96e56f5e746abf48899a",
    "3cbe10a8ee8d94bbba9c6daa78997c4c0011bdb8780f96e56f5e746abf48899a",
    "4856deb37030bf21dd64d1c4c4bb6159bc90464e484a4e9da205f0de855e31b6",
    "4856deb37030bf21dd64d1c4c4bb6159bc90464e484a4e9da205f0de855e31b6",
    "80cb25588d8bb4de6427a93c8626ebbaa95ac459b477589d0c475d8a1a5e17bd",
    "80cb25588d8bb4de6427a93c8626ebbaa95ac459b477589d0c475d8a1a5e17bd",
    "80cb25588d8bb4de6427a93c8626ebbaa95ac459b477589d0c475d8a1a5e17bd",
    "80cb25588d8bb4de6427a93c8626ebbaa95ac459b477589d0c475d8a1a5e17bd",
    "a2cdb9d1ac0d411d21dc054463dd4c8b139cade4292a816fd2b5ea72d6bca4d5",
    "e858ae2a01d9ff02093295918715b0db2ee88dc9c31ed635e57345776b86de78",
    "a2cdb9d1ac0d411d21dc054463dd4c8b139cade4292a816fd2b5ea72d6bca4d5",
    "e858ae2a01d9ff02093295918715b0db2ee88dc9c31ed635e57345776b86de78",
    "28643be0c4fd4a834f20393718fc68517949823d00cfef25333d8e57b55ff296",
    "a66ebac0d7b56d5a77ad6a6a7e5da0f71e565288b526293f5cfca0cb7f51a78e",
    "5d7fbdc4af10b751b876c7320667c734afb1f4594379cd331c943d74c4221b48",
    "07339abd98c45afed7f661a8e06169cb5e5b7560028deabd2c0a5b365ec09d05",
    "76cced87e55a51715c049ae1a0f4a127512516d186d94e41d0883157de063241",
    "76cced87e55a51715c049ae1a0f4a127512516d186d94e41d0883157de063241",
    "5bfb387e68cba0fce881ba76e5992c0c28f65c9f37259b8e0789c7e4e51e3e0c",
    "5bfb387e68cba0fce881ba76e5992c0c28f65c9f37259b8e0789c7e4e51e3e0c",
    "5b7dbb505d458f9251af6c428cd2afb141404498f31d4f79e32942612bb9ba38",
    "fc05e1d08bc69e1d32d89542bbf42ff5b0b0aa5c17e45c412f505488831221d6",
    "97845627079090ae9741733d74baaa5500a78588aab683d41a85771589e1ce78",
    "5895a595a2b471c651f9ac517fd312402375db2f1a76501a7c5f1f98f8ad01e7",
    "6fe92bd4414eb951e7531cf41e4bcdad25f05d1ee485ab9e8abc2383eb71d86e",
    "3b8ca0d6c5b805fe406ba5e755c3a4c16f27ca6c346b2343ae9f35068133a447",
    "6fe92bd4414eb951e7531cf41e4bcdad25f05d1ee485ab9e8abc2383eb71d86e",
    "3b8ca0d6c5b805fe406ba5e755c3a4c16f27ca6c346b2343ae9f35068133a447",
    "28e6bd2cdf822fa3d0b034b5d7fbfcca81f7cfdc02b47760a2c5d03752ad2763",
    "93eda119076e879aac89f8a2eb01062c5974de3fc9c9bbc3ebed7f012cb179a2",
    "f93316c57234b3206211fcff1a265e55d3f38d06b1a67f61821b620366c3f8ae",
    "06d506a6921879d4ee5d93c4eb11f5f02d2abadeae8a3ae85d9a10b2a0c5f1ba",
    "d82dd9cc332fd717168a964ec90df77c014cf6bd46540ff625bb940ee92dddbe",
    "f4093addab9b3d655605a385f608ac2eddb21ac5b8490a9f8ca0215bc4759e6d",
    "5273edaba9264cfa8ec6e0085e3abc800ba9a645c7a6766582783325b4519d75",
    "c882521b3d0b0fc6df1472724745ab5629f95f4772ba7874d874bacdf79edc89",
    "c38b9aac19b971549ae821b497a3638cd76600fca0ca9b45f2039a013e417573",
    "c38b9aac19b971549ae821b497a3638cd76600fca0ca9b45f2039a013e417573",
    "5ea7b5ea5629f225e63cdd328d29c1f6155954f3c041ab38699cf32f7ee2824c",
    "5ea7b5ea5629f225e63cdd328d29c1f6155954f3c041ab38699cf32f7ee2824c",
    "469100b6b53152c74b0426c9e9bced6ca0e30503715ac85f2ccecd255873e372",
    "469100b6b53152c74b0426c9e9bced6ca0e30503715ac85f2ccecd255873e372",
    "3abad740384208fd49a39d92a2fb1a156745104fd0de819c204456812d23ba23",
    "3abad740384208fd49a39d92a2fb1a156745104fd0de819c204456812d23ba23",
    "7f17eed437ce710c46505790b030a1ac24efb545d9d257eeec63ae0b8957b87a",
    "7ab3d6b238fc0a81dbe0b045a8c1a216e4cd53b14b6d2bbb579ac5efe3f6a9a3",
    "f13a29138401c3b6fe61dcfd98a6a155bba98b921b50db079ac12a4be01491ee",
    "638c99fbfb87b174d10b604732610f60c8894b96bb96fe191142e26c10bca2d3",
    "63175c97efdb631af35c893900664f13f69a746d6dfd1ab4c7d7fdc04ac5aaba",
    "4e2d566b558dd203cc5eedaf36a1bd279fc80a5d03f741e06c49080ebdf469cf",
    "63175c97efdb631af35c893900664f13f69a746d6dfd1ab4c7d7fdc04ac5aaba",
    "4e2d566b558dd203cc5eedaf36a1bd279fc80a5d03f741e06c49080ebdf469cf",
    "ffc4f2e1834dfe327f1b2591247a2c87b9d68be75baa39e42cc9e3770c23cbd2",
    "edbe3a7b58e4359866aae9a2bb292eb0dd8694cb42296f1e196f8f3530cae106",
    "ffc4f2e1834dfe327f1b2591247a2c87b9d68be75baa39e42cc9e3770c23cbd2",
    "edbe3a7b58e4359866aae9a2bb292eb0dd8694cb42296f1e196f8f3530cae106",
    "ac5105e589ad5be4a9fa43ff081386f0d0eb40a0b351e384d9a9b1ee4424bc9e",
    "ede5ea920f5269e52c98804cfa4444ba40a22c777bde250da4c3afced55d6dbf",
    "8af8ae0f7905426411b44df88f266d52d054ebf7fc64ae8db03223fc40bba579",
    "1b022a299853ba7e67007bf99dcfe8027dad2eff6b8159efcf5b9fb9a3841123",
    "d852716df7d97b239ac4599cb216aa5e087d3579ef287042e5e1c4c1a040fd18",
    "d852716df7d97b239ac4599cb216aa5e087d3579ef287042e5e1c4c1a040fd18",
    "66c3a92954ebd4c33b1950b60731c32161ccd3bf09a6b4ed956154417ade2c4f",
    "66c3a92954ebd4c33b1950b60731c32161ccd3bf09a6b4ed956154417ade2c4f",
    "2351595f90143a0c81a2562d7290eb8a8ed3ad0a7c74448f2a1d8047b3a3202c",
    "a5edf7093d037d498cde198e982fb96f2db265853acf3f805e990d27769cf69f",
    "2351595f90143a0c81a2562d7290eb8a8ed3ad0a7c74448f2a1d8047b3a3202c",
    "a5edf7093d037d498cde198e982fb96f2db265853acf3f805e990d27769cf69f",
    "8c3f4613eeddad46990e1957adffbe7670e1e26fdc5db287f3dbc89aa7adbeca",
    "8c3f4613eeddad46990e1957adffbe7670e1e26fdc5db287f3dbc89aa7adbeca",
    "42e7232ef234eb6c7ddeeff1c42da83c8f3a08b6d81f3eeae58b927403bb019b",
    "42e7232ef234eb6c7ddeeff1c42da83c8f3a08b6d81f3eeae58b927403bb019b",
    "93893a595f1a5421bc8c33144eae538c32cffe69aa2179addb2bf1b29e006581",
    "93893a595f1a5421bc8c33144eae538c32cffe69aa2179addb2bf1b29e006581",
    "93893a595f1a5421bc8c33144eae538c32cffe69aa2179addb2bf1b29e006581",
    "93893a595f1a5421bc8c33144eae538c32cffe69aa2179addb2bf1b29e006581",
    "23597fd950b451a03d80f9989346015b1ca7716c42c2e7877ec077637d7ec6ac",
    "23597fd950b451a03d80f9989346015b1ca7716c42c2e7877ec077637d7ec6ac",
    "23597fd950b451a03d80f9989346015b1ca7716c42c2e7877ec077637d7ec6ac",
    "23597fd950b451a03d80f9989346015b1ca7716c42c2e7877ec077637d7ec6ac",
    "a694d8a241f621148e348fa3d34dece8d483c7a4c7924ea72f33136e0140844e",
    "89fb14e23784c541227909c7af7ea7ea10ed809bee7d9095e0bd5f1e8d3e1811",
    "82a642c73949eabad07c6643ca732ccf7f679fa36103ab986218f375953ef200",
    "ea461f97640639c705d9b90d5d4f0f2de341538ded0ecd0fec971da5ee2a7de2",
    "53c0a454bd4436acbfd05875ac232c13688fad89a10950bde750294c2f58bb8f",
    "82a9845de427317b4d4e158f8b8ee75da2ef8e30b9a6f7bf029d4c962c79a7b4",
    "53c0a454bd4436acbfd05875ac232c13688fad89a10950bde750294c2f58bb8f",
    "542ef77f78ce50736564d4808700f3d2710628329c1f0b75ac9bd236ce48d825",
    "93955b450e0ba94570969a7a82be7abcef32b45a80554132bbf2d20b2b0c542d",
    "ac9f955a2762ac045cef228296f84dd249d2c2016dbdef2864515d7c755fe474",
    "93955b450e0ba94570969a7a82be7abcef32b45a80554132bbf2d20b2b0c542d",
    "ac9f955a2762ac045cef228296f84dd249d2c2016dbdef2864515d7c755fe474",
]

# SHA-256 of json.dumps of the whole report of each _random_cyclic_cases(60)
# run whose port delays are solved exactly, by index, re-recorded as above;
# run 22 is solved from a second read of the affine piece, at a solution the
# first read rejected
RANDOM_CYCLIC_SOLVED = {
    0: "4355ea8f866475ffcfbf49b187b58ddcf0e61905a1aeeafa9007b5d9353ccc9f",
    1: "01957b7334dadb3ff8909e6c98204ca2c17371fa5d304d22301c4a0a88a8ed7a",
    2: "9bed7efe2e1384c76faef108435474e0ce208fed6994a58aaab797ff491594a1",
    3: "b27bc06b1b7a9ae4d1a5e1fd6f975c63504b1cb5f84aabeb1082e69c18606a02",
    4: "9d773d3929a77b6936a18b8f4373161144ec6c1124d5ed183fe2673725873095",
    5: "0eb4505ff419da12d2755d85110c0f7de59276831941760cce41e31f34426779",
    6: "9819cf0e0b29e0d9a4995549581e9b776fb9195328362c71f7082ea3bec67ee9",
    7: "7e65f7a48a8268cd33b9472788fda35015868bb035921d659a8fc51d07e87048",
    8: "ce1d94f42825eb46e47668d680dea921440fb3bdfde2fe2b3f0d092b2208d9c4",
    9: "ee1c7a5d36edb5d2236618e018bc6fb6bd4e8e511d44abfe2fa4222c9d557dc1",
    10: "ebbfcd0c5f401a304b18edecba1253877c76338a39b47b268795521194b1d591",
    11: "6222bee5721974f4997519f2d9fa2d72065057ba67ed25a69934c96ad2f96578",
    12: "dbaa0843be631a5b959e07fb9ad6be45595030aa3c65770e09f23e499a02c4a1",
    13: "fa98e87d27d10cfd9ac750cd5a861959a1c9c93cea6bf90087f59011145c6b85",
    14: "211a189a52992e3e69fef983dc8ff946a86d65f6ea197e8e31ee8640de1a37b0",
    15: "953ca3ab9e77956d5c5a6021703ec2b1aa42fdffbc2c47cf31de56d9f14ca2bc",
    16: "bbf2f2343a3fffe00d166b8fcc94d13acc79a25951f2ff676f0e2d32ce1cf731",
    17: "60f0771c36fbd843e1267454f80cc11b6cc6d87151e4c897dcbab8e7d7a8eb42",
    18: "32c2eebd76d74372014afc91f38ab5d32be1c490a1f3f586e49e97947f4bbf8a",
    19: "66af26ec114284e9ef8593371442e2311704cfb6e0a234be43f8b0f2c9542b82",
    20: "ec262042a7d86cfea103bad0c0c9dfc5c87362cca54af03198dc6f63d06e0f0f",
    21: "ac2f19b86b1696665d305261653d1e92b7164513dd229b713b611dff8f4a003a",
    22: "89982dfb932fe7493b8293c44ba33fde2456fd4f915bda330c5012e0fbaecb85",
    23: "eae12324ed1809d784b1385afd646eab92b0144e5f4ad7e8839c4a0ccd00a7e7",
    24: "cf5315cf2d26831ee91998eb8ebc951b5c63ea2e2eccebe49fe6a01ec82f4a9e",
    25: "76f884e47a099858f168d2e3b741869020fc2a7f2a690f42c9f458a7dd6b9817",
    26: "dd44d70fa3a86c966bd5065e859d61d9ae6327cc23521729c9748954212f7d9a",
    27: "c6faf243d346ed74e5273422ff051f4497b3b697d49f2e190deefe03414c90a8",
    29: "ceb01720b028aacb7ed3d22ac51676f7889e2e546c0e7d1c9bfbfadbaa1b838d",
    31: "95f888e88f3124ec9971256261181e32c7278c944475bc2c909b137ec8390a85",
    32: "67a609724f434cc83f05be19babe78c36e4d7df2fc78b9612bb7e398b271eecf",
    33: "33173255b9b62ded5ab676cf14c4ed487385010d175e297828044dc699c79c4f",
    34: "0886da1049188fb48986bc5e434f004c1625996c5ea8ca63552f0d5b74f1d173",
    35: "965d5d5bce72078209401e721e1c43096e1b1b2436d52a62a36d052522643900",
    36: "ed90093f6f774ba80fabccbf4ced6416e5cba6b3ee7feca025b7a2c269d3f640",
    37: "f7d78f53efc0f02b90660edbc79aa698b9a8e8c565c08ce05d44000afe689892",
    38: "120ec73a77e8c044a6eadc3fd457d45fbc523f4c31c8916f541410019a27e25e",
    39: "e6f35490111834c5005f14f90f611b67d661a38d45eea6f6b4e812279005d3a1",
    40: "8795cc22c1dc8b2b2e23284d0e6ce4d02e7e5fd482f4afaab59c2f71bc6179c5",
    41: "eb874f8319c76bb69de735119db8d3780146a376cea780f298da7c4a09e65668",
    42: "2e2c0af743d79cc9971fd5a22a4f4920be54e69793f5d4c368c32eca6216b3c3",
    43: "d620e99e7c89d4cded4f73366076a4a898b40f18ee9944486b50a77cf4659106",
    44: "8fd41efb406f7b92a325f7493514e2f422ace9a93b97340ea7791bd5f531d6be",
    45: "13e56a1ca6859bc2981a092799c7fe824d8a77ee9f241f83057fe4fba3c94d19",
    46: "fe75f250f2c39f57cb3077f3b5de48ffa7c70a8d471f6991f280b8b8853698c0",
    47: "acd0c9d19af4ba8c94c3ad6bb55406f3a07972121366d3d38763835683ea6d13",
    48: "54b10b5f4b1ec44fb5e6ab91bc80a391e9e4a4fab954118ff210f70fb527a78e",
    49: "58dd8b0a6b98e8aeacd81e46bb80802eef5406fd9dc4b10060850b0513630014",
    50: "149d7560dce388dfb3b4974cd9b179475add87b3b83d2ddecc8fa9f6d1abd957",
    51: "e43fc15644714bc0e3f7334075547883a1e9fd6d393f54c0351fbb349fcab77d",
    52: "f67f677606ead7e99ac7716906681d4ae394f831045784899440ecc1a8c4c267",
    53: "759b973f4bbc30f90049ffd37581e00920672463ce970c2270612d1fd1dce2a3",
    54: "2db1d421770d8d2f954dc3b698f005d0f8d372076d31219206b0ae874c33b13b",
    55: "7e21fbd0ef65560590860ef4f7065aae257fcf2c4b81ec32eae241fff9951ec1",
    56: "f968e8df1d2c52ff9e19fcda60b6fcdd7fb7ff421da9bb51db12ea9745f97d5f",
    57: "b35a27d8edf1b84ceb41f2f958a8d9b1692e5fdf6437ce9a579631a3f1a69fb1",
    58: "39f2f52559a108454ae5db97aa9421bb4ff35ebc562bdb9cd25b1c90969b7a68",
    59: "ca7b2b9adcdb8176785d6709ce857d0af3c02b5e368e37b263e787c08fc5df21",
}
# SHA-256 of json.dumps of the `results` of each _stall_cases() run whose
# port delays are solved exactly, by index; runs 32-35, 76, 77, 88 and 89 are
# solved from a second read of the affine piece, at a solution the first
# read rejected
STALL_CASE_SOLVED = {
    0: "8df3bf4df69f39e21f66a9c775f67744e1d118cc3ae1c03bfe58ded545cc9a63",
    1: "0ca20ac444388e0ec733a50483456c0e96bd47bc8ae9b521eba1675205b2a10d",
    2: "8df3bf4df69f39e21f66a9c775f67744e1d118cc3ae1c03bfe58ded545cc9a63",
    3: "0ca20ac444388e0ec733a50483456c0e96bd47bc8ae9b521eba1675205b2a10d",
    4: "591c996af3ad1a61130e5cab6c0013eb269aa655d166cbc0d1962a3c52ab6833",
    5: "591c996af3ad1a61130e5cab6c0013eb269aa655d166cbc0d1962a3c52ab6833",
    6: "30da5ef4b5292e1304136802f61dcc06194dde93ddbadf090bfd21a5659a437b",
    7: "30da5ef4b5292e1304136802f61dcc06194dde93ddbadf090bfd21a5659a437b",
    8: "9ffdb90196c30f5e8160762eb21b7eec834af6374e1cb9542ddf1e7651d26eb1",
    9: "9ffdb90196c30f5e8160762eb21b7eec834af6374e1cb9542ddf1e7651d26eb1",
    10: "db0999c2d24abca09b300334e03ab30bd8a81c89ace9c1113fabf5ca8a0cdc4c",
    11: "db0999c2d24abca09b300334e03ab30bd8a81c89ace9c1113fabf5ca8a0cdc4c",
    12: "2cb19b5f39783f61eb56dc46fd587eb02e0255dd739955ffc2fd54047c1b690e",
    13: "2cb19b5f39783f61eb56dc46fd587eb02e0255dd739955ffc2fd54047c1b690e",
    14: "2cb19b5f39783f61eb56dc46fd587eb02e0255dd739955ffc2fd54047c1b690e",
    15: "2cb19b5f39783f61eb56dc46fd587eb02e0255dd739955ffc2fd54047c1b690e",
    16: "5b471d1955f72e2a643d45f3492e4abdfd771ff0fbc83bffe0207e31a7b83745",
    17: "3bb2889ebbb2a74c50f7d992508475a6c5ecfffa475e94a8e037f5b3eb8c84f8",
    18: "5b471d1955f72e2a643d45f3492e4abdfd771ff0fbc83bffe0207e31a7b83745",
    19: "3bb2889ebbb2a74c50f7d992508475a6c5ecfffa475e94a8e037f5b3eb8c84f8",
    20: "f3203a51e63b40892406354f76a5705cc89bad5d66976a0ef718b24a47b2e03a",
    21: "c86be2d77c93eb12eb947c4fe252c103cfb08adff00fcdb9756e52ddae37abde",
    22: "4cc97666be4da04f50c56c57e4b88f0e3bf335cfea85f6a06f3f8128d963a789",
    23: "3ab09212324183fbacd5895cfd562df052ba453481ee7fd898f4aa744f903496",
    24: "2f2a7c854ff0debf5da93235d0eee452b30cc5a2c6355f1d170a00b3e955d579",
    25: "2f2a7c854ff0debf5da93235d0eee452b30cc5a2c6355f1d170a00b3e955d579",
    26: "fd378571a9c309db5d6d774bd6ec130d031463a7d6ac7576f689fac24481931f",
    27: "fd378571a9c309db5d6d774bd6ec130d031463a7d6ac7576f689fac24481931f",
    28: "a8cea3f5e024713a77eec3e9963ae508fa2985afbb0eedf0a279cb3164dfe693",
    29: "522af8cdcc25555eda44f099b067ae8e13022c46de7b51941fbaf29f226f8e39",
    30: "92d7e440030cb7a4422ba23bbefa177e2cc7ea141820c171715d71753ecc81ca",
    31: "61e55a2513d00077a1c74e331bacb96a1c147354665889a5bfc339de00c66f27",
    32: "c90adfa3446a8f26f8c37cf44f9c8117fb3ecd9a5eda00a86dec5dab274a2f9c",
    33: "b4df0acb108c4b52aa8fda0582ec8e995170e59f07c0cb7120bf656522cf1f50",
    34: "c90adfa3446a8f26f8c37cf44f9c8117fb3ecd9a5eda00a86dec5dab274a2f9c",
    35: "b4df0acb108c4b52aa8fda0582ec8e995170e59f07c0cb7120bf656522cf1f50",
    36: "1f92c201b697da5ee9017fe39c1c679473f40663efce19437fe832aeb2a48b18",
    37: "3cdb8f22139c12e9bcbde643fcf1d09426d5d556d90132bb45d6c264349c0d31",
    38: "c45fffbd40a1c74a3610808dee58f54d7f5411e0e88c8651efad6523587e2ed3",
    39: "71a9357eff590a72fd1890731d616b2a163994f6d5d696b0ff30947d8887670f",
    40: "39b5ce5fa4ee51b2c3df6ae2620b8a0958bcfaca41895a1dedd519de7ce57388",
    41: "ae7ad91536851ef62d059157e720e2e70ddcefe247564db724b2bc0b10497a91",
    42: "9ea7b609d5edb7f6626aaf113d842a33dde581c3fb4d2f0da7104b66b0c7cf4a",
    43: "d74160b3074f3add2fef0455cb5c1da1f78685de66b6eaf82967e9a701d4afd5",
    44: "ecfe2946339c48bbeb977438d9aa142a56c31ef541a28fb533282f1e9d1a2e61",
    45: "ecfe2946339c48bbeb977438d9aa142a56c31ef541a28fb533282f1e9d1a2e61",
    46: "75eb3d8c3ca4c387f7df1c3081c79bb312251fb540979d3462a7b3886cd94e65",
    47: "75eb3d8c3ca4c387f7df1c3081c79bb312251fb540979d3462a7b3886cd94e65",
    48: "08dcec1b3b6c0e0c64305c44b15c40f0c0231d3cfa4fea5c8bbc6709c4220bc1",
    49: "08dcec1b3b6c0e0c64305c44b15c40f0c0231d3cfa4fea5c8bbc6709c4220bc1",
    50: "14c661e361ac87bb16bac0b923d71e84362795266738859ab57cf7890ae141c1",
    51: "14c661e361ac87bb16bac0b923d71e84362795266738859ab57cf7890ae141c1",
    52: "31fe9f12b48c16f132920a5191ba0c8dde41cbe361215ec7b7453f7bf2424e21",
    53: "8f5835f4a062192c8664774ce934af6dd3dd155be074da6c4d9c70ebadc83939",
    54: "32b5c808ae53b3d92df07f2759ca6a1e978c5c22a2b6f55756dc91527fdc9da5",
    55: "778a1548621697dd6affa6115d63d8d0b41c8ac5045b26f8da5cd6aaf334ed1d",
    56: "165d683617954a19eb66554ff6142169956bd2e285d50df5d365bee467482ecc",
    57: "cee0bccdfb487267e0fc5965cf8de95f61c24f610d3ff0d8f35d902b685f291c",
    58: "165d683617954a19eb66554ff6142169956bd2e285d50df5d365bee467482ecc",
    59: "cee0bccdfb487267e0fc5965cf8de95f61c24f610d3ff0d8f35d902b685f291c",
    60: "b848b66443c2bd5ef24ddc4774005f3eec75592506547bf72e340d3d4b53290a",
    61: "7c088e1e8c1e89d148ee55af1f9c911f4b3228ee9110cd13f67d44bbc18d5b60",
    62: "b848b66443c2bd5ef24ddc4774005f3eec75592506547bf72e340d3d4b53290a",
    63: "7c088e1e8c1e89d148ee55af1f9c911f4b3228ee9110cd13f67d44bbc18d5b60",
    64: "4264879a66c1871bae9cafa34e2f1c56ecfa0a9482aeb39388153ac057f9055c",
    65: "2de722e81f5dffac8810816caee80ec95bf189a4d6d09e1305a37ee6ecc129ca",
    66: "18676984c8c279348d3c783fa7dc50605ed8cf27251491e4986e3701383d571b",
    67: "f86f2ee9851834e22d699b48f1b83c6d7dd7ff4ad1e3169ca240357d966bf985",
    68: "5c9ef08332264aaecaf07ab5cb7731b2d964a7c03c489a6b863cc9ecb14f5f3a",
    69: "5c9ef08332264aaecaf07ab5cb7731b2d964a7c03c489a6b863cc9ecb14f5f3a",
    70: "800cad5e8d1dfc1bd9ccdde7cda239a6ce092243c5a8beb4e0593a8d248348de",
    71: "800cad5e8d1dfc1bd9ccdde7cda239a6ce092243c5a8beb4e0593a8d248348de",
    72: "095b631d8b62b8243cae23d83c3f94abb42832d7649f13c7ab8174170570b790",
    73: "1487c955bbfd12ddc4eb2a4870d912023ed24ba609b5bf5c8f3fb97a23d86a59",
    74: "095b631d8b62b8243cae23d83c3f94abb42832d7649f13c7ab8174170570b790",
    75: "1487c955bbfd12ddc4eb2a4870d912023ed24ba609b5bf5c8f3fb97a23d86a59",
    76: "ad808d04df7dc625f80d416f949507ae45d7c199d1ed4faf8192300d7bd85db9",
    77: "ad808d04df7dc625f80d416f949507ae45d7c199d1ed4faf8192300d7bd85db9",
    78: "857df787196005d19dd44f69234038aa34463aba9b545b7d9d936ccbad3caf40",
    79: "857df787196005d19dd44f69234038aa34463aba9b545b7d9d936ccbad3caf40",
    80: "e4cba2cfe24813f2f63fed4d5df12ead4cb73997f2bdf261db3384f4eb11eae3",
    81: "e4cba2cfe24813f2f63fed4d5df12ead4cb73997f2bdf261db3384f4eb11eae3",
    82: "e4cba2cfe24813f2f63fed4d5df12ead4cb73997f2bdf261db3384f4eb11eae3",
    83: "e4cba2cfe24813f2f63fed4d5df12ead4cb73997f2bdf261db3384f4eb11eae3",
    84: "2c3c41a9a6e2ca772a94ef52e33e3830db04f93fd886e89cdd94ca17d9617056",
    85: "2c3c41a9a6e2ca772a94ef52e33e3830db04f93fd886e89cdd94ca17d9617056",
    86: "2c3c41a9a6e2ca772a94ef52e33e3830db04f93fd886e89cdd94ca17d9617056",
    87: "2c3c41a9a6e2ca772a94ef52e33e3830db04f93fd886e89cdd94ca17d9617056",
    88: "b9b0b6dae10e9eedc28fd031a4723ae9e9b97dff0f48b8f8ea1279b7a9c63647",
    89: "ce3ebca88058c3662c6ce41a26f3278042569c30c8a5482b68ee384a7ce8026e",
    90: "fa95d9d1d7f78e7e7e9f107555e9109663401747dc8add56444ac2322309bf1f",
    91: "565a3779a4c281c3e0f099ec45c0c84e8bc72b6ee3b2123d50461bfaa671f3ab",
    93: "b7466414825726cd26b58ac0bf815540fe6299bb83e09f0c07d1b7491695e7a7",
    95: "9128aea330fb76044a749582889bc8fe95139b45e1fb4211a62e8b0f3fa74a1f",
    96: "c4eb9399742b8b1f7718a54bde58e12007f45f5974b12378998c0833900096a1",
    97: "559871c19187039d613069321e535bf583dbac7f1c7c3e816362cdbe83203ae8",
    98: "c4eb9399742b8b1f7718a54bde58e12007f45f5974b12378998c0833900096a1",
    99: "559871c19187039d613069321e535bf583dbac7f1c7c3e816362cdbe83203ae8",
}


class TestDelayStall:
    """On some cyclic networks the curves settle while the port delays chase
    a geometric limit through the eliminators' section bounds.  The grid
    reference puts the port delays on its burst grid after STALL_PASSES
    sweeps that change no curve, and only such runs change there; the
    analyzer solves them exactly, below the grid."""

    @staticmethod
    def _draw_16():
        # draw 16 of the second seed ran 1000 passes to IterationCap before
        rng = random.Random(0x5EED)
        for _ in range(16):
            random_cyclic_network(rng)
        return net(random_cyclic_network(rng))

    @staticmethod
    def _on_the_grid(rep):
        assert rep.status == CONVERGED and rep.iterations < 100
        assert sum("onto the burst grid" in n for n in rep.notes) == 1
        grid = [d.hi for v, d in rep.vertex_delays.items() if v[0] in "AB"]
        assert any(hi.denominator == 2**20 for hi in grid)

    def test_stalled_delays_reach_a_fixed_point(self):
        self._on_the_grid(full_sweep_analyze(self._draw_16(), lossless=True))

    def test_stalled_delays_are_solved_exactly(self):
        network = self._draw_16()
        rep, old = _against_the_grid(network, lossless=True)
        assert _solved(rep) and rep.iterations <= 3
        assert not any("onto the burst grid" in n for n in rep.notes)
        assert not any(d.hi.denominator % 2**20 == 0 for d in rep.vertex_delays.values())
        assert any(r.interval.hi < o.interval.hi for r, o in zip(rep.results, old.results))

    def test_only_the_stalled_runs_change(self):
        # the grid reference keeps the results from before the stall rule
        # but on the runs that it ends; analyze matches the reference where
        # it solves nothing, its own pins where it does
        solved = 0
        for i, (network, kw) in enumerate(_stall_cases()):
            rep, old = _against_the_grid(network, **kw)
            fired = any("onto the burst grid" in n for n in old.notes)
            assert fired == (i in STALL_CAPPED), (i, kw)
            if i in STALL_CAPPED:
                assert old.status == CONVERGED and old.iterations < 100, (i, kw)
            else:
                assert _sha256(old.to_json()["results"]) == STALL_CASE_RESULTS[i], (i, kw)
            digest = _sha256(rep.to_json()["results"])
            assert digest == STALL_CASE_SOLVED.get(i, STALL_CASE_RESULTS[i]), (i, kw)
            assert (i in STALL_CASE_SOLVED) == _solved(rep), (i, kw)
            solved += _solved(rep)
        assert solved >= 80


class TestExactSolve:
    """Once a cyclic component keeps its shape for a pass, its port delays
    are an affine map of themselves; the analyzer solves that map exactly
    and keeps the solution only if an exact pass confirms it."""

    @pytest.mark.parametrize("rate, delay", [(6, Fraction(8, 5)), (4, Fraction(2))])
    def test_ring_port_delays_in_closed_form(self, rate, delay):
        # each port serves its own flow fresh and the other one spread by
        # the other port: D = 1 + (2 + D) / rate
        doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], rate)
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True)
        assert rep.status == CONVERGED and rep.iterations <= 3
        assert delay == 1 + (2 + delay) / rate
        assert [rep.vertex_delays[v] for v in "uw"] == [DelayInterval(0, delay)] * 2
        assert result_for(rep, "f1", "t1").interval == DelayInterval(0, 2 * delay)
        assert result_for(rep, "f2", "t2").interval == DelayInterval(0, 2 * delay)
        assert "port delays at u, w solved exactly" in rep.notes

    def test_least_fixed_point(self):
        x, y = Affine(Fraction(1), {0: 1}), Affine(Fraction(1), {1: 1})
        point = [Fraction(1), Fraction(1)]
        # W0 = W1 / 2 + 1, W1 = W0 / 3 + 2: W = (12/5, 14/5)
        forms = [y / 2 + 1, x / 3 + 2]
        assert tfa._least_fixed_point(forms, point) == [Fraction(12, 5), Fraction(14, 5)]
        # a row with no unknown is a constant
        assert tfa._least_fixed_point([y / 2 + 1, Fraction(4)], point) == [3, 4]
        # spectral radius 1: I - A is singular
        assert tfa._least_fixed_point([y + 1, x], point) is None
        # spectral radius 2: a solution exists, below the iteration
        assert tfa._least_fixed_point([y * 2 + 1, x * 2 + 1], point) is None
        # a solution below the current point is no limit from below: the
        # solve checks it against the state
        assert tfa._least_fixed_point([y / 2, x / 2], point) == [0, 0]
        assert _below([0, 0], point)
        # the same map written at (3, 5): the solution does not move, and
        # it is checked against the floor, not against where the map is read
        at = [Fraction(3), Fraction(5)]
        x, y = Affine(at[0], {0: 1}), Affine(at[1], {1: 1})
        forms = [y / 2 + 1, x / 3 + 2]
        assert tfa._least_fixed_point(forms, at) == [Fraction(12, 5), Fraction(14, 5)]
        assert not _below([Fraction(12, 5), Fraction(14, 5)], point)
        assert _below([Fraction(12, 5), Fraction(14, 5)], [Fraction(3), Fraction(1)])

    @staticmethod
    def _random_system(rng, kind):
        """(forms, point, floor) of a random sparse system `W = A W + b` of
        1 to 12 unknowns, each form written at `point`.  "up": A >= 0 with
        row sums at most 1/2 and the map above the floor, so a solution is
        accepted; "down": the same A with the map below the floor;
        "singular": a row W_k = W_k; "negative": a row W_k = 2 W_k - 1 that
        no other row reads, so the inverse of I - A holds -1; "mixed":
        signed coefficients, which the solve rejects before eliminating
        when one is negative.  About a third of the other rows are constants.
        Half of the systems are written at the floor, the others at a point
        near it."""
        n = rng.randint(1, 12)
        point = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
        k = rng.randrange(n)
        density = rng.choice([0.1, 0.3, 0.6])
        forms = []
        for i in range(n):
            if kind in ("singular", "negative") and i == k:
                c = 1 if kind == "singular" else 2
                forms.append(Affine(c * point[k] - (kind == "negative"), {k: c}))
                continue
            cols = [j for j in range(n) if rng.random() < density]
            if kind == "negative":
                cols = [j for j in cols if j != k]
            if kind == "mixed":
                coeffs = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for j in cols}
                step = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            else:
                weights = [rng.randint(0, 3) for _ in cols]
                total = 2 * max(sum(weights), 1) * rng.randint(1, 3)
                coeffs = {j: Fraction(w, total) for j, w in zip(cols, weights)}
                step = Fraction(rng.randint(0, 6), rng.randint(1, 3))
                step = -step - Fraction(1, 7) if kind == "down" else step
            value = point[i] + step
            constant = not coeffs or rng.random() < 0.3
            forms.append(value if constant else Affine(value, coeffs))
        if rng.random() < 0.5:
            return forms, point, point
        at = [x + Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for x in point]
        moved = [
            Affine(w.value + sum(c * (at[j] - point[j]) for j, c in w.coeffs.items()), w.coeffs)
            if type(w) is Affine else w
            for w in forms
        ]
        return moved, at, point

    def test_least_fixed_point_matches_the_fraction_elimination(self):
        # for A >= 0 the test of the leading principal minors and the
        # integer elimination give exactly the list, or None, that
        # Gauss-Jordan elimination in Fraction gives, on every branch; a
        # mixed system with a negative coefficient is outside that domain
        rng = random.Random(0x1A7)
        kinds = ["up", "down", "singular", "negative", "mixed"]
        outcomes = collections.Counter()
        constants = moved = 0
        for kind in kinds * 110:
            forms, point, floor = self._random_system(rng, kind)
            if _negative_coefficient(forms):
                assert kind == "mixed"
                continue
            solution = tfa._least_fixed_point(forms, point)
            expected = least_fixed_point_by_fractions(forms, point)
            assert solution == expected, (forms, point, floor)
            # None: a leading principal minor at or below zero; a solution
            # below the floor is rejected by the solve
            if kind != "mixed":
                assert (solution is None) == (kind in ("singular", "negative")), kind
                assert (solution is None or _below(solution, floor)) == (kind != "up"), kind
            assert solution is None or all(type(w) is Fraction for w in solution)
            outcomes[kind, solution is None or _below(solution, floor)] += 1
            constants += sum(type(w) is not Affine for w in forms)
            moved += point != floor
        # 32 of the 110 mixed systems have no negative coefficient
        mixed = outcomes[("mixed", False)] + outcomes[("mixed", True)]
        assert mixed >= 30 and outcomes[("mixed", False)] >= 5 and outcomes[("mixed", True)] >= 20
        assert constants >= 200 and moved >= 200

    def test_the_pieces_of_real_sweeps_are_nonnegative(self, monkeypatch):
        # the sweep is monotone, so every affine piece read from the curves
        # has A >= 0, the domain where the leading principal minors decide,
        # and the solve's guard never fires: every rebuild at frozen
        # unknowns over the 200 draws of the second seed (tight, lossy), the
        # golden rings and the diverging grid
        pieces, solved = [], []
        rebuild, solve = _Analyzer._rebuild, tfa._least_fixed_point

        def read(an, members):
            delays = rebuild(an, members)
            if any(type(an.vertex_delays[v].hi) is Affine for v in members):
                pieces.append([delays[v].hi for v in members])
            return delays

        def counted(forms, point):
            solved.append(forms)
            return solve(forms, point)

        monkeypatch.setattr(_Analyzer, "_rebuild", read)
        monkeypatch.setattr(tfa, "_least_fixed_point", counted)
        cases = [(net(doc), {}) for doc in _second_seed_draws()]
        cases += [(net(build()), _analysis_kwargs(flags)) for build, flags in RINGS.values()]
        cases.append((net(diamond_grid_network(32, 12, 12)), {}))
        for network, kw in cases:
            analyze(network, **kw)
        assert not [forms for forms in pieces if _negative_coefficient(forms)]
        # 206 pieces read, each eliminated: 194 of the draws, 10 of the
        # rings and 2 of the grid
        assert len(solved) >= 200

    def test_iterations_never_exceed_the_cap(self):
        cases = [(doc, {**kw, "iter_cap": cap})
                 for (doc, kw), cap in zip(_random_cyclic_cases(60), itertools.cycle(range(1, 6)))]
        solved = 0
        for doc, kw in cases:
            rep = analyze(net(doc), **kw)
            assert rep.iterations <= kw["iter_cap"], kw
            solved += _solved(rep) and rep.iterations == kw["iter_cap"]
        assert solved >= 3

    def test_a_rejected_solve_leaves_no_trace(self, monkeypatch):
        # an off-by-one solution fails the check of the rebuild at it, which
        # has already rewritten the members' curves, delays and site records,
        # and so does the solution of the piece read there; every report must
        # be byte for byte that of an analysis that tries no solve
        rejected = collections.Counter()
        solve = tfa._least_fixed_point

        def off_by_one(forms, point):
            solution = solve(forms, point)
            rejected[solution is not None] += 1
            return solution and [w + 1 for w in solution]

        cases = [(net(build()), _analysis_kwargs(flags)) for build, flags in RINGS.values()]
        cases += [(net(series_rings_network()), {}), (net(twin_ring_network()), {})]
        cases += [(net(doc), kw) for doc, kw in _random_cyclic_cases(60)]
        # without a solve a run may sweep to its cap
        cases = [(network, {**kw, "iter_cap": min(kw.get("iter_cap") or 20, 20)})
                 for network, kw in cases]
        with monkeypatch.context() as m:
            m.setattr(tfa, "_least_fixed_point", off_by_one)
            reports = [analyze(network, **kw) for network, kw in cases]
        monkeypatch.setattr(_Analyzer, "_solve", lambda an, members: False)
        for (network, kw), rep in zip(cases, reports):
            assert not _solved(rep)
            assert rep.to_json() == analyze(network, **kw).to_json()
        assert rejected[True] >= 40

    def test_a_rejected_solution_is_read_again(self, monkeypatch):
        # draw 8 of the second seed, tight and lossy: the curves rebuilt at
        # the first solution give other port delays back, so that solution
        # lies on another affine piece; the piece read there is solved and
        # confirmed, exactly and below the grid reference
        rng = random.Random(0x5EED)
        for _ in range(8):
            random_cyclic_network(rng)
        network = net(random_cyclic_network(rng))
        rep, old = _against_the_grid(network)
        assert rep.status == CONVERGED and _solved(rep)
        hi = result_for(rep, "f0", "t0").interval.hi
        assert hi == Fraction(109374473720695, 4717203008701)
        assert hi.denominator % 2**20 and hi < result_for(old, "f0", "t0").interval.hi
        # draw 101, tight and lossless: the solve after the first pass reads
        # a second piece; with one read it is rejected, and the run needs
        # six more passes to solve the same fixed point
        network = net(_second_seed_draws()[101])
        rep, _ = _against_the_grid(network, lossless=True)
        assert rep.status == CONVERGED and _solved(rep) and rep.iterations == 2
        monkeypatch.setattr(tfa, "SOLVE_READS", 1)
        once = analyze(network, lossless=True)
        assert once.status == CONVERGED and _solved(once) and once.iterations == 8
        assert {**once.to_json(), "iterations": 2} == rep.to_json()

    def test_each_solved_component_is_noted(self):
        rep = analyze(net(series_rings_network()), lossless=True)
        notes = [n for n in rep.notes if "solved exactly" in n]
        assert notes == [
            "port delays at a1, a2 solved exactly",
            "port delays at b1, b2 solved exactly",
        ]


@functools.lru_cache(maxsize=None)
def _second_seed_draws() -> tuple:
    """The first 200 `random_cyclic_network` draws of the second seed."""
    draws = random.Random(0x5EED)
    return tuple(random_cyclic_network(draws) for _ in range(200))


@functools.lru_cache(maxsize=None)
def _second_seed_runs(model, lossless) -> tuple:
    """(report, passes over its cyclic components) of each of the 200 draws
    of the second seed at one setting and the default caps: a quarter of
    "the 800 runs".  The reports keep no analyzer."""
    runs = []
    for doc in _second_seed_draws():
        rep = analyze(net(doc), model, lossless)
        an = rep._analyzer
        del rep._analyzer
        runs.append((rep, sum(log.passes for comp, log in zip(an.components, an._log)
                              if len(comp) > 1)))
    return tuple(runs)


SETTINGS = [(model, lossless) for model in (MODEL_TIGHT, MODEL_INTUITIVE)
            for lossless in (False, True)]

# SHA-256 of json.dumps of [status, [[flow, destination, lo, hi], ...]] of
# each of the 800 runs, in SETTINGS order and draw order, the bounds written
# by rational_str; recorded before the solve was tried after every pass
THE_800_RUNS = "7c29f269b21f7bc2f7de563fc712a26fb6bfd37c9a0d5820ed8abb07d4cb20c1"


class TestRelabeling:
    """A fixed point is one fixed point: renaming the vertices, which changes
    the order in which components are found and members are swept, changes
    no status and no interval."""

    @pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
    @pytest.mark.parametrize("model", [MODEL_TIGHT, MODEL_INTUITIVE])
    def test_renaming_the_vertices_changes_no_bound(self, model, lossless):
        # the 200 draws of the second seed, each renamed by its own
        # permutation whatever the setting
        names = random.Random(2)
        statuses = collections.Counter()
        runs = zip(_second_seed_draws(), _second_seed_runs(model, lossless))
        for i, (doc, (rep, _)) in enumerate(runs):
            renamed, old_name = relabeled(doc, names)
            other = analyze(net(renamed), model, lossless)
            assert other.status == rep.status, i
            assert {(r.flow, old_name[r.destination]): r.interval for r in other.results} == {
                (r.flow, r.destination): r.interval for r in rep.results
            }, i
            assert {old_name[v]: d for v, d in other.vertex_delays.items()} == rep.vertex_delays, i
            statuses[rep.status] += 1
        # the lossy runs include runs that the report's overload check
        # makes Diverged
        assert statuses[CONVERGED] >= 180 and (lossless or statuses[DIVERGED] >= 10)

    @pytest.mark.parametrize("prefix", ["z", "C", "Ba", "0", "Aa"])
    def test_a_ring_keeps_its_bound_wherever_its_names_sort(self, prefix):
        # the ring reads nothing of the grid, so its bound is the same
        # whether it is swept before, between or after the cut-off chains
        rep = analyze(net(_ring_beside_the_grid(prefix)[1]))
        assert rep.status == DIVERGED
        for flow, sink in (("f1", "t1"), ("f2", "t2")):
            assert result_for(rep, prefix + flow, prefix + sink).interval.hi == Fraction(18, 5)

    @pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
    def test_renaming_beside_a_cut_off_grid_changes_no_bound(self, lossless):
        # draws of the second seed beside the diverging grid, whose two
        # chains are cut off: renaming sweeps a draw's component before,
        # between or after them, and each component decides its own status
        names = random.Random(5)
        for i, draw in enumerate(_second_seed_draws()[:10]):
            doc = _beside_the_grid(draw, "r")
            rep = analyze(net(doc), lossless=lossless)
            assert rep.status == DIVERGED, i
            renamed, old_name = relabeled(doc, names)
            other = analyze(net(renamed), lossless=lossless)
            assert other.status == rep.status, i
            assert {(r.flow, old_name[r.destination]): r.interval for r in other.results} == {
                (r.flow, r.destination): r.interval for r in rep.results
            }, i
            assert {old_name[v]: d for v, d in other.vertex_delays.items()} == rep.vertex_delays, i

    def test_the_800_runs_keep_their_bounds_in_two_passes(self):
        # every status and interval as recorded; each converging run is one
        # sweep and the confirmation of its solve
        rows, passes, converged = [], 0, 0
        for setting in SETTINGS:
            for rep, cyclic in _second_seed_runs(*setting):
                bounds = [[r.flow, r.destination, *map(rational_str, (r.interval.lo, r.interval.hi))]
                          for r in rep.results]
                rows.append([rep.status, bounds])
                passes += cyclic
                if rep.status == CONVERGED:
                    assert cyclic == 2, setting
                    converged += 1
        assert _sha256(rows) == THE_800_RUNS
        assert converged == 762 and passes <= 1722


class TestModelAndLossLaws:
    """Two monotonicity laws over the 800 runs: the eliminator model and the
    lossless flag change only upper ends, and neither the tight model nor
    lossless traffic raises one."""

    LAWS = {  # law -> (setting whose upper ends may only be lower, the other)
        "tight <= intuitive": [((MODEL_TIGHT, lossless), (MODEL_INTUITIVE, lossless))
                               for lossless in (False, True)],
        "lossless <= lossy": [((model, True), (model, False))
                              for model in (MODEL_TIGHT, MODEL_INTUITIVE)],
    }

    def test_only_upper_ends_move_and_never_up(self):
        counts = {}
        for law, pairs in self.LAWS.items():
            compared = lower = 0
            for low, high in pairs:
                runs = zip(_second_seed_runs(*low), _second_seed_runs(*high))
                for i, ((a, _), (b, _)) in enumerate(runs):
                    assert len(a.results) == len(b.results), (law, low, i)
                    for r, s in zip(a.results, b.results):
                        where = (law, low, i, r.flow, r.destination)
                        assert (r.flow, r.destination) == (s.flow, s.destination), where
                        assert r.interval.lo == s.interval.lo, where
                        assert r.interval.hi <= s.interval.hi, where
                        compared += 1
                        lower += r.interval.hi < s.interval.hi
            counts[law] = (compared, lower)
        # (result pairs, pairs strictly lower)
        assert counts == {"tight <= intuitive": (1838, 705), "lossless <= lossy": (1838, 552)}


class TestComposition:
    """`compose` composes each destination along its anchor chain, which
    must give what composing every vertex of the flow in its order gives
    (`flow_cumulative_by_order`)."""

    @staticmethod
    def _check(doc, model, lossless) -> int:
        """Check one analysis; the count of vertices composed from the
        reference of a re-sequencer or regulator."""
        an = analyze(net(doc), model, lossless)._analyzer
        cut = 0
        for fid, flow in an.net.flows.items():
            cum = an._flow_cumulative(fid, an._verdicts)
            every = flow_cumulative_by_order(an, fid, an._verdicts)
            assert set(flow.destinations) <= set(cum) <= set(every), (fid, model, lossless)
            assert cum == {v: every[v] for v in cum}, (fid, model, lossless)
            cut += sum((kind, fid, v) in an._function for v in cum for kind in (POF, REG))
        return cut

    def test_anchor_chains_match_the_walk_in_flow_order(self):
        rng = random.Random(0xC0C4A1)
        pef_draws = [random_pef_network(rng) for _ in range(200)]
        cut = 0
        for setting in SETTINGS:
            for doc in pef_draws + list(_second_seed_draws()):
                cut += self._check(doc, *setting)
        # the re-sequencers and regulators all come from the cyclic draws
        assert cut >= 2000


class TestDivergenceAndCutOff:
    """A component whose sweep stays on an affine piece without a finite
    fixed point is Diverged once two passes in a row read that piece, and a
    cut-off component (Diverged, IterationCap) reports no bound that a
    higher cap would move."""

    def test_a_piece_without_a_finite_fixed_point_is_rejected(self):
        point = [Fraction(4), Fraction(4), Fraction(1)]
        x, y, z = (Affine(point[i], {i: 1}) for i in range(3))
        pieces = [
            # W0 = W1, W1 = W0 + 1/2: spectral radius 1, I - A singular
            [y, x + Fraction(1, 2), z / 2],
            # a cycle of gain 1 through all three unknowns: singular
            [y, z, x + 1],
            # spectral radius 2: the solution (3, 3) lies below (4, 4),
            # from where the iteration climbs away from it
            [y * 2 - 3, x * 2 - 3, Fraction(1)],
            # spectral radius 3/2 on the first unknown alone
            [x * Fraction(3, 2), Fraction(2), z / 2 + 1],
        ]
        for forms in pieces:
            assert tfa._least_fixed_point(forms, point) is None, forms
            assert least_fixed_point_by_fractions(forms, point) is None, forms
        # a cycle of gain 1/4: every leading principal minor is positive
        assert tfa._least_fixed_point([y / 2, x / 2 + 1, z / 2], point) == [
            Fraction(2, 3), Fraction(4, 3), 0
        ]

    def test_a_grid_diverges_on_its_piece_in_two_passes(self, monkeypatch):
        # odd flows run the chains in reverse; on each chain the sweep stays
        # on one affine piece whose spectral radius is at least 1, and each
        # chain, its own component, notes its own divergence, B first in
        # sweep order
        network = net(diamond_grid_network(32, 12, 12))
        rep = analyze(network)
        assert rep.status == DIVERGED and rep.iterations == 2
        assert rep.notes == [
            f"no finite fixed point: port delays at {chain} grow on one affine piece"
            for chain in (", ".join(sorted(f"{c}{j}" for j in range(12))) for c in "BA")
        ]
        assert all(r.verdict == "unbounded" for r in rep.results)
        # the sweep alone, without the solve, climbs on each chain until the
        # iteration cap stops it
        monkeypatch.setattr(_Analyzer, "_solve", lambda an, members: False)
        rep = analyze(network, iter_cap=12)
        assert rep.status == ITERATION_CAP and rep.iterations == 12
        assert rep.notes == ["no fixed point within 12 sweeps"] * 2

    def test_a_solution_below_the_state_decides_nothing(self, monkeypatch):
        # solutions moved below the state are rejected; the run must be byte
        # for byte that of an analysis that tries no solve, never Diverged
        below = collections.Counter()
        solve = tfa._least_fixed_point

        def lowered(forms, point):
            solution = solve(forms, point)
            below[solution is not None] += 1
            return solution and [w - 1 for w in solution]

        cases = [(net(build()), _analysis_kwargs(flags)) for build, flags in RINGS.values()]
        cases += [(net(series_rings_network()), {}), (net(twin_ring_network()), {})]
        cases = [(network, {**kw, "iter_cap": min(kw.get("iter_cap") or 20, 20)})
                 for network, kw in cases]
        with monkeypatch.context() as m:
            m.setattr(tfa, "_least_fixed_point", lowered)
            reports = [analyze(network, **kw) for network, kw in cases]
        monkeypatch.setattr(_Analyzer, "_solve", lambda an, members: False)
        for (network, kw), rep in zip(cases, reports):
            assert not _solved(rep)
            assert rep.to_json() == analyze(network, **kw).to_json()
        assert below[True] >= 20 and not below[False]

    def test_a_piece_with_a_negative_coefficient_decides_nothing(self, monkeypatch):
        # every piece read at frozen unknowns gets a negative coefficient in
        # the first served member's form, on another unknown (its own when
        # it is alone); the solve rejects that piece before eliminating, an
        # ordinary rejection, so the run must be byte for byte that of an
        # analysis that tries no solve, and no piece may make it Diverged
        guarded, eliminated = [], []
        rebuild, solve = _Analyzer._rebuild, tfa._least_fixed_point

        def negated(an, members):
            delays = rebuild(an, members)
            served = [v for v in members if an.net.vertices[v].service is not None]
            first = served[0]
            w = delays[first].hi
            if type(an.vertex_delays[first].hi) is Affine and not is_unbounded(w):
                value, coeffs = (w.value, w.coeffs) if type(w) is Affine else (w, {})
                form = Affine(value, {**coeffs, 1 % len(served): Fraction(-1)})
                delays[first] = DelayInterval._unchecked(delays[first].lo, form)
                guarded.append(form)
            return delays

        def recorded(forms, point):
            eliminated.extend(forms)
            return solve(forms, point)

        cases = [(net(build()), _analysis_kwargs(flags)) for build, flags in RINGS.values()]
        cases += [(net(series_rings_network()), {}), (net(twin_ring_network()), {})]
        cases += [(net(doc), kw) for doc, kw in _random_cyclic_cases(60)]
        cases = [(network, {**kw, "iter_cap": min(kw.get("iter_cap") or 20, 20)})
                 for network, kw in cases]
        with monkeypatch.context() as m:
            m.setattr(_Analyzer, "_rebuild", negated)
            m.setattr(tfa, "_least_fixed_point", recorded)
            reports = [analyze(network, **kw) for network, kw in cases]
        assert not any(w is form for w in eliminated for form in guarded)
        monkeypatch.setattr(_Analyzer, "_solve", lambda an, members: False)
        for (network, kw), rep in zip(cases, reports):
            assert not any(n.startswith("no finite fixed point") for n in rep.notes)
            assert rep.to_json() == analyze(network, **kw).to_json()
        assert len(guarded) >= 500  # 582 measured

    @staticmethod
    def _cut_off_cases():
        """(network, analyze keywords) of every cut-off case: the cut-off
        golden rings, the series, twin and site rings and a ring before a
        slow sink cut off by the iteration cap, the Diverged runs among the
        800, the diverging grid, and that grid with a ring beside it that
        settles first."""
        for build, flags in RINGS.values():
            network, kw = net(build()), _analysis_kwargs(flags)
            if analyze(network, **kw).status != CONVERGED:
                yield network, kw
        doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)
        (t1,) = [v for v in doc["vertices"] if v["name"] == "t1"]
        t1["service"] = {"rate": "3/2", "latency": "20"}
        for build in (series_rings_network, twin_ring_network, ring_sites_network, lambda: doc):
            yield net(build()), {"iter_cap": 1}
        for model, lossless in SETTINGS:
            runs = zip(_second_seed_draws(), _second_seed_runs(model, lossless))
            for doc, (rep, _) in runs:
                if rep.status != CONVERGED:
                    yield net(doc), {"model": model, "lossless": lossless}
        yield net(diamond_grid_network(32, 12, 12)), {}
        yield net(_ring_beside_the_grid()[1]), {}

    def test_raising_the_caps_moves_no_finite_bound(self):
        # a finite upper end of a cut-off run is a bound of the least fixed
        # point, so raising the iteration cap cannot move it
        cases = finite = 0
        for network, kw in self._cut_off_cases():
            rep = analyze(network, **kw)
            assert rep.status != CONVERGED
            iter_cap = 10 * (kw.get("iter_cap") or tfa.DEFAULT_ITER_CAP)
            raised = analyze(network, **{**kw, "iter_cap": iter_cap})
            pairs = [(r.interval.hi, o.interval.hi) for r, o in zip(rep.results, raised.results)]
            pairs += [(d.hi, raised.vertex_delays[v].hi) for v, d in rep.vertex_delays.items()]
            for hi, other in pairs:
                if not is_unbounded(hi):
                    assert hi == other, kw
                    finite += 1
            cases += 1
        # mostly the port delays off the cut-off components; the ring beside
        # the grid keeps finite flow bounds too
        assert cases >= 45 and finite >= 400


class TestComponentSchedule:
    """The analyzer solves one SCC at a time, each pass over the members of
    one component; the global loop that re-runs every vertex on every sweep
    (`full_sweep_analyze`) must give the same reports."""

    @pytest.mark.parametrize("case", sorted(RINGS))
    def test_ring_reports_match_the_full_sweep(self, case):
        build, flags = RINGS[case]
        rep, _ = _against_the_grid(net(build()), **_analysis_kwargs(flags))
        assert _solved(rep) == (case in SOLVED_RINGS)

    def test_random_cyclic_reports_match_the_full_sweep(self):
        # one cyclic component each, with every function kind on it; the
        # runs cut off by the iteration cap must match too.  A pass and the
        # confirmation of its solve fit in an iteration cap of 3, so the runs
        # at that cap run again at a cap of 1, which leaves no room for a
        # solve.  The Diverged runs are those of the tight, lossy quarter of
        # the 800, where the report finds unbounded port delays
        statuses = collections.Counter()
        kinds = collections.Counter()
        solved = 0
        cases = list(_random_cyclic_cases(60))
        cases += [(doc, {**kw, "iter_cap": 1}) for doc, kw in cases if kw["iter_cap"] == 3]
        runs = zip(_second_seed_draws(), _second_seed_runs(MODEL_TIGHT, False))
        cases += [(doc, {}) for doc, (rep, _) in runs if rep.status == DIVERGED]
        for doc, kw in cases:
            network = net(doc)
            assert sum(len(comp) > 1 for comp in _sweep_order(network)) == 1
            rep, _ = _against_the_grid(network, **kw)
            statuses[rep.status] += 1
            solved += _solved(rep)
            kinds.update(p.get("mode", p["kind"]) for p in doc["placements"])
        assert min(statuses[s] for s in (CONVERGED, DIVERGED, ITERATION_CAP)) >= 3
        assert solved >= 20
        assert min(kinds[k] for k in ("pef", "pof", "per-flow", "interleaved")) >= 10

    def test_every_read_inside_a_component_is_a_reader_edge(self, monkeypatch):
        # a model comparison processes a vertex again only when one of its
        # flow parents changed, so the reader edges of a vertex are those
        # from the vertices upstream of it in a crossing flow: each curve or
        # port delay that processing a vertex reads for a flow lies upstream
        # of it in that flow; the same holds for each curve that the exact
        # solve rebuilds
        beyond = 0  # processings that read past the flow parents
        rebuilt = 0  # curves rebuilt by the solve that read another vertex
        upstream = {}  # (network id, flow, vertex) -> the vertices upstream of it in the flow

        def check(an, v, read):
            for fid, x in read:
                key = (id(an.net), fid, v)
                if key not in upstream:
                    upstream[key] = _upstream(an.net.flows[fid], v)
                assert x in upstream[key], (fid, x, v)

        def on_process(an, v, read):
            nonlocal beyond
            check(an, v, read)
            flows = an.net.flows
            beyond += not read <= {(fid, p) for fid in an._crossing[v] for p in flows[fid].parents[v]}

        def on_post(an, v, read):
            nonlocal rebuilt
            check(an, v, read)
            rebuilt += bool(read)

        _watch_reads(monkeypatch, on_process, on_post)
        networks = [(net(build()), _analysis_kwargs(flags)) for build, flags in RINGS.values()]
        networks += [(net(series_rings_network()), {}), (net(twin_ring_network()), {})]
        networks += [(net(ring_sites_network()), {})]
        networks += [(net(doc), kw) for doc, kw in _random_cyclic_cases(200)]
        networks += list(_stall_cases())
        for network, kw in networks:
            analyze(network, **kw)
        assert beyond >= 500  # 650 with these draws
        assert rebuilt > 1000

    def test_series_rings_match_the_full_sweep_but_iterations(self, monkeypatch):
        network = net(series_rings_network())
        passes = []
        settle = _Analyzer.settle

        def counted_settle(an, *args):
            passes.append(settle(an, *args))
            return passes[-1]

        monkeypatch.setattr(_Analyzer, "settle", counted_settle)
        rep, old = _against_the_grid(network, lossless=True)
        assert rep.status == old.status == CONVERGED
        # two cyclic components, each solved with its own pass count
        assert sum("solved exactly" in n for n in rep.notes) == 2
        assert [status for _, status in passes] == [CONVERGED] * 2
        assert rep.iterations == max(count for count, _ in passes)

    def test_series_rings_cut_off_status_matches_the_full_sweep(self):
        network = net(series_rings_network())
        rep = analyze(network, iter_cap=1)
        assert rep.status == full_sweep_analyze(network, iter_cap=1).status == ITERATION_CAP
        # each ring is cut off on its own and notes it
        assert rep.notes == ["no fixed point within 1 sweeps"] * 2
        # two passes are one sweep and the exact one of a solve,
        # which ends each ring where the global loop is cut off mid-climb
        rep = analyze(network, iter_cap=2)
        assert rep.status == CONVERGED and rep.iterations == 2 and _solved(rep)
        assert full_sweep_analyze(network, iter_cap=2).status == ITERATION_CAP

    def test_cut_off_after_a_cycle_leaves_the_cycle_settled(self):
        # a slow served sink after the ring is on no cycle: processed once,
        # after the ring has settled, it keeps a finite bound, and the
        # ring's port delays are those of the ring before a plain sink
        doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)
        plain = analyze(net(doc)).vertex_delays
        (t1,) = [v for v in doc["vertices"] if v["name"] == "t1"]
        t1["service"] = {"rate": "3/2", "latency": "20"}
        rep = analyze(net(doc))
        assert rep.status == CONVERGED
        assert result_for(rep, "f1", "t1").interval.hi == Fraction(82, 3)
        assert result_for(rep, "f2", "t2").interval.hi == 4
        assert [rep.vertex_delays[v] for v in "uw"] == [plain[v] for v in "uw"]
        # a cyclic component cut off after a settled one, here chain B of
        # the diverging grid on its affine piece after a ring beside the
        # grid, leaves that one settled: the ring keeps what it reads alone
        ring, doc = _ring_beside_the_grid()
        alone = analyze(net(ring))
        rep = analyze(net(doc))
        assert rep.status == DIVERGED and rep.iterations == 2
        assert rep.notes[0] == "port delays at zu, zw solved exactly"
        assert rep.notes[1].startswith("no finite fixed point: port delays at B0, ")
        assert [rep.vertex_delays["z" + v] for v in "uw"] == [alone.vertex_delays[v] for v in "uw"]
        assert [result_for(rep, "z" + r.flow, "z" + r.destination).interval
                for r in alone.results] == [r.interval for r in alone.results]
        assert alone.results[0].interval.hi == Fraction(18, 5)

    def test_vertices_off_the_cycles_are_processed_once(self, visits):
        network = net(ring_sites_network())
        rep = analyze(network)
        assert rep.status == CONVERGED and rep.iterations == 2
        off_cycle = {"s1", "s2", "x", "t1", "t2"}
        assert {v: visits[v] for v in off_cycle} == dict.fromkeys(off_cycle, 1)
        # the ring is swept once; the rebuild of its accepted solve computes
        # it again, and processes none of its members
        assert visits["u"] == visits["w"] == 1

    def test_an_accepted_solve_processes_no_vertex(self, visits, monkeypatch):
        # the rebuild at the solution computes every member, the site records
        # of the members hosting a function among them, so no member is
        # processed again
        solves = []
        solve = _Analyzer._solve

        def counted(an, members):
            before = visits.total()
            accepted = solve(an, members) is True
            hosts = sum(bool(an._placed[v]) for v in members)
            solves.append((accepted, visits.total() - before, hosts))
            return accepted

        monkeypatch.setattr(_Analyzer, "_solve", counted)
        rep = analyze(net(diamond_grid_network(8, 6, 4)))
        assert _solved(rep) and solves
        assert [processed for _, processed, _ in solves] == [0] * len(solves)
        solves.clear()
        for doc, kw in _random_cyclic_cases(60):
            analyze(net(doc), **kw)
        accepted = [(processed, hosts) for ok, processed, hosts in solves if ok]
        assert len(accepted) >= 20 and sum(hosts for _, hosts in accepted) >= 20
        assert [processed for processed, _ in accepted] == [0] * len(accepted)

    def test_each_component_is_swept_on_its_own(self, visits, monkeypatch):
        # the solve ends each chain after its first pass; without it each
        # chain climbs to the cap on its own and is cut off, whatever the
        # other's status.  The chains are separate components, so no pass
        # over B sweeps A
        monkeypatch.setattr(_Analyzer, "_solve", lambda an, members: False)
        network = net(diamond_grid_network(8, 6, 4))
        rep = analyze(network, iter_cap=20)
        assert rep.status == ITERATION_CAP and rep.iterations == 20
        assert sum(visits.values()) < rep.iterations * len(network.vertices)
        for i in range(8):
            assert visits[f"S{i}"] == visits[f"M{i}"] == 1
        # each chain: 20 passes and the one after its cut-off
        assert {visits[f"A{j}"] for j in range(6)} == {21}
        assert {visits[f"B{j}"] for j in range(6)} == {21}


class TestRegulatorVerdicts:
    """A regulator's output is its shaping curve, so its processing reads
    nothing upstream; its verdict is taken once, from the final state, and
    read by both the report and the end-to-end composition."""

    def test_random_cyclic_reports_match_the_pins(self):
        # the old pins are the grid reference's; a run that solves its port
        # delays exactly has its own
        for i, (doc, kw) in enumerate(_random_cyclic_cases(60)):
            rep, old = _against_the_grid(net(doc), **kw)
            old = old.to_json()
            assert _sha256(old["results"]) == RANDOM_CYCLIC_RESULTS[i], (i, kw)
            if old["status"] == CONVERGED:
                assert _sha256(old) == RANDOM_CYCLIC_REPORTS[i], (i, kw)
            else:
                assert i not in RANDOM_CYCLIC_REPORTS, (i, kw)
            assert (i in RANDOM_CYCLIC_SOLVED) == _solved(rep), (i, kw)
            if _solved(rep):
                assert _sha256(rep.to_json()) == RANDOM_CYCLIC_SOLVED[i], (i, kw)

    def test_each_verdict_is_taken_once(self, monkeypatch):
        calls = collections.Counter()
        verdict = _Analyzer._reg_verdict

        def counted(an, fid, v, placement):
            calls[(fid, v)] += 1
            return verdict(an, fid, v, placement)

        monkeypatch.setattr(_Analyzer, "_reg_verdict", counted)
        cases = [(toy_network(PEF_PFR_AT_F), {}), (ring_sites_network(), {})]
        cases += list(_random_cyclic_cases(60))
        regulated = 0
        for doc, kw in cases:
            calls.clear()
            rep = analyze(net(doc), **kw)
            placed = [(fid, p["vertex"]) for p in doc["placements"] if p["kind"] == "reg"
                      for fid in p["flows"]]
            assert calls == collections.Counter(placed)
            assert [(s["flow"], s["vertex"]) for s in rep.reg_sites] == list(calls)
            regulated += bool(placed)
        assert regulated >= 40

    def test_each_interleaved_queue_is_decided_once(self, monkeypatch):
        # the shared part of an interleaved regulator runs at most once per
        # placement, and every flow it decides carries that one verdict
        calls = collections.Counter()
        queue = _Analyzer._queue_verdict

        def counted(an, v, placement, flows):
            calls[v] += 1
            return queue(an, v, placement, flows)

        monkeypatch.setattr(_Analyzer, "_queue_verdict", counted)
        decided = 0
        for doc, kw in _random_cyclic_cases(60):
            calls.clear()
            rep = analyze(net(doc), **kw)
            assert set(calls.values()) <= {1}
            for v in calls:
                shared = [s["verdict"] for s in rep.reg_sites
                          if s["vertex"] == v and s["mode"] == "interleaved"]
                assert len(shared) > 1
            decided += len(calls)
        assert decided >= 10

    def test_regulators_add_no_reader_edges(self, monkeypatch):
        # a vertex that hosts only regulators reads its flow parents only: a
        # regulator's output is its shaping curve, so its reference, even
        # inside the cycle and off the flow parents, is no reader edge
        cut = 0  # processings of regulator-only vertices whose reference is no parent

        def on_process(an, v, read):
            nonlocal cut
            placed = an._placed[v]
            if not placed or any(p.kind != "reg" for p, _ in placed):
                return
            flows = an.net.flows
            assert read <= {(fid, p) for fid in an._crossing[v] for p in flows[fid].parents[v]}, v
            cut += any(p.reference not in flows[fid].parents[v]
                       for p, pflows in placed for fid in pflows)

        _watch_reads(monkeypatch, on_process)
        docs = [(ring_sites_network(), {})] + list(_random_cyclic_cases(60))
        for doc, kw in docs:
            analyze(net(doc), **kw)
        assert cut >= 10


class TestModelComparison:
    def test_tight_never_worse_randomized(self):
        rng = random.Random(20260815)
        strict = 0
        for _ in range(40):
            doc = random_pef_network(rng)
            out = compare_models(net(doc), lossless=True)
            for (fid, dest), (t, i) in out["pairs"].items():
                assert t.lo == i.lo
                if is_unbounded(t.hi):
                    assert is_unbounded(i.hi)
                elif not is_unbounded(i.hi):
                    assert t.hi <= i.hi
                if not is_unbounded(t.hi) and (is_unbounded(i.hi) or t.hi < i.hi):
                    strict += 1
            site_t = site_record(out["tight"], "pef_sites", "M", "f")
            assert curve_leq(site_t["tight_curve"], site_t["intuitive_curve"])
        assert strict > 0

    def test_sharing_flow_strictly_improves(self):
        # the duplicate-sum model overloads the shared tail, the
        # eliminator-aware model keeps every bound finite
        out = compare_models(net(shared_tail_network()), lossless=True)
        assert out["tight"].status == CONVERGED
        assert out["intuitive"].status == DIVERGED
        t_g, i_g = out["pairs"][("g", "T")]
        assert t_g == DelayInterval(0, Fraction(14, 5))
        assert is_unbounded(i_g.hi)
        t_f, i_f = out["pairs"][("f", "T")]
        assert t_f == DelayInterval(0, Fraction(49, 5))
        assert is_unbounded(i_f.hi)

    def test_models_agree_without_eliminators(self):
        doc = {
            "vertices": [
                {"name": "a"},
                {"name": "m", "service": {"rate": "3", "latency": "1/2"}},
                {"name": "t"},
            ],
            "edges": [{"from": "a", "to": "m"}, {"from": "m", "to": "t"}],
            "flows": [
                {
                    "id": "f",
                    "source": "a",
                    "destinations": ["t"],
                    "edges": [["a", "m"], ["m", "t"]],
                    "arrival": gamma(1, 2),
                    "lmin": 1,
                    "lmax": 1,
                }
            ],
            "placements": [],
        }
        out = compare_models(net(doc), lossless=True)
        a, b = out["tight"].to_json(), out["intuitive"].to_json()
        a.pop("model"), b.pop("model")
        assert a == b

    def test_each_rbo_is_the_rto_through_the_models_output_curve(self):
        # an eliminator's record holds the output curves of both models;
        # the report's RBO is its RTO through the curve of the report's model
        rng = random.Random(0x2B0)
        networks = [load_network(resolve_input(f"bundled:{name}"))
                    for name in bundled_names() if name.startswith("net-")]
        networks += [net(random_pef_network(rng)) for _ in range(40)]
        networks += [net(random_cyclic_network(rng)) for _ in range(40)]
        networks.append(net(shaped_after_overload_network()))  # an unbounded RTO
        counts = collections.Counter()
        for network in networks:
            for lossless in (False, True):
                out = compare_models(network, lossless)
                for model in (MODEL_TIGHT, MODEL_INTUITIVE):
                    for site in out[model].pef_sites:
                        rto, curve = site["rto_bound"], site[f"{model}_curve"]
                        bounded = not is_unbounded(rto)
                        expected = rbo_from_rto(curve, rto) if bounded else UNBOUNDED
                        assert site["rbo_bound"] == expected, (network, lossless, model, site)
                        assert list(site)[-1] == "rbo_bound"
                        if not bounded:
                            assert to_jsonable(site)["rbo_bound"] == "unbounded"
                        counts[model, bounded] += 1
        for model in (MODEL_TIGHT, MODEL_INTUITIVE):
            assert counts[model, True] >= 200 and counts[model, False] >= 2, counts

    def test_removing_traffic_never_hurts(self):
        rng = random.Random(99)
        for _ in range(15):
            doc = random_pef_network(rng)
            full = analyze(net(doc), MODEL_TIGHT, lossless=True)
            alone = dict(doc)
            alone["flows"] = [f for f in doc["flows"] if f["id"] == "f"]
            solo = analyze(net(alone), MODEL_TIGHT, lossless=True)
            assert result_for(solo, "f", "T").interval.hi <= result_for(full, "f", "T").interval.hi


def _comparison_json(out) -> dict:
    return to_jsonable({**out, "pairs": sorted(out["pairs"].items())})


class TestDerivedAnalysis:
    """The intuitive analysis of `compare_models` starts from the tight one."""

    def test_compare_matches_two_independent_analyses(self, monkeypatch):
        rng = random.Random(0xC0B1)
        runs = cut_then_kept = 0
        logs = []  # the component logs of each analyzer run, in run order
        run = _Analyzer.run

        def logged_run(an, *args):
            run(an, *args)
            logs.append(an._log)

        monkeypatch.setattr(_Analyzer, "run", logged_run)
        for i in range(300):
            # four feed-forward documents to one cyclic: the cyclic ones cost more
            doc = random_cyclic_network(rng) if i % 5 == 4 else random_pef_network(rng)
            network = net(doc)
            for lossless in (False, True):
                for kw in ({"iter_cap": 3}, {"iter_cap": 1}):
                    logs.clear()
                    out = compare_models(network, lossless, **kw)
                    tight_log, intuitive_log = logs
                    old = compare_models_independently(network, lossless, **kw)
                    assert _comparison_json(out) == _comparison_json(old), (doc, lossless, kw)
                    assert list(out["pairs"]) == list(old["pairs"])
                    runs += 1
                    # a component kept from a tight run that is cut off
                    kept = any(a is b for a, b in zip(tight_log, intuitive_log))
                    cut_then_kept += kept and out["tight"].status != CONVERGED
        assert runs == 1200
        assert cut_then_kept >= 50

    def test_a_cycle_is_changed_as_a_whole(self):
        # x comes out the same under both models and h, on its cycle, does
        # not; y's only parent is x, but its re-sequencer reads h, so every
        # member of the cycle counts as changed
        network = net(steady_cycle_member_network())
        for lossless in (False, True):
            out = compare_models(network, lossless)
            old = compare_models_independently(network, lossless)
            assert _comparison_json(out) == _comparison_json(old)
            tight, intuitive = out["tight"], out["intuitive"]
            assert tight.vertex_delays["x"] == intuitive.vertex_delays["x"]
            assert tight.vertex_delays["h"] != intuitive.vertex_delays["h"]
            assert tight.pof_sites != intuitive.pof_sites

    def test_only_the_eliminator_hosts_are_processed_again(self, visits):
        network = net(diamond_grid_network(8, 6, 4))
        hosts = {p.vertex for p in network.placements if p.kind == "pef"}
        analyze(network, MODEL_TIGHT)
        tight = collections.Counter(visits)
        visits.clear()
        out = compare_models(network)
        assert visits == tight + collections.Counter(hosts)
        assert out["tight"].status == out["intuitive"].status == CONVERGED
        # feed-forward: every vertex once, then the eliminator and at most
        # what lies after it again
        visits.clear()
        network = net(random_pef_network(random.Random(5)))
        compare_models(network, lossless=True)
        again = {v for v, n in visits.items() if n == 2}
        assert set(visits) == set(network.vertices) and max(visits.values()) == 2
        assert "M" in again
        assert again <= {"M", "T"} | {v for v in network.vertices if v.startswith("W")}

    def test_the_eliminator_work_is_taken_from_the_tight_run(self, monkeypatch):
        # every flow of the grid crosses one eliminator, which reads the
        # section from each of its two diamond ancestors: the tight run
        # computes each eliminator once and the intuitive run reuses it
        network = net(diamond_grid_network(8, 6, 4))
        counts = _count_calls(monkeypatch, "pef_output_curve", "pef_rto_bound", "path_delay_bounds")
        out = compare_models(network)
        assert counts == {"pef_output_curve": 8, "pef_rto_bound": 8, "path_delay_bounds": 16}
        assert _comparison_json(out) == _comparison_json(compare_models_independently(network))

    def test_an_eliminator_behind_a_changed_one_is_computed_again(self, monkeypatch):
        # M2 reads M1's output, which the model changes: the intuitive run
        # takes M1's record from the tight run and computes M2's again
        network = net(series_pef_network())
        counts = _count_calls(monkeypatch, "pef_output_curve")
        model_free = ("reference", "tight_curve", "intuitive_curve", "rto_bound")
        for lossless in (False, True):
            counts.clear()
            out = compare_models(network, lossless)
            assert counts == {"pef_output_curve": 3}
            old = compare_models_independently(network, lossless)
            assert _comparison_json(out) == _comparison_json(old)
            m1, m2 = ([site_record(out[model], "pef_sites", m, "f") for model in ("tight", "intuitive")]
                      for m in ("M1", "M2"))
            assert all(m1[0][key] is m1[1][key] for key in model_free)
            assert m1[0]["rbo_bound"] != m1[1]["rbo_bound"]
            assert m2[0]["intuitive_curve"] != m2[1]["intuitive_curve"]
            assert out["pairs"][("f", "T")] == (DelayInterval(0, Fraction(72, 5)),
                                                DelayInterval(0, Fraction(74, 5)))
            # the intuitive run keeps the tight run's record of M1 itself
            tight = analyze(network, MODEL_TIGHT, lossless)
            intuitive = analyze(network, MODEL_INTUITIVE, lossless, base=tight)
            site = ("pef", "f", "M1")
            assert intuitive._analyzer.sites[site] is tight._analyzer.sites[site]

    def test_a_base_of_another_analysis_is_rejected(self):
        doc = random_pef_network(random.Random(3))
        network = net(doc)
        tight = analyze(network, MODEL_TIGHT, lossless=True)
        for other, kw, message in [
            (net(doc), {"lossless": True}, "not an analysis of this network"),
            (network, {"lossless": False}, "another lossless flag"),
            (network, {"lossless": True, "iter_cap": 3}, "another iteration cap"),
        ]:
            with pytest.raises(ValueError, match=message):
                analyze(other, MODEL_INTUITIVE, base=tight, **kw)
        # a report that no analysis of this network left behind
        with pytest.raises(ValueError, match="not an analysis of this network"):
            analyze(network, MODEL_INTUITIVE, True, base=AnalysisReport(**tight._asdict()))
        # the iteration caps are compared once the default is filled in
        derived = analyze(network, MODEL_INTUITIVE, True, 1000, base=tight)
        assert derived == analyze(network, MODEL_INTUITIVE, True)

    def test_the_kept_analyzer_stays_out_of_the_report(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        assert isinstance(rep._analyzer, _Analyzer)
        assert list(rep.to_json()) == list(AnalysisReport._fields)
        assert "_analyzer" not in repr(rep)
        assert rep == AnalysisReport(**rep._asdict())

    def test_no_analyzer_outlives_its_use(self):
        network = net(random_pef_network(random.Random(3)))
        out = compare_models(network, lossless=True)
        assert not hasattr(out["tight"], "_analyzer")
        assert not hasattr(out["intuitive"], "_analyzer")
        # a derived report keeps its own analyzer, but not the base's
        tight = analyze(network, MODEL_TIGHT, lossless=True)
        derived = analyze(network, MODEL_INTUITIVE, lossless=True, base=tight)
        assert derived._analyzer._base is None
        assert derived == out["intuitive"]


class TestReportOutput:
    def test_json_is_serializable_and_complete(self):
        rep = analyze(
            net(toy_network(toy_pof_pfr_placements(timeout=6), deadlines={"F": "13"})),
            MODEL_TIGHT,
            lossless=False,
        )
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc["model"] == "tight" and doc["lossless"] is False
        assert doc["status"] == CONVERGED
        assert doc["results"][0]["interval"] == {"lo": "0", "hi": "13"}
        assert doc["results"][0]["verdict"] == "met"
        assert doc["pef_sites"][0]["rto_bound"] == "6"
        assert doc["pof_sites"][0]["timeout"] == "6"
        assert doc["reg_sites"][0]["verdict"]["verdict"] == "bounded"
        assert doc["vertex_delays"]["D"] == {"lo": "6", "hi": "7"}

    def test_csv_rows(self):
        rep = analyze(
            net(toy_network(PEF_AT_F, deadlines={"F": "7"})), MODEL_TIGHT, lossless=True
        )
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "flow,destination,model,lower,upper,deadline,verdict"
        assert lines[1] == "f,F,tight,0,7,7,met"

    def test_lookup_errors(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        with pytest.raises(KeyError):
            result_for(rep, "f", "nowhere")
        with pytest.raises(KeyError):
            site_record(rep, "reg_sites", "F", "f")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            analyze(net(toy_network(PEF_AT_F)), "sharp")
