import collections
import copy
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from redcalc.minplus import UNBOUNDED, ConcaveCurve, RateLatency, curve_leq, is_unbounded
from redcalc.tfa import (
    CONVERGED,
    DEFAULT_BURST_CAP,
    DIVERGED,
    ITERATION_CAP,
    MODEL_INTUITIVE,
    MODEL_TIGHT,
    _Analyzer,
    _sweep_order,
    analyze,
    compare_models,
    vertex_delay,
)
from redcalc.topology import (
    DelayInterval,
    SpecError,
    VertexSpec,
    ep_vertices,
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
    rev_flow,
    ring_network,
    ring_sites_network,
    series_rings_network,
    shared_tail_network,
    sibling_pef_network,
    toy_network,
    toy_pof_pfr_placements,
    twin_ring_network,
)
from oracles import disordered_by_paths, full_sweep_analyze, tarjan_sweep_order
from test_golden import RINGS

TOY_PEF_OUT = ConcaveCurve([(2, 4), (1, 8)])


def net(doc):
    return network_from_json(doc)


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


class TestToyAnalysis:
    def test_eliminator_output_curves(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        assert rep.status == CONVERGED and rep.iterations == 1
        site = rep.site("pef_sites", "F", "f")
        assert site["tight_curve"] == TOY_PEF_OUT
        assert site["intuitive_curve"] == ConcaveCurve([(2, 4)])
        assert site["reference"] == "B"

    def test_branch_delays_and_ete(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        assert rep.vertex_delays["C"] == DelayInterval(0, 1)
        assert rep.vertex_delays["D"] == DelayInterval(6, 7)
        assert rep.result_for("f", "F").interval == DelayInterval(0, 7)

    def test_reordering_offsets_at_the_eliminator(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_TIGHT, lossless=True)
        site = rep.site("pef_sites", "F", "f")
        assert site["rto_bound"] == 6
        assert site["rbo_bound"] == 14

    def test_intuitive_model_inflates_the_buffer_bound(self):
        rep = analyze(net(toy_network(PEF_AT_F)), MODEL_INTUITIVE, lossless=True)
        site = rep.site("pef_sites", "F", "f")
        assert site["rto_bound"] == 6
        assert site["rbo_bound"] == 16  # sum curve at 6: 2*6 + 4

    def test_per_flow_regulator_doubles_the_horizon(self):
        rep = analyze(net(toy_network(PEF_PFR_AT_F)), MODEL_TIGHT, lossless=True)
        assert rep.result_for("f", "F").interval == DelayInterval(0, 14)
        site = rep.site("reg_sites", "F", "f")
        assert site["verdict"].bounded
        assert site["verdict"].delay == DelayInterval(0, 14)
        assert site["rto_bound"] == 13

    @pytest.mark.parametrize("timeout", [None, 6])
    def test_resequencer_lossless_is_free(self, timeout):
        rep = analyze(
            net(toy_network(toy_pof_pfr_placements(timeout))), MODEL_TIGHT, lossless=True
        )
        assert rep.result_for("f", "F").interval == DelayInterval(0, 7)
        site = rep.site("pof_sites", "F", "f")
        assert site["required_timeout"] == 6
        assert site["required_buffer"] == 14
        assert site["output_curve"] == ConcaveCurve([(1, 8)])

    def test_resequencer_lossy_pays_the_timeout(self):
        rep = analyze(
            net(toy_network(toy_pof_pfr_placements(timeout=6))), MODEL_TIGHT, lossless=False
        )
        assert rep.result_for("f", "F").interval == DelayInterval(0, 13)
        # the reference curve spread by the section jitter plus the timeout
        assert rep.site("pof_sites", "F", "f")["output_curve"] == ConcaveCurve([(1, 14)])

    def test_resequencer_lossy_without_timeout_is_unbounded(self):
        rep = analyze(net(toy_network(toy_pof_pfr_placements())), MODEL_TIGHT, lossless=False)
        r = rep.result_for("f", "F")
        assert is_unbounded(r.interval.hi)
        assert r.verdict == "unbounded"
        assert any("timeout" in n for n in rep.notes)
        assert rep.site("pof_sites", "F", "f")["output_curve"] is None
        verdict = rep.site("reg_sites", "F", "f")["verdict"]
        assert not verdict.bounded and not verdict.proven
        assert verdict.reason == "UNPROVEN_CONFIGURATION"

    def test_deadline_verdicts(self):
        rep = analyze(
            net(toy_network(PEF_AT_F, deadlines={"F": "7"})), MODEL_TIGHT, lossless=True
        )
        assert rep.result_for("f", "F").verdict == "met"
        assert not rep.any_violation()
        rep = analyze(
            net(toy_network(PEF_AT_F, deadlines={"F": "13/2"})), MODEL_TIGHT, lossless=True
        )
        assert rep.result_for("f", "F").verdict == "violated"
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
        assert plain.result_for("f", "t").interval == DelayInterval(3, 5)
        assert shaped.result_for("f", "t").interval == DelayInterval(3, 5)
        verdict = shaped.site("reg_sites", "t", "f")["verdict"]
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
        assert rep.result_for("f", "W").interval == DelayInterval(0, 14)

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
        assert rep.result_for("f", "W").interval == DelayInterval(0, 7)

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
        site = rep.site("reg_sites", "F", "f1")
        assert not site["verdict"].bounded
        assert site["verdict"].proven
        assert site["verdict"].q_min == 13
        assert all(r.verdict == "unbounded" for r in rep.results)

    def test_interleaved_below_threshold_is_unproven(self):
        rep = analyze(self._interleaved_toy(2), MODEL_TIGHT, lossless=True)
        site = rep.site("reg_sites", "F", "f1")
        assert not site["verdict"].bounded
        assert not site["verdict"].proven
        assert site["verdict"].q_min == 13

    def test_interleaved_heterogeneous_is_unproven(self):
        shaping_of = lambda fid: gamma(1, 1) if fid == "f1" else gamma(2, 5)
        rep = analyze(
            self._interleaved_toy(3, shaping_of=shaping_of), MODEL_TIGHT, lossless=True
        )
        assert not rep.site("reg_sites", "F", "f2")["verdict"].bounded
        assert not rep.site("reg_sites", "F", "f2")["verdict"].proven

    def test_resequencer_rescues_the_interleaved_queue(self):
        rep = analyze(self._interleaved_toy(13, with_pof=True), MODEL_TIGHT, lossless=True)
        site = rep.site("reg_sites", "F", "f1")
        assert site["verdict"].bounded
        assert site["verdict"].delay == DelayInterval(0, 7)
        assert all(r.interval == DelayInterval(0, 7) for r in rep.results)

    def test_single_flow_interleaved_is_per_flow(self):
        # alone in its queue, the flow pays the per-flow penalty
        placements = copy.deepcopy(PEF_PFR_AT_F)
        placements[1]["mode"] = "interleaved"
        rep = analyze(net(toy_network(placements)), MODEL_TIGHT, lossless=True)
        assert rep.result_for("f", "F").interval == DelayInterval(0, 14)
        assert rep.site("reg_sites", "F", "f")["verdict"].delay == DelayInterval(0, 14)

    @pytest.mark.parametrize("resequenced", [False, True], ids=["fifo-g", "resequenced-g"])
    def test_in_order_flow_sharing_a_reordered_queue_is_unproven(self, resequenced):
        # g reaches the regulator in order, re-sequenced or not, but waits
        # behind f's reordered units in the one queue: no flow keeps a bound
        network = net(mixed_interleaved_network(resequenced))
        rep = analyze(network, MODEL_TIGHT, lossless=resequenced)
        for fid in ("f", "g"):
            verdict = rep.site("reg_sites", "F", fid)["verdict"]
            assert not verdict.bounded and not verdict.proven
            assert verdict.reason == "UNPROVEN_CONFIGURATION"
            assert is_unbounded(rep.result_for(fid, "F").interval.hi)

    @pytest.mark.parametrize("source_tech", [("0", "0"), ("3", "3")])
    def test_branch_from_the_reference_starts_at_its_output(self, source_tech):
        # the S -> F leg is [0, 0] whatever S's own delay: same threshold
        rep = analyze(net(reference_parent_network(source_tech)), MODEL_TIGHT, lossless=True)
        verdict = rep.site("reg_sites", "F", "f1")["verdict"]
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
        verdict = rep.site("reg_sites", "F", "f")["verdict"]
        assert not verdict.bounded and not verdict.proven
        assert rep.result_for("f", "F").verdict == "unbounded"

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
        verdict = rep.site("reg_sites", "F", "f")["verdict"]
        assert not verdict.bounded
        assert verdict.reason == "RATE_OVERLOAD" and verdict.proven

    def test_resequencer_in_front_keeps_the_regulator_rate_deficit(self):
        placements = toy_pof_pfr_placements()
        placements[2]["shaping"] = {"f": gamma("1/2", 1)}
        rep = analyze(net(toy_network(placements)), MODEL_TIGHT, lossless=True)
        assert rep.site("reg_sites", "F", "f")["verdict"].reason == "RATE_OVERLOAD"
        assert is_unbounded(rep.result_for("f", "F").interval.hi)

    def test_resequencer_on_a_sibling_branch_keeps_the_penalty(self):
        # the POF at Q never sees the units that reach V out of order
        rep = analyze(net(off_path_pof_network()), MODEL_TIGHT, lossless=True)
        assert rep.result_for("f", "V").interval == DelayInterval(0, 14)
        assert rep.result_for("f", "Q").interval == DelayInterval(0, 7)

    def test_eliminator_on_a_sibling_branch_adds_no_penalty(self):
        rep = analyze(net(sibling_pef_network()), MODEL_TIGHT)
        assert rep.result_for("f", "V").interval == DelayInterval(0, 1)
        assert rep.site("reg_sites", "V", "f")["rto_bound"] is None

    def test_lossy_resequencer_wait_counts_inside_a_section(self):
        lossy = analyze(net(lossy_pof_network()), MODEL_TIGHT)
        assert lossy.result_for("f", "V").interval == DelayInterval(0, 13)
        assert lossy.site("reg_sites", "V", "f")["verdict"].delay == DelayInterval(0, 13)
        lossless = analyze(net(lossy_pof_network()), MODEL_TIGHT, lossless=True)
        assert lossless.result_for("f", "V").interval == DelayInterval(0, 7)

    def test_resequencer_without_timeout_unbounds_the_sections_across_it(self):
        doc = lossy_pof_network()
        del doc["placements"][1]["timeout"]
        rep = analyze(net(doc), MODEL_TIGHT)
        assert is_unbounded(rep.result_for("f", "V").interval.hi)


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
            an = _Analyzer(network, MODEL_TIGHT, False, DEFAULT_BURST_CAP)
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
        assert rep.result_for("f1", "t1").interval == DelayInterval(0, 4)
        assert rep.result_for("f2", "t2").interval == DelayInterval(0, 4)

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
        assert rep.result_for("f1", "t1").interval == DelayInterval(0, Fraction(27, 8))

    def test_iteration_cap(self):
        doc = ring_network([fwd_flow("f1", 2, 1), rev_flow("f2", 2, 1)], 4)
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True, iter_cap=2)
        assert rep.status == ITERATION_CAP
        assert rep.iterations == 2
        assert any("fixed point" in n for n in rep.notes)

    def test_burst_cap_reports_divergence(self):
        doc = ring_network([fwd_flow("f1", 2, 1), rev_flow("f2", 2, 1)], 4)
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True, burst_cap=4)
        assert rep.status == DIVERGED
        assert any("burst cap" in n for n in rep.notes)
        assert rep.result_for("f1", "t1").verdict == "unbounded"

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

    def test_overloaded_port_diverges(self):
        doc = shared_tail_network("3/2")  # below even the eliminator-aware rate 2
        rep = analyze(net(doc), MODEL_TIGHT, lossless=True)
        assert rep.status == DIVERGED
        assert any("service rate at W" in n for n in rep.notes)
        assert rep.result_for("g", "T").verdict == "unbounded"

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
        "burst_cap": value.get("--burst-cap"),
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
    """A dict that records the keys read through [] and get()."""

    def __init__(self, data, log):
        super().__init__(data)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(key)
        return super().get(key, default)


def _random_cyclic_cases(count):
    """(network document, analyze keywords) of `count` seeded random cyclic
    networks; small caps cut some runs off."""
    rng = random.Random(0xC7C1E)
    for _ in range(count):
        doc = random_cyclic_network(rng)
        yield doc, {
            "model": rng.choice([MODEL_TIGHT, MODEL_INTUITIVE]),
            "lossless": rng.random() < 0.5,
            "iter_cap": rng.choice([3, 100, 100]),
            "burst_cap": rng.choice([None, "6"]),
        }


class TestComponentSchedule:
    """The analyzer solves one SCC at a time and revisits only the vertices
    whose inputs changed; the global loop that re-runs every vertex on every
    sweep (`full_sweep_analyze`) must give the same reports."""

    @pytest.mark.parametrize("case", sorted(RINGS))
    def test_ring_reports_match_the_full_sweep(self, case):
        build, flags = RINGS[case]
        network = net(build())
        kw = _analysis_kwargs(flags)
        assert analyze(network, **kw).to_json() == full_sweep_analyze(network, **kw).to_json()

    def test_random_cyclic_reports_match_the_full_sweep(self):
        # one cyclic component each, with every function kind on it; the
        # runs cut off by a cap must match too
        statuses = collections.Counter()
        kinds = collections.Counter()
        for doc, kw in _random_cyclic_cases(60):
            network = net(doc)
            assert sum(len(comp) > 1 for comp in _sweep_order(network)) == 1
            rep = analyze(network, **kw).to_json()
            assert rep == full_sweep_analyze(network, **kw).to_json(), (doc, kw)
            statuses[rep["status"]] += 1
            kinds.update(p.get("mode", p["kind"]) for p in doc["placements"])
        assert min(statuses[s] for s in (CONVERGED, DIVERGED, ITERATION_CAP)) >= 3
        assert min(kinds[k] for k in ("pef", "pof", "per-flow", "interleaved")) >= 10

    def test_every_read_inside_a_component_is_a_reader_edge(self, monkeypatch):
        # a vertex is revisited only when an output it reads changed, so each
        # curve or port delay that processing it reads inside its component
        # must come from a vertex that lists it as a reader
        reads = set()
        several = 0  # processings that read two other members or more
        process, delays = _Analyzer._process_vertex, _Analyzer._delays

        def logged_process(an, v):
            nonlocal several
            if not isinstance(an.curves, _LoggedReads):
                an.curves = _LoggedReads(an.curves, reads)
            reads.clear()
            changed = process(an, v)
            (comp,) = [c for c in an.components if v in c]
            if len(comp) > 1:
                read = {x if isinstance(x, str) else x[1] for x in reads} & set(comp) - {v}
                assert read <= {x for x in comp if v in an._readers[x]}, v
                several += len(read) > 1
            return changed

        monkeypatch.setattr(_Analyzer, "_process_vertex", logged_process)
        monkeypatch.setattr(
            _Analyzer, "_delays", lambda an, fid: _LoggedReads(delays(an, fid), reads)
        )
        networks = [(net(build()), _analysis_kwargs(flags)) for build, flags in RINGS.values()]
        networks += [(net(series_rings_network()), {}), (net(twin_ring_network()), {})]
        networks += [(net(doc), kw) for doc, kw in _random_cyclic_cases(60)]
        for network, kw in networks:
            analyze(network, **kw)
        assert several > 1000

    def test_series_rings_match_the_full_sweep_but_iterations(self, monkeypatch):
        network = net(series_rings_network())
        passes = []
        settle = _Analyzer.settle

        def counted_settle(an, *args):
            passes.append(settle(an, *args))
            return passes[-1]

        monkeypatch.setattr(_Analyzer, "settle", counted_settle)
        rep = analyze(network, lossless=True).to_json()
        old = full_sweep_analyze(network, lossless=True).to_json()
        assert rep["status"] == old["status"] == CONVERGED
        for field in ("results", "vertex_delays", "pef_sites", "pof_sites", "reg_sites", "notes"):
            assert rep[field] == old[field], field
        # two cyclic components, each with its own pass count
        assert len(passes) == 2 and rep["iterations"] == max(passes)

    def test_series_rings_cut_off_status_matches_the_full_sweep(self):
        network = net(series_rings_network())
        for kw in ({"iter_cap": 0}, {"iter_cap": 3}, {"burst_cap": 3}):
            rep = analyze(network, **kw)
            assert rep.status == full_sweep_analyze(network, **kw).status != CONVERGED
            # the first cut-off is noted once, whatever the components after it
            assert sum("fixed point" in n or "burst cap" in n for n in rep.notes) == 1

    def test_cut_off_after_a_cycle_leaves_the_cycle_settled(self):
        # the burst cap trips at a slow served sink after the ring; the ring
        # has settled by then, where the global loop stopped it mid-climb
        doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)
        (t1,) = [v for v in doc["vertices"] if v["name"] == "t1"]
        t1["service"] = {"rate": "3/2", "latency": "20"}
        network = net(doc)
        settled = analyze(network).vertex_delays
        rep = analyze(network, burst_cap=20)
        assert rep.status == DIVERGED and any("burst cap" in n for n in rep.notes)
        assert [rep.vertex_delays[v] for v in "uw"] == [settled[v] for v in "uw"]
        stopped = full_sweep_analyze(network, burst_cap=20).vertex_delays
        assert stopped["u"].hi < settled["u"].hi

    def test_vertices_off_the_cycles_are_processed_once(self, visits):
        network = net(ring_sites_network())
        rep = analyze(network)
        assert rep.status == CONVERGED and rep.iterations > 2
        off_cycle = {"s1", "s2", "x", "t1", "t2"}
        assert {v: visits[v] for v in off_cycle} == dict.fromkeys(off_cycle, 1)
        assert min(visits["u"], visits["w"]) > 1

    def test_clean_vertices_are_skipped(self, visits):
        network = net(diamond_grid_network(8, 6, 4))
        rep = analyze(network)
        assert rep.status == CONVERGED and rep.iterations > 2
        assert sum(visits.values()) < rep.iterations * len(network.vertices)
        for i in range(8):
            assert visits[f"S{i}"] == visits[f"M{i}"] == 1


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
            site_t = out["tight"].site("pef_sites", "M", "f")
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

    def test_removing_traffic_never_hurts(self):
        rng = random.Random(99)
        for _ in range(15):
            doc = random_pef_network(rng)
            full = analyze(net(doc), MODEL_TIGHT, lossless=True)
            alone = dict(doc)
            alone["flows"] = [f for f in doc["flows"] if f["id"] == "f"]
            solo = analyze(net(alone), MODEL_TIGHT, lossless=True)
            assert solo.result_for("f", "T").interval.hi <= full.result_for("f", "T").interval.hi


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
            rep.result_for("f", "nowhere")
        with pytest.raises(KeyError):
            rep.site("reg_sites", "F", "f")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            analyze(net(toy_network(PEF_AT_F)), "sharp")
