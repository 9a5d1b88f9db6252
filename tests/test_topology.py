import random
from fractions import Fraction

import pytest

from redcalc.minplus import UNBOUNDED, is_unbounded
from redcalc.topology import (
    DelayInterval,
    SpecError,
    diamond_ancestors,
    ep_vertices,
    load_network,
    path_delay_bounds,
)
from netfixtures import diamond_network, gamma, toy_network
from oracles import all_paths, dominators_by_paths


class TestDelayInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DelayInterval(3, 2)
        with pytest.raises(ValueError):
            DelayInterval(-1, 2)

    def test_arithmetic(self):
        a = DelayInterval(1, 2)
        b = DelayInterval(3, 4)
        assert a.plus(b) == DelayInterval(4, 6)
        assert a.width == 1

    def test_unchecked_results_match_the_public_constructor(self):
        # plus and path_delay_bounds build their results unchecked; each
        # must equal the checked interval of the same endpoints, field types
        # included
        def same(got, lo, hi):
            want = DelayInterval(lo, hi)
            assert got == want and type(got) is DelayInterval
            assert (type(got.lo), type(got.hi)) == (type(want.lo), type(want.hi))

        cases = [
            DelayInterval(0, 0),
            DelayInterval(Fraction(1, 3), "5/2"),
            DelayInterval(2, 7),
            DelayInterval(Fraction(3, 4), UNBOUNDED),
        ]
        chain = [("s", "x"), ("x", "y"), ("y", "n")]
        parallel = [("s", "x"), ("s", "y"), ("x", "n"), ("y", "n")]
        for a in cases:
            for b in cases:
                bounded = not is_unbounded(a.hi) and not is_unbounded(b.hi)
                total = (a.lo + b.lo, a.hi + b.hi if bounded else UNBOUNDED)
                hull = (min(a.lo, b.lo), max(a.hi, b.hi) if bounded else UNBOUNDED)
                same(a.plus(b), *total)
                delays = {"x": a, "y": b}
                same(path_delay_bounds(chain, "s", "n", delays), *total)
                same(path_delay_bounds(parallel, "s", "n", delays), *hull)

    def test_json_round_trip(self):
        iv = DelayInterval(Fraction(1, 2), 4)
        assert DelayInterval.from_json(iv.to_json()) == iv
        assert DelayInterval.from_json(["1/2", "4"]) == iv


class TestLoading:
    def test_toy_loads(self):
        net = load_network(toy_network())
        assert set(net.vertices) == {"B", "C", "D", "F"}
        assert net.flows["f"].source == "B"
        assert net.vertices["D"].tech == DelayInterval(6, 7)

    def test_unknown_edge_vertex_reports_path(self):
        doc = toy_network()
        doc["edges"].append({"from": "B", "to": "Z"})
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "edges[4]" in str(err.value)

    def test_flow_edge_not_in_network_reports_path(self):
        doc = toy_network()
        doc["flows"][0]["edges"].append(["C", "D"])
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "flows[0].edges[4]" in str(err.value)

    def test_flow_cycle_rejected(self):
        doc = toy_network()
        doc["edges"].append({"from": "F", "to": "B"})
        doc["flows"][0]["edges"].append(["F", "B"])
        with pytest.raises(SpecError):
            load_network(doc)

    def test_nonpositive_lmin_rejected(self):
        doc = toy_network()
        doc["flows"][0]["lmin"] = 0
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "lmin" in str(err.value)

    def test_deadline_for_non_destination_rejected(self):
        doc = toy_network()
        doc["flows"][0]["deadlines"] = {"C": "9"}
        with pytest.raises(SpecError):
            load_network(doc)

    def test_pipeline_order_enforced(self):
        doc = toy_network(
            placements=[
                {"kind": "pef", "vertex": "F", "flows": ["f"]},
                {
                    "kind": "reg",
                    "vertex": "F",
                    "flows": ["f"],
                    "reference": "B",
                    "mode": "per-flow",
                    "shaping": {"f": gamma(1, 1)},
                },
                {"kind": "pof", "vertex": "F", "flows": ["f"], "reference": "B"},
            ]
        )
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "pipeline order" in str(err.value)

    def test_duplicate_function_for_flow_rejected(self):
        doc = toy_network(
            placements=[
                {"kind": "pef", "vertex": "F", "flows": ["f"]},
                {"kind": "pef", "vertex": "F", "flows": ["f"]},
            ]
        )
        with pytest.raises(SpecError):
            load_network(doc)

    def test_reg_requires_shaping_for_every_flow(self):
        doc = toy_network(
            placements=[
                {"kind": "pef", "vertex": "F", "flows": ["f"]},
                {
                    "kind": "reg",
                    "vertex": "F",
                    "flows": ["f"],
                    "reference": "B",
                    "mode": "per-flow",
                    "shaping": {},
                },
            ]
        )
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "shaping" in str(err.value)

    def test_pef_without_duplicates_rejected(self):
        doc = toy_network(
            placements=[{"kind": "pef", "vertex": "C", "flows": ["f"]}]
        )
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "duplicates" in str(err.value)

    def test_reference_must_be_diamond_ancestor(self):
        doc = toy_network(
            placements=[
                {"kind": "pef", "vertex": "F", "flows": ["f"]},
                {"kind": "pof", "vertex": "F", "flows": ["f"], "reference": "C"},
            ]
        )
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "diamond ancestor" in str(err.value)


class TestPredicates:
    def test_no_ep_when_pef_at_merge(self):
        net = load_network(diamond_network(pef_at="F"))
        assert ep_vertices(net, "f") == set()

    def test_ep_until_downstream_pef(self):
        net = load_network(diamond_network(pef_at="G"))
        assert ep_vertices(net, "f") == {"F"}

    def test_resplit_before_elimination_rejected(self):
        doc = diamond_network(pef_at="G")
        # second child of the merge vertex F while duplicates are pending
        doc["vertices"].append({"name": "H"})
        doc["edges"].append({"from": "F", "to": "H"})
        doc["flows"][0]["edges"].append(["F", "H"])
        doc["flows"][0]["destinations"].append("H")
        with pytest.raises(SpecError) as err:
            load_network(doc)
        assert "re-split" in str(err.value)

    def test_diamond_ancestors_skip_ep_merge(self):
        net = load_network(diamond_network(pef_at="G"))
        assert diamond_ancestors(net, "f")["F"] == {"A", "B"}
        assert diamond_ancestors(net, "f")["G"] == {"A", "B", "G"}

    def test_diamond_ancestors_of_source(self):
        net = load_network(toy_network())
        assert diamond_ancestors(net, "f")["B"] == {"B"}

    def test_toy_merge_sees_replication_point(self):
        net = load_network(toy_network())
        anc = diamond_ancestors(net, "f")["F"]
        assert "B" in anc
        assert "C" not in anc and "D" not in anc

    def test_random_dags_match_path_enumeration(self):
        rng = random.Random(0xD1A)
        for _ in range(60):
            n = rng.randint(3, 11)
            names = [f"v{i}" for i in range(n)]
            edges = []
            for j in range(1, n):
                # guarantee connectivity, then sprinkle extra edges
                i = rng.randrange(j)
                edges.append((names[i], names[j]))
            for _extra in range(rng.randint(0, n)):
                i, j = sorted(rng.sample(range(n), 2))
                if (names[i], names[j]) not in edges:
                    edges.append((names[i], names[j]))
            destination = names[rng.randrange(1, n)]
            doc = {
                "vertices": [{"name": v} for v in names],
                "edges": [{"from": u, "to": v} for u, v in edges],
                "flows": [
                    {
                        "id": "f",
                        "source": names[0],
                        "destinations": [destination],
                        "edges": [[u, v] for u, v in edges],
                        "arrival": gamma(1, 1),
                        "lmin": 1,
                        "lmax": 1,
                    }
                ],
                "placements": [],
            }
            try:
                net = load_network(doc)
            except SpecError:
                continue  # random graph re-splits duplicates; not a valid flow
            ancestors = diamond_ancestors(net, "f")
            assert set(ancestors) == set(names)
            for target in names:
                doms = dominators_by_paths(edges, names[0], target)
                # without any PEF, a vertex holds duplicates iff >= 2 paths reach it
                expected = {
                    a
                    for a in doms
                    if len(all_paths(edges, names[0], a)) == 1
                }
                assert ancestors[target] == expected, target


class TestPathDelayBounds:
    DELAYS = {
        "v1": DelayInterval(1, 2),
        "v2": DelayInterval(3, 4),
        "w1": DelayInterval(1, 2),
        "w2": DelayInterval(2, 5),
        "w3": DelayInterval(0, 9),
    }

    def test_single_path_sums(self):
        edges = [("a", "v1"), ("v1", "v2"), ("v2", "n")]
        assert path_delay_bounds(edges, "a", "n", self.DELAYS) == DelayInterval(4, 6)

    def test_parallel_paths_hull(self):
        edges = [
            ("a", "w1"),
            ("a", "w2"),
            ("a", "w3"),
            ("w1", "n"),
            ("w2", "n"),
            ("w3", "n"),
        ]
        assert path_delay_bounds(edges, "a", "n", self.DELAYS) == DelayInterval(0, 9)

    def test_toy_section(self):
        net = load_network(toy_network())
        delays = {v: net.vertices[v].tech for v in net.vertices}
        bounds = path_delay_bounds(net.flows["f"].edges, "B", "F", delays)
        assert bounds == DelayInterval(0, 7)

    def test_same_vertex_is_zero(self):
        assert path_delay_bounds([], "a", "a", {}) == DelayInterval(0, 0)

    def test_unreachable_raises(self):
        with pytest.raises(ValueError):
            path_delay_bounds([("a", "b")], "b", "a", self.DELAYS)

    def test_unreachable_raises_on_every_call(self):
        edges = (("a", "v1"), ("v1", "n"))
        for _ in range(3):
            with pytest.raises(ValueError, match="no path"):
                path_delay_bounds(edges, "n", "a", self.DELAYS)

    def test_delays_are_read_on_every_call(self):
        edges = (("a", "v1"), ("a", "v2"), ("v1", "n"), ("v2", "n"))
        other = {"v1": DelayInterval(5, 6), "v2": DelayInterval(7, 8)}
        for _ in range(2):
            assert path_delay_bounds(edges, "a", "n", self.DELAYS) == DelayInterval(1, 4)
            assert path_delay_bounds(edges, "a", "n", other) == DelayInterval(5, 8)

    def test_random_dags_match_path_enumeration(self):
        rng = random.Random(0xB0B)
        for _ in range(40):
            n = rng.randint(3, 9)
            names = [f"u{i}" for i in range(n)]
            edges = []
            for j in range(1, n):
                i = rng.randrange(j)
                edges.append((names[i], names[j]))
            for _extra in range(rng.randint(0, n)):
                i, j = sorted(rng.sample(range(n), 2))
                if (names[i], names[j]) not in edges:
                    edges.append((names[i], names[j]))
            delays = {
                v: DelayInterval(Fraction(rng.randint(0, 4)), Fraction(rng.randint(4, 9)))
                for v in names
            }
            src, dst = names[0], names[-1]
            paths = all_paths(edges, src, dst)
            if not paths:
                continue
            lows = [sum((delays[v].lo for v in p[1:-1]), Fraction(0)) for p in paths]
            highs = [sum((delays[v].hi for v in p[1:-1]), Fraction(0)) for p in paths]
            got = path_delay_bounds(edges, src, dst, delays)
            assert got == DelayInterval(min(lows), max(highs))
