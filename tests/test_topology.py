import random
from fractions import Fraction

import pytest

from redcalc.minplus import UNBOUNDED, Affine, ConcaveCurve, _value, is_unbounded
from redcalc.topology import (
    DelayInterval,
    FlowSpec,
    SpecError,
    diamond_ancestors,
    ep_vertices,
    load_network,
    path_delay_bounds,
)
from netfixtures import diamond_network, gamma, toy_network
from oracles import all_paths, dominators_by_paths


def _flow(edges) -> FlowSpec:
    """A flow over `edges` alone, rooted at the tail of the first one (the
    loader's checks are not run)."""
    edges = tuple(edges)
    source = edges[0][0] if edges else "a"
    return FlowSpec("f", source, (), edges, ConcaveCurve([(1, 1)]), Fraction(1), Fraction(1), {})


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
        chain = _flow([("s", "x"), ("x", "y"), ("y", "n")])
        parallel = _flow([("s", "x"), ("s", "y"), ("x", "n"), ("y", "n")])
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
        assert path_delay_bounds(_flow(edges), "a", "n", self.DELAYS) == DelayInterval(4, 6)

    def test_parallel_paths_hull(self):
        edges = [
            ("a", "w1"),
            ("a", "w2"),
            ("a", "w3"),
            ("w1", "n"),
            ("w2", "n"),
            ("w3", "n"),
        ]
        assert path_delay_bounds(_flow(edges), "a", "n", self.DELAYS) == DelayInterval(0, 9)

    def test_toy_section(self):
        net = load_network(toy_network())
        delays = {v: net.vertices[v].tech for v in net.vertices}
        bounds = path_delay_bounds(net.flows["f"], "B", "F", delays)
        assert bounds == DelayInterval(0, 7)

    def test_same_vertex_is_zero(self):
        assert path_delay_bounds(_flow([]), "a", "a", {}) == DelayInterval(0, 0)

    def test_unreachable_raises(self):
        with pytest.raises(ValueError):
            path_delay_bounds(_flow([("a", "b")]), "b", "a", self.DELAYS)

    def test_unreachable_raises_on_every_call(self):
        edges = (("a", "v1"), ("v1", "n"))
        for _ in range(3):
            with pytest.raises(ValueError, match="no path"):
                path_delay_bounds(_flow(edges), "n", "a", self.DELAYS)

    def test_delays_are_read_on_every_call(self):
        edges = (("a", "v1"), ("a", "v2"), ("v1", "n"), ("v2", "n"))
        other = {"v1": DelayInterval(5, 6), "v2": DelayInterval(7, 8)}
        for _ in range(2):
            assert path_delay_bounds(_flow(edges), "a", "n", self.DELAYS) == DelayInterval(1, 4)
            assert path_delay_bounds(_flow(edges), "a", "n", other) == DelayInterval(5, 8)

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
            got = path_delay_bounds(_flow(edges), src, dst, delays)
            assert got == DelayInterval(min(lows), max(highs))

    def test_no_path_upstream_on_a_branch_or_outside_the_flow(self):
        flow = _flow([("a", "v1"), ("v1", "n"), ("a", "w1")])
        cases = [("n", "a"), ("v1", "a"), ("w1", "n"), ("n", "w1"), ("a", "x"), ("x", "n")]
        for a, n in cases:
            with pytest.raises(ValueError, match=f"no path from {a} to {n}"):
                path_delay_bounds(flow, a, n, self.DELAYS)

    def test_random_dags_with_several_sinks_match_path_enumeration(self):
        # every (start, target) pair of each DAG: targets upstream of the
        # start, on another branch, or past a sink the start also reaches.
        # The names are shuffled, so flow order is not their sorted order
        rng = random.Random(0x5EC7)
        branched = 0  # pairs whose start also reaches vertices off the section
        several_sinks = 0
        for _ in range(40):
            n = rng.randint(3, 10)
            names = [f"u{i}" for i in rng.sample(range(n), n)]
            edges = [(names[rng.randrange(j)], names[j]) for j in range(1, n)]
            for _extra in range(rng.randint(0, n)):
                i, j = sorted(rng.sample(range(n), 2))
                if (names[i], names[j]) not in edges:
                    edges.append((names[i], names[j]))
            flow = _flow(edges)
            several_sinks += sum(not flow.children[v] for v in names) >= 2
            delays = {
                v: DelayInterval(
                    Fraction(rng.randint(0, 4)),
                    UNBOUNDED if rng.random() < 0.1 else Fraction(rng.randint(4, 9)),
                )
                for v in names
            }
            for a in names:
                reached = {v for v in names if all_paths(edges, a, v)} - {a}
                for target in names:
                    paths = all_paths(edges, a, target)
                    if not paths:
                        with pytest.raises(ValueError, match="no path"):
                            path_delay_bounds(flow, a, target, delays)
                        continue
                    on = {v for p in paths for v in p} - {a}
                    lows = [sum((delays[v].lo for v in p[1:-1]), Fraction(0)) for p in paths]
                    highs = [sum((delays[v].hi for v in p[1:-1]), Fraction(0)) for p in paths]
                    got = path_delay_bounds(flow, a, target, delays)
                    assert got == DelayInterval(min(lows), max(highs))
                    branched += bool(reached - on)
        assert several_sinks >= 30 and branched >= 300


class TestPathDelayBoundsOnTheGrid:
    """`path_delay_bounds` sums on the integer grid of the delay ends'
    common denominator; against every a -> n path summed in Fractions."""

    @staticmethod
    def _dag(rng, names):
        n = len(names)
        edges = [(names[rng.randrange(j)], names[j]) for j in range(1, n)]
        for _extra in range(rng.randint(0, n)):
            i, j = sorted(rng.sample(range(n), 2))
            if (names[i], names[j]) not in edges:
                edges.append((names[i], names[j]))
        return edges

    @staticmethod
    def _end(rng):
        return Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 12, 35, 1001]))

    def test_random_dags_with_mixed_denominators_and_unbounded_ends(self):
        rng = random.Random(0x6E1D)
        unbounded = 0
        for _ in range(60):
            names = [f"u{i}" for i in rng.sample(range(9), rng.randint(2, 9))]
            edges = self._dag(rng, names)
            flow = _flow(edges)
            delays = {}
            for v in names:
                lo = self._end(rng)
                hi = UNBOUNDED if rng.random() < 0.15 else lo + self._end(rng)
                delays[v] = DelayInterval(lo, hi)
            for a in names:
                for target in names:
                    if a == target:
                        assert path_delay_bounds(flow, a, a, delays) == DelayInterval(0, 0)
                        continue
                    paths = all_paths(edges, a, target)
                    if not paths:
                        with pytest.raises(ValueError, match=f"no path from {a} to {target}"):
                            path_delay_bounds(flow, a, target, delays)
                        continue
                    lows = [sum((delays[v].lo for v in p[1:-1]), Fraction(0)) for p in paths]
                    highs = []
                    for p in paths:
                        ends = [delays[v].hi for v in p[1:-1]]
                        finite = not any(is_unbounded(x) for x in ends)
                        highs.append(sum(ends, Fraction(0)) if finite else UNBOUNDED)
                    got = path_delay_bounds(flow, a, target, delays)
                    assert got == DelayInterval(min(lows), max(highs))
                    assert type(got.lo) is Fraction
                    assert type(got.hi) is Fraction or got.hi is UNBOUNDED
                    unbounded += is_unbounded(got.hi)
        assert unbounded >= 20

    def test_affine_ends_are_summed_along_an_extreme_path(self):
        # every inner vertex has its own unknowns, so the coefficients of a
        # bound name the vertices with Affine ends on the path it was summed
        # along
        rng = random.Random(0xAFF1)
        checked = 0
        for _ in range(60):
            names = [f"u{i}" for i in range(rng.randint(3, 8))]
            edges = self._dag(rng, names)
            flow = _flow(edges)
            delays = {}
            for i, v in enumerate(names):
                lo = self._end(rng)
                hi = Affine(lo + self._end(rng), {("hi", i): Fraction(1)})
                if rng.random() < 0.5:
                    lo = Affine(lo, {("lo", i): Fraction(1)})
                delays[v] = DelayInterval(lo, hi)
            src, dst = names[0], names[-1]
            paths = all_paths(edges, src, dst)
            if not paths:
                continue
            got = path_delay_bounds(flow, src, dst, delays)
            for end, pick in (("lo", min), ("hi", max)):
                sums = [
                    sum((getattr(delays[v], end) for v in p[1:-1]), Fraction(0)) for p in paths
                ]
                best = pick(_value(x) for x in sums)
                form = getattr(got, end)
                assert _value(form) == best
                coeffs = form.coeffs if type(form) is Affine else {}
                assert any(
                    _value(x) == best and (x.coeffs if type(x) is Affine else {}) == coeffs
                    for x in sums
                )
                checked += bool(coeffs)
        assert checked >= 40

    def test_affine_end_with_an_unbounded_path(self):
        edges = [("a", "x"), ("a", "y"), ("x", "n"), ("y", "n")]
        delays = {
            "x": DelayInterval(Fraction(1, 3), Affine(Fraction(5, 2), {0: Fraction(1)})),
            "y": DelayInterval(Fraction(1, 7), UNBOUNDED),
        }
        got = path_delay_bounds(_flow(edges), "a", "n", delays)
        assert got.lo == Fraction(1, 7) and type(got.lo) is Fraction
        assert got.hi is UNBOUNDED
        delays["y"] = DelayInterval(Fraction(1, 7), Fraction(3))
        got = path_delay_bounds(_flow(edges), "a", "n", delays)
        assert got.hi == Fraction(3) and type(got.hi) is Fraction
        delays["y"] = DelayInterval(Fraction(1, 7), Fraction(2))
        got = path_delay_bounds(_flow(edges), "a", "n", delays)
        assert type(got.hi) is Affine and got.hi.value == Fraction(5, 2)
        assert got.hi.coeffs == {0: 1}

    def test_first_parent_among_equal_affine_bounds(self):
        # equal values, other forms: the bound keeps the form of the path
        # through the first of n's parents, as Fraction max and min do
        x = DelayInterval(Affine(Fraction(1), {"x": 1}), Affine(Fraction(5, 2), {"x": 1}))
        y = DelayInterval(Affine(Fraction(1), {"y": 1}), Affine(Fraction(5, 2), {"y": 1}))
        for first, second in (("x", "y"), ("y", "x")):
            edges = [("a", first), ("a", second), (first, "n"), (second, "n")]
            got = path_delay_bounds(_flow(edges), "a", "n", {"x": x, "y": y})
            assert got.lo.coeffs == {first: 1} and got.hi.coeffs == {first: 1}
