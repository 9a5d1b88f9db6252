"""Shared network fixtures used across the test modules."""

import copy
import itertools
import random
from fractions import Fraction


def gamma(rate, burst):
    return {"segments": [{"rate": str(rate), "burst": str(burst)}]}


def toy_network(placements=None, deadlines=None):
    """Two-branch replication: B replicates toward C (fast) and D (slow),
    F eliminates.  Branch delays [0,1] and [6,7], source profile rate 1
    burst 1, unit size 1."""
    doc = {
        "vertices": [
            {"name": "B"},
            {"name": "C", "tech": ["0", "1"]},
            {"name": "D", "tech": ["6", "7"]},
            {"name": "F"},
        ],
        "edges": [
            {"from": "B", "to": "C"},
            {"from": "B", "to": "D"},
            {"from": "C", "to": "F"},
            {"from": "D", "to": "F"},
        ],
        "flows": [
            {
                "id": "f",
                "source": "B",
                "destinations": ["F"],
                "edges": [["B", "C"], ["B", "D"], ["C", "F"], ["D", "F"]],
                "arrival": gamma(1, 1),
                "lmin": 1,
                "lmax": 1,
            }
        ],
        "placements": [{"kind": "pef", "vertex": "F", "flows": ["f"]}],
    }
    if placements is not None:
        doc["placements"] = copy.deepcopy(placements)
    if deadlines is not None:
        doc["flows"][0]["deadlines"] = dict(deadlines)
    return doc


PEF_AT_F = [{"kind": "pef", "vertex": "F", "flows": ["f"]}]

PEF_PFR_AT_F = [
    {"kind": "pef", "vertex": "F", "flows": ["f"]},
    {
        "kind": "reg",
        "vertex": "F",
        "flows": ["f"],
        "reference": "B",
        "mode": "per-flow",
        "shaping": {"f": gamma(1, 1)},
    },
]


def toy_pof_pfr_placements(timeout=None):
    pof = {"kind": "pof", "vertex": "F", "flows": ["f"], "reference": "B"}
    if timeout is not None:
        pof["timeout"] = timeout
    return [
        {"kind": "pef", "vertex": "F", "flows": ["f"]},
        pof,
        {
            "kind": "reg",
            "vertex": "F",
            "flows": ["f"],
            "reference": "B",
            "mode": "per-flow",
            "shaping": {"f": gamma(1, 1)},
        },
    ]


def chain_graph(names, delays):
    """Linear chain with given per-vertex delay intervals (as tech)."""
    vertices = []
    for name, delay in zip(names, delays):
        spec = {"name": name}
        if delay is not None:
            spec["tech"] = [str(delay[0]), str(delay[1])]
        vertices.append(spec)
    edges = [
        {"from": names[i], "to": names[i + 1]} for i in range(len(names) - 1)
    ]
    return vertices, edges


def ring_network(flows, service_rate, latency=1, placements=None):
    """Two served vertices u, w crossed in opposite directions (cyclic
    dependency in the union graph).  Use fwd_flow/rev_flow for the flows."""
    return {
        "vertices": [
            {"name": "s1"},
            {"name": "s2"},
            {"name": "t1"},
            {"name": "t2"},
            {"name": "u", "service": {"rate": str(service_rate), "latency": str(latency)}},
            {"name": "w", "service": {"rate": str(service_rate), "latency": str(latency)}},
        ],
        "edges": [
            {"from": "s1", "to": "u"},
            {"from": "u", "to": "w"},
            {"from": "w", "to": "t1"},
            {"from": "s2", "to": "w"},
            {"from": "w", "to": "u"},
            {"from": "u", "to": "t2"},
        ],
        "flows": flows,
        "placements": placements or [],
    }


def fwd_flow(fid, rate, burst):
    return {
        "id": fid,
        "source": "s1",
        "destinations": ["t1"],
        "edges": [["s1", "u"], ["u", "w"], ["w", "t1"]],
        "arrival": gamma(rate, burst),
        "lmin": 1,
        "lmax": 1,
    }


def rev_flow(fid, rate, burst):
    return {
        "id": fid,
        "source": "s2",
        "destinations": ["t2"],
        "edges": [["s2", "w"], ["w", "u"], ["u", "t2"]],
        "arrival": gamma(rate, burst),
        "lmin": 1,
        "lmax": 1,
    }


def ring_sites_network(timeout=None):
    """The contractive ring plus a flow f3 that replicates at s1 onto the
    ring (u, w) and onto the pure delay x, and merges at t1 behind a PEF
    and a POF; f2 is shaped at t2.  Every function kind sits on the cyclic
    path, and the POF has no timeout unless one is given."""
    doc = ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)
    doc["vertices"].append({"name": "x", "tech": ["1", "2"]})
    doc["edges"] += [{"from": "s1", "to": "x"}, {"from": "x", "to": "t1"}]
    f3 = fwd_flow("f3", "1/2", 1)
    f3["edges"] += [["s1", "x"], ["x", "t1"]]
    doc["flows"].append(f3)
    pof = {"kind": "pof", "vertex": "t1", "flows": ["f3"], "reference": "s1"}
    if timeout is not None:
        pof["timeout"] = timeout
    doc["placements"] = [
        {"kind": "pef", "vertex": "t1", "flows": ["f3"]},
        pof,
        {
            "kind": "reg",
            "vertex": "t2",
            "flows": ["f2"],
            "reference": "w",
            "mode": "per-flow",
            "shaping": {"f2": gamma(1, 4)},
        },
    ]
    return doc


def random_pef_network(rng):
    """Random feed-forward net: a replicated flow f through a 2-3 branch
    diamond with an eliminator at M, then a served tail shared with a
    cross-traffic flow g.  Service rates leave headroom for both eliminator
    models, so neither analysis overloads."""
    nb = rng.choice([2, 2, 2, 3])
    r = Fraction(rng.randint(1, 4), rng.randint(1, 2))
    b = Fraction(rng.randint(1, 8))
    verts = [{"name": "S"}, {"name": "M"}, {"name": "T"}, {"name": "GS"}]
    edges = []
    fedges = []
    for i in range(nb):
        prev = "S"
        for k in range(rng.randint(1, 2)):
            name = f"B{i}{k}"
            lo = Fraction(rng.randint(0, 6), 2)
            hi = lo + Fraction(rng.randint(0, 8), 2)
            verts.append({"name": name, "tech": [str(lo), str(hi)]})
            edges.append({"from": prev, "to": name})
            fedges.append([prev, name])
            prev = name
        edges.append({"from": prev, "to": "M"})
        fedges.append([prev, "M"])
    g_rate = Fraction(rng.randint(1, 3))
    g_burst = Fraction(rng.randint(1, 5))
    gedges = [["GS", "W0"]]
    prev = "M"
    for k in range(rng.randint(1, 2)):
        name = f"W{k}"
        need = nb * r + g_rate
        rate = need * Fraction(rng.randint(5, 12), 4)
        lat = Fraction(rng.randint(0, 4), 2)
        verts.append({"name": name, "service": {"rate": str(rate), "latency": str(lat)}})
        edges.append({"from": prev, "to": name})
        fedges.append([prev, name])
        if k > 0:
            gedges.append([f"W{k-1}", name])
        prev = name
    edges.append({"from": prev, "to": "T"})
    fedges.append([prev, "T"])
    gedges.append([prev, "T"])
    edges.append({"from": "GS", "to": "W0"})
    return {
        "vertices": verts,
        "edges": edges,
        "flows": [
            {
                "id": "f",
                "source": "S",
                "destinations": ["T"],
                "edges": fedges,
                "arrival": gamma(r, b),
                "lmin": 1,
                "lmax": 1,
            },
            {
                "id": "g",
                "source": "GS",
                "destinations": ["T"],
                "edges": gedges,
                "arrival": gamma(g_rate, g_burst),
                "lmin": 1,
                "lmax": 1,
            },
        ],
        "placements": [{"kind": "pef", "vertex": "M", "flows": ["f"]}],
    }


def shared_tail_network(service_rate="5/2"):
    """Toy diamond plus a served tail W shared with cross flow g.  With the
    default rate the eliminator-aware aggregate (long-run rate 2) fits but
    the duplicate-sum model (rate 3) overloads W."""
    return {
        "vertices": [
            {"name": "B"},
            {"name": "C", "tech": ["0", "1"]},
            {"name": "D", "tech": ["6", "7"]},
            {"name": "F"},
            {"name": "W", "service": {"rate": str(service_rate), "latency": "0"}},
            {"name": "T"},
            {"name": "GS"},
        ],
        "edges": [
            {"from": "B", "to": "C"},
            {"from": "B", "to": "D"},
            {"from": "C", "to": "F"},
            {"from": "D", "to": "F"},
            {"from": "F", "to": "W"},
            {"from": "W", "to": "T"},
            {"from": "GS", "to": "W"},
        ],
        "flows": [
            {
                "id": "f",
                "source": "B",
                "destinations": ["T"],
                "edges": [
                    ["B", "C"],
                    ["B", "D"],
                    ["C", "F"],
                    ["D", "F"],
                    ["F", "W"],
                    ["W", "T"],
                ],
                "arrival": gamma(1, 1),
                "lmin": 1,
                "lmax": 1,
            },
            {
                "id": "g",
                "source": "GS",
                "destinations": ["T"],
                "edges": [["GS", "W"], ["W", "T"]],
                "arrival": gamma(1, 1),
                "lmin": 1,
                "lmax": 1,
            },
        ],
        "placements": [{"kind": "pef", "vertex": "F", "flows": ["f"]}],
    }


def diamond_network(pef_at):
    """A -> B -> {C, D} -> F -> G with a PEF at `pef_at` (F or G)."""
    return {
        "vertices": [{"name": v} for v in "ABCDFG"],
        "edges": [
            {"from": "A", "to": "B"},
            {"from": "B", "to": "C"},
            {"from": "B", "to": "D"},
            {"from": "C", "to": "F"},
            {"from": "D", "to": "F"},
            {"from": "F", "to": "G"},
        ],
        "flows": [
            {
                "id": "f",
                "source": "A",
                "destinations": ["G"],
                "edges": [
                    ["A", "B"],
                    ["B", "C"],
                    ["B", "D"],
                    ["C", "F"],
                    ["D", "F"],
                    ["F", "G"],
                ],
                "arrival": gamma(1, 1),
                "lmin": 1,
                "lmax": 1,
            }
        ],
        "placements": [{"kind": "pef", "vertex": pef_at, "flows": ["f"]}],
    }


def _pfr(vertex, reference):
    """A per-flow regulator for f at `vertex`, shaping to rate 1 burst 1."""
    return {
        "kind": "reg",
        "vertex": vertex,
        "flows": ["f"],
        "reference": reference,
        "mode": "per-flow",
        "shaping": {"f": gamma(1, 1)},
    }


def _replicated_network(source, tail, destinations, placements, tech=None):
    """One flow f (rate 1, burst 1, unit size 1): `source` replicates onto B1
    (delay [0, 1]) and B2 ([6, 7]), which merge at M; `tail` holds the other
    (from, to) edges.  Every other vertex is a pure delay element, of zero
    delay unless `tech` gives its interval."""
    tech = {"B1": ["0", "1"], "B2": ["6", "7"], **(tech or {})}
    edges = [(source, "B1"), (source, "B2"), ("B1", "M"), ("B2", "M"), *tail]
    names = list(dict.fromkeys(v for e in edges for v in e))
    return {
        "vertices": [{"name": v, **({"tech": tech[v]} if v in tech else {})} for v in names],
        "edges": [{"from": u, "to": v} for u, v in edges],
        "flows": [
            {
                "id": "f",
                "source": source,
                "destinations": list(destinations),
                "edges": [list(e) for e in edges],
                "arrival": gamma(1, 1),
                "lmin": 1,
                "lmax": 1,
            }
        ],
        "placements": placements,
    }


def off_path_pof_network(destinations=("Q", "V")):
    """A -> B1/B2 -> M with a PEF at M; M feeds a re-sequencer at Q
    (reference A, timeout 10) and a per-flow regulator at V (reference A).
    The re-sequencer sits on a sibling branch, so units reach V out of
    order all the same."""
    return _replicated_network(
        "A",
        [("M", "Q"), ("M", "V")],
        destinations,
        [
            {"kind": "pef", "vertex": "M", "flows": ["f"]},
            {"kind": "pof", "vertex": "Q", "flows": ["f"], "reference": "A", "timeout": "10"},
            _pfr("V", "A"),
        ],
    )


def sibling_pef_network():
    """S -> B1/B2 -> M with a PEF at M, and S -> X (delay [0, 1]) -> V with a
    per-flow regulator at V (reference S).  The eliminator sits on a sibling
    branch, so the section S -> V is FIFO."""
    return _replicated_network(
        "S",
        [("S", "X"), ("X", "V")],
        ["M", "V"],
        [{"kind": "pef", "vertex": "M", "flows": ["f"]}, _pfr("V", "S")],
        tech={"X": ["0", "1"]},
    )


def lossy_pof_network(destinations=("V",)):
    """A -> B1/B2 -> M -> V with a PEF and a re-sequencer at M (reference A,
    timeout 6) and a per-flow regulator at V (reference A).  Without
    `--lossless` a unit may wait out the timeout at M, inside the
    regulator's section."""
    return _replicated_network(
        "A",
        [("M", "V")],
        destinations,
        [
            {"kind": "pef", "vertex": "M", "flows": ["f"]},
            {"kind": "pof", "vertex": "M", "flows": ["f"], "reference": "A", "timeout": "6"},
            _pfr("V", "A"),
        ],
    )


def mixed_interleaved_network(resequenced=False):
    """The toy diamond plus a flow g on the fast branch only (B -> C -> F).
    f is eliminated at F, and one interleaved regulator there (reference B)
    shapes both flows to rate 1 burst 1: g reaches it in source order, but
    shares its queue with the reordered f.  With `resequenced`, a
    re-sequencer for g (reference B) runs at F first."""
    pof = [{"kind": "pof", "vertex": "F", "flows": ["g"], "reference": "B"}]
    doc = toy_network(
        [
            {"kind": "pef", "vertex": "F", "flows": ["f"]},
            *(pof if resequenced else []),
            {
                "kind": "reg",
                "vertex": "F",
                "flows": ["f", "g"],
                "reference": "B",
                "mode": "interleaved",
                "shaping": {"f": gamma(1, 1), "g": gamma(1, 1)},
            },
        ]
    )
    g = copy.deepcopy(doc["flows"][0])
    g.update(id="g", edges=[["B", "C"], ["C", "F"]])
    doc["flows"].append(g)
    return doc


def reference_parent_network(source_tech=("0", "0"), q=13):
    """S -> F and S -> D (delay [6, 7]) -> F for q flows of rate 1, burst 1
    and unit size 1, each eliminated at F and all shaped there by one
    interleaved regulator with reference S.  The section starts at S's
    output, so S's own delay `source_tech` lies outside it."""
    ids = [f"f{i}" for i in range(1, q + 1)]
    return {
        "vertices": [
            {"name": "S", "tech": list(source_tech)},
            {"name": "D", "tech": ["6", "7"]},
            {"name": "F"},
        ],
        "edges": [{"from": "S", "to": "F"}, {"from": "S", "to": "D"}, {"from": "D", "to": "F"}],
        "flows": [
            {
                "id": fid,
                "source": "S",
                "destinations": ["F"],
                "edges": [["S", "F"], ["S", "D"], ["D", "F"]],
                "arrival": gamma(1, 1),
                "lmin": 1,
                "lmax": 1,
            }
            for fid in ids
        ],
        "placements": [
            {"kind": "pef", "vertex": "F", "flows": ids},
            {
                "kind": "reg",
                "vertex": "F",
                "flows": ids,
                "reference": "S",
                "mode": "interleaved",
                "shaping": {fid: gamma(1, 1) for fid in ids},
            },
        ],
    }


def _network_doc(vertices, flows, placements=()):
    """Network document whose edges are those of its flows."""
    edges = sorted({tuple(e) for f in flows for e in f["edges"]})
    return {
        "vertices": vertices,
        "edges": [{"from": u, "to": v} for u, v in edges],
        "flows": flows,
        "placements": list(placements),
    }


def _path_flow(fid, path, rate, burst, source=None, destination=None):
    """Flow along one path, or along the edges `path` when it holds pairs."""
    edges = path if isinstance(path[0], tuple) else list(zip(path, path[1:]))
    return {
        "id": fid,
        "source": source or path[0],
        "destinations": [destination or path[-1]],
        "edges": [list(e) for e in edges],
        "arrival": gamma(rate, burst),
        "lmin": 1,
        "lmax": 1,
    }


def series_rings_network(timeout="3"):
    """Two rings of served ports in series: a1, a2 crossed both ways, then
    b1, b2 crossed both ways.  Flow f runs through both rings, so the first
    ring feeds the second; g replicates at its source onto the first ring
    and onto the pure delay x, and merges at b1 behind an eliminator and a
    re-sequencer; f is shaped at b1 against its curve at a2."""
    served = {"service": {"rate": "4", "latency": "1"}}
    names = ["sf", "sr", "sq", "sg", "x", "tf", "tr", "tq", "tg"]
    vertices = [{"name": v} for v in names]
    vertices[names.index("x")]["tech"] = ["1", "2"]
    vertices += [{"name": v, **served} for v in ("a1", "a2", "b1", "b2")]
    g_edges = [("sg", "a1"), ("a1", "a2"), ("a2", "b1"), ("sg", "x"), ("x", "b1"), ("b1", "tg")]
    flows = [
        _path_flow("f", ["sf", "a1", "a2", "b1", "b2", "tf"], "1/2", 1),
        _path_flow("r", ["sr", "a2", "a1", "tr"], 1, 1),
        _path_flow("q", ["sq", "b2", "b1", "tq"], 1, 2),
        _path_flow("g", g_edges, "1/2", 1, source="sg", destination="tg"),
    ]
    placements = [
        {"kind": "pef", "vertex": "b1", "flows": ["g"]},
        {"kind": "pof", "vertex": "b1", "flows": ["g"], "reference": "sg", "timeout": timeout},
        {
            "kind": "reg",
            "vertex": "b1",
            "flows": ["f"],
            "reference": "a2",
            "mode": "per-flow",
            "shaping": {"f": gamma("1/2", 4)},
        },
    ]
    return _network_doc(vertices, flows, placements)


def diamond_grid_network(n, w, max_hops, seed=1):
    """n flows, each replicated at its own source onto the same hop range of
    two chains of served ports, A and B, and eliminated at its own merge;
    odd flows run the chains in reverse, so the union graph has cycles."""
    rng = random.Random(seed)
    vertices = [
        {"name": f"{c}{j}", "service": {"rate": str(2 * n + 5), "latency": "1/10"}}
        for c in "AB"
        for j in range(w)
    ]
    flows = []
    placements = []
    for i in range(n):
        length = rng.randint(1, max_hops)
        first = rng.randrange(w - length + 1)
        hops = list(range(first, first + length))[:: -1 if i % 2 else 1]
        edges = []
        for c in "AB":
            path = [f"S{i}"] + [f"{c}{j}" for j in hops] + [f"M{i}"]
            edges += zip(path, path[1:])
        vertices += [{"name": f"S{i}"}, {"name": f"M{i}"}]
        flows.append(_path_flow(f"f{i}", edges, 1, rng.randint(1, 3), f"S{i}", f"M{i}"))
        placements.append({"kind": "pef", "vertex": f"M{i}", "flows": [f"f{i}"]})
    return _network_doc(vertices, flows, placements)


def _chain_ring(w, rates, latencies):
    """Vertices of two chains of served ports, A0..A{w-1} and B0..B{w-1},
    and the two backbone flows that close them into one cycle: one runs A
    forward and turns onto B, the other runs B backward and turns onto A."""
    vertices = [
        {"name": f"{c}{j}", "service": {"rate": str(next(rates)), "latency": next(latencies)}}
        for c in "AB"
        for j in range(w)
    ]
    a_path = [f"A{j}" for j in range(w)]
    b_path = [f"B{j}" for j in reversed(range(w))]
    flows = [
        _path_flow("fwd", ["s-fwd", *a_path, b_path[0], "t-fwd"], "1/2", 1),
        _path_flow("rev", ["s-rev", *b_path, a_path[0], "t-rev"], "1/2", 1),
    ]
    return vertices, flows


def _with_endpoints(vertices, flows):
    names = {v for f in flows for e in f["edges"] for v in e}
    return vertices + [{"name": v} for v in sorted(names - {v["name"] for v in vertices})]


def twin_ring_network():
    """The chain ring on four columns, with f replicated at s onto A0 and
    B0, eliminated at A1, and shaped at A3 in one queue with g, which runs
    s, B0, B1, B2, A3: g's leg to A3 crosses B1, which is neither a parent
    of A3 nor on f's section from s, only on g's own."""
    vertices, flows = _chain_ring(4, itertools.repeat(8), itertools.repeat("1/2"))
    f_edges = [("s", "A0"), ("s", "B0"), ("A0", "A1"), ("B0", "A1"), ("A1", "A2"), ("A2", "A3")]
    flows += [
        _path_flow("f", f_edges + [("A3", "t")], "1/2", 1, "s", "t"),
        _path_flow("g", ["s", "B0", "B1", "B2", "A3", "t"], "1/2", 1),
    ]
    placements = [
        {"kind": "pef", "vertex": "A1", "flows": ["f"]},
        {
            "kind": "reg",
            "vertex": "A3",
            "flows": ["f", "g"],
            "reference": "s",
            "mode": "interleaved",
            "shaping": {"f": gamma(1, 24), "g": gamma(1, 24)},
        },
    ]
    return _network_doc(_with_endpoints(vertices, flows), flows, placements)


def random_cyclic_network(rng):
    """Random network on the chain ring (see `_chain_ring`) of three to six
    columns, whose every chain vertex lies in one cyclic component.

    Every other flow runs over a range of columns, forward or reversed at
    random: from its source along one chain, replicated onto both chains at
    a column (or at the source), merged onto one chain by an eliminator a
    column or more later, then on to its sink.  At random a re-sequencer
    joins the eliminator and a regulator sits at or after the merge; some
    flows instead have a twin from the same source along one branch and the
    other chain, shaped with them by an interleaved regulator.  Every
    function thus sits on the cycle.
    """
    w = rng.randint(3, 6)
    vertices, flows = _chain_ring(
        w,
        iter(lambda: rng.choice([4, 6, 8]), None),
        iter(lambda: rng.choice(["0", "1/2", "1"]), None),
    )
    placements = []
    for k in range(rng.randint(1, 3)):
        fid, src, sink = f"f{k}", f"s{k}", f"t{k}"
        length = rng.randint(3, w)
        start = rng.randrange(w - length + 1)
        cols = list(range(start, start + length))[:: rng.choice([1, -1])]
        split = rng.randint(-1, length - 3)  # the column index replicating; -1: the source
        merge = rng.randint(split + 2, length - 1)
        one, other = rng.sample("AB", 2)
        prefix = [src] + [f"{one}{j}" for j in cols[: split + 1]]
        branches = [[f"{c}{j}" for j in cols[split + 1 : merge]] for c in (one, other)]
        suffix = [f"{rng.choice('AB')}{j}" for j in cols[merge:]]
        merged, tail = suffix[0], suffix + [sink]
        edges = list(zip(prefix, prefix[1:])) + list(zip(tail, tail[1:]))
        for branch in branches:
            path = [prefix[-1], *branch, merged]
            edges += zip(path, path[1:])
        rate, burst = rng.choice(["1/4", "1/2"]), rng.randint(1, 3)
        flows.append(_path_flow(fid, edges, rate, burst, src, sink))
        placements.append({"kind": "pef", "vertex": merged, "flows": [fid]})
        dominators = prefix + suffix  # upstream of the merge and after it, in flow order
        twinned = rng.random() < 0.25
        if rng.random() < 0.4 and not twinned:
            timeout = rng.choice([None, "1/2", "3"])
            pof = {"kind": "pof", "vertex": merged, "flows": [fid], "reference": rng.choice(prefix)}
            placements.append(pof if timeout is None else {**pof, "timeout": timeout})
        if rng.random() < 0.6 or twinned:
            at = rng.randrange(len(prefix), len(dominators))
            reg = {
                "kind": "reg",
                "vertex": dominators[at],
                "flows": [fid],
                "reference": rng.choice(dominators[:at]),
                "mode": "per-flow",
                "shaping": {fid: gamma(rng.choice(["1/2", "1"]), rng.choice([2, 8, 24]))},
            }
            if twinned:
                # the twin takes one branch, then the other chain up to the
                # regulator, whose reference moves before the replication
                twin, last = f"{fid}-twin", at - len(prefix)
                detour = [{"A": "B", "B": "A"}[x[0]] + x[1:] for x in suffix[:last]]
                path = prefix + rng.choice(branches) + detour + tail[last:]
                reg["reference"] = rng.choice(prefix)
                flows.append(_path_flow(twin, path, "1/4", 1, src, sink))
                reg["flows"].append(twin)
                reg["mode"] = "interleaved"
                reg["shaping"][twin] = gamma("1/2", rng.choice([2, 8, 24]))
            placements.append(reg)
    rank = {"pef": 0, "pof": 1, "reg": 2}
    placements.sort(key=lambda p: (p["vertex"], rank[p["kind"]]))
    return _network_doc(_with_endpoints(vertices, flows), flows, placements)
