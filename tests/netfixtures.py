"""Shared network fixtures used across the test modules."""

import copy
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


def off_path_pof_network():
    """A -> B1/B2 -> M with a PEF at M; M feeds a re-sequencer at Q
    (reference A, timeout 10) and a per-flow regulator at V (reference A).
    The re-sequencer sits on a sibling branch, so units reach V out of
    order all the same."""
    return _replicated_network(
        "A",
        [("M", "Q"), ("M", "V")],
        ["Q", "V"],
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
