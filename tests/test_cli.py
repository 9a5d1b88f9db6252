"""CLI surface: exit codes, output formats, and the bundled corpus."""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from redcalc import cli
from redcalc.cli import bundled_dir, bundled_names, main
from redcalc.minplus import UNBOUNDED, parse_rational, rational_str, to_jsonable
from redcalc.sim import load_scenario, run_scenario
from redcalc.tfa import analyze
from redcalc.topology import load_network, network_from_json
from netfixtures import (
    fwd_flow,
    lossy_pof_network,
    mixed_interleaved_network,
    off_path_pof_network,
    rev_flow,
    ring_network,
)


def bundled(name: str) -> str:
    return f"bundled:{name}"


def _prime_chain_net(hops: int = 1400) -> tuple:
    """(network document, its flow's exact upper bound): one flow through
    `hops` pure-delay vertices, the i-th with tech [0, 1/p] for the i-th
    prime p.  At 1,400 hops the bound's denominator, the product of the
    primes, has more than 4,300 digits."""
    primes = []
    k = 2
    while len(primes) < hops:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    names = ["s", *(f"v{i}" for i in range(hops)), "t"]
    edges = list(zip(names, names[1:]))
    doc = {
        "vertices": [{"name": "s"}, {"name": "t"}]
        + [{"name": f"v{i}", "tech": ["0", f"1/{p}"]} for i, p in enumerate(primes)],
        "edges": [{"from": u, "to": v} for u, v in edges],
        "flows": [{"id": "f", "source": "s", "destinations": ["t"], "edges": edges,
                   "arrival": {"segments": [{"rate": "1", "burst": "1"}]}, "lmin": 1, "lmax": 1}],
    }
    return doc, sum(Fraction(1, p) for p in primes)


class TestAnalyze:
    def test_json_to_stdout(self, capsys):
        assert main(["analyze", "--in", bundled("net-toy-pef.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "tight"
        assert doc["status"] == "Converged"
        row = doc["results"][0]
        assert (row["flow"], row["verdict"]) == ("f", "met")
        assert row["interval"] == {"lo": "0", "hi": "7"}

    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["analyze", "--in", bundled("net-toy-pef.json"), "--format", "csv",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "flow,destination,model,lower,upper,deadline,verdict"
        assert lines[1] == "f,F,tight,0,7,7,met"

    def test_intuitive_model_flag(self, capsys):
        code = main(
            ["analyze", "--in", bundled("net-toy-pef.json"), "--model", "intuitive"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["model"] == "intuitive"

    def test_violated_deadline_exits_2(self, tmp_path, capsys):
        with bundled_dir().joinpath("net-toy-pef.json").open() as fh:
            doc = json.load(fh)
        doc["flows"][0]["deadlines"] = {"F": "13/2"}
        target = tmp_path / "late.json"
        target.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(target)]) == 2
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["verdict"] == "violated"

    def test_unbounded_verdict_exits_2(self, capsys):
        assert main(["analyze", "--in", bundled("net-ir-instability.json")]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert {r["verdict"] for r in doc["results"]} == {"unbounded"}
        site = doc["reg_sites"][0]["verdict"]
        assert site["proven"] is True
        assert site["q_min"] == 4

    def test_a_bound_of_any_size_is_written(self, tmp_path, capsys):
        # Python converts no int of more than 4,300 digits to a string by
        # default (3.11, 3.10.7 and later); the writers lift that limit for
        # the time they write, and restore it
        doc, hi = _prime_chain_net()
        target = tmp_path / "chain.json"
        target.write_text(json.dumps(doc))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["analyze", "--in", str(target)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        text = cli._written(rational_str, hi)
        assert len(text) > 4300 and row["interval"]["hi"] == text
        assert main(["analyze", "--in", str(target), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[4] == text
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_empty_flow_set_is_fine(self, tmp_path, capsys):
        target = tmp_path / "empty.json"
        target.write_text(json.dumps({"vertices": [{"name": "A"}]}))
        assert main(["analyze", "--in", str(target)]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == []


class TestCompare:
    def test_tight_never_worse_on_backbone(self, capsys):
        assert main(["compare", "--in", bundled("net-volvo-like.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        strict = 0
        for pair in doc["pairs"]:
            t = parse_rational(pair["tight"]["hi"])
            i = parse_rational(pair["intuitive"]["hi"])
            assert t <= i
            strict += t < i
        assert strict >= 1

    def test_no_parsed_state_leaks_between_calls(self, capsys):
        # main builds its parser once per process, so a flag given to one
        # call must not reach the next
        network = bundled("net-volvo-like.json")
        assert main(["compare", "--lossless", "--in", network]) == 0
        assert json.loads(capsys.readouterr().out)["tight"]["lossless"] is True
        assert main(["compare", "--in", network]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tight"]["lossless"] is False and doc["intuitive"]["lossless"] is False

    @pytest.mark.parametrize("model", ["tight", "intuitive"])
    def test_model_flag_is_a_usage_error(self, model, capsys):
        # compare runs both models, so a model to pick is a mistake
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in", bundled("net-toy-pef.json"), "--model", model])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --model" in captured.err


class TestSimulate:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--scenario", bundled("scn-toy-rto.json"),
             "--trace-out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,kind,branch,flow,unit,size"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert "generated" in kinds


class TestVerify:
    def test_bound_attained(self, capsys):
        code = main(
            ["verify", "--scenario", bundled("scn-toy-pfr.json"),
             "--network", bundled("net-toy-pef-pfr.json")]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True
        row = doc["flows"][0]
        assert row["observed"]["max"] == "14"
        assert "bound attained" in row["notes"]

    def test_divergence_noted(self, capsys):
        code = main(
            ["verify", "--scenario", bundled("scn-adversarial-ir.json"),
             "--network", bundled("net-ir-instability.json")]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True
        for row in doc["flows"]:
            assert row["bound"]["hi"] == "unbounded"
            assert any("divergence" in n for n in row["notes"])

    @pytest.mark.parametrize(
        "network, scenario, flags, bound",
        [
            (lambda: off_path_pof_network(("V",)), "scn-toy-pfr.json", ["--lossless"], "14"),
            (lossy_pof_network, "scn-toy-lossy.json", [], "13"),
        ],
        ids=["off-path-pof", "lossy-pof"],
    )
    def test_bounds_past_an_eliminator_hold(
        self, network, scenario, flags, bound, tmp_path, capsys
    ):
        # the bundled trajectories, replayed in front of the regulator at V
        target = tmp_path / "net.json"
        target.write_text(json.dumps(network()))
        argv = ["verify", "--scenario", bundled(scenario), "--network", str(target)]
        assert main(argv + flags) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True
        assert doc["flows"][0]["bound"]["hi"] == bound

    @pytest.mark.parametrize("resequenced", [False, True], ids=["fifo-g", "resequenced-g"])
    def test_in_order_flow_behind_a_reordered_queue(self, resequenced, tmp_path, capsys):
        # f's scn-toy-double-rate trajectory, plus one unit of g that reaches
        # the shared regulator in order at 27/2 and leaves it at 19
        network = mixed_interleaved_network(resequenced)
        with bundled_dir().joinpath("scn-toy-double-rate.json").open() as fh:
            scenario = json.load(fh)
        scenario["flows"]["g"] = scenario["flows"]["f"]
        scenario["sources"].append({"flow": "g", "unit": "1", "time": "25/2", "size": "1"})
        fast, slow = scenario["paths"]
        fast["schedule"]["g/1"] = {"delay": "1"}
        slow["schedule"]["g/1"] = "drop"
        shaping = {fid: {"segments": [{"rate": "1", "burst": "1"}]} for fid in "fg"}
        scenario["pipeline"]["reg"] = {"mode": "interleaved", "shaping": shaping}
        if resequenced:
            scenario["pipeline"]["pof"] = {"flows": ["g"]}
        (tmp_path / "net.json").write_text(json.dumps(network))
        (tmp_path / "scn.json").write_text(json.dumps(scenario))
        argv = ["verify", "--scenario", str(tmp_path / "scn.json"),
                "--network", str(tmp_path / "net.json")]
        # lossless, so that g's re-sequencer (no timeout) adds no wait of its own
        assert main(argv + ["--lossless"] * resequenced) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True
        g = doc["flows"][1]
        assert (g["flow"], g["observed"]["max"], g["bound"]["hi"]) == ("g", "13/2", "unbounded")

    def test_flow_mismatch_is_input_error(self, capsys):
        code = main(
            ["verify", "--scenario", bundled("scn-adversarial-ir.json"),
             "--network", bundled("net-toy-pef.json")]
        )
        assert code == 1
        assert "not in the network" in capsys.readouterr().err

    def test_flow_with_several_destinations_is_input_error(self, tmp_path, capsys):
        # a trace measures one destination per flow; M's looser bound must not
        # stand in for V's
        target = tmp_path / "net.json"
        target.write_text(json.dumps(lossy_pof_network(("M", "V"))))
        argv = ["verify", "--scenario", bundled("scn-toy-lossy.json"), "--network", str(target)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scenario flow 'f' reaches 2 destinations" in captured.err


def _two_vertex_net(**flow):
    return {
        "vertices": [{"name": "A"}, {"name": "B"}],
        "edges": [{"from": "A", "to": "B"}],
        "flows": [
            {
                "id": "f",
                "source": "A",
                "destinations": ["B"],
                "edges": [["A", "B"]],
                "arrival": {"rate": "1", "burst": "1"},
                **flow,
            }
        ],
    }


def _with_placement(**placement):
    return {**_two_vertex_net(), "placements": [placement]}


def _second_flow_net(edges, destinations):
    """A chain A -> B with flow `f` on it, then flow `g` (flows[1]) on the
    network edges `edges`, sent from A to `destinations`."""
    names = sorted({"A", "B", *(v for e in edges for v in e)})
    doc = _two_vertex_net()
    doc["vertices"] = [{"name": v} for v in names]
    doc["edges"] = [{"from": u, "to": v} for u, v in sorted({("A", "B"), *map(tuple, edges)})]
    doc["flows"].append(
        {**doc["flows"][0], "id": "g", "edges": edges, "destinations": destinations}
    )
    return doc


# flow g has edges in its own graph that the source A does not reach
UNREACHABLE = [["A", "B"], ["E", "F"], ["D", "E"], ["C", "D"]]


MALFORMED = {
    "top-level list": ([], "$"),
    "top-level string": ("net", "$"),
    "vertices not a list": ({"vertices": {"name": "A"}}, "vertices"),
    "vertex not an object": ({"vertices": [1]}, "vertices[0]"),
    "edge not an object": ({"vertices": [{"name": "A"}], "edges": ["A"]}, "edges[0]"),
    "flow not an object": ({"flows": [None]}, "flows[0]"),
    "placement not an object": ({"placements": ["pef"]}, "placements[0]"),
    "flow edge not a pair": (_two_vertex_net(edges=[["A", "B", "C"]]), "flows[0].edges[0]"),
    "flow edge a string": (_two_vertex_net(edges=["AB"]), "flows[0].edges[0]"),
    "bad deadline literal": (_two_vertex_net(deadlines={"B": "soon"}), "flows[0].deadlines.B"),
    "bad lmax literal": (_two_vertex_net(lmin="1", lmax="x"), "flows[0].lmax"),
    "deadlines a string": (_two_vertex_net(deadlines="soon"), "flows[0].deadlines"),
    "destinations a boolean": (_two_vertex_net(destinations=True), "flows[0].destinations"),
    "destination an object": (
        _two_vertex_net(destinations=[{"name": "B"}]), "flows[0].destinations[0]"
    ),
    "service an integer": ({"vertices": [{"name": "A", "service": 5}]}, "vertices[0].service"),
    "vertex name a list": ({"vertices": [{"name": ["A"]}]}, "vertices[0].name"),
    "flow id a list": (_two_vertex_net(id=["f"]), "flows[0].id"),
    "flow source a list": (_two_vertex_net(source=["A"]), "flows[0].source"),
    "edge from a list": (
        {"vertices": [{"name": "A"}, {"name": "B"}], "edges": [{"from": ["A"], "to": "B"}]},
        "edges[0].from",
    ),
    "placement kind a list": (
        _with_placement(kind=["pef"], vertex="B", flows=["f"]), "placements[0].kind"
    ),
    "placement vertex a list": (
        _with_placement(kind="pef", vertex=["B"], flows=["f"]), "placements[0].vertex"
    ),
    "flow edges an integer": (_two_vertex_net(edges=5), "flows[0].edges"),
    "list inside a flow edge": (_two_vertex_net(edges=[["A", ["B"]]]), "flows[0].edges[0]"),
    "list inside placement flows": (
        _with_placement(kind="pef", vertex="B", flows=[["f"]]), "placements[0].flows[0]"
    ),
    "flow graph with a cycle": (
        _second_flow_net([["A", "B"], ["B", "C"], ["C", "B"]], ["C"]), "flows[1].edges"
    ),
    "vertex not reachable from the source": (
        _second_flow_net(UNREACHABLE, ["B"]), "flows[1]"
    ),
    "duplicate vertex": ({"vertices": [{"name": "A"}, {"name": "A"}]}, "vertices[1]"),
    "duplicate edge": (
        {**_two_vertex_net(), "edges": [{"from": "A", "to": "B"}] * 2}, "edges[1]"
    ),
    "duplicate flow id": (
        {**_two_vertex_net(), "flows": _two_vertex_net()["flows"] * 2}, "flows[1]"
    ),
    "lmax below lmin": (_two_vertex_net(lmin="2", lmax="1"), "flows[0].lmax"),
    # a curve's segments are a non-empty list of {"rate", "burst"} objects
    "curve segment a string": (
        _two_vertex_net(arrival={"segments": ["12"]}), "flows[0].arrival.segments[0]"
    ),
    "curve segment a pair": (
        _two_vertex_net(arrival={"segments": [[3, 4]]}), "flows[0].arrival.segments[0]"
    ),
    "curve segment without a burst": (
        _two_vertex_net(arrival={"segments": [{"rate": 1, "burst": 1}, {"rate": 1}]}),
        "flows[0].arrival.segments[1]",
    ),
    "curve segments an object": (
        _two_vertex_net(arrival={"segments": {"rate": 1}}), "flows[0].arrival.segments"
    ),
    "curve without segments": (
        _two_vertex_net(arrival={"segments": []}), "flows[0].arrival.segments"
    ),
    "placement without flows": (
        _with_placement(kind="pef", vertex="B", flows=[]), "placements[0].flows"
    ),
    "negative resequencer timeout": (
        _with_placement(kind="pof", vertex="B", flows=["f"], reference="A", timeout="-1"),
        "placements[0].timeout",
    ),
    "unknown regulator mode": (
        _with_placement(
            kind="reg", vertex="B", flows=["f"], reference="A", mode="fifo",
            shaping={"f": {"rate": "1", "burst": "1"}},
        ),
        "placements[0].mode",
    ),
    # a regulator's shaping names only the flows it lists
    "shaping curve for a flow the regulator does not list": (
        _with_placement(
            kind="reg", vertex="B", flows=["f"], reference="A", mode="per-flow",
            shaping={"f": {"rate": "1", "burst": "1"}, "zz": {"rate": "1", "burst": "1"}},
        ),
        "placements[0].shaping.zz",
    ),
    # a technological delay has a finite upper end
    "unbounded technological delay": (
        {"vertices": [{"name": "A", "tech": ["0", "unbounded"]}]}, "vertices[0].tech"
    ),
    "technological delay without an upper end": (
        {"vertices": [{"name": "A", "tech": {"lo": "0", "hi": None}}]}, "vertices[0].tech"
    ),
    "placement off the flow": (
        {
            **_second_flow_net([["A", "C"]], ["C"]),
            "placements": [{"kind": "pef", "vertex": "C", "flows": ["f"]}],
        },
        "placements[0]",
    ),
    "merge re-splits the flow": (
        _second_flow_net(
            [["A", "B"], ["A", "C"], ["B", "D"], ["C", "D"], ["D", "E"], ["D", "F"]],
            ["E", "F"],
        ),
        "flows[1]",
    ),
}


FALSY = {"an empty string": "", "zero": 0, "an empty object": {}, "false": False}


def _toy_scenario(edit=None):
    """scn-toy-pfr.json, changed in place by `edit`."""
    with bundled_dir().joinpath("scn-toy-pfr.json").open() as fh:
        doc = json.load(fh)
    if edit is not None:
        edit(doc)
    return doc


def _set_arrival(value):
    return _toy_scenario(lambda d: d["flows"]["f"].update(arrival=value))


def _set_pof(**pof):
    return _toy_scenario(lambda d: d["pipeline"].update(pof=pof))


def _set_source(key, value):
    return _toy_scenario(lambda d: d["sources"][1].update({key: value}))


MALFORMED_SCENARIOS = {
    "top-level list": ([], "$"),
    "flow profile not an object": (
        {"flows": {"f": 3}, "sources": [], "paths": []}, "flows.f"
    ),
    "flows not an object": (_toy_scenario(lambda d: d.update(flows=["f"])), "flows"),
    "sources not a list": (_toy_scenario(lambda d: d.update(sources={})), "sources"),
    "paths not a list": (_toy_scenario(lambda d: d.update(paths="short")), "paths"),
    "missing sources": (_toy_scenario(lambda d: d.pop("sources")), "sources"),
    "missing paths": (_toy_scenario(lambda d: d.pop("paths")), "paths"),
    "missing path bounds": (
        _toy_scenario(lambda d: d["paths"][0].pop("bounds")), "paths[0].bounds"
    ),
    "source not an object": (
        _toy_scenario(lambda d: d["sources"].__setitem__(0, 1)), "sources[0]"
    ),
    "missing source time": (
        _toy_scenario(lambda d: d["sources"][1].pop("time")), "sources[1].time"
    ),
    "bad schedule action": (
        _toy_scenario(lambda d: d["paths"][0]["schedule"].__setitem__("f/7", "wait")),
        "paths[0].schedule.f/7",
    ),
    "bad delay literal": (
        _toy_scenario(lambda d: d["paths"][1]["schedule"]["f/1"].update(delay="1/0")),
        "paths[1].schedule.f/1.delay",
    ),
    "resequenced flow not a string": (
        _toy_scenario(lambda d: d["pipeline"].update(pof={"flows": ["f", {}]})),
        "pipeline.pof.flows[1]",
    ),
    "bad regulator mode": (
        _toy_scenario(lambda d: d["pipeline"]["reg"].update(mode="fifo")),
        "pipeline.reg.mode",
    ),
    "zero-size flag a string": (
        _toy_scenario(lambda d: d.update(allow_zero_size="false")), "allow_zero_size"
    ),
    "eliminator flag a string": (
        _toy_scenario(lambda d: d["pipeline"].update(pef="no")), "pipeline.pef"
    ),
    "lossy flag a number": (
        _toy_scenario(lambda d: d["paths"][0].update(lossy=1)), "paths[0].lossy"
    ),
    "fifo flag a string": (
        _toy_scenario(lambda d: d["paths"][1].update(fifo="yes")), "paths[1].fifo"
    ),
    "unit id an object": (
        _toy_scenario(lambda d: d["sources"][0].update(unit={"id": "1"})), "sources[0].unit"
    ),
    "schedule key without a slash": (
        _toy_scenario(lambda d: d["paths"][0]["schedule"].__setitem__("f7x", {"delay": "0"})),
        "paths[0].schedule.f7x",
    ),
    "schedule key naming no unit": (
        _toy_scenario(lambda d: d["paths"][1]["schedule"].__setitem__("f/999", "drop")),
        "paths[1].schedule.f/999",
    ),
    "name an object": (_toy_scenario(lambda d: d.update(name={"a": [1, 2]})), "name"),
    "meta a list": (_toy_scenario(lambda d: d.update(meta=["toy"])), "meta"),
    # only an absent key or null means "not given": a falsy value of the
    # wrong kind is no way to say "no arrival curve" or "every flow"
    **{
        f"arrival {what}": (_set_arrival(value), "flows.f.arrival")
        for what, value in FALSY.items()
    },
    **{
        f"resequenced flows {what}": (_set_pof(flows=value), "pipeline.pof.flows")
        for what, value in FALSY.items()
    },
    "no resequenced flow": (_set_pof(flows=[]), "pipeline.pof.flows"),
    "negative resequencer timeout": (_set_pof(timeout="-1"), "pipeline.pof.timeout"),
    "negative emission time": (_set_source("time", "-1"), "sources[1].time"),
    "negative unit size": (_set_source("size", "-1/2"), "sources[1].size"),
    "no path": (_toy_scenario(lambda d: d.update(paths=[])), "paths"),
    "repeated source unit": (
        _toy_scenario(lambda d: d["sources"].insert(1, dict(d["sources"][0]))), "sources[1]"
    ),
    "unit id a number": (
        _toy_scenario(lambda d: d["sources"][2].update(unit=int(d["sources"][2]["unit"]))),
        "sources[2].unit",
    ),
    # the network loader's checks of a flow's unit sizes
    "negative minimum unit size": (
        _toy_scenario(lambda d: d["flows"]["f"].update(lmin="-3")), "flows.f.lmin"
    ),
    "zero minimum unit size": (
        _toy_scenario(lambda d: d["flows"]["f"].update(lmin=0)), "flows.f.lmin"
    ),
    "maximum unit size below the minimum": (
        _toy_scenario(lambda d: d["flows"]["f"].update(lmax="1/2")), "flows.f.lmax"
    ),
    "minimum unit size not a rational": (
        _toy_scenario(lambda d: d["flows"]["f"].update(lmin="big")), "flows.f.lmin"
    ),
    # a pipeline stage names only flows that a source emits
    "resequenced flow no source emits": (_set_pof(flows=["f", "zz"]), "pipeline.pof.flows[1]"),
    "shaped flow no source emits": (
        _toy_scenario(
            lambda d: d["pipeline"]["reg"]["shaping"].update(zz={"rate": "1", "burst": "1"})
        ),
        "pipeline.reg.shaping.zz",
    ),
    # the network loader's lmin defaults to 1; a scenario flow may give lmax alone
    "negative maximum unit size, no minimum": (
        _toy_scenario(lambda d: d["flows"].update(f={"lmax": "-3"})), "flows.f.lmax"
    ),
}


def _random_entry(doc, rng):
    """(container, key) of an entry drawn from the first few items of every
    object and list in `doc`."""
    entries = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node)[:6] if isinstance(node, dict) else range(min(len(node), 6))
        for key in keys:
            entries.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return rng.choice(entries)


class TestInputErrors:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_malformed_scenario_names_the_path(self, case, tmp_path, capsys):
        doc, path = MALFORMED_SCENARIOS[case]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        argv = ["verify", "--scenario", str(target),
                "--network", bundled("net-toy-pef-pfr.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["time", "size"])
    @pytest.mark.parametrize("value", [-1, "-1/2", -0.5], ids=["int", "str", "float"])
    def test_simulate_rejects_a_negative_source_value(self, key, value, tmp_path, capsys):
        target = tmp_path / "negative.json"
        target.write_text(json.dumps(_set_source(key, value)))
        assert main(["simulate", "--scenario", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sources[1].{key}: unit f/2: negative ")
        assert "Traceback" not in err

    def test_null_optional_scenario_values_mean_not_given(self, tmp_path, capsys):
        doc = _set_arrival(None)
        doc["pipeline"]["pof"] = {"flows": None, "timeout": None}
        target = tmp_path / "nulls.json"
        target.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(target)]) == 0
        assert capsys.readouterr().out.startswith("time,kind,branch,flow,unit,size")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document_names_the_path(self, case, tmp_path, capsys):
        doc, path = MALFORMED[case]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "interval", ["x", [1, 2, 3], {"lo": 1}], ids=["a string", "three numbers", "no hi"]
    )
    def test_malformed_delay_interval_says_what_it_expected(self, interval, tmp_path, capsys):
        expected = 'expected a [lo, hi] pair or a {"lo", "hi"} object'
        network = _two_vertex_net()
        network["vertices"][0]["tech"] = interval
        scenario = _toy_scenario(lambda d: d["paths"][1].update(bounds=interval))
        for argv, doc, message in (
            (["analyze", "--in"], network, f"error: vertices[0].tech: {expected}\n"),
            (["simulate", "--scenario"], scenario,
             f"error: paths[1].bounds: bad delay interval: {expected}\n"),
        ):
            target = tmp_path / "bad.json"
            target.write_text(json.dumps(doc))
            assert main(argv + [str(target)]) == 1
            assert capsys.readouterr().err == message

    @pytest.mark.parametrize("hi", ["unbounded", None])
    def test_unbounded_delay_is_rejected_in_a_network_only(self, hi, tmp_path, capsys):
        # on a pure-delay vertex it would make every flow through it
        # unbounded; a scenario path's bounds may still be open-ended
        network = _two_vertex_net()
        network["vertices"][1]["tech"] = ["0", hi]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(network))
        assert main(["analyze", "--in", str(target)]) == 1
        assert capsys.readouterr().err == (
            "error: vertices[1].tech: a technological delay needs a finite upper end\n"
        )
        scenario = load_scenario(_toy_scenario(lambda d: d["paths"][1].update(bounds=["0", hi])))
        assert scenario.paths[1].bounds.hi == UNBOUNDED

    def test_shaping_of_a_flow_the_regulator_does_not_list_is_rejected(self, tmp_path, capsys):
        # g is a flow of the network, but this regulator shapes f alone
        doc = _second_flow_net([["A", "B"]], ["B"])
        shaping = {fid: {"rate": "1", "burst": "1"} for fid in "fg"}
        doc["placements"] = [{"kind": "reg", "vertex": "B", "flows": ["f"], "reference": "A",
                              "mode": "per-flow", "shaping": shaping}]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(target)]) == 1
        assert capsys.readouterr().err == (
            "error: placements[0].shaping.g: the regulator does not list flow g\n"
        )
        del shaping["g"]
        target.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(target)]) == 0

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_deeply_nested_document_exits_1(self, command, tmp_path, capsys):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000)
        flag = "--in" if command == "analyze" else "--scenario"
        assert main([command, flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $: ")
        assert "Traceback" not in err

    def test_flow_size_checks_match_the_network_loader(self, tmp_path, capsys):
        target = tmp_path / "sizes.json"
        for key, value, message in (
            ("lmin", "-3", "minimum data unit size must be > 0"),
            ("lmax", "1/2", "lmax must be >= lmin"),
        ):
            doc = _toy_scenario(lambda d: d["flows"]["f"].update({key: value}))
            target.write_text(json.dumps(doc))
            assert main(["simulate", "--scenario", str(target)]) == 1
            assert capsys.readouterr().err == f"error: flows.f.{key}: {message}\n"
            with bundled_dir().joinpath("net-toy-pef.json").open() as fh:
                doc = json.load(fh)
            doc["flows"][0][key] = value
            target.write_text(json.dumps(doc))
            assert main(["analyze", "--in", str(target)]) == 1
            assert capsys.readouterr().err == f"error: flows[0].{key}: {message}\n"

    def test_corrupted_scenarios_never_escape_the_exit_codes(self, tmp_path, capsys):
        """Seeded corruptions of every bundled scenario: one entry replaced
        by a value of the wrong kind, or one key removed.  `simulate` either
        runs or exits 1 with a diagnostic; no exception leaves `main`."""
        junk = [None, -1, 1.5, "x", "1/0", [], {}, [1], {"a": 1}, True, {"delay": "x"}]
        rng = random.Random(0x5CE)
        target = tmp_path / "bad.json"
        for name in bundled_names():
            if not name.startswith("scn-"):
                continue
            with bundled_dir().joinpath(name).open() as fh:
                base = json.load(fh)
            for _ in range(25):
                doc = copy.deepcopy(base)
                parent, key = _random_entry(doc, rng)
                if isinstance(parent, dict) and rng.random() < 0.3:
                    del parent[key]
                else:
                    parent[key] = copy.deepcopy(rng.choice(junk))
                target.write_text(json.dumps(doc))
                code = main(["simulate", "--scenario", str(target),
                             "--trace-out", str(tmp_path / "trace.csv")])
                err = capsys.readouterr().err
                assert code in (0, 1), (name, doc)
                if code == 1:
                    assert err.startswith("error: "), (name, err)

    def test_corrupted_networks_never_escape_the_exit_codes(self, tmp_path, capsys):
        """Seeded corruptions of every bundled network: one entry replaced by
        a value of the wrong kind.  `analyze` runs (exit 0 or 2) or exits 1
        with a diagnostic; no exception leaves `main`."""
        junk = [None, -1, 1.5, "x", "1/0", [], {}, [1], ["B"], {"a": 1}, True,
                {"rate": "1", "burst": "x"}]
        rng = random.Random(0x4E7)
        target = tmp_path / "bad.json"
        for name in bundled_names():
            if not name.startswith("net-"):
                continue
            with bundled_dir().joinpath(name).open() as fh:
                base = json.load(fh)
            for _ in range(25):
                doc = copy.deepcopy(base)
                parent, key = _random_entry(doc, rng)
                parent[key] = copy.deepcopy(rng.choice(junk))
                target.write_text(json.dumps(doc))
                code = main(["analyze", "--in", str(target)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (name, doc)
                if code == 1:
                    assert err.startswith("error: "), (name, err)

    def test_unreachable_vertex_is_named_in_edge_order(self, tmp_path):
        # the vertex named must not depend on set iteration order
        target = tmp_path / "unreachable.json"
        target.write_text(json.dumps(_second_flow_net(UNREACHABLE, ["B"])))
        errors = set()
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "redcalc.cli", "analyze", "--in", str(target)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 1
            errors.add(proc.stderr)
        assert errors == {"error: flows[1]: vertex E is not reachable from the source\n"}

    def test_diagnostic_names_the_json_path(self, tmp_path, capsys):
        target = tmp_path / "bad.json"
        target.write_text(
            json.dumps(
                {"vertices": [{"name": "A"}],
                 "flows": [{"id": "x", "source": "A"}]}
            )
        )
        assert main(["analyze", "--in", str(target)]) == 1
        assert "flows[0].destinations" in capsys.readouterr().err

    def test_a_literal_beyond_the_digit_limit_names_its_path(self, tmp_path, capsys):
        # reading keeps Python's limit on the digits of an int, which guards
        # the parser against huge literals (CVE-2020-10735)
        doc, _ = _prime_chain_net(3)
        doc["vertices"][2]["tech"] = ["0", "1" + "0" * 4300]
        target = tmp_path / "huge.json"
        target.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error: vertices[2].tech: ")

    def test_missing_file(self, capsys):
        assert main(["analyze", "--in", "/tmp/no-such-net.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        target = tmp_path / "trunc.json"
        target.write_text('{"vertices": [')
        assert main(["analyze", "--in", str(target)]) == 1


class TestUsageErrors:
    """A command line argparse rejects exits 1, an input error, not 2, which
    means a violated or unconverged analysis; `--help` exits 0."""

    TOY = ["analyze", "--in", bundled("net-toy-pef.json")]

    @pytest.mark.parametrize(
        "argv",
        [
            TOY + ["--iter-cap", "abc"],
            TOY + ["--iter-cap"],
            TOY + ["--model", "exact"],
            TOY + ["--format", "xml"],
            TOY + ["--no-such-flag"],
            ["analyze"],
            ["verify", "--network", bundled("net-toy-pef.json")],
            ["no-such-command"],
            [],
        ],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: redcalc" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["bundled", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: redcalc" in capsys.readouterr().out

    def test_the_burst_cap_flag_is_gone(self, capsys):
        # divergence is decided by the exact solve and the overload check,
        # and only --iter-cap bounds the passes
        for command in ("analyze", "compare"):
            with pytest.raises(SystemExit) as exc:
                main([command, *self.TOY[1:], "--burst-cap", "4"])
            assert exc.value.code == 1
            assert "error: unrecognized arguments: --burst-cap 4" in capsys.readouterr().err

    def test_console_script_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "redcalc.cli", *self.TOY, "--iter-cap", "abc"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "invalid int value: 'abc'" in proc.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--iter-cap", "0"], "iteration cap must be at least 1, not 0"),
            (["--iter-cap", "-2"], "iteration cap must be at least 1, not -2"),
        ],
    )
    def test_caps_out_of_range_exit_1(self, flags, message, capsys):
        for command in ("analyze", "compare"):
            assert main([command, *self.TOY[1:], *flags]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_analyze_rejects_caps_out_of_range(self):
        ring = network_from_json(ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4))
        for kw in ({"iter_cap": 0}, {"iter_cap": -2}):
            with pytest.raises(ValueError, match="cap must"):
                analyze(ring, **kw)
        # the smallest cap still runs: one pass
        assert analyze(ring, iter_cap=1).status == "IterationCap"


class TestBundledCorpus:
    def test_listing(self):
        names = bundled_names()
        assert "net-toy-pef.json" in names
        assert "pairs.json" in names

    def test_networks_load(self):
        for name in bundled_names():
            if name.startswith("net-"):
                with bundled_dir().joinpath(name).open() as fh:
                    load_network(fh)

    def test_scenarios_replay(self):
        for name in bundled_names():
            if name.startswith("scn-"):
                with bundled_dir().joinpath(name).open() as fh:
                    run_scenario(load_scenario(fh))

    def test_pairs_reference_bundled_files(self):
        with bundled_dir().joinpath("pairs.json").open() as fh:
            pairs = json.load(fh)
        names = set(bundled_names())
        assert pairs
        for pair in pairs:
            assert pair["scenario"] in names
            assert pair["network"] in names
            assert pair["model"] in ("tight", "intuitive")
            assert isinstance(pair["lossless"], bool)

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "redcalc.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "analyze" in proc.stdout


class TestSimulatorLoadedOnFirstUse:
    # a fresh interpreter with only src/ on its path and without site, which
    # may preload modules (as a .pth file can); -I drops the environment and
    # the working directory from the path, -B writes no bytecode
    PROBE = """
import sys
sys.path.insert(0, {src!r})
from redcalc.cli import main

for command in ("analyze", "compare"):
    assert main([command, "--in", {net!r}, "--out", {out!r}]) == 0, command
print(sorted(m for m in sys.modules
             if m.split(".")[:2] == ["redcalc", "sim"] or m in ("csv", "importlib.resources")))
code = main(["verify", "--scenario", "bundled:scn-toy-pfr.json",
             "--network", "bundled:net-toy-pef-pfr.json", "--out", {out!r}])
print(code, "redcalc.sim" in sys.modules)
"""

    def test_analysis_commands_never_load_the_simulator(self, tmp_path):
        import redcalc

        package = os.path.dirname(redcalc.__file__)
        probe = self.PROBE.format(
            src=os.path.dirname(package),
            net=os.path.join(package, "data", "net-volvo-like.json"),
            out=str(tmp_path / "out.json"),
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", probe],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "0 True"]

    def test_deferred_names_reach_the_engine(self, monkeypatch, capsys):
        # the benchmark tracer wraps both the package's and the CLI's
        # run_scenario; the CLI must not call through the package's
        import redcalc.sim

        simulate = ["simulate", "--scenario", bundled("scn-toy-pof-pfr.json")]
        verify = ["verify", "--scenario", bundled("scn-toy-pfr.json"),
                  "--network", bundled("net-toy-pef-pfr.json")]

        def run_both():
            assert main(simulate) == 0
            assert main(verify) == 0
            return capsys.readouterr().out

        def unused(*args):
            raise AssertionError("the CLI called through redcalc.sim")

        before = run_both()
        monkeypatch.setattr(redcalc.sim, "run_scenario", unused)
        monkeypatch.setattr(redcalc.sim, "load_scenario", unused)
        assert run_both() == before


class TestStartUpWithoutDataclassesOrTyping:
    # the records of the analyzer and of the simulator are plain classes with
    # slots, so no command loads `dataclasses`, the `inspect` it imports, or
    # `typing`; the interpreter is started as in TestSimulatorLoadedOnFirstUse
    PROBE = """
import json, os, sys
sys.path.insert(0, {src!r})
from redcalc.cli import main

for net in {nets!r}:
    for command in ("analyze", "compare"):
        # 2: the instability network has no bound
        assert main([command, "--in", net, "--out", {out!r}]) in (0, 2), (command, net)
with open(os.path.join({data!r}, "pairs.json")) as fh:
    pairs = json.load(fh)
for pair in pairs:
    scenario = os.path.join({data!r}, pair["scenario"])
    network = os.path.join({data!r}, pair["network"])
    assert main(["simulate", "--scenario", scenario, "--trace-out", {out!r}]) == 0, pair
    flags = ["--model", pair["model"]] + (["--lossless"] if pair["lossless"] else [])
    argv = ["verify", "--scenario", scenario, "--network", network, "--out", {out!r}]
    assert main(argv + flags) == 0, pair
print(sorted(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules))
"""

    def test_analysis_commands_load_no_dataclasses_inspect_or_typing(self, tmp_path):
        import redcalc

        package = os.path.dirname(redcalc.__file__)
        # rate-latency ports, eliminators, re-sequencers, both regulator kinds
        names = ("net-volvo-like.json", "net-toy-pef-pof-pfr.json", "net-ir-instability.json")
        data = os.path.join(package, "data")
        nets = [os.path.join(data, name) for name in names]
        probe = self.PROBE.format(
            src=os.path.dirname(package), nets=nets, data=data, out=str(tmp_path / "out.json")
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", probe],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]


def test_scenario_profile_of_a_flow_no_source_emits_is_rejected(tmp_path, capsys):
    doc = _toy_scenario(lambda d: d["flows"].update(zz={"lmin": "1", "lmax": "2"}))
    target = tmp_path / "extra-profile.json"
    target.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flows.zz: unknown flow 'zz'")
    assert "Traceback" not in err


class TestJsonWriter:
    """`cli._json_text` writes `to_jsonable(doc)` in one walk; its bytes must be
    those of `json.dumps(to_jsonable(doc), indent=2)`."""

    @staticmethod
    def _same(doc):
        want = json.dumps(to_jsonable(doc), indent=2)
        assert cli._json_text(doc) == want
        return want

    def _reports(self, monkeypatch, argv, tmp_path):
        """Run the command and check each document it writes; returns how
        many it wrote."""
        written = []
        text_of = cli._json_text

        def checked(doc):
            text = text_of(doc)
            assert text == json.dumps(to_jsonable(doc), indent=2)
            written.append(text)
            return text

        monkeypatch.setattr(cli, "_json_text", checked)
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) in (0, 2)
        assert written and out.read_text(encoding="utf-8") == written[-1]
        return len(written)

    def test_every_bundled_analyze_and_compare_report(self, monkeypatch, tmp_path):
        nets = [n for n in bundled_names() if n.startswith("net-")]
        assert len(nets) >= 6
        for name in nets:
            for argv in (
                ["analyze", "--in", bundled(name)],
                ["analyze", "--in", bundled(name), "--model", "intuitive", "--lossless"],
                ["compare", "--in", bundled(name)],
            ):
                assert self._reports(monkeypatch, argv, tmp_path) == 1

    def test_every_bundled_verify_report(self, monkeypatch, tmp_path):
        with bundled_dir().joinpath("pairs.json").open() as fh:
            pairs = json.load(fh)
        for pair in pairs:
            argv = ["verify", "--scenario", bundled(pair["scenario"]),
                    "--network", bundled(pair["network"]), "--model", pair["model"]]
            argv += ["--lossless"] if pair["lossless"] else []
            assert self._reports(monkeypatch, argv, tmp_path) == 1

    def test_empty_and_nested_empty_containers(self):
        for doc in ({}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]]],
                    {"a": {"b": {}}, "c": [[], [{}]]}):
            self._same(doc)

    def test_names_with_non_ascii_quote_and_control_characters(self):
        names = ["plain", "é-port", "日本", "a\"b", "back\\slash", "tab\there", "nl\nx",
                 "\x00\x1f\x7f", "emoji \U0001f600", ""]
        self._same({name: [name, {name: name}] for name in names})

    def test_leaves(self):
        self._same({"t": True, "f": False, "n": None, "i": [0, -3, 10**30], "x": 0.1,
                    "big": 1e300, "u": UNBOUNDED, "q": Fraction(-7, 3), "s": "unbounded"})
        for leaf in (True, False, None, 0, 7, 2.5, "unbounded", UNBOUNDED, Fraction(1, 3)):
            self._same(leaf)
            self._same([leaf])
