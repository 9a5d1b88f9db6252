"""The benchmark tracer (`bench/tracing.py`) wraps redcalc functions where
the calling modules bind them, so renaming or dropping one of those
bindings breaks the traced benchmark.  This checks every binding it names,
and that the analyzer's regulator verdicts still go through them."""

from pathlib import Path

from redcalc import cli, tfa
from redcalc.topology import load_network

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_resolves():
    # run the source without importing it, so nothing is written under bench/
    tracing = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    missing = [
        (span, target, attr)
        for span, bindings in tracing["SPANS"].items()
        for target, attr in bindings
        if not callable(getattr(tracing["_owner"](target), attr, None))
    ]
    assert tracing["SPANS"] and not missing


def test_regulator_verdicts_pass_through_the_traced_binding(monkeypatch):
    # the regulators span counts the verdict work through the names tfa binds;
    # the verdict runs after the fixed point, once per (flow, regulator)
    calls = []
    bounds = tfa.pfr_after_pef_bounds

    def counted(*args):
        calls.append(args)
        return bounds(*args)

    monkeypatch.setattr(tfa, "pfr_after_pef_bounds", counted)
    with cli.resolve_input("bundled:net-toy-pef-pfr.json").open() as fh:
        report = tfa.analyze(load_network(fh))
    assert len(calls) == 1
    assert report.reg_sites[0]["verdict"].bounded
