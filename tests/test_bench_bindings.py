"""The benchmark tracer (`bench/tracing.py`) wraps redcalc functions where
the calling modules bind them, so renaming or dropping one of those
bindings breaks the traced benchmark.  This checks every binding it names."""

from pathlib import Path

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
