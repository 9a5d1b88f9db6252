"""Metamorphic monotonicity laws of the analyzer.

More traffic or less service at one place never lowers an upper delay
bound: raising one flow's burst, slowing one served port's rate, or
lengthening one served port's latency moves every `hi` (each flow's
end-to-end bound and each port delay) up or leaves it.  An unbounded end
ranks above every rational.  These laws check end to end the monotonicity of
the sweep, on which the exact solve of a cyclic component rests: its affine
pieces have `A >= 0`, so the leading principal minors of `I - A` decide.

The draws alternate between `random_cyclic_network` and
`random_pef_network`, each rotating through the four model/lossless
settings; targets are picked from sorted lists, so a failing draw
reproduces under any hash seed.
"""

import copy
import random
from fractions import Fraction

from redcalc.minplus import is_unbounded
from redcalc.tfa import MODEL_INTUITIVE, MODEL_TIGHT, analyze
from redcalc.topology import network_from_json

from netfixtures import random_cyclic_network, random_pef_network

SETTINGS = [(model, lossless) for model in (MODEL_TIGHT, MODEL_INTUITIVE)
            for lossless in (False, True)]
DRAWS = 200


def _raise_burst(doc, rng):
    """One flow's burst raised by 1 on every segment of its arrival curve."""
    fid = rng.choice(sorted(f["id"] for f in doc["flows"]))
    (flow,) = [f for f in doc["flows"] if f["id"] == fid]
    for seg in flow["arrival"]["segments"]:
        seg["burst"] = str(Fraction(seg["burst"]) + 1)
    return f"burst of {fid} + 1"


def _served(doc, rng):
    name = rng.choice(sorted(v["name"] for v in doc["vertices"] if "service" in v))
    (vertex,) = [v for v in doc["vertices"] if v["name"] == name]
    return name, vertex["service"]


def _slow_rate(doc, rng):
    """One served port's rate scaled by 9/10."""
    name, service = _served(doc, rng)
    service["rate"] = str(Fraction(service["rate"]) * Fraction(9, 10))
    return f"rate of {name} * 9/10"


def _add_latency(doc, rng):
    """One served port's latency raised by 1/4."""
    name, service = _served(doc, rng)
    service["latency"] = str(Fraction(service["latency"]) + Fraction(1, 4))
    return f"latency of {name} + 1/4"


LAWS = {"burst": _raise_burst, "rate": _slow_rate, "latency": _add_latency}


def _rank(x):
    return (1, 0) if is_unbounded(x) else (0, x)


def _upper_ends(report) -> dict:
    ends = {("flow", r.flow, r.destination): r.interval.hi for r in report.results}
    ends.update((("port", v), d.hi) for v, d in report.vertex_delays.items())
    return ends


def _draws():
    """(draw, generator, document, setting, rng for the targets) of each
    draw; generator and setting rotate with the draw index."""
    rng = random.Random(0x1A75)
    for i in range(DRAWS):
        make = (random_cyclic_network, random_pef_network)[i % 2]
        yield i, make.__name__, make(rng), SETTINGS[(i // 2) % len(SETTINGS)], rng


def test_more_load_or_less_service_never_lowers_an_upper_end():
    raised = dict.fromkeys(LAWS, 0)
    for i, generator, doc, (model, lossless), rng in _draws():
        base = _upper_ends(analyze(network_from_json(doc), model, lossless))
        for law, perturb in LAWS.items():
            other = copy.deepcopy(doc)
            what = perturb(other, rng)
            ends = _upper_ends(analyze(network_from_json(other), model, lossless))
            assert ends.keys() == base.keys()
            for key, hi in base.items():
                assert _rank(ends[key]) >= _rank(hi), (
                    f"draw {i} of {generator}, model {model}, lossless {lossless}: "
                    f"{what} lowers {key} from {hi} to {ends[key]}")
            raised[law] += any(_rank(ends[key]) > _rank(hi) for key, hi in base.items())
    # each perturbation raises some upper end in 192 draws: all but the 8
    # whose analysis is Diverged, where every end is unbounded already
    assert all(n >= 180 for n in raised.values()), raised
