"""Byte-identity of CLI reports and simulator traces: SHA-256 digests.

The digests pin every field of the reports, site records and notes
included, on the bundled corpus (all feed-forward) and on ring fixtures
that take the cyclic fixed-point path, converged or cut off.  The simulator
is pinned through the `simulate` CSV of every bundled scenario, the `verify`
report of every bundled pair, and the trace CSV of the toy runs and of an
adversarial interleaved-regulator run on mixed denominators.  A change that
is meant to alter an output must update its digest here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from redcalc import cli
from redcalc.cli import bundled_dir, bundled_names, main
from redcalc.sim import gen_adversarial_ir, run_scenario, toy_scenario
from redcalc.sim.generators import TOY_VARIANTS
from netfixtures import fwd_flow, rev_flow, ring_network, ring_sites_network, shaped_scenario
from oracles import full_sweep_analyze

NETWORKS = [n for n in bundled_names() if n.startswith("net-")]
SCENARIOS = [n for n in bundled_names() if n.startswith("scn-")]
PAIRS = json.loads(bundled_dir().joinpath("pairs.json").read_text())


def _contractive_ring():
    return ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)


def _growing_ring():
    return ring_network([fwd_flow("f1", 2, 1), rev_flow("f2", 2, 1)], 4)


def _two_segment_ring():
    """The ring with every function kind, each flow's arrival a minimum of
    two token buckets, so merges, port aggregates and jitter spreads carry
    multi-segment curves round the cycle."""
    doc = ring_sites_network()
    arrivals = {
        "f1": [("2", "1"), ("1/2", "3")],
        "f2": [("3/2", "1"), ("1/3", "2")],
        "f3": [("1", "1/2"), ("1/4", "2")],
    }
    for flow in doc["flows"]:
        flow["arrival"] = {
            "segments": [{"rate": r, "burst": b} for r, b in arrivals[flow["id"]]]
        }
    return doc


# case -> (network document, analyze flags)
RINGS = {
    "ring-converged": (_contractive_ring, []),
    "ring-iter-cap-1": (_growing_ring, ["--lossless", "--iter-cap", "1"]),
    "ring-iter-cap-2": (_growing_ring, ["--lossless", "--iter-cap", "2"]),
    "ring-sites-lossy": (ring_sites_network, []),
    "ring-sites-lossless": (ring_sites_network, ["--lossless"]),
    "ring-sites-timeout": (lambda: ring_sites_network("3"), []),
    "ring-sites-iter-cap-3": (ring_sites_network, ["--iter-cap", "3"]),
    "ring-two-segment": (_two_segment_ring, []),
    "ring-two-segment-lossless": (_two_segment_ring, ["--lossless"]),
}

# (exit code, SHA-256 of stdout), recorded before the single-pass analyzer;
# the two-segment cases before the merge-based `add`; the simulate and
# verify cases before the integer time base of the simulator; the ring cases
# cut off by the iteration cap since a cut-off holds no bound on its cycles
GOLDEN = {
    "compare:net-ir-instability.json:lossy": (
        2,
        "77d3cb707abd667d09eb24710e540a7c119ae75322b2ddfbe5d05aa823eaf9bf",
    ),
    "compare:net-ir-instability.json:lossless": (
        2,
        "905db64add4d012ffbc7135b42f65e55c74421a2f05c1725b8881a7f409057bb",
    ),
    "compare:net-tight-branches.json:lossy": (
        0,
        "b5c8449dc4f49e3c149910d0b196367338fae6a84558804ffecd412841df79c9",
    ),
    "compare:net-tight-branches.json:lossless": (
        0,
        "33578c7206851b92e031a3a51b4bcc11ec45869c87af416b1aaa66831b626d34",
    ),
    "compare:net-toy-pef-pfr.json:lossy": (
        0,
        "73feba3d6bd1d78e253b97ec33a0a4d681b1c1f709a35d58f5f7a9b8d83f80f5",
    ),
    "compare:net-toy-pef-pfr.json:lossless": (
        0,
        "e4f0160f33bef25808cf6ff510b6ae99b1aeded557cd8338a5d3327be4efdffd",
    ),
    "compare:net-toy-pef-pof-pfr.json:lossy": (
        0,
        "1d42fc418feae87ae6ecc3b8d06af33e7a5083a4a68bba74b86c62323257c841",
    ),
    "compare:net-toy-pef-pof-pfr.json:lossless": (
        0,
        "115e8eeac6f78ac32dbe1709c7268dccbca9b14e11aa25be7dd0459b475810b6",
    ),
    "compare:net-toy-pef.json:lossy": (
        0,
        "cc488f6f95f7f6b72a76bb4c47736883d6fabbe701f7b293e556cbfb7e60179a",
    ),
    "compare:net-toy-pef.json:lossless": (
        0,
        "0684344d3ceed30bfa27e982e2028ec19fec28314dc6348e46afcf08d5c0c2fb",
    ),
    "compare:net-volvo-like.json:lossy": (
        0,
        "28c0b06e235e348333c5d8160a447b274c9f155e260b3186ecf156a7ffd50050",
    ),
    "compare:net-volvo-like.json:lossless": (
        0,
        "bfe3d107261f89e6649eeed7e0fb7df35ec5c8559ea15199506b204272fd71f4",
    ),
    "analyze:ring-converged": (
        0,
        "bd69aed33e483424959e09dde362773e0982ff06dc596d3adf08a0b450c08a88",
    ),
    "analyze:ring-iter-cap-1": (
        2,
        "fdb5dbac02ef3789db166d450aa436115a5ec8a5b06941f6c5b0302979842169",
    ),
    "analyze:ring-iter-cap-2": (
        2,
        "910dff37c7b3aa0a971aa4d61b9a8056ce5734b9e960d3e54d16e3a4a88aa9b1",
    ),
    "analyze:ring-sites-iter-cap-3": (
        2,
        "b64dde6544252e31062a829617b09775e513f41fa6ad17b3951f904256978353",
    ),
    "analyze:ring-sites-lossless": (
        0,
        "4814070aedf69c423543d0431f82109ee9560bd4395185ba5edae54bb01c9abe",
    ),
    "analyze:ring-sites-lossy": (
        2,
        "43db7584a53041d0ce02e41c7b8c0215730eadb40c5f67e874c265606e00f4d9",
    ),
    "analyze:ring-sites-timeout": (
        0,
        "f60fca09e94a6a8b2c453385c959105c7921b214df4f51689978ce8ebd772bab",
    ),
    "analyze:ring-two-segment": (
        2,
        "06f333e290a10ed94d550570b9fe1f3fb9b601877a5d3cdef9437b75f31a71af",
    ),
    "analyze:ring-two-segment-lossless": (
        0,
        "c08dfef646c4d96afa5604269ee124416bb662b7e215322c5cf5cfd6f1466bc1",
    ),
    "simulate:scn-adversarial-ir.json": (
        0,
        "178d0df9bc8f8963a700a5466b183339c1f92d6e7e27fbc547683f148b7039a5",
    ),
    "simulate:scn-tightness-case1.json": (
        0,
        "8ee9a5f5dbc2bf170b5a138d2bb8654fb4a8c4c0f73c331db2dbeab735bbc29c",
    ),
    "simulate:scn-tightness-case2.json": (
        0,
        "3bc952ac1eb3e133e55b853ce219cfe3f38f21c06a63a5aa22823a550b1b5d32",
    ),
    "simulate:scn-toy-double-rate.json": (
        0,
        "b4a769251181b17b2eb704353e8f27c4a3b61c40298ac1ee3783f089a03c3e34",
    ),
    "simulate:scn-toy-lossy.json": (
        0,
        "0b5a0b622ee0c095985979cfa85f4c382a0d2ae20d1852a933ecfd7a7a527b0d",
    ),
    "simulate:scn-toy-pfr.json": (
        0,
        "12c5fcaca6e5f3c126e34c27a9d941094c01c146f9180087b60ef52ba2f74bf0",
    ),
    "simulate:scn-toy-pof-pfr.json": (
        0,
        "c91e717bdcd6b92a2c20e303f56d8efa3b9a311ea7fad87fac5c902d308a3ac4",
    ),
    "simulate:scn-toy-rto.json": (
        0,
        "b84f64edb83748c86c26c682ee207e9dd8779fe42aa55cb427c761a60ae68482",
    ),
    "verify:scn-adversarial-ir.json": (
        0,
        "7306a203278b8ca8348622e34b9515d3ac2a7b51bdd3bed4f3cd1295945238bc",
    ),
    "verify:scn-tightness-case1.json": (
        0,
        "c0dd718ee607db586a5d083b16c3e1d22f5fff29d67565974e23ee45a2e2e8f9",
    ),
    "verify:scn-tightness-case2.json": (
        0,
        "fd1f2330c034bf17addc9465be4ff62bb53ddf646771ee48a24b0c44a90e8de8",
    ),
    "verify:scn-toy-double-rate.json": (
        0,
        "90f84dfc4f04865501b87556e6a8ddc8a76f01c0fdf6c5a4f5d31fe30ff001f2",
    ),
    "verify:scn-toy-lossy.json": (
        0,
        "621c5bea0950eadad9e732ad1e3307a34e60c1e65a3939697e0064d49f9e4036",
    ),
    "verify:scn-toy-pfr.json": (
        0,
        "617ffd70a41f3c7db961e1abec959759ccc1e26f424de1d17936150d0b9fd67f",
    ),
    "verify:scn-toy-pof-pfr.json": (
        0,
        "e657bf5022d1d2aa4cc041c094b1f6594e3c83047f592730bfa51afadb45d808",
    ),
    "verify:scn-toy-rto.json": (
        0,
        "4fc0f1eef77516bc8357c4d6c42d2644ea998b4c98c0917a1d4d158c9b08e25b",
    ),
}

# (exit code, SHA-256 of stdout) of the ring cases whose port delays are
# solved exactly, recorded when the solve was tried after every pass; their
# GOLDEN digests are those of the grid algorithm, which the reference
# `full_sweep_analyze` keeps
SOLVED = {
    "ring-converged": (
        0,
        "318bc796379374d1040b9bb670e4d3b1822939ad03bf221501f771f02ee634e7",
    ),
    "ring-iter-cap-2": (
        0,
        "8da04b7db58e8f54994eead305d2f3f4104af06b58f382e35ff5a4a72d8e150e",
    ),
    "ring-sites-iter-cap-3": (
        2,
        "3f0a58248d644982337ecca00607ff45b2fddc5554c4951319440efdc16fdfef",
    ),
    "ring-sites-lossless": (
        0,
        "6699ffaeb3927b9608f9d20704ac7cd8f3d41b4a89b331dfa293a5b8ce4da9d9",
    ),
    "ring-sites-lossy": (
        2,
        "3f0a58248d644982337ecca00607ff45b2fddc5554c4951319440efdc16fdfef",
    ),
    "ring-sites-timeout": (
        0,
        "5698aa18a3f8b887d5228f6e545376b920649e7130a3d9b52ddc53c6afd54251",
    ),
    "ring-two-segment": (
        2,
        "78f335448fe2e69d579f63537594b921b687b22c63f2a35052cd0b7927764724",
    ),
    "ring-two-segment-lossless": (
        0,
        "728a2e6fc5596f3dc7951356cc96a414f18d0f162e8c51182c5a2340a5720962",
    ),
}

# SHA-256 of `Trace.to_csv()`, recorded before the integer time base
TRACES = {
    "toy:double-rate": "b4a769251181b17b2eb704353e8f27c4a3b61c40298ac1ee3783f089a03c3e34",
    "toy:rto": "b84f64edb83748c86c26c682ee207e9dd8779fe42aa55cb427c761a60ae68482",
    "toy:pof": "d0e54b8dbf47c6538d1c7622cfb213ae766482fba083ce56e526d75ae0e9731b",
    "toy:pfr": "12c5fcaca6e5f3c126e34c27a9d941094c01c146f9180087b60ef52ba2f74bf0",
    "toy:pof-pfr": "c91e717bdcd6b92a2c20e303f56d8efa3b9a311ea7fad87fac5c902d308a3ac4",
    "toy:lossy": "0b5a0b622ee0c095985979cfa85f4c382a0d2ae20d1852a933ecfd7a7a527b0d",
    "toy:pof@5/2": "0f7b38db698ca76337b56002ae07f46f34a9e34fd4b1ad34efb5066f99b97af3",
    "toy:pof-pfr@13/3": "9c18e3c7e729eb32007cc6a1e78c86c2ac52d504cfb734a3e5e50bb495d4aeb9",
    "toy:lossy@13/3": "711b89ae7f7a30e530f77fffc1bcb6a67d22a07ae6e5b55df2ca439088f94440",
    "adversarial-ir": "6b15c6a86be8578ccc60afeef9b88fcde91b60ef3a43de71c30a1b539b2b3aa4",
    "shaped:per-flow": "b8d9f1ee112f8eba39161037f5f9f2a8bd54b35362674c4de9537d8924abda86",
    "shaped:interleaved": "6a41cc68e9ab7a3c3c5c35e7c153996f9cd4dd346d9c0453dfb7beaba96eaa05",
}
# the toy runs again with a fractional re-sequencer timeout
TIMED_TOYS = {"pof": Fraction(5, 2), "pof-pfr": Fraction(13, 3), "lossy": Fraction(13, 3)}


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
@pytest.mark.parametrize("name", NETWORKS)
def test_compare_bundled(name, lossless, capsys):
    flags = ["--lossless"] if lossless else []
    got = _run(["compare", "--in", f"bundled:{name}", *flags], capsys)
    assert got == GOLDEN[f"compare:{name}:{'lossless' if lossless else 'lossy'}"]


def _analyze_ring(case, tmp_path, capsys):
    make, flags = RINGS[case]
    target = tmp_path / "ring.json"
    target.write_text(json.dumps(make()))
    return _run(["analyze", "--in", str(target), *flags], capsys)


@pytest.mark.parametrize("case", sorted(RINGS))
def test_analyze_ring(case, tmp_path, capsys):
    assert _analyze_ring(case, tmp_path, capsys) == SOLVED.get(case, GOLDEN[f"analyze:{case}"])


@pytest.mark.parametrize("case", sorted(RINGS))
def test_analyze_ring_on_the_grid(case, tmp_path, capsys, monkeypatch):
    # the grid reference still writes the digests recorded before the solve
    monkeypatch.setattr(cli, "analyze", full_sweep_analyze)
    assert _analyze_ring(case, tmp_path, capsys) == GOLDEN[f"analyze:{case}"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_bundled(name, capsys):
    got = _run(["simulate", "--scenario", f"bundled:{name}"], capsys)
    assert got == GOLDEN[f"simulate:{name}"]


@pytest.mark.parametrize("pair", PAIRS, ids=[p["scenario"] for p in PAIRS])
def test_verify_bundled_pair(pair, capsys):
    argv = ["verify", "--scenario", f"bundled:{pair['scenario']}",
            "--network", f"bundled:{pair['network']}", "--model", pair["model"]]
    if pair["lossless"]:
        argv.append("--lossless")
    assert _run(argv, capsys) == GOLDEN[f"verify:{pair['scenario']}"]


def _csv_digest(scenario):
    return hashlib.sha256(run_scenario(scenario).to_csv().encode()).hexdigest()


@pytest.mark.parametrize("variant", TOY_VARIANTS)
def test_toy_trace(variant):
    assert _csv_digest(toy_scenario(variant)) == TRACES[f"toy:{variant}"]


@pytest.mark.parametrize("variant", sorted(TIMED_TOYS))
def test_toy_trace_with_fractional_timeout(variant):
    timeout = TIMED_TOYS[variant]
    got = _csv_digest(toy_scenario(variant, timeout=timeout))
    assert got == TRACES[f"toy:{variant}@{timeout}"]


@pytest.mark.parametrize("mode", ["per-flow", "interleaved"])
def test_regulator_trace_on_fractional_curves(mode):
    assert _csv_digest(shaped_scenario(mode)) == TRACES[f"shaped:{mode}"]


def test_adversarial_ir_trace_on_mixed_denominators():
    sc = gen_adversarial_ir(1, 1, 0, 1, 6, 7, q=13, periods=60, x1=Fraction(123, 997))
    assert _csv_digest(sc) == TRACES["adversarial-ir"]
