"""The benchmark's tracer wraps every layer it names and changes no report.

``bench/tracer.py`` looks up each of its targets in the modules that
``causal_channels.cli`` loads, and its counters read the results of the calls
it wraps.  A renamed or no longer imported function, or a result of another
type, breaks traced benchmark runs; these tests catch that here.
"""

import argparse
import json
import os
import sys

import numpy as np
import pytest

from causal_channels import cli

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import ROOT, Tracer, layer_times  # noqa: E402


def _requests():
    """One small request per subcommand, and per composition mode."""
    rng = np.random.default_rng(3)
    return [
        inputs.verify_instrument(rng, 2, 2, valid=False),
        inputs.compose_one_way(rng, 2, 2),
        inputs.compose_protocol(rng, "ABA", (2, 3, 2), 2),
        inputs.compose_ccstar(rng, 2, 2, valid=True),
        inputs.compose_loop(rng, 2, 2, valid=False),
        inputs.compile_sep(rng, 2, 2),
        inputs.request("discriminate-nine", ["discriminate-nine"], {}, 0),
        *inputs.causal_requests(rng, "ABAB", (2, 2, 2, 2), "noisy", 2, True),
        inputs.procmat(rng, "check-procmat", (2, 2, 2, 2), valid=False),
        inputs.procmat(rng, "decompose-procmat", (3, 3, 2, 2), valid=True),
        inputs.procmat(rng, "probe-procmat", (2, 2, 2, 2), valid=True),
        inputs.request("selftest", ["selftest"], {}, 0),
    ]


REQUESTS = _requests()


@pytest.fixture(scope="module")
def tracer():
    return Tracer()  # raises KeyError or AttributeError on a target that does not resolve


def test_every_subcommand_is_covered():
    covered = {req["argv"][0] for req in REQUESTS}
    actions = cli.build_parser()._actions
    commands = next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
    assert covered == set(commands)


@pytest.mark.parametrize("req", REQUESTS, ids=[req["kind"] for req in REQUESTS])
def test_traced_run_matches_untraced_run(req, tracer, tmp_path):
    inputs.write_files(req, tmp_path)
    argv = [str(tmp_path / a) if a in req["files"] else a for a in req["argv"]]
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    untraced = out.read_bytes()
    out.unlink()

    tracer.install()
    try:
        tracer.begin(req["kind"])
        traced_code = cli.main(argv + ["--out", str(out)])
        tracer.end()
    finally:
        tracer.uninstall()
    assert traced_code == code
    assert out.read_bytes() == untraced
    assert oracle.check(req, code, json.loads(untraced)) is None
    entry = layer_times(tracer.spans)[req["kind"]]
    assert ROOT in entry["self"] and "serialize.dumps" in entry["self"]
    # serialize.bytes_out counts the characters dumps returns: the report
    # file without its final newline.
    assert untraced.endswith(b"\n")
    assert entry["counts"]["serialize.bytes_out"] == len(untraced) - 1
    # No traced compose_* calls another, so composition.kraus_out counts each
    # joint map once and each composition span's time is its own.
    spans = [rec for rec in tracer.spans if rec[0] == req["kind"]]
    for rec in spans:
        if rec[1].startswith("composition.") and rec[4] is not None:
            assert not tracer.spans[rec[4]][1].startswith("composition.")
