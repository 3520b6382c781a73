"""Metamorphic checks of the command line: changes to a request that must not change its verdict.

- Listing an instrument's ``"elements"`` rows in another order gives the same
  file meaning, so the report must keep its bytes.
- A request that passes at one ``--tol`` passes at every larger one.

Both run over the seed-1 benchmark requests.  The row check also runs over
the checked-in fixtures that hold instruments, and the tolerance check over
the schema fuzzer's seed inputs, which include every fixture.
"""

import json
import os
import sys

import pytest

from causal_channels import cli
from test_schema_fuzz import SEEDS

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import inputs  # noqa: E402

TOLS = (1e-12, 1e-9, 1e-6, 1e-3, 1e-1)


def _fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


INSTRUMENT_FIXTURES = [
    (["compose", "loop", "x"], {"x": _fixture("nine_state.json")}),
    (["reconstruct-locc", "x"], {"x": _fixture("reconstruct_noisy.json")}),
]


def _bench_runs(workload):
    return [(req["argv"], req["files"]) for req in inputs.generate(workload, 1)]


def _run(tmp_path, argv, files, extra=()):
    """Exit code and report bytes of one request, its files written as given."""
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "report.json"
    if out.exists():
        out.unlink()
    paths = [str(tmp_path / a) if a in files else a for a in argv]
    code = cli.main(paths + list(extra) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def _reversed_rows(value):
    """``value`` with the ``"elements"`` rows of every instrument in it listed last to first."""
    if isinstance(value, list):
        return [_reversed_rows(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {k: _reversed_rows(v) for k, v in value.items()}
    if "in_alphabet" in value and isinstance(value.get("elements"), dict):
        out["elements"] = dict(reversed(list(value["elements"].items())))
    return out


@pytest.mark.parametrize("runs", ["compose-wide", "reconstruct-deep", "fixtures"])
def test_reports_keep_their_bytes_when_element_rows_are_reordered(runs, tmp_path):
    cases = INSTRUMENT_FIXTURES if runs == "fixtures" else _bench_runs(runs)
    reordered = 0
    for argv, files in cases:
        flipped = {name: _reversed_rows(obj) for name, obj in files.items()}
        if json.dumps(flipped) == json.dumps(files):
            continue  # no instrument with two rows
        reordered += 1
        assert _run(tmp_path, argv, flipped) == _run(tmp_path, argv, files), argv
    assert reordered >= 2


@pytest.mark.parametrize("runs", ["compose-wide", "reconstruct-deep", "procmat-enum", "fuzz-seeds"])
def test_a_request_that_passes_at_a_tolerance_passes_at_every_larger_one(runs, tmp_path):
    for argv, files in SEEDS if runs == "fuzz-seeds" else _bench_runs(runs):
        codes = [_run(tmp_path, argv, files, ["--tol", repr(tol)])[0] for tol in TOLS]
        first_pass = codes.index(0) if 0 in codes else len(codes)
        assert all(code == 0 for code in codes[first_pass:]), (argv, codes)
