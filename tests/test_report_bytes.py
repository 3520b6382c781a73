"""Report bytes: ``serialize.dumps`` against the recursive formatter it replaced.

``_format_value`` below is the emitter every report used to be written with.
It formats one value at a time and is kept here as the reference: the
one-pass emitter must give the same bytes on every report.
"""

import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_channels import cli, serialize

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import inputs  # noqa: E402


def _format_value(value) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    if isinstance(value, dict):
        items = sorted(value.items())
        inner = ",".join(f"{json.dumps(str(k))}:{_format_value(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_format_value(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("cannot serialize non-finite float")
        if value == int(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _check_reports(monkeypatch, tmp_path, runs):
    """Run ``cli.main`` on each argv; every report must match the reference.

    The value handed to ``dumps`` must format the same under the reference,
    and the file written must be that text plus one newline.  Returns the
    exit codes and the report texts.
    """
    seen = []
    real = serialize.dumps

    def recording(value):
        text = real(value)
        seen.append((value, text))
        return text

    monkeypatch.setattr(serialize, "dumps", recording)
    codes, texts = [], []
    for argv in runs:
        out = tmp_path / "report.json"
        del seen[:]
        codes.append(cli.main(list(argv) + ["--out", str(out)]))
        assert len(seen) == 1, argv
        value, text = seen[0]
        assert text == _format_value(value), argv
        assert out.read_bytes() == (text + "\n").encode("ascii"), argv
        texts.append(text)
    return codes, texts


def _fixture(name):
    return os.path.join(FIXTURES, name)


def test_every_fixture_report_matches_the_reference(monkeypatch, tmp_path):
    runs = [
        ["compose", "loop", _fixture("nine_state.json")],
        ["check-procmat", _fixture("loop_process.json")],
        ["check-procmat", _fixture("one_way_process.json")],
        ["decompose-procmat", _fixture("loop_process.json")],
        ["decompose-procmat", _fixture("one_way_process.json")],
        ["probe-procmat", _fixture("loop_process.json")],
        ["probe-procmat", _fixture("one_way_process.json")],
        ["check-causal", _fixture("noisy_wiring.json"), _fixture("order_ab.json")],
        ["reconstruct-locc", _fixture("reconstruct_noisy.json")],
        ["discriminate-nine"],
        ["selftest"],
    ]
    codes, texts = _check_reports(monkeypatch, tmp_path, runs)
    assert codes == [0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0]
    # the selftest's timings stay out of its report
    assert '"duration"' not in texts[-1] and '"criteria"' in texts[-1]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_every_benchmark_report_matches_the_reference(workload, monkeypatch, tmp_path):
    runs, expected = [], []
    for j, req in enumerate(inputs.generate(workload, 9)):
        directory = tmp_path / f"r{j}"
        directory.mkdir()
        inputs.write_files(req, directory)
        runs.append([str(directory / a) if a in req["files"] else a for a in req["argv"]])
        expected.append(req["expect"])
    assert _check_reports(monkeypatch, tmp_path, runs)[0] == expected


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_non_finite_floats_are_rejected_anywhere(bad):
    for value in (
        bad,
        [1.0, bad],
        [[0.5, 1.0], [bad, 0.0]],
        {"a": {"b": [2, bad]}},
        ("%", [bad]),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps(value)
        with pytest.raises(ValueError):
            _format_value(value)


def test_unknown_types_are_rejected():
    for value in (np.float32(1.0), np.zeros(2), {1.0j}, object()):
        with pytest.raises(TypeError):
            serialize.dumps({"x": [value]})


EDGE_FLOATS = (
    0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0,
    1e15 + 1.0, 2.0**53, 1e17, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    0.1, 1 / 3,
)
py_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
floats = py_floats | st.builds(np.float64, py_floats)
ints = st.integers() | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
texts = st.text() | st.lists(
    st.sampled_from(["%", "%s", "%.17g", '"', "\\", "\x00", "\n", "a", "é", "∑",
                     "\U0001f600", "\ud800"]),
    max_size=6,
).map("".join)
leaves = floats | ints | st.booleans() | st.none() | texts
# the emitter takes lists of plain floats and of [re, im] pairs in one step
float_lists = st.lists(py_floats, max_size=8)
pair_lists = st.lists(st.lists(py_floats, min_size=2, max_size=2), max_size=6)
trees = st.recursive(
    leaves | float_lists | pair_lists,
    lambda kids: st.lists(kids, max_size=5)
    | st.tuples(kids, kids)
    | st.dictionaries(texts, kids, max_size=5),
    max_leaves=40,
)

@settings(max_examples=400, deadline=None)
@given(trees)
def test_dumps_matches_the_reference_on_json_trees(value):
    text = serialize.dumps(value)
    assert isinstance(text, str)
    assert text == _format_value(value)

@settings(max_examples=100, deadline=None)
@given(st.lists(py_floats, min_size=1, max_size=60), st.integers(0, 59))
def test_dumps_matches_the_reference_on_matrices(entries, cut):
    # a Choi-like matrix, its [re, im] pairs mixing plain and numpy floats
    rows = [list(p) for p in zip(entries[::2], entries[1::2])]
    value = {"choi": {"rows": 1, "cols": len(rows), "data": rows}, "tp_defect": entries[0]}
    assert serialize.dumps(value) == _format_value(value)
    if rows:
        rows[cut % len(rows)][0] = np.float64(rows[cut % len(rows)][0])
        assert serialize.dumps(value) == _format_value(value)
