import json
import os
import sys
import time
import warnings

import numpy as np

from causal_channels import causal, serialize
from causal_channels.channels import Instrument, random_cptp, random_instrument
from causal_channels.cli import main
from causal_channels.composition import LoccProtocol
from causal_channels.procmat import ClassicalProcess, classical_process_to_choi, random_process_mixture

from test_bench_contract import REQUESTS

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import inputs  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _save(path, value, schema):
    encode = getattr(serialize, f"encode_{schema}")
    path.write_text(serialize.dumps(encode(value)) + "\n")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_discriminate_nine_passes(capsys):
    code, out = run(["discriminate-nine"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and len(report["states"]) == 9


def test_discriminate_nine_reads_the_tolerance_variable(capsys, monkeypatch):
    # the worst state distance is about 3.3e-16, above this tolerance
    monkeypatch.setenv("CAUSAL_CHANNELS_TOL", "1e-17")
    code, out = run(["discriminate-nine"], capsys)
    assert code == 1 and not json.loads(out)["pass"]


def test_verify_instrument(tmp_path, capsys):
    inst = random_instrument(2, 2, 2, 2, 1, 0)
    path = tmp_path / "inst.json"
    _save(path, inst, "instrument")
    code, out = run(["verify-instrument", str(path)], capsys)
    assert code == 0 and json.loads(out)["pass"]

    # break trace preservation by dropping an element
    obj = json.loads(path.read_text())
    obj["elements"]["0"][0]["kraus"] = []
    path.write_text(json.dumps(obj))
    code, out = run(["verify-instrument", str(path)], capsys)
    assert code == 1


def test_compose_loop_on_checked_in_fixture(capsys):
    code, out = run(["compose", "loop", os.path.join(FIXTURES, "nine_state.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["tp_defect"] <= 1e-9


def test_check_procmat_exit_codes(capsys):
    code, out = run(["check-procmat", os.path.join(FIXTURES, "loop_process.json")], capsys)
    assert code == 1
    report = json.loads(out)
    assert "witness" in report and "f" in report["witness"]
    code, _ = run(["check-procmat", os.path.join(FIXTURES, "one_way_process.json")], capsys)
    assert code == 0


def test_decompose_procmat(tmp_path, capsys):
    w = random_process_mixture(2, 2, 2, 2, 3)
    path = tmp_path / "w.json"
    _save(path, w, "classical_process")
    code, out = run(["decompose-procmat", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["recombination_error"] <= 1e-7
    code, _ = run(["decompose-procmat", os.path.join(FIXTURES, "loop_process.json")], capsys)
    assert code == 1


def test_check_causal_and_reconstruct(capsys):
    code, _ = run(
        [
            "check-causal",
            os.path.join(FIXTURES, "noisy_wiring.json"),
            os.path.join(FIXTURES, "order_ab.json"),
        ],
        capsys,
    )
    assert code == 0
    code, out = run(["reconstruct-locc", os.path.join(FIXTURES, "reconstruct_noisy.json")], capsys)
    assert code == 0
    assert json.loads(out)["choi_distance"] <= 1e-8


def test_reconstruct_size_guard_exits_2(monkeypatch, capsys):
    fixture = os.path.join(FIXTURES, "reconstruct_noisy.json")
    monkeypatch.setattr(causal, "MAX_ROUND_SIZE", 3)
    code, out = run(["reconstruct-locc", fixture], capsys)
    assert code == 2 and out == ""


def test_reconstruct_alphabet_3_delta_protocol(tmp_path, capsys):
    rounds, prev_out = [], 1
    for r, party in enumerate("ABAB"):
        rounds.append((party, random_instrument(prev_out, 3, 2, 2, 1, 20 + r)))
        prev_out = 3
    alice, bob, wiring, order = causal.protocol_to_wired_form(LoccProtocol(tuple(rounds), 2, 2))
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({
        "alice_rounds": [serialize.encode_instrument(x) for x in alice],
        "bob_rounds": [serialize.encode_instrument(x) for x in bob],
        "wiring": serialize.encode_aggregate_wiring(wiring),
        "order": serialize.encode_causal_order(order),
    }))
    code, out = run(["reconstruct-locc", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["choi_distance"] <= 1e-8


def test_a_large_order_file_exits_2_quickly(tmp_path, capsys):
    # 80 operations per party, A_r before B_r: closing it once took seconds
    nodes = [{"party": party, "round": r} for party in "AB" for r in range(1, 81)]
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": [[r, 80 + r] for r in range(80)]}))
    wiring = os.path.join(FIXTURES, "noisy_wiring.json")
    start = time.perf_counter()
    assert run(["check-causal", wiring, str(path)], capsys) == (2, "")
    assert time.perf_counter() - start < 1.0


def test_probe_procmat(tmp_path, capsys):
    code, out = run(["probe-procmat", os.path.join(FIXTURES, "one_way_process.json")], capsys)
    assert code == 0
    code, out = run(["probe-procmat", os.path.join(FIXTURES, "loop_process.json")], capsys)
    assert code == 1
    # more input symbols than two Kraus operators can map onto the outputs
    path = tmp_path / "w.json"
    _save(path, random_process_mixture(8, 8, 2, 2, 5), "classical_process")
    code, out = run(["probe-procmat", str(path)], capsys)
    assert code == 0 and json.loads(out)["pass"]
    # without random probes, only the deterministic strategy probes run
    code, out = run(["probe-procmat", os.path.join(FIXTURES, "one_way_process.json"),
                     "--probes", "0"], capsys)
    assert code == 0 and json.loads(out)["probes"]
    assert main(["probe-procmat", str(path), "--probes", "0"]) == 2
    assert "one probe at least" in capsys.readouterr().err
    # an empty or negative alphabet on a raw operator whose shape matches it
    for n_oa, rows in ((0, 0), (-1, 1)):
        matrix = {"rows": rows, "cols": rows, "data": [[1.0, 0.0]] * rows}
        path.write_text(json.dumps({"matrix": matrix, "n_ia": -1, "n_oa": n_oa, "n_ib": 1, "n_ob": 1}))
        assert run(["probe-procmat", str(path)], capsys) == (2, ""), n_oa


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    # every handler decodes its files through serialize.load, one call a file
    read = []
    load = serialize.load

    def counting(path, schema):
        read.append(os.path.basename(path))
        return load(path, schema)

    monkeypatch.setattr(serialize, "load", counting)
    for req in REQUESTS:
        if not req["files"]:
            continue
        directory = tmp_path / req["kind"]
        directory.mkdir()
        inputs.write_files(req, directory)
        argv = [str(directory / a) if a in req["files"] else a for a in req["argv"]]
        del read[:]
        main(argv + ["--out", str(directory / "report.json")])
        assert sorted(read) == sorted(a for a in req["argv"] if a in req["files"]), req["kind"]


def _kraus_entry(inst, value):
    """The encoded instrument with its first Kraus entry set to ``value``."""
    obj = serialize.encode_instrument(inst)
    cp = next(cp for row in obj["elements"].values() for cp in row if cp["kraus"])
    cp["kraus"][0]["data"][0][0] = value
    return obj


def test_input_errors_exit_2(tmp_path, capsys, monkeypatch):
    code, _ = run(["verify-instrument", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1}')
    code, _ = run(["check-procmat", str(bad)], capsys)
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text('{"n_ia": 2, "n_ib": 2, "n_oa": 2, "n_ob": 0, "table": []}')
    for command in ("check-procmat", "decompose-procmat"):
        code, _ = run([command, str(empty)], capsys)
        assert code == 2
    small = tmp_path / "small.json"  # a 4x4 operator cannot be a 2x2x2x2 process
    entries = [[0.5 if j % 5 == 0 else 0.0, 0.0] for j in range(16)]
    small.write_text(json.dumps({
        "matrix": {"rows": 4, "cols": 4, "data": entries}, "n_ia": 2, "n_oa": 2, "n_ib": 2, "n_ob": 2,
    }))
    code, _ = run(["probe-procmat", str(small)], capsys)
    assert code == 2
    assert main(["no-such-command"]) == 2
    # raw-JSON inputs that fail a composition check, or hold a NaN Kraus entry
    inst = random_instrument(1, 2, 2, 2, 1, 0)
    loop_a, loop_b = random_instrument(2, 2, 2, 2, 1, 1), random_instrument(2, 2, 2, 2, 1, 2)
    cases = {
        "mixed-bob-dims": ("one-way", {
            "alice": serialize.encode_instrument(inst),
            "bob_maps": [serialize.encode_cp_map(random_cptp(d, d, 1, d)) for d in (2, 3)],
        }),
        "no-alice-outcome": ("one-way", {
            "alice": serialize.encode_instrument(Instrument(1, 0, 2, 2)), "bob_maps": [],
        }),
        "loop-alphabets": ("loop", {
            "alice": serialize.encode_instrument(loop_a),
            "bob": serialize.encode_instrument(random_instrument(3, 2, 2, 2, 1, 3)),
        }),
        "loop-nan": ("loop", {
            "alice": _kraus_entry(loop_a, float("nan")), "bob": serialize.encode_instrument(loop_b),
        }),
    }
    for name, (mode, obj) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out = run(["compose", mode, str(path)], capsys)
        assert (code, out) == (2, ""), name
    with open(os.path.join(FIXTURES, "reconstruct_noisy.json")) as fh:
        fixture = json.load(fh)
    first_round = serialize.decode_instrument(fixture["alice_rounds"][0])
    fixture["alice_rounds"][0] = _kraus_entry(first_round, float("nan"))
    path = tmp_path / "nan-fixture.json"
    path.write_text(json.dumps(fixture))
    assert run(["reconstruct-locc", str(path)], capsys) == (2, "")
    # finite entries whose products overflow
    fixture["alice_rounds"][0] = _kraus_entry(first_round, 1e308)
    path = tmp_path / "overflow-fixture.json"
    path.write_text(json.dumps(fixture))
    with open(os.path.join(FIXTURES, "nine_state.json")) as fh:
        nine = json.load(fh)
    nine["alice"] = _kraus_entry(serialize.decode_instrument(nine["alice"]), 1e308)
    (tmp_path / "overflow-loop.json").write_text(json.dumps(nine))
    rounds = (("A", random_instrument(1, 2, 2, 2, 1, 5)), ("B", random_instrument(2, 2, 2, 2, 1, 6)))
    protocol = LoccProtocol(rounds, 2, 2)
    obj = serialize.encode_locc_protocol(protocol)
    obj["rounds"][0]["instrument"] = _kraus_entry(protocol.rounds[0][1], 1e308)
    (tmp_path / "overflow-protocol.json").write_text(json.dumps(obj))
    with warnings.catch_warnings():  # numpy's overflow warnings must not reach the user
        warnings.simplefilter("error")
        for argv in (["reconstruct-locc", "overflow-fixture.json"],
                     ["compose", "loop", "overflow-loop.json"],
                     ["compose", "protocol", "overflow-protocol.json"]):
            assert run(argv[:-1] + [str(tmp_path / argv[-1])], capsys) == (2, ""), argv
    # rounds or an order that do not match the wiring
    extra_node = {
        "nodes": [{"party": "A", "round": 1}, {"party": "B", "round": 1},
                  {"party": "B", "round": 2}],
        "edges": [[0, 1]],
    }
    with open(os.path.join(FIXTURES, "reconstruct_noisy.json")) as fh:
        fixture = json.load(fh)
    mismatches = {
        "no-bob-round": {"bob_rounds": []},
        "order-extra-node": {"order": extra_node},
        "bob-alphabet-3": {
            "bob_rounds": [serialize.encode_instrument(random_instrument(2, 3, 2, 2, 1, 4))]
        },
    }
    for name, change in mismatches.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**fixture, **change}))
        assert run(["reconstruct-locc", str(path)], capsys) == (2, ""), name
    order = tmp_path / "order-extra-node.json"
    order.write_text(json.dumps(extra_node))
    wiring = os.path.join(FIXTURES, "noisy_wiring.json")
    assert run(["check-causal", wiring, str(order)], capsys) == (2, "")
    empty = tmp_path / "empty-output-alphabet.json"  # vacuously normalised, once a traceback
    dist = {"input_alphabets": [2, 2], "output_alphabets": [0, 2], "table": []}
    empty.write_text(json.dumps({"n_a": 1, "n_b": 1, "dist": dist}))
    order_ab = os.path.join(FIXTURES, "order_ab.json")
    assert run(["check-causal", str(empty), order_ab], capsys) == (2, "")
    # a file that holds JSON, but not an object, or arrays nested too deep to read
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["check-procmat", str(deep)], capsys) == (2, "")
    path.write_text("[1.0]")
    for argv in (["compose", "loop"], ["compose", "one-way"], ["reconstruct-locc"],
                 ["probe-procmat"]):
        assert run(argv + [str(path)], capsys) == (2, ""), argv
    # a tolerance that is NaN, infinite or negative, from the flag or the environment
    loop = os.path.join(FIXTURES, "loop_process.json")
    for tol in ("nan", "inf", "-1e-9"):
        assert run(["check-procmat", loop, "--tol", tol], capsys) == (2, ""), tol
        monkeypatch.setenv("CAUSAL_CHANNELS_TOL", tol)
        assert run(["check-procmat", loop], capsys) == (2, ""), tol
        monkeypatch.delenv("CAUSAL_CHANNELS_TOL")
    assert run(["check-procmat", loop, "--tol", "0"], capsys)[0] == 1
    assert run(["check-causal", wiring, order_ab, "--tol", "nan"], capsys) == (2, "")
    assert run(["selftest", "--tol", "-1"], capsys) == (2, "")
    # a negative probe count
    path = tmp_path / "process.json"
    _save(path, random_process_mixture(2, 2, 2, 2, 5), "classical_process")
    assert run(["probe-procmat", str(path), "--probes", "-1"], capsys) == (2, "")
    # numbers past the float range, once OverflowError tracebacks: a JSON integer
    # literal in matrix data or a table, and 1e400 (read as infinity) for an integer
    with open(os.path.join(FIXTURES, "one_way_process.json")) as fh:
        process = json.load(fh)
    matrix = classical_process_to_choi(serialize.decode_classical_process(process))
    probe = {"matrix": serialize.encode_matrix(matrix),
             **{k: process[k] for k in ("n_ia", "n_oa", "n_ib", "n_ob")}}
    with open(os.path.join(FIXTURES, "noisy_wiring.json")) as fh:
        noisy = json.load(fh)
    huge = 10**400
    inst_a = serialize.encode_instrument(loop_a)
    rows = inst_a["elements"]
    cases = {
        "matrix-data": (["compose", "loop", "x"], {**nine, "alice": _kraus_entry(loop_a, huge)}),
        "table": (["check-procmat", "x"], {**process, "table": [huge] + process["table"][1:]}),
        "edge": (["check-causal", wiring, "x"], {"nodes": extra_node["nodes"][:2], "edges": [["1e400", 1]]}),
        "alphabet": (["check-causal", "x", order_ab],
                     {**noisy, "dist": {**noisy["dist"], "input_alphabets": ["1e400", 2]}}),
        "probe-dim": (["probe-procmat", "x"], {**probe, "n_ia": "1e400"}),
        # malformed fields that were silently accepted, with exit 0
        "float-alphabets": (["check-causal", "x", order_ab],
                            {**noisy, "dist": {**noisy["dist"], "input_alphabets": [1.5, 2.5]}}),
        "string-table": (["check-causal", "x", order_ab],
                         {**noisy, "dist": {**noisy["dist"], "table": ["0.5"] * 8}}),
        # "00" read as input 0 replaced the row of "0", which is not trace preserving
        "aliased-input-symbol": (["verify-instrument", "x"],
                                 {**inst_a, "elements": {"0": rows["0"][:1] * 2, "1": rows["1"], "00": rows["0"]}}),
    }
    for name, (argv, obj) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj).replace('"1e400"', "1e400"))
        start = time.perf_counter()
        assert run([str(path) if a == "x" else a for a in argv], capsys) == (2, ""), name
        assert time.perf_counter() - start < 1.0, name
    # a key given twice in one object, where the last value once won silently (exit 0)
    with open(os.path.join(FIXTURES, "one_way_process.json")) as fh:
        table_text = fh.read()
    duplicates = {
        "top-level": (["check-procmat", "x"], '{"n_ia": 2, ' + table_text[1:]),
        "nested": (["probe-procmat", "x"], json.dumps(probe).replace('{"rows": ', '{"rows": 16, "rows": ', 1)),
        "instrument-row": (["verify-instrument", "x"],
                           json.dumps(inst_a).replace('"0": ', '"0": %s, "0": ' % json.dumps(rows["0"]), 1)),
    }
    for name, (argv, text) in duplicates.items():
        path = tmp_path / f"duplicate-{name}.json"
        path.write_text(text)
        assert main([str(path) if a == "x" else a for a in argv]) == 2, name
        assert "more than once" in capsys.readouterr().err, name


def test_tol_env_fallback(tmp_path, capsys, monkeypatch):
    inst = random_instrument(1, 1, 2, 2, 2, 1)
    path = tmp_path / "inst.json"
    _save(path, inst, "instrument")
    monkeypatch.setenv("CAUSAL_CHANNELS_TOL", "1e-6")
    code, out = run(["verify-instrument", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6


def test_procmat_commands_share_the_tolerance(tmp_path, capsys, monkeypatch):
    w = random_process_mixture(2, 2, 2, 2, 12)
    t = w.table.copy()
    col = t[:, :, 0, 0]
    src = np.unravel_index(int(col.argmax()), col.shape)
    col[src] -= 1e-6
    col[tuple(1 - i for i in src)] += 1e-6  # some strategy masses now miss 1 by 1e-6
    path = tmp_path / "w.json"
    _save(path, ClassicalProcess(2, 2, 2, 2, t), "classical_process")
    for command in ("check-procmat", "decompose-procmat", "probe-procmat"):
        assert run([command, str(path)], capsys)[0] == 1
        assert run([command, str(path), "--tol", "1e-5"], capsys)[0] == 0
        monkeypatch.setenv("CAUSAL_CHANNELS_TOL", "1e-5")
        assert run([command, str(path)], capsys)[0] == 0
        monkeypatch.delenv("CAUSAL_CHANNELS_TOL")


def test_reports_are_deterministic(tmp_path, capsys):
    w = random_process_mixture(2, 2, 2, 2, 11)
    path = tmp_path / "w.json"
    _save(path, w, "classical_process")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["decompose-procmat", str(path), "--out", str(out1)]) == 0
    assert main(["decompose-procmat", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    fixture = os.path.join(FIXTURES, "reconstruct_noisy.json")
    assert main(["reconstruct-locc", fixture, "--out", str(out1)]) == 0
    assert main(["reconstruct-locc", fixture, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_text_format(capsys):
    code, out = run(["discriminate-nine", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("PASS")
