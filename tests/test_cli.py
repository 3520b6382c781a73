import json
import os

import numpy as np

from causal_channels import causal, serialize
from causal_channels.channels import Instrument, random_cptp, random_instrument
from causal_channels.cli import main
from causal_channels.composition import LoccProtocol
from causal_channels.procmat import ClassicalProcess, random_process_mixture

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _save(path, value, schema):
    encode, _ = serialize.SCHEMAS[schema]
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


def _nan_kraus(inst):
    """The encoded instrument with its first Kraus entry set to NaN."""
    obj = serialize.encode_instrument(inst)
    cp = next(cp for row in obj["elements"].values() for cp in row if cp["kraus"])
    cp["kraus"][0]["data"][0][0] = float("nan")
    return obj


def test_input_errors_exit_2(tmp_path, capsys):
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
            "alice": serialize.encode_instrument(Instrument(1, 0, 2, 2, {})), "bob_maps": [],
        }),
        "loop-alphabets": ("loop", {
            "alice": serialize.encode_instrument(loop_a),
            "bob": serialize.encode_instrument(random_instrument(3, 2, 2, 2, 1, 3)),
        }),
        "loop-nan": ("loop", {
            "alice": _nan_kraus(loop_a), "bob": serialize.encode_instrument(loop_b),
        }),
    }
    for name, (mode, obj) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out = run(["compose", mode, str(path)], capsys)
        assert (code, out) == (2, ""), name
    with open(os.path.join(FIXTURES, "reconstruct_noisy.json")) as fh:
        fixture = json.load(fh)
    fixture["alice_rounds"][0] = _nan_kraus(serialize.decode_instrument(fixture["alice_rounds"][0]))
    path = tmp_path / "nan-fixture.json"
    path.write_text(json.dumps(fixture))
    assert run(["reconstruct-locc", str(path)], capsys) == (2, "")
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
    # a file that holds JSON, but not an object
    path.write_text("[1.0]")
    for argv in (["compose", "loop"], ["compose", "one-way"], ["reconstruct-locc"],
                 ["probe-procmat"]):
        assert run(argv + [str(path)], capsys) == (2, ""), argv


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
