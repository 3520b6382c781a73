import json
import os

import numpy as np
import pytest

from causal_channels import serialize
from causal_channels.causal import AggregateWiring, CausalOrder, OpLabel
from causal_channels.channels import CpMap, Instrument, random_instrument
from causal_channels.composition import JointMapSpec, delta_wiring
from causal_channels.procmat import causal_decompose, random_process_mixture
from causal_channels.selftest import _random_protocol
from causal_channels.sep import nine_state_fixture, nine_state_sep_map
from causal_channels.serialize import SchemaError


def _same_instrument(x, y):
    assert (x.in_alphabet, x.out_alphabet, x.in_dim, x.out_dim) == (
        y.in_alphabet,
        y.out_alphabet,
        y.in_dim,
        y.out_dim,
    )
    assert np.array_equal(x.keys, y.keys)
    assert np.array_equal(x.ops, y.ops)


def test_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = serialize.decode_matrix(json.loads(serialize.dumps(serialize.encode_matrix(m))))
    assert np.array_equal(back, m)


def test_matrix_schema_errors_name_the_field():
    with pytest.raises(SchemaError, match="data"):
        serialize.decode_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(SchemaError, match="rows"):
        serialize.decode_matrix({"cols": 2, "data": []})


def test_instrument_roundtrip():
    rng = np.random.default_rng(1)
    inst = random_instrument(2, 3, 2, 2, 1, rng)
    back = serialize.decode_instrument(serialize.encode_instrument(inst))
    _same_instrument(inst, back)
    # an absent element is written exactly as the encoded zero map
    kept = (inst.keys != (1, 2)).any(axis=1)
    sparse = Instrument(2, 3, 2, 2, inst.ops[kept], inst.keys[kept])
    obj = serialize.encode_instrument(sparse)
    assert obj["elements"]["1"][2] == serialize.encode_cp_map(CpMap(2, 2, ()))
    _same_instrument(sparse, serialize.decode_instrument(obj))


def test_cond_dist_roundtrip_and_flattening_order():
    d = delta_wiring((2, 2), (2, 2), (1, 0))
    enc = serialize.encode_cond_dist(d)
    # the first input index varies fastest in the flattened table
    assert enc["table"] == list(d.table.ravel(order="F"))
    back = serialize.decode_cond_dist(enc)
    assert np.array_equal(back.table, d.table)


def test_protocol_and_spec_roundtrip():
    rng = np.random.default_rng(2)
    p = _random_protocol(["A", "B"], rng)
    back = serialize.decode_locc_protocol(serialize.encode_locc_protocol(p))
    assert back.a_dim == p.a_dim and back.b_dim == p.b_dim
    for (pa, ia), (pb, ib) in zip(p.rounds, back.rounds):
        assert pa == pb
        _same_instrument(ia, ib)

    w = random_process_mixture(2, 2, 2, 2, rng)
    alice = random_instrument(2, 2, 2, 2, 1, rng)
    bob = random_instrument(2, 2, 2, 2, 1, rng)
    spec = JointMapSpec(alice, bob, w.as_cond_dist())
    back = serialize.decode_joint_map_spec(serialize.encode_joint_map_spec(spec))
    assert np.array_equal(back.wiring.table, spec.wiring.table)


def test_sep_map_roundtrip():
    m = nine_state_sep_map()
    back = serialize.decode_sep_map(serialize.encode_sep_map(m))
    assert len(back.terms) == len(m.terms)
    for (a1, b1), (a2, b2) in zip(m.terms, back.terms):
        assert np.array_equal(a1.kraus[0], a2.kraus[0])
        assert np.array_equal(b1.kraus[0], b2.kraus[0])


def test_causal_order_and_wiring_roundtrip():
    order = CausalOrder(2, 2, frozenset({(OpLabel("A", 2), OpLabel("B", 1))}))
    back = serialize.decode_causal_order(serialize.encode_causal_order(order))
    assert back.edges == order.edges
    w = AggregateWiring(1, 1, delta_wiring((1, 2), (2, 2), (("const", 0), 0)))
    back = serialize.decode_aggregate_wiring(serialize.encode_aggregate_wiring(w))
    assert np.array_equal(back.dist.table, w.dist.table)


def test_classical_process_and_decomposition_roundtrip():
    w = random_process_mixture(2, 3, 2, 2, 5)
    back = serialize.decode_classical_process(serialize.encode_classical_process(w))
    assert np.array_equal(back.table, w.table)
    dec = causal_decompose(w)
    back = serialize.decode_causal_decomposition(serialize.encode_causal_decomposition(dec))
    assert np.isclose(back.q, dec.q)
    assert np.array_equal(back.p_ab.table, dec.p_ab.table)


def test_save_is_byte_deterministic(tmp_path):
    w = random_process_mixture(2, 2, 2, 2, 9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        p.write_text(serialize.dumps(serialize.encode_classical_process(w)) + "\n")
    assert p1.read_bytes() == p2.read_bytes()
    assert b'"n_ia"' in p1.read_bytes()


def test_load_reports_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        serialize.load(p, "matrix")


def test_checked_in_nine_state_fixture_loads_exactly():
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "nine_state.json")
    with open(path) as fh:
        obj = json.load(fh)
    _, alice, bob = nine_state_fixture()
    _same_instrument(serialize.decode_instrument(obj["alice"]), alice)
    _same_instrument(serialize.decode_instrument(obj["bob"]), bob)
