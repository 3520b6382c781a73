import json
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_channels import cli, serialize
from causal_channels.channels import (
    CpMap,
    Instrument,
    choi_distance,
    choi_of,
    identity_map,
    is_trace_preserving,
    random_cptp,
    random_instrument,
    tensor_map,
    validate_instrument,
)
from causal_channels.composition import (
    AlphabetError,
    CondDist,
    JointMapSpec,
    LoccProtocol,
    collapse_sequence,
    compose_ccstar,
    compose_locc_protocol,
    compose_loop,
    compose_one_way,
    compose_wired,
    delta_wiring,
    is_locc_star_member,
    loop_wiring,
    sep_table_instruments,
    slocc_star_decompose,
    to_loop_form,
    trace_and_replace_mixed,
)
from causal_channels.procmat import random_process_mixture
from causal_channels.sep import SepMap, sep_to_locc_star
from dict_reference import elements


def _inst(n_in, n_out, d_in, d_out, rng):
    kc = max(1, -(-d_in // (n_out * d_out)))
    return random_instrument(n_in, n_out, d_in, d_out, kc, rng)


def test_cond_dist_normalization():
    t = np.array([[0.3, 0.5], [0.7, 0.5]])  # inputs axis 0, outputs axis 1
    d = CondDist((2,), (2,), t)
    assert np.isclose(d.table[0, 1], 0.5)
    with pytest.raises(ValueError):
        CondDist((2,), (2,), np.array([[0.3, 0.5], [0.3, 0.5]]))
    with pytest.raises(ValueError):
        CondDist((2,), (2,), np.array([[-0.1, 0.5], [1.1, 0.5]]))


def test_delta_and_loop_wiring_tables():
    d = delta_wiring((2,), (2,), (0,))
    assert np.allclose(d.table, np.eye(2))
    loop = loop_wiring(2, 3)
    # input slots (i_A over Bob's outputs, i_B over Alice's outputs)
    assert loop.input_alphabets == (3, 2) and loop.output_alphabets == (2, 3)
    for o_a in range(2):
        for o_b in range(3):
            assert loop.table[o_b, o_a, o_a, o_b] == 1.0


def _delta_by_loop(ins, outs, link):
    """Reference: the ``np.ndindex`` walk over output tuples that ``delta_wiring`` replaced."""
    table = np.zeros(tuple(ins) + tuple(outs))
    for out_idx in np.ndindex(*outs):
        in_idx = [src[1] if isinstance(src, tuple) else out_idx[src] for src in link]
        table[tuple(in_idx) + out_idx] = 1.0
    return table


@pytest.mark.parametrize("ins, outs, link", [
    ((2,), (2,), (0,)),
    ((3, 2), (2, 3), (1, 0)),
    ((1, 2), (2, 2), (("const", 0), 0)),
    ((3, 2, 3), (2, 2, 3), (2, ("const", 1), 2)),
    ((2, 2), (2, 1, 2), (2, 0)),
    ((2,), (), (("const", 1),)),
])
def test_delta_wiring_matches_the_loop_reference(ins, outs, link):
    table = delta_wiring(ins, outs, link).table
    assert table.shape == ins + outs and np.array_equal(table, _delta_by_loop(ins, outs, link))


def test_one_way_composition_is_tp():
    rng = np.random.default_rng(0)
    alice = _inst(1, 3, 2, 2, rng)
    bob_maps = [random_cptp(2, 2, 1, rng) for _ in range(3)]
    joint = compose_one_way(alice, bob_maps)
    assert is_trace_preserving(joint)
    with pytest.raises(AlphabetError):
        compose_one_way(alice, bob_maps[:2])


def test_one_way_equals_ccstar_with_delta_wiring():
    rng = np.random.default_rng(1)
    alice = _inst(1, 2, 2, 2, rng)
    bob = _inst(2, 1, 2, 2, rng)
    bob_maps = [bob.element(i, 0) for i in range(2)]  # Bob has one outcome
    # wiring: i_A pinned to 0, i_B copies o_A
    dist = delta_wiring((1, 2), (2, 1), (("const", 0), 0))
    spec = JointMapSpec(alice, bob, dist)
    assert choi_distance(compose_ccstar(spec), compose_one_way(alice, bob_maps)) < 1e-12
    assert is_locc_star_member(spec)


def test_loop_form_rewrite_preserves_the_joint_map():
    rng = np.random.default_rng(2)
    alice = _inst(2, 2, 2, 2, rng)
    bob = _inst(2, 2, 2, 2, rng)
    w = random_process_mixture(2, 2, 2, 2, rng)
    spec = JointMapSpec(alice, bob, w.as_cond_dist())
    la, lb = to_loop_form(spec)
    assert validate_instrument(la) and validate_instrument(lb)
    assert choi_distance(compose_loop(la, lb), compose_ccstar(spec)) < 1e-10


def test_loop_alphabet_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(AlphabetError):
        compose_loop(_inst(2, 2, 2, 2, rng), _inst(3, 2, 2, 2, rng))


def test_locc_protocol_composition_matches_manual_sum():
    rng = np.random.default_rng(4)
    a1 = _inst(1, 2, 2, 2, rng)
    b1 = _inst(2, 2, 2, 2, rng)
    p = LoccProtocol((("A", a1), ("B", b1)), 2, 2)
    joint = compose_locc_protocol(p)
    manual = CpMap(4, 4, ())
    for o1 in range(2):
        for o2 in range(2):
            manual = manual + tensor_map(a1.element(0, o1), b1.element(o1, o2))
    assert choi_distance(joint, manual) < 1e-12
    assert is_trace_preserving(joint)


def test_locc_protocol_chaining_errors():
    rng = np.random.default_rng(5)
    a1 = _inst(1, 2, 2, 2, rng)
    b_bad = _inst(3, 2, 2, 2, rng)
    with pytest.raises(AlphabetError):
        LoccProtocol((("A", a1), ("B", b_bad)), 2, 2)


def test_collapse_sequence_multiplies_alphabets():
    rng = np.random.default_rng(6)
    s1 = _inst(1, 2, 2, 2, rng)
    s2 = _inst(2, 3, 2, 2, rng)
    merged = collapse_sequence([s1, s2])
    assert merged.in_alphabet == 2 and merged.out_alphabet == 6
    # aggregate element (i1,i2)->(o1,o2) is the chained product
    el = merged.element(1, 1 * 3 + 2)
    want = s1.element(0, 1).then(s2.element(1, 2))
    assert choi_distance(el, want) < 1e-12


def test_compose_wired_matches_protocol():
    rng = np.random.default_rng(7)
    a1 = _inst(1, 2, 2, 2, rng)
    b1 = _inst(2, 2, 2, 2, rng)
    p = LoccProtocol((("A", a1), ("B", b1)), 2, 2)
    dist = delta_wiring((1, 2), (2, 2), (("const", 0), 0))
    wired = compose_wired([a1], [b1], dist)
    assert choi_distance(wired, compose_locc_protocol(p)) < 1e-12


def _walk_reference(p):
    """The protocol as the sum over every path of Kraus operators through its rounds.

    The library composed protocols this way before its dynamic program over the
    classical symbol; the Kraus count grows exponentially with the rounds.
    """
    dims = {"A": p.a_dim, "B": p.b_dim}
    for party, inst in p.rounds:
        dims[party] = inst.out_dim
    kraus = []
    by_input = [{} for _ in p.rounds]
    for r, (_, inst) in enumerate(p.rounds):
        for (i, o), el in elements(inst).items():
            by_input[r].setdefault(i, []).append((o, el))

    def walk(r, symbol, a_op, b_op):
        if r == len(p.rounds):
            kraus.append(np.kron(a_op, b_op))
            return
        party = p.rounds[r][0]
        for o, el in by_input[r].get(symbol, ()):
            for k in el.kraus:
                if party == "A":
                    walk(r + 1, o, k @ a_op, b_op)
                else:
                    walk(r + 1, o, a_op, k @ b_op)

    walk(0, 0, np.eye(p.a_dim), np.eye(p.b_dim))
    return CpMap(p.a_dim * p.b_dim, dims["A"] * dims["B"], tuple(kraus))


def test_zero_round_protocol_is_the_identity():
    joint = compose_locc_protocol(LoccProtocol((), 2, 3))
    assert (joint.in_dim, joint.out_dim) == (6, 6) and len(joint.kraus) == 1
    assert choi_distance(joint, identity_map(6)) < 1e-12


def test_protocol_with_large_elements():
    # elements far from trace-nonincreasing: Choi entries near 1e12
    rng = np.random.default_rng(8)
    steps = []
    for r in range(4):
        inst = random_instrument(1 if r == 0 else 2, 2, 2, 2, 2, rng)
        big = np.sqrt(1e3) * inst.ops
        steps.append(("AB"[r % 2], Instrument(inst.in_alphabet, 2, 2, 2, big, inst.keys)))
    p = LoccProtocol(tuple(steps), 2, 2)
    want = choi_of(_walk_reference(p)).matrix
    got = choi_of(compose_locc_protocol(p)).matrix
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_trace_and_replace_is_tp():
    cp = trace_and_replace_mixed(3, 2)
    assert is_trace_preserving(cp)


def test_sep_table_instruments_realize_the_sum():
    rng = np.random.default_rng(8)
    terms = []
    for _ in range(3):
        ea = random_cptp(2, 2, 2, rng)
        terms.append((CpMap(2, 2, ea.kraus[:1]), random_cptp(2, 2, 1, rng).scaled(0.7)))
    alice, bob = sep_table_instruments(terms)
    assert validate_instrument(alice) and validate_instrument(bob)
    target = None
    for ea, eb in terms:
        t = tensor_map(ea, eb)
        target = t if target is None else target + t
    assert choi_distance(compose_loop(alice, bob), target) < 1e-10


def test_slocc_star_decompose_scale_and_recombination():
    rng = np.random.default_rng(9)
    ea = random_cptp(2, 2, 1, rng).scaled(2.5)
    eb = random_cptp(2, 2, 1, rng).scaled(1.5)
    scale, alice, bob = slocc_star_decompose([(ea, eb)])
    assert scale == 3
    assert validate_instrument(alice) and validate_instrument(bob)
    assert choi_distance(compose_loop(alice, bob), tensor_map(ea, eb)) < 1e-10


def _peak_mb(fn):
    """Peak traced allocation, in MB, of one call to ``fn``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_loop_composition_of_many_separable_terms_stays_small():
    # compile-sep loop-composes a (K+2)-symbol pair; a dense loop table would
    # hold (K+2)^4 floats, about 118 MB here, where the pairs need kilobytes.
    rng = np.random.default_rng(10)
    inst = random_instrument(1, 60, 2, 2, 1, rng)
    terms = [(inst.element(0, k), random_cptp(2, 2, 1, rng)) for k in range(60)]
    alice, bob = sep_table_instruments(terms)
    joint, peak = _peak_mb(lambda: compose_loop(alice, bob))
    assert peak < 8.0
    target = CpMap(4, 4, tuple(k for ea, eb in terms for k in tensor_map(ea, eb).kraus))
    assert choi_distance(joint, target) < 1e-10


def test_rescaling_many_separable_terms_stays_small():
    # The rescaled terms go straight into a loop pair; a spec over a dense loop
    # wiring would hold (K+2)^4 floats for K rescaled terms, K >= 60 here.
    rng = np.random.default_rng(12)
    terms = [
        (random_cptp(2, 2, 1, rng).scaled(s_a), random_cptp(2, 2, 1, rng).scaled(s_b))
        for s_a, s_b in rng.uniform(0.2, 3.0, size=(60, 2))
    ]
    (scale, alice, bob), peak = _peak_mb(lambda: slocc_star_decompose(terms))
    assert peak < 8.0
    assert scale == 3
    target = CpMap(4, 4, tuple(k for ea, eb in terms for k in tensor_map(ea, eb).kraus))
    assert choi_distance(compose_loop(alice, bob), target) < 1e-10


def test_one_way_composition_of_a_wide_alphabet_stays_small():
    # A dense copy table would hold n^2 floats (8 MB) and pair n^2 elements.
    rng = np.random.default_rng(11)
    n = 1000
    alice = random_instrument(1, n, 2, 2, 1, rng)
    bob_maps = [random_cptp(2, 2, 1, rng)] * n
    joint, peak = _peak_mb(lambda: compose_one_way(alice, bob_maps))
    assert peak < 4.0
    assert len(joint.kraus) == n and is_trace_preserving(joint)


# Differential tests against the plain-numpy link products of the benchmark
# oracle, which shares no code with the library.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import oracle  # noqa: E402

D = 2
ORACLE_TOL = 1e-10


def _oracle_inst(inst):
    return {
        "n_in": inst.in_alphabet,
        "n_out": inst.out_alphabet,
        "din": inst.in_dim,
        "dout": inst.out_dim,
        "elems": {key: list(el.kraus) for key, el in elements(inst).items()},
    }


def _random_table(ins, outs, rng):
    """p(inputs | outputs) with some entries zero, inputs first and outputs last."""
    n_in, n_out = int(np.prod(ins)), int(np.prod(outs))
    t = rng.dirichlet(np.ones(n_in), size=n_out) * (rng.random((n_out, n_in)) < 0.7)
    t[np.arange(n_out), rng.integers(0, n_in, n_out)] += 0.1
    t /= t.sum(axis=1, keepdims=True)
    return t.T.reshape(tuple(ins) + tuple(outs))


def _trace_out_bob(choi, d_a, d_b):
    """Choi of A from the Choi of A (x) id_{d_b}, subsystems (in_A, in_B, out_A, out_B)."""
    c = choi.reshape(d_a, d_b, d_a, d_b, d_a, d_b, d_a, d_b)
    return np.einsum("aibjcidj->abcd", c).reshape(d_a * d_a, d_a * d_a) / d_b


def _trace_out_alice(choi, d_a, d_b):
    """Choi of B from the Choi of id_{d_a} (x) B."""
    c = choi.reshape(d_a, d_b, d_a, d_b, d_a, d_b, d_a, d_b)
    return np.einsum("iajbicjd->abcd", c).reshape(d_b * d_b, d_b * d_b) / d_a


def _oracle_gap(cp, want):
    return float(np.abs(oracle.kraus_choi(cp.kraus, cp.in_dim, cp.out_dim) - want).max())


def test_deep_protocol_composes_through_the_cli(tmp_path, capsys, monkeypatch):
    # 10 rounds of alphabet 2 with 2 Kraus operators per element: 4^10 Kraus paths
    rng = np.random.default_rng(30)
    rounds = [("AB"[r % 2], random_instrument(1 if r == 0 else 2, 2, 2, 2, 2, rng))
              for r in range(10)]
    path = tmp_path / "protocol.json"
    path.write_text(serialize.dumps(serialize.encode_locc_protocol(LoccProtocol(tuple(rounds), 2, 2))))
    joints = []

    def spy(p):
        joints.append(compose_locc_protocol(p))
        return joints[-1]

    monkeypatch.setattr(cli, "compose_locc_protocol", spy)
    assert cli.main(["compose", "protocol", str(path)]) == 0
    assert len(joints[0].kraus) <= 4 * 4
    choi = serialize.decode_matrix(json.loads(capsys.readouterr().out)["choi"])
    want = oracle.protocol_choi([(q, _oracle_inst(x)) for q, x in rounds], 2, 2)
    assert np.abs(choi - want).max() < ORACLE_TOL


alphabet = st.integers(1, 3)
seeds = st.integers(0, 2**31 - 1)

@settings(max_examples=40, deadline=None)
@given(alphabet, alphabet, alphabet, alphabet, seeds)
def test_ccstar_matches_the_link_product(n_ia, n_ib, n_oa, n_ob, seed):
    rng = np.random.default_rng(seed)
    alice = random_instrument(n_ia, n_oa, D, D, 1, rng)
    bob = random_instrument(n_ib, n_ob, D, D, 1, rng)
    table = _random_table((n_ia, n_ib), (n_oa, n_ob), rng)
    spec = JointMapSpec(alice, bob, CondDist((n_ia, n_ib), (n_oa, n_ob), table))
    want = oracle.wired_choi(_oracle_inst(alice), _oracle_inst(bob), table)
    assert _oracle_gap(compose_ccstar(spec), want) < ORACLE_TOL

@settings(max_examples=40, deadline=None)
@given(alphabet, alphabet, seeds)
def test_loop_matches_the_link_product(n_a, n_b, seed):
    rng = np.random.default_rng(seed)
    alice = random_instrument(n_b, n_a, D, D, 1, rng)
    bob = random_instrument(n_a, n_b, D, D, 1, rng)
    want = oracle.wired_choi(
        _oracle_inst(alice), _oracle_inst(bob), oracle.loop_table(n_b, n_a, n_a, n_b)
    )
    assert _oracle_gap(compose_loop(alice, bob), want) < ORACLE_TOL

@settings(max_examples=30, deadline=None)
@given(alphabet, seeds)
def test_one_way_matches_the_link_product(n, seed):
    rng = np.random.default_rng(seed)
    alice = random_instrument(1, n, D, D, 1, rng)
    bob_maps = [random_cptp(D, D, 2, rng) for _ in range(n)]
    bob = {"n_in": n, "n_out": 1, "din": D, "dout": D,
           "elems": {(o, 0): list(m.kraus) for o, m in enumerate(bob_maps)}}
    copy = np.zeros((1, n, n, 1))
    copy[0, np.arange(n), np.arange(n), 0] = 1.0
    want = oracle.wired_choi(_oracle_inst(alice), bob, copy)
    assert _oracle_gap(compose_one_way(alice, bob_maps), want) < ORACLE_TOL

rounds = st.lists(st.tuples(alphabet, alphabet), min_size=0, max_size=2)

@settings(max_examples=40, deadline=None)
@given(rounds, rounds, seeds)
def test_wired_matches_the_link_product(a_alphabets, b_alphabets, seed):
    rng = np.random.default_rng(seed)
    alice = [random_instrument(i, o, D, D, 1, rng) for i, o in a_alphabets]
    bob = [random_instrument(i, o, D, D, 1, rng) for i, o in b_alphabets]
    ins = [i for i, _ in a_alphabets + b_alphabets]
    outs = [o for _, o in a_alphabets + b_alphabets]
    table = _random_table(ins, outs, rng)
    want = oracle.wired_rounds_choi(
        [_oracle_inst(x) for x in alice], [_oracle_inst(x) for x in bob], table, D
    )
    # the oracle gives a party without rounds the identity on a D-dim system
    if not alice:
        want = _trace_out_alice(want, D, D)
    if not bob:
        want = _trace_out_bob(want, D if alice else 1, D)
    wired = compose_wired(alice, bob, CondDist(tuple(ins), tuple(outs), table))
    assert _oracle_gap(wired, want) < ORACLE_TOL

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AB"), alphabet), min_size=1, max_size=4), seeds)
def test_protocol_matches_the_link_product(plan, seed):
    rng = np.random.default_rng(seed)
    steps, prev = [], 1
    for party, n_out in plan:
        steps.append((party, random_instrument(prev, n_out, D, D, 1, rng)))
        prev = n_out
    p = LoccProtocol(tuple(steps), D, D)
    want = oracle.protocol_choi([(q, _oracle_inst(x)) for q, x in steps], D, D)
    assert _oracle_gap(compose_locc_protocol(p), want) < ORACLE_TOL

@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("AB"), alphabet, st.integers(2, 3), st.integers(1, 2)),
             min_size=1, max_size=5),
    st.integers(2, 3), st.integers(2, 3), seeds,
)
def test_protocol_matches_the_kraus_path_walk(plan, a_dim, b_dim, seed):
    # quantum dims change from round to round, and some elements are zero
    rng = np.random.default_rng(seed)
    steps, prev, dims = [], 1, {"A": a_dim, "B": b_dim}
    for party, n_out, d_out, k in plan:
        d_in = dims[party]
        inst = random_instrument(prev, n_out, d_in, d_out, max(k, -(-d_in // (n_out * d_out))), rng)
        kept = {key: el for key, el in elements(inst).items() if rng.random() < 0.7}
        steps.append((party, Instrument.from_elements(prev, n_out, d_in, d_out, kept)))
        prev, dims[party] = n_out, d_out
    p = LoccProtocol(tuple(steps), a_dim, b_dim)
    got, want = compose_locc_protocol(p), _walk_reference(p)
    assert (got.in_dim, got.out_dim) == (want.in_dim, want.out_dim)
    assert len(got.kraus) <= got.in_dim * got.out_dim
    assert _oracle_gap(got, oracle.kraus_choi(want.kraus, want.in_dim, want.out_dim)) < ORACLE_TOL

dims = st.integers(1, 2)

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), dims, dims, dims, dims, st.booleans(), seeds)
def test_separable_compilation_matches_the_link_product(k, da, da_out, db, db_out, flip, seed):
    # sum_k A_k (x) B_k is TP when {A_k} is an instrument and every B_k is
    # TP (or the other way round); rescaling each pair by c_k, 1/c_k makes
    # the factors unbalanced without changing the map.
    rng = np.random.default_rng(seed)
    if flip:
        bob = random_instrument(1, k, db, db_out, db, rng)
        pairs = [(random_cptp(da, da_out, da, rng), bob.element(0, j)) for j in range(k)]
    else:
        alice = random_instrument(1, k, da, da_out, da, rng)
        pairs = [(alice.element(0, j), random_cptp(db, db_out, db, rng)) for j in range(k)]
    scales = rng.uniform(0.2, 5.0, size=k)
    terms = tuple((ea.scaled(c), eb.scaled(1.0 / c)) for (ea, eb), c in zip(pairs, scales))
    alice, bob = sep_to_locc_star(SepMap(terms))
    assert validate_instrument(alice) and validate_instrument(bob)
    got = oracle.wired_choi(
        _oracle_inst(alice),
        _oracle_inst(bob),
        oracle.loop_table(alice.in_alphabet, bob.in_alphabet, alice.out_alphabet,
                          bob.out_alphabet),
    )
    want = sum(
        oracle.kraus_choi([np.kron(ka, kb) for ka in ea.kraus for kb in eb.kraus],
                          da * db, da_out * db_out)
        for ea, eb in terms
    )
    assert np.abs(got - want).max() < ORACLE_TOL
