import numpy as np
import pytest

from causal_channels.causal import (
    AggregateWiring,
    CausalOrder,
    CausalOrderError,
    OpLabel,
    all_orders,
    build_q_channels,
    find_causal_violation,
    linear_extension,
    merge_successive,
    past_set,
    protocol_to_wired_form,
    reconstruct_locc,
    respects_causal_order,
)
from causal_channels.channels import choi_distance, random_instrument, validate_instrument
from causal_channels.composition import (
    LoccProtocol,
    compose_locc_protocol,
    compose_wired,
    delta_wiring,
)
from causal_channels.selftest import _bsc_fixture, _memoryful_fixture, _random_protocol


def test_causal_order_closure_and_cycles():
    order = CausalOrder(2, 1, frozenset({(OpLabel("A", 2), OpLabel("B", 1))}))
    # within-party edges and transitivity are implied
    assert order.precedes(OpLabel("A", 1), OpLabel("A", 2))
    assert order.precedes(OpLabel("A", 1), OpLabel("B", 1))
    with pytest.raises(CausalOrderError):
        CausalOrder(
            1,
            1,
            frozenset({(OpLabel("A", 1), OpLabel("B", 1)), (OpLabel("B", 1), OpLabel("A", 1))}),
        )


def test_all_orders_enumeration_counts():
    # one operation per party: unordered, A<B, B<A
    assert sum(1 for _ in all_orders(1, 1)) == 3


def test_past_set():
    order = CausalOrder(1, 1, frozenset({(OpLabel("A", 1), OpLabel("B", 1))}))
    assert past_set(order, [OpLabel("B", 1)]) == {OpLabel("A", 1)}
    assert past_set(order, [OpLabel("A", 1)]) == set()


def test_loop_wiring_violates_every_order():
    dist = delta_wiring((2, 2), (2, 2), (1, 0))
    w = AggregateWiring(1, 1, dist)
    for order in all_orders(1, 1):
        witness = find_causal_violation(w, order)
        assert witness is not None
        k, l, label = witness
        assert isinstance(label, OpLabel)


def test_one_way_copy_wiring_respects_only_matching_orders():
    # i_A pinned, i_B copies o_A: needs A before B
    dist = delta_wiring((1, 2), (2, 2), (("const", 0), 0))
    w = AggregateWiring(1, 1, dist)
    a_first = CausalOrder(1, 1, frozenset({(OpLabel("A", 1), OpLabel("B", 1))}))
    b_first = CausalOrder(1, 1, frozenset({(OpLabel("B", 1), OpLabel("A", 1))}))
    assert respects_causal_order(w, a_first)
    assert not respects_causal_order(w, b_first)


def test_linear_extension_orders_and_tie_breaks():
    order = CausalOrder(1, 1, frozenset({(OpLabel("B", 1), OpLabel("A", 1))}))
    assert linear_extension(order) == (OpLabel("B", 1), OpLabel("A", 1))
    unordered = CausalOrder(1, 1)
    assert linear_extension(unordered) == (OpLabel("A", 1), OpLabel("B", 1))


def test_q_channels_multiply_back_to_the_wiring():
    rng = np.random.default_rng(0)
    _, _, w, order = _bsc_fixture(rng)
    ext = linear_extension(order)
    channels = build_q_channels(w, ext)
    # product of the per-step conditionals reproduces the wiring table
    q = w.dist.table.transpose((0, 1, 2, 3))  # already in extension order (A then B)
    prod = np.ones_like(q)
    r1 = channels[0].table  # (I_A,)
    r2 = channels[1].table  # (I_A, I_B, O_A)
    for i_a in range(1):
        for i_b in range(2):
            for o_a in range(2):
                for o_b in range(2):
                    prod[i_a, i_b, o_a, o_b] = r1[i_a] * r2[i_a, i_b, o_a]
    assert np.allclose(prod, q, atol=1e-12)


def test_protocols_respect_their_own_order():
    rng = np.random.default_rng(1)
    for parties in (["A", "B"], ["B", "A"], ["A", "B", "A", "B"]):
        p = _random_protocol(parties, rng)
        _, _, wiring, order = protocol_to_wired_form(p)
        assert respects_causal_order(wiring, order)


def _delta_protocol(parties, alphabets, seed) -> LoccProtocol:
    rounds, prev_out = [], 1
    for r, (party, n) in enumerate(zip(parties, alphabets)):
        rounds.append((party, random_instrument(prev_out, n, 2, 2, 1, seed + r)))
        prev_out = n
    return LoccProtocol(tuple(rounds), 2, 2)


def _assert_valid_alternating_and_dense(rebuilt):
    parties = [p for p, _ in rebuilt.rounds]
    assert all(parties[k] != parties[k + 1] for k in range(len(parties) - 1))
    for _, inst in rebuilt.rounds:
        assert validate_instrument(inst, 1e-9)
        # every input symbol is read and every output symbol is emitted
        assert {i for i, _ in inst.elements} == set(range(inst.in_alphabet))
        assert {o for _, o in inst.elements} == set(range(inst.out_alphabet))


def test_reconstruction_matches_direct_contraction():
    rng = np.random.default_rng(2)
    for fixture in (_bsc_fixture(rng), _memoryful_fixture(rng)):
        ar, br, wiring, order = fixture
        rebuilt = reconstruct_locc(ar, br, wiring, order)
        _assert_valid_alternating_and_dense(rebuilt)
        d = choi_distance(compose_locc_protocol(rebuilt), compose_wired(ar, br, wiring.dist))
        assert d < 1e-8


def test_reconstruction_of_a_standard_protocol_is_faithful():
    rng = np.random.default_rng(3)
    p = _random_protocol(["A", "B", "A", "B"], rng)
    ar, br, wiring, order = protocol_to_wired_form(p)
    rebuilt = reconstruct_locc(ar, br, wiring, order)
    assert choi_distance(compose_locc_protocol(rebuilt), compose_locc_protocol(p)) < 1e-8


def test_reconstruction_rejects_violating_wirings():
    rng = np.random.default_rng(4)
    dist = delta_wiring((2, 2), (2, 2), (1, 0))
    w = AggregateWiring(1, 1, dist)
    ar = [random_instrument(2, 2, 2, 2, 1, rng)]
    br = [random_instrument(2, 2, 2, 2, 1, rng)]
    order = CausalOrder(1, 1, frozenset({(OpLabel("A", 1), OpLabel("B", 1))}))
    with pytest.raises(CausalOrderError):
        reconstruct_locc(ar, br, w, order)


def test_delta_reconstruction_keeps_only_reachable_transcripts():
    p = _delta_protocol("ABAB", (2, 2, 2, 2), 5)
    rebuilt = reconstruct_locc(*protocol_to_wired_form(p))
    alphabets = [(inst.in_alphabet, inst.out_alphabet) for _, inst in rebuilt.rounds]
    assert alphabets == [(1, 2), (2, 4), (4, 8), (8, 16)]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    sequences = st.lists(st.sampled_from("AB"), min_size=2, max_size=5).filter(
        lambda s: "A" in s and "B" in s
    )

    @settings(max_examples=60, deadline=None)
    @given(sequences, st.lists(st.integers(1, 3), min_size=5, max_size=5), st.integers(0, 2**31 - 1))
    def test_reconstructed_protocols_are_dense_and_faithful(parties, alphabets, seed):
        p = _delta_protocol(parties, alphabets, seed)
        rebuilt = reconstruct_locc(*protocol_to_wired_form(p))
        _assert_valid_alternating_and_dense(rebuilt)
        assert choi_distance(compose_locc_protocol(rebuilt), compose_locc_protocol(p)) < 1e-8
        # merging the original rounds sums branches that differ in earlier outputs
        merged = merge_successive(p)
        parties = [q for q, _ in merged.rounds]
        assert all(parties[k] != parties[k + 1] for k in range(len(parties) - 1))
        assert choi_distance(compose_locc_protocol(merged), compose_locc_protocol(p)) < 1e-8
except ImportError:  # pragma: no cover - hypothesis is an optional test dependency
    pass
