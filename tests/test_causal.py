import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_channels.causal import (
    MARGINAL_TOL,
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
    CondDist,
    LoccProtocol,
    compose_locc_protocol,
    compose_wired,
    delta_wiring,
)
from causal_channels.selftest import _bsc_fixture, _memoryful_fixture, _random_protocol


def _labels(n_a, n_b):
    return [OpLabel("A", k) for k in range(1, n_a + 1)] + [
        OpLabel("B", k) for k in range(1, n_b + 1)
    ]


# References: the set-based closure, past, Kahn walk and per-symbol violation loop
# that the precedence matrix replaced.


def _closure_by_fixpoint(n_a, n_b, edges):
    """The closed relation as a set of label pairs; CausalOrderError on a cycle."""
    rel = set(edges)
    rel |= {(OpLabel("A", k), OpLabel("A", k + 1)) for k in range(1, n_a)}
    rel |= {(OpLabel("B", k), OpLabel("B", k + 1)) for k in range(1, n_b)}
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    for x, y in rel:
        if x == y or (y, x) in rel:
            raise CausalOrderError(f"relation is not a strict partial order at {x}, {y}")
    return rel


def _past_by_sets(rel, nodes, inputs):
    return {m for m in nodes if any((m, n) in rel for n in inputs)}


def _kahn_by_sets(rel, nodes):
    remaining, seq = set(nodes), []
    while remaining:
        pick = min(n for n in remaining if not any((m, n) in rel for m in remaining if m != n))
        seq.append(pick)
        remaining.remove(pick)
    return tuple(seq)


def _violation_by_symbol(w, rel):
    nodes, total = _labels(w.n_a, w.n_b), w.n_a + w.n_b
    for k in range(w.n_a + 1):
        for l in range(w.n_b + 1):
            if k == 0 and l == 0:
                continue
            kept_labels = _labels(k, 0) + _labels(0, l)
            kept = [w.slot(x) for x in kept_labels]
            dropped = tuple(j for j in range(total) if j not in kept)
            marginal = w.dist.table.sum(axis=dropped) if dropped else w.dist.table
            past = {w.slot(x) for x in _past_by_sets(rel, nodes, kept_labels)}
            for j in range(total):
                if j in past:
                    continue
                axis = len(kept) + j
                ref = np.take(marginal, 0, axis=axis)
                for v in range(1, marginal.shape[axis]):
                    slice_v = np.take(marginal, v, axis=axis)
                    if not np.allclose(slice_v, ref, atol=MARGINAL_TOL, rtol=0):
                        return (k, l, w.label_of_slot(j))
    return None


def _reading_wiring(n_a, n_b, alphabets, reads, pair, rng):
    """p(i | o) = prod_j r_j(i_j | the outputs of the slots in reads[j]).

    With ``pair`` = (j1, j2, s), slots j1 and j2 also correlate through the
    output of slot s, by a term whose single-slot marginals vanish.
    """
    total = n_a + n_b
    ins, outs = tuple(alphabets[:total]), tuple(alphabets[total:])
    table = np.ones(ins + outs)

    def along(axis, values):
        return values.reshape([-1 if d == axis else 1 for d in range(2 * total)])

    for j in range(total):
        shape = [1] * (2 * total)
        shape[j] = ins[j]
        for s in reads[j]:
            shape[total + s] = outs[s]
        r = rng.random(shape) + 0.1
        table = table * (r / r.sum(axis=j, keepdims=True))
    if pair is not None:
        (j1, j2, s), a, b = pair, rng.random(ins[pair[0]]), rng.random(ins[pair[1]])
        c = along(j1, a - a.mean()) * along(j2, b - b.mean()) * along(total + s, rng.random(outs[s]))
        table = table + 0.5 * table.min() * c  # every |c| < 1 keeps the table nonnegative
    return AggregateWiring(n_a, n_b, CondDist(ins, outs, table))


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
    for shape, count in (((2, 1), 6), ((2, 2), 20), ((3, 2), 50)):
        orders = list(all_orders(*shape))
        assert len(orders) == count and len({o.edges for o in orders}) == count


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
        assert set(inst.keys[:, 0].tolist()) == set(range(inst.in_alphabet))
        assert set(inst.keys[:, 1].tolist()) == set(range(inst.out_alphabet))


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


sequences = st.lists(st.sampled_from("AB"), min_size=2, max_size=5).filter(
    lambda s: "A" in s and "B" in s
)

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_precedence_matrix_matches_the_set_references(data):
    n_a = data.draw(st.integers(0, 3))
    n_b = data.draw(st.integers(1 if n_a == 0 else 0, 3))
    nodes, total = _labels(n_a, n_b), n_a + n_b
    pairs = [(x, y) for x in nodes for y in nodes]  # self-loops and cycles included
    edges = frozenset(data.draw(st.sets(st.sampled_from(pairs), max_size=5)))
    try:
        rel = _closure_by_fixpoint(n_a, n_b, edges)
    except CausalOrderError:
        with pytest.raises(CausalOrderError):
            CausalOrder(n_a, n_b, edges)
        return
    order = CausalOrder(n_a, n_b, edges)
    assert order.edges == rel
    assert all(order.precedes(x, y) == ((x, y) in rel) for x, y in pairs)
    for inputs in data.draw(st.lists(st.sets(st.sampled_from(nodes)), max_size=4)):
        assert past_set(order, inputs) == _past_by_sets(rel, nodes, inputs)
    assert linear_extension(order) == _kahn_by_sets(rel, nodes)
    alphabets = data.draw(st.lists(st.sampled_from((2, 1, 3)), min_size=2 * total, max_size=2 * total))
    # each slot reads outputs of slots before it in a random sequence, plus one stray read
    seq = data.draw(st.permutations(range(total)))
    reads = [set(seq[: seq.index(j)]) for j in range(total)]
    reads = [set(data.draw(st.sets(st.sampled_from(sorted(r)), max_size=2))) if r else r
             for r in reads]
    stray = data.draw(st.none() | st.tuples(*[st.integers(0, total - 1)] * 2))
    if stray is not None:
        reads[stray[0]].add(stray[1])
    pair = None
    if n_a and n_b:  # an Alice and a Bob slot that correlate through one output
        slot = st.integers(0, total - 1)
        pair = data.draw(st.tuples(st.integers(0, n_a - 1), st.integers(n_a, total - 1), slot))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    w = _reading_wiring(n_a, n_b, alphabets, reads, pair, rng)
    assert find_causal_violation(w, order) == _violation_by_symbol(w, rel)

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
