"""Keyed Kraus arrays against the dict-of-CpMap code they replaced.

The reference functions live in ``dict_reference.py``.  The array code is
given each instrument's elements in a shuffled order, with some elements
present but empty; the reference gets the nonzero elements in sorted key
order.  Every element must then hold the same operators in the same order,
joint maps must have the same Choi operator, and encoded instruments must
give the same bytes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_reference as ref
from causal_channels import causal, serialize
from causal_channels.causal import (
    AggregateWiring,
    CausalOrderError,
    ReconstructionSizeError,
    build_primed_operations,
    build_q_channels,
    merge_successive,
)
from causal_channels.channels import (
    CpMap,
    Instrument,
    choi_of,
    random_instrument,
    validate_instrument,
)
from causal_channels.composition import (
    CondDist,
    JointMapSpec,
    LoccProtocol,
    collapse_sequence,
    compose_loop,
    to_loop_form,
)
from causal_channels.linalg import DimensionError

alphabet = st.integers(1, 3)
dim = st.integers(1, 2)
seeds = st.integers(0, 2**31 - 1)


def _elements(rng, n_in, n_out, d_in, d_out, density=0.7) -> dict:
    """Random elements in shuffled key order; some are given with no operators."""
    keys = [(i, o) for i in range(n_in) for o in range(n_out)]
    rng.shuffle(keys)
    elems = {}
    for key in keys:
        if rng.random() < density:
            k = int(rng.integers(0, 3))
            ops = rng.standard_normal((k, d_out, d_in)) + 1j * rng.standard_normal((k, d_out, d_in))
            elems[key] = CpMap(d_in, d_out, ops)
    return elems


def _pair(elems, n_in, n_out, d_in, d_out):
    """The keyed instrument of ``elems``, and its reference with sorted nonzero elements."""
    inst = Instrument.from_elements(n_in, n_out, d_in, d_out, elems)
    nonzero = {key: cp for key, cp in sorted(elems.items()) if len(cp.kraus)}
    return inst, ref.DictInstrument(n_in, n_out, d_in, d_out, nonzero)


def _random_pair(rng, n_in, n_out, d_in, d_out, density=0.7):
    return _pair(_elements(rng, n_in, n_out, d_in, d_out, density), n_in, n_out, d_in, d_out)


def _assert_same(inst: Instrument, want: ref.DictInstrument):
    assert (inst.in_alphabet, inst.out_alphabet, inst.in_dim, inst.out_dim) == want[:4]
    got = ref.elements(inst)
    assert list(got) == sorted(want.elements)
    for key, el in got.items():
        assert np.array_equal(el.kraus, want.elements[key].kraus), key


def _table(rng, ins, outs):
    """p(inputs | outputs), inputs first, with some entries zero."""
    n_in, n_out = int(np.prod(ins)), int(np.prod(outs))
    t = rng.dirichlet(np.ones(n_in), size=n_out) * (rng.random((n_out, n_in)) < 0.6)
    t[np.arange(n_out), rng.integers(0, n_in, n_out)] += 0.1
    t /= t.sum(axis=1, keepdims=True)
    return t.T.reshape(tuple(ins) + tuple(outs))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), dim, dim, st.sampled_from([0.0, 0.5, 1.0]), seeds)
def test_keyed_arrays_hold_the_dict_and_encode_to_the_same_bytes(n_in, n_out, d_in, d_out,
                                                                  density, seed):
    inst, want = _random_pair(np.random.default_rng(seed), n_in, n_out, d_in, d_out, density)
    _assert_same(inst, want)
    # keys stably sorted by (i, o)
    assert np.all(np.diff(inst.keys[:, 0] * n_out + inst.keys[:, 1]) >= 0)
    text = serialize.dumps(serialize.encode_instrument(inst))
    assert text == serialize.dumps(ref.encode_instrument(want))
    _assert_same(serialize.decode_instrument(serialize.encode_instrument(inst)), want)
    for (i, o), el in want.elements.items():
        assert np.array_equal(inst.element(i, o).kraus, el.kraus)


def test_empty_instruments_encode_and_validate_as_before():
    for n_in, n_out in ((1, 0), (0, 0), (0, 2), (2, 3)):
        inst, want = _pair({}, n_in, n_out, 2, 2)
        assert len(inst.ops) == 0 and inst.keys.shape == (0, 2)
        assert validate_instrument(inst) == ref.validate_instrument(want, 1e-9) == (n_in == 0)
        assert serialize.encode_instrument(inst) == ref.encode_instrument(want)
    assert len(Instrument(1, 0, 2, 2).element(0, 0).kraus) == 0


def test_constructor_rejects_bad_keys_and_shapes():
    ops = np.zeros((2, 2, 2))
    with pytest.raises(DimensionError):
        Instrument(2, 2, 2, 2, ops, [(0, 0)])  # one key for two operators
    with pytest.raises(DimensionError):
        Instrument(2, 2, 2, 2, ops, [(0, 0), (0, 2)])  # output outside the alphabet
    with pytest.raises(DimensionError):
        Instrument(2, 2, 2, 2, ops, [(-1, 0), (0, 0)])
    with pytest.raises(DimensionError):
        Instrument(2, 2, 3, 2, ops, [(0, 0), (1, 0)])  # operators of another shape


@settings(max_examples=150, deadline=None)
@given(alphabet, alphabet, dim, dim, st.integers(1, 2), st.booleans(), seeds)
def test_validate_instrument_matches_the_reference(n_in, n_out, d_in, d_out, k, drop, seed):
    rng = np.random.default_rng(seed)
    full = ref.elements(random_instrument(n_in, n_out, d_in, d_out, max(k, d_in), rng))
    keys = list(full)
    rng.shuffle(keys)
    elems = {key: full[key] for key in keys if not drop or rng.random() < 0.8}
    inst, want = _pair(elems, n_in, n_out, d_in, d_out)
    for tol in (1e-12, 1e-9, 1.0):
        assert validate_instrument(inst, tol) == ref.validate_instrument(want, tol)


@settings(max_examples=150, deadline=None)
@given(alphabet, alphabet, dim, dim, dim, seeds)
def test_compose_loop_matches_the_reference(n_a, n_b, d_a, d_b, d_out, seed):
    rng = np.random.default_rng(seed)
    alice, alice_ref = _random_pair(rng, n_b, n_a, d_a, d_out)
    bob, bob_ref = _random_pair(rng, n_a, n_b, d_b, d_out)
    got, want = compose_loop(alice, bob), ref.compose_loop(alice_ref, bob_ref)
    assert np.abs(choi_of(got).matrix - choi_of(want).matrix).max() <= 1e-12
    assert np.array_equal(got.kraus, want.kraus)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(alphabet, alphabet, dim), min_size=1, max_size=3), dim, seeds)
def test_collapse_sequence_matches_the_reference(plan, d_in, seed):
    rng = np.random.default_rng(seed)
    seq, seq_ref = [], []
    for n_in, n_out, d_out in plan:
        inst, want = _random_pair(rng, n_in, n_out, d_in, d_out)
        seq.append(inst)
        seq_ref.append(want)
        d_in = d_out
    _assert_same(collapse_sequence(seq), ref.collapse_sequence(seq_ref))


@settings(max_examples=150, deadline=None)
@given(alphabet, alphabet, alphabet, alphabet, dim, dim, seeds)
def test_to_loop_form_matches_the_reference(n_ia, n_ib, n_oa, n_ob, d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    a, a_ref = _random_pair(rng, n_ia, n_oa, d_a, d_a)
    b, b_ref = _random_pair(rng, n_ib, n_ob, d_b, d_b)
    t = _table(rng, (n_ia, n_ib), (n_oa, n_ob))
    got = to_loop_form(JointMapSpec(a, b, CondDist((n_ia, n_ib), (n_oa, n_ob), t)))
    for inst, want in zip(got, ref.to_loop_form(a_ref, b_ref, t)):
        _assert_same(inst, want)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AB"), alphabet), min_size=1, max_size=5), dim, dim,
       seeds)
def test_merge_successive_matches_the_reference(plan, d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    rounds, rounds_ref, prev = [], [], 1
    dims = {"A": d_a, "B": d_b}
    for party, n_out in plan:
        inst, want = _random_pair(rng, prev, n_out, dims[party], dims[party])
        rounds.append((party, inst))
        rounds_ref.append((party, want))
        prev = n_out
    got = merge_successive(LoccProtocol(tuple(rounds), d_a, d_b)).rounds
    want = ref.merge_successive(rounds_ref)
    assert [p for p, _ in got] == [p for p, _ in want]
    for (_, inst), (_, w) in zip(got, want):
        _assert_same(inst, w)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AB"), alphabet, alphabet), min_size=1, max_size=4),
       st.booleans(), st.sampled_from([3, 40, 1 << 18]), seeds)
def test_build_primed_operations_matches_the_reference(plan, drop, limit, seed):
    # random instruments, with some elements dropped so that a step may not
    # form an instrument, under a random wiring whose per-step channels
    # have zero-weight branches
    rng = np.random.default_rng(seed)
    rounds, rounds_ref = {"A": [], "B": []}, {"A": [], "B": []}
    for party, n_in, n_out in plan:
        full = ref.elements(random_instrument(n_in, n_out, 2, 2, 2, rng))
        keys = list(full)
        rng.shuffle(keys)
        elems = {key: full[key] for key in keys if not drop or rng.random() < 0.85}
        inst, want = _pair(elems, n_in, n_out, 2, 2)
        rounds[party].append(inst)
        rounds_ref[party].append(want)
    slots = rounds["A"] + rounds["B"]
    t = _table(rng, [r.in_alphabet for r in slots], [r.out_alphabet for r in slots])
    ins = [r.in_alphabet for r in slots]
    w = AggregateWiring(len(rounds["A"]), len(rounds["B"]),
                        CondDist(ins, [r.out_alphabet for r in slots], t))
    seq = [w.label_of_slot(j) for j in rng.permutation(len(slots))]
    channels = build_q_channels(w, seq)

    def run(build, *extra):
        try:
            return build(rounds_ref["A"] if extra else rounds["A"],
                         rounds_ref["B"] if extra else rounds["B"], channels, *extra)
        except (CausalOrderError, ReconstructionSizeError) as exc:
            return type(exc)

    with mock.patch.object(causal, "MAX_ROUND_SIZE", limit):
        got, want = run(build_primed_operations), run(ref.build_primed_operations, 1e-9)
    if isinstance(want, type):
        assert got is want
        return
    assert [p for p, _ in got] == [p for p, _ in want]
    for (_, inst), (_, w_inst) in zip(got, want):
        _assert_same(inst, w_inst)
