"""The dict-of-CpMap instrument code that the keyed Kraus arrays replaced.

Here an instrument is a ``DictInstrument``: alphabets, dims and a dict from
(input, output) to a nonzero ``CpMap``.  Each function below is the library's
former per-element loop, kept as the reference of
``tests/test_keyed_instruments.py``.  Every dict here is kept in sorted key
order, the order in which ``Instrument`` stores its elements; so each
function must give the same elements, operator for operator, as the array
code.  (Before the keyed arrays, a dict kept the order it was built in, and
that order reached the operator order of composed and merged maps.)
"""

from typing import NamedTuple

import numpy as np

from causal_channels import causal, serialize
from causal_channels.causal import CausalOrderError, OpLabel, ReconstructionSizeError
from causal_channels.channels import CpMap, Instrument, is_trace_preserving, tensor_map


class DictInstrument(NamedTuple):
    in_alphabet: int
    out_alphabet: int
    in_dim: int
    out_dim: int
    elements: dict


def elements(inst: Instrument) -> dict:
    """The nonzero elements of a keyed instrument as a dict, in key order."""
    ops = {}
    for key, op in zip(map(tuple, inst.keys.tolist()), inst.ops):
        ops.setdefault(key, []).append(op)
    return {key: CpMap(inst.in_dim, inst.out_dim, np.array(k)) for key, k in ops.items()}


def _nonzero(n_in, n_out, d_in, d_out, elems) -> DictInstrument:
    """The instrument of ``elems``, stored like ``Instrument``: zero maps dropped, keys sorted."""
    nonzero = {k: v for k, v in sorted(elems.items()) if len(v.kraus)}
    return DictInstrument(n_in, n_out, d_in, d_out, nonzero)


def by_input(inst: DictInstrument) -> dict:
    rows = {}
    for (i, o), el in inst.elements.items():
        rows.setdefault(i, []).append((o, el))
    return rows


def validate_instrument(inst: DictInstrument, tol: float) -> bool:
    rows = by_input(inst).values()
    sums = (np.concatenate([el.kraus for _, el in row]) for row in rows)
    return len(rows) == inst.in_alphabet and all(
        is_trace_preserving(CpMap(inst.in_dim, inst.out_dim, ops), tol) for ops in sums
    )


def compose_loop(alice: DictInstrument, bob: DictInstrument) -> CpMap:
    blocks = [
        tensor_map(ea, bob.elements[(a_sym, b_sym)]).kraus
        for (b_sym, a_sym), ea in alice.elements.items()
        if (a_sym, b_sym) in bob.elements
    ]
    kraus = np.concatenate(blocks) if blocks else ()
    return CpMap(alice.in_dim * bob.in_dim, alice.out_dim * bob.out_dim, kraus)


def to_loop_form(a: DictInstrument, b: DictInstrument, t) -> tuple:
    n_ia, n_ib = a.in_alphabet, b.in_alphabet
    n_oa, n_ob = a.out_alphabet, b.out_alphabet
    n_x = n_oa
    zero = CpMap(a.in_dim, a.out_dim, ())
    alice_elems = {}
    for o_a in range(n_oa):
        for o_b in range(n_ob):
            for i_b in range(n_ib):
                for x in range(n_x):
                    blocks = [
                        np.sqrt(t[i_a, i_b, o_a, o_b]) * a.elements.get((i_a, x), zero).kraus
                        for i_a in range(n_ia)
                        if t[i_a, i_b, o_a, o_b] > 0.0
                    ]
                    alice_elems[(o_a * n_ob + o_b, i_b * n_x + x)] = CpMap(
                        a.in_dim, a.out_dim, np.concatenate(blocks) if blocks else ()
                    )
    bob_elems = {
        (i_b * n_x + x, x * n_ob + o_b): el
        for (i_b, o_b), el in b.elements.items()
        for x in range(n_x)
    }
    return (
        _nonzero(n_oa * n_ob, n_ib * n_x, a.in_dim, a.out_dim, alice_elems),
        _nonzero(n_ib * n_x, n_oa * n_ob, b.in_dim, b.out_dim, bob_elems),
    )


def collapse_sequence(seq) -> DictInstrument:
    chains = dict(seq[0].elements)
    for inst in seq[1:]:
        chains = {
            (i * inst.in_alphabet + i_k, o * inst.out_alphabet + o_k): chain.then(el)
            for (i, o), chain in chains.items()
            for (i_k, o_k), el in inst.elements.items()
        }
    n_in = int(np.prod([inst.in_alphabet for inst in seq]))
    n_out = int(np.prod([inst.out_alphabet for inst in seq]))
    return _nonzero(n_in, n_out, seq[0].in_dim, seq[-1].out_dim, chains)


def merge_successive(rounds) -> list:
    merged = []
    for party, inst in rounds:
        if merged and merged[-1][0] == party:
            prev = merged.pop()[1]
            rows = by_input(inst)
            blocks = {}
            for (i, o1), e1 in prev.elements.items():
                for o2, e2 in rows.get(o1, ()):
                    blocks.setdefault((i, o2), []).append(e1.then(e2).kraus)
            elems = {
                key: CpMap(prev.in_dim, inst.out_dim, np.concatenate(bs))
                for key, bs in blocks.items()
            }
            inst = _nonzero(prev.in_alphabet, inst.out_alphabet, prev.in_dim, inst.out_dim, elems)
        merged.append((party, inst))
    return merged


def build_primed_operations(alice_rounds, bob_rounds, channels, tol: float) -> list:
    rounds = {OpLabel("A", k + 1): inst for k, inst in enumerate(alice_rounds)}
    rounds.update({OpLabel("B", k + 1): inst for k, inst in enumerate(bob_rounds)})
    prev = {((), ()): 0}
    steps = []
    for ch in channels:
        l, node = ch.position, ch.node
        base = rounds[node]
        rows = by_input(base)
        grown = {}  # transcript -> (previous symbol, weight, element)
        for (hist_i, hist_o), prev_sym in prev.items():
            weights = ch.table[hist_i + (slice(None),) + hist_o]
            for i_l in np.flatnonzero(weights > 0.0).tolist():
                for o_l, el in rows.get(i_l, ()):
                    key = (hist_i + (i_l,), hist_o + (o_l,))
                    grown[key] = (prev_sym, float(weights[i_l]), el)
            if len(prev) * len(grown) > causal.MAX_ROUND_SIZE:
                raise ReconstructionSizeError(f"step {l} ({node})")
        cur = {key: j for j, key in enumerate(sorted(grown))}
        elems = {
            (prev_sym, cur[key]): el.scaled(weight)
            for key, (prev_sym, weight, el) in grown.items()
        }
        inst = _nonzero(len(prev), len(cur), base.in_dim, base.out_dim, elems)
        if not validate_instrument(inst, tol):
            raise CausalOrderError(f"step {l} ({node})", witness=node)
        steps.append((node.party, inst))
        prev = cur
    return steps


def encode_instrument(inst: DictInstrument) -> dict:
    zero = {"in_dim": inst.in_dim, "out_dim": inst.out_dim, "kraus": []}
    elems = {
        str(i): [
            serialize.encode_cp_map(inst.elements[(i, o)]) if (i, o) in inst.elements
            else dict(zero)
            for o in range(inst.out_alphabet)
        ]
        for i in range(inst.in_alphabet)
    }
    return {
        "in_alphabet": inst.in_alphabet,
        "out_alphabet": inst.out_alphabet,
        "in_dim": inst.in_dim,
        "out_dim": inst.out_dim,
        "elements": elems,
    }
