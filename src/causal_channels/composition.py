"""Joint bipartite operations built from local instruments and classical wirings.

Covers one-way LOCC, finite-round LOCC protocols, the general
conditional-distribution wiring (the LOCC* form), the loop form, and the
rescaling decomposition for unnormalized separable-form CP maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    CpMap,
    Instrument,
    complementary_map,
    identity_map,
    is_trace_preserving,
    validate_instrument,
)
from .linalg import DEFAULT_TOL, DimensionError, basis_ket, identity

DIST_TOL = 1e-12


class AlphabetError(ValueError):
    """Classical alphabet sizes do not match."""


@dataclass(frozen=True)
class CondDist:
    """Conditional probability tensor p(inputs | outputs) over finite alphabets.

    ``table`` has one axis per input slot followed by one axis per output slot;
    for every fixing of the output indices the entries sum to 1.
    """

    input_alphabets: tuple
    output_alphabets: tuple
    table: np.ndarray

    def __post_init__(self):
        ins = tuple(int(n) for n in self.input_alphabets)
        outs = tuple(int(n) for n in self.output_alphabets)
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != ins + outs:
            raise DimensionError(f"table shape {t.shape} != {ins + outs}")
        if t.size and float(t.min()) < -DIST_TOL:
            raise ValueError("conditional distribution has negative entries")
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=tuple(range(len(ins))))
        if not np.allclose(sums, 1.0, atol=1e-10, rtol=0):
            raise ValueError("input marginals do not sum to 1 for every output fixing")
        object.__setattr__(self, "input_alphabets", ins)
        object.__setattr__(self, "output_alphabets", outs)
        object.__setattr__(self, "table", t)

    def prob(self, inputs, outputs) -> float:
        return float(self.table[tuple(inputs) + tuple(outputs)])


def delta_wiring(input_alphabets, output_alphabets, link) -> CondDist:
    """Deterministic wiring: input slot j copies output slot link[j].

    ``link[j]`` may also be ``("const", c)`` to pin slot j to the symbol c.
    """
    ins = tuple(input_alphabets)
    outs = tuple(output_alphabets)
    table = np.zeros(ins + outs)
    for out_idx in np.ndindex(*outs) if outs else [()]:
        in_idx = []
        for j, src in enumerate(link):
            if isinstance(src, tuple) and src[0] == "const":
                in_idx.append(src[1])
            else:
                in_idx.append(out_idx[src])
        table[tuple(in_idx) + tuple(out_idx)] = 1.0
    return CondDist(ins, outs, table)


def loop_wiring(n_a: int, n_b: int) -> CondDist:
    """The loop link: i_A = o_B and i_B = o_A, alphabets (n_a, n_b) for (o_A, o_B)."""
    return delta_wiring((n_b, n_a), (n_a, n_b), (1, 0))


@dataclass(frozen=True)
class JointMapSpec:
    """Two local instruments plus a wiring p(i_A, i_B | o_A, o_B)."""

    alice: Instrument
    bob: Instrument
    wiring: CondDist

    def __post_init__(self):
        want_in = (self.alice.in_alphabet, self.bob.in_alphabet)
        want_out = (self.alice.out_alphabet, self.bob.out_alphabet)
        if self.wiring.input_alphabets != want_in or self.wiring.output_alphabets != want_out:
            raise AlphabetError(
                f"wiring alphabets {self.wiring.input_alphabets}|{self.wiring.output_alphabets} "
                f"do not match instruments {want_in}|{want_out}"
            )


@dataclass(frozen=True)
class LoccProtocol:
    """Ordered rounds of (party, instrument) with delta wiring between rounds.

    Round 1 takes the fixed classical input 0; each later round's classical
    input is the previous round's classical output.  ``a_dim``/``b_dim`` are
    the local quantum input dimensions.
    """

    rounds: tuple
    a_dim: int
    b_dim: int

    def __post_init__(self):
        rounds = tuple((str(p), inst) for p, inst in self.rounds)
        prev_out = 1
        qdim = {"A": self.a_dim, "B": self.b_dim}
        for r, (party, inst) in enumerate(rounds):
            if party not in ("A", "B"):
                raise ValueError(f"round {r}: party must be 'A' or 'B'")
            if inst.in_alphabet != prev_out:
                raise AlphabetError(
                    f"round {r}: classical input alphabet {inst.in_alphabet} != "
                    f"previous output alphabet {prev_out}"
                )
            if inst.in_dim != qdim[party]:
                raise DimensionError(
                    f"round {r}: quantum input dim {inst.in_dim} != chained dim {qdim[party]}"
                )
            qdim[party] = inst.out_dim
            prev_out = inst.out_alphabet
        object.__setattr__(self, "rounds", rounds)

    def out_dims(self) -> tuple[int, int]:
        qdim = {"A": self.a_dim, "B": self.b_dim}
        for party, inst in self.rounds:
            qdim[party] = inst.out_dim
        return qdim["A"], qdim["B"]


def _link(a: Instrument, b: Instrument, pairs) -> CpMap:
    """The one contraction behind every wired form (the link product).

    ``pairs`` yields (ea, eb, p) for the element pairs the wiring supports,
    p = p(i_A, i_B | o_A, o_B) > 0; each contributes the Kraus operators
    sqrt(p) * (ka (x) kb).
    """
    kraus = []
    for ea, eb, w in pairs:
        s = np.sqrt(w)
        kraus.extend(s * np.kron(ka, kb) for ka in ea.kraus for kb in eb.kraus)
    return CpMap(a.in_dim * b.in_dim, a.out_dim * b.out_dim, tuple(kraus))


def _table_pairs(a: Instrument, b: Instrument, table):
    """Element pairs of positive weight under a table indexed (i_A, i_B, o_A, o_B)."""
    for (i_a, o_a), ea in a.elements.items():
        for (i_b, o_b), eb in b.elements.items():
            w = table[i_a, i_b, o_a, o_b]
            if w > 0.0:
                yield ea, eb, w


def compose_one_way(alice: Instrument, bob_maps) -> CpMap:
    """One-way composition: Alice measures, Bob applies the o-th TP map.

    The kernel on Bob's maps as an n -> 1 instrument under the copy wiring
    ``delta_wiring((1, n), (n, 1), (("const", 0), 0))``: i_A = 0, i_B = o_A.
    The wiring is deterministic, so each Alice element is paired with its one
    Bob element directly, without building the table.
    """
    if alice.in_alphabet != 1:
        raise AlphabetError("one-way composition needs an input-free Alice instrument")
    bob_maps = list(bob_maps)
    n = alice.out_alphabet
    if n == 0:
        raise AlphabetError("one-way composition needs an Alice instrument with outcomes")
    if len(bob_maps) != n:
        raise AlphabetError(f"Bob map count {len(bob_maps)} != Alice output alphabet {n}")
    bob = Instrument(
        n, 1, bob_maps[0].in_dim, bob_maps[0].out_dim, {(o, 0): m for o, m in enumerate(bob_maps)}
    )
    pairs = ((ea, bob_maps[o_a], 1.0) for (_, o_a), ea in alice.elements.items())
    return _link(alice, bob, pairs)


def compose_ccstar(spec: JointMapSpec) -> CpMap:
    """The wired joint map; CP always, not necessarily trace preserving.

    The kernel on every element pair of positive weight in the wiring table.
    """
    a, b = spec.alice, spec.bob
    return _link(a, b, _table_pairs(a, b, spec.wiring.table))


def is_locc_star_member(spec: JointMapSpec, tol: float = DEFAULT_TOL) -> bool:
    return is_trace_preserving(compose_ccstar(spec), tol)


def compose_loop(alice: Instrument, bob: Instrument) -> CpMap:
    """Loop composition sum_{a,b} A_{a|b} (x) B_{b|a}; may be non-TP.

    The kernel on ``loop_wiring``: i_A = o_B and i_B = o_A.  The wiring is
    deterministic, so each Alice element is paired with its one Bob element
    directly, without building the table.
    """
    if alice.in_alphabet != bob.out_alphabet or alice.out_alphabet != bob.in_alphabet:
        raise AlphabetError(
            f"loop alphabets do not match: Alice {alice.in_alphabet}->{alice.out_alphabet}, "
            f"Bob {bob.in_alphabet}->{bob.out_alphabet}"
        )
    pairs = (
        (ea, bob.elements[(a_sym, b_sym)], 1.0)
        for (b_sym, a_sym), ea in alice.elements.items()
        if (a_sym, b_sym) in bob.elements
    )
    return _link(alice, bob, pairs)


def to_loop_form(spec: JointMapSpec) -> tuple[Instrument, Instrument]:
    """Rewrite a wired spec as a loop pair with enlarged classical alphabets.

    The new index x ranges over Alice's original output alphabet.  The returned
    pair loop-composes to the same joint map as ``compose_ccstar(spec)``.
    """
    a, b, t = spec.alice, spec.bob, spec.wiring.table
    n_ia, n_ib = a.in_alphabet, b.in_alphabet
    n_oa, n_ob = a.out_alphabet, b.out_alphabet
    n_x = n_oa
    n_new_a = n_ib * n_x  # loop symbol a' = (i_B, x)
    n_new_b = n_oa * n_ob  # loop symbol b' = (o_A, o_B)

    alice_elems = {}
    for o_a in range(n_oa):
        for o_b in range(n_ob):
            b_sym = o_a * n_ob + o_b
            for i_b in range(n_ib):
                for x in range(n_x):
                    kraus = [
                        np.sqrt(t[i_a, i_b, o_a, o_b]) * k
                        for i_a in range(n_ia)
                        if t[i_a, i_b, o_a, o_b] > 0.0
                        for k in a.element(i_a, x).kraus
                    ]
                    if kraus:
                        alice_elems[(b_sym, i_b * n_x + x)] = CpMap(
                            a.in_dim, a.out_dim, tuple(kraus)
                        )
    alice_new = Instrument(n_new_b, n_new_a, a.in_dim, a.out_dim, alice_elems)

    bob_elems = {
        (i_b * n_x + x, x * n_ob + o_b): el
        for (i_b, o_b), el in b.elements.items()
        for x in range(n_x)
    }
    bob_new = Instrument(n_new_a, n_new_b, b.in_dim, b.out_dim, bob_elems)
    return alice_new, bob_new


def collapse_sequence(seq) -> Instrument:
    """Collapse a single party's round sequence into one instrument.

    Aggregate classical input (i_1..i_N) and output (o_1..o_N) are encoded
    row-major with the first round most significant.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("cannot collapse an empty sequence")
    for k in range(len(seq) - 1):
        if seq[k].out_dim != seq[k + 1].in_dim:
            raise DimensionError(f"quantum dims do not chain between rounds {k} and {k + 1}")
    chains = dict(seq[0].elements)
    for inst in seq[1:]:
        chains = {
            (i * inst.in_alphabet + i_k, o * inst.out_alphabet + o_k): chain.then(el)
            for (i, o), chain in chains.items()
            for (i_k, o_k), el in inst.elements.items()
        }
    n_in = math.prod(inst.in_alphabet for inst in seq)
    n_out = math.prod(inst.out_alphabet for inst in seq)
    return Instrument(n_in, n_out, seq[0].in_dim, seq[-1].out_dim, chains)


def compose_locc_protocol(p: LoccProtocol) -> CpMap:
    """Chain protocol rounds with delta wiring and sum the classical indices."""
    a_out, b_out = p.out_dims()
    in_dim = p.a_dim * p.b_dim
    kraus = []
    by_input = [inst.by_input() for _, inst in p.rounds]

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

    walk(0, 0, identity(p.a_dim), identity(p.b_dim))
    return CpMap(in_dim, a_out * b_out, tuple(kraus))


def compose_wired(alice_rounds, bob_rounds, wiring: CondDist) -> CpMap:
    """Contraction of per-round instruments against an aggregate wiring.

    Wiring input slots are (i_1..i_N of Alice, then i'_1..i'_M of Bob); output
    slots follow the same party order.  The kernel on ``collapse_sequence`` of
    each party's rounds under the wiring table reshaped row-major to
    (prod i_A, prod i_B, prod o_A, prod o_B); a party without rounds is the
    identity on a 1-dim system.
    """
    alice_rounds = list(alice_rounds)
    bob_rounds = list(bob_rounds)
    want_in = tuple(r.in_alphabet for r in alice_rounds) + tuple(r.in_alphabet for r in bob_rounds)
    want_out = tuple(r.out_alphabet for r in alice_rounds) + tuple(
        r.out_alphabet for r in bob_rounds
    )
    if wiring.input_alphabets != want_in or wiring.output_alphabets != want_out:
        raise AlphabetError(
            f"wiring alphabets {wiring.input_alphabets}|{wiring.output_alphabets} do not "
            f"match round alphabets {want_in}|{want_out}"
        )
    trivial = Instrument(1, 1, 1, 1, {(0, 0): identity_map(1)})
    alice = collapse_sequence(alice_rounds) if alice_rounds else trivial
    bob = collapse_sequence(bob_rounds) if bob_rounds else trivial
    shape = (alice.in_alphabet, bob.in_alphabet, alice.out_alphabet, bob.out_alphabet)
    return _link(alice, bob, _table_pairs(alice, bob, wiring.table.reshape(shape)))


def operator_norm_of_gram(cp: CpMap) -> float:
    """Largest eigenvalue of sum K^dag K."""
    g = cp.kraus_gram()
    return float(np.max(np.linalg.eigvalsh(g))) if g.size else 0.0


def trace_and_replace_mixed(in_dim: int, out_dim: int) -> CpMap:
    """CPTP map rho -> tr(rho) * (maximally mixed state)."""
    s = 1.0 / np.sqrt(out_dim)
    ops = tuple(
        s * (basis_ket(out_dim, mo) @ basis_ket(in_dim, ni).conj().T)
        for mo in range(out_dim)
        for ni in range(in_dim)
    )
    return CpMap(in_dim, out_dim, ops)


def sep_table_instruments(terms, tol: float = DEFAULT_TOL) -> tuple[Instrument, Instrument]:
    """Loop-form instruments realizing a sum of products of CPTD factor pairs.

    Alphabets have size K+2: symbol k selects the k-th term, symbol K carries
    the complements, and symbols K and K+1 hold CPTP padding (trace-and-replace
    with the maximally mixed state).  The loop composition of the pair equals
    sum_k eA_k (x) eB_k.
    """
    terms = list(terms)
    big_k = len(terms)
    if big_k == 0:
        raise ValueError("need at least one term")
    a_in, a_out = terms[0][0].in_dim, terms[0][0].out_dim
    b_in, b_out = terms[0][1].in_dim, terms[0][1].out_dim
    pad_a = trace_and_replace_mixed(a_in, a_out)
    pad_b = trace_and_replace_mixed(b_in, b_out)
    n = big_k + 2
    alice_elems = {}
    bob_elems = {}
    for k, (ea, eb) in enumerate(terms):
        alice_elems[(k, k)] = ea
        bob_elems[(k, k)] = eb
        comp_a = complementary_map(ea, tol)
        comp_b = complementary_map(eb, tol)
        if comp_a.kraus:
            alice_elems[(k, big_k)] = comp_a
        if comp_b.kraus:
            bob_elems[(k, big_k)] = comp_b
    # Padding keeps every conditioning symbol trace preserving.
    alice_elems[(big_k, big_k)] = pad_a
    alice_elems[(big_k + 1, big_k + 1)] = pad_a
    bob_elems[(big_k, big_k + 1)] = pad_b
    bob_elems[(big_k + 1, big_k)] = pad_b
    alice = Instrument(n, n, a_in, a_out, alice_elems)
    bob = Instrument(n, n, b_in, b_out, bob_elems)
    return alice, bob


def slocc_star_decompose(sep_terms, tol: float = DEFAULT_TOL):
    """Rescale unnormalized separable-form CP terms into a loop-form spec.

    Returns ``(scale, spec)`` where ``scale`` is the smallest integer M making
    every (1/M)-scaled first factor trace-nonincreasing, and ``spec`` is a
    loop-wired JointMapSpec whose composition equals sum_k eA_k (x) eB_k.
    """
    terms = [(ea, eb) for ea, eb in sep_terms]
    if not terms:
        raise ValueError("need at least one term")
    norms_a = [operator_norm_of_gram(ea) for ea, _ in terms]
    scale = max(1, math.ceil(max(norms_a) - 1e-12))
    normalized = []
    for (ea, eb), _ in zip(terms, norms_a):
        ea_s = ea.scaled(1.0 / scale)
        norm_b = operator_norm_of_gram(eb)
        split_b = max(1, math.ceil(norm_b - 1e-12))
        eb_s = eb.scaled(1.0 / split_b)
        for _ in range(scale):
            for _ in range(split_b):
                normalized.append((ea_s, eb_s))
    alice, bob = sep_table_instruments(normalized, tol)
    spec = JointMapSpec(alice, bob, loop_wiring(alice.out_alphabet, bob.out_alphabet))
    return scale, spec


def mix_wirings(q: float, p1: CondDist, p2: CondDist) -> CondDist:
    if p1.input_alphabets != p2.input_alphabets or p1.output_alphabets != p2.output_alphabets:
        raise AlphabetError("cannot mix wirings over different alphabets")
    return CondDist(p1.input_alphabets, p1.output_alphabets, q * p1.table + (1 - q) * p2.table)


__all__ = [
    "AlphabetError",
    "CondDist",
    "JointMapSpec",
    "LoccProtocol",
    "collapse_sequence",
    "compose_ccstar",
    "compose_locc_protocol",
    "compose_loop",
    "compose_one_way",
    "compose_wired",
    "delta_wiring",
    "is_locc_star_member",
    "loop_wiring",
    "mix_wirings",
    "operator_norm_of_gram",
    "sep_table_instruments",
    "slocc_star_decompose",
    "to_loop_form",
    "trace_and_replace_mixed",
    "validate_instrument",
]
