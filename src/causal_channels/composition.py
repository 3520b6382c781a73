"""Joint bipartite operations built from local instruments and classical wirings.

Covers one-way LOCC, finite-round LOCC protocols, the general
conditional-distribution wiring (the LOCC* form) and the loop form.  It also
holds the one separable -> loop path: ``normalize_terms`` balances each factor
pair to trace-nonincreasing factors and ``sep_table_instruments`` turns the
balanced terms into a loop instrument pair.  ``sep.sep_to_locc_star`` and
``slocc_star_decompose`` both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    CpMap,
    Instrument,
    complementary_map,
    is_trace_preserving,
    key_join,
    validate_instrument,
)
from .linalg import DEFAULT_TOL, DimensionError, identity

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
        if 0 in outs:  # no output fixing to normalise over, so nothing would be checked
            raise DimensionError(f"empty output alphabet in {outs}")
        if t.size and float(t.min()) < -DIST_TOL:
            raise ValueError("conditional distribution has negative entries")
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=tuple(range(len(ins))))
        if not np.allclose(sums, 1.0, atol=1e-10, rtol=0):
            raise ValueError("input marginals do not sum to 1 for every output fixing")
        object.__setattr__(self, "input_alphabets", ins)
        object.__setattr__(self, "output_alphabets", outs)
        object.__setattr__(self, "table", t)


def delta_wiring(input_alphabets, output_alphabets, link) -> CondDist:
    """Deterministic wiring: input slot j copies output slot link[j].

    ``link[j]`` may also be ``("const", c)`` to pin slot j to the symbol c.
    """
    ins = tuple(input_alphabets)
    outs = tuple(output_alphabets)
    table = np.zeros(ins + outs)
    out_idx = [axis.ravel() for axis in np.indices(outs)]  # every output tuple, row-major
    size = int(np.prod(outs))
    in_idx = [
        np.full(size, src[1]) if isinstance(src, tuple) and src[0] == "const" else out_idx[src]
        for src in link
    ]
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


def _link(a: Instrument, b: Instrument, ja, bob_ops) -> CpMap:
    """The one contraction behind every wired form (the link product).

    The joint map's operators are kron(A_ja[n], bob_ops[n]): each Alice
    operator with every Bob operator wired to it, in row-major (ja, Bob)
    order, each Bob operator scaled by the square root of its weight
    p(i_A, i_B | o_A, o_B).  The tensor product is bilinear, so this is the
    sum over element pairs of the weighted products.
    """
    ops = np.einsum("jac,jbd->jabcd", a.ops[ja], bob_ops)
    d_in, d_out = a.in_dim * b.in_dim, a.out_dim * b.out_dim
    return CpMap(d_in, d_out, ops.reshape(-1, d_out, d_in))


def _table_link(a: Instrument, b: Instrument, table) -> CpMap:
    """The kernel under a wiring table indexed (i_A, i_B, o_A, o_B)."""
    ka, kb = a.keys[:, None], b.keys[None, :]
    w = table[ka[..., 0], kb[..., 0], ka[..., 1], kb[..., 1]]  # per operator pair
    ja, jb = np.nonzero(w > 0.0)
    return _link(a, b, ja, np.sqrt(w[ja, jb])[:, None, None] * b.ops[jb])


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
    bob = Instrument.from_elements(
        n, 1, bob_maps[0].in_dim, bob_maps[0].out_dim, {(o, 0): m for o, m in enumerate(bob_maps)}
    )
    ja, jb = key_join(alice.keys[:, 1], bob.keys[:, 0])
    return _link(alice, bob, ja, bob.ops[jb])


def compose_ccstar(spec: JointMapSpec) -> CpMap:
    """The wired joint map; CP always, not necessarily trace preserving.

    The kernel on every element pair of positive weight in the wiring table.
    """
    return _table_link(spec.alice, spec.bob, spec.wiring.table)


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
    # Alice's (b, a) reads Bob's (a, b)
    ja, jb = key_join(alice.keys[:, 1] * bob.out_alphabet + alice.keys[:, 0], bob.slots())
    return _link(alice, bob, ja, bob.ops[jb])


def to_loop_form(spec: JointMapSpec) -> tuple[Instrument, Instrument]:
    """Rewrite a wired spec as a loop pair with enlarged classical alphabets.

    The new index x ranges over Alice's original output alphabet.  The returned
    pair loop-composes to the same joint map as ``compose_ccstar(spec)``.
    """
    a, b, t = spec.alice, spec.bob, spec.wiring.table
    n_ib, n_oa, n_ob = b.in_alphabet, a.out_alphabet, b.out_alphabet
    n_x = n_oa
    # Alice's element (b' = (o_A, o_B), a' = (i_B, x)) concatenates, over i_A,
    # the operators of A_{x|i_A} scaled by sqrt(t[i_A, i_B, o_A, o_B])
    o_a, o_b, i_b, j = np.indices((n_oa, n_ob, n_ib, len(a.ops))).reshape(4, -1)
    w = t[a.keys[j, 0], i_b, o_a, o_b]
    keep = w > 0.0
    keys = np.stack([o_a * n_ob + o_b, i_b * n_x + a.keys[j, 1]], axis=1)[keep]
    ops = np.sqrt(w[keep])[:, None, None] * a.ops[j[keep]]
    alice_new = Instrument(n_oa * n_ob, n_ib * n_x, a.in_dim, a.out_dim, ops, keys)
    # Bob's element (a' = (i_B, x), b' = (x, o_B)) is B_{o_B|i_B} for every x
    x, j = np.indices((n_x, len(b.ops))).reshape(2, -1)
    keys = np.stack([b.keys[j, 0] * n_x + x, x * n_ob + b.keys[j, 1]], axis=1)
    bob_new = Instrument(n_ib * n_x, n_oa * n_ob, b.in_dim, b.out_dim, b.ops[j], keys)
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
    ops, keys = seq[0].ops, seq[0].keys
    for inst in seq[1:]:
        # chain operator j then round operator k, j outer, as in CpMap.then
        ops = (inst.ops[None, :] @ ops[:, None]).reshape(-1, inst.out_dim, seq[0].in_dim)
        alphabets = (inst.in_alphabet, inst.out_alphabet)
        keys = (keys[:, None] * alphabets + inst.keys[None, :]).reshape(-1, 2)
    n_in = math.prod(inst.in_alphabet for inst in seq)
    n_out = math.prod(inst.out_alphabet for inst in seq)
    return Instrument(n_in, n_out, seq[0].in_dim, seq[-1].out_dim, ops, keys)


def _merge_by_symbol(ops, sym, n_symbols: int):
    """Cap each symbol at d_in * d_out operators without changing its Choi operator."""
    counts, bound = np.bincount(sym, minlength=n_symbols), math.prod(ops.shape[1:])
    for s in np.flatnonzero(counts > bound):
        mine = sym == s
        # the rows of the QR factor R of the rows W give W^T conj(W) = R^T conj(R)
        r = np.linalg.qr(ops[mine].reshape(counts[s], bound), mode="r")
        ops = np.concatenate([ops[~mine], r.reshape((-1,) + ops.shape[1:])])
        sym = np.concatenate([sym[~mine], np.full(len(r), s)])
    return ops, sym


def compose_locc_protocol(p: LoccProtocol) -> CpMap:
    """Chain protocol rounds with delta wiring and sum the classical indices.

    A dynamic program over the classical symbol (the link product of Chiribella,
    D'Ariano and Perinotti, PRA 80, 022339, 2009): ``ops`` holds Kraus operators,
    axes (out_A, out_B, in), of the joint map so far, and ``sym`` the last output
    symbol of each one's history.  Polynomial in the rounds; at most d_in * d_out
    Kraus operators in the result.
    """
    a, b = p.a_dim, p.b_dim
    ops, sym = identity(a * b).reshape(1, a, b, a * b), np.zeros(1, dtype=int)
    for party, inst in p.rounds:
        # apply each operator, on the party's output axis, to every one whose symbol it reads
        rows, js = key_join(sym, inst.keys[:, 0])
        spec = "pxu,pubi->pxbi" if party == "A" else "pxu,paui->paxi"
        ops = np.einsum(spec, inst.ops[js], ops[rows])
        ops, sym = _merge_by_symbol(ops, inst.keys[js, 1], inst.out_alphabet)
    ops = _merge_by_symbol(ops, np.zeros(len(ops), dtype=int), 1)[0]
    d_out = ops.shape[1] * ops.shape[2]
    return CpMap(a * b, d_out, ops.reshape(-1, d_out, a * b))


def check_round_alphabets(alice_rounds, bob_rounds, wiring: CondDist) -> None:
    """Raise ``AlphabetError`` unless the wiring's slots match the rounds' alphabets.

    The wiring needs one input and one output slot per round, Alice's rounds
    first, then Bob's.
    """
    rounds = list(alice_rounds) + list(bob_rounds)
    want_in = tuple(r.in_alphabet for r in rounds)
    want_out = tuple(r.out_alphabet for r in rounds)
    if wiring.input_alphabets != want_in or wiring.output_alphabets != want_out:
        raise AlphabetError(
            f"wiring alphabets {wiring.input_alphabets}|{wiring.output_alphabets} do not "
            f"match round alphabets {want_in}|{want_out}"
        )


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
    check_round_alphabets(alice_rounds, bob_rounds, wiring)
    trivial = Instrument(1, 1, 1, 1, identity(1)[None], [(0, 0)])
    alice = collapse_sequence(alice_rounds) if alice_rounds else trivial
    bob = collapse_sequence(bob_rounds) if bob_rounds else trivial
    shape = (alice.in_alphabet, bob.in_alphabet, alice.out_alphabet, bob.out_alphabet)
    return _table_link(alice, bob, wiring.table.reshape(shape))


def operator_norm_of_gram(cp: CpMap) -> float:
    """Largest eigenvalue of sum K^dag K."""
    g = cp.kraus_gram()
    return float(np.max(np.linalg.eigvalsh(g))) if g.size else 0.0


def trace_and_replace_mixed(in_dim: int, out_dim: int) -> CpMap:
    """CPTP map rho -> tr(rho) * (maximally mixed state)."""
    # operator mo * in_dim + ni is |mo><ni| / sqrt(out_dim)
    ops = identity(out_dim * in_dim).reshape(-1, out_dim, in_dim) / np.sqrt(out_dim)
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
        # Instrument drops a zero complement
        alice_elems[(k, big_k)] = complementary_map(ea, tol)
        bob_elems[(k, big_k)] = complementary_map(eb, tol)
    # Padding keeps every conditioning symbol trace preserving.
    alice_elems[(big_k, big_k)] = pad_a
    alice_elems[(big_k + 1, big_k + 1)] = pad_a
    bob_elems[(big_k, big_k + 1)] = pad_b
    bob_elems[(big_k + 1, big_k)] = pad_b
    alice = Instrument.from_elements(n, n, a_in, a_out, alice_elems)
    bob = Instrument.from_elements(n, n, b_in, b_out, bob_elems)
    return alice, bob


def normalize_terms(terms) -> list:
    """Rescale factor pairs so both sides are trace-nonincreasing.

    Each pair is first balanced by the Alice gram norm c = max(1, ||A_k||); if
    the compensated Bob factor still exceeds trace preservation it is split
    into equal integer shares, preserving the term's product map.
    """
    out = []
    for ea, eb in terms:
        c = max(1.0, operator_norm_of_gram(ea))
        ea_s = ea.scaled(1.0 / c)
        eb_s = eb.scaled(c)
        norm_b = operator_norm_of_gram(eb_s)
        shares = max(1, math.ceil(norm_b - 1e-12))
        eb_s = eb_s.scaled(1.0 / shares)
        for _ in range(shares):
            out.append((ea_s, eb_s))
    return out


def slocc_star_decompose(sep_terms, tol: float = DEFAULT_TOL):
    """Rescale unnormalized separable-form CP terms into a loop instrument pair.

    Returns ``(scale, alice, bob)`` where ``scale`` is the smallest integer M
    with every first-factor gram norm at most M, and ``compose_loop(alice,
    bob)`` equals sum_k eA_k (x) eB_k.
    """
    terms = list(sep_terms)
    if not terms:
        raise ValueError("need at least one term")
    scale = max(1, math.ceil(max(operator_norm_of_gram(ea) for ea, _ in terms) - 1e-12))
    return (scale, *sep_table_instruments(normalize_terms(terms), tol))


__all__ = [
    "AlphabetError",
    "CondDist",
    "JointMapSpec",
    "LoccProtocol",
    "check_round_alphabets",
    "collapse_sequence",
    "compose_ccstar",
    "compose_locc_protocol",
    "compose_loop",
    "compose_one_way",
    "compose_wired",
    "delta_wiring",
    "is_locc_star_member",
    "loop_wiring",
    "normalize_terms",
    "operator_norm_of_gram",
    "sep_table_instruments",
    "slocc_star_decompose",
    "to_loop_form",
    "trace_and_replace_mixed",
    "validate_instrument",
]
