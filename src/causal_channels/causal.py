"""Causal order over labeled local operations and LOCC reconstruction.

A wiring over the classical inputs/outputs of per-round local operations is
"causal-order respecting" when every prefix marginal depends only on outputs
of strictly preceding operations.  Such wirings can be rewritten as a
standard, delta-wired, alternating LOCC protocol; this module implements the
check and the constructive rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import CpMap, Instrument, validate_instrument
from .composition import CondDist, LoccProtocol, check_round_alphabets, delta_wiring
from .linalg import DimensionError

MARGINAL_TOL = 1e-12
# Largest in_alphabet x out_alphabet of any rebuilt or merged LOCC round.
MAX_ROUND_SIZE = 1 << 18


class CausalOrderError(ValueError):
    """A wiring violates the no-signaling condition for the given order."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ReconstructionSizeError(ValueError):
    """A rebuilt LOCC round would exceed ``MAX_ROUND_SIZE`` classical symbols."""


@dataclass(frozen=True, order=True)
class OpLabel:
    party: str
    round: int

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ValueError("party must be 'A' or 'B'")
        if self.round < 1:
            raise ValueError("round numbers start at 1")


@dataclass(frozen=True)
class CausalOrder:
    """Strict partial order over the 2N local operations, transitively closed.

    Within-party successor edges are always present; ``edges`` may add
    cross-party constraints.
    """

    n_a: int
    n_b: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        nodes = self.node_list()
        node_set = set(nodes)
        rel = set()
        for x, y in self.edges:
            if x not in node_set or y not in node_set:
                raise ValueError(f"edge ({x},{y}) references an unknown operation")
            rel.add((x, y))
        for k in range(1, self.n_a):
            rel.add((OpLabel("A", k), OpLabel("A", k + 1)))
        for k in range(1, self.n_b):
            rel.add((OpLabel("B", k), OpLabel("B", k + 1)))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for x, y in list(rel):
                for y2, z in list(rel):
                    if y2 == y and (x, z) not in rel:
                        rel.add((x, z))
                        changed = True
        for x, y in rel:
            if x == y:
                raise CausalOrderError("relation is not irreflexive (contains a cycle)")
            if (y, x) in rel:
                raise CausalOrderError(f"relation is not antisymmetric: {x} <-> {y}")
        object.__setattr__(self, "edges", frozenset(rel))

    def node_list(self):
        return [OpLabel("A", k) for k in range(1, self.n_a + 1)] + [
            OpLabel("B", k) for k in range(1, self.n_b + 1)
        ]

    def precedes(self, x: OpLabel, y: OpLabel) -> bool:
        return (x, y) in self.edges


def all_orders(n_a: int, n_b: int):
    """Every strict partial order on the operations (exhaustive; small N only)."""
    nodes = [OpLabel("A", k) for k in range(1, n_a + 1)] + [
        OpLabel("B", k) for k in range(1, n_b + 1)
    ]
    cross = [(x, y) for x in nodes for y in nodes if x != y and x.party != y.party]
    seen = set()
    for mask in range(1 << len(cross)):
        chosen = frozenset(e for j, e in enumerate(cross) if mask >> j & 1)
        try:
            order = CausalOrder(n_a, n_b, chosen)
        except CausalOrderError:
            continue
        if order.edges not in seen:
            seen.add(order.edges)
            yield order


def past_set(order: CausalOrder, inputs) -> set:
    """Operations whose classical outputs lie strictly before any given input."""
    inputs = set(inputs)
    node_set = set(order.node_list())
    for n in inputs:
        if n not in node_set:
            raise ValueError(f"unknown operation label {n}")
    return {m for m in order.node_list() if any(order.precedes(m, n) for n in inputs)}


@dataclass(frozen=True)
class AggregateWiring:
    """A wiring over all per-round classical slots.

    Slot order is Alice rounds 1..n_a followed by Bob rounds 1..n_b, for both
    the input slots and the output slots of the underlying distribution.
    """

    n_a: int
    n_b: int
    dist: CondDist

    def __post_init__(self):
        total = self.n_a + self.n_b
        if len(self.dist.input_alphabets) != total or len(self.dist.output_alphabets) != total:
            raise DimensionError(
                f"wiring needs {total} input and output slots, got "
                f"{len(self.dist.input_alphabets)}|{len(self.dist.output_alphabets)}"
            )

    def slot(self, label: OpLabel) -> int:
        if label.party == "A":
            if label.round > self.n_a:
                raise ValueError(f"no slot for {label}")
            return label.round - 1
        if label.round > self.n_b:
            raise ValueError(f"no slot for {label}")
        return self.n_a + label.round - 1

    def label_of_slot(self, j: int) -> OpLabel:
        if j < self.n_a:
            return OpLabel("A", j + 1)
        return OpLabel("B", j - self.n_a + 1)


def find_causal_violation(w: AggregateWiring, order: CausalOrder):
    """A witnessing (k, l, output label) if the no-signaling condition fails."""
    if order.n_a != w.n_a or order.n_b != w.n_b:
        raise DimensionError("order and wiring describe different round counts")
    total = w.n_a + w.n_b
    for k in range(w.n_a + 1):
        for l in range(w.n_b + 1):
            if k == 0 and l == 0:
                continue
            kept_labels = [OpLabel("A", r) for r in range(1, k + 1)] + [
                OpLabel("B", r) for r in range(1, l + 1)
            ]
            kept = [w.slot(x) for x in kept_labels]
            dropped = tuple(j for j in range(total) if j not in kept)
            marginal = w.dist.table.sum(axis=dropped) if dropped else w.dist.table
            past = {w.slot(x) for x in past_set(order, kept_labels)}
            # marginal axes: kept inputs (ascending slot), then all output slots
            for j in range(total):
                if j in past:
                    continue
                axis = len(kept) + j
                ref = np.take(marginal, 0, axis=axis)
                for v in range(1, marginal.shape[axis]):
                    if not np.allclose(
                        np.take(marginal, v, axis=axis), ref, atol=MARGINAL_TOL, rtol=0
                    ):
                        return (k, l, w.label_of_slot(j))
    return None


def respects_causal_order(w: AggregateWiring, order: CausalOrder) -> bool:
    return find_causal_violation(w, order) is None


def linear_extension(order: CausalOrder) -> tuple:
    """The operations in one order-respecting sequence.

    Kahn's algorithm; ties broken by (party A first, then ascending round).
    """
    nodes = order.node_list()
    remaining = set(nodes)
    seq = []
    while remaining:
        ready = sorted(
            n for n in remaining if not any(order.precedes(m, n) for m in remaining if m != n)
        )
        if not ready:
            raise CausalOrderError("relation contains a cycle")
        pick = ready[0]
        seq.append(pick)
        remaining.remove(pick)
    return tuple(seq)


@dataclass(frozen=True)
class QChannel:
    """Per-step conditional r(I_l | I_1..I_{l-1}, O_1..O_{l-1}).

    ``table`` has axes (I_1..I_l, O_1..O_{l-1}) in linear-extension order.
    """

    position: int
    node: OpLabel
    table: np.ndarray


def build_q_channels(w: AggregateWiring, seq) -> list:
    """Split a causal-order-respecting wiring into per-step classical channels.

    ``seq`` lists the operations in order, as ``linear_extension`` gives them.
    On zero-probability conditioning branches the conditional is uniform over
    I_l; this keeps every step a valid channel without changing the product.
    """
    total = len(seq)
    slots = [w.slot(n) for n in seq]
    # reorder axes to linear-extension order: inputs then outputs
    q = w.dist.table.transpose(tuple(slots) + tuple(total + s for s in slots))
    in_sizes = [q.shape[j] for j in range(total)]

    def marg(l):
        """sum over I_{l+1}..I_{2N}, outputs beyond O_{l-1} sliced at 0."""
        m = q.sum(axis=tuple(range(l, total)))
        # axes now: I_1..I_l, O_1..O_total; keep only O_1..O_{l-1}
        for _ in range(total - (l - 1) if l >= 1 else total):
            m = np.take(m, 0, axis=m.ndim - 1)
        return m

    channels = []
    prev = np.ones(())  # marg(0) == 1
    for l in range(1, total + 1):
        cur = marg(l)
        denom = prev
        # broadcast denom over the new I_l axis and the new O_{l-1} axis
        denom = np.expand_dims(denom, axis=l - 1)
        if l >= 2:
            denom = np.expand_dims(denom, axis=denom.ndim)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(denom > 0, cur / np.where(denom > 0, denom, 1.0), 1.0 / in_sizes[l - 1])
        channels.append(QChannel(l, seq[l - 1], r))
        prev = cur
    return channels


def build_primed_operations(alice_rounds, bob_rounds, channels) -> list:
    """Per-step instruments over the reachable transcripts (I_1..I_l, O_1..O_l).

    Step l extends each transcript of step l - 1 by every I_l of positive
    channel weight and every O_l with a nonzero round element; nothing else is
    built.  Transcripts are numbered densely in sorted tuple order, and the
    quantum action is the round element weighted by the step channel.
    Returns a list of (party, Instrument) in linear-extension order.
    """
    rounds = {OpLabel("A", k + 1): inst for k, inst in enumerate(alice_rounds)}
    rounds.update({OpLabel("B", k + 1): inst for k, inst in enumerate(bob_rounds)})
    prev = {((), ()): 0}
    steps = []
    for ch in channels:
        l, node = ch.position, ch.node
        base = rounds[node]
        rows = base.by_input()
        grown = {}  # transcript -> (previous symbol, weight, element)
        for (hist_i, hist_o), prev_sym in prev.items():
            weights = ch.table[hist_i + (slice(None),) + hist_o]
            for i_l in np.flatnonzero(weights > 0.0).tolist():
                for o_l, el in rows.get(i_l, ()):
                    key = (hist_i + (i_l,), hist_o + (o_l,))
                    grown[key] = (prev_sym, float(weights[i_l]), el)
            if len(prev) * len(grown) > MAX_ROUND_SIZE:
                raise ReconstructionSizeError(
                    f"step {l} ({node}) has {len(prev)} x {len(grown)} or more classical "
                    f"symbols, more than the limit of {MAX_ROUND_SIZE}"
                )
        cur = {key: j for j, key in enumerate(sorted(grown))}
        elements = {
            (prev_sym, cur[key]): el.scaled(weight)
            for key, (prev_sym, weight, el) in grown.items()
        }
        inst = Instrument(len(prev), len(cur), base.in_dim, base.out_dim, elements)
        if not validate_instrument(inst):
            raise CausalOrderError(
                f"step {l} ({node}) does not form an instrument; "
                "the wiring does not respect the order",
                witness=node,
            )
        steps.append((node.party, inst))
        prev = cur
    return steps


def merge_successive(protocol: LoccProtocol) -> LoccProtocol:
    """Merge consecutive same-party rounds so that parties strictly alternate.

    A merged round emits only the output of its last round, the one the next
    round reads, and sums the branches that differ only in earlier outputs.
    On reconstructed steps the last transcript fixes the earlier ones, so
    nothing is summed and the merged round is no larger than its last step.
    """
    merged = []
    for party, inst in protocol.rounds:
        if merged and merged[-1][0] == party:
            prev = merged.pop()[1]
            rows = inst.by_input()
            kraus = {}
            for (i, o1), e1 in prev.elements.items():
                for o2, e2 in rows.get(o1, ()):
                    kraus.setdefault((i, o2), []).extend(e1.then(e2).kraus)
            elements = {
                key: CpMap(prev.in_dim, inst.out_dim, tuple(ks)) for key, ks in kraus.items()
            }
            inst = Instrument(
                prev.in_alphabet, inst.out_alphabet, prev.in_dim, inst.out_dim, elements
            )
        merged.append((party, inst))
    return LoccProtocol(tuple(merged), protocol.a_dim, protocol.b_dim)


def reconstruct_locc(alice_rounds, bob_rounds, w: AggregateWiring, order: CausalOrder) -> LoccProtocol:
    """Rewrite a causal-order-respecting wired family as standard LOCC.

    Raises ``AlphabetError`` when the rounds do not match the wiring's slots,
    and ``DimensionError`` when the order has other round counts.
    """
    check_round_alphabets(alice_rounds, bob_rounds, w.dist)
    witness = find_causal_violation(w, order)
    if witness is not None:
        k, l, label = witness
        raise CausalOrderError(
            f"wiring does not respect the order: marginal (k={k}, l={l}) depends on "
            f"the output of {label} outside its past",
            witness=witness,
        )
    channels = build_q_channels(w, linear_extension(order))
    steps = build_primed_operations(alice_rounds, bob_rounds, channels)
    a_dim = alice_rounds[0].in_dim if alice_rounds else 1
    b_dim = bob_rounds[0].in_dim if bob_rounds else 1
    protocol = LoccProtocol(tuple(steps), a_dim, b_dim)
    return merge_successive(protocol)


def protocol_to_wired_form(p: LoccProtocol):
    """Express a standard protocol as per-round instruments plus a delta wiring.

    Returns (alice_rounds, bob_rounds, AggregateWiring, CausalOrder) where the
    order is the protocol's total order.
    """
    alice_rounds = [inst for party, inst in p.rounds if party == "A"]
    bob_rounds = [inst for party, inst in p.rounds if party == "B"]
    n_a, n_b = len(alice_rounds), len(bob_rounds)

    # slot index (A rounds then B rounds) for each protocol position
    slot_of_pos = []
    seen = {"A": 0, "B": 0}
    for party, _ in p.rounds:
        seen[party] += 1
        slot_of_pos.append(seen[party] - 1 if party == "A" else n_a + seen[party] - 1)

    in_alphas = [None] * (n_a + n_b)
    out_alphas = [None] * (n_a + n_b)
    link = [None] * (n_a + n_b)
    for r, (party, inst) in enumerate(p.rounds):
        j = slot_of_pos[r]
        in_alphas[j] = inst.in_alphabet
        out_alphas[j] = inst.out_alphabet
        link[j] = ("const", 0) if r == 0 else slot_of_pos[r - 1]
    dist = delta_wiring(tuple(in_alphas), tuple(out_alphas), link)
    wiring = AggregateWiring(n_a, n_b, dist)

    labels = []
    seen = {"A": 0, "B": 0}
    for party, _ in p.rounds:
        seen[party] += 1
        labels.append(OpLabel(party, seen[party]))
    edges = frozenset(
        (labels[r], labels[s]) for r in range(len(labels)) for s in range(r + 1, len(labels))
    )
    order = CausalOrder(n_a, n_b, edges)
    return alice_rounds, bob_rounds, wiring, order
