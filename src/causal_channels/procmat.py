"""Classical process matrices over finite alphabets.

A classical process is a nonnegative table w(i_A, i_B, o_A, o_B) that yields a
deterministic joint operation for every choice of local instruments.  Validity
is decided over deterministic response strategies: Alice's are enumerated, and
for each the best and worst responses of Bob are read off per input.  Valid
processes decompose into a probability mixture of the two one-way orderings,
which this module computes in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import (
    CpMap,
    Instrument,
    choi_of,
    random_cptp,
)
from .composition import CondDist, JointMapSpec, LoccProtocol, compose_ccstar
from .linalg import DEFAULT_TOL, DimensionError, PositivityError, as_matrix, is_positive_semidefinite

STRATEGY_TOL = 1e-9
STRATEGY_CHUNK = 1 << 16  # entries of h_f held at once by find_violating_strategy
RECOMBINE_TOL = 1e-7


class ProcessValidityError(ValueError):
    """The table is not a valid classical process."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ProbeCountError(ValueError):
    """A probe test was asked for a negative number of probes, or would run none."""


@dataclass(frozen=True)
class ClassicalProcess:
    """Nonnegative tensor w(i_A, i_B, o_A, o_B), unit mass for every (o_A, o_B)."""

    n_ia: int
    n_ib: int
    n_oa: int
    n_ob: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        shape = (self.n_ia, self.n_ib, self.n_oa, self.n_ob)
        if t.shape != shape:
            raise DimensionError(f"table shape {t.shape} != {shape}")
        if min(shape) < 1:
            raise DimensionError(f"empty alphabet in table shape {shape}")
        if t.size and float(t.min()) < -1e-12:
            raise ProcessValidityError("process table has negative entries")
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=(0, 1))
        if not np.allclose(sums, 1.0, atol=1e-10, rtol=0):
            raise ProcessValidityError("mass over (i_A, i_B) is not 1 for some (o_A, o_B)")
        object.__setattr__(self, "table", t)

    def as_cond_dist(self) -> CondDist:
        return CondDist((self.n_ia, self.n_ib), (self.n_oa, self.n_ob), self.table)


def find_violating_strategy(w: ClassicalProcess, tol: float = STRATEGY_TOL):
    """A deterministic strategy pair (f, g) breaking unit mass, or None.

    f maps each i_A to an o_A, g maps each i_B to an o_B.  For fixed f the mass
    is sum_iB h_f(i_B, g(i_B)) with h_f = sum_iA w(i_A, :, f(i_A), :), so its
    extremes over g are the row-wise argmax and argmin of h_f and only f is
    enumerated.  The witness is the first violating f in ``product`` order,
    with the maximising g if that one violates, else the minimising g.
    """
    n_ia, n_ib, n_oa, n_ob = w.n_ia, w.n_ib, w.n_oa, w.n_ob
    a = np.moveaxis(w.table, 2, 1)  # (i_A, o_A, i_B, o_B)
    # h_f for all choices of the last `tail` entries of f at once, in product
    # order; the leading entries are looped over so memory stays bounded.
    tail = 0
    while tail < n_ia and n_oa ** (tail + 1) * n_ib * n_ob <= STRATEGY_CHUNK:
        tail += 1
    head = n_ia - tail
    h_tail = np.zeros((1, n_ib, n_ob))
    for ia in range(head, n_ia):
        h_tail = (h_tail[:, None] + a[ia][None]).reshape(-1, n_ib, n_ob)
    for f_head in product(range(n_oa), repeat=head):
        h = h_tail + a[np.arange(head), np.array(f_head, dtype=int)].sum(axis=0)
        m_hi = h.max(axis=2).sum(axis=1)
        m_lo = h.min(axis=2).sum(axis=1)
        bad_hi = np.abs(m_hi - 1.0) > tol
        bad = np.flatnonzero(bad_hi | (np.abs(m_lo - 1.0) > tol))
        if bad.size:
            k = int(bad[0])
            if bad_hi[k]:
                g, mass = h[k].argmax(axis=1), m_hi[k]
            else:
                g, mass = h[k].argmin(axis=1), m_lo[k]
            f = f_head + tuple(int(v) for v in np.unravel_index(k, (n_oa,) * tail))
            return {"f": f, "g": tuple(int(v) for v in g), "mass": float(mass)}
    return None


def validate_classical_process(w: ClassicalProcess, tol: float = STRATEGY_TOL) -> bool:
    return find_violating_strategy(w, tol) is None


def compose_via_classical_process(
    w: ClassicalProcess, alice: Instrument, bob: Instrument, tol: float = STRATEGY_TOL
) -> CpMap:
    """The joint map induced by a valid process; TP for all valid instruments."""
    witness = find_violating_strategy(w, tol)
    if witness is not None:
        raise ProcessValidityError(
            f"invalid process: strategies f={witness['f']}, g={witness['g']} "
            f"give mass {witness['mass']:.6g}",
            witness=witness,
        )
    return compose_ccstar(JointMapSpec(alice, bob, w.as_cond_dist()))


@dataclass(frozen=True)
class CausalDecomposition:
    """w = q * pAB + (1-q) * pBA with pAB blind to o_B and pBA blind to o_A."""

    q: float
    p_ab: CondDist  # inputs (i_A, i_B), output (o_A,)
    p_ba: CondDist  # inputs (i_A, i_B), output (o_B,)


def _uniform_dist(n_ia, n_ib, n_out) -> CondDist:
    t = np.full((n_ia, n_ib, n_out), 1.0 / (n_ia * n_ib))
    return CondDist((n_ia, n_ib), (n_out,), t)


def causal_decompose(w: ClassicalProcess, tol: float = STRATEGY_TOL) -> CausalDecomposition:
    """Split a valid process into its one-way components in closed form.

    Validity makes every (i_A, i_B) slice additively separable,
    w = x(o_A) + y(o_B), with sum_iB x independent of o_A and sum_iA y
    independent of o_B (Oreshkov, Costa, Brukner, Nat. Commun. 3, 1092
    (2012)).  x and y are fixed up to a shift c(i_A, i_B) of mass between
    them; c is the midpoint of the interval keeping both nonnegative.  Then
    x = q * pAB and y = (1-q) * pBA.
    """
    witness = find_violating_strategy(w, tol)
    if witness is not None:
        raise ProcessValidityError("cannot decompose an invalid process", witness=witness)
    n_ia, n_ib, n_oa, n_ob = w.n_ia, w.n_ib, w.n_oa, w.n_ob
    x0 = w.table[:, :, :, 0]
    y0 = w.table[:, :, 0, :] - w.table[:, :, :1, 0]
    c = 0.5 * (y0.min(axis=2) - x0.min(axis=2))[:, :, None]
    r_ab = np.clip(x0 + c, 0.0, None)
    r_ba = np.clip(y0 - c, 0.0, None)
    q = float(r_ab[:, :, 0].sum())
    q = min(max(q, 0.0), 1.0)
    if q > tol:
        p_ab = CondDist((n_ia, n_ib), (n_oa,), r_ab / r_ab.sum(axis=(0, 1), keepdims=True))
    else:
        p_ab = _uniform_dist(n_ia, n_ib, n_oa)
    if 1.0 - q > tol:
        p_ba = CondDist((n_ia, n_ib), (n_ob,), r_ba / r_ba.sum(axis=(0, 1), keepdims=True))
    else:
        p_ba = _uniform_dist(n_ia, n_ib, n_ob)
    dec = CausalDecomposition(q, p_ab, p_ba)
    err = recombination_error(dec, w)
    # A table valid only within tol recombines within a few tol, so a looser
    # tol than the default loosens this bound in proportion.
    if err > RECOMBINE_TOL * max(1.0, tol / STRATEGY_TOL):
        raise ProcessValidityError(f"decomposition recombination error {err:.3e}")
    return dec


def recombination_error(dec: CausalDecomposition, w: ClassicalProcess) -> float:
    mix = dec.q * dec.p_ab.table[:, :, :, None] + (1 - dec.q) * dec.p_ba.table[:, :, None, :]
    return float(np.max(np.abs(mix - w.table)))


def _one_way_protocol(first: Instrument, first_weights, cond, second: Instrument, lead: str):
    """One-way LOCC: the leading party measures, the other applies a TP average.

    ``first_weights[i]`` scales the leading party's input branch i;
    ``cond[i2, o2, i, o]`` averages the second party's elements for each (i, o)
    of the leader.
    """
    n_i, n_o = first.in_alphabet, first.out_alphabet
    lead_elems = {}
    for (i, o), el in first.elements.items():
        if first_weights[i] > 0.0:
            lead_elems[(0, i * n_o + o)] = el.scaled(float(first_weights[i]))
    lead_inst = Instrument(1, n_i * n_o, first.in_dim, first.out_dim, lead_elems)

    follow_elems = {}
    for i in range(n_i):
        for o in range(n_o):
            blocks = [
                np.sqrt(cond[i2, i, o]) * el.kraus
                for (i2, _), el in second.elements.items()
                if cond[i2, i, o] > 0.0
            ]
            if blocks:
                follow_elems[(i * n_o + o, 0)] = CpMap(
                    second.in_dim, second.out_dim, np.concatenate(blocks)
                )
    follow_inst = Instrument(n_i * n_o, 1, second.in_dim, second.out_dim, follow_elems)
    rounds = ((lead, lead_inst), ("B" if lead == "A" else "A", follow_inst))
    a_inst = lead_inst if lead == "A" else follow_inst
    b_inst = follow_inst if lead == "A" else lead_inst
    return LoccProtocol(rounds, a_inst.in_dim, b_inst.in_dim)


def extract_one_way_mixture(
    dec: CausalDecomposition, alice: Instrument, bob: Instrument
) -> tuple[float, LoccProtocol, LoccProtocol]:
    """Package a causal decomposition as two one-way LOCC protocols.

    The q-mixture of the two protocol compositions reproduces the processed
    joint map.  Zero-probability leading branches use a uniform conditional.
    """
    n_ia, n_ib = alice.in_alphabet, bob.in_alphabet
    n_oa, n_ob = alice.out_alphabet, bob.out_alphabet

    # A -> B branch
    p_ab = dec.p_ab.table  # (i_A, i_B, o_A)
    p_lead_a = p_ab[:, :, 0].sum(axis=1)  # independent of o_A
    cond_b = np.empty((n_ib, n_ia, n_oa))
    for ia in range(n_ia):
        for oa in range(n_oa):
            if p_lead_a[ia] > 0.0:
                cond_b[:, ia, oa] = p_ab[ia, :, oa] / p_lead_a[ia]
            else:
                cond_b[:, ia, oa] = 1.0 / n_ib
    proto_ab = _one_way_protocol(alice, p_lead_a, cond_b, bob, "A")

    # B -> A branch
    p_ba = dec.p_ba.table  # (i_A, i_B, o_B)
    p_lead_b = p_ba[:, :, 0].sum(axis=0)
    cond_a = np.empty((n_ia, n_ib, n_ob))
    for ib in range(n_ib):
        for ob in range(n_ob):
            if p_lead_b[ib] > 0.0:
                cond_a[:, ib, ob] = p_ba[:, ib, ob] / p_lead_b[ib]
            else:
                cond_a[:, ib, ob] = 1.0 / n_ia
    proto_ba = _one_way_protocol(bob, p_lead_b, cond_a, alice, "B")

    return dec.q, proto_ab, proto_ba


def classical_process_to_choi(w: ClassicalProcess) -> np.ndarray:
    """Diagonal process operator on (I_A, O_A, I_B, O_B) computational bases."""
    n = w.n_ia * w.n_oa * w.n_ib * w.n_ob
    diag = np.transpose(w.table, (0, 2, 1, 3)).reshape(n)
    return np.diag(diag).astype(np.complex128)


def _deterministic_probe(in_dim, out_dim, f) -> np.ndarray:
    """Choi of the channel measuring the input basis and preparing |f(i)>."""
    n = in_dim * out_dim
    diag = np.zeros(n)
    for i in range(in_dim):
        diag[i * out_dim + f[i]] = 1.0
    return np.diag(diag).astype(np.complex128)


def probe_quantum_process(
    matrix,
    n_ia: int,
    n_oa: int,
    n_ib: int,
    n_ob: int,
    probes: int = 20,
    seed=0,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Necessary-only probe test tr[W (M_A^T x M_B^T)] = 1 for CPTP probes.

    Runs seeded random CPTP probes plus all deterministic measure-and-prepare
    probes (capped by alphabet size).  Passing does not certify validity.
    """
    if min(n_ia, n_oa, n_ib, n_ob) < 1:
        raise DimensionError(f"alphabets must be positive, got {(n_ia, n_oa, n_ib, n_ob)}")
    m = as_matrix(matrix)
    if not is_positive_semidefinite(m, max(tol, 1e-8)):
        raise PositivityError("process operator is not PSD")
    da, db = n_ia * n_oa, n_ib * n_ob
    if m.shape != (da * db, da * db):
        raise DimensionError(f"process operator shape {m.shape} != ({da * db},{da * db})")
    w4 = m.reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    records = []

    def value(ma, mb, name):
        v = float(np.real(np.einsum("xyXY,xX,yY->", w4, ma, mb)))
        records.append({"probe": name, "value": v, "deviation": abs(v - 1.0)})

    # enough Kraus operators for a TP map from n_in to n_out dimensions
    ka = max(2, -(-n_ia // n_oa))
    kb = max(2, -(-n_ib // n_ob))
    for j in range(probes):
        ma = choi_of(random_cptp(n_ia, n_oa, ka, rng)).matrix
        mb = choi_of(random_cptp(n_ib, n_ob, kb, rng)).matrix
        value(ma, mb, f"random-{j}")
    if n_oa**n_ia * n_ob**n_ib <= 4096:  # counted before any strategy is built
        for f in product(range(n_oa), repeat=n_ia):
            for g in product(range(n_ob), repeat=n_ib):
                value(
                    _deterministic_probe(n_ia, n_oa, f),
                    _deterministic_probe(n_ib, n_ob, g),
                    f"strategy-f{f}-g{g}",
                )
    if probes < 0 or not records:
        raise ProbeCountError(f"need a nonnegative probe count and one probe at least, got {probes}")
    max_dev = max(r["deviation"] for r in records)
    return {
        "pass": max_dev <= max(tol, 1e-8),
        "max_deviation": max_dev,
        "necessary_only": True,
        "probes": records,
    }


def random_one_way_process(n_ia, n_ib, n_oa, n_ob, seed, direction="AB") -> ClassicalProcess:
    """A random one-way process: leader's input distribution plus a noisy link."""
    rng = np.random.default_rng(seed)
    t = np.zeros((n_ia, n_ib, n_oa, n_ob))
    if direction == "AB":
        p_lead = rng.dirichlet(np.ones(n_ia))
        cond = rng.dirichlet(np.ones(n_ib), size=(n_ia, n_oa))
        for ia in range(n_ia):
            for oa in range(n_oa):
                t[ia, :, oa, :] = (p_lead[ia] * cond[ia, oa])[:, None]
    elif direction == "BA":
        p_lead = rng.dirichlet(np.ones(n_ib))
        cond = rng.dirichlet(np.ones(n_ia), size=(n_ib, n_ob))
        for ib in range(n_ib):
            for ob in range(n_ob):
                t[:, ib, :, ob] = (p_lead[ib] * cond[ib, ob])[:, None]
    else:
        raise ValueError("direction must be 'AB' or 'BA'")
    return ClassicalProcess(n_ia, n_ib, n_oa, n_ob, t)


def random_process_mixture(n_ia, n_ib, n_oa, n_ob, seed) -> ClassicalProcess:
    rng = np.random.default_rng(seed)
    q = float(rng.uniform())
    w_ab = random_one_way_process(n_ia, n_ib, n_oa, n_ob, rng, "AB")
    w_ba = random_one_way_process(n_ia, n_ib, n_oa, n_ob, rng, "BA")
    return ClassicalProcess(
        n_ia, n_ib, n_oa, n_ob, q * w_ab.table + (1 - q) * w_ba.table
    )


def loop_process(n: int = 2) -> ClassicalProcess:
    """The looped link i_A = o_B, i_B = o_A; not a valid classical process."""
    t = np.zeros((n, n, n, n))
    for oa in range(n):
        for ob in range(n):
            t[ob, oa, oa, ob] = 1.0
    return ClassicalProcess(n, n, n, n, t)
