"""Separable operations, the loop-form compiler, and the nine-state example.

``sep_to_locc_star`` checks that a separable map is trace preserving and then
compiles it through the one separable -> loop path of ``composition``
(``normalize_terms``, then ``sep_table_instruments``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CpMap,
    Instrument,
    apply_cp_map,
    is_trace_preserving,
    key_join,
    tensor_map,
)
from .composition import compose_loop, normalize_terms, sep_table_instruments
from .linalg import DEFAULT_TOL, DimensionError, basis_ket, ket_bra


class MembershipError(ValueError):
    """The given data does not represent a member of the claimed class."""


@dataclass(frozen=True)
class SepMap:
    """A joint map written as a sum of products of CP factor pairs."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((ea, eb) for ea, eb in self.terms)
        if not terms:
            raise ValueError("a separable map needs at least one term")
        a0, b0 = terms[0]
        for ea, eb in terms[1:]:
            if (ea.in_dim, ea.out_dim) != (a0.in_dim, a0.out_dim):
                raise DimensionError("Alice factors have inconsistent dims")
            if (eb.in_dim, eb.out_dim) != (b0.in_dim, b0.out_dim):
                raise DimensionError("Bob factors have inconsistent dims")
        object.__setattr__(self, "terms", terms)

    def joint_map(self) -> CpMap:
        a0, b0 = self.terms[0]
        kraus = np.concatenate([tensor_map(ea, eb).kraus for ea, eb in self.terms])
        return CpMap(a0.in_dim * b0.in_dim, a0.out_dim * b0.out_dim, kraus)


def validate_sep(m: SepMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff the summed joint map is trace preserving (factors are CP by form)."""
    return is_trace_preserving(m.joint_map(), tol)


def sep_to_locc_star(m: SepMap, tol: float = DEFAULT_TOL) -> tuple[Instrument, Instrument]:
    """Compile a separable TP map into a loop-form instrument pair."""
    if not validate_sep(m, max(tol, 1e-7)):
        raise MembershipError("the summed joint map is not trace preserving")
    return sep_table_instruments(normalize_terms(m.terms), tol)


def locc_star_to_sep(alice: Instrument, bob: Instrument, tol: float = DEFAULT_TOL) -> SepMap:
    """Flatten a loop-form pair into separable terms, dropping zero products."""
    joint = compose_loop(alice, bob)
    if not is_trace_preserving(joint, max(tol, 1e-7)):
        raise MembershipError("loop composition is not trace preserving")
    sa, a_lo, a_hi = _nonzero_elements(alice)
    sb, b_lo, b_hi = _nonzero_elements(bob)
    b_sym, a_sym = np.divmod(sa, alice.out_alphabet)  # Alice's (b, a) reads Bob's (a, b)
    ja, jb = key_join(a_sym * bob.out_alphabet + b_sym, sb)
    return SepMap(tuple(
        (CpMap(alice.in_dim, alice.out_dim, alice.ops[a_lo[x]:a_hi[x]]),
         CpMap(bob.in_dim, bob.out_dim, bob.ops[b_lo[y]:b_hi[y]]))
        for x, y in zip(ja.tolist(), jb.tolist())
    ))


def _nonzero_elements(inst: Instrument) -> tuple:
    """Slot and operator range of each element with an operator of norm above DEFAULT_TOL."""
    slots = inst.slots()
    live = np.unique(slots[np.linalg.norm(inst.ops, axis=(1, 2)) > DEFAULT_TOL])
    return live, np.searchsorted(slots, live), np.searchsorted(slots, live, "right")


def _plus_minus(a: int, b: int, sign: int) -> np.ndarray:
    """(|a> + sign*|b>)/sqrt(2) on a three-level system."""
    return (basis_ket(3, a) + sign * basis_ket(3, b)) / np.sqrt(2)


def nine_state_kets():
    """The nine mutually orthogonal product states on two three-level systems."""
    plus01, minus01 = _plus_minus(0, 1, 1), _plus_minus(0, 1, -1)
    plus12, minus12 = _plus_minus(1, 2, 1), _plus_minus(1, 2, -1)
    e = [basis_ket(3, j) for j in range(3)]
    pairs = [
        (e[0], plus01),
        (e[0], minus01),
        (plus01, e[2]),
        (minus01, e[2]),
        (e[2], plus12),
        (e[2], minus12),
        (plus12, e[0]),
        (minus12, e[0]),
        (e[1], e[1]),
    ]
    return [np.kron(a, b) for a, b in pairs]


def nine_state_fixture():
    """Projectors onto the nine states plus the two discriminating instruments.

    Output labels are 0-based: joint label k on the 9-dim output systems marks
    state k+1 in the conventional 1..9 numbering.
    """
    kets = nine_state_kets()
    states = [ket_bra(k, k) for k in kets]

    plus01, minus01 = _plus_minus(0, 1, 1), _plus_minus(0, 1, -1)
    plus12, minus12 = _plus_minus(1, 2, 1), _plus_minus(1, 2, -1)
    e3 = [basis_ket(3, j) for j in range(3)]
    e9 = [basis_ket(9, j) for j in range(9)]

    def kr(out_label_1based, bra):
        return CpMap(3, 9, (ket_bra(e9[out_label_1based - 1], bra),))

    # Rows are the loop symbol a, columns the loop symbol b (both 0-based).
    alice_table = [
        [kr(1, e3[0]), kr(2, e3[0]), kr(3, plus01)],
        [kr(8, minus12), kr(9, e3[1]), kr(4, minus01)],
        [kr(7, plus12), kr(6, e3[2]), kr(5, e3[2])],
    ]
    bob_table = [
        [kr(1, plus01), kr(2, minus01), kr(3, e3[2])],
        [kr(8, e3[0]), kr(9, e3[1]), kr(4, e3[2])],
        [kr(7, e3[0]), kr(6, minus12), kr(5, plus12)],
    ]
    alice_elems = {}
    bob_elems = {}
    for a in range(3):
        for b in range(3):
            alice_elems[(b, a)] = alice_table[a][b]  # Alice conditions on b
            bob_elems[(a, b)] = bob_table[a][b]  # Bob conditions on a
    alice = Instrument.from_elements(3, 3, 3, 9, alice_elems)
    bob = Instrument.from_elements(3, 3, 3, 9, bob_elems)
    return states, alice, bob


def nine_state_sep_map() -> SepMap:
    """The nine-term separable discriminator |k><psi_k| split into local factors."""
    kets = nine_state_kets()
    e9 = [basis_ket(9, j) for j in range(9)]
    terms = []
    for k, ket in enumerate(kets):
        # psi_k = phi_A (x) phi_B; recover the local factors from the product form
        phi = ket.reshape(3, 3)
        u, s, vh = np.linalg.svd(phi)
        a_part = u[:, 0:1] * s[0]
        b_part = vh[0:1, :].T
        terms.append(
            (
                CpMap(3, 9, (ket_bra(e9[k], a_part),)),
                CpMap(3, 9, (ket_bra(e9[k], b_part),)),
            )
        )
    return SepMap(tuple(terms))


def verify_nine_state_discrimination(tol: float = DEFAULT_TOL) -> dict:
    """Check that the loop pair maps each state projector to its labeled output."""
    states, alice, bob = nine_state_fixture()
    joint = compose_loop(alice, bob)
    records = []
    ok = True
    for k, rho in enumerate(states):
        out = apply_cp_map(joint, rho)
        target_ket = np.kron(basis_ket(9, k), basis_ket(9, k))
        target = ket_bra(target_ket, target_ket)
        dist = float(np.linalg.norm(out - target))
        fid = float(np.real((target_ket.conj().T @ out @ target_ket)[0, 0]))
        passed = dist <= tol
        ok = ok and passed
        records.append(
            {"state": k + 1, "output_fidelity": fid, "distance": dist, "pass": passed}
        )
    return {"pass": ok, "states": records, "trace_preserving": is_trace_preserving(joint, tol)}
