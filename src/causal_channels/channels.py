"""CP maps in Kraus form, quantum instruments and the Choi representation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionError,
    PositivityError,
    as_matrix,
    basis_ket,
    identity,
    is_positive_semidefinite,
)


@dataclass(frozen=True)
class CpMap:
    """Completely positive map stored as Kraus operators (out_dim x in_dim).

    An empty Kraus list represents the zero map.
    """

    in_dim: int
    out_dim: int
    kraus: tuple = ()

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.kraus)
        for k in ops:
            if k.shape != (self.out_dim, self.in_dim):
                raise DimensionError(
                    f"Kraus operator shape {k.shape} != ({self.out_dim},{self.in_dim})"
                )
        object.__setattr__(self, "kraus", ops)

    def kraus_gram(self) -> np.ndarray:
        """Sum of K^dag K; the identity iff the map is trace preserving."""
        g = np.zeros((self.in_dim, self.in_dim), dtype=np.complex128)
        for k in self.kraus:
            g += k.conj().T @ k
        return g

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(float(np.linalg.norm(k)) <= tol for k in self.kraus)

    def scaled(self, factor: float) -> "CpMap":
        """The map multiplied by a nonnegative scalar."""
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if factor == 0:
            return CpMap(self.in_dim, self.out_dim, ())
        s = np.sqrt(factor)
        return CpMap(self.in_dim, self.out_dim, tuple(s * k for k in self.kraus))

    def then(self, other: "CpMap") -> "CpMap":
        """Composition other(self(rho)); quantum wires must chain."""
        if other.in_dim != self.out_dim:
            raise DimensionError(
                f"cannot chain maps: {self.out_dim} -> {other.in_dim}"
            )
        ops = tuple(k2 @ k1 for k1 in self.kraus for k2 in other.kraus)
        return CpMap(self.in_dim, other.out_dim, ops)

    def __add__(self, other: "CpMap") -> "CpMap":
        if (self.in_dim, self.out_dim) != (other.in_dim, other.out_dim):
            raise DimensionError("cannot add maps of different shapes")
        return CpMap(self.in_dim, self.out_dim, self.kraus + other.kraus)


def identity_map(dim: int) -> CpMap:
    return CpMap(dim, dim, (identity(dim),))


def tensor_map(a: CpMap, b: CpMap) -> CpMap:
    """The product map a (x) b on the joint system."""
    ops = tuple(np.kron(ka, kb) for ka in a.kraus for kb in b.kraus)
    return CpMap(a.in_dim * b.in_dim, a.out_dim * b.out_dim, ops)


@dataclass(frozen=True)
class ChoiOperator:
    in_dim: int
    out_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        n = self.in_dim * self.out_dim
        if m.shape != (n, n):
            raise DimensionError(f"Choi matrix shape {m.shape} != ({n},{n})")
        object.__setattr__(self, "matrix", m)


def apply_cp_map(cp: CpMap, rho) -> np.ndarray:
    rho = as_matrix(rho)
    if rho.shape != (cp.in_dim, cp.in_dim):
        raise DimensionError(f"state shape {rho.shape} != ({cp.in_dim},{cp.in_dim})")
    out = np.zeros((cp.out_dim, cp.out_dim), dtype=np.complex128)
    for k in cp.kraus:
        out += k @ rho @ k.conj().T
    return out


def choi_of(cp: CpMap) -> ChoiOperator:
    """Choi operator sum_{k,l} |k><l| (x) map(|k><l|), subsystem order (in, out)."""
    n = cp.in_dim * cp.out_dim
    m = np.zeros((n, n), dtype=np.complex128)
    for k in cp.kraus:
        v = k.T.reshape(n, 1)  # v[i*out + o] = K[o, i]
        m += v @ v.conj().T
    return ChoiOperator(cp.in_dim, cp.out_dim, m)


def kraus_from_choi(choi: ChoiOperator, tol: float = 1e-10) -> CpMap:
    """Kraus decomposition from the eigenvectors of a PSD Choi operator."""
    m = choi.matrix
    if not is_positive_semidefinite(m, max(tol, DEFAULT_TOL)):
        raise PositivityError("Choi operator is not PSD within tolerance")
    w, v = np.linalg.eigh(m)
    cutoff = tol * max(float(w[-1]) if w.size else 0.0, 1.0)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > cutoff:
            ops.append(np.sqrt(lam) * vec.reshape(choi.in_dim, choi.out_dim).T)
    return CpMap(choi.in_dim, choi.out_dim, tuple(ops))


def choi_distance(a: CpMap, b: CpMap) -> float:
    return float(np.linalg.norm(choi_of(a).matrix - choi_of(b).matrix))


def is_trace_preserving(cp: CpMap, tol: float = DEFAULT_TOL) -> bool:
    return float(np.linalg.norm(cp.kraus_gram() - identity(cp.in_dim))) <= tol


def tp_defect(cp: CpMap) -> float:
    """Frobenius norm of (sum K^dag K - identity)."""
    return float(np.linalg.norm(cp.kraus_gram() - identity(cp.in_dim)))


@dataclass(frozen=True)
class Instrument:
    """Classical-input-conditioned family of CP maps indexed by classical output.

    ``elements`` maps (input symbol, output symbol) to a CpMap; missing pairs
    are zero maps.  For every input the output-sum must be trace preserving.
    """

    in_alphabet: int
    out_alphabet: int
    in_dim: int
    out_dim: int
    elements: dict = field(default_factory=dict)

    def __post_init__(self):
        elems = {}
        for (i, o), cp in self.elements.items():
            if not (0 <= i < self.in_alphabet and 0 <= o < self.out_alphabet):
                raise DimensionError(f"element index ({i},{o}) outside alphabets")
            if (cp.in_dim, cp.out_dim) != (self.in_dim, self.out_dim):
                raise DimensionError(
                    f"element ({i},{o}) has dims ({cp.in_dim},{cp.out_dim}), "
                    f"expected ({self.in_dim},{self.out_dim})"
                )
            if cp.kraus:
                elems[(i, o)] = cp
        object.__setattr__(self, "elements", elems)

    def element(self, i: int, o: int) -> CpMap:
        return self.elements.get((i, o), CpMap(self.in_dim, self.out_dim, ()))

    def by_input(self) -> dict:
        """Nonzero elements grouped by input symbol, as lists of (output, CpMap)."""
        rows = {}
        for (i, o), el in self.elements.items():
            rows.setdefault(i, []).append((o, el))
        return rows


def validate_instrument(inst: Instrument, tol: float = DEFAULT_TOL) -> bool:
    grams = {}
    for (i, _), cp in inst.elements.items():
        grams[i] = grams.get(i, 0) + cp.kraus_gram()
    eye = identity(inst.in_dim)
    for i in range(inst.in_alphabet):
        g = grams.get(i)
        if g is None or float(np.linalg.norm(g - eye)) > tol:
            return False
    return True


def complementary_map(cp: CpMap, tol: float = DEFAULT_TOL) -> CpMap:
    """A CP trace-nonincreasing map completing ``cp`` to a TP map.

    The completion measures the defect D = I - sum K^dag K and sends everything
    to the first computational basis state of the output space.
    """
    defect = identity(cp.in_dim) - cp.kraus_gram()
    w, v = np.linalg.eigh((defect + defect.conj().T) / 2)
    if w.size and float(w[0]) < -tol * max(1, cp.in_dim):
        raise PositivityError("map is not trace-nonincreasing")
    phi = basis_ket(cp.out_dim, 0)
    cutoff = 1e-12 * max(1.0, float(w[-1]) if w.size else 0.0)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > cutoff:
            ops.append(np.sqrt(lam) * (phi @ vec.conj().reshape(1, cp.in_dim)))
    return CpMap(cp.in_dim, cp.out_dim, tuple(ops))


def random_cptp(in_dim: int, out_dim: int, kraus_count: int, seed) -> CpMap:
    """Seeded random CPTP map via QR-orthonormalized Gaussian Kraus stack."""
    if in_dim < 1 or out_dim < 1 or kraus_count < 1:
        raise ValueError("dims and kraus_count must be positive")
    if out_dim * kraus_count < in_dim:
        raise ValueError("out_dim * kraus_count must be >= in_dim for a TP map")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((out_dim * kraus_count, in_dim)) + 1j * rng.standard_normal(
        (out_dim * kraus_count, in_dim)
    )
    q, _ = np.linalg.qr(g)  # columns orthonormal: stack^dag stack = identity
    ops = tuple(q[j * out_dim : (j + 1) * out_dim, :] for j in range(kraus_count))
    return CpMap(in_dim, out_dim, ops)


def random_instrument(
    in_alphabet: int,
    out_alphabet: int,
    in_dim: int,
    out_dim: int,
    kraus_count: int,
    seed,
) -> Instrument:
    """Seeded random instrument; the output-sum per input is TP by construction."""
    rng = np.random.default_rng(seed)
    elements = {}
    for i in range(in_alphabet):
        total = random_cptp(in_dim, out_dim, out_alphabet * kraus_count, rng)
        for o in range(out_alphabet):
            ops = total.kraus[o * kraus_count : (o + 1) * kraus_count]
            elements[(i, o)] = CpMap(in_dim, out_dim, ops)
    return Instrument(in_alphabet, out_alphabet, in_dim, out_dim, elements)
