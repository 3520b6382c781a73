"""CP maps in Kraus form, quantum instruments and the Choi representation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionError,
    PositivityError,
    as_matrix,
    identity,
    is_positive_semidefinite,
    require_finite,
)


@dataclass(frozen=True)
class CpMap:
    """Completely positive map stored as one Kraus array of shape (k, out_dim, in_dim).

    ``kraus`` may be given as any sequence of out_dim x in_dim matrices or as
    such an array; k = 0 represents the zero map.
    """

    in_dim: int
    out_dim: int
    kraus: np.ndarray = ()

    def __post_init__(self):
        try:
            ops = np.asarray(self.kraus, dtype=np.complex128)
        except ValueError:  # matrices of unequal shapes
            raise DimensionError("Kraus operators do not share one shape") from None
        if ops.shape == (0,):
            ops = ops.reshape(0, self.out_dim, self.in_dim)
        if ops.ndim != 3 or ops.shape[1:] != (self.out_dim, self.in_dim):
            raise DimensionError(
                f"Kraus array shape {ops.shape} != (k,{self.out_dim},{self.in_dim})"
            )
        object.__setattr__(self, "kraus", require_finite(ops))

    def kraus_gram(self) -> np.ndarray:
        """Sum of K^dag K; the identity iff the map is trace preserving."""
        v = self.kraus.reshape(-1, self.in_dim)  # the operators stacked row-wise
        return require_finite(v.conj().T @ v)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.all(np.linalg.norm(self.kraus, axis=(1, 2)) <= tol))

    def scaled(self, factor: float) -> "CpMap":
        """The map multiplied by a nonnegative scalar."""
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        ops = self.kraus[:0] if factor == 0 else np.sqrt(factor) * self.kraus
        return CpMap(self.in_dim, self.out_dim, ops)

    def then(self, other: "CpMap") -> "CpMap":
        """Composition other(self(rho)); quantum wires must chain."""
        if other.in_dim != self.out_dim:
            raise DimensionError(
                f"cannot chain maps: {self.out_dim} -> {other.in_dim}"
            )
        ops = other.kraus[None, :] @ self.kraus[:, None]  # [j, k] = K2_k @ K1_j
        return CpMap(self.in_dim, other.out_dim, ops.reshape(-1, other.out_dim, self.in_dim))

    def __add__(self, other: "CpMap") -> "CpMap":
        if (self.in_dim, self.out_dim) != (other.in_dim, other.out_dim):
            raise DimensionError("cannot add maps of different shapes")
        return CpMap(self.in_dim, self.out_dim, np.concatenate([self.kraus, other.kraus]))


def identity_map(dim: int) -> CpMap:
    return CpMap(dim, dim, (identity(dim),))


def tensor_map(a: CpMap, b: CpMap) -> CpMap:
    """The product map a (x) b on the joint system; operator (j, k) is kron(A_j, B_k)."""
    ops = np.einsum("jac,kbd->jkabcd", a.kraus, b.kraus)
    shape = (-1, a.out_dim * b.out_dim, a.in_dim * b.in_dim)
    return CpMap(a.in_dim * b.in_dim, a.out_dim * b.out_dim, ops.reshape(shape))


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
    return (cp.kraus @ rho @ cp.kraus.conj().transpose(0, 2, 1)).sum(axis=0)


def choi_of(cp: CpMap) -> ChoiOperator:
    """Choi operator sum_{k,l} |k><l| (x) map(|k><l|), subsystem order (in, out)."""
    n = cp.in_dim * cp.out_dim
    v = cp.kraus.transpose(0, 2, 1).reshape(-1, n)  # v[k, i*out + o] = K_k[o, i]
    return ChoiOperator(cp.in_dim, cp.out_dim, v.T @ v.conj())


def kraus_from_choi(choi: ChoiOperator, tol: float = 1e-10) -> CpMap:
    """Kraus decomposition from the eigenvectors of a PSD Choi operator."""
    m = choi.matrix
    if not is_positive_semidefinite(m, max(tol, DEFAULT_TOL)):
        raise PositivityError("Choi operator is not PSD within tolerance")
    w, v = np.linalg.eigh(m)
    keep = w > tol * max(float(w[-1]) if w.size else 0.0, 1.0)
    vecs = np.sqrt(w[keep]) * v[:, keep]  # column k is sqrt(lam_k) * v_k
    ops = vecs.T.reshape(-1, choi.in_dim, choi.out_dim).transpose(0, 2, 1)
    return CpMap(choi.in_dim, choi.out_dim, ops)


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
            if len(cp.kraus):
                elems[(i, o)] = cp
        object.__setattr__(self, "elements", elems)

    def element(self, i: int, o: int) -> CpMap:
        return self.elements.get((i, o), CpMap(self.in_dim, self.out_dim, ()))

    def kraus_table(self) -> tuple:
        """Every element's Kraus operators in one (k, out, in) array, and their (i, o) as (k, 2)."""
        maps = self.elements.values()
        ops = np.concatenate([CpMap(self.in_dim, self.out_dim).kraus, *(el.kraus for el in maps)])
        keys = np.array(list(self.elements), dtype=int).reshape(-1, 2)
        return ops, np.repeat(keys, [len(el.kraus) for el in maps], axis=0)

    def by_input(self) -> dict:
        """Nonzero elements grouped by input symbol, as lists of (output, CpMap)."""
        rows = {}
        for (i, o), el in self.elements.items():
            rows.setdefault(i, []).append((o, el))
        return rows


def validate_instrument(inst: Instrument, tol: float = DEFAULT_TOL) -> bool:
    """Every input's elements sum, by concatenation, to a trace-preserving map."""
    rows = inst.by_input().values()
    sums = (np.concatenate([el.kraus for _, el in row]) for row in rows)
    return len(rows) == inst.in_alphabet and all(
        is_trace_preserving(CpMap(inst.in_dim, inst.out_dim, ops), tol) for ops in sums
    )


def complementary_map(cp: CpMap, tol: float = DEFAULT_TOL) -> CpMap:
    """A CP trace-nonincreasing map completing ``cp`` to a TP map.

    The completion measures the defect D = I - sum K^dag K and sends everything
    to the first computational basis state of the output space.
    """
    defect = identity(cp.in_dim) - cp.kraus_gram()
    w, v = np.linalg.eigh((defect + defect.conj().T) / 2)
    if w.size and float(w[0]) < -tol * max(1, cp.in_dim):
        raise PositivityError("map is not trace-nonincreasing")
    keep = w > 1e-12 * max(1.0, float(w[-1]) if w.size else 0.0)
    ops = np.zeros((int(keep.sum()), cp.out_dim, cp.in_dim), dtype=np.complex128)
    ops[:, 0, :] = (np.sqrt(w[keep]) * v[:, keep]).conj().T  # sqrt(lam) |0><v|
    return CpMap(cp.in_dim, cp.out_dim, ops)


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
    return CpMap(in_dim, out_dim, q.reshape(kraus_count, out_dim, in_dim))


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
        total = random_cptp(in_dim, out_dim, out_alphabet * kraus_count, rng).kraus
        for o, ops in enumerate(total.reshape(out_alphabet, kraus_count, out_dim, in_dim)):
            elements[(i, o)] = CpMap(in_dim, out_dim, ops)
    return Instrument(in_alphabet, out_alphabet, in_dim, out_dim, elements)
