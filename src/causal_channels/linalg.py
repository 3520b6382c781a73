"""Dense complex linear algebra used throughout the package.

Matrices are plain ``numpy`` complex128 arrays.  Composite systems are
described by a tuple of subsystem dimensions (a "dim profile"); the leftmost
subsystem is the most significant index in the computational basis.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


class DimensionError(ValueError):
    """Shapes or dim profiles do not match."""


class PositivityError(ValueError):
    """A matrix required to be PSD (or Hermitian) is not."""


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def check_profile(m: np.ndarray, dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionError(f"subsystem dimensions must be >= 1, got {dims}")
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise DimensionError(f"profile {dims} implies shape ({n},{n}), got {m.shape}")
    return dims


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with subsystem order (a, b)."""
    return np.kron(as_matrix(a), as_matrix(b))


def tensor_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, as_matrix(m))
    return out


def partial_trace(m, dims, traced) -> np.ndarray:
    """Trace out the subsystems listed in ``traced`` (indices into ``dims``)."""
    m = as_matrix(m)
    dims = check_profile(m, dims)
    traced = sorted(set(int(t) for t in traced))
    if any(t < 0 or t >= len(dims) for t in traced):
        raise DimensionError(f"traced subsystems {traced} out of range for {dims}")
    t = m.reshape(dims + dims)
    n = len(dims)
    for offset, s in enumerate(traced):
        k = s - offset  # axes shift left after each trace
        t = np.trace(t, axis1=k, axis2=k + (n - offset))
    kept = int(np.prod([d for i, d in enumerate(dims) if i not in traced]))
    return t.reshape(kept, kept)


def partial_transpose(m, dims, transposed) -> np.ndarray:
    """Transpose only the subsystems listed in ``transposed``."""
    m = as_matrix(m)
    dims = check_profile(m, dims)
    transposed = set(int(t) for t in transposed)
    if any(t < 0 or t >= len(dims) for t in transposed):
        raise DimensionError(f"transposed subsystems {transposed} out of range for {dims}")
    n = len(dims)
    t = m.reshape(dims + dims)
    perm = list(range(2 * n))
    for s in transposed:
        perm[s], perm[s + n] = perm[s + n], perm[s]
    return t.transpose(perm).reshape(m.shape)


def dagger(m) -> np.ndarray:
    return as_matrix(m).conj().T


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m - m.conj().T)) <= tol * max(1, m.shape[0])


def is_positive_semidefinite(m, tol: float = DEFAULT_TOL) -> bool:
    """PSD check via the Hermitian eigensolver.

    Raises ``PositivityError`` if the input is not Hermitian within tol.
    """
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise PositivityError("input is not Hermitian within tolerance")
    if m.shape[0] == 0:
        return True
    return float(np.min(np.linalg.eigvalsh(m))) >= -tol


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Square root of a PSD matrix, small negative eigenvalues clipped to 0."""
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise PositivityError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    if w.size and float(w[0]) < -tol * max(1.0, float(w[-1]), 1.0):
        raise PositivityError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def distance(a, b) -> float:
    """Frobenius distance between two same-shaped matrices."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def basis_ket(dim: int, k: int) -> np.ndarray:
    v = np.zeros((dim, 1), dtype=np.complex128)
    v[k, 0] = 1.0
    return v


def ket_bra(ket: np.ndarray, bra_ket: np.ndarray) -> np.ndarray:
    """|ket><bra_ket| for column vectors."""
    return ket @ bra_ket.conj().T
