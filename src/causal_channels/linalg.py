"""Dense complex linear algebra used throughout the package.

Matrices are plain ``numpy`` complex128 arrays.  On a composite system the
leftmost subsystem is the most significant index in the computational basis,
as ``numpy.kron`` orders it.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


class DimensionError(ValueError):
    """Shapes or dim profiles do not match."""


class PositivityError(ValueError):
    """A matrix required to be PSD (or Hermitian) is not."""


class NonFiniteError(ValueError):
    """An input, or a product computed from one, holds NaN or infinite entries."""


def require_finite(a: np.ndarray) -> np.ndarray:
    """The one finiteness check: ``a`` itself, or ``NonFiniteError``."""
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    return require_finite(a)


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m - m.conj().T)) <= tol * max(1, m.shape[0])


def is_positive_semidefinite(m, tol: float = DEFAULT_TOL) -> bool:
    """PSD check via the Hermitian eigensolver, or the diagonal of a diagonal matrix.

    Raises ``PositivityError`` if the input is not Hermitian within tol.
    """
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise PositivityError("input is not Hermitian within tolerance")
    if m.shape[0] == 0:
        return True
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag):
        return float(np.min(diag.real)) >= -tol
    return float(np.min(np.linalg.eigvalsh(m))) >= -tol


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def basis_ket(dim: int, k: int) -> np.ndarray:
    v = np.zeros((dim, 1), dtype=np.complex128)
    v[k, 0] = 1.0
    return v


def ket_bra(ket: np.ndarray, bra_ket: np.ndarray) -> np.ndarray:
    """|ket><bra_ket| for column vectors."""
    return ket @ bra_ket.conj().T
