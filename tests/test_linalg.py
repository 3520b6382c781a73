import numpy as np
import pytest

from causal_channels.linalg import (
    DimensionError,
    PositivityError,
    as_matrix,
    basis_ket,
    identity,
    is_hermitian,
    is_positive_semidefinite,
    ket_bra,
)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_psd_checks():
    rng = np.random.default_rng(4)
    h = random_hermitian(4, rng)
    psd = h @ h.conj().T + 1e-3 * identity(4)
    assert is_positive_semidefinite(psd)
    assert not is_positive_semidefinite(psd - 100 * identity(4))
    with pytest.raises(PositivityError):
        is_positive_semidefinite(np.array([[0, 1], [0, 0]], dtype=complex))


def test_basis_and_ket_bra():
    k = basis_ket(3, 1)
    assert k.shape == (3, 1) and k[1, 0] == 1
    proj = ket_bra(k, k)
    assert np.allclose(proj, np.diag([0, 1, 0]))
    assert np.allclose(proj.conj().T, proj)


def test_shape_errors():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    assert is_hermitian(np.eye(2))
    assert not is_hermitian(np.array([[0, 1], [2, 0]]))
