import numpy as np
import pytest

from causal_channels.channels import (
    CpMap,
    Instrument,
    apply_cp_map,
    choi_distance,
    choi_of,
    complementary_map,
    identity_map,
    is_trace_preserving,
    kraus_from_choi,
    random_cptp,
    random_instrument,
    tensor_map,
    tp_defect,
    validate_instrument,
)
from causal_channels.linalg import DimensionError, basis_ket, identity, is_positive_semidefinite


def random_state(dim, rng):
    v = rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def test_identity_map_acts_trivially():
    rng = np.random.default_rng(0)
    rho = random_state(3, rng)
    assert np.allclose(apply_cp_map(identity_map(3), rho), rho)


def test_random_cptp_is_trace_preserving():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d_in, d_out = (int(v) for v in rng.integers(1, 5, size=2))
        kc = max(1, -(-d_in // d_out))
        cp = random_cptp(d_in, d_out, kc, rng)
        assert is_trace_preserving(cp)
        rho = random_state(d_in, rng)
        out = apply_cp_map(cp, rho)
        assert np.isclose(np.trace(out), 1.0)


def test_choi_application_matches_kraus_application():
    rng = np.random.default_rng(2)
    cp = random_cptp(3, 2, 2, rng)
    choi = choi_of(cp)
    rho = random_state(3, rng)
    # map(rho) = tr_in[C (rho^T (x) I)], with C[i*out + o, j*out + p] = map(|i><j|)[o, p]
    via_choi = np.einsum("iojp,ij->op", choi.matrix.reshape(3, 2, 3, 2), rho)
    assert np.allclose(via_choi, apply_cp_map(cp, rho), atol=1e-12)


def test_choi_kraus_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cp = random_cptp(3, 3, 2, rng)
        back = kraus_from_choi(choi_of(cp))
        assert choi_distance(cp, back) < 1e-9


def test_composition_and_tensor():
    rng = np.random.default_rng(4)
    f = random_cptp(2, 3, 1, rng)
    g = random_cptp(3, 2, 2, rng)
    rho = random_state(2, rng)
    chained = f.then(g)
    assert np.allclose(apply_cp_map(chained, rho), apply_cp_map(g, apply_cp_map(f, rho)))
    prod = tensor_map(f, g)
    assert (prod.in_dim, prod.out_dim) == (6, 6)
    with pytest.raises(DimensionError):
        g.then(g)


def test_scaling_and_zero_map():
    cp = identity_map(2)
    half = cp.scaled(0.5)
    rho = np.eye(2, dtype=complex) / 2
    assert np.isclose(np.trace(apply_cp_map(half, rho)), 0.5)
    zero = cp.scaled(0.0)
    assert zero.is_zero()
    with pytest.raises(ValueError):
        cp.scaled(-1.0)


def test_instrument_validation():
    rng = np.random.default_rng(5)
    inst = random_instrument(2, 3, 2, 2, 1, rng)
    assert validate_instrument(inst)
    # dropping an element breaks trace preservation for its input symbol
    elems = dict(inst.elements)
    elems.pop(next(iter(elems)))
    broken = Instrument(2, 3, 2, 2, elems)
    assert not validate_instrument(broken)


def test_complementary_map_completes_to_tp():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cp = random_cptp(3, 2, 3, rng)
        td = CpMap(3, 2, cp.kraus[:2])
        assert is_positive_semidefinite(identity(3) - td.kraus_gram())
        comp = complementary_map(td)
        assert tp_defect(td + comp) < 1e-9
    # completing a TP map adds nothing
    assert complementary_map(identity_map(2)).is_zero()


def test_choi_subsystem_ordering():
    # the Choi operator of the identity is the unnormalized maximally entangled state
    choi = choi_of(identity_map(2)).matrix
    v = sum(np.kron(basis_ket(2, k), basis_ket(2, k)) for k in range(2))
    assert np.allclose(choi, v @ v.conj().T)


def test_kraus_shape_errors():
    with pytest.raises(DimensionError):
        CpMap(2, 2, (np.zeros((3, 2)),))
    with pytest.raises(DimensionError):
        Instrument(1, 1, 2, 2, {(0, 0): identity_map(3)})
    with pytest.raises(DimensionError):
        Instrument(1, 1, 2, 2, {(0, 1): identity_map(2)})


def test_random_seed_reproducibility():
    a = random_cptp(3, 3, 2, 42)
    b = random_cptp(3, 3, 2, 42)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    assert identity(2).dtype == np.complex128
