import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from causal_channels.linalg import (
    DimensionError,
    NonFiniteError,
    as_matrix,
    basis_ket,
    identity,
    is_positive_semidefinite,
)


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


# Per-operator loop kernels, the references for the array kernels of CpMap.

def ref_kraus_gram(cp):
    g = np.zeros((cp.in_dim, cp.in_dim), dtype=np.complex128)
    for k in cp.kraus:
        g += k.conj().T @ k
    return g


def ref_choi_of(cp):
    n = cp.in_dim * cp.out_dim
    m = np.zeros((n, n), dtype=np.complex128)
    for k in cp.kraus:
        v = k.T.reshape(n, 1)  # v[i*out + o] = K[o, i]
        m += v @ v.conj().T
    return m


def ref_then(f, g):
    return [k2 @ k1 for k1 in f.kraus for k2 in g.kraus]


def ref_tensor_map(a, b):
    return [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]


def ref_apply_cp_map(cp, rho):
    out = np.zeros((cp.out_dim, cp.out_dim), dtype=np.complex128)
    for k in cp.kraus:
        out += k @ rho @ k.conj().T
    return out


def ref_kraus_from_choi(choi, tol=1e-10):
    w, v = np.linalg.eigh(choi.matrix)
    cutoff = tol * max(float(w[-1]) if w.size else 0.0, 1.0)
    return [
        np.sqrt(lam) * vec.reshape(choi.in_dim, choi.out_dim).T
        for lam, vec in zip(w, v.T)
        if lam > cutoff
    ]


def _random_map(rng, in_dim, out_dim, count):
    shape = (count, out_dim, in_dim)
    return CpMap(in_dim, out_dim, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _same_ops(got, want):
    want = np.asarray(want, dtype=np.complex128).reshape(-1, *got.shape[1:])
    return got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 4)] * 3),
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_kernels_match_the_per_operator_loops(dims, counts, seed):
    # k = 0 is the zero map; the loops then add nothing to their zero start
    rng = np.random.default_rng(seed)
    d_in, d_mid, d_out = dims
    f = _random_map(rng, d_in, d_mid, counts[0])
    g = _random_map(rng, d_mid, d_out, counts[1])
    rho = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
    for cp in (f, g):
        assert cp.kraus.shape == (len(cp.kraus), cp.out_dim, cp.in_dim)
        assert np.allclose(cp.kraus_gram(), ref_kraus_gram(cp), rtol=0, atol=1e-12)
        choi = choi_of(cp)
        assert np.allclose(choi.matrix, ref_choi_of(cp), rtol=0, atol=1e-12)
        assert _same_ops(kraus_from_choi(choi).kraus, ref_kraus_from_choi(choi))
    assert np.allclose(apply_cp_map(f, rho), ref_apply_cp_map(f, rho), rtol=0, atol=1e-12)
    assert _same_ops(f.then(g).kraus, ref_then(f, g))
    assert _same_ops(tensor_map(f, g).kraus, ref_tensor_map(f, g))


def test_cp_map_holds_one_kraus_array():
    ops = [np.eye(2), np.diag([1.0, -1.0])]
    for given_ops in (tuple(ops), ops, np.array(ops)):
        cp = CpMap(2, 2, given_ops)
        assert cp.kraus.shape == (2, 2, 2) and cp.kraus.dtype == np.complex128
        assert np.array_equal(cp.kraus, np.array(ops))
    for zero in (CpMap(2, 3), CpMap(2, 3, ()), CpMap(2, 3, []), CpMap(2, 3, np.zeros((0, 3, 2)))):
        assert zero.kraus.shape == (0, 3, 2) and zero.is_zero()
    a, b = CpMap(2, 2, ops[:1]), CpMap(2, 2, ops[1:])
    assert np.array_equal((a + b).kraus, np.array(ops))  # a sum concatenates, never adds entries
    assert len((a + CpMap(2, 2)).kraus) == 1


@pytest.mark.parametrize("ops", [
    np.zeros((1, 3, 2)),  # wrong operator shape
    np.zeros((2, 2)),  # one matrix, not a stack of them
    [np.zeros((2, 2)), np.zeros((3, 2))],  # operators of unequal shapes
])
def test_cp_map_rejects_wrong_shapes(ops):
    with pytest.raises(DimensionError):
        CpMap(2, 2, ops)


def test_non_finite_entries_raise_their_own_error():
    for value in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(NonFiniteError):
            CpMap(1, 1, [[[value]]])
        with pytest.raises(NonFiniteError):
            as_matrix([[value]])
    # finite entries whose products overflow fail the same check
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        CpMap(1, 1, [[[1e200]]]).kraus_gram()
