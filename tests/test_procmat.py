import os
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_channels.channels import (
    choi_of,
    choi_distance,
    is_trace_preserving,
    random_cptp,
    random_instrument,
    tensor_map,
    validate_instrument,
)
from causal_channels.composition import JointMapSpec, compose_locc_protocol, is_locc_star_member
from causal_channels.procmat import (
    ClassicalProcess,
    ProbeCountError,
    ProcessValidityError,
    causal_decompose,
    classical_process_to_choi,
    compose_via_classical_process,
    extract_one_way_mixture,
    find_violating_strategy,
    loop_process,
    probe_quantum_process,
    random_one_way_process,
    random_process_mixture,
    recombination_error,
    validate_classical_process,
)


def _copy_process():
    """i_A pinned to 0, i_B copies o_A."""
    t = np.zeros((2, 2, 2, 2))
    for oa in range(2):
        for ob in range(2):
            t[0, oa, oa, ob] = 1.0
    return ClassicalProcess(2, 2, 2, 2, t)


def test_one_way_copy_process_is_valid():
    assert validate_classical_process(_copy_process())


def test_loop_process_is_invalid_with_witness():
    witness = find_violating_strategy(loop_process(2))
    assert witness is not None
    f, g = witness["f"], witness["g"]
    w = loop_process(2)
    s = sum(w.table[ia, ib, f[ia], g[ib]] for ia in range(2) for ib in range(2))
    assert abs(s - 1.0) > 1e-6


def test_mixtures_of_one_way_processes_are_valid():
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = random_process_mixture(2, 3, 2, 2, rng)
        assert validate_classical_process(w)


def test_negative_entries_rejected():
    t = np.zeros((2, 2, 2, 2))
    t[0, 0] = 1.0
    t[0, 0, 0, 0] = -0.5
    with pytest.raises(ProcessValidityError):
        ClassicalProcess(2, 2, 2, 2, t)


def test_composition_via_valid_process_is_tp():
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = random_process_mixture(2, 2, 2, 2, rng)
        alice = random_instrument(2, 2, 2, 2, 1, rng)
        bob = random_instrument(2, 2, 2, 2, 1, rng)
        joint = compose_via_classical_process(w, alice, bob)
        assert is_trace_preserving(joint)
        assert is_locc_star_member(JointMapSpec(alice, bob, w.as_cond_dist()))


def test_composition_rejects_invalid_processes():
    rng = np.random.default_rng(2)
    alice = random_instrument(2, 2, 2, 2, 1, rng)
    bob = random_instrument(2, 2, 2, 2, 1, rng)
    with pytest.raises(ProcessValidityError):
        compose_via_classical_process(loop_process(2), alice, bob)


def test_trivial_alphabets_give_the_product_map():
    rng = np.random.default_rng(3)
    alice = random_instrument(1, 1, 2, 2, 2, rng)
    bob = random_instrument(1, 1, 2, 2, 2, rng)
    w = ClassicalProcess(1, 1, 1, 1, np.ones((1, 1, 1, 1)))
    joint = compose_via_classical_process(w, alice, bob)
    want = tensor_map(alice.element(0, 0), bob.element(0, 0))
    assert choi_distance(joint, want) < 1e-12


def test_decompose_pure_one_way():
    dec = causal_decompose(_copy_process())
    assert abs(dec.q - 1.0) < 1e-7
    assert recombination_error(dec, _copy_process()) < 1e-9


def test_decompose_half_half_mixture():
    t_ab = _copy_process().table
    t_ba = np.zeros((2, 2, 2, 2))
    for oa in range(2):
        for ob in range(2):
            t_ba[ob, 0, oa, ob] = 1.0  # i_B pinned to 0, i_A copies o_B
    w = ClassicalProcess(2, 2, 2, 2, 0.5 * t_ab + 0.5 * t_ba)
    dec = causal_decompose(w)
    assert recombination_error(dec, w) < 1e-9
    assert 0.0 < dec.q < 1.0


def test_decompose_rejects_invalid():
    with pytest.raises(ProcessValidityError):
        causal_decompose(loop_process(2))


def test_random_mixture_decompositions_recombine():
    rng = np.random.default_rng(4)
    for _ in range(10):
        sizes = tuple(int(v) for v in rng.integers(2, 4, size=4))
        w = random_process_mixture(*sizes, rng)
        dec = causal_decompose(w)
        assert recombination_error(dec, w) <= 1e-7


def test_one_way_mixture_reproduces_direct_composition():
    rng = np.random.default_rng(5)
    w = random_process_mixture(2, 2, 2, 2, rng)
    alice = random_instrument(2, 2, 2, 2, 1, rng)
    bob = random_instrument(2, 2, 2, 2, 1, rng)
    direct = compose_via_classical_process(w, alice, bob)
    q, p_ab, p_ba = extract_one_way_mixture(causal_decompose(w), alice, bob)
    mix = q * choi_of(compose_locc_protocol(p_ab)).matrix + (1 - q) * choi_of(
        compose_locc_protocol(p_ba)
    ).matrix
    assert np.linalg.norm(mix - choi_of(direct).matrix) < 1e-8


def test_q_one_case_matches_one_way_composition():
    rng = np.random.default_rng(6)
    w = _copy_process()
    alice = random_instrument(2, 2, 2, 2, 1, rng)
    bob = random_instrument(2, 2, 2, 2, 1, rng)
    q, p_ab, _ = extract_one_way_mixture(causal_decompose(w), alice, bob)
    assert abs(q - 1.0) < 1e-7
    direct = compose_via_classical_process(w, alice, bob)
    assert choi_distance(compose_locc_protocol(p_ab), direct) < 1e-8


def test_diagonal_embedding_roundtrip():
    rng = np.random.default_rng(7)
    w = random_process_mixture(2, 2, 2, 2, rng)
    m = classical_process_to_choi(w)
    # diagonal on (I_A, O_A, I_B, O_B) computational bases
    assert np.array_equal(m, np.diag(np.diag(m)))
    back = np.real(np.diag(m)).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    assert np.allclose(back, w.table, atol=1e-12)


def test_probe_valid_process_passes():
    rng = np.random.default_rng(8)
    w = random_process_mixture(2, 2, 2, 2, rng)
    report = probe_quantum_process(classical_process_to_choi(w), 2, 2, 2, 2, probes=5, seed=0)
    assert report["pass"] and report["necessary_only"]
    assert report["max_deviation"] <= 1e-8


def test_probe_loop_process_fails_on_a_structured_probe():
    report = probe_quantum_process(classical_process_to_choi(loop_process(2)), 2, 2, 2, 2, probes=3, seed=0)
    assert not report["pass"]
    structured = [r for r in report["probes"] if r["probe"].startswith("strategy")]
    assert max(r["deviation"] for r in structured) > 0.5


def test_probe_zero_operator():
    report = probe_quantum_process(np.zeros((16, 16)), 2, 2, 2, 2, probes=2, seed=0)
    assert not report["pass"]
    assert abs(report["max_deviation"] - 1.0) < 1e-12


def test_probe_counts_strategy_pairs_before_listing_them():
    from test_composition import _peak_mb

    # (16, 2, 1, 1) has 2**16 strategy pairs, over the 4 096-pair cap; listing
    # them before the cap held 65 536 tuples, about 12 MB, for no probe at all.
    w = np.eye(32) / 16
    report, peak = _peak_mb(lambda: probe_quantum_process(w, 16, 2, 1, 1, probes=2, seed=0))
    assert peak < 2.0
    assert [r["probe"] for r in report["probes"]] == ["random-0", "random-1"]


def test_seeded_generators_are_reproducible():
    w1 = random_one_way_process(2, 2, 2, 2, 99, "BA")
    w2 = random_one_way_process(2, 2, 2, 2, 99, "BA")
    assert np.array_equal(w1.table, w2.table)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 2, 3)])
def test_probe_values_match_the_kronecker_trace(dims):
    n_ia, n_oa, n_ib, n_ob = dims
    d = n_ia * n_oa * n_ib * n_ob
    rng = np.random.default_rng(9)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    w *= n_oa * n_ob / np.trace(w).real
    report = probe_quantum_process(w, n_ia, n_oa, n_ib, n_ob, probes=4, seed=3)

    # reference: tr[W (M_A^T x M_B^T)] on the same seeded probes, in report order
    probe_rng = np.random.default_rng(3)
    pairs = [
        (
            choi_of(random_cptp(n_ia, n_oa, 2, probe_rng)).matrix,
            choi_of(random_cptp(n_ib, n_ob, 2, probe_rng)).matrix,
        )
        for _ in range(4)
    ]
    for f in product(range(n_oa), repeat=n_ia):
        for g_ in product(range(n_ob), repeat=n_ib):
            ma = np.diag([1.0 if o == f[i] else 0.0 for i in range(n_ia) for o in range(n_oa)])
            mb = np.diag([1.0 if o == g_[i] else 0.0 for i in range(n_ib) for o in range(n_ob)])
            pairs.append((ma, mb))
    assert len(report["probes"]) == len(pairs)
    for rec, (ma, mb) in zip(report["probes"], pairs):
        want = float(np.real(np.trace(w @ np.kron(ma.T, mb.T))))
        assert abs(rec["value"] - want) <= 1e-12


def test_probe_count_errors_come_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the probe count was checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr("causal_channels.procmat.choi_of", refuse)
    over_cap = np.ones((32, 32)) / 32  # PSD but not diagonal; (16, 2, 1, 1) has 2**16 pairs
    under_cap = np.ones((16, 16)) / 16
    for w, dims, probes in ((over_cap, (16, 2, 1, 1), 0), (over_cap, (16, 2, 1, 1), -1),
                            (under_cap, (2, 2, 2, 2), -1)):
        with pytest.raises(ProbeCountError):
            probe_quantum_process(w, *dims, probes=probes, seed=0)


def _reference_probe(w, n_ia, n_oa, n_ib, n_ob, probes, seed, tol):
    """The per-probe loop: one three-operand einsum per random or deterministic probe."""
    w4 = w.reshape(n_ia * n_oa, n_ib * n_ob, n_ia * n_oa, n_ib * n_ob)
    rng = np.random.default_rng(seed)
    records = []

    def value(ma, mb, name):
        v = float(np.real(np.einsum("xyXY,xX,yY->", w4, ma, mb)))
        records.append({"probe": name, "value": v, "deviation": abs(v - 1.0)})

    def deterministic(n_in, n_out, f):
        return np.diag([1.0 if o == f[i] else 0.0 for i in range(n_in) for o in range(n_out)])

    ka, kb = max(2, -(-n_ia // n_oa)), max(2, -(-n_ib // n_ob))
    for j in range(probes):
        ma = choi_of(random_cptp(n_ia, n_oa, ka, rng)).matrix
        mb = choi_of(random_cptp(n_ib, n_ob, kb, rng)).matrix
        value(ma, mb, f"random-{j}")
    for f in product(range(n_oa), repeat=n_ia):
        for g in product(range(n_ob), repeat=n_ib):
            value(deterministic(n_ia, n_oa, f), deterministic(n_ib, n_ob, g), f"strategy-f{f}-g{g}")
    max_dev = max(r["deviation"] for r in records)
    return {"pass": max_dev <= max(tol, 1e-8), "max_deviation": max_dev, "probes": records}


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(1, 3)] * 4), st.integers(0, 4),
       st.sampled_from(["raw", "valid", "perturbed"]), st.integers(0, 2**31 - 1))
def test_batched_probes_match_the_per_probe_loop(sizes, probes, kind, seed):
    n_ia, n_oa, n_ib, n_ob = sizes
    rng = np.random.default_rng(seed)
    if kind == "raw":  # a PSD operator with nonzeros off the diagonal
        d = n_ia * n_oa * n_ib * n_ob
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = g @ g.conj().T
        w *= n_oa * n_ob / np.trace(w).real
    else:  # a classical table's diagonal operator, valid or not
        w = classical_process_to_choi(random_process_mixture(n_ia, n_ib, n_oa, n_ob, rng))
        if kind == "perturbed":
            k = int(rng.integers(len(w)))
            w[k, k] += rng.uniform(0.0, 0.5)
    got = probe_quantum_process(w, n_ia, n_oa, n_ib, n_ob, probes=probes, seed=seed)
    want = _reference_probe(w, n_ia, n_oa, n_ib, n_ob, probes, seed, 1e-9)
    assert [r["probe"] for r in got["probes"]] == [r["probe"] for r in want["probes"]]
    for rec, ref in zip(got["probes"], want["probes"]):
        assert list(rec) == ["probe", "value", "deviation"]
        assert abs(rec["value"] - ref["value"]) <= 1e-12
        assert abs(rec["deviation"] - ref["deviation"]) <= 1e-12
    assert got["pass"] == want["pass"]
    assert abs(got["max_deviation"] - want["max_deviation"]) <= 1e-12


def _brute_force_first_violation(t, tol):
    """First f (in product order) with some g breaking unit mass, and all its masses."""
    n_ia, n_ib, n_oa, n_ob = t.shape
    for f in product(range(n_oa), repeat=n_ia):
        masses = {
            g: sum(float(t[ia, ib, f[ia], g[ib]]) for ia in range(n_ia) for ib in range(n_ib))
            for g in product(range(n_ob), repeat=n_ib)
        }
        if any(abs(m - 1.0) > tol for m in masses.values()):
            return f, masses
    return None


def _loop_mixed(sizes, lam, rng):
    n_ia, n_ib, n_oa, n_ob = sizes
    loop = np.zeros(sizes)
    for oa in range(n_oa):
        for ob in range(n_ob):
            loop[ob % n_ia, oa % n_ib, oa, ob] = 1.0  # i_A copies o_B, i_B copies o_A
    return lam * loop + (1 - lam) * random_process_mixture(*sizes, rng).table


def _perturbed(table, eps, rng):
    """Move eps of mass between two cells of one (o_A, o_B) column."""
    t = table.copy()
    n_ia, n_ib, n_oa, n_ob = t.shape
    col = t[:, :, int(rng.integers(n_oa)), int(rng.integers(n_ob))]
    src = np.unravel_index(int(col.argmax()), col.shape)
    cells = [c for c in product(range(n_ia), range(n_ib)) if c != src]
    if cells:
        col[src] -= eps
        col[cells[int(rng.integers(len(cells)))]] += eps
    return t


sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import oracle  # noqa: E402
from dict_reference import elements  # noqa: E402

alphabets = st.tuples(*[st.integers(1, 3)] * 4)

@settings(max_examples=80, deadline=None)
@given(alphabets, st.sampled_from(["valid", "loop", "0.5tol", "5tol"]), st.integers(0, 2**31 - 1))
def test_strategy_search_matches_pair_enumeration(sizes, kind, seed):
    tol = 1e-9
    rng = np.random.default_rng(seed)
    if kind == "loop":
        table = _loop_mixed(sizes, float(rng.uniform(0.3, 1.0)), rng)
    else:
        table = random_process_mixture(*sizes, rng).table
        if kind != "valid":
            table = _perturbed(table, float(kind[:-3]) * tol, rng)
    w = ClassicalProcess(*sizes, table)
    expected = _brute_force_first_violation(w.table, tol)
    witness = find_violating_strategy(w, tol)
    assert (witness is None) == (expected is None)
    if witness is not None:
        f, masses = expected
        assert witness["f"] == f
        assert abs(witness["mass"] - masses[witness["g"]]) <= 1e-12
        assert abs(witness["mass"] - 1.0) > tol
        extremes = (max(masses.values()), min(masses.values()))
        assert min(abs(witness["mass"] - m) for m in extremes) <= 1e-12

@settings(max_examples=80, deadline=None)
@given(alphabets, st.sampled_from(["mixture", "AB", "BA"]), st.integers(0, 2**31 - 1))
def test_closed_form_decomposition_is_a_one_way_mixture(sizes, kind, seed):
    if kind == "mixture":
        w = random_process_mixture(*sizes, seed)
    else:
        w = random_one_way_process(*sizes, seed, kind)
    dec = causal_decompose(w)
    p_ab, p_ba = dec.p_ab.table, dec.p_ba.table
    assert 0.0 <= dec.q <= 1.0
    assert p_ab.min() >= 0.0 and p_ba.min() >= 0.0
    assert np.allclose(p_ab.sum(axis=(0, 1)), 1.0, atol=1e-12, rtol=0)
    assert np.allclose(p_ba.sum(axis=(0, 1)), 1.0, atol=1e-12, rtol=0)
    lead_a = p_ab.sum(axis=1)  # (i_A, o_A): must not depend on o_A
    lead_b = p_ba.sum(axis=0)  # (i_B, o_B): must not depend on o_B
    assert np.allclose(lead_a, lead_a[:, :1], atol=1e-12, rtol=0)
    assert np.allclose(lead_b, lead_b[:, :1], atol=1e-12, rtol=0)
    assert recombination_error(dec, w) <= 1e-12

def _one_way_table(n_lead, n_follow, n_out_lead, rng):
    """p(i_lead) p(i_follow | i_lead, o_lead) as axes (i_lead, i_follow, o_lead).

    Some leader symbols have probability zero, so the mixture's uniform
    fallback conditionals are exercised.
    """
    p_lead = rng.dirichlet(np.ones(n_lead)) * (rng.random(n_lead) < 0.6)
    p_lead[rng.integers(n_lead)] += 0.2
    p_lead /= p_lead.sum()
    cond = rng.dirichlet(np.ones(n_follow), size=(n_lead, n_out_lead))  # (i_l, o_l, i_f)
    return p_lead[:, None, None] * cond.transpose(0, 2, 1)

def _oracle_inst(inst):
    return {"n_in": inst.in_alphabet, "n_out": inst.out_alphabet, "din": inst.in_dim,
            "dout": inst.out_dim,
            "elems": {key: list(el.kraus) for key, el in elements(inst).items()}}

@settings(max_examples=40, deadline=None)
@given(alphabets, st.sampled_from([0.0, 1.0, None]), st.integers(0, 2**31 - 1))
def test_one_way_mixture_matches_the_link_product(sizes, q, seed):
    # Differential test against the plain-numpy link products of the
    # benchmark oracle, which shares no code with the library.
    rng = np.random.default_rng(seed)
    n_ia, n_ib, n_oa, n_ob = sizes
    q = float(rng.uniform()) if q is None else q
    t_ab = _one_way_table(n_ia, n_ib, n_oa, rng)[:, :, :, None]
    t_ba = _one_way_table(n_ib, n_ia, n_ob, rng).transpose(1, 0, 2)[:, :, None, :]
    w = ClassicalProcess(*sizes, q * t_ab + (1 - q) * t_ba)
    alice = random_instrument(n_ia, n_oa, 2, 2, 1, rng)
    bob = random_instrument(n_ib, n_ob, 2, 2, 1, rng)
    q_dec, proto_ab, proto_ba = extract_one_way_mixture(causal_decompose(w), alice, bob)
    got = sum(
        weight * oracle.protocol_choi(
            [(party, _oracle_inst(inst)) for party, inst in proto.rounds], 2, 2
        )
        for weight, proto in ((q_dec, proto_ab), (1 - q_dec, proto_ba))
    )
    want = oracle.wired_choi(_oracle_inst(alice), _oracle_inst(bob), w.table)
    assert np.abs(got - want).max() < 1e-10
    # the uniform fallbacks keep every round an instrument
    assert all(validate_instrument(inst) for p in (proto_ab, proto_ba) for _, inst in p.rounds)
