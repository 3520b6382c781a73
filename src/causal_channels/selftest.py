"""End-to-end verification suite exercising every pipeline on seeded fixtures.

Each criterion function returns a report dict with a pass flag and per-check
records; ``run_all`` aggregates them.  The CLI ``selftest`` subcommand and the
acceptance tests both call into this module.
"""

from __future__ import annotations

import math
import time
from itertools import product

import numpy as np

from .channels import (
    CpMap,
    choi_of,
    choi_distance,
    random_cptp,
    random_instrument,
    tensor_map,
    tp_defect,
    validate_instrument,
)
from .composition import (
    CondDist,
    JointMapSpec,
    LoccProtocol,
    compose_ccstar,
    compose_locc_protocol,
    compose_loop,
    compose_wired,
    delta_wiring,
    slocc_star_decompose,
    to_loop_form,
)
from .causal import (
    AggregateWiring,
    CausalOrder,
    OpLabel,
    all_orders,
    find_causal_violation,
    protocol_to_wired_form,
    reconstruct_locc,
    respects_causal_order,
)
from .procmat import (
    ClassicalProcess,
    ProcessValidityError,
    causal_decompose,
    compose_via_classical_process,
    extract_one_way_mixture,
    find_violating_strategy,
    loop_process,
    random_one_way_process,
    random_process_mixture,
    recombination_error,
    validate_classical_process,
)
from .sep import (
    SepMap,
    locc_star_to_sep,
    nine_state_fixture,
    sep_to_locc_star,
    verify_nine_state_discrimination,
)
from .simplex import InfeasibleError, solve_feasibility


def _check(name, value, threshold):
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(value <= threshold)}


def _flag(name, ok):
    return {"name": name, "value": 0.0 if ok else 1.0, "threshold": 0.5, "pass": bool(ok)}


def _finish(name, checks, start):
    return {
        "name": name,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "duration": time.monotonic() - start,
    }


def _instrument(n_in, n_out, d_in, d_out, rng):
    kc = max(1, -(-d_in // (n_out * d_out)))
    return random_instrument(n_in, n_out, d_in, d_out, kc, rng)


def criterion_nine_state(tol: float = 1e-9) -> dict:
    """Two three-symbol loop instruments label all nine orthogonal product states."""
    start = time.monotonic()
    report = verify_nine_state_discrimination(tol)
    _, alice, bob = nine_state_fixture()
    worst = max(r["distance"] for r in report["states"])
    checks = [
        _check("max-state-labeling-distance", worst, tol),
        _flag("joint-map-trace-preserving", report["trace_preserving"]),
        _flag(
            "instruments-valid-1e-12",
            validate_instrument(alice, 1e-12) and validate_instrument(bob, 1e-12),
        ),
    ]
    return _finish("nine-state-discrimination", checks, start)


def criterion_loop_form(seed: int = 1, tol: float = 1e-8) -> dict:
    """Every wired trace-preserving pair rewrites into an equivalent loop pair."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_tp = 0.0
    valid = True
    for _ in range(20):
        n_ia, n_ib, n_oa, n_ob = (int(v) for v in rng.integers(1, 4, size=4))
        a_in, a_out, b_in, b_out = (int(v) for v in rng.integers(1, 4, size=4))
        alice = _instrument(n_ia, n_oa, a_in, a_out, rng)
        bob = _instrument(n_ib, n_ob, b_in, b_out, rng)
        w = random_process_mixture(n_ia, n_ib, n_oa, n_ob, rng)
        spec = JointMapSpec(alice, bob, w.as_cond_dist())
        direct = compose_ccstar(spec)
        worst_tp = max(worst_tp, tp_defect(direct))
        la, lb = to_loop_form(spec)
        valid = valid and validate_instrument(la) and validate_instrument(lb)
        worst = max(worst, choi_distance(compose_loop(la, lb), direct))
    checks = [
        _check("max-loop-rewrite-choi-distance", worst, tol),
        _check("max-direct-composition-tp-defect", worst_tp, 1e-9),
        _flag("loop-instruments-valid", valid),
    ]
    return _finish("loop-form-rewrite", checks, start)


def criterion_sep_compile(seed: int = 2, tol: float = 1e-8) -> dict:
    """Separable maps compile to loop instrument pairs and back without loss."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    worst_fwd = 0.0
    worst_back = 0.0
    valid = True
    for _ in range(20):
        big_k = int(rng.integers(1, 5))
        a_in, a_out, b_in, b_out = (int(v) for v in rng.integers(1, 4, size=4))
        alice = _instrument(1, big_k, a_in, a_out, rng)
        kc = max(1, -(-b_in // b_out))
        bob_maps = [random_cptp(b_in, b_out, kc, rng) for _ in range(big_k)]
        m = SepMap(tuple((alice.element(0, k), bob_maps[k]) for k in range(big_k)))
        la, lb = sep_to_locc_star(m)
        valid = valid and validate_instrument(la) and validate_instrument(lb)
        target = m.joint_map()
        worst_fwd = max(worst_fwd, choi_distance(compose_loop(la, lb), target))
        back = locc_star_to_sep(la, lb)
        worst_back = max(worst_back, choi_distance(back.joint_map(), target))
    checks = [
        _check("max-compiled-loop-choi-distance", worst_fwd, tol),
        _check("max-roundtrip-choi-distance", worst_back, tol),
        _flag("compiled-instruments-valid", valid),
    ]
    return _finish("separable-compilation", checks, start)


def criterion_rescaling(seed: int = 3, tol: float = 1e-8) -> dict:
    """Unnormalized separable-form CP maps rescale into loop instrument pairs."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    worst = 0.0
    scales_ok = True
    for _ in range(10):
        big_k = int(rng.integers(1, 4))
        a_in, a_out, b_in, b_out = (int(v) for v in rng.integers(1, 4, size=4))
        terms = []
        for _ in range(big_k):
            kc_a = max(1, -(-a_in // a_out))
            kc_b = max(1, -(-b_in // b_out))
            ea = random_cptp(a_in, a_out, kc_a, rng).scaled(float(rng.uniform(0.2, 3.0)))
            eb = random_cptp(b_in, b_out, kc_b, rng).scaled(float(rng.uniform(0.2, 3.0)))
            terms.append((ea, eb))
        # independent oracle: smallest integer M with every gram norm <= M
        oracle = max(
            1,
            math.ceil(
                max(float(np.max(np.linalg.eigvalsh(ea.kraus_gram()))) for ea, _ in terms) - 1e-12
            ),
        )
        scale, alice, bob = slocc_star_decompose(terms)
        scales_ok = scales_ok and scale == oracle
        target = None
        for ea, eb in terms:
            t = tensor_map(ea, eb)
            target = t if target is None else target + t
        worst = max(worst, choi_distance(compose_loop(alice, bob), target))
    checks = [
        _check("max-recombination-choi-distance", worst, tol),
        _flag("scale-matches-gram-norm-ceiling", scales_ok),
    ]
    return _finish("rescaling-decomposition", checks, start)


def _random_protocol(parties, rng) -> LoccProtocol:
    qdim = {"A": 2, "B": 2}
    prev_out = 1
    rounds = []
    for p in parties:
        out_alph = int(rng.integers(2, 4))
        inst = _instrument(prev_out, out_alph, qdim[p], 2, rng)
        qdim[p] = 2
        rounds.append((p, inst))
        prev_out = out_alph
    return LoccProtocol(tuple(rounds), 2, 2)


def _bsc_fixture(rng):
    alice_rounds = [_instrument(1, 2, 2, 2, rng)]
    bob_rounds = [_instrument(2, 2, 2, 2, rng)]
    table = np.zeros((1, 2, 2, 2))
    for i_b in range(2):
        for o_a in range(2):
            for o_b in range(2):
                table[0, i_b, o_a, o_b] = 0.8 if i_b == o_a else 0.2
    wiring = AggregateWiring(1, 1, CondDist((1, 2), (2, 2), table))
    order = CausalOrder(1, 1, frozenset({(OpLabel("A", 1), OpLabel("B", 1))}))
    return alice_rounds, bob_rounds, wiring, order


def _memoryful_fixture(rng):
    alice_rounds = [_instrument(1, 2, 2, 2, rng), _instrument(2, 2, 2, 2, rng)]
    bob_rounds = [_instrument(2, 2, 2, 2, rng), _instrument(2, 2, 2, 2, rng)]
    table = np.zeros((1, 2, 2, 2, 2, 2, 2, 2))  # (iA1,iA2,iB1,iB2, oA1,oA2,oB1,oB2)
    for o_a1, o_a2, o_b1, o_b2 in product(range(2), repeat=4):
        for i_b2 in range(2):
            pr = 0.8 if i_b2 == o_a1 ^ o_b1 else 0.2
            table[0, o_a1, o_a2, i_b2, o_a1, o_a2, o_b1, o_b2] = pr
    wiring = AggregateWiring(2, 2, CondDist((1, 2, 2, 2), (2, 2, 2, 2), table))
    order = CausalOrder(2, 2, frozenset({(OpLabel("A", 2), OpLabel("B", 1))}))
    return alice_rounds, bob_rounds, wiring, order


def _alternates(protocol: LoccProtocol) -> bool:
    parties = [p for p, _ in protocol.rounds]
    return all(parties[k] != parties[k + 1] for k in range(len(parties) - 1))


def criterion_causal_reconstruction(seed: int = 4, tol: float = 1e-8) -> dict:
    """Order-respecting wirings reduce to alternating round-by-round protocols."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    checks = []

    # (a) standard protocols respect their own total order
    respects = True
    worst_delta = 0.0
    alternating = True
    for parties in (["A", "B"], ["B", "A"], ["A", "B", "A", "B"], ["B", "A", "B", "A"]):
        p = _random_protocol(parties, rng)
        ar, br, wiring, order = protocol_to_wired_form(p)
        respects = respects and respects_causal_order(wiring, order)
        rebuilt = reconstruct_locc(ar, br, wiring, order)
        alternating = alternating and _alternates(rebuilt)
        worst_delta = max(
            worst_delta,
            choi_distance(compose_locc_protocol(rebuilt), compose_locc_protocol(p)),
        )
    checks.append(_flag("protocol-wirings-respect-order", respects))
    checks.append(_check("max-deterministic-rebuild-choi-distance", worst_delta, tol))

    # (b) noisy and memoryful order-respecting wirings
    worst_noisy = 0.0
    for fixture in (_bsc_fixture(rng), _memoryful_fixture(rng)):
        ar, br, wiring, order = fixture
        if not respects_causal_order(wiring, order):
            checks.append(_flag("noisy-wiring-respects-order", False))
            continue
        rebuilt = reconstruct_locc(ar, br, wiring, order)
        alternating = alternating and _alternates(rebuilt)
        worst_noisy = max(
            worst_noisy,
            choi_distance(compose_locc_protocol(rebuilt), compose_wired(ar, br, wiring.dist)),
        )
    checks.append(_check("max-noisy-rebuild-choi-distance", worst_noisy, tol))
    checks.append(_flag("rebuilt-protocols-alternate", alternating))

    # (c) the loop wiring violates every strict partial order on one round/party
    loop_dist = delta_wiring((2, 2), (2, 2), (1, 0))
    loop_w = AggregateWiring(1, 1, loop_dist)
    all_fail = True
    n_orders = 0
    for order in all_orders(1, 1):
        n_orders += 1
        all_fail = all_fail and find_causal_violation(loop_w, order) is not None
    checks.append(_flag("loop-wiring-fails-every-order", all_fail and n_orders == 3))
    return _finish("causal-reconstruction", checks, start)


def _brute_force_valid(w: ClassicalProcess, tol: float = 1e-9) -> bool:
    """Independent strategy enumeration used to cross-check validation."""
    for f in product(range(w.n_oa), repeat=w.n_ia):
        for g in product(range(w.n_ob), repeat=w.n_ib):
            s = sum(
                float(w.table[ia, ib, f[ia], g[ib]])
                for ia in range(w.n_ia)
                for ib in range(w.n_ib)
            )
            if abs(s - 1.0) > tol:
                return False
    return True


def _lp_decomposable(w: ClassicalProcess) -> bool:
    """Independent oracle: is w = rAB + rBA feasible by LP with one-way marginals?

    rAB(i_A, i_B, o_A) and rBA(i_A, i_B, o_B) are nonnegative, sum_iB rAB is
    independent of o_A and sum_iA rBA is independent of o_B.
    """
    n_ia, n_ib, n_oa, n_ob = w.n_ia, w.n_ib, w.n_oa, w.n_ob
    n_ab = n_ia * n_ib * n_oa
    n_ba = n_ia * n_ib * n_ob

    def ab(ia, ib, oa):
        return (ia * n_ib + ib) * n_oa + oa

    def ba(ia, ib, ob):
        return n_ab + (ia * n_ib + ib) * n_ob + ob

    rows = []
    rhs = []
    for ia, ib, oa, ob in product(range(n_ia), range(n_ib), range(n_oa), range(n_ob)):
        row = np.zeros(n_ab + n_ba)
        row[ab(ia, ib, oa)] = 1.0
        row[ba(ia, ib, ob)] = 1.0
        rows.append(row)
        rhs.append(w.table[ia, ib, oa, ob])
    for ia in range(n_ia):
        for oa in range(1, n_oa):
            row = np.zeros(n_ab + n_ba)
            for ib in range(n_ib):
                row[ab(ia, ib, oa)] += 1.0
                row[ab(ia, ib, 0)] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    for ib in range(n_ib):
        for ob in range(1, n_ob):
            row = np.zeros(n_ab + n_ba)
            for ia in range(n_ia):
                row[ba(ia, ib, ob)] += 1.0
                row[ba(ia, ib, 0)] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    try:
        solve_feasibility(np.array(rows), np.array(rhs))
    except InfeasibleError:
        return False
    return True


def _decomposes(w: ClassicalProcess) -> bool:
    try:
        causal_decompose(w)
    except ProcessValidityError:
        return False
    return True


def _degenerate_branch_process() -> ClassicalProcess:
    """A one-way process whose second leader symbol never occurs."""
    t = np.zeros((2, 2, 2, 2))
    for oa in range(2):
        for ob in range(2):
            t[0, oa, oa, ob] = 1.0  # i_A = 0 always, i_B copies o_A
    return ClassicalProcess(2, 2, 2, 2, t)


def criterion_process_decomposition(seed: int = 5) -> dict:
    """Valid classical processes split into one-way mixtures that recompose."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    checks = []

    # (a) validation agrees with brute-force strategy enumeration
    agree = True
    expected_ok = True
    for j in range(20):
        sizes = tuple(int(v) for v in rng.integers(2, 4, size=4))
        w = random_process_mixture(*sizes, rng)
        v = validate_classical_process(w)
        agree = agree and v == _brute_force_valid(w)
        expected_ok = expected_ok and v
    for j in range(20):
        sizes = tuple(int(v) for v in rng.integers(2, 4, size=4))
        base = loop_process(2)
        filler = random_process_mixture(2, 2, 2, 2, rng)
        lam = float(rng.uniform(0.3, 1.0))
        bad = ClassicalProcess(2, 2, 2, 2, lam * base.table + (1 - lam) * filler.table)
        v = validate_classical_process(bad)
        agree = agree and v == _brute_force_valid(bad)
        expected_ok = expected_ok and not v
    checks.append(_flag("validation-matches-brute-force", agree))
    checks.append(_flag("validation-truth-values-as-expected", expected_ok))

    # (b) mixtures of one-way processes decompose with small recombination error
    worst_recomb = 0.0
    for j in range(50):
        sizes = tuple(int(v) for v in rng.integers(2, 5, size=4))
        w = random_process_mixture(*sizes, rng)
        dec = causal_decompose(w)
        worst_recomb = max(worst_recomb, recombination_error(dec, w))
    checks.append(_check("max-recombination-error", worst_recomb, 1e-7))

    # (c) the packaged one-way mixture reproduces the direct composition
    worst_mix = 0.0
    fixtures = [random_process_mixture(2, 3, 2, 2, rng) for _ in range(8)]
    fixtures.append(random_one_way_process(2, 2, 2, 2, rng, "AB"))
    fixtures.append(_degenerate_branch_process())
    for w in fixtures:
        alice = _instrument(w.n_ia, w.n_oa, 2, 2, rng)
        bob = _instrument(w.n_ib, w.n_ob, 2, 2, rng)
        direct = compose_via_classical_process(w, alice, bob)
        q, proto_ab, proto_ba = extract_one_way_mixture(causal_decompose(w), alice, bob)
        mix = q * choi_of(compose_locc_protocol(proto_ab)).matrix + (1 - q) * choi_of(
            compose_locc_protocol(proto_ba)
        ).matrix
        worst_mix = max(worst_mix, float(np.linalg.norm(mix - choi_of(direct).matrix)))
    checks.append(_check("max-one-way-mixture-choi-distance", worst_mix, 1e-8))

    # (d) the loop process fails with an explicit strategy witness
    witness = find_violating_strategy(loop_process(2))
    checks.append(_flag("loop-process-witnessed-invalid", witness is not None))

    # (e) the closed-form decomposition succeeds exactly when the LP is feasible
    lp_agree = True
    for j in range(10):
        if j % 2:
            n = int(rng.integers(2, 4))
            lam = float(rng.uniform(0.3, 1.0))
            filler = random_process_mixture(n, n, n, n, rng)
            w = ClassicalProcess(n, n, n, n, lam * loop_process(n).table + (1 - lam) * filler.table)
        else:
            w = random_process_mixture(*(int(v) for v in rng.integers(2, 4, size=4)), rng)
        lp_agree = lp_agree and _lp_decomposable(w) == _decomposes(w)
    checks.append(_flag("decomposition-matches-lp-feasibility", lp_agree))
    return _finish("process-decomposition", checks, start)


def criterion_channel_kernel(seed: int = 6) -> dict:
    """Choi/Kraus conversions and trace-preserving completions are tight."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    from .channels import kraus_from_choi

    worst_rt = 0.0
    for _ in range(50):
        d_in, d_out = (int(v) for v in rng.integers(1, 5, size=2))
        kc = max(1, -(-d_in // d_out)) + int(rng.integers(0, 2))
        cp = random_cptp(d_in, d_out, kc, rng)
        c = choi_of(cp)
        back = kraus_from_choi(c)
        worst_rt = max(worst_rt, float(np.linalg.norm(choi_of(back).matrix - c.matrix)))

    from .channels import complementary_map

    worst_tp = 0.0
    for j in range(20):
        d_in, d_out = (int(v) for v in rng.integers(1, 5, size=2))
        kc = max(2, -(-d_in // d_out))
        cp = random_cptp(d_in, d_out, kc, rng)
        if j % 2 == 0:
            td = cp.scaled(float(rng.uniform(0.1, 0.9)))
        else:
            td = CpMap(d_in, d_out, cp.kraus[:-1])  # drop one Kraus operator
        comp = complementary_map(td)
        worst_tp = max(worst_tp, tp_defect(td + comp))
    checks = [
        _check("max-choi-kraus-roundtrip-distance", worst_rt, 1e-9),
        _check("max-completed-union-tp-defect", worst_tp, 1e-9),
    ]
    return _finish("channel-kernel", checks, start)


CRITERIA = (
    criterion_nine_state,
    criterion_loop_form,
    criterion_sep_compile,
    criterion_rescaling,
    criterion_causal_reconstruction,
    criterion_process_decomposition,
    criterion_channel_kernel,
)


def run_all(seed: int = 0) -> dict:
    start = time.monotonic()
    reports = []
    for j, fn in enumerate(CRITERIA):
        if fn is criterion_nine_state:
            reports.append(fn())
        else:
            reports.append(fn(seed=seed + j))
    return {
        "pass": all(r["pass"] for r in reports),
        "criteria": reports,
        "duration": time.monotonic() - start,
    }
