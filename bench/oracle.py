"""Independent correctness oracle for benchmark reports.

Plain numpy link products over Choi operators and superoperators; nothing
here imports ``causal_channels``.  Choi operators use the program's
convention: subsystem order (input, output), joint input (A, B), joint output
(A, B), and a Kraus operator K contributes v v^dag with v[i * out + o] = K[o, i].
"""

from __future__ import annotations

from itertools import product

import numpy as np

CHOI_TOL = 1e-8  # report Choi and reconstruction distances
RECOMBINE_TOL = 1e-7  # decompose-procmat recombination error
STRATEGY_TOL = 1e-9  # unit-mass deviation that marks a strategy as violating


def loop_table(n_ia, n_ib, n_oa, n_ob):
    """The loop link iA = oB, iB = oA as a (iA, iB, oA, oB) table."""
    t = np.zeros((n_ia, n_ib, n_oa, n_ob))
    for o_a in range(n_oa):
        for o_b in range(n_ob):
            t[o_b, o_a, o_a, o_b] = 1.0
    return t


def kraus_choi(kraus, din, dout):
    c = np.zeros((din * dout, din * dout), dtype=np.complex128)
    for k in kraus:
        v = np.asarray(k).T.reshape(-1)
        c += np.outer(v, v.conj())
    return c


def choi_stack(inst):
    """Array (n_in, n_out, din, dout, din, dout) of element Choi operators."""
    din, dout = inst["din"], inst["dout"]
    out = np.zeros((inst["n_in"], inst["n_out"], din * dout, din * dout), dtype=np.complex128)
    for (i, o), ks in inst["elems"].items():
        out[i, o] = kraus_choi(ks, din, dout)
    return out.reshape(inst["n_in"], inst["n_out"], din, dout, din, dout)


def pair_choi(weights, ca, cb):
    """sum_{a,b} weights[a, b] * Choi(A_a (x) B_b) with joint (in, out) ordering."""
    j = np.einsum("ab,aPQRS,bTUVW->PTQURVSW", weights, ca, cb)
    n = ca.shape[1] * cb.shape[1] * ca.shape[2] * cb.shape[2]
    return j.reshape(n, n)


def wired_choi(a, b, p):
    """Choi of the wired pair sum p(iA, iB | oA, oB) A_{oA|iA} (x) B_{oB|iB}."""
    ca, cb = choi_stack(a), choi_stack(b)
    n_ia, n_ib, n_oa, n_ob = p.shape
    weights = p.transpose(0, 2, 1, 3).reshape(n_ia * n_oa, n_ib * n_ob)
    return pair_choi(weights, ca.reshape(-1, *ca.shape[2:]), cb.reshape(-1, *cb.shape[2:]))


def tp_defect_of_choi(choi, din):
    """Frobenius norm of (partial trace over the output) - identity."""
    dout = choi.shape[0] // din
    reduced = np.trace(choi.reshape(din, dout, din, dout), axis1=1, axis2=3)
    return float(np.linalg.norm(reduced - np.eye(din)))


def superop(kraus):
    """Row-major vectorised action: vec(K rho K^dag) = (K (x) conj K) vec(rho)."""
    return sum(np.kron(k, np.asarray(k).conj()) for k in kraus)


def superop_to_choi(s, din, dout):
    return s.reshape(dout, dout, din, din).transpose(2, 0, 3, 1).reshape(din * dout, din * dout)


def protocol_choi(rounds, a_dim, b_dim):
    """Delta-wired rounds, all with equal quantum input and output dims.

    Dynamic programming over the classical symbol: ``state[s]`` is the joint
    superoperator of every history whose last output was s.
    """
    eye_a, eye_b = np.eye(a_dim), np.eye(b_dim)
    dim = a_dim * b_dim
    state = {0: np.eye(dim * dim, dtype=np.complex128)}
    for party, inst in rounds:
        nxt = {}
        for (i, o), ks in inst["elems"].items():
            if i not in state or not ks:
                continue
            lifted = [np.kron(k, eye_b) if party == "A" else np.kron(eye_a, k) for k in ks]
            term = superop(lifted) @ state[i]
            nxt[o] = term if o not in nxt else nxt[o] + term
        state = nxt
    return superop_to_choi(sum(state.values()), dim, dim)


def _chain_chois(rounds, d):
    """Local Choi of every (inputs, outputs) history of one party's rounds."""
    ins = [r["n_in"] for r in rounds]
    outs = [r["n_out"] for r in rounds]
    chois = []
    for i_t in product(*map(range, ins)):
        for o_t in product(*map(range, outs)):
            s = np.eye(d * d, dtype=np.complex128)
            for r, i, o in zip(rounds, i_t, o_t):
                s = superop(r["elems"].get((i, o), [np.zeros((d, d))])) @ s
            chois.append(superop_to_choi(s, d, d).reshape(d, d, d, d))
    return np.array(chois)


def wired_rounds_choi(alice, bob, table, d):
    """Choi of per-round instruments contracted against an aggregate wiring."""
    n_a, n_b = len(alice), len(bob)
    k = n_a + n_b
    # table axes: inputs (A rounds, B rounds), outputs (A rounds, B rounds)
    perm = list(range(n_a)) + [k + j for j in range(n_a)] + [n_a + j for j in range(n_b)] + [
        k + n_a + j for j in range(n_b)
    ]
    t = table.transpose(perm)
    size_a = int(np.prod(t.shape[: 2 * n_a]))
    weights = t.reshape(size_a, -1)
    return pair_choi(weights, _chain_chois(alice, d), _chain_chois(bob, d))


# ---------------------------------------------------------------------------
# decoding report fields


def dec_matrix(obj):
    data = np.asarray(obj["data"], dtype=np.float64).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def dec_instrument(obj):
    elems = {}
    for key, row in obj["elements"].items():
        for o, cp in enumerate(row):
            if cp["kraus"]:
                elems[(int(key), o)] = [dec_matrix(m) for m in cp["kraus"]]
    return {
        "n_in": obj["in_alphabet"],
        "n_out": obj["out_alphabet"],
        "din": obj["in_dim"],
        "dout": obj["out_dim"],
        "elems": elems,
    }


def strategy_mass(table, f, g):
    n_ia, n_ib = table.shape[:2]
    ia, ib = np.meshgrid(np.arange(n_ia), np.arange(n_ib), indexing="ij")
    return float(table[ia, ib, np.asarray(f)[ia], np.asarray(g)[ib]].sum())


def worst_strategy_deviation(table):
    """Largest |mass - 1| over all deterministic strategy pairs (small tables only)."""
    n_ia, n_ib, n_oa, n_ob = table.shape
    worst = 0.0
    for f in product(range(n_oa), repeat=n_ia):
        wf = table[np.arange(n_ia), :, np.asarray(f), :]  # (iA, iB, oB)
        masses = wf.sum(axis=0)  # (iB, oB)
        for g in product(range(n_ob), repeat=n_ib):
            worst = max(worst, abs(float(masses[np.arange(n_ib), np.asarray(g)].sum()) - 1.0))
    return worst


def _witness_error(table, report):
    wit = report.get("witness")
    if not isinstance(wit, dict) or "f" not in wit:
        return "no strategy witness"
    mass = strategy_mass(table, wit["f"], wit["g"])
    if abs(mass - wit["mass"]) > 1e-9 or abs(mass - 1.0) <= STRATEGY_TOL:
        return f"witness mass {wit['mass']} is not a violation (oracle {mass})"
    return None


def check(req, code, report):
    """None if the program's exit code and report agree with the oracle, else why not."""
    expect = req["expect"]
    if code != expect:
        return f"exit code {code}, expected {expect}"
    if not isinstance(report, dict):
        return "no JSON report"
    if report.get("pass") is not (expect == 0):
        return "report pass flag disagrees with the exit code"
    command, c = req["argv"][0], req["check"]
    if command == "compose":
        dist = float(np.linalg.norm(dec_matrix(report["choi"]) - c["choi"]))
        if dist > CHOI_TOL:
            return f"Choi differs from the link product by {dist:.3e}"
        defect = tp_defect_of_choi(c["choi"], int(np.sqrt(c["choi"].shape[0])))
        if abs(report["tp_defect"] - defect) > CHOI_TOL:
            return f"tp_defect {report['tp_defect']:.3e}, oracle {defect:.3e}"
    elif command == "compile-sep":
        if report["roundtrip_choi_distance"] > CHOI_TOL:
            return "roundtrip Choi distance above bound"
        alice, bob = dec_instrument(report["alice"]), dec_instrument(report["bob"])
        loop = loop_table(alice["n_in"], bob["n_in"], alice["n_out"], bob["n_out"])
        dist = float(np.linalg.norm(wired_choi(alice, bob, loop) - c["choi"]))
        if dist > CHOI_TOL:
            return f"compiled loop pair differs from the separable map by {dist:.3e}"
    elif command == "discriminate-nine":
        states = report.get("states", [])
        if len(states) != 9 or any(s["distance"] > 1e-9 for s in states):
            return "nine-state discrimination records out of bound"
    elif command in ("check-procmat", "decompose-procmat") and expect == 1:
        return _witness_error(c["table"], report)
    elif command == "decompose-procmat":
        dec = report["decomposition"]
        n_ia, n_ib, n_oa, n_ob = c["table"].shape
        p_ab = np.reshape(dec["p_ab"]["table"], (n_ia, n_ib, n_oa), order="F")
        p_ba = np.reshape(dec["p_ba"]["table"], (n_ia, n_ib, n_ob), order="F")
        q = dec["q"]
        mix = q * p_ab[:, :, :, None] + (1 - q) * p_ba[:, :, None, :]
        err = float(np.max(np.abs(mix - c["table"])))
        if report["recombination_error"] > RECOMBINE_TOL or err > RECOMBINE_TOL:
            return f"recombination error {err:.3e}"
    elif command == "probe-procmat":
        if expect == 0 and report["max_deviation"] > CHOI_TOL:
            return "probe deviation above bound on a valid process"
        if expect == 1:
            worst = worst_strategy_deviation(c["table"])
            if report["max_deviation"] < worst - 1e-9:
                return f"probe missed the strategy deviation {worst:.3e}"
    elif command == "reconstruct-locc" and expect == 0:
        if report["choi_distance"] > CHOI_TOL:
            return f"reported choi_distance {report['choi_distance']:.3e}"
        proto = report["protocol"]
        rounds = [(r["party"], dec_instrument(r["instrument"])) for r in proto["rounds"]]
        dist = float(np.linalg.norm(protocol_choi(rounds, proto["a_dim"], proto["b_dim"]) - c["choi"]))
        if dist > CHOI_TOL:
            return f"reconstructed protocol differs from the wiring by {dist:.3e}"
    elif command in ("reconstruct-locc", "check-causal") and expect == 1:
        if "witness" not in report and "error" not in report:
            return "violation reported without a witness"
    return None
