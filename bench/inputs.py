"""Seeded request generator for the benchmark workloads.

Uses numpy only, never ``causal_channels``, so that the bytes handed to the
program stay identical across library changes.  Every request carries the
files it reads, its argv (file names relative to the work directory), the
exit code it must return and the data the oracle needs.

Objects are plain dicts:

- instrument: ``{"n_in", "n_out", "din", "dout", "elems": {(i, o): [K, ...]}}``
- distribution: an ndarray with the input axes first, then the output axes.
"""

from __future__ import annotations

import json

import numpy as np

from oracle import loop_table, protocol_choi, tp_defect_of_choi, wired_choi, wired_rounds_choi


# ---------------------------------------------------------------------------
# JSON encodings (README formats)


def enc_matrix(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def enc_cp_map(kraus, din, dout) -> dict:
    return {"in_dim": din, "out_dim": dout, "kraus": [enc_matrix(k) for k in kraus]}


def enc_instrument(inst) -> dict:
    return {
        "in_alphabet": inst["n_in"],
        "out_alphabet": inst["n_out"],
        "in_dim": inst["din"],
        "out_dim": inst["dout"],
        "elements": {
            str(i): [
                enc_cp_map(inst["elems"].get((i, o), []), inst["din"], inst["dout"])
                for o in range(inst["n_out"])
            ]
            for i in range(inst["n_in"])
        },
    }


def enc_table(table, n_inputs) -> dict:
    """Conditional distribution; the first listed axis varies fastest."""
    t = np.asarray(table, dtype=np.float64)
    return {
        "input_alphabets": [int(n) for n in t.shape[:n_inputs]],
        "output_alphabets": [int(n) for n in t.shape[n_inputs:]],
        "table": [float(x) for x in t.ravel(order="F")],
    }


def enc_process(table) -> dict:
    n_ia, n_ib, n_oa, n_ob = table.shape
    return {
        "n_ia": n_ia,
        "n_ib": n_ib,
        "n_oa": n_oa,
        "n_ob": n_ob,
        "table": [float(x) for x in table.ravel(order="F")],
    }


def enc_order(labels, edges) -> dict:
    """``labels`` lists (party, round) nodes; ``edges`` are label pairs."""
    index = {lab: j for j, lab in enumerate(labels)}
    return {
        "nodes": [{"party": p, "round": r} for p, r in labels],
        "edges": [[index[u], index[v]] for u, v in edges],
    }


# ---------------------------------------------------------------------------
# random objects


def rand_instrument(rng, n_in, n_out, din, dout, kraus=1) -> dict:
    """For every input the output-sum is trace preserving (QR of a Gaussian stack)."""
    elems = {}
    rows = n_out * kraus * dout
    for i in range(n_in):
        g = rng.standard_normal((rows, din)) + 1j * rng.standard_normal((rows, din))
        q, _ = np.linalg.qr(g)
        for o in range(n_out):
            elems[(i, o)] = [
                q[(o * kraus + j) * dout : (o * kraus + j + 1) * dout] for j in range(kraus)
            ]
    return {"n_in": n_in, "n_out": n_out, "din": din, "dout": dout, "elems": elems}


def rand_channel(rng, din, dout, kraus=2):
    inst = rand_instrument(rng, 1, 1, din, dout, kraus)
    return inst["elems"][(0, 0)]


def one_way_process(rng, n_ia, n_ib, n_oa, n_ob, lead):
    """w(iA, iB | oA, oB) with the leader's input free of the other's output."""
    t = np.zeros((n_ia, n_ib, n_oa, n_ob))
    if lead == "A":
        p = rng.dirichlet(np.ones(n_ia))
        cond = rng.dirichlet(np.ones(n_ib), size=(n_ia, n_oa))
        t[:] = (p[:, None, None] * cond)[:, :, :, None].transpose(0, 2, 1, 3)
    else:
        p = rng.dirichlet(np.ones(n_ib))
        cond = rng.dirichlet(np.ones(n_ia), size=(n_ib, n_ob))
        t[:] = (p[:, None, None] * cond).transpose(2, 0, 1)[:, :, None, :]
    return t


def process_mixture(rng, shape):
    q = rng.uniform(0.2, 0.8)
    return q * one_way_process(rng, *shape, "A") + (1 - q) * one_way_process(rng, *shape, "B")


def loop_mixed_process(rng, shape):
    """Invalid: a share of the loop link iA = oB, iB = oA breaks unit mass."""
    q = rng.uniform(0.3, 0.7)
    return q * loop_table(*shape) + (1 - q) * process_mixture(rng, shape)


def to_loop_pair(a, b, p):
    """Loop-form rewrite of a wired pair: loop symbols a' = (iB, x), b' = (oA, oB)."""
    n_ia, n_ib, n_oa, n_ob = p.shape
    alice = {}
    for o_a in range(n_oa):
        for o_b in range(n_ob):
            for i_b in range(n_ib):
                for x in range(n_oa):
                    ops = [
                        np.sqrt(p[i_a, i_b, o_a, o_b]) * k
                        for i_a in range(n_ia)
                        if p[i_a, i_b, o_a, o_b] > 0.0
                        for k in a["elems"][(i_a, x)]
                    ]
                    if ops:
                        alice[(o_a * n_ob + o_b, i_b * n_oa + x)] = ops
    bob = {}
    for i_b in range(n_ib):
        for x in range(n_oa):
            for o_b in range(n_ob):
                bob[(i_b * n_oa + x, x * n_ob + o_b)] = b["elems"][(i_b, o_b)]
    n_new_a, n_new_b = n_ib * n_oa, n_oa * n_ob
    return (
        {"n_in": n_new_b, "n_out": n_new_a, "din": a["din"], "dout": a["dout"], "elems": alice},
        {"n_in": n_new_a, "n_out": n_new_b, "din": b["din"], "dout": b["dout"], "elems": bob},
    )


# ---------------------------------------------------------------------------
# requests


def request(kind, argv, files, expect, **check):
    return {"kind": kind, "argv": argv, "files": files, "expect": expect, "check": check}


def wired_pair(rng, n, d, valid):
    """A wired pair whose composed defect is far from any tolerance either way."""
    while True:
        a = rand_instrument(rng, n, n, d, d)
        b = rand_instrument(rng, n, n, d, d)
        p = process_mixture(rng, (n,) * 4) if valid else loop_mixed_process(rng, (n,) * 4)
        choi = wired_choi(a, b, p)
        defect = tp_defect_of_choi(choi, d * d)
        if (valid and defect < 1e-11) or (not valid and defect > 1e-3):
            return a, b, p, choi


def compose_ccstar(rng, n, d, valid):
    a, b, p, choi = wired_pair(rng, n, d, valid)
    spec = {"alice": enc_instrument(a), "bob": enc_instrument(b), "wiring": enc_table(p, 2)}
    return request(
        f"compose-ccstar-n{n}d{d}", ["compose", "ccstar", "spec.json"], {"spec.json": spec},
        0 if valid else 1, choi=choi,
    )


def compose_loop(rng, n, d, valid):
    a, b, p, choi = wired_pair(rng, n, d, valid)
    la, lb = to_loop_pair(a, b, p)
    pair = {"alice": enc_instrument(la), "bob": enc_instrument(lb)}
    return request(
        f"compose-loop-n{n}d{d}", ["compose", "loop", "pair.json"], {"pair.json": pair},
        0 if valid else 1, choi=choi,
    )


def compose_one_way(rng, n, d):
    a = rand_instrument(rng, 1, n, d, d)
    bob_maps = [rand_channel(rng, d, d) for _ in range(n)]
    b = {"n_in": n, "n_out": 1, "din": d, "dout": d,
         "elems": {(o, 0): ks for o, ks in enumerate(bob_maps)}}
    p = np.zeros((1, n, n, 1))
    for o in range(n):
        p[0, o, o, 0] = 1.0
    obj = {"alice": enc_instrument(a), "bob_maps": [enc_cp_map(k, d, d) for k in bob_maps]}
    return request(
        f"compose-one-way-n{n}d{d}", ["compose", "one-way", "oneway.json"],
        {"oneway.json": obj}, 0, choi=wired_choi(a, b, p),
    )


def compose_protocol(rng, parties, alphabets, d):
    """Delta-wired rounds; each round reads the output symbol of the one before."""
    rounds = []
    for party, n_in, n_out in zip(parties, (1,) + tuple(alphabets), alphabets):
        rounds.append((party, rand_instrument(rng, n_in, n_out, d, d)))
    obj = {
        "a_dim": d,
        "b_dim": d,
        "rounds": [{"party": p, "instrument": enc_instrument(inst)} for p, inst in rounds],
    }
    return request(
        f"compose-protocol-{parties}", ["compose", "protocol", "protocol.json"],
        {"protocol.json": obj}, 0, choi=protocol_choi(rounds, d, d),
    )


def compile_sep(rng, terms, d):
    """sum_k A_k (x) B_k with {A_k} an instrument and every B_k trace preserving."""
    a = rand_instrument(rng, 1, terms, d, d)
    pairs = [(a["elems"][(0, k)], rand_channel(rng, d, d)) for k in range(terms)]
    obj = {"terms": [{"alice": enc_cp_map(ka, d, d), "bob": enc_cp_map(kb, d, d)}
                     for ka, kb in pairs]}
    b = {"n_in": terms, "n_out": 1, "din": d, "dout": d,
         "elems": {(k, 0): kb for k, (_, kb) in enumerate(pairs)}}
    p = np.zeros((1, terms, terms, 1))
    for k in range(terms):
        p[0, k, k, 0] = 1.0
    return request(
        f"compile-sep-k{terms}", ["compile-sep", "sep.json"], {"sep.json": obj}, 0,
        choi=wired_choi(a, b, p),
    )


def verify_instrument(rng, n, d, valid):
    inst = rand_instrument(rng, n, n, d, d)
    if not valid:
        inst["elems"][(n - 1, 0)] = [0.9 * k for k in inst["elems"][(n - 1, 0)]]
    return request(
        f"verify-instrument-{'ok' if valid else 'bad'}", ["verify-instrument", "inst.json"],
        {"inst.json": enc_instrument(inst)}, 0 if valid else 1,
    )


def procmat(rng, command, shape, valid):
    table = process_mixture(rng, shape) if valid else loop_mixed_process(rng, shape)
    tag = "x".join(str(n) for n in shape)
    argv = [command, "w.json"] + (["--probes", "20"] if command == "probe-procmat" else [])
    return request(
        f"{command}-{tag}-{'ok' if valid else 'bad'}", argv, {"w.json": enc_process(table)},
        0 if valid else 1, table=table,
    )


def wired_family(rng, sequence, alphabets, mode, d):
    """Per-round instruments plus an order-respecting aggregate wiring.

    ``sequence`` is a total order such as ``"ABAB"``; round k of the sequence
    emits ``alphabets[k]`` symbols.  ``mode`` sets how each round's input
    depends on earlier outputs: ``delta`` copies the previous output, ``noisy``
    draws it from a random channel of the previous output, ``memory`` draws a
    binary input from a random channel of every earlier output.
    """
    labels, counts = [], {"A": 0, "B": 0}
    for party in sequence:
        counts[party] += 1
        labels.append((party, counts[party]))
    slots = sorted(labels)  # Alice rounds first, then Bob's
    pos = {lab: slots.index(lab) for lab in labels}
    n_slots = len(slots)
    ins, outs = [0] * n_slots, [0] * n_slots
    for k, lab in enumerate(labels):
        outs[pos[lab]] = alphabets[k]
        ins[pos[lab]] = 1 if k == 0 else (alphabets[k - 1] if mode != "memory" else 2)
    table = np.ones(ins + outs)
    for k, lab in enumerate(labels):
        if k == 0:
            continue
        s = pos[lab]
        if mode == "memory":
            parents = [pos[x] for x in labels[:k]]
        else:
            parents = [pos[labels[k - 1]]]
        shape_par = [outs[j] for j in parents]
        if mode == "delta":
            cond = np.eye(ins[s])  # cond[o_prev, i]
        else:
            cond = rng.dirichlet(np.ones(ins[s]), size=shape_par)
        # broadcast cond(i_s | parents' outputs) over the full table
        cond = np.moveaxis(cond, -1, 0)  # (i_s, parents...)
        src_axes = [s] + [n_slots + j for j in parents]
        order = np.argsort(src_axes)
        cond = cond.transpose(order)
        shape = [1] * (2 * n_slots)
        for ax, size in zip(sorted(src_axes), cond.shape):
            shape[ax] = size
        table = table * cond.reshape(shape)
    insts = {lab: rand_instrument(rng, ins[pos[lab]], outs[pos[lab]], d, d) for lab in labels}
    alice = [insts[lab] for lab in slots if lab[0] == "A"]
    bob = [insts[lab] for lab in slots if lab[0] == "B"]
    return labels, slots, alice, bob, table


def causal_requests(rng, sequence, alphabets, mode, d, respected):
    """One ``reconstruct-locc`` and one ``check-causal`` request on one family.

    A violated order drops every cross-party edge, so the first round of the
    second party reads an output outside its declared past.
    """
    labels, slots, alice, bob, table = wired_family(rng, sequence, alphabets, mode, d)
    if respected:
        edges = [(labels[k], labels[k + 1]) for k in range(len(labels) - 1)]
    else:
        edges = []
    order = enc_order(slots, edges)
    wiring = {"n_a": len(alice), "n_b": len(bob), "dist": enc_table(table, len(slots))}
    fixture = {
        "alice_rounds": [enc_instrument(x) for x in alice],
        "bob_rounds": [enc_instrument(x) for x in bob],
        "wiring": wiring,
        "order": order,
    }
    tag = f"{sequence}-{mode}-{''.join(map(str, alphabets))}-{'ok' if respected else 'bad'}"
    expect = 0 if respected else 1
    choi = wired_rounds_choi(alice, bob, table, d) if respected else None
    return [
        request(f"reconstruct-locc-{tag}", ["reconstruct-locc", "fixture.json"],
                {"fixture.json": fixture}, expect, choi=choi),
        request(f"check-causal-{tag}", ["check-causal", "wiring.json", "order.json"],
                {"wiring.json": wiring, "order.json": order}, expect),
    ]


# ---------------------------------------------------------------------------
# workloads: one pass is the fixed list below; the seed draws the numbers


def compose_wide(rng):
    reqs = [
        compose_one_way(rng, 3, 2),
        compose_protocol(rng, "ABA", (3, 3, 2), 2),
        compile_sep(rng, 3, 2),
        verify_instrument(rng, 3, 2, valid=True),
        verify_instrument(rng, 3, 2, valid=False),
        request("discriminate-nine", ["discriminate-nine"], {}, 0),
    ]
    # (n, d, ccstar copies, loop copies).  Latencies cluster by command, n and
    # d, and a percentile that falls in the gap between two clusters jumps
    # with small changes in machine speed.  So each percentile falls in the
    # middle of one cluster of 30 requests: the median among the twelve
    # n = 3, d = 3 ccstar requests (ranks 0.31 to 0.69), p90 among the six
    # n = 4, d = 2 ones (ranks 0.79 to 0.97).
    for n, d, n_ccstar, n_loop in ((3, 2, 1, 1), (3, 3, 12, 1), (4, 2, 6, 1), (4, 3, 1, 1)):
        reqs.extend(compose_ccstar(rng, n, d, valid=c % 4 != 1) for c in range(n_ccstar))
        reqs.extend(compose_loop(rng, n, d, valid=c != 0 or n == 3) for c in range(n_loop))
    return reqs


def procmat_enum(rng):
    # The median falls in the middle of the nine full enumerations of
    # (4, 4, 4, 4), (5, 5, 3, 3) and one (8, 8, 2, 2) table (ranks 0.35 to
    # 0.75 of 21 requests), p90 among the five slower (8, 8, 2, 2)
    # decompositions (ranks 0.8 to 1), not in a gap between two clusters.
    reqs = []
    for command, shapes in (
        ("check-procmat", ((4, 4, 4, 4),) * 3 + ((5, 5, 3, 3), (8, 8, 2, 2))),
        ("decompose-procmat", ((4, 4, 4, 4),) * 3 + ((5, 5, 3, 3),) + ((8, 8, 2, 2),) * 5),
    ):
        reqs.extend(procmat(rng, command, shape, valid=True) for shape in shapes)
    # probe-procmat draws random channels with 2 Kraus operators, which the
    # program cannot build when an input alphabet exceeds twice the output
    # alphabet, so (8, 8, 2, 2) is not probed.
    for shape in ((3, 3, 3, 3), (4, 4, 4, 4)):
        reqs.append(procmat(rng, "probe-procmat", shape, valid=True))
    # Without the deterministic probes, which run up to 3-symbol alphabets,
    # random probes may miss the violation, so the invalid probe stays small.
    reqs.append(procmat(rng, "probe-procmat", (3, 3, 3, 3), valid=False))
    reqs.append(procmat(rng, "check-procmat", (4, 4, 4, 4), valid=False))
    reqs.append(procmat(rng, "check-procmat", (5, 5, 3, 3), valid=False))
    reqs.append(procmat(rng, "decompose-procmat", (5, 5, 3, 3), valid=False))
    reqs.append(procmat(rng, "check-procmat", (8, 8, 2, 2), valid=False))
    return reqs


def reconstruct_deep(rng):
    # The median falls in the middle of the eight ABAB delta reconstructions
    # (ranks 0.38 to 0.67 of 25 requests), p90 among the five noisy ABAB ones
    # (ranks 0.79 to 0.96), not in a gap between two clusters.
    reqs = []
    ladder = (
        # (sequence, alphabets, wiring, respected, copies, with check-causal)
        ("AB", (3, 3), "noisy", True, 1, True),
        ("ABA", (2, 3, 2), "delta", True, 1, False),
        ("ABAB", (2, 2, 2, 2), "delta", True, 8, False),
        ("ABA", (3, 3, 3), "delta", True, 2, False),
        ("ABAB", (2, 2, 2, 2), "noisy", True, 5, True),
        ("AABB", (2, 2, 2, 2), "memory", True, 1, True),
        ("ABAB", (2, 2, 2, 2), "delta", False, 1, True),
        ("AABB", (2, 2, 2, 2), "memory", False, 1, True),
    )
    for sequence, alphabets, mode, respected, copies, with_check in ladder:
        for c in range(copies):
            rebuild, check = causal_requests(rng, sequence, alphabets, mode, 2, respected)
            reqs.append(rebuild)
            if c == 0 and with_check:
                reqs.append(check)
    return reqs


WORKLOADS = {
    "compose-wide": compose_wide,
    "procmat-enum": procmat_enum,
    "reconstruct-deep": reconstruct_deep,
}


def generate(workload: str, seed: int):
    return WORKLOADS[workload](np.random.default_rng(seed))


def write_files(req, directory) -> int:
    """Write the request's input files; returns their total size in bytes."""
    total = 0
    for name, obj in req["files"].items():
        text = json.dumps(obj, separators=(",", ":"))
        with open(directory / name, "w", encoding="utf-8") as fh:
            fh.write(text)
        total += len(text)
    return total
