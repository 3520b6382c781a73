"""JSON encoding for the domain types.

All matrices use `{"rows": r, "cols": c, "data": [[re, im], ...]}` row-major.
Probability tables are flattened so that input indices vary fastest (the first
listed axis is the fastest; column-major flattening of the stored tensor).
Saving is byte-deterministic: sorted keys, ASCII-escaped strings, and floats
to 17 significant digits, integer-valued ones with |x| < 1e16 as `x.0`.  A
report is formatted in one pass, all its floats by a single `%` operation.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .causal import CausalOrder, OpLabel, AggregateWiring
from .channels import CpMap, Instrument
from .composition import CondDist, JointMapSpec, LoccProtocol
from .procmat import CausalDecomposition, ClassicalProcess
from .sep import SepMap


class SchemaError(ValueError):
    """The JSON value does not match the expected schema."""


def _require(obj, field, kinds, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if field not in obj:
        raise SchemaError(f"{where}: missing field '{field}'")
    val = obj[field]
    if not isinstance(val, kinds):
        raise SchemaError(f"{where}: field '{field}' has wrong type")
    return val


def _int(obj, field, where):
    v = _require(obj, field, (int,), where)
    if isinstance(v, bool):
        raise SchemaError(f"{where}: field '{field}' has wrong type")
    return v


# ---------------------------------------------------------------------------
# matrices and channels

def encode_matrix(m) -> dict:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    data = a.view(np.float64).reshape(-1, 2).tolist()  # [re, im] pairs, row-major
    return {"rows": a.shape[0], "cols": a.shape[1], "data": data}


def decode_matrix(obj, where="matrix") -> np.ndarray:
    rows = _int(obj, "rows", where)
    cols = _int(obj, "cols", where)
    data = _require(obj, "data", (list,), where)
    if len(data) != rows * cols:
        raise SchemaError(f"{where}: field 'data' has {len(data)} entries, expected {rows * cols}")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for j, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{where}: field 'data' entry {j} is not a [re, im] pair")
        flat[j] = complex(pair[0], pair[1])
    return flat.reshape(rows, cols)


def encode_cp_map(cp: CpMap) -> dict:
    return {
        "in_dim": cp.in_dim,
        "out_dim": cp.out_dim,
        "kraus": [encode_matrix(k) for k in cp.kraus],
    }


def decode_cp_map(obj, where="cpmap") -> CpMap:
    in_dim = _int(obj, "in_dim", where)
    out_dim = _int(obj, "out_dim", where)
    kraus = _require(obj, "kraus", (list,), where)
    ops = tuple(decode_matrix(k, f"{where}.kraus[{j}]") for j, k in enumerate(kraus))
    return CpMap(in_dim, out_dim, ops)


def encode_instrument(inst: Instrument) -> dict:
    # Absent (i, o) pairs are zero maps, written without building a CpMap.
    zero = {"in_dim": inst.in_dim, "out_dim": inst.out_dim, "kraus": []}
    elements = {
        str(i): [
            encode_cp_map(inst.elements[(i, o)]) if (i, o) in inst.elements else dict(zero)
            for o in range(inst.out_alphabet)
        ]
        for i in range(inst.in_alphabet)
    }
    return {
        "in_alphabet": inst.in_alphabet,
        "out_alphabet": inst.out_alphabet,
        "in_dim": inst.in_dim,
        "out_dim": inst.out_dim,
        "elements": elements,
    }


def decode_instrument(obj, where="instrument") -> Instrument:
    n_in = _int(obj, "in_alphabet", where)
    n_out = _int(obj, "out_alphabet", where)
    in_dim = _int(obj, "in_dim", where)
    out_dim = _int(obj, "out_dim", where)
    raw = _require(obj, "elements", (dict,), where)
    elements = {}
    for key, row in raw.items():
        try:
            i = int(key)
        except ValueError:
            raise SchemaError(f"{where}: elements key '{key}' is not an integer") from None
        if not isinstance(row, list):
            raise SchemaError(f"{where}: elements['{key}'] is not a list")
        for o, cp_obj in enumerate(row):
            cp = decode_cp_map(cp_obj, f"{where}.elements['{key}'][{o}]")
            if cp.kraus:
                elements[(i, o)] = cp
    return Instrument(n_in, n_out, in_dim, out_dim, elements)


# ---------------------------------------------------------------------------
# conditional distributions and composition specs

def _encode_table(table: np.ndarray) -> list:
    return np.asarray(table, dtype=np.float64).ravel(order="F").tolist()


def _decode_table(flat, shape, where) -> np.ndarray:
    size = int(np.prod(shape)) if shape else 1
    if not isinstance(flat, list) or len(flat) != size:
        raise SchemaError(f"{where}: field 'table' must hold {size} numbers")
    return np.reshape(np.asarray(flat, dtype=np.float64), shape, order="F")


def encode_cond_dist(d: CondDist) -> dict:
    return {
        "input_alphabets": list(d.input_alphabets),
        "output_alphabets": list(d.output_alphabets),
        "table": _encode_table(d.table),
    }


def decode_cond_dist(obj, where="cond_dist") -> CondDist:
    ins = _require(obj, "input_alphabets", (list,), where)
    outs = _require(obj, "output_alphabets", (list,), where)
    shape = tuple(int(n) for n in ins) + tuple(int(n) for n in outs)
    table = _decode_table(obj.get("table"), shape, where)
    return CondDist(tuple(int(n) for n in ins), tuple(int(n) for n in outs), table)


def encode_joint_map_spec(spec: JointMapSpec) -> dict:
    return {
        "alice": encode_instrument(spec.alice),
        "bob": encode_instrument(spec.bob),
        "wiring": encode_cond_dist(spec.wiring),
    }


def decode_joint_map_spec(obj, where="joint_map_spec") -> JointMapSpec:
    return JointMapSpec(
        decode_instrument(_require(obj, "alice", (dict,), where), f"{where}.alice"),
        decode_instrument(_require(obj, "bob", (dict,), where), f"{where}.bob"),
        decode_cond_dist(_require(obj, "wiring", (dict,), where), f"{where}.wiring"),
    )


def encode_locc_protocol(p: LoccProtocol) -> dict:
    return {
        "a_dim": p.a_dim,
        "b_dim": p.b_dim,
        "rounds": [
            {"party": party, "instrument": encode_instrument(inst)}
            for party, inst in p.rounds
        ],
    }


def decode_locc_protocol(obj, where="locc_protocol") -> LoccProtocol:
    a_dim = _int(obj, "a_dim", where)
    b_dim = _int(obj, "b_dim", where)
    raw = _require(obj, "rounds", (list,), where)
    rounds = []
    for j, r in enumerate(raw):
        party = _require(r, "party", (str,), f"{where}.rounds[{j}]")
        if party not in ("A", "B"):
            raise SchemaError(f"{where}.rounds[{j}]: party must be 'A' or 'B'")
        inst = decode_instrument(
            _require(r, "instrument", (dict,), f"{where}.rounds[{j}]"),
            f"{where}.rounds[{j}].instrument",
        )
        rounds.append((party, inst))
    return LoccProtocol(tuple(rounds), a_dim, b_dim)


def encode_sep_map(s: SepMap) -> dict:
    return {
        "terms": [
            {"alice": encode_cp_map(ea), "bob": encode_cp_map(eb)} for ea, eb in s.terms
        ]
    }


def decode_sep_map(obj, where="sep_map") -> SepMap:
    raw = _require(obj, "terms", (list,), where)
    terms = []
    for j, t in enumerate(raw):
        terms.append(
            (
                decode_cp_map(_require(t, "alice", (dict,), f"{where}.terms[{j}]"), f"{where}.terms[{j}].alice"),
                decode_cp_map(_require(t, "bob", (dict,), f"{where}.terms[{j}]"), f"{where}.terms[{j}].bob"),
            )
        )
    return SepMap(tuple(terms))


# ---------------------------------------------------------------------------
# causal structure

def encode_causal_order(order: CausalOrder) -> dict:
    nodes = order.node_list()
    index = {lab: j for j, lab in enumerate(nodes)}
    return {
        "nodes": [{"party": lab.party, "round": lab.round} for lab in nodes],
        "edges": sorted([index[u], index[v]] for u, v in order.edges),
    }


def decode_causal_order(obj, where="causal_order") -> CausalOrder:
    raw_nodes = _require(obj, "nodes", (list,), where)
    nodes = []
    for j, n in enumerate(raw_nodes):
        party = _require(n, "party", (str,), f"{where}.nodes[{j}]")
        rnd = _int(n, "round", f"{where}.nodes[{j}]")
        if party not in ("A", "B"):
            raise SchemaError(f"{where}.nodes[{j}]: party must be 'A' or 'B'")
        nodes.append(OpLabel(party, rnd))
    n_a = sum(1 for lab in nodes if lab.party == "A")
    n_b = len(nodes) - n_a
    raw_edges = _require(obj, "edges", (list,), where)
    edges = []
    for j, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"{where}.edges[{j}] must be a [from, to] pair")
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < len(nodes) and 0 <= v < len(nodes)):
            raise SchemaError(f"{where}.edges[{j}] references a missing node")
        edges.append((nodes[u], nodes[v]))
    return CausalOrder(n_a, n_b, frozenset(edges))


def encode_aggregate_wiring(w: AggregateWiring) -> dict:
    return {"n_a": w.n_a, "n_b": w.n_b, "dist": encode_cond_dist(w.dist)}


def decode_aggregate_wiring(obj, where="aggregate_wiring") -> AggregateWiring:
    return AggregateWiring(
        _int(obj, "n_a", where),
        _int(obj, "n_b", where),
        decode_cond_dist(_require(obj, "dist", (dict,), where), f"{where}.dist"),
    )


# ---------------------------------------------------------------------------
# classical processes

def encode_classical_process(w: ClassicalProcess) -> dict:
    return {
        "n_ia": w.n_ia,
        "n_ib": w.n_ib,
        "n_oa": w.n_oa,
        "n_ob": w.n_ob,
        "table": _encode_table(w.table),
    }


def decode_classical_process(obj, where="classical_process") -> ClassicalProcess:
    n_ia = _int(obj, "n_ia", where)
    n_ib = _int(obj, "n_ib", where)
    n_oa = _int(obj, "n_oa", where)
    n_ob = _int(obj, "n_ob", where)
    table = _decode_table(obj.get("table"), (n_ia, n_ib, n_oa, n_ob), where)
    return ClassicalProcess(n_ia, n_ib, n_oa, n_ob, table)


def encode_causal_decomposition(dec: CausalDecomposition) -> dict:
    return {
        "q": float(dec.q),
        "p_ab": encode_cond_dist(dec.p_ab),
        "p_ba": encode_cond_dist(dec.p_ba),
    }


def decode_causal_decomposition(obj, where="causal_decomposition") -> CausalDecomposition:
    q = _require(obj, "q", (int, float), where)
    return CausalDecomposition(
        float(q),
        decode_cond_dist(_require(obj, "p_ab", (dict,), where), f"{where}.p_ab"),
        decode_cond_dist(_require(obj, "p_ba", (dict,), where), f"{where}.p_ba"),
    )


# ---------------------------------------------------------------------------
# deterministic file IO

SCHEMAS = {
    "matrix": (encode_matrix, decode_matrix),
    "cp_map": (encode_cp_map, decode_cp_map),
    "instrument": (encode_instrument, decode_instrument),
    "cond_dist": (encode_cond_dist, decode_cond_dist),
    "joint_map_spec": (encode_joint_map_spec, decode_joint_map_spec),
    "locc_protocol": (encode_locc_protocol, decode_locc_protocol),
    "sep_map": (encode_sep_map, decode_sep_map),
    "causal_order": (encode_causal_order, decode_causal_order),
    "aggregate_wiring": (encode_aggregate_wiring, decode_aggregate_wiring),
    "classical_process": (encode_classical_process, decode_classical_process),
    "causal_decomposition": (encode_causal_decomposition, decode_causal_decomposition),
}


def _walk(value, out: list, floats: list, heads: dict) -> None:
    """Append the text of ``value`` to ``out``, a NUL for each float; ``heads`` caches keys."""
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            name, item = str(key), value[key]
            head = heads.get(name)
            if head is None:
                head = heads[name] = _quote(name).replace("%", "%%") + ":"
            if type(item) is int or (type(item) is list and not item):  # dims, zero maps
                out.append(f"{sep}{head}{item}")
            else:
                out.append(sep + head)
                _walk(item, out, floats, heads)
            sep = ","
        out.append("}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {float}:
            out.append(("[" + "\0," * len(value))[:-1] + "]")
            floats.extend(value)
        elif (kinds == {list} and set(map(len, value)) == {2}
              and set(map(type, chain.from_iterable(value))) == {float}):
            out.append(("[" + "[\0,\0]," * len(value))[:-1] + "]")  # matrix data
            floats.extend(chain.from_iterable(value))
        else:
            sep = "["
            for item in value:
                out.append(sep)
                _walk(item, out, floats, heads)
                sep = ","
            out.append("]" if value else "[]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, float):
        out.append("\0")
        floats.append(value)
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, str):
        out.append(_quote(value).replace("%", "%%"))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Deterministic JSON text of a JSON-like value (see the module docstring).

    Quoted keys and strings hold no raw NUL and have their ``%`` doubled, so
    the NULs mark the floats; each becomes ``%.1f`` or ``%.17g``.
    """
    out, floats = [], []
    _walk(value, out, floats, {})
    pieces = "".join(out).split("\0")
    del out
    x = np.array(floats, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot serialize non-finite float")
    fmt = ["%.17g"] * (2 * len(pieces) - 1)
    fmt[::2] = pieces
    for j in np.flatnonzero((x == np.trunc(x)) & (np.abs(x) < 1e16)).tolist():
        fmt[2 * j + 1] = "%.1f"
    return "".join(fmt) % tuple(floats)


def load(path, schema: str):
    _, decode = SCHEMAS[schema]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not well-formed JSON ({exc})") from exc
    return decode(obj, schema)
