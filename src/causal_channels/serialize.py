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
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .causal import CausalOrder, OpLabel, AggregateWiring
from .channels import CpMap, Instrument
from .composition import CondDist, JointMapSpec, LoccProtocol
from .procmat import CausalDecomposition, ClassicalProcess, classical_process_to_choi
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
    """``obj[field]``, a JSON integer: never a bool, nor a float such as 1.5 or 1e400.

    This is the one integer policy; ``obj`` is an object, or a list indexed by ``field``."""
    v = obj[field] if isinstance(field, int) else _require(obj, field, (int,), where)
    if type(v) is not int:
        raise SchemaError(f"{where}: field '{field}' must be an integer")
    return v


def _ints(obj, field, where) -> tuple:
    """The list in ``field`` as a tuple of integers."""
    vals = _require(obj, field, (list,), where)
    return tuple(_int(vals, j, f"{where}.{field}") for j in range(len(vals)))


def _sub(obj, field, decode, where):
    """The object in ``field``, decoded by ``decode``."""
    return decode(_require(obj, field, (dict,), where), f"{where}.{field}")


def _each(obj, field, decode, where) -> list:
    """Each entry of the list in ``field``, decoded by ``decode``."""
    vals = _require(obj, field, (list,), where)
    return [decode(x, f"{where}.{field}[{j}]") for j, x in enumerate(vals)]


_NUMBER = (int, float)  # exact types: a bool or a numeric string is no number


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
    try:  # one loop over the pairs: np.array over nested lists is slower
        for j, (re, im) in enumerate(data):
            if type(re) not in _NUMBER or type(im) not in _NUMBER:
                raise TypeError
            flat[j] = complex(re, im)  # OverflowError past the float range
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{where}: field 'data' entry {j} is no [re, im] pair of numbers") from None
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
    return CpMap(in_dim, out_dim, _each(obj, "kraus", decode_matrix, where))


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
    for key in raw:
        if not (key.isascii() and key.isdigit() and key == str(int(key))):  # "01" would alias "1"
            raise SchemaError(f"{where}: elements key '{key}' is not an input symbol")
        for o, cp in enumerate(_each(raw, key, decode_cp_map, f"{where}.elements")):
            if len(cp.kraus):
                elements[(int(key), o)] = cp
    return Instrument(n_in, n_out, in_dim, out_dim, elements)


# ---------------------------------------------------------------------------
# conditional distributions and composition specs

def _encode_table(table: np.ndarray) -> list:
    return np.asarray(table, dtype=np.float64).ravel(order="F").tolist()


def _decode_table(obj, shape, where) -> np.ndarray:
    flat = obj.get("table")
    size = math.prod(shape)
    if not (isinstance(flat, list) and len(flat) == size and set(map(type, flat)) <= set(_NUMBER)):
        raise SchemaError(f"{where}: field 'table' must hold {size} numbers")
    try:
        table = np.asarray(flat, dtype=np.float64)
    except OverflowError:
        raise SchemaError(f"{where}: field 'table' holds a number past the float range") from None
    return np.reshape(table, shape, order="F")


def encode_cond_dist(d: CondDist) -> dict:
    return {
        "input_alphabets": list(d.input_alphabets),
        "output_alphabets": list(d.output_alphabets),
        "table": _encode_table(d.table),
    }


def decode_cond_dist(obj, where="cond_dist") -> CondDist:
    ins = _ints(obj, "input_alphabets", where)
    outs = _ints(obj, "output_alphabets", where)
    return CondDist(ins, outs, _decode_table(obj, ins + outs, where))


def encode_joint_map_spec(spec: JointMapSpec) -> dict:
    return {
        "alice": encode_instrument(spec.alice),
        "bob": encode_instrument(spec.bob),
        "wiring": encode_cond_dist(spec.wiring),
    }


def decode_joint_map_spec(obj, where="joint_map_spec") -> JointMapSpec:
    return JointMapSpec(
        _sub(obj, "alice", decode_instrument, where),
        _sub(obj, "bob", decode_instrument, where),
        _sub(obj, "wiring", decode_cond_dist, where),
    )


def decode_loop_pair(obj, where="loop_pair") -> tuple:
    """``{"alice", "bob"}``: the two instruments of the loop form."""
    return _sub(obj, "alice", decode_instrument, where), _sub(obj, "bob", decode_instrument, where)


def decode_one_way(obj, where="one_way") -> tuple:
    """``{"alice", "bob_maps"}``: Alice's instrument and one Bob CP map per outcome."""
    return _sub(obj, "alice", decode_instrument, where), _each(obj, "bob_maps", decode_cp_map, where)


def encode_locc_protocol(p: LoccProtocol) -> dict:
    return {
        "a_dim": p.a_dim,
        "b_dim": p.b_dim,
        "rounds": [
            {"party": party, "instrument": encode_instrument(inst)}
            for party, inst in p.rounds
        ],
    }


def _party(obj, where) -> str:
    party = _require(obj, "party", (str,), where)
    if party not in ("A", "B"):
        raise SchemaError(f"{where}: party must be 'A' or 'B'")
    return party


def _round(obj, where) -> tuple:
    return _party(obj, where), _sub(obj, "instrument", decode_instrument, where)


def decode_locc_protocol(obj, where="locc_protocol") -> LoccProtocol:
    a_dim = _int(obj, "a_dim", where)
    b_dim = _int(obj, "b_dim", where)
    return LoccProtocol(tuple(_each(obj, "rounds", _round, where)), a_dim, b_dim)


def encode_sep_map(s: SepMap) -> dict:
    return {
        "terms": [
            {"alice": encode_cp_map(ea), "bob": encode_cp_map(eb)} for ea, eb in s.terms
        ]
    }


def _term(obj, where) -> tuple:
    return _sub(obj, "alice", decode_cp_map, where), _sub(obj, "bob", decode_cp_map, where)


def decode_sep_map(obj, where="sep_map") -> SepMap:
    return SepMap(tuple(_each(obj, "terms", _term, where)))


# ---------------------------------------------------------------------------
# causal structure

def encode_causal_order(order: CausalOrder) -> dict:
    nodes = order.node_list()
    index = {lab: j for j, lab in enumerate(nodes)}
    return {
        "nodes": [{"party": lab.party, "round": lab.round} for lab in nodes],
        "edges": sorted([index[u], index[v]] for u, v in order.edges),
    }


def _node(obj, where) -> OpLabel:
    return OpLabel(_party(obj, where), _int(obj, "round", where))


def decode_causal_order(obj, where="causal_order") -> CausalOrder:
    nodes = _each(obj, "nodes", _node, where)
    n_a = sum(1 for lab in nodes if lab.party == "A")
    edges = []
    for j, e in enumerate(_require(obj, "edges", (list,), where)):
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"{where}.edges[{j}] must be a [from, to] pair")
        u, v = _int(e, 0, f"{where}.edges[{j}]"), _int(e, 1, f"{where}.edges[{j}]")
        if not (0 <= u < len(nodes) and 0 <= v < len(nodes)):
            raise SchemaError(f"{where}.edges[{j}] references a missing node")
        edges.append((nodes[u], nodes[v]))
    return CausalOrder(n_a, len(nodes) - n_a, frozenset(edges))


def encode_aggregate_wiring(w: AggregateWiring) -> dict:
    return {"n_a": w.n_a, "n_b": w.n_b, "dist": encode_cond_dist(w.dist)}


def decode_aggregate_wiring(obj, where="aggregate_wiring") -> AggregateWiring:
    return AggregateWiring(
        _int(obj, "n_a", where), _int(obj, "n_b", where), _sub(obj, "dist", decode_cond_dist, where)
    )


def decode_reconstruct_fixture(obj, where="reconstruct_fixture") -> tuple:
    """``{"alice_rounds", "bob_rounds", "wiring", "order"}``: a wired form and its order."""
    return (
        _each(obj, "alice_rounds", decode_instrument, where),
        _each(obj, "bob_rounds", decode_instrument, where),
        _sub(obj, "wiring", decode_aggregate_wiring, where),
        _sub(obj, "order", decode_causal_order, where),
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
    n_ia, n_ib, n_oa, n_ob = (_int(obj, k, where) for k in ("n_ia", "n_ib", "n_oa", "n_ob"))
    table = _decode_table(obj, (n_ia, n_ib, n_oa, n_ob), where)
    return ClassicalProcess(n_ia, n_ib, n_oa, n_ob, table)


def decode_process_operator(obj, where="process_operator") -> tuple:
    """``(operator, (n_ia, n_oa, n_ib, n_ob))`` of a classical process, which has a
    ``table``, or of ``{"matrix", "n_ia", "n_oa", "n_ib", "n_ob"}``."""
    dims = ("n_ia", "n_oa", "n_ib", "n_ob")
    if isinstance(obj, dict) and "table" in obj:
        w = decode_classical_process(obj, where)
        return classical_process_to_choi(w), tuple(getattr(w, k) for k in dims)
    return _sub(obj, "matrix", decode_matrix, where), tuple(_int(obj, k, where) for k in dims)


def encode_causal_decomposition(dec: CausalDecomposition) -> dict:
    return {
        "q": float(dec.q),
        "p_ab": encode_cond_dist(dec.p_ab),
        "p_ba": encode_cond_dist(dec.p_ba),
    }


def decode_causal_decomposition(obj, where="causal_decomposition") -> CausalDecomposition:
    q = _require(obj, "q", _NUMBER, where)
    return CausalDecomposition(
        float(q), _sub(obj, "p_ab", decode_cond_dist, where), _sub(obj, "p_ba", decode_cond_dist, where)
    )


# ---------------------------------------------------------------------------
# deterministic file IO

# Every input a subcommand reads, by name; ``load`` decodes through this table.
SCHEMAS = {
    "matrix": decode_matrix,
    "cp_map": decode_cp_map,
    "instrument": decode_instrument,
    "cond_dist": decode_cond_dist,
    "joint_map_spec": decode_joint_map_spec,
    "loop_pair": decode_loop_pair,
    "one_way": decode_one_way,
    "locc_protocol": decode_locc_protocol,
    "sep_map": decode_sep_map,
    "causal_order": decode_causal_order,
    "aggregate_wiring": decode_aggregate_wiring,
    "reconstruct_fixture": decode_reconstruct_fixture,
    "classical_process": decode_classical_process,
    "process_operator": decode_process_operator,
    "causal_decomposition": decode_causal_decomposition,
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
    """Read ``path`` once and decode it as ``SCHEMAS[schema]``."""
    decode = SCHEMAS[schema]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise SchemaError(f"not well-formed JSON ({exc})") from exc
    return decode(obj, schema)
