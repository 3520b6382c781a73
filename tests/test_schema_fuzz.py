"""A schema fuzzer for the exit-code contract of the command line.

Each example takes one valid input of a subcommand (a checked-in fixture, or
one built here for a schema no fixture covers), changes one field of one of
its files, and runs it through ``cli.main``.  A change replaces the field with
a huge, infinite, NaN, negative, float-for-int or wrongly typed value, drops
it, or resizes a list.  Whatever the change, the run must end with exit 0, 1
or 2 and no exception; exit 1 must come with a failing report and exit 2 with
none; and it must end within ``CAP_S`` seconds.  A change that makes the input
break its schema must exit 2.
"""

import contextlib
import copy
import io
import json
import os
import signal
import tempfile
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from causal_channels import serialize
from causal_channels.channels import random_cptp, random_instrument
from causal_channels.cli import main
from causal_channels.composition import JointMapSpec, LoccProtocol
from causal_channels.procmat import classical_process_to_choi, random_process_mixture
from causal_channels.sep import SepMap

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# Wall-time cap per input; the largest seed, the nine-state loop pair, takes
# about 0.8 s on a 2-vCPU VM, most of it writing its 729 x 729 Choi matrix.
CAP_S = 5.0


def _fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


def _seeds():
    """(argv, files): file names in argv are replaced by their paths."""
    one_way = _fixture("one_way_process.json")
    inst = random_instrument(1, 2, 2, 2, 1, 0)
    a, b = random_instrument(2, 2, 2, 2, 1, 1), random_instrument(2, 2, 2, 2, 1, 2)
    protocol = LoccProtocol((("A", inst), ("B", b)), 2, 2)
    spec = JointMapSpec(a, b, random_process_mixture(2, 2, 2, 2, 3).as_cond_dist())
    sep = SepMap(tuple((random_cptp(2, 2, 1, s), random_cptp(2, 2, 1, s + 1)) for s in (4, 6)))
    dims = {k: one_way[k] for k in ("n_ia", "n_oa", "n_ib", "n_ob")}
    matrix = classical_process_to_choi(serialize.decode_classical_process(one_way))
    return [
        (["verify-instrument", "x"], {"x": serialize.encode_instrument(a)}),
        (["compose", "one-way", "x"], {"x": {
            "alice": serialize.encode_instrument(inst),
            "bob_maps": [serialize.encode_cp_map(random_cptp(2, 2, 1, s)) for s in (7, 8)],
        }}),
        (["compose", "protocol", "x"], {"x": serialize.encode_locc_protocol(protocol)}),
        (["compose", "ccstar", "x"], {"x": serialize.encode_joint_map_spec(spec)}),
        (["compose", "loop", "x"], {"x": _fixture("nine_state.json")}),
        (["compile-sep", "x"], {"x": serialize.encode_sep_map(sep)}),
        (["check-causal", "w", "o"], {"w": _fixture("noisy_wiring.json"),
                                      "o": _fixture("order_ab.json")}),
        (["reconstruct-locc", "x"], {"x": _fixture("reconstruct_noisy.json")}),
        (["check-procmat", "x"], {"x": _fixture("loop_process.json")}),
        (["decompose-procmat", "x"], {"x": one_way}),
        (["probe-procmat", "x"], {"x": one_way}),
        (["probe-procmat", "x"], {"x": {"matrix": serialize.encode_matrix(matrix), **dims}}),
    ]


SEEDS = _seeds()

# Each replacement: its JSON text, and the kinds of field that may hold it.
# In a field of any other kind it breaks the schema, so the run must exit 2.
VALUES = {
    "huge-int": ("1" + "0" * 400, {"int"}),  # past the float range
    "huge-float": ("1e400", set()),  # JSON reads it as infinity
    "infinity": ("Infinity", set()),
    "minus-infinity": ("-Infinity", set()),
    "nan": ("NaN", set()),
    "negative": ("-1", {"int", "number"}),
    "zero": ("0", {"int", "number"}),
    "large": ("100000", {"int", "number"}),
    "float": ("1.5", {"number"}),
    "numeric-string": ('"0.5"', set()),
    "party": ('"A"', {"string"}),
    "true": ("true", set()),
    "null": ("null", set()),
    "empty-list": ("[]", {"list"}),
    "empty-object": ("{}", {"object"}),
}
KINDS = {int: "int", float: "number", str: "string", list: "list", dict: "object"}
MARK = "\x00fuzz\x00"


def _paths(value, path=()):
    """Every (path, value) below ``value``, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,), item
        yield from _paths(item, path + (key,))


def _shape(path):
    """The schema position of ``path``: list indices and element keys are one '*'."""
    return tuple("*" if isinstance(k, int) or k.isdigit() else k for k in path)


@st.composite
def mutations(draw):
    argv, files = draw(st.sampled_from(SEEDS))
    name = draw(st.sampled_from(sorted(files)))
    tree = copy.deepcopy(files[name])
    by_shape = {}
    for path, value in _paths(tree):
        by_shape.setdefault(_shape(path), []).append(path)
    path = draw(st.sampled_from(by_shape[draw(st.sampled_from(sorted(by_shape, key=str)))]))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    actions = ["replace", "drop"] + (["shrink", "grow"] if isinstance(old, list) and old else [])
    action = draw(st.sampled_from(actions))
    if action == "replace":
        label = draw(st.sampled_from(sorted(VALUES)))
        new, kinds = VALUES[label]
        action = f"replace by {label}"
        parent[key] = MARK
        must_exit_2 = KINDS[type(old)] not in kinds
        text = json.dumps(tree).replace(json.dumps(MARK), new)
    else:
        if action == "drop":
            del parent[key]
        elif action == "shrink":
            del old[-1]
        else:
            old.append(copy.deepcopy(old[-1]))
        # named fields are required; a list entry or an instrument row is not
        must_exit_2 = action == "drop" and isinstance(key, str) and not key.isdigit()
        text = json.dumps(tree)
    change = f"{' '.join(argv)}: {action} {name}:{'/'.join(map(str, path))}"
    return _Mutation(change, argv, files, name, text, must_exit_2)


@dataclass
class _Mutation:
    change: str  # the only field Hypothesis prints for a failing example
    argv: list = field(repr=False)
    files: dict = field(repr=False)
    name: str = field(repr=False)
    text: str = field(repr=False)
    must_exit_2: bool = field(repr=False)


class _Overtime(Exception):
    pass


def _alarm(signum, frame):
    raise _Overtime


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(mutations())
def test_every_malformed_input_exits_cleanly(m):
    with tempfile.TemporaryDirectory() as tmp:
        for file, obj in m.files.items():
            with open(os.path.join(tmp, file), "w") as fh:
                fh.write(m.text if file == m.name else json.dumps(obj))
        args = [os.path.join(tmp, a) if a in m.files else a for a in m.argv]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        except _Overtime:
            raise AssertionError(f"{m.change}: still running after {CAP_S} s") from None
        except Exception as exc:
            raise AssertionError(f"{m.change}: {type(exc).__name__}: {exc}") from exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (m.change, code)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), m.change
    else:
        assert json.loads(out.getvalue())["pass"] == (code == 0), m.change
    assert code == 2 or not m.must_exit_2, (m.change, code)
