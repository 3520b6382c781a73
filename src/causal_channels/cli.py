"""Command-line interface: load JSON fixtures, run verifications, emit reports.

Exit codes: 0 = pass, 1 = verification failure, 2 = input/usage error.
Reports are JSON by default (deterministic bytes for fixed inputs and seed);
``--format text`` prints a human-readable summary instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .causal import CausalOrderError, ReconstructionSizeError, find_causal_violation
from .causal import reconstruct_locc
from .channels import choi_distance, choi_of, tp_defect, validate_instrument
from .composition import (
    AlphabetError,
    compose_ccstar,
    compose_locc_protocol,
    compose_loop,
    compose_one_way,
    compose_wired,
)
from .linalg import DEFAULT_TOL, DimensionError, NonFiniteError, PositivityError
from .procmat import (
    ProbeCountError,
    ProcessValidityError,
    causal_decompose,
    find_violating_strategy,
    probe_quantum_process,
    recombination_error,
)
from .selftest import run_all
from .sep import MembershipError, sep_to_locc_star, verify_nine_state_discrimination


class InputError(Exception):
    pass


def _resolve_tol(args) -> float:
    tol, source = args.tol, "--tol"
    if tol is None:
        env = os.environ.get("CAUSAL_CHANNELS_TOL")
        if not env:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "CAUSAL_CHANNELS_TOL"
        except ValueError as exc:
            raise InputError(f"CAUSAL_CHANNELS_TOL is not a number: {env!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"{source} must be finite and nonnegative, got {tol!r}")
    return tol


def _load(path, schema):
    """Read ``path`` once as ``serialize.SCHEMAS[schema]``; a fault in the file is an InputError."""
    try:
        return serialize.load(path, schema)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # SchemaError, and the checks of the domain types
        raise InputError(f"{path}: {exc}") from exc


_load_raw = _load  # bench/tracer.py times file reads under this name


def _strip_durations(obj):
    if isinstance(obj, dict):
        return {k: _strip_durations(v) for k, v in obj.items() if k != "duration"}
    if isinstance(obj, list):
        return [_strip_durations(v) for v in obj]
    return obj


def _summary_lines(report, indent=""):
    lines = []
    if isinstance(report, dict) and "criteria" in report:
        for crit in report["criteria"]:
            mark = "PASS" if crit["pass"] else "FAIL"
            lines.append(f"{indent}{mark} {crit['name']} ({crit['duration']:.2f}s)")
            for c in crit["checks"]:
                sub = "pass" if c["pass"] else "FAIL"
                lines.append(
                    f"{indent}  [{sub}] {c['name']}: {c['value']:.3e} <= {c['threshold']:.3e}"
                )
        lines.append(f"{indent}{'PASS' if report['pass'] else 'FAIL'} overall")
        return lines
    mark = "PASS" if report.get("pass") else "FAIL"
    lines.append(f"{indent}{mark}")
    for key, val in sorted(report.items()):
        if key == "pass":
            continue
        lines.append(f"{indent}  {key}: {json.dumps(_strip_durations(val), default=str)[:400]}")
    return lines


def _emit(report, args) -> None:
    if args.format == "text":
        text = "\n".join(_summary_lines(report)) + "\n"
    else:
        if "duration" in report:  # only selftest reports carry timings
            report = _strip_durations(report)
        text = serialize.dumps(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# handlers: each returns its report; main exits 1 when it does not pass


def _cmd_verify_instrument(args):
    inst = _load(args.file, "instrument")
    tol = _resolve_tol(args)
    return {
        "pass": validate_instrument(inst, tol),
        "in_alphabet": inst.in_alphabet,
        "out_alphabet": inst.out_alphabet,
        "tolerance": tol,
    }


def _cmd_compose(args):
    tol = _resolve_tol(args)
    if args.mode == "one-way":
        joint = compose_one_way(*_load(args.file, "one_way"))
    elif args.mode == "protocol":
        joint = compose_locc_protocol(_load(args.file, "locc_protocol"))
    elif args.mode == "ccstar":
        joint = compose_ccstar(_load(args.file, "joint_map_spec"))
    else:  # loop
        joint = compose_loop(*_load(args.file, "loop_pair"))
    defect = tp_defect(joint)
    return {
        "pass": defect <= tol,
        "mode": args.mode,
        "tp_defect": defect,
        "tolerance": tol,
        "choi": serialize.encode_matrix(choi_of(joint).matrix),
    }


def _cmd_compile_sep(args):
    tol = _resolve_tol(args)
    m = _load(args.file, "sep_map")
    try:
        alice, bob = sep_to_locc_star(m, tol)
    except MembershipError as exc:
        return {"pass": False, "error": str(exc)}
    dist = choi_distance(compose_loop(alice, bob), m.joint_map())
    return {
        "pass": dist <= max(tol, 1e-8),
        "roundtrip_choi_distance": dist,
        "alice": serialize.encode_instrument(alice),
        "bob": serialize.encode_instrument(bob),
    }


def _cmd_discriminate_nine(args):
    return verify_nine_state_discrimination(_resolve_tol(args))


def _cmd_check_causal(args):
    _resolve_tol(args)  # validated only: the verdict uses causal.MARGINAL_TOL
    wiring = _load(args.wiring, "aggregate_wiring")
    order = _load(args.order, "causal_order")
    witness = find_causal_violation(wiring, order)
    if witness is None:
        return {"pass": True}
    k, l, label = witness
    return {"pass": False, "witness": {"k": k, "l": l, "party": label.party, "round": label.round}}


def _cmd_reconstruct_locc(args):
    alice_rounds, bob_rounds, wiring, order = _load(args.fixture, "reconstruct_fixture")
    tol = max(_resolve_tol(args), 1e-8)
    try:
        protocol = reconstruct_locc(alice_rounds, bob_rounds, wiring, order)
    except CausalOrderError as exc:
        return {"pass": False, "error": str(exc)}
    direct = compose_wired(alice_rounds, bob_rounds, wiring.dist)
    dist = choi_distance(compose_locc_protocol(protocol), direct)
    return {
        "pass": dist <= tol,
        "choi_distance": dist,
        "protocol": serialize.encode_locc_protocol(protocol),
    }


def _cmd_check_procmat(args):
    w = _load(args.file, "classical_process")
    witness = find_violating_strategy(w, max(_resolve_tol(args), 1e-9))
    return {"pass": True} if witness is None else {"pass": False, "witness": witness}


def _cmd_decompose_procmat(args):
    w = _load(args.file, "classical_process")
    try:
        dec = causal_decompose(w, max(_resolve_tol(args), 1e-9))
    except ProcessValidityError as exc:
        report = {"pass": False, "error": str(exc)}
        if exc.witness is not None:
            report["witness"] = exc.witness
        return report
    return {
        "pass": True,
        "recombination_error": recombination_error(dec, w),
        "decomposition": serialize.encode_causal_decomposition(dec),
    }


def _cmd_probe_procmat(args):
    matrix, dims = _load(args.file, "process_operator")
    return probe_quantum_process(
        matrix, *dims, probes=args.probes, seed=args.seed, tol=_resolve_tol(args)
    )


def _cmd_selftest(args):
    _resolve_tol(args)  # validated only: each criterion has its own threshold
    return run_all(seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--out", default=None, help="write the report to this path")
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(
        prog="causal-channels",
        description="verify and compose bipartite operations wired by classical communication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-instrument", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_verify_instrument)

    p = sub.add_parser("compose", parents=[common])
    p.add_argument("mode", choices=("one-way", "protocol", "ccstar", "loop"))
    p.add_argument("file")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("compile-sep", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_compile_sep)

    p = sub.add_parser("discriminate-nine", parents=[common])
    p.set_defaults(handler=_cmd_discriminate_nine)

    p = sub.add_parser("check-causal", parents=[common])
    p.add_argument("wiring")
    p.add_argument("order")
    p.set_defaults(handler=_cmd_check_causal)

    p = sub.add_parser("reconstruct-locc", parents=[common])
    p.add_argument("fixture")
    p.set_defaults(handler=_cmd_reconstruct_locc)

    p = sub.add_parser("check-procmat", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_procmat)

    p = sub.add_parser("decompose-procmat", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_decompose_procmat)

    p = sub.add_parser("probe-procmat", parents=[common])
    p.add_argument("file")
    p.add_argument("--probes", type=int, default=20)
    p.set_defaults(handler=_cmd_probe_procmat)

    p = sub.add_parser("selftest", parents=[common])
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        # an overflowing product raises NonFiniteError; numpy's own warnings stay quiet
        with np.errstate(over="ignore", invalid="ignore"):
            report = args.handler(args)
    # the library's input rejections; its verification failures come back as reports
    except (InputError, NonFiniteError, AlphabetError, DimensionError, PositivityError,
            ReconstructionSizeError, ProbeCountError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(report, args)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
