"""Span recorder that times calls into the library from outside the program.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``causal_channels`` module namespace that binds it (``cli`` imports
names with ``from .x import f``; ``procmat`` binds ``solve_feasibility`` and
calls ``find_violating_strategy`` internally).  ``uninstall`` restores the
originals.  Spans are kept in memory as ``[request, name, start, end, parent,
counts]`` and written out once, after the run.

A call made while a span of the same name is open (``encode_instrument``
calling ``encode_matrix``, say) is not given a span of its own, so each
layer's time is counted once.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _strategies_checked(args, result):
    w = args[0]
    total_g = w.n_ob**w.n_ib
    if result is None:
        return {"procmat.strategies_checked": w.n_oa**w.n_ia * total_g}
    f_index = g_index = 0
    for s in result["f"]:
        f_index = f_index * w.n_oa + s
    for s in result["g"]:
        g_index = g_index * w.n_ob + s
    return {"procmat.strategies_checked": f_index * total_g + g_index + 1}


def _kraus_out(args, result):
    return {"composition.kraus_out": len(result.kraus)}


def _choi_dim(args, result):
    return {"channels.choi_dim": result.matrix.shape[0]}


def _bytes_out(args, result):
    return {"serialize.bytes_out": len(result)}


def _rebuilt_alphabet(args, result):
    return {
        "causal.rebuilt_alphabet_max": max(
            max(inst.in_alphabet, inst.out_alphabet) for _, inst in result.rounds
        )
    }


def _lp_size(args, result):
    rows, cols = args[0].shape
    return {"simplex.lp_rows": rows, "simplex.lp_cols": cols}


# Counters combined by maximum over a request; all others are summed.
MAX_COUNTERS = ("channels.choi_dim", "causal.rebuilt_alphabet_max")

# (module, function, span name, counter)
TARGETS = [
    ("cli", "_load_raw", "serialize.load", None),
    ("serialize", "load", "serialize.load", None),
    *[
        ("serialize", f"decode_{kind}", "serialize.load", None)
        for kind in (
            "matrix", "cp_map", "instrument", "cond_dist", "joint_map_spec", "locc_protocol",
            "sep_map", "causal_order", "aggregate_wiring", "classical_process",
        )
    ],
    *[
        ("serialize", f"encode_{kind}", "serialize.encode", None)
        for kind in ("matrix", "cp_map", "instrument", "cond_dist", "locc_protocol",
                     "causal_decomposition")
    ],
    ("serialize", "dumps", "serialize.dumps", _bytes_out),
    *[
        ("composition", name, f"composition.{name}", _kraus_out)
        for name in ("compose_ccstar", "compose_loop", "compose_one_way",
                     "compose_locc_protocol", "compose_wired")
    ],
    ("channels", "choi_of", "channels.choi_of", _choi_dim),
    ("channels", "tp_defect", "channels.tp_defect", None),
    ("channels", "validate_instrument", "channels.validate_instrument", None),
    ("sep", "sep_to_locc_star", "sep.sep_to_locc_star", None),
    ("sep", "verify_nine_state_discrimination", "sep.verify_nine_state_discrimination", None),
    ("causal", "find_causal_violation", "causal.find_causal_violation", None),
    ("causal", "reconstruct_locc", "causal.reconstruct_locc", _rebuilt_alphabet),
    ("procmat", "find_violating_strategy", "procmat.find_violating_strategy",
     _strategies_checked),
    ("procmat", "causal_decompose", "procmat.causal_decompose_self", None),
    ("procmat", "probe_quantum_process", "procmat.probe_quantum_process", None),
    ("simplex", "solve_feasibility", "simplex.solve_feasibility", _lp_size),
]

ROOT = "cli"
PACKAGE = "causal_channels"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self._patches = []  # (module, attribute, original, wrapper)
        wrappers = {}
        for mod_name, fn_name, span, count in TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(fn, span, count))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._patches.append((mod, attr, val, wrappers[id(val)][1]))

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or spans[stack[-1]][1] == name:
                return fn(*args, **kwargs)
            rec = [self.request, name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def begin(self, request, counts=None):
        """Open the root span of one request; ``request`` identifies its spans."""
        self.request = request
        self.stack.append(len(self.spans))
        self.spans.append([request, ROOT, time.perf_counter(), 0.0, None, counts])

    def end(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()
        self.request = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_times(spans):
    """Per request: self time per span name (seconds) and the summed counters.

    A span's self time is its duration minus the time its child spans cover;
    the wrappers nest strictly, so that is the sum of the children's durations.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[4] is not None:
            child[rec[4]] += rec[3] - rec[2]
    per_request = {}
    for idx, (req, name, start, end, _, counts) in enumerate(spans):
        entry = per_request.setdefault(req, {"self": {}, "calls": {}, "counts": {}})
        entry["self"][name] = entry["self"].get(name, 0.0) + (end - start) - child[idx]
        layer = name.split(".")[0]
        entry["calls"][layer] = entry["calls"].get(layer, 0) + 1
        for key, val in (counts or {}).items():
            have = entry["counts"].get(key, 0)
            entry["counts"][key] = max(have, val) if key in MAX_COUNTERS else have + val
    return per_request
