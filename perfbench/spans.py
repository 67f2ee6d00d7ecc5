"""Spans around the calls into each sosre layer, recorded from outside.

A span wraps a module-level function under the name its caller looks it up
by (``partition.logdet_partial_pivot`` is called by ``z_determinant`` through
the ``partition`` module globals, ``validate_params`` by the CLI through the
``cli`` module globals).  Nothing under ``src/`` changes.  A wrapped name that
no longer exists is recorded as missing, so a refactor that renames it loses
that layer's metrics instead of crashing the run.

Spans are kept as running sums in memory: calls, inclusive time and self time
(inclusive time minus the time of the spans nested inside it), per layer and
per chain size N.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module under sosre, attribute the caller looks up, layer name)
LAYERS = (
    ("partition", "z_determinant", "partition.z_determinant"),
    ("partition", "_det_guards", "partition.det.guards"),
    ("partition", "_m_matrix_entries", "partition.det.kernel"),
    ("partition", "logdet_partial_pivot", "partition.det.lu"),
    ("partition", "z_bruteforce", "partition.z_bruteforce"),
    ("chain_ops", "b_operator", "chain_ops.b_operator"),
    ("weights", "embed_pair", "weights.embed_pair"),
    ("cli", "validate_params", "params.validate_params"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
    ("verify", "min_guard_margins", "params.min_guard_margins"),
    ("verify", "sample_params", "verify.sample_params"),
)


def _size(args):
    """Chain size N of a call: from the first ModelParams-like or array argument."""
    for a in args:
        n = getattr(a, "n", None)
        if isinstance(n, int):
            return n
        shape = getattr(a, "shape", None)
        if shape:
            return int(shape[0])
    return None


class Stats:
    """Running sums of the spans of one phase (set-up or the passes)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.returns = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        # (layer, N) -> [calls, inclusive s, self s]
        self.by_size = defaultdict(lambda: [0, 0.0, 0.0])


class Tracer:
    """Install with `install()`, record into `stats`, undo with `uninstall()`."""

    def __init__(self):
        self.stats = Stats()
        self.missing = []
        self._stack = []
        self._restore = []

    def install(self):
        for module_name, attr, layer in LAYERS:
            try:
                module = importlib.import_module(f"sosre.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"sosre.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer))
            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, layer):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            returned = False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = self.stats
                s.calls[layer] += 1
                s.returns[layer] += returned
                s.incl[layer] += dt
                s.self_[layer] += dt - child[0]
                row = s.by_size[(layer, _size(args))]
                row[0] += 1
                row[1] += dt
                row[2] += dt - child[0]

        return span


def lu_flops(n):
    """Computed real flops of a complex LU of an n x n matrix: 8 n^3 / 3."""
    return 8.0 * n ** 3 / 3.0


def b_operator_flops(n):
    """Computed real flops of the dense products inside one B build at N = n:
    2n + 2 complex products of 2^(n+1) square matrices, 8 d^3 flops each."""
    d = 2 ** (n + 1)
    return (2 * n + 2) * 8.0 * d ** 3


# Per-layer metric -> (kind, layer, unit).  Inclusive times include nested
# spans; "self" times exclude them, so z_determinant's self time is the
# prefactor and bookkeeping around guards, kernel and LU.
METRICS = {
    "partition.det.guards_ms": ("incl", "partition.det.guards", "ms"),
    "partition.det.kernel_ms": ("incl", "partition.det.kernel", "ms"),
    "partition.det.lu_ms": ("incl", "partition.det.lu", "ms"),
    "partition.det.lu_flops": ("lu_flops", "partition.det.lu", "flop_computed"),
    "partition.det.prefactor_ms": ("self", "partition.z_determinant", "ms"),
    "partition.det.total_ms": ("incl", "partition.z_determinant", "ms"),
    "partition.brute.apply_ms": ("self", "partition.z_bruteforce", "ms"),
    "partition.brute.total_ms": ("incl", "partition.z_bruteforce", "ms"),
    "chain_ops.b_operator.calls": ("calls", "chain_ops.b_operator", "count"),
    "chain_ops.b_operator_ms": ("incl", "chain_ops.b_operator", "ms"),
    "chain_ops.matmul_flops": ("b_flops", "chain_ops.b_operator", "flop_computed"),
    "weights.embed_pair.calls": ("calls", "weights.embed_pair", "count"),
    "weights.embed_pair_ms": ("incl", "weights.embed_pair", "ms"),
    "params.validate_ms": ("incl", "params.validate_params", "ms"),
    "cli.sweep.self_ms": ("self", "cli.cmd_sweep", "ms"),
    "params.min_guard_margins.calls": ("calls", "params.min_guard_margins", "count"),
    "params.min_guard_margins_ms": ("incl", "params.min_guard_margins", "ms"),
    "verify.sample_params_ms": ("incl", "verify.sample_params", "ms"),
    "verify.sampler.accept_ratio": ("accept", "verify.sample_params", "ratio"),
}

# The sampler runs only while the inputs are generated, so its metrics are
# taken over one traced set-up; the others are per pass.
SETUP_METRICS = (
    "params.min_guard_margins.calls",
    "params.min_guard_margins_ms",
    "verify.sample_params_ms",
    "verify.sampler.accept_ratio",
)
PASS_METRICS = tuple(name for name in METRICS if name not in SETUP_METRICS)


def layer_metrics(stats, passes, missing, names):
    """{name: (value, unit)} for the metrics in `names`, per pass over
    `passes` passes.

    A metric whose layer was not installed is left out; the accept ratio
    also needs ``min_guard_margins``.
    """
    k = max(passes, 1)
    missing_layers = {layer for mod, attr, layer in LAYERS
                      if f"sosre.{mod}.{attr}" in missing}
    out = {}
    for name in names:
        kind, layer, unit = METRICS[name]
        if layer in missing_layers or (
                kind == "accept" and "params.min_guard_margins" in missing_layers):
            continue
        if kind == "incl":
            value = 1e3 * stats.incl[layer] / k
        elif kind == "self":
            value = 1e3 * stats.self_[layer] / k
        elif kind == "calls":
            value = stats.calls[layer] / k
        elif kind == "accept":
            value = stats.returns[layer] / max(stats.calls["params.min_guard_margins"], 1)
        else:
            per_call = lu_flops if kind == "lu_flops" else b_operator_flops
            value = sum(row[0] * per_call(n) for (l, n), row in stats.by_size.items()
                        if l == layer and n is not None) / k
        out[name] = (value, unit)
    return out


def by_size(stats, passes, layers):
    """{N: {layer: {calls per pass, ms and self ms per call}}}: one route's
    breakdown at each chain size."""
    out = defaultdict(dict)
    for (layer, n), (calls, incl, self_) in sorted(
            stats.by_size.items(), key=lambda kv: (kv[0][1] or 0, kv[0][0])):
        if layer in layers and n is not None:
            out[n][layer] = {"calls_per_pass": calls / max(passes, 1),
                             "ms_per_call": 1e3 * incl / calls,
                             "self_ms_per_call": 1e3 * self_ / calls}
    return dict(out)
