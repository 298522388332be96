"""Per-module spans for one rabi-relax command-line call, and their totals.

Run as a script, it imports the package, wraps every public function of
hilbert, model, analytic, dynamics, spectra and verify in a span recorder,
rebinds each wrapper in every package module that holds the function (so
`dynamics.liouvillian_matrix` is traced as well as `model.liouvillian_matrix`),
runs `cli.main` with the remaining arguments inside a `cli.main` span, and
writes the spans to SPANS_JSON when the call ends:

    python3 perfbench/tracing.py SPANS_JSON <rabi-relax arguments>

A span is [name, start_ns, end_ns, parent_index, note]; parent_index is -1 at
the top. Spans stay in memory until the call ends. `layer_metrics` turns the
span lists of several calls into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("hilbert", "model", "analytic", "dynamics", "spectra", "verify")
VERIFY_CHECKS = ("check_jc_spectrum", "check_ajc_spectrum", "check_doublet_dynamics",
                 "check_conservation", "check_decoupled_decay", "check_exceptional_point",
                 "check_peak_positions", "check_truncation")

# (metric, unit); the order is the order of the benchmark's per_layer list
PER_LAYER = (
    [("model.liouvillian_matrix.s", "s"), ("model.liouvillian_matrix.calls", "count"),
     ("model.liouvillian_matrix.bytes", "B"),
     ("dynamics.steady_state.null_space.self_s", "s"),
     ("dynamics.steady_state.null_space.calls", "count"),
     ("dynamics.steady_state.long_time.self_s", "s"),
     ("dynamics.steady_state.long_time.calls", "count"),
     ("dynamics.evolve_master.self_s", "s"), ("dynamics.evolve_master.calls", "count"),
     ("dynamics.evolve_master.samples", "count"),
     ("dynamics.evolve_effective.self_s", "s"), ("dynamics.evolve_effective.calls", "count"),
     ("dynamics.truncation_check.s", "s"),
     ("spectra.complex_spectrum.s", "s"), ("spectra.complex_spectrum.calls", "count"),
     ("spectra.sweep_spectrum.self_s", "s"),
     ("spectra.find_avoided_crossings.self_s", "s"),
     ("spectra.find_avoided_crossings.eig_calls", "count"),
     ("spectra.find_avoided_crossings.events", "count"),
     ("spectra.find_exceptional_point.self_s", "s"),
     ("spectra.find_exceptional_point.eig_calls", "count")]
    + [(f"verify.{check}.s", "s") for check in VERIFY_CHECKS]
    + [("cli.main.self_s", "s"), ("model.build_hamiltonian.s", "s"),
       ("model.build_effective_hamiltonian.s", "s"), ("hilbert.s", "s"), ("analytic.s", "s"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        """fn with a span around each call; name may be a function of the call's arguments.

        note(args, kwargs, result) stores a count on the span (e.g. bytes built).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name(args, kwargs) if callable(name) else name, 0, 0,
                    stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _steady_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "long_time")
    return f"dynamics.steady_state.{method}"


def _built_bytes(cached):
    """Bytes of each Liouvillian actually built (a cache miss), 0 on a hit."""
    seen = [cached.cache_info().misses]

    def note(args, kwargs, result):
        misses = cached.cache_info().misses
        built, seen[0] = misses > seen[0], misses
        return int(result.nbytes) if built else 0

    return note


def _sample_count(args, kwargs, result):
    grid = kwargs.get("t_grid", args[2] if len(args) > 2 else None)
    return len(grid) if hasattr(grid, "__len__") else 1


def _event_count(args, kwargs, result):
    return len(result)


def install(tracer: Tracer):
    """Rebind every public function of the package's layers to a traced wrapper."""
    import importlib

    package = importlib.import_module("rabi_relax")
    layers = [importlib.import_module(f"rabi_relax.{name}") for name in LAYERS]
    holders = [package, importlib.import_module("rabi_relax.cli")] + layers
    for layer in layers:
        short = layer.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(layer).items()):
            if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                    or getattr(fn, "__module__", None) != layer.__name__):
                continue
            name, note = f"{short}.{attr}", None
            if name == "dynamics.steady_state":
                name = _steady_name
            elif name == "model.liouvillian_matrix":
                note = _built_bytes(fn)
            elif name == "dynamics.evolve_master":
                note = _sample_count
            elif name == "spectra.find_avoided_crossings":
                note = _event_count
            traced = tracer.wrap(name, fn, note)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics summed over the span lists of several calls.

    `.s` is the inclusive time of a function, `.self_s` its time minus the time
    covered by its child spans; `hilbert.s` and `analytic.s` count the
    outermost span of each nest of calls into that module.
    """
    out = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_s"}

    def add(key, value):
        if key in out:
            out[key] += value

    for spans in span_lists:
        children = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for idx, (name, start, end, parent, note) in enumerate(spans):
            dur = (end - start) / 1e9
            layer = name.split(".", 1)[0]
            if layer in ("hilbert", "analytic"):
                if parent < 0 or not spans[parent][0].startswith(layer + "."):
                    add(f"{layer}.s", dur)
                continue
            add(f"{name}.s", dur)
            add(f"{name}.self_s", dur - children[idx] / 1e9)
            add(f"{name}.calls", 1)
            if name == "model.liouvillian_matrix":
                add(f"{name}.bytes", note)
            elif name == "dynamics.evolve_master":
                add(f"{name}.samples", note)
            elif name == "spectra.find_avoided_crossings":
                add(f"{name}.events", note)
            elif name == "spectra.complex_spectrum":
                up = parent
                while up >= 0:
                    add(f"{spans[up][0]}.eig_calls", 1)
                    up = spans[up][3]
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from rabi_relax import cli

    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
