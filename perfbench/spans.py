"""Spans around the public functions of each gqclab layer, from outside it.

The package's modules import each other with ``from .x import y``, so a
function has one binding per importing module and patching only the
defining module misses most calls.  ``Tracer.install`` therefore replaces
every binding of each wrapped function in every loaded ``gqclab`` module
and reports the binding sites it patched.  Spans stay in memory until
``Tracer.write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

#: layer -> public functions wrapped in that layer
WRAPPED = {
    "noise": ("split_seed", "realization_rng", "make_noise_ensemble",
              "make_noise_path", "estimate_autocorrelation"),
    "adiabatic": ("eigenframe", "evolve_exact_batch", "stochastic_phase_batch"),
    "ensemble": ("run_ensemble", "decoherence_report", "overlap_integral"),
    "gate": ("bell_gate_run", "gate_overlap_sum", "realized_conditional_phase"),
    "shor": ("find_period", "prob_averaged", "success_probability"),
    "cli": ("validate_config", "run"),
}


def _output_bytes(arguments, result):
    out = result["output"]
    return os.path.getsize(out) + os.path.getsize(f"{out}.manifest.json")


#: span name -> {work counter: f(bound arguments, result)}; the work each
#: call did, counted where it happens.  Bytes are computed bytes (elements
#: x 8 B), not measured memory traffic.
WORK = {
    "noise.make_noise_ensemble": {
        "samples": lambda a, r: r.size,
        "realizations": lambda a, r: r.shape[0],
    },
    "adiabatic.eigenframe": {"points": lambda a, r: r.times.size},
    "adiabatic.evolve_exact_batch": {
        "slice_steps": lambda a, r: a["noise_samples"].shape[0] * a["slices"],
    },
    "shor.prob_averaged": {"outcomes": lambda a, r: int(np.size(a["c"]))},
    "shor.success_probability": {
        "useful_outcomes": lambda a, r: len(r.success_outcomes),
    },
    "cli.run": {"output_bytes": _output_bytes},
}


class Tracer:
    """Collects spans ``(name, start, end, parent)`` and per-name totals."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.calls = {}
        self.busy_s = {}
        self.self_s = {}
        self.work = {}
        self.sites = []
        self._stack = []  # [span index, seconds covered by child spans]

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.busy_s[name] = 0.0
        self.self_s[name] = 0.0
        counters = WORK.get(name, {})
        for counter in counters:
            self.work[f"{name}.{counter}"] = 0
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name_id, start, end, parent)
                self.calls[name] += 1
                self.busy_s[name] += duration
                self.self_s[name] += duration - frame[1]
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, count in counters.items():
                    self.work[f"{name}.{counter}"] += count(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every function in WRAPPED; return the sites."""
        originals = {}
        for layer, functions in WRAPPED.items():
            module = importlib.import_module(f"gqclab.{layer}")
            for fn_name in functions:
                fn = getattr(module, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gqclab" and not mod_name.startswith("gqclab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.sites.append(f"{mod_name}.{attr}")
        return self.sites

    def summary(self):
        return {
            "calls": self.calls,
            "s": self.busy_s,
            "self_s": self.self_s,
            "work": self.work,
            "sites": self.sites,
        }

    def write_spans(self, path):
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans}, f)
