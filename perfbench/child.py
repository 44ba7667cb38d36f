"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python -I child.py ROOT SPEC_JSON RESULT_JSON

SPEC_JSON names the experiment, the config file, the output table and
whether to trace.  The child imports ``gqclab.cli`` from ROOT/src, validates
the config (the end of set-up), then times one ``gqclab.cli.main`` call,
with the reference computation of ``reference.py`` timed right before and
right after it, and writes its measurements to RESULT_JSON.  The reference
adds at most 4 MiB to the imported program, less than any workload's call,
so ``ru_maxrss`` is still the call's peak.
"""

import json
import os
import resource
import sys
import time


def main(root, spec_path, result_path):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import gqclab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"gqclab imported from {cli.__file__}, not from {src}")
    with open(spec_path) as f:
        spec = json.load(f)
    with open(spec["config"]) as f:
        cli.validate_config(json.load(f), experiment=spec["experiment"])
    ready = time.monotonic()
    from reference import reference_seconds

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    argv = [spec["experiment"], "--config", spec["config"], "--out", spec["out"]]
    reference_before = reference_seconds()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    reference_after = reference_seconds()
    result = {
        "ready_monotonic": ready,
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "maxrss_kib": cpu1.ru_maxrss,
        "reference_before_s": reference_before,
        "reference_after_s": reference_after,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:4])
