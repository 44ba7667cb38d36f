"""Benchmark of the gqclab CLI: four workloads, timed from outside the program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a checkout; the program is imported from ``src/``.
Every sample is one fresh interpreter (``child.py``) that imports
``gqclab.cli``, validates the config and makes one ``gqclab.cli.main`` call,
one experiment at a time (a closed loop with one client).  Samples repeat
while the next one, if it takes as long as the last, ends within
``--seconds``, and at least MIN_SAMPLES times.  Every output table is
checked against its closed form (``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s``, the median time of one ``main`` call; ``setup_s``, the median
time from process start until ``gqclab.cli`` is imported and the config
validated; and ``peak_rss_mib``, the median ``ru_maxrss`` of the sampled
processes.  ``failed_share`` (failed samples / samples attempted) is
printed with them.  Other tenants of a shared host slow every process by
up to a third for seconds to minutes at a time, so the times are scaled to
the host's speed, measured by a fixed reference computation
(``reference.py``) that each sample times right before and right after its
call: ``wall_s`` is the median of the calls, each scaled by the mean of its
two reference times, and ``setup_s`` the median set-up scaled by the median
reference time of the run.  The unscaled medians are printed and recorded
too.  Over ten runs of 30 s per workload on a 2-vCPU Xeon VM, the
interquartile spread of ``wall_s`` was 0.035-0.098 of its median scaled and
0.078-0.398 unscaled.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics: busy and self seconds, calls and computed work of the
public functions wrapped by ``spans.py``, per-module import time from
``python -X importtime``, CPU time, and the tracing overhead (traced minus
untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with provenance and every sample, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
from reference import REFERENCE_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, read_table  # noqa: E402

#: samples per timed run at least, whatever --seconds says
MIN_SAMPLES = 3
#: (untraced, traced) sample pairs per traced run at least
MIN_TRACE_PAIRS = 2
#: a single sample that takes longer than this has failed
CHILD_TIMEOUT_S = 150
#: modules whose cumulative import time is reported as <layer>.import_s
LAYERS = ("noise", "adiabatic", "ensemble", "gate", "shor", "cli")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def provenance(workload, seed, trace):
    """Which code ran, on what, with which seed."""
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(
            os.environ,
            GIT_CEILING_DIRECTORIES=str(ROOT.parent),
            GIT_OPTIONAL_LOCKS="0",
            GIT_CONFIG_NOSYSTEM="1",
            GIT_CONFIG_GLOBAL=os.devnull,
        )
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                env=env, capture_output=True, text=True,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


class Runner:
    """Spawns samples of one workload in a scratch directory of its own."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.config = workload.make_config(seed)
        self.workdir = Path(workdir)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        self.count = 0

    def _child(self, trace):
        self.count += 1
        tag = f"{self.count:04d}"
        spec = {
            "trace": trace,
            "experiment": self.config["experiment"],
            "config": str(self.config_path),
            "out": str(self.workdir / f"table-{tag}.csv"),
            "spans": str(self.spans_path),
        }
        spec_path = self.workdir / f"spec-{tag}.json"
        result_path = self.workdir / f"result-{tag}.json"
        spec_path.write_text(json.dumps(spec))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(CHILD), str(ROOT), str(spec_path),
                 str(result_path)],
                cwd=self.workdir, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"ok": False,
                    "problems": [f"exit code {proc.returncode}: " + " | ".join(tail)]}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result.pop("ready_monotonic") - spawned
        result["table"] = spec["out"]
        result["ok"] = True
        result["problems"] = []
        return result

    def sample(self, trace=False):
        result = self._child(trace)
        if not result["ok"]:
            return result
        scale_to_reference(result)
        if result["exit_code"] != 0:
            result["ok"] = False
            result["problems"].append(f"gqclab exited with {result['exit_code']}")
            return result
        check = self.workload.check(read_table(result["table"]), self.config)
        result.update(ok=check.ok, problems=check.problems,
                      max_abs_z=check.max_abs_z,
                      zero_noise_residual=check.zero_noise_residual)
        return result

    def import_times(self):
        """Cumulative import seconds per gqclab module, from -X importtime."""
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gqclab.cli"
        proc = subprocess.run(
            [sys.executable, "-I", "-X", "importtime", "-c", code],
            cwd=self.workdir, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"import failed: {proc.stderr.strip()[-300:]}")
        times = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+gqclab\.(\w+)$", line)
            if m:
                times[m.group(2)] = int(m.group(1)) * 1e-6
        return {layer: times.get(layer, 0.0) for layer in LAYERS}


def scale_to_reference(sample):
    """Scale the call's time by the host's speed over it (``reference.py``)."""
    sample["reference_s"] = (sample["reference_before_s"]
                             + sample["reference_after_s"]) / 2
    sample["scaled_wall_s"] = (sample["wall_s"] * REFERENCE_NOMINAL_S
                               / sample["reference_s"])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(samples):
    good = [s for s in samples if s["ok"]]
    if not good:
        return {}
    # set-up is not bracketed by reference times, so it is scaled by the
    # host's speed over the whole run
    run_reference_s = _median(
        [t for s in good for t in (s["reference_before_s"], s["reference_after_s"])])
    return {
        "wall_s": _median([s["scaled_wall_s"] for s in good]),
        "setup_s": (_median([s["setup_s"] for s in good])
                    * REFERENCE_NOMINAL_S / run_reference_s),
        "peak_rss_mib": _median([s["maxrss_kib"] / 1024.0 for s in good]),
    }


def unscaled_medians(samples):
    good = [s for s in samples if s["ok"]]
    return {key: _median([s[key] for s in good])
            for key in ("wall_s", "setup_s", "reference_s")}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(untraced, traced, import_times):
    """Per-layer metrics from the traced samples; times are medians."""
    first = traced[0]["trace"]
    calls, work = first["calls"], first["work"]
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        for key in ("s", "self_s"):
            metrics[f"{name}.{key}"] = _median([t["trace"][key][name] for t in traced])
    metrics.update(work)
    slice_steps = work["adiabatic.evolve_exact_batch.slice_steps"]
    outcomes = work["shor.prob_averaged.outcomes"]
    metrics.update({
        "noise.split_seed.per_realization": _ratio(
            calls["noise.split_seed"], work["noise.make_noise_ensemble.realizations"]),
        "noise.make_noise_ensemble.bytes_computed":
            8 * work["noise.make_noise_ensemble.samples"],
        "adiabatic.evolve_exact_batch.slice_steps_per_s": _ratio(
            slice_steps, metrics["adiabatic.evolve_exact_batch.s"]),
        "gate.evolve_calls_per_run": _ratio(
            calls["adiabatic.evolve_exact_batch"], calls["gate.bell_gate_run"]),
        "shor.prob_averaged.bytes_computed": 8 * outcomes,
        "shor.useful_outcome_ratio": _ratio(
            work["shor.success_probability.useful_outcomes"], outcomes),
        "cli.output_bytes": _median(
            [t["trace"]["work"]["cli.run.output_bytes"] for t in traced]),
        "cpu_s": _median([s["cpu_s"] for s in untraced]),
        "trace.overhead_s": _median([s["scaled_wall_s"] for s in traced])
        - _median([s["scaled_wall_s"] for s in untraced]),
    })
    for layer in LAYERS:
        metrics[f"{layer}.import_s"] = _median([t[layer] for t in import_times])
    return metrics


def _repeatable_counts(sample):
    trace = sample["trace"]
    work = {k: v for k, v in trace["work"].items() if k != "cli.run.output_bytes"}
    return trace["calls"], work  # output bytes vary with the manifest's clock


def _rounds(seconds, minimum):
    """Count rounds while the next, if as long as the last, ends in time."""
    deadline = time.monotonic() + seconds
    done, last = 0, 0.0
    while done < minimum or time.monotonic() + last <= deadline:
        started = time.monotonic()
        yield done
        last = time.monotonic() - started
        done += 1


def run_timed(runner, seconds):
    samples = [runner.sample() for _ in _rounds(seconds, MIN_SAMPLES)]
    return samples, end_to_end_metrics(samples)


def run_traced(runner, seconds):
    untraced, traced, import_times = [], [], []
    for _ in _rounds(seconds, MIN_TRACE_PAIRS):
        import_times.append(runner.import_times())
        plain = runner.sample()
        spanned = runner.sample(trace=True)
        if plain["ok"] and spanned["ok"]:
            reference = next((t for t in traced if t["ok"]), spanned)
            if Path(plain["table"]).read_bytes() != Path(spanned["table"]).read_bytes():
                spanned["ok"] = False
                spanned["problems"].append("traced table differs from untraced table")
            elif _repeatable_counts(spanned) != _repeatable_counts(reference):
                spanned["ok"] = False
                spanned["problems"].append("traced counts did not repeat")
        untraced.append(plain)
        traced.append(spanned)
    good_untraced = [s for s in untraced if s["ok"]]
    good_traced = [s for s in traced if s["ok"]]
    metrics = {}
    if good_untraced and good_traced:
        metrics = layer_metrics(good_untraced, good_traced, import_times)
    return untraced + traced, metrics


def seed_count_notes(workload, metrics):
    """Differences from the counts derived from the seed code (informational).

    A wrapped binding site that ``spans.py`` missed shows up here on the seed
    code; a program change that removes calls on purpose shows up too.
    """
    notes = []
    for name, expected in workload.seed_counts.items():
        if metrics[name] != expected:
            notes.append(f"{name} = {metrics[name]}, seed code made {expected}")
    return notes


def declared_metrics(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    if seed is None:
        seed = workload.default_seed
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        runner = Runner(workload, seed, workdir)
        if trace:
            samples, computed = run_traced(runner, seconds)
        else:
            samples, computed = run_timed(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    good = [s for s in samples if s["ok"]]
    if not computed or not good:
        problems = [p for s in samples for p in s["problems"]]
        raise BenchmarkError(f"{name}: no sample succeeded: {problems[:3]}")

    units = declared_metrics("per_layer" if trace else "end_to_end")
    missing = sorted(set(units) - set(computed))
    if missing:
        raise BenchmarkError(f"BENCHMARK.json names metrics not computed: {missing}")
    failed = len(samples) - len(good)
    record = {
        "provenance": provenance(name, seed, trace),
        "run_seconds": seconds,
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "failed_share": failed / len(samples),
        "max_abs_z": max(s.get("max_abs_z", 0.0) for s in good),
        "zero_noise_residual": max(s.get("zero_noise_residual", 0.0) for s in good),
        "unscaled_medians": unscaled_medians(samples),
        "problems": [p for s in samples for p in s["problems"]],
        "metrics": {k: {"value": computed[k], "unit": u} for k, u in units.items()},
        "samples": [{k: v for k, v in s.items() if k not in ("trace", "table")}
                    for s in samples],
    }
    if trace:
        record["all_layer_metrics"] = computed
        record["seed_count_notes"] = seed_count_notes(workload, computed)
        record["binding_sites"] = next(
            s["trace"]["sites"] for s in reversed(good) if "trace" in s)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def print_record(record):
    p = record["provenance"]
    print(f"{p['workload']} seed={p['seed']} trace={p['trace']}: "
          f"{record['attempted']} samples, {record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':<48} {record['failed_share']:>14.6g} ratio")
    unscaled = record["unscaled_medians"]
    print(f"  unscaled medians: wall {unscaled['wall_s']:.4g} s, set-up "
          f"{unscaled['setup_s']:.4g} s, reference {unscaled['reference_s']:.4g} s "
          f"(nominal {REFERENCE_NOMINAL_S:g} s)")
    print(f"  largest |z| {record['max_abs_z']:.3f}, zero-noise residual "
          f"{record['zero_noise_residual']:.3g}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    for note in record.get("seed_count_notes", []):
        print(f"  note: {note}")
    print("provenance " + json.dumps(p))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so that a running sample is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gqclab" / "cli.py").is_file():
        print(f"no gqclab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_record(record)
    if args.workload != "all":
        record = records[0]
        print(json.dumps({key: record[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
