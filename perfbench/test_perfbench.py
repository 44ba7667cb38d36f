"""Tests of the benchmark itself: output checks, tracing coverage, set-up.

    python3 -m pytest perfbench -q

The traced-count test runs each workload once in a fresh interpreter and
takes about half a minute.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Z_MAX, ZERO_NOISE_ALLOWANCE  # noqa: E402

# tables written by the seed code at each workload's default seed
SEED_TABLES = {
    "agp-sweep": """\
sigma2_field2,variance_rad2,overlap_s2,d_mc_abs,d_mc_se,d_analytic,magnitude_mc,magnitude_analytic,gamma_a_rad,onset_ratio
0.0,0.0,0.16546586615379777,0.9999215390228798,1.3178612742917946e-15,1.0,0.9999215390228798,1.0,193.71681469282035,0.0
50.0,2.068323326922472,0.16546586615379777,0.3450567950974791,0.010308062276854744,0.3555243050425019,0.3450567950974791,0.3555243050425019,193.71681469282035,0.05239124190971071
200.0,8.273293307689888,0.16546586615379777,0.010360856497381339,0.01084010461072794,0.01597633596321477,0.010360856497381339,0.01597633596321477,193.71681469282035,0.20956496763884283
""",
    "gate-exact": """\
sigma2_field2,variance_rad2,d_mc,d_analytic,f_mc,f_mc_se,f_closed_form,conditional_phase_rad,onset_ratio
5.0,1.043773982405762,0.635996909921702,0.5933997507260844,0.8165293845414124,0.017037279371246893,0.7966998753630422,0.0,0.02643910383810711
20.0,4.175095929623048,0.1899399961420227,0.1239907931639461,0.5899405269700786,0.021620794759573386,0.5619953965819731,0.0,0.10575641535242844
""",
    "shor-scan": """\
modulus,base,log2_modulus,period,register_size,bits,variance_rad2,success_probability,runs_needed,regime,flagged
1023,2,9.99859042974533,10,1048576,20,0.0,0.2895857864592258,3.4532081571648607,noiseless,false
1023,2,9.99859042974533,10,1048576,20,39.47841760435743,3.814697265627073e-06,262143.99999985757,decohered,false
1517,2,10.567005370247033,180,4194304,22,0.0,0.20660525812659672,4.840147869747115,noiseless,false
1517,2,10.567005370247033,180,4194304,22,2.0,0.0279708764291286,35.75147180438757,partial,false
2021,2,10.980853606379736,322,4194304,22,2.0,0.04303628398495131,23.236206925990043,partial,false
2021,2,10.980853606379736,322,4194304,22,8.0,0.00013806952560924428,7242.727861831998,partial,false
2047,2,10.99929538702341,11,4194304,22,8.0,0.00023180827753591375,4313.909799209268,partial,false
2047,2,10.99929538702341,11,4194304,22,39.47841760435743,2.3841857910205196e-06,419430.39999913896,decohered,false
""",
    "noise-long": """\
lag_s,autocovariance_field2,standard_error_field2,expected_field2
0.0,1.000542650323013,0.000706292011611438,1.0
0.05,0.3681892915025289,0.0006040129098152672,0.36787944117144233
0.1,0.1357145002483787,0.0005374966779654248,0.1353352832366127
0.15,0.05021412204919269,0.0005029157598407159,0.049787068367863965
""",
}

#: (workload, row, column to corrupt, column holding its SE or None)
CORRUPTIONS = [
    ("agp-sweep", 1, "d_mc_abs", "d_mc_se"),
    ("agp-sweep", 2, "d_mc_abs", "d_mc_se"),
    ("gate-exact", 0, "f_mc", "f_mc_se"),
    ("noise-long", 1, "autocovariance_field2", "standard_error_field2"),
    ("shor-scan", 3, "success_probability", None),
    ("shor-scan", 7, "runs_needed", None),
]


def _rows(name):
    return list(csv.DictReader(io.StringIO(SEED_TABLES[name])))


def _check(name, rows):
    workload = WORKLOADS[name]
    return workload.check(rows, workload.make_config(workload.default_seed))


@pytest.mark.parametrize("name", sorted(SEED_TABLES))
def test_seed_tables_pass(name):
    result = _check(name, _rows(name))
    assert result.ok, result.problems
    assert result.max_abs_z < 2.0


def test_zero_noise_residual_recorded():
    result = _check("agp-sweep", _rows("agp-sweep"))
    assert result.zero_noise_residual == pytest.approx(7.846e-5, rel=1e-3)


@pytest.mark.parametrize("name,row,column,se_column", CORRUPTIONS)
def test_corrupted_value_rejected(name, row, column, se_column):
    rows = _rows(name)
    value = float(rows[row][column])
    if se_column is None:
        shifted = value * (1 + 1e-9)  # far below any visible rounding
    else:
        # seed rows sit within 2 SE, so this lands beyond Z_MAX
        shifted = value + (Z_MAX + 3.0) * float(rows[row][se_column])
    rows[row][column] = repr(shifted)
    assert not _check(name, rows).ok


def test_zero_noise_row_beyond_allowance_rejected():
    rows = _rows("agp-sweep")
    rows[0]["d_mc_abs"] = repr(1.0 - 2 * ZERO_NOISE_ALLOWANCE)
    assert not _check("agp-sweep", rows).ok


@pytest.mark.parametrize("name,row,column,se_column", CORRUPTIONS)
def test_truncated_or_malformed_table_rejected(name, row, column, se_column):
    rows = _rows(name)
    assert not _check(name, rows[:-1]).ok
    rows[row][column] = "nan"
    assert not _check(name, rows).ok
    del rows[row][column]
    assert not _check(name, rows).ok


def test_changed_shor_regime_rejected():
    rows = _rows("shor-scan")
    rows[1]["regime"] = "partial"
    assert not _check("shor-scan", rows).ok


def test_every_declared_metric_is_named_once():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_times_are_scaled_to_the_host_speed():
    """A host twice as slow doubles raw times but leaves scaled ones alone."""
    import run

    def sample(wall, setup, reference):
        s = {"ok": True, "wall_s": wall, "setup_s": setup, "maxrss_kib": 2048,
             "reference_before_s": reference, "reference_after_s": reference}
        run.scale_to_reference(s)
        return s

    quiet = [sample(2.0, 1.0, run.REFERENCE_NOMINAL_S) for _ in range(3)]
    slow = [sample(4.0, 2.0, 2 * run.REFERENCE_NOMINAL_S) for _ in range(3)]
    assert run.end_to_end_metrics(quiet) == pytest.approx(
        {"wall_s": 2.0, "setup_s": 1.0, "peak_rss_mib": 2.0})
    assert run.end_to_end_metrics(slow) == run.end_to_end_metrics(quiet)


def test_reference_leaves_peak_rss_alone():
    """The reference runs before the sampled call, so it must stay well
    below the smallest workload's peak above the imported program (~14 MiB)."""
    code = (
        "import resource, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import gqclab.cli\n"
        "from reference import reference_seconds\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "reference_seconds()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(BENCH.parent / "src"), str(BENCH)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(proc.stdout) < 6 * 1024  # KiB


@pytest.fixture(scope="module")
def traced_samples():
    import run

    out = {}
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        for name, workload in WORKLOADS.items():
            (workdir / name).mkdir()
            runner = run.Runner(workload, workload.default_seed, workdir / name)
            out[name] = runner.sample(trace=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_match_seed_code(traced_samples, name):
    sample = traced_samples[name]
    assert sample["ok"], sample["problems"]
    trace = sample["trace"]
    counts = {f"{fn}.calls": n for fn, n in trace["calls"].items()}
    counts.update(trace["work"])
    for key, expected in WORKLOADS[name].seed_counts.items():
        assert counts[key] == expected, key


def test_every_binding_site_is_wrapped(traced_samples):
    sites = set(traced_samples["agp-sweep"]["trace"]["sites"])
    expected = {
        f"gqclab.{module}.{fn}"
        for fn, modules in {
            "eigenframe": ("adiabatic", "ensemble", "gate", "cli"),
            "make_noise_ensemble": ("noise", "ensemble", "gate"),
            "split_seed": ("noise", "ensemble", "cli"),
            "evolve_exact_batch": ("adiabatic", "ensemble", "gate"),
            "stochastic_phase_batch": ("adiabatic", "ensemble", "gate"),
            "overlap_integral": ("ensemble", "gate"),
        }.items()
        for module in modules
    }
    assert expected <= sites, sorted(expected - sites)


def test_fails_without_program_sources():
    """Beside BENCHMARK.json and perfbench/ alone, the benchmark prints no result."""
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    try:
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "agp-sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
