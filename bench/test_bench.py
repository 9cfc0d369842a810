"""Self-test of the benchmark, at reduced sizes.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "lv_smc": lambda: workloads.LvSmc(particles=200, seeds_per_unit=2),
    "sir_select": lambda: workloads.SirSelect(  # N=100 takes minutes
        particles=500, max_proposals=workloads.SIR_SELECT_BUDGET),
    "mixture_smc": lambda: workloads.MixtureSmc(particles=300, seeds_per_unit=5),
    "lv_ssa_forward": lambda: workloads.LvSsaForward(rows=2),
}


@pytest.fixture
def work():
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _assert_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _attributes():
    """Every attribute of the instrumented modules and classes, by identity."""
    owners = list(tracer.MODULES) + [
        tracer.samplers.AcceptanceTest, tracer.core.PriorSpec, tracer.core.KernelSpec]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_every_listed_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_end_to_end_metrics(name, work):
    result = run.measure(SMALL[name](), seed=3, seconds=0, import_s=0.0, work=work, min_units=1)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_plain_run(name, work):
    before = _attributes()
    result = run.measure_traced(SMALL[name](), seed=3, seconds=0, work=work)
    assert _attributes() == before  # every wrapped attribute was restored
    assert result["correct"], result  # includes byte-identical outputs
    _assert_metrics(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["samplers.waste_ratio"] >= 1.0  # sims_executed >= sims_counted
    assert m["trace.overhead"] > 0


def test_forced_failure_is_counted(work):
    result = run.measure(workloads.LvSmc(particles=200, max_proposals=50), seed=3,
                         seconds=0, import_s=0.0, work=work, min_units=1)
    assert result["correct"]  # stopping at the budget fails the operation, not the output
    assert result["failed"] == result["attempted"] >= 1


def test_no_unit_starts_after_the_deadline(work):
    result = run.measure(workloads.LvSsaForward(rows=2), seed=3, seconds=0, import_s=0.0,
                         work=work, min_units=3, deadline=0.0)
    assert result["attempted"] == 1


def test_missed_criterion_fails_the_operation_but_not_the_run(work):
    (work / "model_counts.csv").write_text(
        "population,model_1,model_2,model_3,model_4\n10,0,0,0,500\n")
    errors, misses = workloads.SirSelect(particles=500).check(work)
    assert errors == [] and len(misses) == 1  # model 1 died out

    class Missing(workloads.LvSsaForward):
        def evaluate(self, prepared, result):
            return workloads.Outcome(1, 1, 2, "", [], ["missed on purpose"])

    result = run.measure(Missing(rows=2), seed=3, seconds=0, import_s=0.0, work=work,
                         min_units=2)
    assert result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_refuses_to_run_without_sources(work):
    (work / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, work / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lv_smc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
