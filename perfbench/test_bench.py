"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_bench.py

Each workload runs two instances, untraced and traced, through the same
code as a full run; the checks are that every metric named in
BENCHMARK.json is printed with its unit, that the program passes every
exact check, and that a wrong expected verdict counts as a failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every run to the two cheapest instances."""
    monkeypatch.setattr(workloads, "schedule",
                        lambda name, seed: workloads.strata_order(name)[:2])
    monkeypatch.setattr(run, "OUT_DIR",
                        HERE.parent / ".perfbench_out" / "selftest")


def _result(out, expected):
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert "fail_ratio 0 ratio" in out
    for m in expected:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(
            f" {m['unit']}") for line in out.splitlines()), m["name"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    return last


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_printed_and_exact(name, tiny, capsys):
    run.bench_untraced(workloads, name, 5, 0, 0.0)
    last = _result(capsys.readouterr().out, SPEC["end_to_end"])
    assert last["attempted"] == 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_printed_and_counts_repeat(name, tiny, capsys):
    run.bench_traced(workloads, name, 5)
    last = _result(capsys.readouterr().out, SPEC["per_layer"])
    assert last["attempted"] == 6       # untraced pass and two traced passes
    calls = sum(v["value"] for k, v in last["metrics"].items()
                if k.endswith(".calls"))
    assert calls > 0


def test_wrong_expected_verdict_is_a_failure(capsys):
    index = workloads.SIMPLICITY_KINDS.index("planted-simple")
    inst = workloads.make_instance("simplicity", index)
    assert inst.expected is True
    wrong = dataclasses.replace(inst, expected=False)
    times, _, failures, errors = run.run_instances(workloads, [inst, wrong])
    assert len(times) == 2 and len(failures) == 1 and not errors
    run.report(not failures, len(times), failures, errors, {})
    out = capsys.readouterr().out
    assert "fail_ratio 0.5 ratio" in out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_exception_is_caught_inside_its_instance():
    inst = workloads.make_instance("geodesic", 0)
    broken = dataclasses.replace(inst, data=(None, None, ()))
    times, _, failures, errors = run.run_instances(workloads, [broken])
    assert len(times) == 1 and len(failures) == 1
    assert errors == {"AttributeError": 1}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "simplicity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
