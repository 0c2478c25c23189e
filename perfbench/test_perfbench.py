"""Tests of the benchmark itself, on the seconds-scale smoke scenarios.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run

assert not run.import_paths(), "run from a repository checkout"

import measure
import numpy as np
import workloads
from repro.sweep import SnSolver
from spans import Target, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def smoke(monkeypatch):
    """Point the CLI's workloads at the smoke scenarios."""
    monkeypatch.setattr(workloads, "SCENARIOS", workloads.SMOKE)


def _main(capsys, *argv):
    rc = run.main([*argv, "--seconds", "0.5"])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


def test_spec_names_every_printed_metric_with_its_unit():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SCENARIOS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.LAYER_UNITS
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("name", list(workloads.SMOKE))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_clean_run_passes_and_reports_every_metric(smoke, capsys, name, trace):
    rc, res = _main(capsys, "--workload", name, "--seed", "3", "--trace", trace)
    assert rc == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    if trace == "0":
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tampered_flux_bit_is_counted_as_failure(smoke, capsys, monkeypatch):
    accumulate = SnSolver.accumulate

    def tampered(self, faces):
        phi, leak = accumulate(self, faces)
        bits = phi.view(np.uint64)
        bits.flat[bits.size // 2] ^= np.uint64(1)
        return phi, leak

    monkeypatch.setattr(SnSolver, "accumulate", tampered)
    rc, res = _main(capsys, "--workload", "ball-faults", "--seed", "3", "--trace", "0")
    assert rc != 0
    assert res["correct"] is False
    assert 0 < res["failed"] < res["attempted"]  # sweeps fail; set-ups, solves pass


def test_traced_children_nest_in_parents_and_classes_are_restored():
    originals = {
        (t.attr, owner): owner.__dict__[t.attr]
        for t in measure.TARGETS
        for owner in [next(k for k in t.cls.__mro__ if t.attr in k.__dict__)]
    }
    wl = workloads.Workload("ball-faults", 3, smoke=True)
    tracer = Tracer()
    tally = measure.Tally()
    measure.per_layer(wl, 0.1, tally, tracer)
    assert tally.failed == 0
    for (attr, owner), fn in originals.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} left wrapped"

    start, end, parent = tracer.start, tracer.end, tracer.parent
    covered = [0.0] * len(tracer)
    for i in range(len(tracer)):
        p = parent[i]
        assert start[i] <= end[i]
        if p >= 0:
            assert tracer.run[i] == tracer.run[p]
            assert start[p] <= start[i] and end[i] <= end[p]
            covered[p] += end[i] - start[i]
    for i in range(len(tracer)):
        assert covered[i] <= (end[i] - start[i]) * (1 + 1e-9)
    called = {n for run_stats in tracer.stats_by_run().values() for n in run_stats}
    assert {t.name for t in measure.TARGETS} <= called  # every layer was seen


def test_self_time_subtracts_direct_children_and_restores_on_error():
    ticks = iter(range(100))

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

        def boom(self):
            raise ValueError

    original = Layer.__dict__["inner"]
    tracer = Tracer(clock=lambda: float(next(ticks)))
    targets = [Target(Layer, "outer", "outer"), Target(Layer, "inner", "inner"),
               Target(Layer, "boom", "boom")]
    with tracer.installed(targets):
        Layer().outer()
    with pytest.raises(ValueError), tracer.installed(targets):
        Layer().boom()
    assert Layer.__dict__["inner"] is original
    stats = tracer.stats_by_run()[0]
    # outer spans ticks 0..5, each inner one tick: self = 5 - 2.
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 5.0, 3.0)
    assert (stats["inner"].calls, stats["inner"].self_s) == (2, 2.0)
    assert stats["boom"].calls == 1


def test_exits_nonzero_without_the_program_next_to_it(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ball", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
