"""Tests of the benchmark itself: the smoke mode, the output gate, repeatable
trace counts and the refusal to run without the program's sources.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tracer import is_count, metric_units  # noqa: E402
from workloads import (  # noqa: E402
    basis_permutation,
    cuntz_krieger_mismatch,
    determinant,
    first_mismatch,
)


def smoke(*extra):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


def metric_lines(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split(" ")
            out[(workload, name)] = (float(value), unit)
    return out


@pytest.fixture(scope="module")
def two_smoke_runs():
    return smoke("--seed", "5"), smoke("--seed", "5")


def test_smoke_passes_and_prints_every_metric_with_its_unit(two_smoke_runs):
    run = two_smoke_runs[0]
    assert run.returncode == 0, run.stdout + run.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = metric_lines(run.stdout)
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert metrics[(workload, m["name"])][1] == m["unit"]


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == metric_units()
    assert len(listed) < 128


def test_trace_counts_repeat_exactly_for_a_seed(two_smoke_runs):
    first, second = (metric_lines(r.stdout) for r in two_smoke_runs)
    counts = {k: v for k, v in first.items() if is_count(k[1]) and k[1] != "peak_rss_mb"}
    assert counts
    assert counts == {k: second[k] for k in counts}


def test_no_smoke_job_reaches_the_bigint_path(two_smoke_runs):
    for (workload, name), (value, _) in metric_lines(two_smoke_runs[0].stdout).items():
        if name.endswith((".obj.calls", ".promoted.calls")):
            assert value == 0, (workload, name)


def test_a_corrupted_pin_fires_the_gate(capsys):
    import run
    pins = json.loads(run.PINS.read_text())
    pins["perm3"]["K0"]["factors"] = [4]
    threads = run.cap_blas_threads()
    run.import_program()
    assert run.run_smoke(argparse.Namespace(seed=5), threads, pins) != 0
    assert "MISMATCH perm3: K0" in capsys.readouterr().out


def test_a_missing_traced_function_stops_the_tracer(monkeypatch):
    import tracer
    from quadmod import fock
    creation = fock.FockSpace.__dict__["creation"]
    monkeypatch.setattr(tracer, "OPERATORS",
                        tracer.OPERATORS + [("fock.gone", "fock", "FockSpace.gone")])
    with pytest.raises(RuntimeError, match="fock.FockSpace.gone"):
        tracer.Tracer().install()
    assert fock.FockSpace.__dict__["creation"] is creation


def test_a_bigint_imaginary_part_counts_as_the_object_path():
    import numpy as np
    import tracer
    from quadmod.linalg import ExactMatrix
    small = ExactMatrix(np.array([[1]]), np.array([[0]]))
    wide = ExactMatrix(np.array([[1]]), np.array([[2 ** 70]], dtype=object))
    assert wide._re.dtype != object and wide._im.dtype == object
    t = tracer.Tracer()
    t._matrix_type = ExactMatrix
    t._kernel_call("linalg.__add__", (small, wide), small, 0.0)
    t._kernel_call("linalg.__add__", (small, small), wide, 0.0)
    stats = t.kernels["linalg.__add__"]
    assert (stats["i64"], stats["obj"], stats["promoted"]) == (0, 1, 1)
    assert stats["max_bits"] == 71


def test_a_flipped_verdict_is_the_first_mismatch():
    pins = json.loads((BENCH / "pins.json").read_text())
    answer = json.loads(json.dumps(pins["mn23-d2"]))
    answer["checks"][3][2] = not answer["checks"][3][2]
    assert first_mismatch(answer, pins["mn23-d2"]).startswith("check 3:")
    assert first_mismatch(pins["mn23-d2"], pins["mn23-d2"]) is None


def test_without_the_program_sources_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "perm_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_the_gauge_samples_while_entered_and_discounts_its_own_time():
    import signal
    import time
    import hostspeed
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostspeed.Gauge() as gauge:
        while time.perf_counter() - start < 0.4:
            sum(range(1000))
    wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(gauge.samples) >= 4
    assert gauge.handler_s == sum(gauge.samples) < wall
    assert hostspeed.rescale(1.5 + 0.25, 0.25, [hostspeed.SNIPPET_S] * 3) == 1.5
    assert hostspeed.rescale(1.5, 0.0, [2 * hostspeed.SNIPPET_S]) == 0.75


def test_bareiss_determinant_matches_cofactor_expansion():
    def cofactor(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * cofactor([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    cases = [[[0, 2, 1], [3, 0, 4], [5, 6, 0]], [[2, 1], [4, 2]],
             [[0, 0, 1, 2], [1, 3, 0, 0], [2, 1, 1, 0], [0, 4, 2, 1]], [[7]]]
    for m in cases:
        assert determinant(m) == cofactor(m)


def test_cuntz_krieger_cross_check_catches_a_wrong_order():
    section = {"classMatrix": [[2, 2], [1, 1]],
               "groups": {"K0": {"freeRank": 0, "factors": [2]}}}
    assert cuntz_krieger_mismatch({"sections": [section]}) is None
    section["groups"]["K0"]["factors"] = [3]
    assert "det" in cuntz_krieger_mismatch({"sections": [section]})


def test_relabelling_is_a_function_of_the_seed():
    assert basis_permutation(12, 4, "mn26-d2") == basis_permutation(12, 4, "mn26-d2")
    assert basis_permutation(12, 4, "mn26-d2") != basis_permutation(12, 5, "mn26-d2")
    for seed in range(50):
        assert basis_permutation(2, seed, "x") == [1, 0]
