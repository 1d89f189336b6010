"""Tests of the benchmark itself: failure accounting, the tracer, seeding.

Run from the root of the repository with

    python3 -m pytest -q perfbench/tests
"""

import functools
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tnforms  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


@functools.lru_cache(maxsize=None)
def _inputs(name):
    return workloads.WORKLOADS[name]().generate(0)


def _first_op(name):
    workload = workloads.WORKLOADS[name]()
    return workload, _inputs(name), _inputs(name).schedule[0]


def _bindings():
    """Every module attribute and class __init__ the tracer may replace."""
    out = {}
    for ns in (tnforms, workloads, *(getattr(tnforms, layer) for layer in LAYERS)):
        for attr, value in vars(ns).items():
            out[ns.__name__, attr] = value
            if inspect.isclass(value) and "__init__" in vars(value):
                out[value.__qualname__, "__init__"] = vars(value)["__init__"]
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_output_is_verified(name):
    workload, inputs, op = _first_op(name)
    verified, seconds, residual, error = run.attempt(workload, inputs, op)
    assert verified and error is None and seconds > 0.0
    assert residual <= workload.tol


def _corrupt_pairing(T, e, k):
    P = tnforms.pairing_matrix(T, e, k).copy()
    if P.shape[0] > 1:
        P[0, -1] += 1e-3 * np.abs(P).max()
    else:
        P[0, 0] = 0.0
    return P


def _corrupt_product(c1, r1, c2, r2, dim):
    c = tnforms.poly.multiply_bernstein(c1, r1, c2, r2, dim)
    c[0] += 1e-6
    return c


def _corrupt_gradients(T):
    return tnforms.barycentric_gradients(T) * (1.0 + 1e-6)


@pytest.mark.parametrize(
    "name, attr, fake",
    [
        ("tn_sweep", "pairing_matrix", _corrupt_pairing),
        ("bernstein", "multiply_bernstein", _corrupt_product),
        ("cell_frames", "barycentric_gradients", _corrupt_gradients),
    ],
)
def test_wrong_output_counts_as_failed(monkeypatch, name, attr, fake):
    workload, inputs, op = _first_op(name)
    monkeypatch.setattr(workloads, attr, fake)
    tally = run.Tally()
    tally.add(*run.attempt(workload, inputs, op))
    assert (tally.attempted, tally.failed, tally.latencies) == (1, 1, [])


def test_exception_counts_as_failed(monkeypatch):
    workload, inputs, op = _first_op("tn_sweep")

    def broken(*args):
        raise ValueError("planted")

    monkeypatch.setattr(workloads, "hodge_coefficient", broken)
    tally = run.Tally()
    tally.add(*run.attempt(workload, inputs, op))
    assert tally.failed == 1 and tally.errors == {"ValueError: planted": 1}


def test_tracer_leaves_tnforms_unpatched():
    before = _bindings()
    workload, inputs, op = _first_op("tn_sweep")
    tracer = Tracer(tnforms, callers=[workloads])
    with tracer:
        assert workloads.pairing_matrix is not before["workloads", "pairing_matrix"]
        assert tnforms.tnbasis.wedge_all is not before["tnforms.tnbasis", "wedge_all"]
        assert tnforms.simplex.gram_schmidt is not before["tnforms.simplex", "gram_schmidt"]
        tracer.run_op(0, workload.run, inputs, op)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_spans_nest_and_self_times_add_up():
    workload, inputs, op = _first_op("tn_sweep")
    tracer = Tracer(tnforms, callers=[workloads])
    with tracer:
        tracer.run_op(7, workload.run, inputs, op)
    name, parent, start, end, op_ids = tracer.arrays()
    assert parent[0] == -1 and np.all(parent[1:] >= 0) and np.all(op_ids == 7)
    assert np.all(start[1:] >= start[parent[1:]]) and np.all(end[1:] <= end[parent[1:]])
    assert np.isclose(tracer.self_times().sum(), end[0] - start[0])
    summary = tracer.summary()
    assert summary["tnbasis.pairing_matrix.calls"] == 1
    assert summary["exterior.wedge.calls"] > 0 and tracer.pair_visits > 0


def test_counts_repeat_exactly_for_a_seed():
    def counts():
        workload, inputs, _ = _first_op("tn_sweep")
        run.clear_caches(tnforms)  # lru_cache misses make calls of their own
        tracer = Tracer(tnforms, callers=[workloads])
        with tracer:
            for n, op in enumerate(inputs.schedule[:5]):
                tracer.run_op(n, workload.run, inputs, op)
        calls = {k: v for k, v in tracer.summary().items() if k.endswith(".calls")}
        return calls, tracer.pair_visits, tracer.tangent_repeats

    assert counts() == counts()


def test_same_seed_same_inputs_and_planted_cells_kept_out_of_the_loop():
    cells = workloads.CellFrames()
    a, b = cells.generate(3, 100), cells.generate(3, 100)
    assert all(np.array_equal(u, v) for u, v in zip(a.vertices, b.vertices))
    assert len(a.planted["tiny"]) == len(a.planted["sliver"]) == 5
    planted = set(a.planted["tiny"]) | set(a.planted["sliver"])
    assert planted.isdisjoint(a.schedule) and len(a.schedule) == 90
    assert not np.array_equal(a.vertices[0], cells.generate(4, 1).vertices[0])


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tn_sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_runner_prints_every_metric(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bernstein", "--seed", "2",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=tmp_path, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in spec[key])
