"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = bench.load_spec()
TINY = {
    "ship": workloads.ShipSizes(large=(16, 32), square=16, small=(8, 16), perm_swaps=40, perm_restarts=2),
    "serve": workloads.ServeSizes(layers=2, width=32, batch_mix=(2, 4), pool_cycles=2),
    "deploy": workloads.DeploySizes(pool=3, samples=64, epochs=2),
}
TINY_POOL = {"ship": len(workloads.SHIP_MIX), "serve": 4, "deploy": 3}
NAMES = sorted(TINY)


def tiny_run(name, seed, trace, tmp_path, seconds=0.0):
    return bench.run(name, seed, seconds, trace, str(tmp_path), sizes=TINY[name])


def tiny_workload(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path), TINY[name])
    assert wl.setup() == []
    return wl


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    rec = tiny_run(name, 3, False, tmp_path, seconds=0.2 if name != "deploy" else 0.0)
    assert rec["correct"], rec["failures"]
    assert rec["failed"] == 0 and rec["attempted"] >= TINY_POOL[name]
    expected = {m["name"] for m in SPEC["end_to_end"]}
    if rec["latency"]["ops"] < 2 * bench.TAIL_BEYOND:
        expected.discard("op_tail_ms")
    assert expected <= rec["metrics"].keys()
    assert all(rec["metrics"][k] > 0 for k in expected)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_per_layer_metric(name, tmp_path):
    rec = tiny_run(name, 3, True, tmp_path)
    assert rec["correct"], rec["failures"]  # includes madds == closed-form spmm_flops
    missing = {m["name"] for m in SPEC["per_layer"]} - rec["metrics"].keys()
    assert missing == set(bench.NOT_COMPUTED[name])


def test_load_split_follows_the_workload(tmp_path):
    ship = tiny_run("ship", 1, True, tmp_path)["metrics"]
    serve = tiny_run("serve", 1, True, tmp_path)["metrics"]
    deploy = tiny_run("deploy", 1, True, tmp_path)["metrics"]
    assert ship["kernels.self_s"] == 0 and ship["calibration.self_s"] == 0
    assert serve["archive.self_s"] == 0 and serve["pruning.self_s"] == 0
    assert serve["setup.kernels_s"] == 0  # the oracle check runs after each op, not in set-up
    assert serve["kernels.spmm_calls"] == TINY["serve"].layers
    assert deploy["calibration.entropy_calls"] > 0 and deploy["workflow.epochs"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_span_self_times_are_nonnegative_and_fit_in_the_op(name, tmp_path):
    wl = tiny_workload(name, 5, tmp_path)
    tracer = spans.Tracer()
    with tracer:
        phase = bench.run_ops(wl, 0.0, tracer)
    self_t = tracer.self_times()
    assert len(self_t) > 0
    assert self_t.min() >= -1e-9
    per_op = np.zeros(phase.attempted)
    for span, st in zip(tracer.spans, self_t):
        per_op[span[4]] += st
    assert np.all(per_op <= np.array(phase.wall) + 1e-9)


def test_tracer_restores_the_library():
    from sparse24 import calibration, codec, formats, kernels, workflow

    before = (kernels.spmm, calibration.spmm, workflow.train, formats.DenseMatrix.__dict__["from_values"])
    with spans.Tracer():
        assert calibration.spmm is not before[1] and calibration.spmm is kernels.spmm
    after = (kernels.spmm, calibration.spmm, workflow.train, formats.DenseMatrix.__dict__["from_values"])
    assert after == before
    assert codec.SparseNM.column_indices.__module__ == "sparse24.codec"


DETERMINISTIC_PLAIN = {
    "ship": ("retained_frac", "storage_ratio"),
    "serve": ("retained_frac", "storage_ratio"),
    "deploy": ("retained_frac", "storage_ratio", "accuracy_drop", "int8_rel_err"),
}
DETERMINISTIC_TRACED = {
    "ship": ("pruning.retained_frac",),
    "serve": ("kernels.madds",),
    "deploy": ("accuracy_drop", "int8_rel_err", "kernels.madds", "pruning.retained_frac"),
}


@pytest.mark.parametrize("name", NAMES)
def test_fixed_seed_reproduces_deterministic_metrics(name, tmp_path):
    plain = [tiny_run(name, 9, False, tmp_path)["metrics"] for _ in range(2)]
    traced = [tiny_run(name, 9, True, tmp_path)["metrics"] for _ in range(2)]
    for key in DETERMINISTIC_PLAIN[name]:
        assert plain[0][key] == plain[1][key], key
    for key in DETERMINISTIC_TRACED[name]:
        assert traced[0][key] == traced[1][key], key


def _inputs(wl):
    if isinstance(wl, workloads.Ship):
        return [item.weight.data for item in wl.items]
    if isinstance(wl, workloads.Serve):
        return [x.data for x in wl.pool] + [layer.values for layer in wl.stack]
    return [np.array(wl.seeds)]


@pytest.mark.parametrize("name", NAMES)
def test_seed_decides_the_generated_inputs(name, tmp_path):
    a, a_again, b = (_inputs(tiny_workload(name, s, tmp_path)) for s in (1, 1, 2))
    assert all(np.array_equal(x, y) for x, y in zip(a, a_again))
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    times = [float(t) for t in range(1, 31)]
    metrics, tail = bench.latency_metrics(times, [True] * 30)
    assert metrics["op_tail_ms"] == 1e3 * 20.0
    assert tail["tail_percentile"] == pytest.approx(100 * 20 / 30)
    assert "op_tail_ms" not in bench.latency_metrics([1.0] * 19, [True] * 19)[0]


def test_failed_ops_count_against_throughput_but_not_latency():
    metrics, _ = bench.latency_metrics([1.0, 1.0, 9.0], [True, True, False])
    assert metrics["ops_per_s"] == pytest.approx(2 / 11)
    assert metrics["op_p50_ms"] == 1e3


def test_scaling_to_the_reference_host_speed():
    ref = bench.REF_PROBE_S
    assert bench.scaled(0.3, ref, ref) == pytest.approx(0.3)
    assert bench.scaled(0.3, 1.5 * ref, 1.5 * ref) == pytest.approx(0.2)


def _write_records(directory, workload, values, failed=0):
    directory.mkdir(parents=True, exist_ok=True)
    for seed, v in enumerate(values):
        rec = {
            "workload": workload,
            "seed": seed,
            "trace": 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {m["name"]: v for m in SPEC["end_to_end"]},
        }
        (directory / f"{workload}-{seed}.json").write_text(json.dumps(rec))


def test_compare_verdicts(tmp_path):
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    _write_records(tmp_path / "base", "ship", base)
    _write_records(tmp_path / "same", "ship", base)
    _write_records(tmp_path / "up", "ship", [v * 1.5 for v in base])
    _write_records(tmp_path / "failing", "ship", base, failed=1)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    # Every metric moved by half: higher-is-better ones improve, the rest regress.
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "up")]) == 1
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "failing")]) == 1
    spec_up = compare.compare(
        compare.load_results(tmp_path / "base"), compare.load_results(tmp_path / "up"), SPEC
    )[0]
    verdicts = {line.split()[1]: line.split()[-1] for line in spec_up[1:]}
    assert verdicts["ops_per_s"] == "better" and verdicts["op_p50_ms"] == "worse"


def test_compare_counts_any_rise_of_int8_quality_figures_on_a_seed(tmp_path):
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    for side, drop in (("base", {}), ("same", {}), ("one_seed_worse", {3: 0.5})):
        _write_records(tmp_path / side, "deploy", base)
        for seed in range(len(base)):
            f = tmp_path / side / f"deploy-{seed}.json"
            rec = json.loads(f.read_text())
            rec["metrics"].update(accuracy_drop=19.0 + drop.get(seed, 0.0), int8_rel_err=0.84)
            f.write_text(json.dumps(rec))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "one_seed_worse")]) == 1
    assert compare.seeded_verdict({1: 0.8}, {2: 0.9})[0] == "unresolved"


def test_verdict_unresolved_when_the_base_spreads_wider_than_the_bound():
    base = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    new = {0: 2.5, 1: 2.5, 2: 2.5, 3: 2.5}
    assert compare.verdict(base, new, "lower", 0.1)[0] == "unresolved"


def test_run_without_the_library_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ship", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_an_exception_counts_once_per_call_into_its_layer(tmp_path):
    from sparse24 import codec, formats

    bad = codec.SparseNM(8, formats.PATTERN_24, np.zeros((1, 4), np.float32), np.full((1, 4), 7, np.uint8), formats.FP16)
    tracer = spans.Tracer()
    with tracer:
        tracer.begin(0)
        with pytest.raises(codec.MetadataError):
            codec.decompress(bad)  # raises in the nested codec.validate span
        tracer.end()
    assert tracer.errors == {"codec": 1}
