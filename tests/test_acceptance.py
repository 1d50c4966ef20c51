"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Every criterion checks both its functional condition and its wall-clock
budget; oracles here are written independently of the library internals.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

import sparse24 as s
from sparse24.calibration import HIST_BINS, QUANT_BINS, entropy_threshold
from conftest import random_conforming, random_dense


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"\ncriterion {num:2d} ({label}): PASS  [{elapsed:.2f}s]")


def test_criterion_1_storage_arithmetic(rng):
    with criterion(1, "storage arithmetic", 1.0):
        fp16 = s.compress(random_conforming(rng, 8, 64, s.FP16), s.PATTERN_24)
        groups = 8 * 64 // 4
        assert s.storage_bits(fp16) == 36 * groups
        dense_bits = s.dense_storage_bits(8, 64, s.FP16)
        assert dense_bits == 64 * groups
        assert 1 - s.storage_bits(fp16) / dense_bits == 0.4375

        int8 = s.compress(random_conforming(rng, 8, 64, s.INT8), s.PATTERN_24)
        assert s.storage_bits(int8) == 20 * groups
        assert 1 - s.storage_bits(int8) / s.dense_storage_bits(8, 64, s.INT8) == 0.375


def test_criterion_2_codec_roundtrip(rng):
    shapes = [
        (1, 4), (2, 8), (3, 12), (5, 16), (7, 20), (8, 32),
        (13, 36), (16, 64), (32, 96), (64, 128), (96, 192), (128, 256),
    ]
    with criterion(2, "codec roundtrip x10000", 10.0):
        cases = itertools.cycle(itertools.product(shapes, s.ALL_FORMATS))
        for _, ((rows, cols), fmt) in zip(range(10_000), cases):
            m = random_conforming(rng, rows, cols, fmt)
            back = s.decompress(s.compress(m, s.PATTERN_24))
            assert np.array_equal(back.data, m.data)
            assert back.fmt == m.fmt


def test_criterion_3_spmm_equivalence(rng):
    sparse_fmts = [f for f in s.ALL_FORMATS if f.sparse_capable]
    with criterion(3, "sparse GEMM equivalence x1000", 60.0):
        for case in range(1_000):
            fmt = sparse_fmts[case % len(sparse_fmts)]
            pattern = s.PATTERN_12 if case % 5 == 0 else s.PATTERN_24
            k = fmt.sparse_k_multiple * int(rng.integers(1, 5))
            m, n = int(rng.integers(1, 25)), int(rng.integers(1, 25))
            a = random_conforming(rng, m, k, fmt, pattern)
            b = random_dense(rng, k, n, fmt)
            sp = s.compress(a, pattern)
            counter = s.MultiplyAddCounter()
            got = s.spmm(sp, b, counter=counter)
            oracle = s.gemm_dense(a, b)
            assert got.data.dtype == oracle.data.dtype
            assert got.data.tobytes() == oracle.data.tobytes()
            assert counter.count == m * n * k * pattern.n // pattern.m


def test_criterion_4_mask_optimality(rng):
    with criterion(4, "mask optimality", 30.0):
        # 10,000 groups as one (10000, 4) matrix; oracle enumerates C(4,2) keeps
        groups = rng.standard_normal((10_000, 4)).astype(np.float32)
        w = s.DenseMatrix(groups, s.FP32)
        res = s.prune_magnitude(w, s.PATTERN_24)
        absg = np.abs(groups.astype(np.float64))
        oracle_best = np.full(10_000, -np.inf)
        for keep in itertools.combinations(range(4), 2):
            oracle_best = np.maximum(oracle_best, absg[:, keep].sum(axis=1))
        got_per_group = (absg * res.mask.bits).sum(axis=1)
        assert np.array_equal(got_per_group, oracle_best)
        assert res.retained_magnitude == oracle_best.sum()

        # transposable: exhaustive equals the 90-candidate enumeration per tile
        oracle_masks = _all_doubly_2of4_tiles()
        assert len(oracle_masks) == 90
        for _ in range(1_000):
            tile = rng.standard_normal((4, 4)).astype(np.float32)
            res = s.find_transposable_mask(s.DenseMatrix(tile, s.FP32))
            absw = np.abs(tile.astype(np.float64))
            best = max(float(absw[m].sum()) for m in oracle_masks)
            assert res.retained_magnitude == best


def _all_doubly_2of4_tiles():
    """Brute force over all 2^16 tiles, keeping row and column sums of 2."""
    masks = []
    for bits in range(1 << 16):
        m = np.array([(bits >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        if np.all(m.sum(axis=0) == 2) and np.all(m.sum(axis=1) == 2):
            masks.append(m)
    return masks


def test_criterion_5_permutation_search(rng):
    with criterion(5, "permutation search", 60.0):
        w = random_dense(rng, 8, 8, s.FP16)
        budget = s.SearchBudget(mode="exhaustive")
        _, res = s.find_permutation(w, s.PATTERN_24, budget)
        import math
        formula = math.factorial(8) // (math.factorial(4) ** 2 * math.factorial(2))
        assert formula == 35
        assert budget.stats["partitions_visited"] == 35
        best = max(
            s.prune_magnitude(
                s.permute_columns(w, s.Permutation(np.array(order))), s.PATTERN_24
            ).retained_magnitude
            for order in s.enumerate_group_partitions(8, 4)
        )
        assert res.retained_magnitude == best

        for trial in range(1_000):
            w = random_dense(rng, 8, 8, s.FP16)
            identity = s.prune_magnitude(w, s.PATTERN_24).retained_magnitude
            budget = s.SearchBudget(mode="greedy", restarts=2, max_swaps=500, seed=trial)
            _, res = s.find_permutation(w, s.PATTERN_24, budget)
            assert res.retained_magnitude >= identity


def test_criterion_6_permutation_correctness(rng):
    with criterion(6, "permutation correctness", 10.0):
        perm = s.Permutation(np.asarray(rng.permutation(16)))

        # integer mode: first layer through the kernel, second in exact int64
        w1 = random_dense(rng, 16, 16, s.INT8)
        w2 = random_dense(rng, 8, 16, s.INT8)
        x = random_dense(rng, 16, 8, s.INT8)
        baseline = w2.data.astype(np.int64) @ s.gemm_dense(w1, x).data
        w1p = s.propagate_permutation(w1, perm)
        w2p = s.permute_columns(w2, perm)
        permuted = w2p.data.astype(np.int64) @ s.gemm_dense(w1p, x).data
        assert np.array_equal(permuted, baseline)

        # float mode: both layers through the kernel, ulp-bounded
        w1 = random_dense(rng, 16, 16, s.FP32)
        w2 = random_dense(rng, 8, 16, s.FP32)
        x = random_dense(rng, 16, 8, s.FP32)
        hidden = s.gemm_dense(w1, x)
        baseline = s.gemm_dense(w2, hidden)
        w1p = s.propagate_permutation(w1, perm)
        w2p = s.permute_columns(w2, perm)
        hidden_p = s.gemm_dense(w1p, x)
        permuted = s.gemm_dense(w2p, hidden_p)
        tol = s.float_tolerance(baseline, 16)
        assert np.max(np.abs(permuted.data - baseline.data)) <= tol


def test_criterion_7_workflow_demo(monkeypatch):
    with criterion(7, "workflow demo", 120.0):
        data = s.make_blobs(samples=512, features=64, classes=4, seed=7)
        net0 = s.TinyNet.init([64, 64, 4], seed=7)
        sched = s.Schedule(epochs=10, lr=0.05, seed=3)

        dense_net, _ = s.train(net0, data, sched)
        dense_acc = dense_net.accuracy(data.x, data.y)

        masks = {
            i: s.prune_magnitude(s.DenseMatrix(w.astype(np.float32), s.FP32), s.PATTERN_24).mask
            for i, w in enumerate(dense_net.weights)
        }

        # assert the sparsity pattern at every batch step of retraining
        orig = s.TinyNet.loss_and_grads
        steps = []

        def checked(self, x, y):
            for i, mask in masks.items():
                assert np.all(self.weights[i][~mask.bits] == 0.0), "mask violated mid-retrain"
            steps.append(len(x))
            return orig(self, x, y)

        monkeypatch.setattr(s.TinyNet, "loss_and_grads", checked)
        sparse_net, _ = s.train(dense_net, data, sched, masks=masks)
        monkeypatch.setattr(s.TinyNet, "loss_and_grads", orig)
        assert len(steps) == 10 * 16, "the mask check must run at every batch"

        for i, mask in masks.items():
            assert np.all(sparse_net.weights[i][~mask.bits] == 0.0)
        sparse_acc = sparse_net.accuracy(data.x, data.y)
        assert sparse_acc >= dense_acc - 0.01  # within 1.0 accuracy point


def test_criterion_8_gradient_check(rng):
    with criterion(8, "gradient check x20", 10.0):
        for trial in range(20):
            sizes = [int(rng.integers(3, 7)), int(rng.integers(3, 7)), int(rng.integers(2, 5))]
            net = s.TinyNet.init(sizes, seed=trial)
            x = rng.standard_normal((6, sizes[0]))
            y = rng.integers(0, sizes[-1], 6)
            _, gw, _ = net.loss_and_grads(x, y)
            h = 1e-3
            pattern0 = _relu_pattern(net, x)
            for li in range(len(net.weights)):
                for idx in np.ndindex(net.weights[li].shape):
                    orig = net.weights[li][idx]
                    net.weights[li][idx] = orig + h
                    lp, _, _ = net.loss_and_grads(x, y)
                    crossed = _relu_pattern(net, x) != pattern0
                    net.weights[li][idx] = orig - h
                    lm, _, _ = net.loss_and_grads(x, y)
                    crossed = crossed or _relu_pattern(net, x) != pattern0
                    net.weights[li][idx] = orig
                    if crossed:
                        continue  # ReLU kink between the stencil points
                    fd = (lp - lm) / (2 * h)
                    scale = max(abs(fd), abs(gw[li][idx]), 1e-8)
                    assert abs(fd - gw[li][idx]) / scale <= 1e-4


def _relu_pattern(net, x):
    return tuple((z > 0).tobytes() for z in net.forward(x)[:-1])


def test_criterion_9_bench_trend():
    with criterion(9, "bench trend", 300.0):
        sizes = [
            s.GemmShape(32, 32, 64),
            s.GemmShape(32, 32, 256),
            s.GemmShape(32, 32, 1024),
            s.GemmShape(32, 32, 2048),
        ]
        # wall-clock medians still jitter, so allow a couple of re-measurements
        trend = False
        for attempt in range(3):
            report = s.bench(sizes, s.FP16, repeats=21, seed=attempt)
            assert all(row.flops_ratio == 2.0 for row in report.rows)
            by_k = {row.k: row.speedup for row in report.rows}
            trend = max(by_k[1024], by_k[2048]) > by_k[64]
            if trend:
                break
        assert trend, f"no sparse speedup growth with K: {by_k}"


def test_criterion_10_quantization(rng):
    with criterion(10, "quantization", 60.0):
        # max-calibration never clips any calibration sample
        for _ in range(20):
            samples = [random_dense(rng, 16, 16, s.FP32) for _ in range(4)]
            scale = s.calibrate(samples, s.CalibMethod("max"))
            for m in samples:
                raw = np.rint(m.data.astype(np.float64) / scale.scales[0])
                assert np.all(np.abs(raw) <= 127)
                assert np.all(np.abs(s.quantize(m, scale).data) <= 127)

        # quantizing a pruned tensor preserves conformance: 10,000 row trials
        trials = 0
        for block in range(50):
            w = random_dense(np.random.default_rng(block), 200, 32, s.FP32)
            pruned = s.apply_mask(w, s.prune_magnitude(w, s.PATTERN_24).mask)
            scale = s.calibrate([pruned], s.CalibMethod("max"), s.Granularity.PER_ROW)
            q = s.quantize(pruned, scale)
            s.check_conformance(q, s.PATTERN_24)
            trials += q.rows
        assert trials == 10_000

        # entropy calibration matches an exhaustive KL scan on 100 histograms
        for case in range(100):
            hist = _synthetic_histogram(np.random.default_rng(case), case)
            got = entropy_threshold(hist)
            kls = _kl_scan_oracle(hist)
            assert kls[got] <= min(kls.values()) + 1e-9


def _synthetic_histogram(rng, case):
    bins = np.arange(HIST_BINS, dtype=np.float64)
    kind = case % 4
    if kind == 0:  # exponential decay, classic activation shape
        hist = 1e4 * np.exp(-bins / rng.uniform(50, 500))
    elif kind == 1:  # half-gaussian
        hist = 1e4 * np.exp(-0.5 * (bins / rng.uniform(100, 700)) ** 2)
    elif kind == 2:  # decay plus outlier spikes near the tail
        hist = 1e4 * np.exp(-bins / rng.uniform(50, 300))
        hist[rng.integers(HIST_BINS // 2, HIST_BINS, 3)] += rng.uniform(10, 100, 3)
    else:  # sparse counts with many empty bins
        hist = np.zeros(HIST_BINS)
        idx = rng.integers(0, HIST_BINS, 200)
        hist[idx] = rng.uniform(1, 1000, 200)
    return np.floor(hist)


def _kl_scan_oracle(hist):
    """Direct exhaustive scan: materialize P and Q per candidate clip point.
    P folds the clipped tail into its last bin; Q merges the unclipped bins
    and spreads each level over the level's nonzero bins of P."""
    hist = np.asarray(hist, dtype=np.float64)
    kls = {}
    for i in range(QUANT_BINS, len(hist) + 1):
        p = hist[:i].copy()
        p[-1] += hist[i:].sum()
        if p.sum() == 0:
            continue
        base, extra = divmod(i, QUANT_BINS)
        sizes = np.full(QUANT_BINS, base)
        sizes[:extra] += 1  # same chunking as np.array_split
        edges = np.concatenate([[0], np.cumsum(sizes)])
        csum = np.add.reduceat(hist[:i], edges[:-1])
        cnz = np.add.reduceat((p > 0).astype(np.float64), edges[:-1])
        with np.errstate(invalid="ignore"):
            level = np.where(cnz > 0, csum / np.maximum(cnz, 1), 0.0)
        q = np.repeat(level, sizes) * (p > 0)
        support = p > 0
        if np.any(q[support] == 0):
            kls[i] = np.inf  # Q is 0 where P is not
            continue
        pn = p / p.sum()
        qn = q / q.sum()
        kls[i] = float(np.sum(pn[support] * np.log(pn[support] / qn[support])))
    return kls
