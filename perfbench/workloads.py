"""The benchmark's three workloads: ``ship``, ``serve`` and ``deploy``.

Each workload is a closed loop with one client: the next op starts only after
the previous op and its correctness check have finished. All inputs come from
the workload seed. Set-up builds a pool of inputs and op ``i`` runs pool item
``i % pool_size``. Quality figures (retained magnitude, storage, accuracy) are
taken from the first pass over the pool, so for a given seed they repeat
exactly however many ops a run completes.

A workload's ``setup`` builds its inputs and returns any set-up check
failures, ``op(i)`` is the timed unit, and ``check(i, out)`` verifies the op's
outputs outside the timed interval. Library layers are always called through their module attribute at call time
(``kernels.spmm(...)``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from sparse24 import archive, calibration, codec, formats, kernels, pruning, workflow

PATTERN = formats.PATTERN_24


def workload_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


@dataclass
class Check:
    """Outcome of checking one op: failure reasons (empty when correct),
    counts the check measured for the traced run, and the pool item's
    quality figures."""

    failures: list[str] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)


def _same_file(p1: str, p2: str) -> bool:
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        return f1.read() == f2.read()


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# --- ship: offline compression of a model's weights -----------------------


@dataclass(frozen=True)
class ShipSizes:
    large: tuple[int, int] = (256, 512)
    square: int = 256
    small: tuple[int, int] = (64, 32)
    perm_swaps: int = 5000
    perm_restarts: int = 4


# Mostly large fp16 magnitude-pruned matrices, one bf16 matrix, one square
# matrix with a mask valid along rows and columns, and one small matrix with
# column-structured magnitudes that the permutation search can improve.
SHIP_MIX = (
    ("magnitude", formats.FP16),
    ("magnitude", formats.FP16),
    ("magnitude", formats.BF16),
    ("transposable", formats.FP16),
    ("magnitude", formats.FP16),
    ("permutation", formats.FP16),
)


@dataclass(frozen=True)
class ShipItem:
    method: str
    weight: formats.DenseMatrix
    search_seed: int


@dataclass(frozen=True)
class ShipOut:
    weight: formats.DenseMatrix
    result: pruning.PruneResult
    pruned: formats.DenseMatrix
    packed: codec.SparseNM
    written: archive.TensorArchive
    read: archive.TensorArchive
    restored: formats.DenseMatrix


class Ship:
    name = "ship"

    def __init__(self, seed: int, workdir: str, sizes: ShipSizes = ShipSizes()):
        self.seed, self.sizes = seed, sizes
        self.path = os.path.join(workdir, "ship.s24t")
        self.path_again = os.path.join(workdir, "ship-again.s24t")

    def setup(self) -> list[str]:
        rng = workload_rng(self.seed, self.name)
        s = self.sizes
        shapes = {"magnitude": s.large, "transposable": (s.square, s.square), "permutation": s.small}
        self.items = []
        for method, fmt in SHIP_MIX:
            shape = shapes[method]
            values = rng.standard_normal(shape, dtype=np.float32)
            if method == "permutation":
                values *= rng.lognormal(0.0, 1.0, size=shape[1]).astype(np.float32)
            self.items.append(
                ShipItem(method, formats.DenseMatrix.from_values(values, fmt), int(rng.integers(2**31)))
            )
        return []

    @property
    def pool_size(self) -> int:
        return len(self.items)

    def op(self, i: int) -> ShipOut:
        item = self.items[i % self.pool_size]
        w = item.weight
        if item.method == "magnitude":
            res = pruning.prune_magnitude(w, PATTERN)
        elif item.method == "transposable":
            res = pruning.find_transposable_mask(w)
        else:
            budget = pruning.SearchBudget(
                mode="greedy",
                restarts=self.sizes.perm_restarts,
                max_swaps=self.sizes.perm_swaps,
                seed=item.search_seed,
            )
            perm, res = pruning.find_permutation(w, PATTERN, budget)
            w = pruning.permute_columns(w, perm)
        pruned = codec.apply_mask(w, res.mask)
        packed = codec.compress(pruned, PATTERN)
        written = archive.TensorArchive().add("weight", packed).add("mask", res.mask)
        archive.write_archive(written, self.path)
        read = archive.read_archive(self.path)
        restored = codec.decompress(read["weight"])
        return ShipOut(w, res, pruned, packed, written, read, restored)

    def check(self, i: int, out: ShipOut) -> Check:
        item = self.items[i % self.pool_size]
        c = Check()
        mask = out.result.mask
        try:
            mask.check(PATTERN)
            if item.method == "transposable":
                codec.Mask(np.ascontiguousarray(mask.bits.T)).check(PATTERN)
        except codec.ConformanceError as exc:
            c.failures.append(f"mask: {exc}")
        got = out.read["weight"]
        if not (
            np.array_equal(got.values, out.packed.values)
            and np.array_equal(got.meta, out.packed.meta)
            and out.restored.fmt == out.pruned.fmt
            and np.array_equal(out.restored.data, out.pruned.data)
        ):
            c.failures.append("compressed roundtrip is not exact")
        if not np.array_equal(out.read["mask"].bits, mask.bits):
            c.failures.append("mask roundtrip is not exact")
        archive.write_archive(out.written, self.path_again)
        if not _same_file(self.path, self.path_again):
            c.failures.append("second write produced different bytes")
        retained = out.result.retained_magnitude
        if item.method == "permutation":
            identity = pruning.prune_magnitude(item.weight, PATTERN).retained_magnitude
            gain = retained - identity
            if gain < -1e-9 * identity:
                c.failures.append("permutation retains less than the identity order")
            c.facts["pruning.permutation_gain"] = gain
        c.quality = {
            "retained": retained,
            "total": retained + out.result.lost_magnitude,
            "archive_bytes": float(os.path.getsize(self.path)),
            "dense_fp16_bytes": float(out.weight.rows * out.weight.cols * 2),
        }
        return c

    def quality(self, items: list[dict]) -> dict[str, float]:
        return {
            "retained_frac": sum(q["retained"] for q in items) / sum(q["total"] for q in items),
            "storage_ratio": sum(q["archive_bytes"] for q in items)
            / sum(q["dense_fp16_bytes"] for q in items),
        }


# --- serve: sparse inference through a stack of 2:4 fp16 layers -----------


@dataclass(frozen=True)
class ServeSizes:
    layers: int = 4
    width: int = 512
    batch_mix: tuple[int, ...] = (8, 32, 128)
    pool_cycles: int = 2


class Serve:
    name = "serve"

    def __init__(self, seed: int, workdir: str, sizes: ServeSizes = ServeSizes()):
        self.seed, self.sizes = seed, sizes
        self.path = os.path.join(workdir, "serve.s24t")

    def setup(self) -> list[str]:
        rng = workload_rng(self.seed, self.name)
        s = self.sizes
        written = archive.TensorArchive()
        retained = total = 0.0
        for j in range(s.layers):
            values = rng.standard_normal((s.width, s.width), dtype=np.float32)
            w = formats.DenseMatrix.from_values(values * np.float32(np.sqrt(2.0 / s.width)), formats.FP16)
            res = pruning.prune_magnitude(w, PATTERN)
            written.add(f"layer{j}", codec.compress(codec.apply_mask(w, res.mask), PATTERN))
            retained += res.retained_magnitude
            total += res.retained_magnitude + res.lost_magnitude
        archive.write_archive(written, self.path)
        read = archive.read_archive(self.path)
        self.stack = [read[f"layer{j}"] for j in range(s.layers)]
        failures = [
            f"layer{j} archive roundtrip is not exact"
            for j, layer in enumerate(self.stack)
            if not (
                np.array_equal(layer.values, written[f"layer{j}"].values)
                and np.array_equal(layer.meta, written[f"layer{j}"].meta)
            )
        ]
        self.setup_quality = {
            "retained_frac": retained / total,
            "storage_ratio": os.path.getsize(self.path) / (s.layers * s.width * s.width * 2),
        }

        widths = [int(b) for _ in range(s.pool_cycles) for b in rng.permutation(s.batch_mix)]
        self.pool = [
            formats.DenseMatrix.from_values(rng.standard_normal((s.width, b), dtype=np.float32), formats.FP16)
            for b in widths
        ]
        self.dense = [codec.decompress(layer) for layer in self.stack]
        return failures

    @property
    def pool_size(self) -> int:
        return len(self.pool)

    def op(self, i: int) -> list[tuple[formats.DenseMatrix, formats.DenseMatrix]]:
        """One forward request; returns each layer's (input, output)."""
        steps, h = [], self.pool[i % self.pool_size]
        for j, layer in enumerate(self.stack):
            y = kernels.spmm(layer, h)
            steps.append((h, y))
            if j < len(self.stack) - 1:
                h = formats.DenseMatrix.from_values(_relu(y.data), formats.FP16)
        return steps

    def check(self, i: int, steps: list[tuple[formats.DenseMatrix, formats.DenseMatrix]]) -> Check:
        # The oracle takes the kernel's own input to each layer, so a layer
        # is checked on its own error, not on the error it inherits.
        c = Check()
        for j, (h, y) in enumerate(steps):
            ref = formats.gemm_dense(self.dense[j], h)
            tol = kernels.float_tolerance(ref, self.sizes.width)
            err = float(np.max(np.abs(y.data - ref.data)))
            if not err <= tol:
                c.failures.append(f"layer{j}: error {err:.3g} exceeds tolerance {tol:.3g}")
        return c

    def quality(self, items: list[dict]) -> dict[str, float]:
        return dict(self.setup_quality)


# --- deploy: the paper's workflow on a small net ---------------------------


@dataclass(frozen=True)
class DeploySizes:
    pool: int = 32
    samples: int = 512  # per split: train and held-out
    epochs: int = 8


FEATURES, HIDDEN, CLASSES = 32, 32, 4
BLOB_SPREAD = 3.0
LR = 0.01


# Per-row weight calibration per layer. The recipe's own calibrate phase adds
# max-per-row scales for every layer, completing the mix of three methods.
WEIGHT_METHODS = ("percentile", "entropy")


# Least argmax agreement of the INT8 net with the float sparse net on held-out
# data, fixed before the benchmark's first run: the INT8 net must do at least
# as well as a constant guess. INT8 quality beyond that is guarded by
# compare.py, which counts any rise of accuracy_drop or int8_rel_err for a
# seed as a regression.
AGREEMENT_FLOOR = 1.0 / CLASSES


@dataclass
class DeployOut:
    diverged: str | None = None
    report: dict | None = None
    written: archive.TensorArchive | None = None
    read: archive.TensorArchive | None = None
    qgemm: list[tuple] = field(default_factory=list)  # (qa, qb, wscale, ascale, input, out)
    preds: np.ndarray | None = None
    held: workflow.Dataset | None = None


class Deploy:
    name = "deploy"

    def __init__(self, seed: int, workdir: str, sizes: DeploySizes = DeploySizes()):
        self.seed, self.sizes = seed, sizes
        self.path = os.path.join(workdir, "deploy.s24t")

    def _schedule(self, seed: int) -> workflow.Schedule:
        return workflow.Schedule(epochs=self.sizes.epochs, lr=LR, seed=seed)

    def _data(self, seed: int) -> tuple[workflow.Dataset, workflow.Dataset]:
        split = self.sizes.samples
        data = workflow.make_blobs(
            samples=2 * split, features=FEATURES, classes=CLASSES, spread=BLOB_SPREAD, seed=seed
        )
        return (
            workflow.Dataset(data.x[:split], data.y[:split]),
            workflow.Dataset(data.x[split:], data.y[split:]),
        )

    def _net(self, seed: int) -> workflow.TinyNet:
        return workflow.TinyNet.init([FEATURES, HIDDEN, CLASSES], seed)

    def setup(self) -> list[str]:
        rng = workload_rng(self.seed, self.name)
        self.seeds = [int(v) for v in rng.integers(0, 2**31, size=self.sizes.pool)]
        # Dense reference accuracy per pool item: the oracle for accuracy_drop,
        # trained with the schedule the recipe's dense phase uses.
        self.dense_accuracy = []
        for seed in self.seeds:
            train, held = self._data(seed)
            dense, _ = workflow.train(self._net(seed), train, self._schedule(seed))
            self.dense_accuracy.append(dense.accuracy(held.x, held.y))
        return []

    @property
    def pool_size(self) -> int:
        return len(self.seeds)

    def op(self, i: int) -> DeployOut:
        seed = self.seeds[i % self.pool_size]
        train, held = self._data(seed)
        sched = self._schedule(seed)
        recipe = workflow.Recipe(
            (
                workflow.Phase("train", workflow.PhaseKind.TRAIN_DENSE, schedule=sched),
                workflow.Phase("prune", workflow.PhaseKind.PRUNE, pattern=PATTERN),
                workflow.Phase("retrain", workflow.PhaseKind.RETRAIN_SPARSE, schedule=sched, repeats="train"),
                workflow.Phase("calibrate", workflow.PhaseKind.CALIBRATE),
            ),
            seed=seed,
        )
        try:
            report = workflow.run_recipe(recipe, self._net(seed), train)
        except workflow.DivergenceError as exc:
            return DeployOut(diverged=str(exc))
        net = report["net"]
        n_layers = len(net.weights)

        written = archive.TensorArchive()
        for j, (w, b) in enumerate(zip(net.weights, net.biases)):
            written.add(f"layer{j}.weight", codec.compress(formats.DenseMatrix.from_values(w, formats.FP16), PATTERN))
            written.add(f"layer{j}.bias", formats.DenseMatrix.from_values(b[None, :], formats.FP32))
        archive.write_archive(written, self.path)
        read = archive.read_archive(self.path)
        weights = [read[f"layer{j}.weight"] for j in range(n_layers)]
        biases = [read[f"layer{j}.bias"].data[0].astype(np.float64) for j in range(n_layers)]
        dense = [codec.decompress(w) for w in weights]

        per_row = calibration.Granularity.PER_ROW
        wscales = [
            calibration.calibrate([d], calibration.CalibMethod(m), per_row)
            for d, m in zip(dense, WEIGHT_METHODS)
        ]
        ascales, h = [], train.x.T
        for j in range(n_layers):
            ascales.append(
                calibration.calibrate([formats.DenseMatrix.from_values(h, formats.FP32)], calibration.CalibMethod("entropy"))
            )
            if j < n_layers - 1:
                h = _relu(dense[j].data.astype(np.float64) @ h + biases[j][:, None])

        out = DeployOut(report=report, written=written, read=read, held=held)
        h = held.x.T
        for j in range(n_layers):
            qa = calibration.sparse_quantize(weights[j], wscales[j])
            qb = calibration.quantize(formats.DenseMatrix.from_values(h, formats.FP32), ascales[j])
            y = calibration.quantized_sparse_gemm(qa, qb, wscales[j], ascales[j])
            out.qgemm.append((qa, qb, wscales[j], ascales[j], h, y))
            z = y + biases[j][:, None]
            h = _relu(z) if j < n_layers - 1 else z
        out.preds = np.argmax(h, axis=0)
        return out

    def check(self, i: int, out: DeployOut) -> Check:
        c = Check()
        if out.diverged is not None:
            c.failures.append(f"DivergenceError: {out.diverged}")
            return c
        for name, entry in out.written.entries.items():
            got = out.read[name]
            same = (
                np.array_equal(got.values, entry.values) and np.array_equal(got.meta, entry.meta)
                if isinstance(entry, codec.SparseNM)
                else np.array_equal(got.data, entry.data)
            )
            if not same:
                c.failures.append(f"{name}: archive roundtrip is not exact")

        held = out.held
        h_ref = held.x.T
        rel_errs, bytes_dense = [], 0
        n_layers = len(out.qgemm)
        for j, (qa, qb, wscale, ascale, h_in, y) in enumerate(out.qgemm):
            acc = formats.gemm_dense(codec.decompress(qa), qb).data.astype(np.float64)
            expected = acc * wscale.per_row_of(qa.rows)[:, None] * ascale.scales[0]
            if not np.array_equal(expected, y):
                c.failures.append(f"layer{j}: quantized_sparse_gemm differs from the INT8 oracle")
            w = codec.decompress(out.read[f"layer{j}.weight"]).data.astype(np.float64)
            bias = out.read[f"layer{j}.bias"].data[0].astype(np.float64)
            ref = w @ h_in
            rel_errs.append(float(np.linalg.norm(y - ref) / np.linalg.norm(ref)))
            z_ref = w @ h_ref + bias[:, None]
            h_ref = _relu(z_ref) if j < n_layers - 1 else z_ref
            bytes_dense += w.size * 2 + bias.size * 2
        float_preds = np.argmax(h_ref, axis=0)
        agreement = float(np.mean(out.preds == float_preds))
        if not agreement >= AGREEMENT_FLOOR:
            c.failures.append(f"INT8 argmax agreement {agreement:.3f} below floor {AGREEMENT_FLOOR:.3f}")

        prune = next(p for p in out.report["phases"] if p["kind"] == "prune")
        int8_accuracy = float(np.mean(out.preds == held.y))
        c.quality = {
            "retained_frac": prune["retained_magnitude"]
            / (prune["retained_magnitude"] + prune["lost_magnitude"]),
            "archive_bytes": float(os.path.getsize(self.path)),
            "dense_fp16_bytes": float(bytes_dense),
            "accuracy_drop": 100.0 * (self.dense_accuracy[i % self.pool_size] - int8_accuracy),
            "int8_rel_err": float(np.mean(rel_errs)),
            "int8_agreement": agreement,
        }
        return c

    def quality(self, items: list[dict]) -> dict[str, float]:
        return {
            "retained_frac": float(np.mean([q["retained_frac"] for q in items])),
            "storage_ratio": sum(q["archive_bytes"] for q in items)
            / sum(q["dense_fp16_bytes"] for q in items),
            "accuracy_drop": float(np.mean([q["accuracy_drop"] for q in items])),
            "int8_rel_err": float(np.mean([q["int8_rel_err"] for q in items])),
            "int8_agreement": float(np.mean([q["int8_agreement"] for q in items])),
        }


WORKLOADS = {w.name: w for w in (Ship, Serve, Deploy)}
