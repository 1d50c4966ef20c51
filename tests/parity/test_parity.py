"""Parity corpus: one SHA-256 per output that the library defines bit for bit.

A seeded generator builds every input. Each function's inputs are built in
this file from storage words, not by another covered function, so a change
to one function moves its own digest, and the digests of the functions
that call it (``from_values`` calls ``round_array``; S24T sparse and mask
entries are packed by ``pack_bit_fields``; ``compress``, ``prune_magnitude``
and ``find_permutation`` run ``NMPattern.keep``; ``gemm_dense`` and ``spmm``
share one accumulate loop), and no other. NaN inputs to the rounding have
their own digest, ``round_array/nan``. Calibration has one digest per
method and granularity of ``calibrate``'s scales, one per histogram family
of ``entropy_threshold``'s clip points, and one each for the error class,
text and code of malformed histograms and calibration samples.
Training has one digest each for ``loss_and_grads``, dense ``train`` (with
a divergence message) and masked ``train`` with weight decay and lr decay,
and one for ``run_recipe``'s report, final net and masks.
``find_transposable_mask`` is left out: it scores tiles with a BLAS
product, whose summation order is the BLAS build's. The training digests
rest on BLAS products too, so they hold for one BLAS build and CPU kernel:
on another, regenerate them and check that only ``train/*`` and
``run_recipe`` move.

The FP32-accumulate GEMM digests (``gemm_dense/<elem>/fp32`` and
``spmm/<elem>/fp32``) also rest on the vector width of numpy's float32 add:
their ±inf and NaN operands give steps that add two NaNs, and that add
returns the first or the second by the lane of its loop, so such a
result's payload and sign may differ on another host (see ``formats``).
There, check that only those digests move, and only in NaN words.

``manifest.json`` holds the expected digests. A change that alters outputs
by design regenerates it with ``PYTHONPATH=src python tests/parity/test_parity.py``,
which prints each digest it adds, removes or changes, and names each
changed digest and its reason.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sparse24 as s
from sparse24.archive import pack_bit_fields
from sparse24.calibration import HIST_BINS, entropy_threshold
from sparse24.formats import ElemType, round_array

MANIFEST = Path(__file__).with_name("manifest.json")
SEED = 20240611
PATTERNS = ("1:2", "2:4", "1:4", "3:4", "2:8", "4:8", "3:16")
SHAPES = ((0, 16), (1, 16), (3, 48), (8, 32))
SPECIAL_F32 = np.array(
    [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1.17549435e-38, 3.4028235e38, 65504.0, 65520.0],
    dtype=np.float32,
)


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        """Hash arrays by dtype, shape and C-order bytes, bytes as they are,
        anything else by repr."""
        for item in items:
            if isinstance(item, bytes):
                self._h.update(item)
            elif isinstance(item, np.ndarray):
                self._h.update(f"{item.dtype.str}{item.shape}".encode())
                self._h.update(np.ascontiguousarray(item).tobytes())
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _outcome(fn):
    """The result of ``fn()``, or the class name of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc).__name__


def _error(fn):
    """The class name, text and code of the ValueError ``fn()`` raises."""
    try:
        fn()
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "code", None)
    raise AssertionError("no error raised")


def _no_nan(words: np.ndarray) -> np.ndarray:
    """float32 words with each NaN replaced by the infinity of its sign."""
    nan = (words & 0x7FFFFFFF) > 0x7F800000
    return np.where(nan, words & 0xFF800000, words).astype(np.uint32)


def _stored_values(rng, shape, elem: ElemType) -> np.ndarray:
    """Random in-memory values that ``elem`` holds exactly, built from its
    storage words (every exponent, no NaN), with special values mixed in."""
    n = int(np.prod(shape))
    if elem is ElemType.INT8:
        out = rng.integers(-128, 128, size=n).astype(np.int32)
        if n >= 3:
            out[:3] = [-128, 127, 0]
        return out.reshape(shape)
    if elem is ElemType.FP16:
        half = rng.integers(0, 2**16, size=n, dtype=np.uint16)
        half = np.where((half & 0x7FFF) > 0x7C00, half & 0xFC00, half).astype(np.uint16)
        out = half.view(np.float16).astype(np.float32)
    elif elem is ElemType.BF16:
        upper = rng.integers(0, 2**16, size=n, dtype=np.uint32) << 16
        out = _no_nan(upper).view(np.float32)
    else:
        words = _no_nan(rng.integers(0, 2**32, size=n, dtype=np.uint32))
        if elem is ElemType.TF32:
            words &= np.uint32(0xFFFFE000)
        out = words.view(np.float32)
    specials = _specials(elem)
    k = min(n, len(specials))
    out[rng.choice(n, size=k, replace=False)] = specials[:k]
    return out.reshape(shape)


def _specials(elem: ElemType) -> np.ndarray:
    """Special values ``elem`` holds exactly: ±0, ±inf and its extremes."""
    vals = [0.0, -0.0, np.inf, -np.inf]
    if elem is ElemType.FP16:
        vals += [65504.0, -65504.0, 2.0**-24, 2.0**-14]
    else:  # fp32 and tf32 hold the bf16 values below too
        vals += [2.0**-133, -(2.0**127), 2.0**-126, 1.0 + 2.0**-7]
    return np.array(vals, dtype=np.float32)


def _rounding_inputs(rng, dtype) -> np.ndarray:
    """Values over 80 decades, ±0, ±inf, subnormals, overflow, ties of each
    float type and the INT8 edges; no NaN."""
    # built with exact operations only (no pow), so the inputs are the same on every host
    mags = np.ldexp(rng.random(400) + 0.5, rng.integers(-150, 130, size=400)) * rng.choice([-1.0, 1.0], size=400)
    ints = np.concatenate([rng.uniform(-300, 300, size=200), np.arange(-130.5, 131)])
    words = _no_nan(rng.integers(0, 2**32, size=300, dtype=np.uint32))
    # bf16 ties and near-ties: low halves 0x7FFF, 0x8000, 0x8001 on every parity
    ties = _no_nan((words[:90] & 0xFFFF0000) | np.tile(np.array([0x7FFF, 0x8000, 0x8001], np.uint32), 30))
    half = rng.integers(0, 0x7BFF, size=100, dtype=np.uint16).view(np.float16)
    above = np.nextafter(half, np.float16(np.inf))
    fp16_ties = (half.astype(np.float32) + above.astype(np.float32)) / np.float32(2)  # exact in fp32
    exact = np.array(
        [0.5, 1.5, 2.5, -0.5, -2.5, 127.5, -128.5, 200.0, -200.0, 127.4999, 1e300, -1e300, 1e-320],
        dtype=np.float64,
    )
    parts = [mags, ints, words.view(np.float32), ties.view(np.float32), fp16_ties, SPECIAL_F32, exact]
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts]).astype(dtype)


def _nan_inputs(dtype) -> np.ndarray:
    words = np.array(
        [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001, 0x7FFFFFFF, 0xFFFFFFFF, 0x7FBFFFFF, 0x7F801000],
        dtype=np.uint32,
    )
    return words.view(np.float32).astype(dtype)


def _conforming(rng, shape, fmt, pattern) -> s.DenseMatrix:
    """Storage-form values with 0..n nonzeros per group (-0.0 among the zeros)."""
    rows, cols = shape
    vals = _stored_values(rng, shape, fmt.elem)
    keys = rng.random((rows, cols // pattern.m, pattern.m))
    count = rng.integers(0, pattern.n + 1, size=keys.shape[:2])[..., None]
    rank = keys.argsort(axis=-1).argsort(axis=-1)
    zero = (rank >= count).reshape(shape)
    vals[zero] = 0
    if not fmt.is_integer:
        vals[zero & (rng.random(shape) < 0.3)] = -0.0
    return s.DenseMatrix(vals, fmt)


def _random_meta(rng, rows, groups, pattern) -> np.ndarray:
    """Strictly increasing n-of-m indices per group, as uint8."""
    keys = rng.random((rows, groups, pattern.m))
    picked = np.sort(np.argsort(keys, axis=-1)[..., : pattern.n], axis=-1)
    return picked.reshape(rows, groups * pattern.n).astype(np.uint8)


def _moderate_values(rng, shape, elem: ElemType) -> np.ndarray:
    """Random in-memory values of ``elem`` with magnitudes in [2**-4, 2**5),
    built from storage words, so that sums of them neither overflow nor
    vanish and their rounding depends on the order they are added in."""
    n = int(np.prod(shape))
    if elem is ElemType.INT8:
        return rng.integers(-128, 128, size=n).astype(np.int32).reshape(shape)
    sign = rng.integers(0, 2, size=n, dtype=np.uint32) << 31
    exponent = rng.integers(127 - 4, 127 + 5, size=n, dtype=np.uint32) << 23
    words = sign | exponent | rng.integers(0, 2**23, size=n, dtype=np.uint32)
    kept_bits = {ElemType.FP16: 0xFFFFE000, ElemType.BF16: 0xFFFF0000, ElemType.TF32: 0xFFFFE000}
    words &= np.uint32(kept_bits.get(elem, 0xFFFFFFFF))
    return words.view(np.float32).reshape(shape)


def _tied_values(rng, shape, elem: ElemType) -> np.ndarray:
    """Finite values of ``elem`` drawn from few magnitudes of either sign
    (so many ties in |x|), ±0 among them, from its storage words."""
    if elem is ElemType.INT8:
        return rng.choice(np.array([0, 1, -1, 5, -5, 127, -128], dtype=np.int32), size=shape)
    words = np.array([0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x40400000, 0xC0400000], dtype=np.uint32)
    return rng.choice(words, size=shape).view(np.float32)


def _nan_word(elem: ElemType) -> np.float32:
    """A NaN with a payload that ``elem`` stores exactly."""
    words = {ElemType.FP16: 0x7FC02000, ElemType.BF16: 0xFFC10000, ElemType.TF32: 0x7FC02000}
    return np.array([words.get(elem, 0x7FC00001)], dtype=np.uint32).view(np.float32)[0]


def _sums(result) -> np.ndarray:
    return np.array([result.retained_magnitude, result.lost_magnitude])


def corpus() -> dict[str, str]:
    """Every digest, keyed by output name."""
    rng = np.random.default_rng(SEED)
    digests: dict[str, Digest] = {}

    def d(name: str) -> Digest:
        return digests.setdefault(name, Digest())

    for dtype in (np.float32, np.float64):
        x = _rounding_inputs(rng, dtype)
        nan = _nan_inputs(dtype)
        for elem in ElemType:
            d(f"round_array/{elem.value}/{np.dtype(dtype).name}").add(round_array(x, elem))
            d("round_array/nan").add(elem.value, _outcome(lambda: round_array(nan, elem)))

    for fmt in s.ALL_FORMATS:
        for shape in SHAPES + ((2, 0),):
            x = rng.permutation(_rounding_inputs(rng, np.float64))[: shape[0] * shape[1]].reshape(shape)
            for values in (x, x.astype(np.float32), np.asfortranarray(x)):
                m = s.DenseMatrix.from_values(values, fmt)
                d(f"from_values/{fmt}").add(m.data)

    for fmt in s.ALL_FORMATS:
        for text in PATTERNS:
            p = s.NMPattern.parse(text)
            for rows in (0, 1, 5):
                a = _conforming(rng, (rows, 2 * p.m), fmt, p)
                sp = s.compress(a, p)
                d("compress").add(sp.values, sp.meta, sp.cols_orig, str(sp.pattern), str(sp.fmt))

                groups = int(rng.integers(1, 4))
                values = _stored_values(rng, (rows, groups * p.n), fmt.elem)
                packed = s.SparseNM(groups * p.m, p, values, _random_meta(rng, rows, groups, p), fmt)
                d("decompress").add(s.decompress(packed).data)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.s24t"

        def s24t(name: str, entry) -> None:
            s.write_archive(s.TensorArchive().add("e", entry), path)
            back = s.read_archive(path)["e"]
            arrays = [getattr(back, f) for f in ("data", "values", "meta", "bits", "scales") if hasattr(back, f)]
            d(f"s24t/{name}").add(path.read_bytes(), *arrays)

        for fmt in s.ALL_FORMATS:
            for shape in SHAPES:
                s24t("dense", s.DenseMatrix(_stored_values(rng, shape, fmt.elem), fmt))
            for text in PATTERNS:
                p = s.NMPattern.parse(text)
                rows, groups = int(rng.integers(0, 4)), int(rng.integers(1, 4))
                values = _stored_values(rng, (rows, groups * p.n), fmt.elem)
                s24t("sparse", s.SparseNM(groups * p.m, p, values, _random_meta(rng, rows, groups, p), fmt))
        for rows, cols in ((0, 5), (1, 1), (3, 7), (4, 16), (5, 33)):
            s24t("mask", s.Mask(rng.random((rows, cols)) < 0.5))
        for n in (1, 3, 17):
            scales = np.ldexp(rng.random(n) + 0.5, rng.integers(-100, 100, size=n))
            gran = s.Granularity.PER_TENSOR if n == 1 else s.Granularity.PER_ROW
            s24t("scales", s.ScaleSet(gran, scales))

    for bits in range(1, 9):
        for rows, per_row in ((0, 4), (1, 1), (3, 5), (4, 16), (2, 37)):
            fields = rng.integers(0, 2**bits, size=(rows, per_row))
            d("pack_bit_fields").add(bits, pack_bit_fields(fields.astype(np.uint8), bits))

    for text in PATTERNS:
        p = s.NMPattern.parse(text)
        for fmt in (s.FP16, s.BF16, s.FP32, s.INT8):
            for shape in ((0, 2 * p.m), (3, 0), (5, 3 * p.m)):
                for build in (_stored_values, _tied_values):
                    vals = build(rng, shape, fmt.elem)
                    if fmt.is_integer or build is _stored_values:  # finite: prune_magnitude refuses ±inf
                        vals = np.where(np.abs(vals) < np.inf, vals, 0).astype(vals.dtype)
                    if vals.size:
                        vals[1] = 0  # a row of zeros
                        vals[:, -1] = 0  # and a column
                    result = s.prune_magnitude(s.DenseMatrix(vals, fmt), p)
                    d("prune_magnitude").add(result.mask.bits, _sums(result))

    for text, cols in (("1:2", 8), ("2:4", 8), ("2:4", 12), ("1:4", 8), ("3:4", 8), ("2:8", 8)):
        p = s.NMPattern.parse(text)
        for rows, build in itertools.product((1, 6), (_moderate_values, _tied_values)):
            vals = build(rng, (rows, cols), ElemType.FP16)
            budget = s.SearchBudget(mode="exhaustive")
            perm, result = s.find_permutation(s.DenseMatrix(vals, s.FP16), p, budget)
            visited = budget.stats["partitions_visited"]
            d("find_permutation/exhaustive").add(perm.perm, visited, result.mask.bits, _sums(result))

    for text in PATTERNS:
        p = s.NMPattern.parse(text)
        cols = 4 * p.m
        for rows, max_swaps, restarts in ((1, 40, 1), (8, 400, 3), (33, 5000, 2)):
            # column-scaled magnitudes, so that reordering columns pays
            vals = _moderate_values(rng, (rows, cols), ElemType.FP16)
            vals *= rng.choice([1.0, 16.0], size=cols).astype(np.float32)
            vals[:, : p.m] = vals[:, :1]  # equal columns: ties between candidate swaps
            budget = s.SearchBudget(mode="greedy", restarts=restarts, max_swaps=max_swaps, seed=int(rng.integers(100)))
            perm, result = s.find_permutation(s.DenseMatrix(vals, s.FP16), p, budget)
            d("find_permutation/greedy").add(perm.perm, budget.stats["swaps_used"], result.mask.bits, _sums(result))

    for fmt in s.ALL_FORMATS:
        for shape in ((0, 4), (1, 1), (4, 8), (7, 33)):
            vals = _stored_values(rng, shape, fmt.elem)
            bits = rng.random(shape) < 0.5
            if not fmt.is_integer and bits.size > 4:
                dropped = np.flatnonzero(~bits)
                vals.flat[dropped[:4]] = [-0.0, np.inf, -np.inf, _nan_word(fmt.elem)][: len(dropped)]
                vals.flat[np.flatnonzero(bits)[:1]] = _nan_word(fmt.elem)  # a kept NaN keeps its payload
            d(f"apply_mask/{fmt}").add(s.apply_mask(s.DenseMatrix(vals, fmt), s.Mask(bits)).data)

    for fmt in s.ALL_FORMATS:
        k = 2 * fmt.sparse_k_multiple
        for m, n in ((0, 3), (3, 0), (5, 7), (16, 24)):
            for build in (_moderate_values, _stored_values):  # _stored_values brings ±inf, so NaN
                a = s.DenseMatrix(build(rng, (m, k), fmt.elem), fmt)
                b = s.DenseMatrix(build(rng, (k, n), fmt.elem), fmt)
                d(f"gemm_dense/{fmt}").add(s.gemm_dense(a, b).data)
                if not fmt.sparse_capable:
                    continue
                p = s.PATTERN_24
                packed = s.SparseNM(k, p, build(rng, (m, k // 2), fmt.elem), _random_meta(rng, m, k // p.m, p), fmt)
                counter = s.MultiplyAddCounter()
                d(f"spmm/{fmt}").add(s.spmm(packed, b, counter=counter).data, counter.count)

    for method in ("max", "percentile", "entropy"):
        calib = s.CalibMethod(method)
        for gran in s.Granularity:
            for stream in _calibration_streams(rng):
                d(f"calibrate/{method}/{gran.value}").add(s.calibrate(stream, calib, gran).scales)

    for family, hists in _histogram_families(rng).items():
        for hist in hists:
            d(f"entropy_threshold/{family}").add(len(hist), entropy_threshold(hist))
        for n in sorted({len(h) for h in hists}):
            d(f"entropy_threshold/{family}").add(entropy_threshold(np.stack([h for h in hists if len(h) == n])))

    for bad in (np.r_[-5.0, np.ones(HIST_BINS - 1)], np.r_[np.ones(9), np.nan], np.r_[np.inf, np.ones(3)]):
        d("entropy_threshold/errors").add(*_error(lambda: entropy_threshold(bad)))
    for shape in ((), (2, 3, 4)):
        d("entropy_threshold/errors").add(*_error(lambda: entropy_threshold(np.ones(shape))))
    finite = _post_relu(rng, (3, 8))
    for bad in (np.nan, np.inf, -np.inf):
        sample = finite.copy()
        sample[1, 2] = bad
        for method in ("max", "percentile", "entropy"):
            stream = [s.DenseMatrix(finite, s.FP32), s.DenseMatrix(sample, s.FP32)]
            d("calibrate/errors").add(*_error(lambda: s.calibrate(stream, s.CalibMethod(method))))
    uneven = [s.DenseMatrix(finite, s.FP32), s.DenseMatrix(finite[:2], s.FP32)]
    d("calibrate/errors").add(*_error(lambda: s.calibrate(uneven, s.CalibMethod("max"), s.Granularity.PER_ROW)))
    d("calibrate/errors").add(*_error(lambda: s.calibrate([], s.CalibMethod("entropy"))))

    for sizes, samples in (([4, 4, 2], 11), ([16, 16, 3], 96), ([9, 7, 5, 3], 40), ([32, 32, 4], 128)):
        data = s.make_blobs(samples=samples, features=sizes[0], classes=sizes[-1], seed=int(rng.integers(100)))
        net = s.TinyNet.init(sizes, seed=int(rng.integers(100)))
        for labels in (data.y, data.y.astype(np.uint8)):
            loss, gw, gb = net.loss_and_grads(data.x, labels)
            d("train/loss_and_grads").add(loss, *gw, *gb)
        dense = s.Schedule(epochs=3, lr=0.05, batch_size=int(rng.integers(1, 40)), seed=int(rng.integers(100)))
        trained, hist = s.train(net, data, dense)
        d("train/dense").add(*trained.weights, *trained.biases, hist["loss"])
        # 2:4 masks on the layers whose inputs are a multiple of 4 wide
        masks = {i: _mask_24(w) for i, w in enumerate(trained.weights) if w.shape[1] % 4 == 0}
        decayed = s.Schedule(epochs=4, lr=0.05, weight_decay=1e-3, lr_decay_epochs=(1, 3), lr_decay_factor=0.5)
        retrained, hist = s.train(trained, data, decayed, masks=masks)
        d("train/masked").add(sorted(masks), *retrained.weights, *retrained.biases, hist["loss"])
    blobs = s.make_blobs(samples=64, features=16, classes=3, seed=1)
    with pytest.raises(s.DivergenceError) as diverged:
        s.train(s.TinyNet.init([16, 16, 3], seed=1), blobs, s.Schedule(epochs=20, lr=1e6))
    d("train/dense").add(str(diverged.value))

    for seed in (3, 4):
        data = s.make_blobs(samples=128, features=32, classes=4, spread=1.5, seed=seed)
        report = s.run_recipe(s.parse_recipe(RECIPE), s.TinyNet.init([32, 32, 4], seed=seed), data)
        for phase in report["phases"]:
            d("run_recipe").add(*sorted(phase.items()))
        net, masks = report["net"], report["masks"]
        d("run_recipe").add(report["final_accuracy"], *net.weights, *net.biases, *(masks[i].bits for i in range(2)))

    return {name: h.hexdigest() for name, h in sorted(digests.items())}


RECIPE = """
[phase.dense]
kind = train_dense
epochs = 4
lr = 0.05
weight_decay = 1e-4
seed = 2
[phase.prune]
kind = prune
pattern = 2:4
[phase.retrain]
kind = retrain_sparse
[phase.finetune]
kind = finetune_sparse
epochs = 2
lr = 0.01
lr_decay_epochs = 1
"""


def _mask_24(w: np.ndarray) -> s.Mask:
    return s.prune_magnitude(s.DenseMatrix(w.astype(np.float32), s.FP32), s.PATTERN_24).mask


def _post_relu(rng, shape) -> np.ndarray:
    """FP32 values like a ReLU's output: about half exact zeros."""
    return np.maximum(_moderate_values(rng, shape, ElemType.FP32), np.float32(0))


def _pruned_24(rng, shape) -> np.ndarray:
    """FP32 rows with two of each group of four zeroed, like a 2:4-pruned head."""
    vals = _moderate_values(rng, shape, ElemType.FP32)
    keys = rng.random((shape[0], shape[1] // 4, 4))
    vals[(keys.argsort(axis=-1).argsort(axis=-1) >= 2).reshape(shape)] = 0
    return vals


def _calibration_streams(rng) -> list[list[s.DenseMatrix]]:
    """Sample streams: post-ReLU tensors, 2:4-pruned head rows, tensors
    with an all-zero row, an all-zero stream and a nearly all-zero one."""
    streams = []
    for rows, cols, count in ((1, 16, 1), (4, 32, 1), (8, 24, 3), (32, 96, 2)):
        streams.append([_post_relu(rng, (rows, cols)) for _ in range(count)])
        streams.append([_pruned_24(rng, (rows, cols)) for _ in range(count)])
        with_zero_row = [_post_relu(rng, (rows + 1, cols)) for _ in range(count)]
        for vals in with_zero_row:
            vals[rows // 2] = 0
        streams.append(with_zero_row)
    streams.append([np.zeros((4, 8), np.float32), np.zeros((4, 8), np.float32)])
    # one nonzero in more than 10 000 values: the 99.99th percentile is 0, so it falls back to max
    sparse = [np.zeros((2, 5200), np.float32), np.zeros((2, 5200), np.float32)]
    sparse[0][:, 7] = _moderate_values(rng, (2,), ElemType.FP32)
    streams.append(sparse)
    return [[s.DenseMatrix(vals, s.FP32) for vals in stream] for stream in streams]


def _slice_histogram(x: np.ndarray) -> np.ndarray:
    """The histogram ``calibrate`` builds for one slice of |x| values."""
    return np.histogram(x, bins=HIST_BINS, range=(0.0, x.max()))[0].astype(np.float64)


def _histogram_families(rng) -> dict[str, list[np.ndarray]]:
    """Histograms of each family the entropy tests compare against their loop oracle."""
    fams: dict[str, list[np.ndarray]] = {name: [] for name in ("half_gaussian", "half_laplace", "sparse", "uniform")}
    for _ in range(12):
        n = int(rng.integers(32, 20_001))
        fams["half_gaussian"].append(_slice_histogram(np.abs(rng.standard_normal(n))))
        fams["half_laplace"].append(_slice_histogram(np.abs(rng.laplace(size=n))))
        density = rng.uniform(0.001, 0.3)
        counts = rng.integers(1, 1000, HIST_BINS) * (rng.random(HIST_BINS) < density)
        fams["sparse"].append(counts.astype(np.float64))
        fams["uniform"].append(rng.integers(0, 100, HIST_BINS).astype(np.float64))
    fams["zeros"] = [np.zeros(HIST_BINS)]
    fams["spike"] = []
    for at in (0, 1, 127, 128, 129, 1000, 2046, 2047):
        spike = np.zeros(HIST_BINS)
        spike[at] = rng.integers(1, 10_000)
        fams["spike"].append(spike)
    fams["length"] = []
    for n in (0, 1, 127, 128, 129, 300, 513, 2048, 1000, 2100):
        fams["length"] += [
            np.zeros(n),
            rng.integers(0, 50, n).astype(np.float64),
            np.exp(-0.5 * (np.arange(n) / rng.uniform(20, 700)) ** 2),
        ]
    fams["head_2of4"] = [_slice_histogram(np.abs(row)) for _ in range(3) for row in _pruned_24(rng, (4, 32))]
    return fams


EXPECTED = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}


@pytest.fixture(scope="module")
def computed():
    with np.errstate(over="ignore", invalid="ignore"):  # casts to narrower types overflow by design
        return corpus()


def test_manifest_names_every_digest(computed):
    assert sorted(computed) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_digest(computed, name):
    assert computed[name] == EXPECTED[name]


if __name__ == "__main__":
    with np.errstate(over="ignore", invalid="ignore"):
        digests = corpus()
    for name in sorted(EXPECTED.keys() | digests.keys()):
        if name not in digests:
            print(f"removed {name}")
        elif name not in EXPECTED:
            print(f"added   {name}")
        elif digests[name] != EXPECTED[name]:
            print(f"changed {name}")
    MANIFEST.write_text(json.dumps(digests, indent=1) + "\n")
