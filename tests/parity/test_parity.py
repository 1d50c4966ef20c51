"""Parity corpus: one SHA-256 per output that the library defines bit for bit.

A seeded generator builds every input. Each function's inputs are built in
this file from storage words, not by another covered function, so a change
to one function moves its own digest, and the digests of the functions
that call it (``from_values`` calls ``round_array``; S24T sparse and mask
entries are packed by ``pack_bit_fields``), and no other. NaN inputs to the
rounding have their own digest, ``round_array/nan``.

``manifest.json`` holds the expected digests. A change that alters outputs
by design regenerates it with ``PYTHONPATH=src python tests/parity/test_parity.py``
and names each changed digest and its reason.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sparse24 as s
from sparse24.archive import pack_bit_fields
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

    return {name: h.hexdigest() for name, h in sorted(digests.items())}


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
        MANIFEST.write_text(json.dumps(corpus(), indent=1) + "\n")
