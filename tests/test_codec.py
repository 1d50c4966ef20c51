import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse24 as s
from conftest import random_conforming, random_dense


class TestConformance:
    def test_two_nonzeros_per_group(self):
        a = s.DenseMatrix.from_values([[5, 0, 0, -6, 0, 1, 2, 0]], s.FP32)
        s.check_conformance(a, s.PATTERN_24)

    def test_all_zero(self):
        a = s.DenseMatrix.from_values(np.zeros((3, 8)), s.FP32)
        s.check_conformance(a, s.PATTERN_24)

    def test_three_nonzeros_fails(self):
        a = s.DenseMatrix.from_values([[1, 1, 1, 0]], s.FP32)
        with pytest.raises(s.ConformanceError) as exc:
            s.check_conformance(a, s.PATTERN_24)
        assert exc.value.row == 0 and exc.value.group == 0

    def test_group_size_must_divide(self):
        a = s.DenseMatrix.from_values(np.zeros((1, 6)), s.FP32)
        with pytest.raises(s.ShapeError):
            s.check_conformance(a, s.PATTERN_24)

    def test_underfull_mask_group_message(self):
        with pytest.raises(s.ConformanceError, match="1 kept, 2:4 keeps 2") as exc:
            s.Mask(np.array([[1, 1, 0, 0, 0, 0, 1, 0]], dtype=bool)).check(s.PATTERN_24)
        assert (exc.value.row, exc.value.group) == (0, 1)


class TestMask:
    def test_non_bool_bits_rejected(self):
        # a 2 would scale the weight under it wherever the mask multiplies
        with pytest.raises(s.ShapeError):
            s.Mask(np.array([[1, 0, 2, 0]]))

    def test_one_d_bits_rejected(self):
        with pytest.raises(s.ShapeError):
            s.Mask(np.array([True, False, True, False])).check(s.PATTERN_24)


class TestCompress:
    def test_metadata_matches_worked_example(self):
        # nonzeros at positions 0,3 in the first group and 1,2 in the second
        a = s.DenseMatrix.from_values([[5, 0, 0, -6, 0, 1, 2, 0]], s.FP32)
        sp = s.compress(a, s.PATTERN_24)
        assert sp.meta.tolist() == [[0, 3, 1, 2]]
        assert sp.values.tolist() == [[5, -6, 1, 2]]

    def test_all_zero_row_canonical_padding(self):
        a = s.DenseMatrix.from_values(np.zeros((1, 4)), s.FP32)
        sp = s.compress(a, s.PATTERN_24)
        assert sp.values.tolist() == [[0, 0]]
        assert sp.meta.tolist() == [[0, 1]]

    def test_single_nonzero_padding_uses_smallest_unused(self):
        a = s.DenseMatrix.from_values([[0, 0, 0, 7]], s.FP32)
        sp = s.compress(a, s.PATTERN_24)
        assert sp.meta.tolist() == [[0, 3]]
        assert sp.values.tolist() == [[0, 7]]

    def test_nonconforming_rejected(self):
        a = s.DenseMatrix.from_values([[1, 1, 1, 0]], s.FP32)
        with pytest.raises(s.ConformanceError):
            s.compress(a, s.PATTERN_24)

    def test_roundtrip_fp16_16x32(self, rng):
        a = random_conforming(rng, 16, 32, s.FP16)
        back = s.decompress(s.compress(a, s.PATTERN_24))
        assert np.array_equal(back.data, a.data)

    def test_roundtrip_all_formats(self, rng):
        for fmt in s.ALL_FORMATS:
            a = random_conforming(rng, 8, 16, fmt)
            back = s.decompress(s.compress(a, s.PATTERN_24))
            assert np.array_equal(back.data, a.data), fmt

    def test_compress_of_decompress_is_identity_on_canonical(self, rng):
        a = random_conforming(rng, 8, 16, s.FP32)
        sp = s.compress(a, s.PATTERN_24)
        sp2 = s.compress(s.decompress(sp), s.PATTERN_24)
        assert np.array_equal(sp.values, sp2.values)
        assert np.array_equal(sp.meta, sp2.meta)

    def test_metadata_strictly_increasing(self, rng):
        sp = s.compress(random_conforming(rng, 12, 24, s.FP32), s.PATTERN_24)
        grouped = sp.meta.reshape(12, -1, 2)
        assert np.all(np.diff(grouped, axis=2) > 0)

    def test_1_2_pattern(self, rng):
        a = random_conforming(rng, 4, 8, s.FP32, s.PATTERN_12)
        sp = s.compress(a, s.PATTERN_12)
        assert sp.values.shape == (4, 4)
        assert np.array_equal(s.decompress(sp).data, a.data)


def compress_cumsum_oracle(a, pattern):
    """The cumsum-based compress that the zero-rank matmul replaced.
    Returns (values, meta)."""
    n, m = pattern.n, pattern.m
    groups = a.data.reshape(a.rows, -1, m)
    nz = groups != 0
    zero_rank = np.cumsum(~nz, axis=2)
    kept = nz | (zero_rank <= n - nz.sum(axis=2, keepdims=True))
    flat = np.flatnonzero(kept)
    return groups.ravel()[flat].reshape(a.rows, -1), (flat % m).astype(np.uint8).reshape(a.rows, -1)


class TestCompressMatchesCumsum:
    # conforming matrices whose groups are then thinned at random, so every
    # nonzero count from 0 to n occurs and padding is exercised everywhere
    @pytest.mark.parametrize("fmt", s.ALL_FORMATS, ids=str)
    @pytest.mark.parametrize("pattern", ["2:4", "1:2", "3:8", "1:4", "3:4", "2:8"])
    def test_same_values_and_meta_as_cumsum(self, rng, pattern, fmt):
        pattern = s.NMPattern.parse(pattern)
        for _ in range(12):
            rows, groups = int(rng.integers(1, 10)), int(rng.integers(1, 8))
            a = random_conforming(rng, rows, groups * pattern.m, fmt, pattern)
            data = np.where(rng.random(a.data.shape) < 0.3, 0, a.data).astype(a.data.dtype)
            a = s.DenseMatrix(data, fmt)
            sp = s.compress(a, pattern)
            values, meta = compress_cumsum_oracle(a, pattern)
            assert sp.values.dtype == values.dtype and np.array_equal(sp.values, values)
            assert sp.meta.dtype == meta.dtype and np.array_equal(sp.meta, meta)


class TestDecompress:
    def test_layout(self):
        sp = s.SparseNM(
            cols_orig=4,
            pattern=s.PATTERN_24,
            values=np.array([[2.0, 9.0]], dtype=np.float32),
            meta=np.array([[0, 3]], dtype=np.uint8),
            fmt=s.FP32,
        )
        assert s.decompress(sp).data.tolist() == [[2.0, 0.0, 0.0, 9.0]]

    def test_empty_matrix(self):
        sp = s.SparseNM(
            cols_orig=4,
            pattern=s.PATTERN_24,
            values=np.zeros((0, 2), dtype=np.float32),
            meta=np.zeros((0, 2), dtype=np.uint8),
            fmt=s.FP32,
        )
        assert s.decompress(sp).data.shape == (0, 4)

    def test_malformed_metadata_rejected(self):
        bad_order = s.SparseNM(
            4, s.PATTERN_24, np.ones((1, 2), np.float32), np.array([[3, 0]], np.uint8), s.FP32
        )
        with pytest.raises(s.MetadataError):
            s.decompress(bad_order)
        out_of_range = s.SparseNM(
            4, s.PATTERN_24, np.ones((1, 2), np.float32), np.array([[1, 4]], np.uint8), s.FP32
        )
        with pytest.raises(s.MetadataError):
            s.decompress(out_of_range)

    def test_float_metadata_rejected(self):
        sp = s.SparseNM(4, s.PATTERN_24, np.ones((1, 2), np.float32), np.array([[0.0, 1.0]]), s.FP32)
        with pytest.raises(s.MetadataError):
            s.decompress(sp)

    @pytest.mark.parametrize(
        "dtype", ["int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64"]
    )
    def test_every_integer_metadata_dtype(self, rng, tmp_path, dtype):
        # metadata is uint8, as compress makes it and the archive reads it
        # back; decompress, spmm and write_archive reject every other dtype
        packed = s.compress(random_conforming(rng, 8, 32, s.FP16), s.PATTERN_24)
        assert packed.meta.dtype == np.uint8
        other = s.SparseNM(packed.cols_orig, packed.pattern, packed.values, packed.meta.astype(dtype), packed.fmt)
        b = random_dense(rng, 32, 8, s.FP16)
        calls = {
            "decompress": lambda: s.decompress(other),
            "spmm": lambda: s.spmm(other, b),
            "write_archive": lambda: s.write_archive(s.TensorArchive().add("w", other), tmp_path / "w.s24t"),
        }
        for name, call in calls.items():
            if dtype == "uint8":
                call()
            else:
                with pytest.raises(s.MetadataError, match="uint8"):
                    call()
                assert not (tmp_path / "w.s24t").exists(), name

    def test_width_not_a_multiple_of_m_rejected(self):
        sp = s.SparseNM(10, s.PATTERN_24, np.ones((1, 4), np.float32), np.array([[0, 1, 0, 1]], np.uint8), s.FP32)
        with pytest.raises(s.ShapeError):
            s.decompress(sp)


@pytest.mark.parametrize(
    "call",
    ["compress", "check_conformance", "mask_check", "prune_magnitude", "greedy", "exhaustive"],
)
def test_zero_row_matrix(call):
    w = s.DenseMatrix.from_values(np.zeros((0, 8)), s.FP16)
    if call == "compress":
        sp = s.compress(w, s.PATTERN_24)
        assert sp.values.shape == sp.meta.shape == (0, 4)
        back = s.decompress(sp)
        assert back.fmt == w.fmt and back.data.shape == (0, 8) and back.data.dtype == w.data.dtype
    elif call == "check_conformance":
        s.check_conformance(w, s.PATTERN_24)
    elif call == "mask_check":
        s.Mask(np.zeros((0, 8), dtype=bool)).check(s.PATTERN_24)
    else:
        if call == "prune_magnitude":
            res = s.prune_magnitude(w, s.PATTERN_24)
        else:
            perm, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode=call))
            assert perm.is_identity()
        assert res.mask.bits.shape == (0, 8)
        assert res.retained_magnitude == res.lost_magnitude == 0.0


class TestStorageBits:
    def test_fp16_group_is_36_bits(self):
        a = s.DenseMatrix.from_values([[1, 0, 2, 0]], s.FP16)
        bits = s.storage_bits(s.compress(a, s.PATTERN_24))
        assert bits == 36
        dense = s.dense_storage_bits(1, 4, s.FP16)
        assert dense == 64
        assert 1 - bits / dense == pytest.approx(0.4375)

    def test_int8_group_is_20_bits(self):
        a = s.DenseMatrix.from_values([[1, 0, 2, 0]], s.INT8)
        bits = s.storage_bits(s.compress(a, s.PATTERN_24))
        assert bits == 20
        assert 1 - bits / s.dense_storage_bits(1, 4, s.INT8) == pytest.approx(0.375)

    def test_fp16_1_2_group_is_17_bits(self):
        a = s.DenseMatrix.from_values([[1, 0]], s.FP16)
        assert s.storage_bits(s.compress(a, s.PATTERN_12)) == 17

    def test_matches_closed_form(self, rng):
        for fmt in (s.FP16, s.INT8, s.FP32):
            a = random_conforming(rng, 8, 32, fmt)
            sp = s.compress(a, s.PATTERN_24)
            expect = 8 * 32 * 2 // 4 * (fmt.elem_bits + 2)
            assert s.storage_bits(sp) == expect


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 12),
    groups=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    fmt_idx=st.integers(0, len(s.ALL_FORMATS) - 1),
)
def test_roundtrip_property(rows, groups, seed, fmt_idx):
    rng = np.random.default_rng(seed)
    a = random_conforming(rng, rows, groups * 4, s.ALL_FORMATS[fmt_idx])
    back = s.decompress(s.compress(a, s.PATTERN_24))
    assert np.array_equal(back.data, a.data)


GROUP_PATTERNS = ["1:2", "2:4", "1:4", "4:8", "3:16", "1:255"]


@settings(max_examples=80, deadline=None)
@given(
    pattern=st.sampled_from(GROUP_PATTERNS),
    rows=st.integers(1, 6),
    groups=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_counts_reported_by_both_checks(pattern, rows, groups, seed):
    """Mask.check and check_conformance report the first offending group in
    row-major order and its count, against flags.sum(axis=2)."""
    p = s.NMPattern.parse(pattern)
    rng = np.random.default_rng(seed)
    flags = rng.random((rows, groups, p.m)) < rng.random()
    if rng.random() < 0.3:  # some cases conform everywhere
        flags = p.keep(rng.random(flags.shape))
    counts = flags.sum(axis=2)
    bits = flags.reshape(rows, groups * p.m)

    off = np.argwhere(counts != p.n)
    if len(off):
        r, g = off[0]
        with pytest.raises(s.ConformanceError, match=f"^row {r}, group {g}: {counts[r, g]} kept,") as exc:
            s.Mask(bits).check(p)
        assert (exc.value.row, exc.value.group) == (r, g)
    else:
        s.Mask(bits).check(p)

    a = s.DenseMatrix(np.where(bits, np.float32(1.5), np.float32(0)), s.FP32)
    over = np.argwhere(counts > p.n)
    if len(over):
        r, g = over[0]
        with pytest.raises(s.ConformanceError, match=f"^row {r}, group {g}: {counts[r, g]} nonzeros") as exc:
            s.check_conformance(a, p)
        assert (exc.value.row, exc.value.group) == (r, g)
    else:
        s.check_conformance(a, p)


# -0.0, ±inf and NaNs with distinct payloads and signs, as raw float32 words
SPECIAL_WORDS = np.array(
    [0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F812345, 0x00000001, 0x3F800000],
    dtype=np.uint32,
).view(np.float32)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(0, 6),
    cols=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    fmt_idx=st.integers(0, len(s.ALL_FORMATS) - 1),
)
def test_apply_mask_matches_where_bytewise(rows, cols, seed, fmt_idx):
    fmt = s.ALL_FORMATS[fmt_idx]
    rng = np.random.default_rng(seed)
    if fmt.is_integer:
        data = rng.integers(-128, 128, size=(rows, cols)).astype(np.int32)
    else:
        pool = np.concatenate([SPECIAL_WORDS, rng.standard_normal(8).astype(np.float32)])
        data = rng.choice(pool, size=(rows, cols))
    bits = rng.random((rows, cols)) < rng.random()
    got = s.apply_mask(s.DenseMatrix(data, fmt), s.Mask(bits))
    expect = np.where(bits, data, data.dtype.type(0))
    assert got.fmt == fmt
    assert got.data.dtype == expect.dtype
    assert got.data.tobytes() == expect.tobytes()


def decompress_loop_oracle(sp):
    """Scatter every kept value to its original column, one value at a time."""
    p = sp.pattern
    out = np.zeros((sp.rows, sp.cols_orig), dtype=sp.values.dtype)
    for r in range(sp.rows):
        for j in range(sp.cols_kept):
            out[r, (j // p.n) * p.m + int(sp.meta[r, j])] = sp.values[r, j]
    return out


@settings(max_examples=80, deadline=None)
@given(
    pattern=st.sampled_from(GROUP_PATTERNS),
    rows=st.integers(0, 6),
    groups=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    fmt_idx=st.integers(0, len(s.ALL_FORMATS) - 1),
)
def test_decompress_matches_loop_scatter(pattern, rows, groups, seed, fmt_idx):
    p, fmt = s.NMPattern.parse(pattern), s.ALL_FORMATS[fmt_idx]
    rng = np.random.default_rng(seed)
    meta = np.sort(np.argsort(rng.random((rows, groups, p.m)), axis=2)[..., : p.n], axis=2)
    values = random_dense(rng, rows, groups * p.n, fmt).data
    sp = s.SparseNM(groups * p.m, p, values, meta.reshape(rows, groups * p.n).astype(np.uint8), fmt)
    got = s.decompress(sp)
    assert got.fmt == fmt
    assert got.data.dtype == values.dtype
    assert got.data.tobytes() == decompress_loop_oracle(sp).tobytes()


class TestApplyMask:
    def test_full_true(self, rng):
        a = random_dense(rng, 4, 8, s.FP32)
        out = s.apply_mask(a, s.Mask(np.ones((4, 8), dtype=bool)))
        assert np.array_equal(out.data, a.data)

    def test_all_false(self, rng):
        a = random_dense(rng, 4, 8, s.FP32)
        out = s.apply_mask(a, s.Mask(np.zeros((4, 8), dtype=bool)))
        assert np.all(out.data == 0)

    def test_shape_mismatch(self, rng):
        a = random_dense(rng, 4, 8, s.FP32)
        with pytest.raises(s.ShapeError):
            s.apply_mask(a, s.Mask(np.ones((4, 4), dtype=bool)))
