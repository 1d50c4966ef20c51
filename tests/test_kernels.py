import numpy as np
import pytest

import sparse24 as s
from conftest import random_conforming, random_dense


def make_case(rng, m, n, k, fmt, pattern=s.PATTERN_24):
    a = random_conforming(rng, m, k, fmt, pattern)
    sp = s.compress(a, pattern)
    b = random_dense(rng, k, n, fmt)
    return a, sp, b


class TestSpmm:
    def test_selector_rows_pick_rows_of_b(self, rng):
        # each group keeps two 1.0 selectors; output = sum of the selected B rows
        values = np.ones((2, 8), dtype=np.float32)
        meta = np.array(
            [[0, 3, 1, 2, 0, 1, 2, 3], [1, 2, 0, 3, 1, 3, 0, 2]], dtype=np.uint8
        )
        sp = s.SparseNM(16, s.PATTERN_24, values, meta, s.FP16)
        b = random_dense(rng, 16, 8, s.FP16)
        out = s.spmm(sp, b)
        base = np.repeat(np.arange(4) * 4, 2)
        for i in range(2):
            picked = base + meta[i]
            assert np.allclose(out.data[i], b.data[picked].sum(axis=0), atol=1e-3)

    def test_int8_bit_equal_to_dense_oracle(self, rng):
        a, sp, b = make_case(rng, 32, 16, 64, s.INT8)
        assert np.array_equal(s.spmm(sp, b).data, s.gemm_dense(a, b).data)

    def test_float_modes_bit_equal_to_dense_oracle(self, rng):
        for fmt in (s.FP16, s.BF16, s.TF32, s.FP16_FP16):
            a, sp, b = make_case(rng, 16, 8, 32, fmt)
            oracle = s.gemm_dense(a, b, fmt)
            got = s.spmm(sp, b, fmt)
            assert got.data.dtype == oracle.data.dtype, fmt
            assert got.data.tobytes() == oracle.data.tobytes(), fmt

    @pytest.mark.parametrize("fmt", [s.FP16, s.BF16, s.TF32, s.FP16_FP16], ids=str)
    def test_signed_zeros_bit_equal_to_dense_oracle(self, rng, fmt):
        # Rows 0 and 1 keep only zeros (all -0.0; alternating +0.0/-0.0), row
        # 2 keeps some -0.0, and two columns of B hold -0.0. Both kernels sum
        # from +0.0, so a row of zero products gives +0.0.
        values = rng.standard_normal((4, 8)).astype(np.float32)
        values[0] = -0.0
        values[1] = np.where(np.arange(8) % 2, np.float32(-0.0), np.float32(0.0))
        values[2, ::3] = -0.0
        meta = np.tile(np.array([0, 2], dtype=np.uint8), (4, 4))
        sp = s.SparseNM(16, s.PATTERN_24, s.DenseMatrix.from_values(values, fmt).data, meta, fmt)
        bvals = rng.standard_normal((16, 5)).astype(np.float32)
        bvals[:, 0] = -0.0
        bvals[::2, 1] = -0.0
        b = s.DenseMatrix.from_values(bvals, fmt)
        got = s.spmm(sp, b, fmt).data
        oracle = s.gemm_dense(s.decompress(sp), b, fmt).data
        assert np.signbit(s.decompress(sp).data).any()
        assert np.array_equal(got.view(np.uint32), oracle.view(np.uint32))
        assert not np.signbit(got[:2]).any()

    def test_inf_facing_pruned_zero_is_nan_only_in_dense_oracle(self):
        # Bit equality holds for finite operands only: the dense reference
        # multiplies every column, so 0 * inf adds NaN where spmm skips the
        # pruned zero.
        meta = np.tile(np.array([0, 1], dtype=np.uint8), (1, 4))  # keep columns 0, 1 of each group
        sp = s.SparseNM(16, s.PATTERN_24, np.ones((1, 8), dtype=np.float32), meta, s.FP16)
        bvals = np.ones((16, 1), dtype=np.float32)
        bvals[2, 0] = np.inf  # faces the pruned column 2 of the first group
        b = s.DenseMatrix.from_values(bvals, s.FP16)
        with np.errstate(invalid="ignore"):
            dense = s.gemm_dense(s.decompress(sp), b).data
        assert np.isnan(dense[0, 0])
        assert s.spmm(sp, b).data[0, 0] == 8.0

    @pytest.mark.parametrize("fmt", [s.FP16, s.BF16, s.TF32, s.FP16_FP16], ids=str)
    @pytest.mark.parametrize("pattern", [s.PATTERN_24, s.PATTERN_12], ids=str)
    def test_float_modes_bit_equal_to_scalar_loop(self, rng, fmt, pattern):
        # Independent oracle: one scalar accumulation per output element over the
        # kept values in ascending original column; each product is formed in
        # float32 (rounded to fp16 in FP16-accumulate mode) and added into an
        # accumulator of the mode's type.
        acc_type = np.float16 if fmt.acc is s.AccType.FP16 else np.float32
        for m, n, k in [(1, 1, 16), (3, 5, 16), (4, 7, 32), (6, 3, 48)]:
            _, sp, b = make_case(rng, m, n, k, fmt, pattern)
            expect = np.zeros((m, n), dtype=np.float32)
            for i in range(m):
                for c in range(n):
                    acc = acc_type(0)
                    for j in range(sp.cols_kept):
                        col = (j // pattern.n) * pattern.m + int(sp.meta[i, j])
                        prod = np.float32(sp.values[i, j]) * np.float32(b.data[col, c])
                        acc = acc_type(acc + acc_type(prod))
                    expect[i, c] = np.float32(acc)
            got = s.spmm(sp, b, fmt).data
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), expect.view(np.uint32)), (m, n, k)

    def test_counter_equals_closed_form(self, rng):
        a, sp, b = make_case(rng, 8, 16, 32, s.INT8)
        ctr = s.MultiplyAddCounter()
        s.spmm(sp, b, counter=ctr)
        assert ctr.count == s.spmm_flops(s.GemmShape(8, 16, 32), s.PATTERN_24)
        assert ctr.count == 8 * 16 * 32 // 2

    def test_counter_1_2_pattern(self, rng):
        a, sp, b = make_case(rng, 8, 8, 32, s.TF32, s.PATTERN_12)
        ctr = s.MultiplyAddCounter()
        s.spmm(sp, b, counter=ctr)
        assert ctr.count == 8 * 8 * 32 // 2

    def test_k_multiple_rule(self, rng):
        a, sp, b = make_case(rng, 4, 4, 8, s.FP16)
        with pytest.raises(s.ShapeError):
            s.spmm(sp, b)  # K=8 not a multiple of 16
        a, sp, b = make_case(rng, 4, 4, 16, s.INT8)
        with pytest.raises(s.ShapeError):
            s.spmm(sp, b)  # K=16 not a multiple of 32 for int8

    def test_fp32_has_no_sparse_mode(self, rng):
        a, sp, b = make_case(rng, 4, 4, 16, s.FP32)
        with pytest.raises(s.FormatError):
            s.spmm(sp, b)

    def test_shape_mismatch(self, rng):
        a, sp, _ = make_case(rng, 4, 4, 16, s.FP16)
        b = random_dense(rng, 32, 4, s.FP16)
        with pytest.raises(s.ShapeError):
            s.spmm(sp, b)


class TestFlops:
    def test_closed_form_64(self):
        shape = s.GemmShape(64, 64, 64)
        assert s.spmm_flops(shape, s.PATTERN_24) == 131072
        assert shape.m * shape.n * shape.k == 262144

    def test_1_2_halves_too(self):
        assert s.spmm_flops(s.GemmShape(8, 8, 8), s.PATTERN_12) == 8 * 8 * 8 // 2


class TestBench:
    def test_report_format(self):
        report = s.bench([s.GemmShape(16, 16, 32), s.GemmShape(16, 16, 64)], s.INT8, repeats=2)
        csv_text = report.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "M,N,K,dense_ns,sparse_ns,speedup,flops_ratio"
        assert len(lines) == 3
        for row in report.rows:
            assert row.flops_ratio == 2.0
            assert row.dense_ns > 0 and row.sparse_ns > 0

    def test_rejects_bad_k(self):
        with pytest.raises(s.ShapeError):
            s.bench([s.GemmShape(16, 16, 48)], s.INT8, repeats=1)
