import warnings

import numpy as np
import pytest

import sparse24 as s
from sparse24 import formats
from conftest import random_conforming, random_dense


def make_case(rng, m, n, k, fmt, pattern=s.PATTERN_24):
    a = random_conforming(rng, m, k, fmt, pattern)
    sp = s.compress(a, pattern)
    b = random_dense(rng, k, n, fmt)
    return a, sp, b


def wrap_int32(x):
    """Signed int32 of the low 32 bits of int64 ``x``. int64 arithmetic wraps
    modulo 2**64, a multiple of 2**32, so those bits stay exact."""
    return ((x + 2**31) % 2**32 - 2**31).astype(np.int32)


def accumulate_per_step_oracle(vals_t, rows_t, fmt, b):
    """The accumulate loop with one numpy call per step and stage: gather
    step j's rows of B, scale them, round them (FP16-accumulate mode) and add
    them into the accumulator, for j ascending. INT8 mode sums in int64 and
    wraps to int32 once at the end."""
    if fmt.is_integer:
        acc_dtype = np.int64
        vals_t = vals_t.astype(np.int64)
        bdat = b.data.astype(np.int64)
    else:
        acc_dtype = np.float16 if fmt.acc is s.AccType.FP16 else np.float32
        bdat = b.data
    out = np.zeros((rows_t.shape[1], b.cols), dtype=acc_dtype)
    buf = np.empty(out.shape, dtype=bdat.dtype)
    prod = np.empty_like(out) if acc_dtype is np.float16 else buf
    for j in range(len(vals_t)):
        np.take(bdat, rows_t[j], axis=0, out=buf)
        np.multiply(vals_t[j][:, None], buf, out=buf)
        if prod is not buf:
            np.copyto(prod, buf, casting="same_kind")
        np.add(out, prod, out=out)
    return wrap_int32(out) if fmt.is_integer else out.astype(np.float32)


def spmm_oracle(sp, b):
    return accumulate_per_step_oracle(
        np.ascontiguousarray(sp.values.T), np.ascontiguousarray(sp.column_indices().T), sp.fmt, b
    )


def gemm_dense_oracle(a, b):
    rows_t = np.broadcast_to(np.arange(a.cols)[:, None], (a.cols, a.rows))
    return accumulate_per_step_oracle(a.data.T, rows_t, a.fmt, b)


SPARSE_FORMATS = [f for f in s.ALL_FORMATS if f.sparse_capable]


# bytes per element of the gather buffer in formats._accumulate: it holds the
# operands' in-memory values, int32 in INT8 mode and float32 otherwise
GATHER_ITEMSIZE = 4


def chunk_steps(m, n):
    """Steps per chunk of formats._accumulate for an M x N output."""
    return max(1, formats._CHUNK_BYTES // max(1, m * n * GATHER_ITEMSIZE))


def chunk_shapes(fmt):
    """(M, N, K) cases for the chunked loop, derived from the chunk budget:
    one chunk holds every step; the chunk size does not divide the step
    count; one M x N slab exceeds the budget, so each chunk is one step."""
    k = 2 * fmt.sparse_k_multiple
    m = 16
    # a slab of about 2/7 of the budget gives 3-step chunks, and 3 divides
    # neither K nor its K/2 kept slots
    n_three = formats._CHUNK_BYTES * 2 // 7 // (m * GATHER_ITEMSIZE)
    n_over = formats._CHUNK_BYTES // (m * GATHER_ITEMSIZE) + 1
    return [(m, 3, k), (m, n_three, k), (m, n_over, k)]


class TestChunkedAccumulateMatchesPerStepLoop:
    """Gathering and scaling a chunk of steps per numpy call leaves every
    product and the order of the adds as in the per-step loop, so every mode
    gives the same bytes."""

    @pytest.mark.parametrize("fmt", SPARSE_FORMATS, ids=str)
    def test_shapes_cover_the_chunk_cases(self, fmt):
        (m1, n1, k), (m3, n3, _), (mo, no, _) = chunk_shapes(fmt)
        slots = k // 2
        assert chunk_steps(m1, n1) >= k  # one chunk, even for gemm_dense's K steps
        assert chunk_steps(m3, n3) == 3 and slots % 3 and k % 3
        assert chunk_steps(mo, no) == 1

    @pytest.mark.parametrize("fmt", SPARSE_FORMATS, ids=str)
    def test_spmm_and_gemm_dense(self, rng, fmt):
        k0 = fmt.sparse_k_multiple
        for m, n, k in chunk_shapes(fmt) + [(0, 5, k0), (3, 0, k0), (0, 0, k0)]:
            a, sp, b = make_case(rng, m, n, k, fmt)
            for got, expect in [
                (s.spmm(sp, b).data, spmm_oracle(sp, b)),
                (s.gemm_dense(a, b).data, gemm_dense_oracle(a, b)),
            ]:
                assert got.dtype == expect.dtype and got.shape == expect.shape == (m, n)
                assert got.tobytes() == expect.tobytes(), (m, n, k)

    def test_gemm_dense_fp32(self, rng):
        for m, n, k in chunk_shapes(s.FP32):
            a, b = random_dense(rng, m, k, s.FP32), random_dense(rng, k, n, s.FP32)
            got, expect = s.gemm_dense(a, b).data, gemm_dense_oracle(a, b)
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), (m, n, k)

    @pytest.mark.parametrize("fmt", s.ALL_FORMATS, ids=str)
    def test_gemm_dense_empty_inner_dim(self, rng, fmt):
        # K = 0: no steps, so the result is the accumulator's zeros
        a, b = random_dense(rng, 3, 0, fmt), random_dense(rng, 0, 4, fmt)
        got, expect = s.gemm_dense(a, b).data, gemm_dense_oracle(a, b)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes() == bytes(3 * 4 * 4)

    @pytest.mark.parametrize("fmt", [s.FP16, s.BF16, s.TF32, s.FP16_FP16], ids=str)
    def test_signed_zeros(self, rng, fmt):
        for m, n, k in chunk_shapes(fmt):
            a, sp, b = make_case(rng, m, n, k, fmt)
            values = sp.values.copy()
            values[::2] = -0.0
            values[1::3, ::2] *= np.float32(-0.0)
            sp = s.SparseNM(k, s.PATTERN_24, values, sp.meta, fmt)
            bvals = b.data.copy()
            bvals[:, 0] = -0.0
            bvals[::2, 1] = -0.0
            b = s.DenseMatrix(bvals, fmt)
            a = s.decompress(sp)
            assert np.signbit(a.data).any()
            assert s.spmm(sp, b).data.tobytes() == spmm_oracle(sp, b).tobytes()
            assert s.gemm_dense(a, b).data.tobytes() == gemm_dense_oracle(a, b).tobytes()

    def test_int8_int32_wrap(self, rng):
        # values past the int8 range, built directly, make sums that wrap int32
        low, high = -(2**31), 2**31
        for m, n, k in chunk_shapes(s.INT8):
            _, sp, _ = make_case(rng, m, n, k, s.INT8)
            for lo, hi in [(2**19, 2**20), (low, high)]:
                values = rng.integers(lo, hi, size=sp.values.shape).astype(np.int32)
                bvals = rng.integers(lo, hi, size=(k, n)).astype(np.int32)
                if lo == low:
                    # row 0 and column 0 hold -2**31 only: each product is 2**62
                    values[0], bvals[:, 0] = low, low
                sp = s.SparseNM(k, s.PATTERN_24, values, sp.meta, s.INT8)
                b = s.DenseMatrix(bvals, s.INT8)
                got, expect = s.spmm(sp, b).data, spmm_oracle(sp, b)
                if lo == low:
                    assert got[0, 0] == 0  # a sum of multiples of 2**62 wraps to 0
                else:
                    assert (got < 0).any()  # positive products only: wrapped
                assert got.dtype == expect.dtype == np.int32 and got.tobytes() == expect.tobytes()
                a = s.decompress(sp)
                assert s.gemm_dense(a, b).data.tobytes() == gemm_dense_oracle(a, b).tobytes()


# fp16 ±inf and NaNs of both signs, quiet and signaling, as float32 values
FP16_SPECIALS = formats._from_storage(
    np.array([0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7C01, 0xFD55, 0x7FFF, 0xFFFF], dtype=np.uint16).view(np.float16),
    s.ElemType.FP16,
)


def fp16_values(rng, shape, scale, specials):
    """fp16 values of standard normals times ``scale``; with ``specials``,
    about 1 % of them (at least 2) are ±inf and NaNs of both signs."""
    vals = s.DenseMatrix.from_values(rng.standard_normal(shape) * scale, s.FP16_FP16).data.copy()
    if specials and vals.size:
        at = rng.choice(vals.size, size=min(vals.size, max(2, vals.size // 100)), replace=False)
        vals.flat[at] = rng.choice(FP16_SPECIALS, size=len(at))
    return vals


class TestFP16AccumulateMatchesFloat16Loop:
    """FP16-accumulate mode keeps a float32 accumulator of fp16 values and
    rounds each step by ``_round_fp16``; the oracle is the loop it replaced,
    a float16 accumulator with numpy's cast and half-precision add. Both
    GEMMs must match it byte for byte, NaN payloads and signs included."""

    SCALES = [(1, 1), (1e-3, 1e-3), (1e-6, 1), (300, 300), (2000, 1)]  # A's and B's

    @pytest.mark.parametrize("specials", [False, True], ids=["finite", "inf_nan"])
    @pytest.mark.parametrize("scale_a, scale_b", SCALES, ids=["unit", "subnormal_products", "subnormal_a", "overflow", "overflow_sums"])
    def test_spmm_and_gemm_dense(self, rng, scale_a, scale_b, specials):
        fmt = s.FP16_FP16
        # one chunk, 3-step chunks and one-step chunks; outputs of at most 128
        # elements; outputs of M * N % 16 != 0, so numpy's float32 loops run
        # their scalar tail as well as full vector lanes
        shapes = chunk_shapes(fmt) + [(1, 1, 16), (3, 5, 16), (4, 32, 48), (8, 16, 64), (3, 7, 32), (5, 37, 64)]
        seen = []
        for m, n, k in shapes:
            _, sp, _ = make_case(rng, m, n, k, fmt)
            sp = s.SparseNM(k, s.PATTERN_24, fp16_values(rng, sp.values.shape, scale_a, specials), sp.meta, fmt)
            a = s.DenseMatrix(fp16_values(rng, (m, k), scale_a, specials), fmt)
            b = s.DenseMatrix(fp16_values(rng, (k, n), scale_b, specials), fmt)
            for got, oracle in [(s.spmm, spmm_oracle), (s.gemm_dense, gemm_dense_oracle)]:
                op = a if got is s.gemm_dense else sp
                with np.errstate(over="ignore", invalid="ignore"):  # the float16 loop warns
                    expect = oracle(op, b)
                assert got(op, b).data.tobytes() == expect.tobytes(), (got.__name__, m, n, k)
                seen.append(expect)
        seen = np.concatenate([e.ravel() for e in seen])
        if specials:
            nan = seen[np.isnan(seen)]
            assert np.signbit(nan).any() and not np.signbit(nan).all()
        if scale_a * scale_b >= 300:
            assert np.isinf(seen).any()
        if scale_a * scale_b <= 1e-6:
            assert ((seen != 0) & (np.abs(seen) < 2.0**-14)).any()


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
            oracle = s.gemm_dense(a, b)
            got = s.spmm(sp, b)
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
        got = s.spmm(sp, b).data
        oracle = s.gemm_dense(s.decompress(sp), b).data
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

    @pytest.mark.parametrize("fmt", [s.FP16, s.FP16_FP16], ids=str)
    def test_opposite_infinities_in_kept_rows_give_nan_without_a_warning(self, fmt):
        meta = np.tile(np.array([0, 1], dtype=np.uint8), (1, 4))  # keep columns 0, 1 of each group
        sp = s.SparseNM(16, s.PATTERN_24, np.ones((1, 8), dtype=np.float32), meta, fmt)
        bvals = np.ones((16, 1), dtype=np.float32)
        bvals[0, 0], bvals[1, 0] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(s.spmm(sp, s.DenseMatrix(bvals, fmt)).data[0, 0])

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
            got = s.spmm(sp, b).data
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

    @pytest.mark.parametrize("fmt", [f for f in s.ALL_FORMATS if f.sparse_capable], ids=str)
    @pytest.mark.parametrize("m, n", [(0, 5), (3, 0), (0, 0)])
    def test_empty_output_equals_dense_oracle(self, rng, fmt, m, n):
        a, sp, b = make_case(rng, m, n, fmt.sparse_k_multiple, fmt)
        got, oracle = s.spmm(sp, b), s.gemm_dense(a, b)
        assert got.fmt == oracle.fmt
        assert got.data.shape == oracle.data.shape == (m, n)
        assert got.data.dtype == oracle.data.dtype

    def test_metadata_out_of_range_rejected(self, rng):
        _, sp, b = make_case(rng, 4, 4, 16, s.FP16)
        meta = sp.meta.copy()
        meta[2, 5] = 4  # past the group of 4: would select a row of the next group, or past K
        with pytest.raises(s.MetadataError, match="out of range"):
            s.spmm(s.SparseNM(16, s.PATTERN_24, sp.values, meta, s.FP16), b)

    def test_metadata_not_increasing_rejected(self, rng):
        # in range, so it would multiply silently, but decompress rejects it
        _, sp, b = make_case(rng, 4, 4, 16, s.FP16)
        meta = sp.meta.copy()
        meta[1, 2:4] = meta[1, 2:4][::-1]
        bad = s.SparseNM(16, s.PATTERN_24, sp.values, meta, s.FP16)
        with pytest.raises(s.MetadataError, match="not strictly increasing"):
            s.decompress(bad)
        with pytest.raises(s.MetadataError, match="not strictly increasing"):
            s.spmm(bad, b)

    @pytest.mark.parametrize("b_fmt", [s.BF16, s.FP16_FP16], ids=str)
    def test_operand_formats_must_match(self, rng, b_fmt):
        _, sp, _ = make_case(rng, 4, 4, 16, s.FP16)
        with pytest.raises(s.FormatError):
            s.spmm(sp, random_dense(rng, 16, 4, b_fmt))


class TestFloatTolerance:
    @pytest.mark.parametrize(
        "fmt, peak, ulp", [(s.FP16_FP16, 1.0, 2.0**-10), (s.FP16, 1.0, 2.0**-23), (s.FP16_FP16, 0.0, 2.0**-20)]
    )
    def test_two_k_ulps_of_the_accumulator_at_the_peak(self, fmt, peak, ulp):
        # an FP16-accumulate peak below 1e-3 counts as 1e-3, whose fp16 ulp is 2**-20
        oracle = s.DenseMatrix(np.array([[peak / 2, -peak]], dtype=np.float32), fmt)
        assert s.float_tolerance(oracle, 8) == 16 * ulp


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
        assert lines[0] == "M,N,K,dense_ns,sparse_ns,speedup,flops_ratio,floor_ns,decompress_ns"
        assert len(lines) == 3
        for row, line in zip(report.rows, lines[1:]):
            assert row.flops_ratio == 2.0
            assert row.dense_ns > 0 and row.sparse_ns > 0 and row.floor_ns > 0 and row.decompress_ns > 0
            assert line.split(",")[-2:] == [str(row.floor_ns), str(row.decompress_ns)]

    def test_rejects_bad_k(self):
        with pytest.raises(s.ShapeError):
            s.bench([s.GemmShape(16, 16, 48)], s.INT8, repeats=1)
