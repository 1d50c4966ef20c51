import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse24 as s
from conftest import random_dense
from sparse24.cli import EntryError
from sparse24.formats import STORAGE_DTYPE, ElemType, _from_storage, _round_fp16, _to_storage, round_array


def bf16_oracle(x: float) -> float:
    """Round-to-nearest-even to an 8-bit mantissa, built from frexp/round
    rather than bit twiddling."""
    if x == 0 or not math.isfinite(x):
        return x
    mant, exp = math.frexp(x)  # mant in [0.5, 1)
    scaled = mant * 256.0  # 8 mantissa bits total (1 implicit + 7 explicit)
    rounded = float(round(scaled))  # Python round = half-to-even
    return math.ldexp(rounded / 256.0, exp)


class TestRounding:
    def test_fp16_exact_value(self):
        assert round_array([1.0], ElemType.FP16)[0] == 1.0

    def test_int8_saturation(self):
        assert round_array([130.0], ElemType.INT8)[0] == 127
        assert round_array([-200.0], ElemType.INT8)[0] == -128

    def test_int8_round_half_even(self):
        assert round_array([2.5], ElemType.INT8)[0] == 2
        assert round_array([3.5], ElemType.INT8)[0] == 4

    def test_int8_rejects_nan_and_saturates_inf(self):
        with pytest.raises(s.NonFiniteError):
            s.DenseMatrix.from_values([[np.nan]], s.INT8)
        assert round_array([np.inf, -np.inf], ElemType.INT8).tolist() == [127, -128]

    def test_bf16_against_frexp_oracle(self, rng):
        for x in rng.standard_normal(500) * 10.0 ** rng.integers(-3, 4, 500):
            x = float(np.float32(x))  # rule out double-rounding asymmetry
            got = round_array([x], ElemType.BF16)[0]
            assert got == bf16_oracle(x), x

    def test_bf16_specific(self):
        got = round_array([0.1], ElemType.BF16)[0]
        assert got == bf16_oracle(0.1)
        assert got != 0.1  # 0.1 is not representable

    def test_tf32_truncates_low_mantissa_bits(self):
        x = np.float32(1.0) + np.float32(2.0**-20)
        got = np.float32(round_array([float(x)], ElemType.TF32)[0])
        assert got == np.float32(1.0)
        assert int(got.view(np.uint32)) & 0x1FFF == 0

    def test_tf32_keeps_10_bit_mantissa(self):
        x = 1.0 + 2.0**-10
        assert round_array([x], ElemType.TF32)[0] == x

    @pytest.mark.parametrize(
        "elem, values",
        [
            (ElemType.FP16, np.array([1e6, -65520.0], dtype=np.float32)),
            (ElemType.FP16, np.array([1e300, -1e6])),
            (ElemType.FP32, np.array([1e300, -1e39])),
            (ElemType.BF16, np.array([1e300, -1e39])),
            (ElemType.TF32, np.array([1e300, -1e39])),
        ],
        ids=["fp16", "fp16-float64", "fp32", "bf16", "tf32"],
    )
    def test_overflow_saturates_to_inf_without_a_warning(self, elem, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert round_array(values, elem).tolist() == [np.inf, -np.inf]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("elem", list(ElemType))
    def test_result_never_shares_the_inputs_memory(self, elem, dtype):
        x = np.array([[0.5, -3.0], [100.0, 2.0]], dtype=dtype)
        r = round_array(x, elem)
        assert not np.shares_memory(r, x)
        r_of_r = round_array(r, elem)  # an input already in the result's dtype
        assert not np.shares_memory(r_of_r, r)

    def test_from_values_rounds_int8_once_in_float64(self):
        # a float32 step first would give [[2, 2, 0]]
        vals = [[1.4999999999, 2.5000001, -0.50000001]]
        got = s.DenseMatrix.from_values(vals, s.INT8).data
        assert got.tolist() == [[1, 3, -1]]
        assert np.array_equal(got, round_array(np.array(vals), ElemType.INT8))

    @pytest.mark.parametrize(
        "values",
        [np.array([["1.0", "2.0"]]), np.array([[1.0, None]], dtype=object), np.array([[1 + 2j, 3.0]])],
        ids=["str", "object", "complex"],
    )
    @pytest.mark.parametrize("fmt", s.ALL_FORMATS, ids=str)
    def test_from_values_rejects_values_that_are_not_real_numbers(self, values, fmt):
        # numpy's cast would drop the imaginary part, with only a ComplexWarning
        with pytest.raises(s.FormatError, match="real numbers") as exc:
            s.DenseMatrix.from_values(values, fmt)
        assert exc.value.code == "format"


SPECIAL_WORDS = [0, 0x80000000, 1, 0x807FFFFF, 0x00800000, 0x7F7FFFFF, 0x7F800000, 0xFF800000]
NAN_WORDS = [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001, 0x7FFFFFFF, 0xFFFFFFFF, 0x7F802000]


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(
        st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL_WORDS + NAN_WORDS)), min_size=1, max_size=40
    ),
    int8_inputs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
)
def test_storage_words_give_back_the_rounded_values(words, int8_inputs):
    """For every element type: _to_storage gives STORAGE_DTYPE words, which
    _from_storage turns back into the rounded values bit for bit; rounding
    is idempotent, and a NaN stays NaN."""
    x32 = np.array(words, dtype=np.uint32).view(np.float32)
    for elem in ElemType:
        x = np.array(int8_inputs) if elem is ElemType.INT8 else x32
        with np.errstate(over="ignore"):  # fp16 overflows to ±inf by design
            r = round_array(x, elem)
        stored = _to_storage(r, elem)
        assert stored.dtype == STORAGE_DTYPE[elem]
        back = _from_storage(stored, elem)
        assert back.dtype == r.dtype and back.tobytes() == r.tobytes()
        assert round_array(r, elem).tobytes() == r.tobytes()
        if elem is not ElemType.INT8:
            assert np.array_equal(np.isnan(r), np.isnan(x))


FP16_CHUNK = 1 << 21  # float32 patterns checked at a time, so memory stays small


def numpy_fp16(x32: np.ndarray) -> np.ndarray:
    """The oracle: numpy's float32 -> float16 -> float32 casts."""
    with np.errstate(over="ignore"):  # overflow to ±inf is the rule
        return x32.astype(np.float16).astype(np.float32)


def assert_fp16_rounds_as_numpy_casts(words: np.ndarray) -> None:
    """round_array(FP16) of the float32 bit patterns ``words`` equals the oracle bit for bit."""
    x = words.view(np.float32)
    got = round_array(x, ElemType.FP16).view(np.uint32)
    bad = np.flatnonzero(got != numpy_fp16(x).view(np.uint32))
    assert not bad.size, [f"{w:#010x} -> {g:#010x}" for w, g in zip(words[bad[:4]], got[bad[:4]])]


def assert_fp16_range_rounds_as_numpy_casts(start: int, stop: int) -> None:
    """The same for the patterns [start, stop), a chunk at a time."""
    for low in range(start, stop, FP16_CHUNK):
        assert_fp16_rounds_as_numpy_casts(np.arange(low, min(stop, low + FP16_CHUNK), dtype=np.uint32))


# every fp16 word and its value as float32, by the integer rules the tests below pin to numpy's casts
FP16_WORDS = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
FP16_VALUES = _from_storage(FP16_WORDS.view(STORAGE_DTYPE[ElemType.FP16]), ElemType.FP16)


class TestFP16BitRules:
    """FP16 rounding and storage words follow integer rules; numpy's casts are the oracle."""

    @pytest.mark.parametrize(
        "sign, exponent",
        [(0, 0x66), (1, 0x70), (0, 0x71), (1, 0x71), (0, 0x8E), (1, 0x8E), (0, 0xFF), (1, 0xFF)],
        ids=["2^-25", "-2^-15", "2^-14", "-2^-14", "2^15", "-2^15", "inf-nan", "-inf-nan"],
    )
    def test_every_pattern_of_a_boundary_exponent(self, sign, exponent):
        # [2^-25, 2^-24) holds the subnormal quantum's ties to 0 and to 2^-24;
        # [2^-15, 2^-14) and [2^-14, 2^-13) the 2^-14 edge; [2^15, 2^16) the
        # 65504/65520 overflow edge; exponent 255 every NaN class and ±inf.
        # numpy's cast takes ~0.1 us a value below 2^-14, so only one sign
        # of each of those two slices runs here; the exhaustive sweep has all
        start = sign << 31 | exponent << 23
        assert_fp16_range_rounds_as_numpy_casts(start, start + (1 << 23))

    @pytest.mark.parametrize(
        "word, want",
        [
            (0x00000000, 0x00000000),
            (0x80000000, 0x80000000),
            (0x7F800000, 0x7F800000),
            (0xFF800000, 0xFF800000),
            (0x7FC00000, 0x7FC00000),  # quiet
            (0xFFC00001, 0xFFC00000),  # quiet, a payload below the kept bits
            (0x7FA00000, 0x7FA00000),  # signaling: not quieted
            (0xFF800001, 0xFF802000),  # payload only below the kept bits: bit 13 set
            (0x7F801FFF, 0x7F802000),
            (0x7FFFFFFF, 0x7FFFE000),  # rounding would carry out of the exponent
            (0xFFFFF000, 0xFFFFE000),
            (0x33000000, 0x00000000),  # 2^-25, a tie, to even: 0
            (0xB3000001, 0xB3800000),  # just above it: -2^-24
            (0x387FE000, 0x38800000),  # 2^-14 - 2^-25, a tie, to even: 2^-14
            (0x477FEFFF, 0x477FE000),  # below 65520: 65504
            (0xC77FF000, 0xFF800000),  # -65520, a tie, to even: -inf
        ],
    )
    def test_specials_and_edges(self, word, want):
        x = np.array([word], dtype=np.uint32).view(np.float32)
        assert round_array(x, ElemType.FP16).view(np.uint32)[0] == want
        assert numpy_fp16(x).view(np.uint32)[0] == want

    def test_random_patterns_as_float32_and_float64(self):
        rng = np.random.default_rng(27)
        words = rng.integers(0, 1 << 32, size=1 << 20, dtype=np.uint32)
        assert_fp16_rounds_as_numpy_casts(words)
        # float64 input is converted to float32 first; either cast quiets a signaling NaN
        wide = rng.integers(0, 1 << 64, size=1 << 20, dtype=np.uint64).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            narrow = words.view(np.float32).astype(np.float64)
        for x64 in (narrow, wide):
            with np.errstate(over="ignore", invalid="ignore"):
                x32 = x64.astype(np.float32)
            assert np.array_equal(round_array(x64, ElemType.FP16).view(np.uint32), numpy_fp16(x32).view(np.uint32))

    def test_every_word_reads_and_writes_as_numpy_casts(self):
        words = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        want = words.view(np.float16).astype(np.float32)
        values = _from_storage(words.view(STORAGE_DTYPE[ElemType.FP16]), ElemType.FP16)
        assert np.array_equal(values.view(np.uint32), want.view(np.uint32))
        stored = _to_storage(values, ElemType.FP16)
        assert stored.dtype == STORAGE_DTYPE[ElemType.FP16]
        assert np.array_equal(stored.view(np.uint16), words)

    def test_results_are_fp16_values_the_words_keep(self):
        # the word pair maps each of the 65 536 fp16 values to itself, so a
        # rounded result needs no trip through it: it is one of those values
        values = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16).astype(np.float32)
        assert np.array_equal(round_array(values, ElemType.FP16).view(np.uint32), values.view(np.uint32))
        words = np.random.default_rng(28).integers(0, 1 << 32, size=1 << 16, dtype=np.uint32)
        got = round_array(words.view(np.float32), ElemType.FP16)
        assert np.isin(got.view(np.uint32), values.view(np.uint32)).all()

    def test_float64_rounds_through_float32(self):
        # a direct float64 rounding would give 1 + 2^-10
        assert round_array(np.array([1 + 2.0**-11 + 2.0**-40]), ElemType.FP16)[0] == 1.0

    @pytest.mark.parametrize("exponent", [0x66, 0x70, 0x71, 0x8E, 0xFF], ids=["2^-25", "2^-15", "2^-14", "2^15", "inf-nan"])
    def test_out_form_equals_a_new_array(self, exponent):
        # the boundary slices above, both signs, then all 65 536 fp16 values
        words = np.arange(exponent << 23, (exponent + 1) << 23, dtype=np.uint32)
        for x in (words.view(np.float32), (words | np.uint32(1 << 31)).view(np.float32), FP16_VALUES):
            before = x.tobytes()
            buf = np.full(x.shape, np.nan, dtype=np.float32)
            assert _round_fp16(x, out=buf) is buf
            assert buf.tobytes() == _round_fp16(x).tobytes()
            assert x.tobytes() == before


def assert_fp16_step_adds_as_numpy(acc_words: np.ndarray, product_words: np.ndarray) -> None:
    """The FP16-accumulate step of ``formats._accumulate`` on every
    (accumulator, product) pair of the given fp16 words equals numpy's
    float16 add of the accumulator and the product, the old accumulator's
    add, word for word. The step adds in float32, product first and in
    place on the product, where the product is a number (a NaN product
    stays as the sum), then rounds the sum by ``_round_fp16``. A product
    there is the output of ``np.multiply``, so never a signaling NaN: here
    each product is multiplied by 1 first, which quiets those words only."""
    values = lambda w: _from_storage(w.view(STORAGE_DTYPE[ElemType.FP16]), ElemType.FP16)
    acc, prod = np.repeat(acc_words, len(product_words)), np.tile(product_words, len(acc_words))
    with np.errstate(over="ignore", invalid="ignore"):  # 65504 + 65504, inf - inf
        want = np.add(acc.view(np.float16), prod.view(np.float16)).view(np.uint16)
        step = values(prod) * np.float32(1)
        np.add(step, values(acc), out=step, where=step == step)
        got = _to_storage(_round_fp16(step, out=np.empty_like(step)), ElemType.FP16).view(np.uint16)
    bad = np.flatnonzero(got != want)
    assert not bad.size, [f"{a:#06x} + {p:#06x} -> {g:#06x}, not {w:#06x}" for a, p, g, w in zip(
        acc[bad[:4]], prod[bad[:4]], got[bad[:4]], want[bad[:4]])]


# ±0, ±inf, quiet and signaling NaNs of both signs, 2**-14 and its neighbours
# (the subnormal edge) of both signs, ±65 504, then a few random words
FP16_STEP_SPECIALS = np.r_[
    np.array([0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7C01, 0xFC01, 0x7FFF, 0xFFFF, 0x7D55, 0xFEAA,
              0x0400, 0x03FF, 0x0401, 0x8400, 0x83FF, 0x8401, 0x7BFF, 0xFBFF], dtype=np.uint16),
    np.random.default_rng(32).integers(0, 1 << 16, size=8, dtype=np.uint16),
]


def test_fp16_step_on_special_accumulators_and_products():
    # the slice of the exhaustive sweep below: every product against each
    # special accumulator, and every accumulator against each special product
    assert_fp16_step_adds_as_numpy(FP16_STEP_SPECIALS, FP16_WORDS)
    assert_fp16_step_adds_as_numpy(FP16_WORDS, FP16_STEP_SPECIALS)


@pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 31, 33, 129])
def test_fp16_step_takes_the_products_nan_at_every_lane(length):
    # numpy's float16 add of two NaNs gives the second operand's, the
    # product's, at every length. Its float32 add gives either one, by the
    # lane of its loop (on x86-64, the first in full vector lanes, the second
    # in a scalar tail), so the step does not add a NaN product
    acc, prod = np.full(length, 0x7E01, dtype=np.uint16), np.full(length, 0xFE02, dtype=np.uint16)
    with np.errstate(invalid="ignore"):
        assert (np.add(acc.view(np.float16), prod.view(np.float16)).view(np.uint16) == 0xFE02).all()
    for a, p in [(acc, prod), (prod, acc)]:
        assert_fp16_step_adds_as_numpy(a[:1], np.tile(p[:1], length))
        assert_fp16_step_adds_as_numpy(np.tile(a[:1], length), p[:1])


@pytest.mark.exhaustive
def test_fp16_rounding_of_every_float32_pattern():
    """All 2^32 patterns (minutes): run with ``pytest -m exhaustive``."""
    assert_fp16_range_rounds_as_numpy_casts(0, 1 << 32)


@pytest.mark.exhaustive
def test_fp16_step_on_every_pair():
    """All 2^32 (accumulator, product) pairs of fp16 words, 16 accumulators
    at a time (about two minutes): run with ``pytest -m exhaustive``."""
    for lo in range(0, 1 << 16, 16):
        assert_fp16_step_adds_as_numpy(FP16_WORDS[lo : lo + 16], FP16_WORDS)


def test_dense_matrix_needs_2d_data():
    with pytest.raises(s.ShapeError):
        s.DenseMatrix(np.zeros(4, dtype=np.float32), s.FP32)


class TestFormatPairs:
    def test_table_pairs_construct(self):
        assert len(s.ALL_FORMATS) == 6

    def test_disallowed_pair_rejected(self):
        with pytest.raises(s.FormatError):
            s.NumericFormat(s.ElemType.BF16, s.AccType.FP16)
        with pytest.raises(s.FormatError):
            s.NumericFormat(s.ElemType.INT8, s.AccType.FP32)

    def test_sparse_capability(self):
        assert not s.FP32.sparse_capable
        assert all(f.sparse_capable for f in s.ALL_FORMATS if f is not s.FP32)


class TestGemmDense:
    def test_identity_left(self, rng):
        for fmt in s.ALL_FORMATS:
            eye = s.DenseMatrix.from_values(np.eye(4), fmt)
            b = random_dense(rng, 4, 3, fmt)
            out = s.gemm_dense(eye, b)
            assert np.array_equal(out.data, b.data), fmt

    def test_identity_right(self, rng):
        for fmt in s.ALL_FORMATS:
            a = random_dense(rng, 3, 4, fmt)
            eye = s.DenseMatrix.from_values(np.eye(4), fmt)
            out = s.gemm_dense(a, eye)
            assert np.array_equal(out.data, a.data), fmt

    def test_zeros_times_ones(self):
        a = s.DenseMatrix.from_values(np.zeros((2, 4)), s.FP32)
        b = s.DenseMatrix.from_values(np.ones((4, 2)), s.FP32)
        assert np.array_equal(s.gemm_dense(a, b).data, np.zeros((2, 2)))

    def test_int8_matches_scalar_triple_loop(self, rng):
        a = random_dense(rng, 3, 4, s.INT8)
        b = random_dense(rng, 4, 2, s.INT8)
        expected = np.zeros((3, 2), dtype=np.int64)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc += int(a.data[i, k]) * int(b.data[k, j])
                expected[i, j] = acc
        assert np.array_equal(s.gemm_dense(a, b).data, expected)

    def test_int8_linearity(self, rng):
        a = random_dense(rng, 4, 8, s.INT8)
        b1 = s.DenseMatrix.from_values(rng.integers(-60, 60, (8, 4)).astype(float), s.INT8)
        b2 = s.DenseMatrix.from_values(rng.integers(-60, 60, (8, 4)).astype(float), s.INT8)
        bsum = s.DenseMatrix(b1.data + b2.data, s.INT8)
        lhs = s.gemm_dense(a, bsum).data
        rhs = s.gemm_dense(a, b1).data.astype(np.int64) + s.gemm_dense(a, b2).data
        assert np.array_equal(lhs, rhs)

    def test_deterministic(self, rng):
        a = random_dense(rng, 8, 16, s.FP16)
        b = random_dense(rng, 16, 8, s.FP16)
        r1 = s.gemm_dense(a, b)
        r2 = s.gemm_dense(a, b)
        assert np.array_equal(r1.data, r2.data)

    def test_fp16_accumulate_overflow_is_inf_without_a_warning(self):
        a = s.DenseMatrix(np.full((1, 2), 300.0, dtype=np.float32), s.FP16_FP16)
        b = s.DenseMatrix(np.array([[300.0], [1.0]], dtype=np.float32), s.FP16_FP16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = s.gemm_dense(a, b).data  # the product 90 000 exceeds fp16's 65 504
        assert out.tolist() == [[np.inf]]

    @pytest.mark.parametrize("fmt", [s.FP16, s.FP16_FP16], ids=str)
    def test_zero_times_inf_is_nan_without_a_warning(self, fmt):
        a = s.DenseMatrix(np.array([[0.0, 1.0]], dtype=np.float32), fmt)
        b = s.DenseMatrix(np.array([[np.inf], [2.0]], dtype=np.float32), fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(s.gemm_dense(a, b).data[0, 0])

    def test_shape_mismatch(self, rng):
        a = random_dense(rng, 2, 3, s.FP32)
        b = random_dense(rng, 4, 2, s.FP32)
        with pytest.raises(s.ShapeError):
            s.gemm_dense(a, b)

    def test_mode_mismatch(self, rng):
        a = random_dense(rng, 2, 4, s.FP16)
        b = random_dense(rng, 4, 2, s.BF16)
        with pytest.raises(s.FormatError):
            s.gemm_dense(a, b)

    def test_fp16_accumulate_rounds_each_step(self):
        # 1 + 2^-13 rounds away in a float16 accumulator but not in float32
        a = s.DenseMatrix.from_values([[1.0, 1.0]], s.FP16)
        b = s.DenseMatrix.from_values([[1.0], [2.0**-13]], s.FP16)
        wide = s.gemm_dense(a, b)
        narrow = s.gemm_dense(s.DenseMatrix(a.data, s.FP16_FP16), s.DenseMatrix(b.data, s.FP16_FP16))
        assert wide.data[0, 0] == 1.0 + 2.0**-13
        assert narrow.data[0, 0] == 1.0

    @pytest.mark.parametrize("fmt", [s.FP32, s.TF32, s.FP16, s.BF16, s.FP16_FP16], ids=str)
    def test_float_modes_bit_equal_to_scalar_triple_loop(self, rng, fmt):
        # Independent oracle: one scalar accumulation per output element in
        # ascending k; each product is formed in float32 (rounded to fp16 in
        # FP16-accumulate mode) and added into an accumulator of the mode's
        # type. Magnitudes span four decades so that summation order and
        # product rounding both show in the low bits.
        acc_type = np.float16 if fmt.acc is s.AccType.FP16 else np.float32
        for m, n, k in [(1, 1, 1), (3, 5, 7), (4, 6, 33), (2, 3, 64)]:
            a, b = (
                s.DenseMatrix.from_values(
                    rng.standard_normal(shape) * 10.0 ** rng.integers(-2, 2, shape), fmt
                )
                for shape in [(m, k), (k, n)]
            )
            expect = np.zeros((m, n), dtype=np.float32)
            for i in range(m):
                for j in range(n):
                    acc = acc_type(0)
                    for kk in range(k):
                        prod = np.float32(a.data[i, kk]) * np.float32(b.data[kk, j])
                        acc = acc_type(acc + acc_type(prod))
                    expect[i, j] = np.float32(acc)
            got = s.gemm_dense(a, b).data
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), expect.view(np.uint32)), (m, n, k)


def test_error_codes_distinct_and_stable():
    codes = {
        s.FormatError: "format",
        s.ShapeError: "shape",
        s.NonFiniteError: "non_finite",
        s.ConformanceError: "conformance",
        s.MetadataError: "metadata",
        s.RecipeError: "recipe",
        s.ArchiveError: "archive_error",
        s.BadMagicError: "bad_magic",
        s.VersionMismatchError: "version_mismatch",
        s.TruncatedError: "truncated",
        s.InvariantError: "invariant_violation",
        s.PatternError: "pattern",
        s.PermutationError: "permutation",
        s.SearchModeError: "search_mode",
        s.ScaleError: "scale",
        s.CalibMethodError: "calib_method",
        s.HistogramError: "histogram",
        s.DivergenceError: "divergence",
        EntryError: "entry",
    }
    assert {cls: cls.code for cls in codes} == codes
    # every exception class the package exports has an entry here
    exported = {v for v in vars(s).values() if isinstance(v, type) and issubclass(v, Exception)}
    assert exported <= set(codes)
    # the CLI reports an OSError, which has no code of its own, as "io"
    assert len(set(codes.values()) | {"io"}) == len(codes) + 1


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: s.NMPattern(4, 4), s.PatternError),
        # an intra-group index must fit one byte of metadata and the archive's u8 m
        (lambda: s.NMPattern(1, 256), s.PatternError),
        (lambda: s.NMPattern.parse("2-4"), s.PatternError),
        (lambda: s.NMPattern.parse("1:512"), s.PatternError),
        # "²".isdigit() holds, but int() refuses it
        (lambda: s.NMPattern.parse("²:4"), s.PatternError),
        (lambda: s.CalibMethod("median"), s.CalibMethodError),
        (lambda: s.CalibMethod.parse("percentile=abc"), s.CalibMethodError),
        (
            lambda: s.find_permutation(
                s.DenseMatrix(np.ones((4, 8), dtype=np.float32), s.FP16), s.PATTERN_24, s.SearchBudget(mode="anneal")
            ),
            s.SearchModeError,
        ),
        # values must already have the format's in-memory dtype; nothing casts them
        (lambda: s.DenseMatrix(np.array([[1 + 2**-20, 1.0]]), s.FP16), s.FormatError),
        (lambda: s.DenseMatrix(np.array([[1.5, 1.0]], np.float32), s.INT8), s.FormatError),
        (
            lambda: s.SparseNM(
                4, s.PATTERN_24, np.array([[1.5, 1.0]], np.float32), np.array([[0, 1]], np.uint8), s.INT8
            ),
            s.FormatError,
        ),
    ],
    ids=[
        "pattern_n_not_below_m",
        "pattern_m_above_255",
        "pattern_text",
        "pattern_text_m_above_255",
        "pattern_text_superscript_digit",
        "calib_method",
        "calib_percentile_text",
        "search_mode",
        "float64_data",
        "float_int8_data",
        "float_int8_values",
    ],
)
def test_input_errors_carry_a_code(make, error):
    with pytest.raises(error):
        make()


KEEP_PATTERNS = ["1:2", "2:4", "1:4", "4:8", "3:16", "1:255"]


def keep_loop_oracle(scores: np.ndarray, pattern: s.NMPattern) -> np.ndarray:
    """The documented keep rule, one group at a time: the n highest scores,
    ties to the lower index."""
    out = np.zeros(scores.shape, dtype=bool)
    for idx in np.ndindex(scores.shape[:-1]):
        group = scores[idx].tolist()
        order = sorted(range(pattern.m), key=lambda k: (-group[k], k))
        for k in order[: pattern.n]:
            out[idx + (k,)] = True
    return out


@settings(max_examples=80, deadline=None)
@given(
    pattern=st.sampled_from(KEEP_PATTERNS),
    rows=st.integers(0, 5),
    groups=st.integers(1, 4),
    kind=st.sampled_from(["ties", "distinct", "flags"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_keep_matches_per_group_loop(pattern, rows, groups, kind, seed):
    p = s.NMPattern.parse(pattern)
    rng = np.random.default_rng(seed)
    shape = (rows, groups, p.m)
    if kind == "ties":  # three levels, so most groups hold equal scores
        scores = rng.integers(0, 3, size=shape).astype(np.float64)
    elif kind == "distinct":
        scores = np.abs(rng.standard_normal(shape))
    else:  # nonzero flags, as compress passes them
        scores = rng.random(shape) < rng.random()
    got = p.keep(scores)
    assert got.dtype == bool and got.shape == shape and got.flags.c_contiguous
    assert np.array_equal(got, keep_loop_oracle(scores, p))
