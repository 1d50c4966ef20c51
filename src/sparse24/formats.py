"""Numeric formats, dense matrix container, and reference GEMM.

All low-precision formats are emulated on top of 32-bit arithmetic with
explicit rounding so results are reproducible across platforms, with the
one exception stated last. FP32-accumulate modes round products only
(FP16/BF16/TF32 products are exact in float32); FP16-accumulate mode rounds
every product and every accumulation step; INT32 accumulates in int32,
wrapping modulo 2**32. Accumulation order is fixed (ascending k) so float
results are bit-stable. Every accumulator has the operands' in-memory
dtype: float32, or int32 for INT8.

FP16 rounding has one rule, :func:`_round_fp16`, and numpy's float16 type
is not used here: FP16 storage words are plain uint16 bits, as BF16's are.
FP16-accumulate mode keeps fp16 values in a float32 accumulator: each step
adds in float32 and rounds the sum with that rule.
That is the correctly rounded fp16 sum, as double rounding through float32
is innocuous for addition when 24 >= 2*11 + 2 (S. A. Figueroa, "When is
double rounding innocuous?", ACM SIGNUM Newsletter 30(3), 1995), and it is
numpy's float16 add, which is a float32 add and then the same rounding. The
step adds the product first, and only where the product is a number: a NaN
product is the sum. numpy's float16 add of two NaNs gives the second
operand's, the product's; its float32 add gives either one, by the lane of
its loop (on x86-64, the first in full vector lanes and the second in a
scalar tail), so the NaN is not left to it.

The exception: FP32-accumulate mode (FP32, TF32, FP16 and BF16 operands)
does leave a NaN + NaN step to numpy's float32 add. Such a result is NaN on
every host, but its payload and sign follow the lane of the add's loop, so
they may differ between hosts of other vector widths. Every other bit of
every result is host-independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ElemType(Enum):
    FP32 = "fp32"
    TF32 = "tf32"
    FP16 = "fp16"
    BF16 = "bf16"
    INT8 = "int8"


class AccType(Enum):
    FP32 = "fp32"
    FP16 = "fp16"
    INT32 = "int32"


@dataclass(frozen=True)
class NumericFormat:
    """An (input operand, accumulator) precision pair."""

    elem: ElemType
    acc: AccType

    def __post_init__(self):
        if (self.elem, self.acc) not in _ALLOWED_PAIRS:
            raise FormatError(f"unsupported format pair {self.elem.value}/{self.acc.value}")

    @property
    def is_integer(self) -> bool:
        return self.elem is ElemType.INT8

    @property
    def elem_bits(self) -> int:
        return 8 * STORAGE_DTYPE[self.elem].itemsize

    def check_values(self, values: np.ndarray) -> None:
        """Raise :class:`FormatError` unless ``values`` has this format's
        in-memory dtype: int32 for INT8, float32 for every float format."""
        want = np.int32 if self.is_integer else np.float32
        if values.dtype != want:
            raise FormatError(f"{self} values must be {np.dtype(want)}, got {values.dtype}")

    @property
    def sparse_capable(self) -> bool:
        # FP32/FP32 is the one mode with no sparse variant.
        return not (self.elem is ElemType.FP32 and self.acc is AccType.FP32)

    @property
    def sparse_k_multiple(self) -> int:
        """Inner-dimension alignment required for sparse multiplication."""
        return 32 if self.is_integer else 16

    def check_sparse(self, k: int) -> None:
        """Require a sparse mode and a positive inner dimension k aligned to sparse_k_multiple."""
        if not self.sparse_capable:
            raise FormatError(f"format {self} has no sparse mode")
        mult = self.sparse_k_multiple
        if k <= 0 or k % mult != 0:
            raise ShapeError(f"sparse K={k} must be a positive multiple of {mult} for {self}")

    def __str__(self) -> str:
        return f"{self.elem.value}/{self.acc.value}"


_ALLOWED_PAIRS = {
    (ElemType.FP32, AccType.FP32),
    (ElemType.TF32, AccType.FP32),
    (ElemType.FP16, AccType.FP32),
    (ElemType.BF16, AccType.FP32),
    (ElemType.FP16, AccType.FP16),
    (ElemType.INT8, AccType.INT32),
}

# Little-endian storage of one element; TF32 fills an fp32 word, BF16 its
# upper half. FP16 and BF16 words are plain bits, read by _from_storage.
STORAGE_DTYPE = {
    ElemType.FP32: np.dtype("<f4"),
    ElemType.TF32: np.dtype("<f4"),
    ElemType.FP16: np.dtype("<u2"),
    ElemType.BF16: np.dtype("<u2"),
    ElemType.INT8: np.dtype("<i1"),
}

FP32 = NumericFormat(ElemType.FP32, AccType.FP32)
TF32 = NumericFormat(ElemType.TF32, AccType.FP32)
FP16 = NumericFormat(ElemType.FP16, AccType.FP32)
BF16 = NumericFormat(ElemType.BF16, AccType.FP32)
FP16_FP16 = NumericFormat(ElemType.FP16, AccType.FP16)
INT8 = NumericFormat(ElemType.INT8, AccType.INT32)

ALL_FORMATS = (FP32, TF32, FP16, BF16, FP16_FP16, INT8)


class FormatError(ValueError):
    code = "format"


class ShapeError(ValueError):
    code = "shape"


class PatternError(ValueError):
    """An N:M pattern with n outside (0, m) or m above 255, or text that is not ``N:M``."""

    code = "pattern"


class NonFiniteError(ValueError):
    """A tensor holds NaN or ±inf where only finite values have a meaning."""

    code = "non_finite"


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteError` unless every element of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} hold NaN or ±inf")


def _to_storage(values: np.ndarray, elem: ElemType) -> np.ndarray:
    """The ``STORAGE_DTYPE`` words of values ``elem`` holds: ``values``
    itself when it already has that dtype (FP32), else a new array.

    An FP16 word is the sign in bit 15 over the bits of |x| * 2**-112
    shifted right by 13: the product rebiases the exponent, and turns fp16
    subnormals into float32 subnormals. Where that gives exponent 31, ±inf
    and finite values give the ±inf word, and a NaN keeps its top 10
    fraction bits (bit 0 set when all are 0). A value fp16 cannot hold loses
    bits, so it does not read back as itself.
    """
    bits = values.view(np.uint32)
    if elem is ElemType.BF16:
        return (bits >> 16).astype(STORAGE_DTYPE[elem])
    if elem is ElemType.TF32:
        return (bits & np.uint32(0xFFFFE000)).view(STORAGE_DTYPE[elem])
    if elem is ElemType.FP16:
        words = np.empty(values.shape, dtype=STORAGE_DTYPE[elem])
        np.right_shift(bits, 16, out=words, casting="unsafe")
        words &= 0x8000
        scaled = np.abs(values, out=np.empty(values.shape, dtype=np.float32))
        with np.errstate(invalid="ignore"):  # a signaling NaN; its word is set below
            scaled *= np.float32(2.0**-112)
        low = scaled.view(np.uint32)
        low >>= 13
        if low.max(initial=0) >= 0x7C00:
            special = low >= 0x7C00
            nan = np.isnan(values[special])
            low[special] = np.where(nan, _fp16_nan(bits[special]) >> 13 & 0x7FFF, 0x7C00)
        words |= low
        return words
    return values.astype(STORAGE_DTYPE[elem], copy=False)


def _from_storage(words: np.ndarray, elem: ElemType) -> np.ndarray:
    """The in-memory values of storage words: int32 for INT8, else float32.

    FP16 inverts :func:`_to_storage`: bits 0-14 of a word, shifted left 13
    under its sign, read as float32 and times 2**112; exponent 31 gives
    float32's exponent 255 under the same 10 fraction bits (±inf or NaN).
    """
    if elem is ElemType.BF16:
        return np.left_shift(words, 16, dtype=np.uint32).view(np.float32)
    if elem is ElemType.FP16:
        bits = np.empty(words.shape, dtype=np.uint32)
        np.left_shift(words.view(np.uint16), 16, out=bits, dtype=np.uint32)
        signed = bits.view(np.int32)
        signed >>= 3  # the sign fills bits 28-31, the rest lands 13 bits up
        bits &= 0x8FFFFFFF
        values = bits.view(np.float32)
        values *= np.float32(2.0**112)
        if values.max(initial=0) >= 65536 or values.min(initial=0) <= -65536:
            bits[np.abs(values) >= 65536] += 0x38000000  # exponent 143 to 255
        return values
    return words.astype(np.int32 if elem is ElemType.INT8 else np.float32, copy=False)


def _fp16_nan(bits: np.ndarray) -> np.ndarray:
    """The float32 words of NaNs as fp16 holds them, as numpy's cast gives
    them: the top 10 fraction bits, with the lowest of them set when all 10
    are 0, since they would otherwise read as ±inf."""
    kept = bits & np.uint32(0xFFFFE000)
    kept[(kept & 0x007FE000) == 0] |= 0x2000
    return kept


def _round_fp16(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Float32 ``x`` rounded to fp16, in ``out`` or a new float32 array; see
    :func:`round_array`. ``out`` must be a float32 array of x's shape that is
    not ``x``: the rounding reads x's words after it writes out's."""
    bits = x.view(np.uint32)
    out = np.abs(x, out=np.empty(x.shape, dtype=np.float32) if out is None else out)
    rare = not out.max(initial=0) <= 65504  # ±inf, NaN or a magnitude that may round past 65 504
    words = out.view(np.uint32)
    words -= 1  # |x|'s words less 1: 0 wraps to the top, so the tests below pass over zeros
    # nonzero magnitudes below 2**-14, indexed only if the least one is: a min costs less than an index
    tiny = words.min(initial=0xFFFFFFFF) < 0x387FFFFF
    subnormal = np.flatnonzero(words < 0x387FFFFF) if tiny else ()
    # round to nearest even at fp16's 10 fraction bits, in place on the result's words
    np.right_shift(bits, 13, out=words)
    words &= 1
    words += bits
    words += 0x0FFF
    words &= 0xFFFFE000
    if len(subnormal):  # fp16's fixed quantum 2**-24 is float32's at 0.5
        small = np.take(x, subnormal)
        rounded = np.abs(small)
        rounded += 0.5
        rounded -= 0.5
        np.put(out, subnormal, np.copysign(rounded, small))
    if rare:
        big = np.abs(out) > 65504
        out[big] = np.copysign(np.inf, out[big])
        nan = np.isnan(x)
        words[nan] = _fp16_nan(bits[nan])
    return out


def round_array(x: np.ndarray, elem: ElemType) -> np.ndarray:
    """Round values into the target element type; always a new array.

    Float formats give float32, and round from float32: float64 input is
    converted to float32 first, so 1 + 2**-11 + 2**-40 becomes 1.0 in FP16
    where a direct rounding would give 1 + 2**-10. FP16 and BF16 round to
    nearest even, TF32 cuts the mantissa to 10 explicit bits, and a NaN stays
    NaN. INT8 rounds half to even in float64 and saturates to int32 in
    [-128, 127]; NaN raises NonFiniteError. A float value beyond the target's
    range becomes ±inf, with no warning.

    FP16 follows integer rules on the float32 words and equals numpy's
    float32 to float16 cast bit for bit. It adds 0x0FFF plus the lowest kept
    bit and clears the 13 low bits. Magnitudes below 2**-14 instead round to
    fp16's fixed quantum 2**-24, by adding and then subtracting 0.5 in
    float32. Results above 65 504 become ±inf. A NaN keeps its top 10
    fraction bits, with the lowest of them set when all 10 are 0. The result
    is not passed through :func:`_to_storage` and :func:`_from_storage`:
    that pair maps each of the 65 536 fp16 values to itself, and every result
    is one of them.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing casts saturate by design
        dtype = np.float64 if elem is ElemType.INT8 else np.float32
        # FP32's storage words are x itself, so there x is the one owned copy
        # (the conversion, if the dtype changes); every other path makes new arrays
        x = np.array(x, dtype=dtype) if elem is ElemType.FP32 else np.asarray(x, dtype=dtype)
        if elem is ElemType.FP16:
            return _round_fp16(x)
        if elem is ElemType.INT8:
            x = np.clip(np.rint(x), -128, 127)
            if np.isnan(x).any():
                raise NonFiniteError("values to round into INT8 hold NaN")
        elif elem in (ElemType.BF16, ElemType.TF32):
            bits = rounded = x.view(np.uint32)
            if elem is ElemType.BF16:  # round to nearest even; in place, as each temporary costs page faults
                rounded = (bits >> 16) & 1
                rounded += bits
                rounded += 0x7FFF
            nan = np.isnan(x)
            if nan.any():  # quieted (bit 22 set), so neither bias nor cut makes a NaN ±0 or ±inf
                rounded = np.where(nan, bits | 0x00400000, rounded)
            x = rounded.view(np.float32)
        return _from_storage(_to_storage(x, elem), elem)


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major 2-D operand. ``data`` holds format-rounded values, float32 or
    INT8's int32 in [-128, 127]; a GEMM result holds accumulator values. Another
    dtype raises :class:`FormatError`, see :meth:`NumericFormat.check_values`."""

    data: np.ndarray
    fmt: NumericFormat

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ShapeError(f"expected 2-D data, got ndim={self.data.ndim}")
        self.fmt.check_values(self.data)
        self.data.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_values(cls, values, fmt: NumericFormat) -> "DenseMatrix":
        """Build a matrix, rounding arbitrary real values into the element
        format. Values of another dtype kind (strings, objects, complex)
        raise :class:`FormatError`; the check reads only the dtype. Nested
        lists of unequal lengths raise :class:`ShapeError`."""
        try:
            values = np.ascontiguousarray(values)
        except ValueError as exc:  # numpy's "inhomogeneous shape"
            raise ShapeError(f"values do not form an array: {exc}") from exc
        if values.dtype.kind not in "biuf":
            raise FormatError(f"values for {fmt} must be real numbers, got dtype {values.dtype}")
        return cls(round_array(values, fmt.elem), fmt)


@dataclass(frozen=True)
class GemmShape:
    m: int
    n: int
    k: int

    def __post_init__(self):
        if min(self.m, self.n, self.k) <= 0:
            raise ShapeError(f"GEMM dims must be positive, got {self}")


@dataclass(frozen=True)
class NMPattern:
    """Keep ``n`` of every aligned group of ``m`` values along a row.

    m is at most 255: an intra-group index is stored in one byte, both in
    :class:`SparseNM <sparse24.codec.SparseNM>` metadata and in the S24T
    archive's ``m`` field.
    """

    n: int
    m: int

    def __post_init__(self):
        if not 0 < self.n < self.m:
            raise PatternError(f"need 0 < n < m, got {self.n}:{self.m}")
        if self.m > 255:
            raise PatternError(f"group size m={self.m} exceeds 255: an intra-group index is stored in one byte")

    @property
    def meta_bits(self) -> int:
        return max(1, (self.m - 1).bit_length())

    def check_divides(self, cols: int) -> None:
        if cols % self.m != 0:
            raise ShapeError(f"group size {self.m} does not divide {cols} columns")

    def groups(self, x: np.ndarray) -> np.ndarray:
        """The (rows, cols/m, m) view of a 2-D array's aligned groups."""
        self.check_divides(x.shape[1])
        return x.reshape(x.shape[0], x.shape[1] // self.m, self.m)

    def keep(self, scores: np.ndarray) -> np.ndarray:
        """Bool mask of the n highest scores in each group; ties keep the lower index.

        ``scores`` holds groups of m along its last axis, as :meth:`groups`
        gives them; the result is a contiguous bool array of the same shape.
        Slot k's rank counts the slots that beat it, and the slot is kept when
        its rank is below n. One transposing copy lays the m slots out as m
        contiguous planes, the pairwise comparisons and the ranks (uint8) run
        plane against plane, and each plane of kept flags is copied back into
        the group layout.
        """
        m = self.m
        planes = np.ascontiguousarray(scores.reshape(-1, m).T)
        # rank[k] starts at k, as if every lower slot won; then one count moves
        # for each pair k < l that the later slot wins. uint8 may wrap midway,
        # but the final rank lies in [0, m - 1] and m <= 255, so it is exact
        rank = np.repeat(np.arange(m, dtype=np.uint8), planes.shape[1]).reshape(planes.shape)
        later_wins = np.empty(planes.shape[1], dtype=bool)
        wins = later_wins.view(np.uint8)
        slots, ranks = list(planes), list(rank)
        for k, l in itertools.combinations(range(m), 2):
            np.greater(slots[l], slots[k], out=later_wins)
            ranks[k] += wins
            ranks[l] -= wins
        del planes, slots  # freed before the result is allocated, to bound peak memory
        kept = rank < self.n
        out = np.empty(rank.shape[::-1], dtype=bool)
        for k in range(m):  # plane by plane: one strided copy each, not m-long rows
            out[:, k] = kept[k]
        return out.reshape(scores.shape)

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"

    @classmethod
    def parse(cls, text: str) -> "NMPattern":
        n, sep, m = text.partition(":")
        if not (sep and n.strip().isdecimal() and m.strip().isdecimal()):
            raise PatternError(f"expected N:M, got {text!r}")
        return cls(int(n), int(m))


PATTERN_24 = NMPattern(2, 4)
PATTERN_12 = NMPattern(1, 2)


def gemm_dense(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Reference dense GEMM with the documented emulation semantics.

    The mode is the operands' shared format (else :class:`FormatError`). The
    every-column-kept case of the accumulate core that :func:`spmm
    <sparse24.kernels.spmm>` also runs: value k of every row of A is its
    column k, so step k adds column k of A times row k of B, and summation
    is ascending over k. The result carries accumulator-format values in
    ``data`` (int32 for the INT8/INT32 mode, float32 otherwise).
    """
    if a.cols != b.rows:
        raise ShapeError(f"inner dims differ: {a.cols} vs {b.rows}")
    # a broadcast view, so no index array of A's size is built
    return _accumulate(a.data, np.broadcast_to(np.arange(a.cols), a.data.shape), a.fmt, b)


# Gather budget of one chunk of steps in _accumulate. A sweep of 64 KiB to
# 4 MiB on 512x512 2:4 fp16 layers at batch widths 8/32/128 (Xeon, 2 MiB L2
# per core, numpy 2.4) found 256 KiB to 1 MiB equal within noise, and smaller
# or larger budgets slower. INT8 gathers int32, 4 bytes like fp16's float32.
_CHUNK_BYTES = 1 << 19


@dataclass
class MultiplyAddCounter:
    """Sums the multiply-add counts that :func:`_accumulate` gives it."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += n


def _accumulate(
    vals: np.ndarray,
    cols: np.ndarray,
    fmt: NumericFormat,
    b: DenseMatrix,
    counter: MultiplyAddCounter | None = None,
) -> DenseMatrix:
    """The accumulate loop of both GEMMs: out[r] = sum_j vals[r, j] * B[cols[r, j]].

    ``vals`` and ``cols`` are (M, J), row-major as the operands store them:
    row r's values and the row of B each one selects. The mode is ``fmt``,
    A's format; B must share it. Step j gathers, for every output row r,
    row ``cols[r, j]`` of B, multiplies it by ``vals[r, j]`` and adds the
    product into the M x N accumulator, so each output element sums its
    products in ascending j. The accumulator has B's dtype. FP16-accumulate
    mode rounds every product and every sum to fp16 by :func:`_round_fp16`,
    as the module docstring states; INT8/INT32 mode multiplies and adds in
    int32, wrapping modulo 2**32 like an exact sum wrapped once.
    FP32-accumulate mode leaves a NaN + NaN step to numpy's float32 add,
    whose NaN follows the lane of its loop (module docstring), so only the
    payload and sign of such a NaN may differ between hosts.
    A zero value still multiplies its row, so 0 * inf in B gives NaN.
    Overflow and NaN results come back without a numpy warning.

    The products are formed a chunk of steps at a time: one ``take`` gathers
    the chunk's rows of B into a (c, M, N) buffer, one ``multiply`` scales
    it, and in FP16-accumulate mode one :func:`_round_fp16` call rounds it
    into a second float32 buffer. The adds stay one step at a time in
    ascending j, so the chunking changes no result bit. An FP16-accumulate
    step adds the product row and the accumulator in place on the product
    row, product first, where the product is not NaN, then rounds the sum
    into the accumulator. c is the most steps whose gathered rows fit in
    ``_CHUNK_BYTES``, and at least 1. Every index in ``cols`` must lie in
    [0, B.rows): the gather clips rather than checks, which spares numpy a
    buffered copy. A ``counter`` is given c * M * N for each chunk of c steps
    the loop runs.
    """
    if b.fmt != fmt:
        raise FormatError(f"operand formats {fmt} and {b.fmt} differ")
    vals_t, rows_t = vals.T, cols.T  # views: step j reads row j of each
    steps, out = len(vals_t), np.zeros((len(vals), b.cols), dtype=b.data.dtype)
    chunk = max(1, min(steps, _CHUNK_BYTES // max(1, out.nbytes)))
    buf = np.empty((chunk, *out.shape), dtype=b.data.dtype)
    prod = np.empty_like(buf) if fmt.acc is AccType.FP16 else None
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, steps, chunk):
            c = min(chunk, steps - j)
            if counter is not None:
                counter.add(c * out.size)
            gathered = buf[:c]
            np.take(b.data, rows_t[j : j + c], axis=0, out=gathered, mode="clip")
            np.multiply(vals_t[j : j + c, :, None], gathered, out=gathered)
            if prod is None:
                for p in gathered:
                    np.add(out, p, out=out)
            else:
                products = _round_fp16(gathered, out=prod[:c])
                for p, number in zip(products, products == products):
                    np.add(p, out, out=p, where=number)  # a NaN product stays as the sum
                    _round_fp16(p, out=out)
    return DenseMatrix(out, fmt)
