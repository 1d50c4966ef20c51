"""INT8 calibration and symmetric quantization.

Scaling is symmetric (scale only, no zero point). Granularities: one scale
per tensor, or one per matrix row (for a weight, per output channel).
Calibration methods: absolute max, percentile of |x|, and KL-divergence
minimization over a clipped 2048-bin histogram.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .codec import SparseNM
from .formats import INT8, DenseMatrix, ElemType, FormatError, ShapeError, require_finite, round_array
from .kernels import spmm


class ScaleError(ValueError):
    """Scales that are not finite and positive, or of a granularity the
    operation does not take."""

    code = "scale"


class CalibMethodError(ValueError):
    """An unknown calibration method, or a percentile outside (0, 100]."""

    code = "calib_method"


class HistogramError(ValueError):
    """A histogram with counts that are not an array of real numbers, a
    negative count, too many bins, or counts whose KL terms underflow
    float64; see :func:`entropy_threshold`."""

    code = "histogram"


class Granularity(Enum):
    PER_TENSOR = "per_tensor"
    PER_ROW = "per_row"


@dataclass(frozen=True)
class ScaleSet:
    granularity: Granularity
    scales: np.ndarray  # finite positive float64, length 1 (per tensor) or rows

    def __post_init__(self):
        try:
            s = np.array(self.scales, dtype=np.float64)  # a copy, frozen below: the caller's array stays writable
        except (TypeError, ValueError) as exc:  # strings, objects or ragged lists
            raise ScaleError(f"scales must be real numbers: {exc}") from exc
        if s.ndim != 1 or not np.all((s > 0) & (s < np.inf)):
            raise ScaleError("scales must be a 1-D array of finite positive values")
        if self.granularity is Granularity.PER_TENSOR and len(s) != 1:
            raise ScaleError(f"a per-tensor scale set holds one scale, got {len(s)}")
        s.setflags(write=False)
        object.__setattr__(self, "scales", s)

    def per_row_of(self, rows: int) -> np.ndarray:
        """Broadcast to one scale per matrix row."""
        if self.granularity is Granularity.PER_TENSOR:
            return np.full(rows, self.scales[0])
        if len(self.scales) != rows:
            raise ShapeError(f"{len(self.scales)} scales for {rows} rows")
        return np.asarray(self.scales)


@dataclass(frozen=True)
class CalibMethod:
    tag: str  # "max" | "entropy" | "percentile"
    percentile: float = 99.99

    def __post_init__(self):
        if self.tag not in ("max", "entropy", "percentile"):
            raise CalibMethodError(f"unknown calibration method {self.tag!r}")
        if self.tag == "percentile" and not 0 < self.percentile <= 100:
            raise CalibMethodError("percentile must be in (0, 100]")

    @classmethod
    def parse(cls, text: str) -> "CalibMethod":
        if text.startswith("percentile="):
            try:
                percentile = float(text.split("=", 1)[1])
            except ValueError as exc:
                raise CalibMethodError(f"percentile must be a number, got {text!r}") from exc
            return cls("percentile", percentile)
        return cls(text)


HIST_BINS = 2048
QUANT_BINS = 128  # positive INT8 levels used when merging candidate clips
MAX_HIST_BINS = 4 * HIST_BINS  # the most bins entropy_threshold takes: its table grows with nbins**2
_ROW_BLOCK = 4  # slices histogrammed per entropy_threshold call, so histograms do not grow with slices


def calibrate(
    samples: Iterable[DenseMatrix],
    method: CalibMethod,
    granularity: Granularity = Granularity.PER_TENSOR,
) -> ScaleSet:
    """Choose quantization scales from a stream of sample tensors.

    A slice is the whole stream (per tensor) or one row of every sample, in
    sample order (per row). Every slice is scored in one pass: max and
    percentile reduce along the slice axis, and entropy histograms the
    slices a block at a time and scores each block with one
    :func:`entropy_threshold` call, whose gather plan shares each KL term
    among all candidate clips. A slice gets the scale it would get on its
    own.

    max: amax/127 per slice. percentile(p): p-th percentile of |x| per slice,
    over 127; a slice whose percentile is 0 but whose max is not (mostly
    zeros) falls back to amax/127, so no scale is 0. entropy: clip threshold
    minimizing KL divergence between the clipped distribution and the
    128-level quantization of the unclipped values (2048-bin histogram of
    |x|), over 127. All-zero
    slices get scale 1.0. Raises :class:`ShapeError` on an empty stream and
    :class:`NonFiniteError` if any sample holds NaN or ±inf.
    """
    mats = list(samples)
    if not mats:
        raise ShapeError("empty calibration stream")
    for m in mats:
        require_finite(m.data, "calibration samples")
    per_row = granularity is Granularity.PER_ROW
    if per_row and any(m.rows != mats[0].rows for m in mats):
        raise ShapeError("per-row calibration needs identically shaped samples")
    # one row per slice: per tensor, every value of the stream in one row
    absvals = np.concatenate(
        [np.abs(m.data if per_row else m.data.reshape(1, -1)).astype(np.float64) for m in mats], axis=1
    )
    amax = absvals.max(axis=1, initial=0.0)
    if method.tag == "max":
        clip = amax
    elif method.tag == "percentile":
        clip = np.percentile(absvals, method.percentile, axis=1) if absvals.size else amax
        clip = np.where(clip > 0, clip, amax)
    else:
        live = np.flatnonzero(amax)
        bins = np.zeros(len(amax), dtype=np.int64)
        for lo in range(0, len(live), _ROW_BLOCK):
            block = live[lo : lo + _ROW_BLOCK]
            hists = [np.histogram(absvals[r], bins=HIST_BINS, range=(0.0, amax[r]))[0] for r in block]
            bins[block] = entropy_threshold(np.stack(hists))
        clip = bins * amax / HIST_BINS
    return ScaleSet(granularity, np.where(amax > 0, clip / 127.0, 1.0))


def entropy_threshold(hist: np.ndarray) -> int | np.ndarray:
    """Pick the clip point (in bins) minimizing KL(P || Q).

    ``hist`` is one histogram, giving an int, or a 2-D array with one
    histogram per row, giving each row the clip point it gets on its own.
    Raises :class:`ShapeError` for any other shape, :class:`NonFiniteError`
    for a NaN or ±inf count and :class:`HistogramError` (code
    ``histogram``) for counts that do not form an array of real numbers
    (strings, a ragged list), for a negative count, for a histogram whose
    counts total more than 2**1000 (about 1.07e301), and for one of more than
    ``MAX_HIST_BINS`` = 8 192 bins, before any table is built: the table
    and ``mass`` are each ceil(nbins / 128) x nbins float64 (4 MiB apiece
    at the bound, and the plan 3.9 MiB of int32). Up to 2**1000 every
    float64 sum the KL takes stays finite: it weighs logs of at most
    log(2**1000) = 693 by counts that total at most 2**1000.

    Counts spanning float64's range can underflow a ratio whose log the KL
    takes, and log(0) would score a candidate -inf (so it wins) or +inf
    where its KL is finite. So :class:`HistogramError` is also raised, when
    that row is scored, exactly when a live candidate's unclipped mass over
    its total, or one of its chunks' unclipped mass over the chunk's count
    of nonzero bins of P, is 0 in float64. ``np.r_[np.full(2047, 5e-324),
    1e10]`` raises so; with 1e-300 bins the same shape gives 2048. Integer
    counts never do: each nonzero count is at least 1.

    For each candidate i in [QUANT_BINS, nbins], P is hist[:i] with the
    clipped tail folded into its last bin, and Q merges the unclipped
    hist[:i] into QUANT_BINS levels, each spread uniformly over the level's
    nonzero bins of P (Migacz, "8-bit Inference with TensorRT", 2017). There
    is no smoothing: where Q is 0 and P is not, KL is +inf. Candidates with
    no mass are skipped, and ties take the smallest i; with no candidate
    left the answer is nbins.

    KL(P||Q) = (1/T) * [sum p*log p - sum_k P_k*log(S_k/nnz_k)] + log(S/T),
    with T the total, S = sum(hist[:i]), and P_k and S_k chunk k's mass with
    and without the tail, which only the last chunk holds. Candidate i cuts
    hist[:i] into QUANT_BINS chunks of i // QUANT_BINS bins, the first
    i % QUANT_BINS one bin wider, so all chunks but the last are (width,
    start) pairs that many candidates share. Gather plan: a table holds each
    shared term once, from one sliding-window difference of the prefix sums,
    then one last-chunk term per candidate; the plan, built once per nbins,
    holds every candidate's QUANT_BINS table positions. One ``take`` per
    block of candidates fills a contiguous buffer that one sum per row
    reduces: the terms and order of a per-candidate loop, so every KL value
    is the loop's to the bit. For 2048 bins the table is 256 KiB and the
    plan 0.94 MiB of int32.

    Only live candidates are gathered and scored. A dead one, with T = 0 or
    a clipped tail folded into a last chunk with no unclipped mass (Q is 0
    there and P is not), has KL +inf whatever its other terms, so it cannot
    be the answer. In the 2:4-pruned rows of a small layer, 93-97 % of the
    candidates are dead.
    """
    try:
        hist = np.asarray(hist, dtype=np.float64, order="C")
    except (TypeError, ValueError) as exc:  # strings, objects or ragged lists
        raise HistogramError(f"histogram counts must be an array of real numbers: {exc}") from exc
    if hist.ndim not in (1, 2):
        raise ShapeError(f"a histogram or a 2-D array of them has 1 or 2 dimensions, not {hist.ndim}")
    require_finite(hist, "histogram counts")
    if (hist < 0).any():
        raise HistogramError("histogram counts must not be negative")
    rows = np.atleast_2d(hist)
    with np.errstate(over="ignore"):  # a total past the float64 range is inf, and rejected here
        if (np.add.reduce(rows, axis=1) > 2.0**1000).any():
            raise HistogramError("histogram counts must total at most 2**1000 (about 1.07e301)")
    if rows.shape[1] > MAX_HIST_BINS:
        raise HistogramError(f"a histogram has at most {MAX_HIST_BINS} bins, got {rows.shape[1]}")
    best = np.full(len(rows), rows.shape[1])
    if rows.shape[1] >= QUANT_BINS:
        for r, kl in enumerate(_entropy_kl(rows)):
            c = int(np.argmin(kl))
            if kl[c] < np.inf:
                best[r] = QUANT_BINS + c
    return int(best[0]) if hist.ndim == 1 else best


# Live candidates gathered per take. Sweep on the 2048-bin histograms of
# perfbench deploy seed 1, sizes interleaved in one process, median of 300
# (2-vCPU host): one post-ReLU histogram (93 % live) 1.35 / 1.06 / 1.16 /
# 1.75 ms, the 4-row 2:4 head block (3-6 % live) 1.79 / 1.77 / 2.08 /
# 2.11 ms, at 64 / 128 / 256 / 512.
_CAND_BLOCK = 128


def _entropy_kl(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Yield KL(P||Q) of candidate QUANT_BINS + c at c for each row of a
    (rows, nbins >= QUANT_BINS) array, +inf for a candidate with no mass or
    where Q is 0 and P is not; one row at a time in the same scratch. Those
    +inf candidates are found from T, the tail and the last chunk's mass
    before the gather, which reads and sums the terms of the others only.
    A row where a live candidate's log would take an underflowed ratio
    raises :class:`HistogramError` (see :func:`entropy_threshold`). Its
    unclipped mass over T is tested before the gather. An underflowed chunk
    term is -inf, and no term is +inf, so it shows after the gather as a
    candidate's sum of -inf.
    Each row's table comes from two window views of its padded prefix sums,
    built by ``as_strided`` (a few µs less per view than
    ``sliding_window_view``, which gives the same windows)."""
    nbins = rows.shape[1]
    plan = _gather_plan(nbins)
    widest = -(-nbins // QUANT_BINS)
    i = np.arange(QUANT_BINS, nbins + 1)  # candidate i scores at i - QUANT_BINS
    start = i - i // QUANT_BINS  # the last chunk is base bins wide and ends at i
    # the shared term of w bins at start s sits in row w - 1, column s
    table = np.empty(widest * nbins + len(i))
    terms, last_terms = table[: -len(i)].reshape(widest, nbins), table[-len(i) :]
    mass = np.empty_like(terms)
    block = np.empty((min(_CAND_BLOCK, len(i)), QUANT_BINS))
    idx = np.empty(block.shape, dtype=np.intp)
    sums = np.empty(len(i))
    for hist in rows:
        total = hist.sum()
        # padded so every start has a window; chunks that run into the padding are never gathered
        cum, cum_nz = _prefix_sums(hist, widest - 1), _prefix_sums(hist > 0, widest - 1)
        # every nbins-long window of the contiguous float64 prefix sums, one per row
        windows = as_strided(cum, (widest + 1, nbins), (8, 8), writeable=False)
        nz_windows = as_strided(cum_nz, (widest + 1, nbins), (8, 8), writeable=False)
        np.subtract(windows[1:], windows[0], out=mass)
        np.subtract(nz_windows[1:], nz_windows[0], out=terms)
        _merged(mass, mass, terms)
        before = hist[QUANT_BINS - 1 :]  # bin i - 1, the last bin P keeps
        unclipped = cum[QUANT_BINS : nbins + 1]
        tail = total - unclipped
        last = before + tail
        last_mass = unclipped - cum[start]
        T = cum[QUANT_BINS - 1 : nbins] + last
        # a dead candidate stays +inf and is never gathered: no mass, or a clipped tail in a last chunk Q leaves at 0
        live = np.flatnonzero(~((T == 0) | ((last_mass == 0) & (tail > 0))))
        kept = unclipped[live] / T[live]
        if not kept.all():
            raise HistogramError("a clip candidate's unclipped mass over its total underflows float64")
        gains_bin = (last > 0) & (before == 0)  # the tail makes bin i - 1 a nonzero bin of P
        last_terms[:] = cum_nz[QUANT_BINS : nbins + 1] - cum_nz[start] + gains_bin
        _merged(last_mass + tail, last_mass, last_terms)
        for lo in range(0, len(live), len(block)):
            n = min(len(block), len(live) - lo)
            idx[:n] = plan[live[lo : lo + n]]
            # the plan is in range; mode="raise" would buffer the output
            np.take(table, idx[:n], out=block[:n], mode="clip")
            block[:n].sum(axis=-1, out=sums[lo : lo + n])
        if (sums[: len(live)] == -np.inf).any():
            raise HistogramError("a clip candidate's chunk mass over its nonzero bins underflows float64")
        with np.errstate(divide="ignore", invalid="ignore"):
            cum_plogp = _prefix_sums(np.where(hist > 0, hist * np.log(hist), 0.0))
            sum_plogp = cum_plogp[QUANT_BINS - 1 : nbins] + np.where(last > 0, last * np.log(last), 0.0)
            kl = np.full(len(i), np.inf)
            kl[live] = (sum_plogp[live] - sums[: len(live)]) / T[live] + np.log(kept)
        yield kl


@functools.lru_cache(maxsize=1)
def _gather_plan(nbins: int) -> np.ndarray:
    """Read-only [c, k]: where _entropy_kl's table holds chunk k of candidate
    QUANT_BINS + c, in the smallest integer type that holds every position."""
    widest = -(-nbins // QUANT_BINS)
    ncand = nbins + 1 - QUANT_BINS
    plan = np.empty((ncand, QUANT_BINS), dtype=np.min_scalar_type(-(widest * nbins + ncand)))
    plan[:, -1] = np.arange(widest * nbins, widest * nbins + ncand)
    k = np.arange(QUANT_BINS - 1)
    for base in range(1, nbins // QUANT_BINS + 1):
        # candidates base * QUANT_BINS + e: the first e chunks are base + 1 bins wide
        e = np.arange(min(QUANT_BINS, nbins + 1 - base * QUANT_BINS))[:, None]
        lo = (base - 1) * QUANT_BINS
        plan[lo : lo + len(e), :-1] = (base - 1 + (k < e)) * nbins + k * base + np.minimum(k, e)
    plan.setflags(write=False)
    return plan


def _merged(p: np.ndarray, s: np.ndarray, nz: np.ndarray) -> None:
    """Chunk term P*log(S/nnz) of KL(P||Q), written over nz: P and S are the
    chunk's mass with and without the clipped tail. 0 where S is 0, and
    -inf where S / nnz underflows to 0."""
    np.maximum(nz, 1, out=nz)
    np.divide(s, nz, out=nz)
    with np.errstate(divide="ignore"):  # an underflowed S / nnz; _entropy_kl rejects a live candidate's
        np.log(nz, out=nz, where=s > 0)  # S = 0 keeps 0 / nnz = 0
    nz *= p


def _prefix_sums(a: np.ndarray, pad: int = 0) -> np.ndarray:
    """Float64 cumulative sums with a leading zero, then ``pad`` copies of the total."""
    out = np.zeros(len(a) + 1 + pad)
    np.cumsum(a, dtype=np.float64, out=out[1 : len(a) + 1])
    out[len(a) + 1 :] = out[len(a)]
    return out


def quantize(x: DenseMatrix, scale: ScaleSet) -> DenseMatrix:
    """q = clamp(round_nearest_even(x / scale), -128, 127), as INT8.

    Raises :class:`NonFiniteError` if ``x`` holds NaN or ±inf.
    """
    require_finite(x.data, "values to quantize")
    return DenseMatrix(_to_int8(x.data, scale), INT8)


def _to_int8(values: np.ndarray, scale: ScaleSet) -> np.ndarray:
    """clamp(round_nearest_even(values / scale), -128, 127) per row, in float64."""
    s = scale.per_row_of(len(values))[:, None]
    return round_array(values.astype(np.float64) / s, ElemType.INT8)


def quantized_sparse_gemm(
    a: SparseNM,
    b: DenseMatrix,
    scale_a: ScaleSet,
    scale_b: ScaleSet,
) -> np.ndarray:
    """INT32-accumulated sparse GEMM of INT8 operands, rescaled to real values.

    Output row i is scaled by scale_a[i] * scale_b (scale_b per tensor).
    """
    if a.fmt != INT8:
        raise FormatError(f"quantized sparse GEMM needs INT8 operands, got {a.fmt}")
    if scale_b.granularity is not Granularity.PER_TENSOR:
        raise ScaleError("dense operand supports per-tensor scaling only")
    acc = spmm(a, b)
    sa = scale_a.per_row_of(a.rows)[:, None]
    return acc.data.astype(np.float64) * sa * scale_b.scales[0]


def sparse_quantize(s: SparseNM, scale: ScaleSet) -> SparseNM:
    """Quantize the kept values of a compressed tensor (zeros stay zero, so
    N:M conformance is preserved). Raises :class:`NonFiniteError` if a
    kept value is NaN or ±inf."""
    require_finite(s.values, "values to quantize")
    return SparseNM(s.cols_orig, s.pattern, _to_int8(s.values, scale), s.meta, INT8)
