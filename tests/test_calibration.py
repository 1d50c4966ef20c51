import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse24 as s
from sparse24 import calibration
from sparse24.calibration import HIST_BINS, MAX_HIST_BINS, QUANT_BINS, entropy_threshold
from conftest import random_conforming, random_dense


def kl_oracle(hist, candidate):
    """Naive pure-Python KL for one clip candidate, mirroring the documented
    definition but computed with plain loops and math.fsum. None for a
    candidate with no mass, inf where Q is 0 and P is not."""
    i = candidate
    p = [float(v) for v in hist[:i]]
    p[-1] += float(sum(hist[i:]))
    total = math.fsum(p)
    if total == 0:
        return None
    # merge the unclipped hist[:i] into QUANT_BINS chunks, spread each over
    # the chunk's nonzero bins of P; chunk sizes mirror np.array_split
    q = [0.0] * i
    base, extra = divmod(i, QUANT_BINS)
    start = 0
    for j in range(QUANT_BINS):
        size = base + (1 if j < extra else 0)
        chunk = list(range(start, start + size))
        start += size
        nz = [c for c in chunk if p[c] > 0]
        if nz:
            share = math.fsum(float(hist[c]) for c in chunk) / len(nz)
            for c in nz:
                q[c] = share
    qtotal = math.fsum(q)
    kl = 0.0
    for pc, qc in zip(p, q):
        if pc > 0:
            if qc == 0:
                return math.inf
            kl += (pc / total) * math.log((pc / total) / (qc / qtotal))
    return kl


def entropy_kl_loop(hist):
    """The per-candidate loop that entropy_threshold replaced, kept as its
    oracle: KL of candidate QUANT_BINS + c at c, +inf for a candidate with
    no mass or where Q is 0 and P is not. entropy_threshold must compute
    every KL with the same operations in the same order."""
    hist = np.asarray(hist, dtype=np.float64)
    nbins = len(hist)
    total = hist.sum()
    cum = np.concatenate([[0.0], np.cumsum(hist)])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(hist > 0, hist * np.log(hist), 0.0)
    cum_plogp = np.concatenate([[0.0], np.cumsum(plogp)])
    cum_nz = np.concatenate([[0], np.cumsum(hist > 0)])
    kls = np.full(max(nbins + 1 - QUANT_BINS, 0), np.inf)
    for i in range(QUANT_BINS, nbins + 1):
        tail = total - cum[i]
        last = hist[i - 1] + tail
        if cum[i - 1] + last == 0:
            continue
        base, extra = divmod(i, QUANT_BINS)
        sizes = np.full(QUANT_BINS, base)
        sizes[:extra] += 1
        starts = np.concatenate([[0], np.cumsum(sizes)])
        q_mass = cum[starts[1:]] - cum[starts[:-1]]  # Q merges the unclipped hist[:i]
        p_mass = q_mass.copy()
        p_mass[-1] += tail
        chunk_nz = (cum_nz[starts[1:]] - cum_nz[starts[:-1]]).astype(np.float64)
        if last > 0 and hist[i - 1] == 0:
            chunk_nz[-1] += 1
        if p_mass[-1] > 0 and q_mass[-1] == 0:
            continue
        sum_plogp = cum_plogp[i - 1] + (last * np.log(last) if last > 0 else 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            merged = np.where(
                q_mass > 0, p_mass * np.log(q_mass / np.maximum(chunk_nz, 1)), 0.0
            )
        T = cum[i - 1] + last
        kls[i - QUANT_BINS] = (sum_plogp - merged.sum()) / T + np.log(cum[i] / T)
    return kls


def dead_fraction(hist):
    """The share of clip candidates the loop skips, so their KL stays +inf:
    no mass, or a clipped tail folded into a last chunk with no unclipped
    mass."""
    hist = np.asarray(hist, dtype=np.float64)
    total = hist.sum()
    cum = np.concatenate([[0.0], np.cumsum(hist)])
    dead = []
    for i in range(QUANT_BINS, len(hist) + 1):
        tail = total - cum[i]
        no_mass = cum[i - 1] + hist[i - 1] + tail == 0
        dead.append(no_mass or (tail > 0 and cum[i] - cum[i - i // QUANT_BINS] == 0))
    return float(np.mean(dead))


def entropy_threshold_loop(hist, kls):
    """The clip point of the least KL in ``kls``, which is
    ``entropy_kl_loop(hist)``, the smallest i on a tie."""
    best_i, best_kl = len(hist), np.inf
    for c, kl in enumerate(kls):
        if kl < best_kl:
            best_kl, best_i = kl, QUANT_BINS + c
    return best_i


def sample_histogram(x):
    """The histogram calibrate builds for one slice."""
    return np.histogram(x, bins=HIST_BINS, range=(0.0, x.max()))[0]


def oracle_histograms():
    """(family, histogram) pairs for the loop-oracle comparison."""
    rng = np.random.default_rng(2004)
    cases = []
    for _ in range(60):
        n = int(rng.integers(32, 20_001))
        cases.append(("half_gaussian", sample_histogram(np.abs(rng.standard_normal(n)))))
        cases.append(("half_laplace", sample_histogram(np.abs(rng.laplace(size=n)))))
    for _ in range(30):
        density = rng.uniform(0.001, 0.3)
        counts = rng.integers(1, 1000, HIST_BINS) * (rng.random(HIST_BINS) < density)
        cases.append(("sparse", counts.astype(np.float64)))
        cases.append(("uniform", rng.integers(0, 100, HIST_BINS).astype(np.float64)))
    cases.append(("zeros", np.zeros(HIST_BINS)))
    for at in (0, 1, 127, 128, 129, 1000, 2046, 2047):
        spike = np.zeros(HIST_BINS)
        spike[at] = rng.integers(1, 10_000)
        cases.append(("spike", spike))
    # 1000 and 2100 bins are no multiple of QUANT_BINS; their candidates span
    # several candidate blocks and end in a partial one
    for n in (0, 1, 127, 128, 129, 300, 513, 2048, 1000, 2100):
        cases.append(("length", np.zeros(n)))
        cases.append(("length", rng.integers(0, 50, n).astype(np.float64)))
        cases.append(("length", np.exp(-0.5 * (np.arange(n) / rng.uniform(20, 700)) ** 2)))
    for _ in range(5):
        # per-row weight histograms of a 2:4-pruned 4x32 head: half zeros, so
        # a bin-0 spike and ~17 nonzero bins
        w = s.DenseMatrix.from_values(rng.standard_normal((4, 32)), s.FP32)
        head = s.apply_mask(w, s.prune_magnitude(w, s.PATTERN_24).mask).data
        cases.extend(("head_2of4", sample_histogram(np.abs(row))) for row in head)
    return cases


class TestCalibrateMax:
    def test_closed_form(self):
        x = s.DenseMatrix.from_values([[12.7, -3.0, 0.5, 1.0]], s.FP32)
        scale = s.calibrate([x], s.CalibMethod("max"))
        assert scale.scales[0] == pytest.approx(12.7 / 127.0)

    def test_never_clips_calibration_samples(self, rng):
        samples = [random_dense(rng, 16, 16, s.FP32) for _ in range(4)]
        scale = s.calibrate(samples, s.CalibMethod("max"))
        hit_full_scale = False
        for m in samples:
            q = s.quantize(m, scale)
            assert np.all(np.abs(q.data) <= 127)
            hit_full_scale = hit_full_scale or bool(np.any(np.abs(q.data) == 127))
        assert hit_full_scale  # the global amax maps exactly to 127

    def test_per_row(self, rng):
        m = random_dense(rng, 8, 16, s.FP32)
        scale = s.calibrate([m], s.CalibMethod("max"), s.Granularity.PER_ROW)
        expected = np.abs(m.data).max(axis=1) / 127.0
        assert np.allclose(scale.scales, expected)

    def test_all_zero_slice_gets_unit_scale(self):
        z = s.DenseMatrix.from_values(np.zeros((4, 4)), s.FP32)
        scale = s.calibrate([z], s.CalibMethod("max"), s.Granularity.PER_ROW)
        assert np.all(scale.scales == 1.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(s.ShapeError):
            s.calibrate([], s.CalibMethod("max"))

    def test_per_row_needs_equal_row_counts(self):
        samples = [s.DenseMatrix(np.ones((rows, 4), dtype=np.float32), s.FP32) for rows in (2, 3)]
        with pytest.raises(s.ShapeError):
            s.calibrate(samples, s.CalibMethod("max"), s.Granularity.PER_ROW)


class TestCalibratePerRow:
    @pytest.mark.parametrize("method", ["max", "percentile=99.9", "entropy"])
    def test_per_row_matches_row_by_row_slices(self, rng, method):
        # per-row calibration of samples of different widths equals
        # per-tensor calibration of each row's samples, in sample order
        values = [rng.standard_normal((5, cols)).astype(np.float32) for cols in (8, 24, 40)]
        for v in values:
            v[2] = 0.0  # one all-zero row slice, which gets the unit scale
        mats = [s.DenseMatrix.from_values(v, s.FP16) for v in values]
        calib = s.CalibMethod.parse(method)
        got = s.calibrate(mats, calib, s.Granularity.PER_ROW).scales
        want = [
            s.calibrate([s.DenseMatrix(m.data[r : r + 1], m.fmt) for m in mats], calib).scales[0]
            for r in range(5)
        ]
        assert got.tolist() == want

    @pytest.mark.parametrize("method", ["max", "percentile=99.9", "entropy"])
    def test_many_rows_match_per_slice_calls(self, rng, method):
        # 37 rows span several entropy scoring blocks; all-zero rows sit
        # between live ones, so a block's rows are not consecutive
        values = [rng.standard_normal((37, cols)).astype(np.float32) for cols in (40, 24)]
        for v in values:
            v[[0, 9, 10, 17, 36]] = 0.0
        mats = [s.DenseMatrix.from_values(v, s.FP32) for v in values]
        calib = s.CalibMethod.parse(method)
        got = s.calibrate(mats, calib, s.Granularity.PER_ROW).scales
        assert got.tolist() == per_slice_scales(mats, calib)

    def test_per_row_entropy_memory_does_not_grow_with_rows(self, rng):
        m = s.DenseMatrix.from_values(rng.standard_normal((256, 512)), s.FP32)
        tracemalloc.start()
        try:
            s.calibrate([m], s.CalibMethod("entropy"), s.Granularity.PER_ROW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def per_slice_scales(mats, calib):
    """Per-row scales the slow way: one per-tensor calibration per row."""
    rows = mats[0].rows
    return [
        s.calibrate([s.DenseMatrix(m.data[r : r + 1], m.fmt) for m in mats], calib).scales[0]
        for r in range(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_per_row_scales_equal_per_slice_scales(data):
    # Values come from a few levels per example, so rows hold ties, zeros
    # and whole zero rows; the levels span six decades within one example.
    rows = data.draw(st.integers(1, 20), label="rows")
    widths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=3), label="widths")
    levels = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3, allow_nan=False)), min_size=1, max_size=6
        ),
        label="levels",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mats = []
    for cols in widths:
        v = np.array(levels)[rng.integers(0, len(levels), (rows, cols))] * rng.choice([-1, 1], (rows, cols))
        mats.append(s.DenseMatrix.from_values(v, s.FP32))
    method = data.draw(st.sampled_from(["max", "percentile=50", "percentile=99.9", "entropy"]))
    calib = s.CalibMethod.parse(method)
    got = s.calibrate(mats, calib, s.Granularity.PER_ROW).scales
    assert got.tolist() == per_slice_scales(mats, calib)
    assert np.all(got > 0) and np.all(np.isfinite(got))


class TestCalibratePercentile:
    def test_percentile_100_equals_max(self, rng):
        m = random_dense(rng, 16, 16, s.FP32)
        p100 = s.calibrate([m], s.CalibMethod("percentile", 100.0))
        mx = s.calibrate([m], s.CalibMethod("max"))
        assert p100.scales[0] == pytest.approx(mx.scales[0])

    def test_lower_percentile_clips(self, rng):
        m = random_dense(rng, 64, 64, s.FP32)
        p99 = s.calibrate([m], s.CalibMethod("percentile", 99.0))
        mx = s.calibrate([m], s.CalibMethod("max"))
        assert p99.scales[0] < mx.scales[0]

    def test_bad_percentile_rejected(self):
        with pytest.raises(s.CalibMethodError):
            s.CalibMethod("percentile", 0.0)
        with pytest.raises(s.CalibMethodError):
            s.CalibMethod("percentile", 101.0)

    @pytest.mark.parametrize(
        "values, percentile",
        [([0, 0, 0, 0, 0, 3], 50.0), ([0] * 2047 + [3], 99.9)],
        ids=["median", "one-in-2048"],
    )
    def test_zero_percentile_falls_back_to_max(self, values, percentile):
        x = s.DenseMatrix.from_values([values], s.FP32)
        calib = s.CalibMethod("percentile", percentile)
        assert s.calibrate([x], calib).scales.tolist() == [3 / 127.0]
        rows = s.DenseMatrix.from_values([values, np.ones(len(values))], s.FP32)
        assert s.calibrate([rows], calib, s.Granularity.PER_ROW).scales.tolist() == [3 / 127.0, 1 / 127.0]

    def test_parse(self):
        m = s.CalibMethod.parse("percentile=99.9")
        assert m.tag == "percentile" and m.percentile == 99.9
        assert s.CalibMethod.parse("entropy").tag == "entropy"

    @pytest.mark.parametrize(
        "text, message",
        [("percentile=150", r"\(0, 100\]"), ("percentile=0", r"\(0, 100\]"), ("percentile=abc", "number")],
    )
    def test_parse_reports_the_range_or_the_number(self, text, message):
        with pytest.raises(s.CalibMethodError, match=message):
            s.CalibMethod.parse(text)


class TestEntropyCalibration:
    def test_two_spike_histogram_matches_exhaustive_oracle(self):
        hist = np.zeros(HIST_BINS)
        hist[100] = 1000.0
        hist[1500] = 50.0
        got = entropy_threshold(hist)
        kls = {i: kl_oracle(hist, i) for i in range(QUANT_BINS, HIST_BINS + 1)}
        finite = {i: v for i, v in kls.items() if v is not None}
        best = min(finite.values())
        assert finite[got] <= best + 1e-9

    def test_random_histograms_match_oracle(self, rng):
        for _ in range(5):
            hist = rng.integers(0, 50, HIST_BINS).astype(float) * (rng.random(HIST_BINS) < 0.2)
            got = entropy_threshold(hist)
            finite = {
                i: v
                for i in range(QUANT_BINS, HIST_BINS + 1)
                if (v := kl_oracle(hist, i)) is not None
            }
            assert finite[got] <= min(finite.values()) + 1e-9


@pytest.fixture(scope="module")
def oracle_kl_rows():
    """(family, histogram, entropy_kl_loop row) for each oracle histogram: the
    slow loop runs once for both loop comparisons."""
    return [(family, hist, entropy_kl_loop(hist)) for family, hist in oracle_histograms()]


class TestEntropyMatchesLoop:
    def test_same_threshold_as_per_candidate_loop(self, oracle_kl_rows):
        assert len(oracle_kl_rows) >= 200
        wanted = [entropy_threshold_loop(hist, kls) for _, hist, kls in oracle_kl_rows]
        got = [entropy_threshold(hist) for _, hist, _ in oracle_kl_rows]
        assert got == wanted
        # A term gathered from the wrong chunk shows in the answer only where
        # the minimum lies past the first candidate, so the set needs
        # half-Gaussians whose answer is there.
        assert any(f == "half_gaussian" and w != QUANT_BINS for (f, _, _), w in zip(oracle_kl_rows, wanted))

    def test_every_kl_value_is_the_loops(self, oracle_kl_rows):
        # The answers above pin the KL curve only near its minimum; this pins
        # every candidate, so a reordered sum cannot pass.
        for _, hist, kls in oracle_kl_rows:
            if len(hist) >= QUANT_BINS:
                got = next(calibration._entropy_kl(np.asarray(hist, dtype=np.float64)[None]))
                assert got.tobytes() == kls.tobytes()

    def test_oracle_set_holds_both_regimes_of_the_live_gather(self):
        # The loop comparisons above cover a nearly empty live set and a full
        # one only if the set holds histograms of both kinds.
        dead = {}
        for family, hist in oracle_histograms():
            if len(hist) >= QUANT_BINS:
                dead.setdefault(family, []).append((len(hist), dead_fraction(hist)))
        assert min(f for _, f in dead["head_2of4"]) >= 0.9
        assert sum(f >= 0.9 for _, f in dead["spike"]) >= 2  # the spikes at the top bins
        assert any(n >= HIST_BINS and f == 0 for n, f in dead["length"])  # all-positive curves

    def test_one_2d_call_matches_per_row_calls(self):
        hists = [hist for _, hist in oracle_histograms() if len(hist) == HIST_BINS]
        assert len(hists) > 150
        got = entropy_threshold(np.stack(hists))
        assert got.tolist() == [entropy_threshold(hist) for hist in hists]

    def test_memory_of_a_block_call(self):
        block = np.stack([hist for f, hist in oracle_histograms() if f == "head_2of4"][:4])
        calibration._gather_plan.cache_clear()
        tracemalloc.start()
        try:
            entropy_threshold(block)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            entropy_threshold(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept <= 2**20
        assert peak <= 2 * 2**20

    def test_smooth_half_gaussian_clips_past_quant_bins(self):
        # A rounding-noise answer can land a bin or two past QUANT_BINS, so
        # the bar for a real clip point is twice that.
        hist = 1e4 * np.exp(-0.5 * (np.arange(HIST_BINS) / 600.0) ** 2)
        assert entropy_threshold(hist) > 2 * QUANT_BINS


class TestEntropyRejectsMalformed:
    def test_negative_count(self):
        with pytest.raises(s.HistogramError) as exc:
            entropy_threshold(np.r_[-5.0, np.ones(HIST_BINS - 1)])
        assert exc.value.code == "histogram"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
    def test_non_finite_count(self, bad):
        hist = np.ones(HIST_BINS)
        hist[1000] = bad
        with pytest.raises(s.NonFiniteError):
            entropy_threshold(hist)

    @pytest.mark.parametrize(
        "hist",
        [np.array(["a"] * 200), [[1.0] * 200, [1.0] * 100], [{}] * 200],
        ids=["strings", "ragged", "dicts"],
    )
    def test_counts_that_are_not_real_numbers(self, hist):
        # unchecked, numpy's float64 conversion raised a bare ValueError or TypeError
        with pytest.raises(s.HistogramError, match="real numbers") as exc:
            entropy_threshold(hist)
        assert exc.value.code == "histogram"

    @pytest.mark.parametrize("shape", [(2, 2, HIST_BINS), ()], ids=["3d", "0d"])
    def test_wrong_dimensions(self, shape):
        with pytest.raises(s.ShapeError):
            entropy_threshold(np.ones(shape))

    @pytest.mark.parametrize(
        "hist",
        [np.full(HIST_BINS, 1e308), np.r_[np.full(1024, 1e305), np.zeros(1024)]],
        ids=["sum_overflows", "sum_finite"],
    )
    def test_total_whose_sums_overflow(self, hist):
        # numpy's overflow warnings are errors in this suite, so a check
        # that came too late would fail with RuntimeWarning, not this
        with pytest.raises(s.HistogramError, match=r"2\*\*1000") as exc:
            entropy_threshold(np.stack([np.ones(HIST_BINS), hist]))
        assert exc.value.code == "histogram"

    def test_total_on_each_side_of_the_rule(self):
        laplace = np.exp(-np.arange(HIST_BINS) / 150.0)  # totals about 2**7.23
        assert entropy_threshold(laplace * 2.0**992) == entropy_threshold(laplace) == 1664
        with pytest.raises(s.HistogramError):
            entropy_threshold(laplace * 2.0**993)


    def test_unclipped_mass_that_underflows_its_total(self):
        # unclipped / T is 0 for every candidate below 2048, so 1 920 of the
        # 1 921 KLs would be -inf and the answer 128
        with pytest.raises(s.HistogramError, match="unclipped mass") as exc:
            entropy_threshold(np.r_[np.full(2047, 5e-324), 1e10])
        assert exc.value.code == "histogram"
        assert entropy_threshold(np.r_[np.full(2047, 1e-300), 1e10]) == 2048

    def test_chunk_mass_that_underflows_its_bin_count(self):
        # candidate 258's last chunk is bins 256-257: it holds the least
        # subnormal, and the clipped tail makes bin 257 a nonzero bin of P, so
        # S / nnz = 5e-324 / 2 is 0. Its KL would be +inf, and numpy would warn
        hist = np.zeros(300)
        hist[256], hist[299] = 5e-324, 1.0
        with pytest.raises(s.HistogramError, match="chunk mass"):
            entropy_threshold(hist)
        hist[256] = 1e-323  # S / nnz is then the least subnormal
        assert entropy_threshold(hist) == entropy_threshold_loop(hist, entropy_kl_loop(hist))

    def test_bins_up_to_the_bound(self):
        x = np.abs(np.random.default_rng(8192).standard_normal(50_000))
        hist = np.histogram(x, bins=MAX_HIST_BINS, range=(0.0, x.max()))[0]
        got = entropy_threshold(hist)
        assert QUANT_BINS < got < MAX_HIST_BINS
        assert got == entropy_threshold_loop(hist, entropy_kl_loop(hist))

    @pytest.mark.parametrize("nbins", [MAX_HIST_BINS + 1, 2**20])
    def test_more_bins_rejected_before_any_table(self, nbins):
        # the table and mass would be ceil(nbins / 128) * nbins float64 each:
        # 4.3 MB past the bound, 64 GiB at 2**20 bins
        hist = np.ones(nbins)
        table = -(-nbins // QUANT_BINS) * nbins * 8
        calibration._gather_plan.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(s.HistogramError, match=f"at most {MAX_HIST_BINS} bins") as exc:
                entropy_threshold(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "histogram"
        assert peak <= hist.nbytes // 2 < table // 8  # a bool temporary of the input's length, no table
        assert calibration._gather_plan.cache_info().currsize == 0


def spanning_histogram(rng):
    """Fractional counts spanning float64's range: 10**e for e near lo or
    near hi, with lo and hi anywhere in it, or lo subnormal and hi large
    (totals stay below 2**1000); in half the draws rising with the bin, so
    the first candidates' unclipped mass can be far below the total; some
    counts 0 and some the least subnormal."""
    n = int(rng.integers(QUANT_BINS, 401))
    if rng.random() < 0.5:
        lo = rng.uniform(-323.3, 297.0)
        hi = rng.uniform(lo, 297.0)
    else:
        lo, hi = rng.uniform(-323.3, -250.0), rng.uniform(0.0, 297.0)
    jitter = rng.uniform(0, 10) * rng.random(n)
    exponents = np.clip(np.where(rng.random(n) < rng.random(), hi - jitter, lo + jitter), lo, hi)
    if rng.random() < 0.5:
        exponents.sort()
    hist = np.where(rng.random(n) < rng.random() / 2, 0.0, 10.0**exponents)
    hist[rng.random(n) < rng.random() / 10] = 5e-324
    return hist


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_accepted_histograms_have_no_negative_infinite_or_nan_kl(seed):
    # Hypothesis draws the seed only: its own floats cluster at a few values
    # here. About 1 in 7 of these histograms is rejected.
    hist = spanning_histogram(np.random.default_rng(seed))
    try:
        entropy_threshold(hist)
    except s.HistogramError:
        return
    kl = next(calibration._entropy_kl(hist[None]))
    assert not (kl == -np.inf).any() and not np.isnan(kl).any()


class TestScaleSet:
    @pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, np.nan], ids=["zero", "negative", "inf", "nan"])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(s.ScaleError):
            s.ScaleSet(s.Granularity.PER_ROW, np.array([0.5, bad]))

    @pytest.mark.parametrize("scales", [["a"], [[0.5], [0.5, 2.0]], [{}]], ids=["string", "ragged", "dict"])
    def test_scales_that_are_not_real_numbers(self, scales):
        # unchecked, numpy's float64 conversion raised a bare ValueError or TypeError
        with pytest.raises(s.ScaleError, match="real numbers") as exc:
            s.ScaleSet(s.Granularity.PER_TENSOR, scales)
        assert exc.value.code == "scale"

    @pytest.mark.parametrize("scales", [[0.5, 2.0], []], ids=["two", "none"])
    def test_per_tensor_holds_exactly_one_scale(self, scales):
        with pytest.raises(s.ScaleError):
            s.ScaleSet(s.Granularity.PER_TENSOR, np.array(scales))

    def test_callers_array_stays_writable(self):
        a = np.array([0.5, 2.0])
        scales = s.ScaleSet(s.Granularity.PER_ROW, a)
        a[0] = 7.0
        assert scales.scales.tolist() == [0.5, 2.0]


class TestQuantize:
    def test_zero_maps_to_zero(self):
        z = s.DenseMatrix.from_values(np.zeros((2, 4)), s.FP32)
        scale = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([0.37]))
        assert np.all(s.quantize(z, scale).data == 0)

    def test_full_scale_maps_to_127(self):
        scale = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([0.1]))
        x = s.DenseMatrix.from_values([[12.7]], s.FP32)
        assert s.quantize(x, scale).data[0, 0] == 127

    def test_dequantize_error_bound(self, rng):
        x = random_dense(rng, 16, 16, s.FP32)
        scale = s.calibrate([x], s.CalibMethod("max"))
        q = s.quantize(x, scale)
        err = np.abs(q.data * scale.scales[0] - x.data)
        assert np.max(err) <= scale.scales[0] / 2 + 1e-12

    def test_preserves_conformance(self, rng):
        w = random_conforming(rng, 8, 16, s.FP32)
        scale = s.calibrate([w], s.CalibMethod("max"), s.Granularity.PER_ROW)
        q = s.quantize(w, scale)
        s.check_conformance(q, s.PATTERN_24)

    def test_granularity_mismatch(self, rng):
        x = random_dense(rng, 8, 8, s.FP32)
        scale = s.ScaleSet(s.Granularity.PER_ROW, np.ones(4))
        with pytest.raises(s.ShapeError):
            s.quantize(x, scale)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("granularity", [s.Granularity.PER_TENSOR, s.Granularity.PER_ROW])
    @pytest.mark.parametrize("method", ["max", "percentile=99.9", "entropy"])
    def test_calibrate_rejects(self, rng, method, granularity, bad):
        good = random_dense(rng, 4, 8, s.FP32)
        data = random_dense(rng, 4, 8, s.FP32).data.copy()
        data[2, 3] = bad
        with pytest.raises(s.NonFiniteError) as exc:
            s.calibrate([good, s.DenseMatrix(data, s.FP32)], s.CalibMethod.parse(method), granularity)
        assert exc.value.code == "non_finite"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_quantize_rejects(self, rng, bad):
        data = random_dense(rng, 4, 8, s.FP32).data.copy()
        data[1, 1] = bad
        scale = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([0.1]))
        with pytest.raises(s.NonFiniteError):
            s.quantize(s.DenseMatrix(data, s.FP32), scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_sparse_quantize_rejects(self, rng, bad):
        sp = s.compress(random_conforming(rng, 4, 8, s.FP32), s.PATTERN_24)
        values = sp.values.copy()
        values[3, 2] = bad
        bad_sp = s.SparseNM(sp.cols_orig, sp.pattern, values, sp.meta.copy(), sp.fmt)
        scale = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([0.1]))
        with pytest.raises(s.NonFiniteError):
            s.sparse_quantize(bad_sp, scale)


class TestQuantizedSparseGemm:
    def test_unit_scales_equal_integer_spmm(self, rng):
        a = random_conforming(rng, 8, 32, s.INT8)
        sp = s.compress(a, s.PATTERN_24)
        b = random_dense(rng, 32, 8, s.INT8)
        ones = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([1.0]))
        out = s.quantized_sparse_gemm(sp, b, ones, ones)
        assert np.array_equal(out, s.spmm(sp, b).data.astype(np.float64))

    def test_rejects_fp16_operands(self, rng):
        sp = s.compress(random_conforming(rng, 8, 32, s.FP16), s.PATTERN_24)
        b = random_dense(rng, 32, 8, s.FP16)
        ones = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([1.0]))
        with pytest.raises(s.FormatError):
            s.quantized_sparse_gemm(sp, b, ones, ones)

    def test_rejects_per_row_dense_scales(self, rng):
        sp = s.compress(random_conforming(rng, 8, 32, s.INT8), s.PATTERN_24)
        b = random_dense(rng, 32, 8, s.INT8)
        ones = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([1.0]))
        with pytest.raises(s.ScaleError, match="per-tensor"):
            s.quantized_sparse_gemm(sp, b, ones, s.ScaleSet(s.Granularity.PER_ROW, np.ones(32)))

    def test_per_row_rescaling_matches_dense_oracle(self, rng):
        a = random_conforming(rng, 8, 32, s.INT8)
        sp = s.compress(a, s.PATTERN_24)
        b = random_dense(rng, 32, 8, s.INT8)
        sa = s.ScaleSet(s.Granularity.PER_ROW, rng.random(8) + 0.01)
        sb = s.ScaleSet(s.Granularity.PER_TENSOR, np.array([0.5]))
        out = s.quantized_sparse_gemm(sp, b, sa, sb)
        oracle = s.gemm_dense(a, b).data.astype(np.float64) * sa.scales[:, None] * 0.5
        assert np.allclose(out, oracle, rtol=0, atol=0)

    def test_prune_calibrate_quantize_pipeline_conforms(self, rng):
        w = random_dense(rng, 16, 32, s.FP32)
        pruned = s.apply_mask(w, s.prune_magnitude(w, s.PATTERN_24).mask)
        scale = s.calibrate([pruned], s.CalibMethod("max"), s.Granularity.PER_ROW)
        q = s.quantize(pruned, scale)
        s.check_conformance(q, s.PATTERN_24)
        sq = s.sparse_quantize(s.compress(pruned, s.PATTERN_24), scale)
        s.check_conformance(s.decompress(sq), s.PATTERN_24)
