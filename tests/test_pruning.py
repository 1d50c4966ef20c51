import itertools
import math
import tracemalloc

import numpy as np
import pytest

import sparse24 as s
from sparse24 import pruning
from conftest import random_dense


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def best_group_retained(group, n):
    """Brute-force optimum over all C(m, n) per-group keep choices."""
    return max(sum(abs(group[i]) for i in combo) for combo in itertools.combinations(range(len(group)), n))


class TestPruneMagnitude:
    def test_clear_ordering(self):
        w = s.DenseMatrix.from_values([[5, -1, 0.5, -6]], s.FP32)
        res = s.prune_magnitude(w, s.PATTERN_24)
        assert res.mask.bits.tolist() == [[True, False, False, True]]
        assert res.retained_magnitude == pytest.approx(11.0)
        assert res.lost_magnitude == pytest.approx(1.5)

    def test_tie_keeps_lower_index(self):
        w = s.DenseMatrix.from_values([[1, 1, 1, 1]], s.FP32)
        res = s.prune_magnitude(w, s.PATTERN_24)
        assert res.mask.bits.tolist() == [[True, True, False, False]]

    def test_matches_per_group_enumeration(self, rng):
        w = random_dense(rng, 8, 16, s.FP32)
        res = s.prune_magnitude(w, s.PATTERN_24)
        expected = sum(
            best_group_retained(w.data[r, g : g + 4].tolist(), 2)
            for r in range(8)
            for g in range(0, 16, 4)
        )
        assert res.retained_magnitude == pytest.approx(expected, rel=1e-6)

    def test_retained_plus_lost_is_total(self, rng):
        w = random_dense(rng, 8, 16, s.FP32)
        res = s.prune_magnitude(w, s.PATTERN_24)
        assert res.retained_magnitude + res.lost_magnitude == pytest.approx(
            float(np.abs(w.data).sum()), rel=1e-6
        )

    def test_mask_conforms(self, rng):
        w = random_dense(rng, 8, 16, s.FP32)
        res = s.prune_magnitude(w, s.PATTERN_24)
        res.mask.check(s.PATTERN_24)
        s.check_conformance(s.apply_mask(w, res.mask), s.PATTERN_24)

    def test_peak_memory_without_float64_keep(self, rng):
        # Float64 |w| in the keep rule peaked at 2 209 KiB here (a float64
        # copy, its abs and the keep rule's slot planes); float32 |w| with one
        # float64 copy for the sums peaks at 1 666 KiB.
        w = random_dense(rng, 256, 512, s.FP16)
        assert traced_peak(lambda: s.prune_magnitude(w, s.PATTERN_24)) < 2209 * 1024


def prune_argsort_oracle(w, pattern):
    """The stable-argsort pruning that the rank count replaced.
    Returns (bits, retained_magnitude, lost_magnitude)."""
    groups = np.abs(w.data.astype(np.float64)).reshape(w.rows, -1, pattern.m)
    # stable argsort on -|w| keeps lower indices first among ties
    order = np.argsort(-groups, axis=2, kind="stable")[:, :, : pattern.n]
    bits = np.zeros(groups.shape, dtype=bool)
    np.put_along_axis(bits, order, True, axis=2)
    total = float(groups.sum())
    retained = float(groups[bits].sum())
    return bits.reshape(w.rows, w.cols), retained, total - retained


PATTERNS = [s.NMPattern.parse(p) for p in ("1:2", "2:4", "1:4", "3:4", "3:8", "2:8")]


class TestPruneMatchesArgsort:
    # 6 patterns x 6 formats x 12 matrices = 432 cases. A third hold small
    # integers, so ties (also between +x and -x) are everywhere; a third span
    # ten decades, so float64 sums round and their order shows.
    @pytest.mark.parametrize("fmt", s.ALL_FORMATS, ids=str)
    @pytest.mark.parametrize("pattern", PATTERNS, ids=str)
    def test_same_mask_and_sums_as_stable_argsort(self, rng, pattern, fmt):
        for case in range(12):
            rows, groups = int(rng.integers(1, 12)), int(rng.integers(1, 7))
            shape = (rows, groups * pattern.m)
            vals = rng.standard_normal(shape).astype(np.float32)
            if case % 3 == 0:
                vals = rng.integers(-3, 4, size=shape).astype(np.float32)
            elif case % 3 == 1:
                vals *= rng.lognormal(0, 2, size=shape[1])
            else:
                vals *= 10.0 ** rng.uniform(-6, 4, size=shape)
            vals[rng.random(rows) < 0.2] = 0.0  # zero rows
            w = s.DenseMatrix.from_values(vals, fmt)
            res = s.prune_magnitude(w, pattern)
            bits, retained, lost = prune_argsort_oracle(w, pattern)
            assert np.array_equal(res.mask.bits, bits)
            assert res.retained_magnitude == retained
            assert res.lost_magnitude == lost


def greedy_full_rescore_oracle(w, pattern, budget):
    """First-improvement pairwise column swaps, each candidate scored by
    re-pruning the whole permuted matrix. Returns (order, swaps_used)."""

    def retained(order):
        groups = np.abs(w.data.astype(np.float64))[:, order].reshape(w.rows, -1, pattern.m)
        return float(-np.partition(-groups, pattern.n - 1, axis=2)[:, :, : pattern.n].sum())

    identity = np.arange(w.cols)
    best_order, best_val = identity, retained(identity)
    rng = np.random.default_rng(budget.seed)
    swaps_left = budget.max_swaps
    for restart in range(max(1, budget.restarts)):
        order = identity.copy() if restart == 0 else rng.permutation(w.cols)
        val = retained(order)
        improved = True
        while improved and swaps_left > 0:
            improved = False
            for i, j in itertools.combinations(range(w.cols), 2):
                if swaps_left <= 0:
                    break
                if i // pattern.m == j // pattern.m:
                    continue
                cand = order.copy()
                cand[i], cand[j] = cand[j], cand[i]
                swaps_left -= 1
                cval = retained(cand)
                if cval > val:
                    order, val = cand, cval
                    improved = True
        if val > best_val:
            best_val, best_order = val, order
    return best_order, budget.max_swaps - swaps_left


def greedy_two_group_oracle(w, pattern, budget):
    """The greedy search that the gain arrays replaced: every candidate swap
    is scored by re-pruning its two groups. Returns (order, swaps_used)."""

    def top_n(absw):
        groups = absw.reshape(absw.shape[0], -1, pattern.m)
        return -np.partition(-groups, pattern.n - 1, axis=2)[:, :, : pattern.n]

    m = pattern.m
    absw = np.abs(w.data.astype(np.float64))
    identity = np.arange(w.cols)
    best_order, best_val = identity, float(top_n(absw).sum())
    rng = np.random.default_rng(budget.seed)
    swaps_left = budget.max_swaps
    for restart in range(max(1, budget.restarts)):
        order = identity.copy() if restart == 0 else rng.permutation(w.cols)
        group_scores = top_n(absw[:, order]).sum(axis=(0, 2))
        improved = True
        while improved and swaps_left > 0:
            improved = False
            for i, j in itertools.combinations(range(w.cols), 2):
                if swaps_left <= 0:
                    break
                gi, gj = i // m, j // m
                if gi == gj:
                    continue
                cols = np.concatenate((order[gi * m : gi * m + m], order[gj * m : gj * m + m]))
                cols[i - gi * m], cols[m + j - gj * m] = order[j], order[i]
                swaps_left -= 1
                pair = top_n(absw[:, cols]).sum(axis=(0, 2))
                if pair.sum() > group_scores[gi] + group_scores[gj]:
                    order[i], order[j] = order[j], order[i]
                    group_scores[[gi, gj]] = pair
                    improved = True
        val = float(top_n(absw[:, order]).sum())
        if val > best_val:
            best_val, best_order = val, order
    return best_order, budget.max_swaps - swaps_left


def assert_matches_two_group_oracle(w, pattern, budget):
    perm, res = s.find_permutation(w, pattern, budget)
    order, swaps_used = greedy_two_group_oracle(w, pattern, budget)
    assert np.array_equal(perm.perm, order)
    assert budget.stats["swaps_used"] == swaps_used
    bits, _, _ = prune_argsort_oracle(s.permute_columns(w, s.Permutation(order)), pattern)
    assert np.array_equal(res.mask.bits, bits)


class TestPermutationSearch:
    def test_partition_count_formula(self):
        count = len(list(s.enumerate_group_partitions(8, 4)))
        assert count == math.factorial(8) // (math.factorial(4) ** 2 * math.factorial(2))
        assert count == 35

    def test_partitions_of_negative_columns_rejected(self):
        # unchecked, -4 % 2 == 0 and range(-4) is empty, so one empty partition came out
        with pytest.raises(s.ShapeError, match="cols >= 0") as exc:
            next(s.enumerate_group_partitions(-4, 2))
        assert exc.value.code == "shape"
        assert list(s.enumerate_group_partitions(0, 2)) == [()]

    def test_partitions_need_m_to_divide_the_columns(self):
        partitions = s.enumerate_group_partitions(10, 4)  # a generator: the check runs on first use
        with pytest.raises(s.ShapeError):
            next(partitions)

    def test_default_budget_is_search_budget(self, rng):
        w = random_dense(rng, 8, 16, s.FP16)
        perm, res = s.find_permutation(w, s.PATTERN_24)
        want_perm, want = s.find_permutation(w, s.PATTERN_24, s.SearchBudget())
        assert np.array_equal(perm.perm, want_perm.perm) and np.array_equal(res.mask.bits, want.mask.bits)
        assert (res.retained_magnitude, res.lost_magnitude) == (want.retained_magnitude, want.lost_magnitude)

    def test_exhaustive_visits_all_and_matches_enumeration(self, rng):
        w = random_dense(rng, 8, 8, s.FP32)
        budget = s.SearchBudget(mode="exhaustive")
        perm, res = s.find_permutation(w, s.PATTERN_24, budget)
        assert budget.stats["partitions_visited"] == 35
        best = max(
            s.prune_magnitude(
                s.permute_columns(w, s.Permutation(np.array(order))), s.PATTERN_24
            ).retained_magnitude
            for order in s.enumerate_group_partitions(8, 4)
        )
        assert res.retained_magnitude == best

    def test_identity_returned_when_already_optimal(self):
        # large values already spread across groups; identity is optimal
        w = s.DenseMatrix.from_values([[9, 8, 0, 0, 7, 6, 0, 0]], s.FP32)
        perm, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="exhaustive"))
        baseline = s.prune_magnitude(w, s.PATTERN_24).retained_magnitude
        assert perm.is_identity() and res.retained_magnitude == baseline

    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_zero_columns_give_identity_and_empty_mask(self, mode):
        w = s.DenseMatrix(np.zeros((4, 0), dtype=np.float32), s.FP32)
        perm, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode=mode))
        assert perm.size == 0 and perm.is_identity()
        assert res.mask.bits.shape == (4, 0) and res.retained_magnitude == res.lost_magnitude == 0.0

    def test_exhaustive_over_budget_raises_before_searching(self, rng):
        # 32 columns at 2:4: 5.9e19 partitions, far over the default 10 000
        w = random_dense(rng, 4, 32, s.FP16)
        with pytest.raises(s.SearchModeError) as exc:
            s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="exhaustive"))
        assert exc.value.code == "search_mode" and "59287247761257140625 partitions" in str(exc.value)

    @pytest.mark.parametrize("value", [-1, 0.5])
    @pytest.mark.parametrize("field", ["restarts", "max_swaps", "seed"])
    def test_budget_field_not_a_count_rejected(self, field, value):
        # a negative seed used to end in numpy's bare ValueError, and a
        # negative restarts or max_swaps was read as 1 or 0
        with pytest.raises(s.SearchModeError, match=field) as exc:
            s.SearchBudget(**{field: value})
        assert exc.value.code == "search_mode"

    def test_exhaustive_bound_is_the_partition_count(self, rng):
        w = random_dense(rng, 4, 12, s.FP16)  # 5 775 partitions
        budget = s.SearchBudget(mode="exhaustive", max_swaps=5775)
        s.find_permutation(w, s.PATTERN_24, budget)
        assert budget.stats["partitions_visited"] == 5775
        with pytest.raises(s.SearchModeError):
            s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="exhaustive", max_swaps=5774))

    def test_greedy_never_worse_than_identity(self, rng):
        for _ in range(50):
            w = random_dense(rng, 8, 8, s.FP32)
            baseline = s.prune_magnitude(w, s.PATTERN_24).retained_magnitude
            _, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="greedy", seed=0))
            assert res.retained_magnitude >= baseline

    # FP32 values over 16 decades: float64 sums of them round, and differ
    # with the order they add in. A search that ranked orders by one sum and
    # reported another fell an ulp below the baseline on these greedy trials
    # and these exhaustive draws.
    @staticmethod
    def wide_fp32(rng, rows, cols):
        vals = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, cols))
        return s.DenseMatrix.from_values(vals, s.FP32)

    def test_greedy_never_below_baseline_on_wide_magnitudes(self):
        rng = np.random.default_rng(11)
        draws = {trial: self.wide_fp32(rng, int(rng.integers(1, 6)), 8) for trial in range(12306)}
        for trial in (1104, 6883, 12305):
            w = draws[trial]
            baseline = s.prune_magnitude(w, s.PATTERN_24)
            perm, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="greedy", seed=trial))
            assert res.retained_magnitude >= baseline.retained_magnitude, trial
            again = s.prune_magnitude(s.permute_columns(w, perm), s.PATTERN_24)
            assert np.array_equal(res.mask.bits, again.mask.bits)
            assert (res.retained_magnitude, res.lost_magnitude) == (again.retained_magnitude, again.lost_magnitude)

    def test_exhaustive_reports_best_partition_on_wide_magnitudes(self):
        rng = np.random.default_rng(3)
        draws = [self.wide_fp32(rng, 4, 12) for _ in range(40)]
        for d in (2, 10, 18, 21, 25, 39):
            w = draws[d]
            _, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="exhaustive"))
            best = max(
                s.prune_magnitude(s.permute_columns(w, s.Permutation(np.array(order))), s.PATTERN_24).retained_magnitude
                for order in s.enumerate_group_partitions(12, 4)
            )
            assert res.retained_magnitude == best, d

    # fp16 magnitudes sum exactly in float64, so scoring two groups and
    # re-scoring the whole matrix must take the same decisions. 37 swaps run
    # out in the middle of the first sweep; 400 mid-way through a later one.
    @pytest.mark.parametrize("max_swaps", [37, 400, 10_000])
    @pytest.mark.parametrize("shape", [(8, 16), (16, 12), (5, 24)])
    def test_greedy_matches_full_rescore_loop(self, rng, shape, max_swaps):
        vals = rng.standard_normal(shape) * rng.lognormal(0.0, 1.0, size=shape[1])
        w = s.DenseMatrix.from_values(vals.astype(np.float32), s.FP16)
        budget = s.SearchBudget(mode="greedy", restarts=3, max_swaps=max_swaps, seed=11)
        perm, _ = s.find_permutation(w, s.PATTERN_24, budget)
        order, swaps_used = greedy_full_rescore_oracle(w, s.PATTERN_24, budget)
        assert np.array_equal(perm.perm, order)
        assert budget.stats["swaps_used"] == swaps_used

    # Budgets of 5 and 40 swaps run out in the first sweep, 300 in a later
    # one or a later restart; 10 000 lets every restart converge.
    @pytest.mark.parametrize("fmt", [s.FP16, s.BF16, s.FP32], ids=str)
    @pytest.mark.parametrize("pattern", PATTERNS, ids=str)
    def test_greedy_matches_two_group_loop(self, rng, pattern, fmt):
        for restarts, max_swaps in [(1, 5), (2, 40), (3, 300), (4, 10_000)]:
            rows, cols = int(rng.integers(1, 20)), pattern.m * int(rng.integers(2, 7))
            vals = rng.standard_normal((rows, cols)) * rng.lognormal(0.0, 1.0, size=cols)
            w = s.DenseMatrix.from_values(vals.astype(np.float32), fmt)
            budget = s.SearchBudget(mode="greedy", restarts=restarts, max_swaps=max_swaps, seed=int(rng.integers(1000)))
            assert_matches_two_group_oracle(w, pattern, budget)

    def test_greedy_matches_two_group_loop_on_ties(self, rng):
        vals = rng.integers(-2, 3, size=(12, 16)).astype(np.float32)
        w = s.DenseMatrix.from_values(vals, s.FP16)
        assert_matches_two_group_oracle(w, s.PATTERN_24, s.SearchBudget(mode="greedy", restarts=3, seed=5))

    @pytest.mark.parametrize("shape", [(300, 56), (520, 40)])
    def test_greedy_matches_two_group_loop_in_partner_batches(self, rng, shape):
        # tall enough that a column's partners are scored in several batches
        vals = rng.standard_normal(shape) * rng.lognormal(0.0, 1.0, size=shape[1])
        w = s.DenseMatrix.from_values(vals.astype(np.float32), s.FP16)
        budget = s.SearchBudget(mode="greedy", restarts=2, max_swaps=2500, seed=int(rng.integers(1000)))
        assert_matches_two_group_oracle(w, s.PATTERN_24, budget)

    def test_greedy_matches_two_group_loop_at_benchmark_size(self, rng):
        # a 64x32 FP16 weight with column-scaled magnitudes, 5000 swaps, 4 restarts
        vals = rng.standard_normal((64, 32), dtype=np.float32)
        vals *= rng.lognormal(0.0, 1.0, size=32).astype(np.float32)
        w = s.DenseMatrix.from_values(vals, s.FP16)
        budget = s.SearchBudget(mode="greedy", restarts=4, max_swaps=5000, seed=int(rng.integers(2**31)))
        assert_matches_two_group_oracle(w, s.PATTERN_24, budget)

    # The run and window sizes only group the pairs that one numpy pass
    # scores; the swaps and their charge must not depend on them. One-pair
    # windows rebuild at every pair, 7 and 64 in the middle of runs and
    # positions; (1, 1, 1) scores one pair per run.
    @pytest.mark.parametrize("sizes", [(4, 1024, 8192, 1), (4, 1024, 8192, 7), (1, 1, 1, 64), (2, 64, 96, 7)])
    def test_greedy_does_not_depend_on_run_or_window_size(self, rng, monkeypatch, sizes):
        for name, value in zip(("_FIRST_BATCH", "_BATCH_ELEMENTS", "_RUN_ELEMENTS", "_WINDOW"), sizes):
            monkeypatch.setattr(pruning, name, value)
        for pattern in (s.PATTERN_24, s.NMPattern(3, 8)):
            vals = rng.standard_normal((12, 48)) * rng.lognormal(0.0, 1.0, size=48)
            w = s.DenseMatrix.from_values(vals.astype(np.float32), s.FP16)
            budget = s.SearchBudget(mode="greedy", restarts=2, max_swaps=2000, seed=int(rng.integers(1000)))
            assert_matches_two_group_oracle(w, pattern, budget)

    def test_greedy_memory_stays_linear_in_matrix_size(self, rng):
        # a table of every position x candidate column would need ~1 GB here
        w = s.DenseMatrix.from_values(rng.standard_normal((256, 512)).astype(np.float32), s.FP16)
        budget = s.SearchBudget(mode="greedy", max_swaps=500)
        assert traced_peak(lambda: s.find_permutation(w, s.PATTERN_24, budget)) < 32 * 2**20

    def test_greedy_memory_bounded_on_a_wide_matrix(self, rng):
        # 8x8192 has ~33.5 million pairs per sweep: a table of all of them
        # peaked at 1.79 GB, where runs cut from a bounded window of pairs
        # peak at ~3.5 MiB
        w = s.DenseMatrix.from_values(rng.standard_normal((8, 8192)).astype(np.float32), s.FP16)
        budget = s.SearchBudget(mode="greedy", max_swaps=500)
        assert traced_peak(lambda: s.find_permutation(w, s.PATTERN_24, budget)) < 32 * 2**20

    def test_greedy_budget_cuts_match_two_group_loop(self, rng):
        # 16x32 at 2:4 has 448 pairs per sweep, its positions 28, 24, ..., 4
        # partners each, and runs of 64 pairs and more at 16 rows. Budgets of
        # 0 to 64 and around 448 and 896 therefore run out inside a run, on
        # a run's edge, on a position's edge and on a sweep's edge.
        vals = rng.standard_normal((16, 32)) * rng.lognormal(0.0, 1.0, size=32)
        w = s.DenseMatrix.from_values(vals.astype(np.float32), s.FP16)
        unlimited = s.SearchBudget(mode="greedy", restarts=1, max_swaps=10**6, seed=3)
        s.find_permutation(w, s.PATTERN_24, unlimited)
        assert unlimited.stats["swaps_used"] > 896  # the third sweep is reached
        for max_swaps in [*range(65), *range(446, 451), *range(894, 899)]:
            budget = s.SearchBudget(mode="greedy", restarts=1, max_swaps=max_swaps, seed=3)
            perm, _ = s.find_permutation(w, s.PATTERN_24, budget)
            order, swaps_used = greedy_two_group_oracle(w, s.PATTERN_24, budget)
            assert np.array_equal(perm.perm, order), max_swaps
            assert budget.stats["swaps_used"] == swaps_used, max_swaps

    def test_heavy_tailed_improvement_frequency(self, rng):
        # column permutation usually recovers magnitude lost to the group
        # constraint when values are heavy-tailed
        improved = 0
        trials = 300
        for _ in range(trials):
            vals = rng.standard_t(df=2, size=(8, 8)).astype(np.float32)
            w = s.DenseMatrix.from_values(vals, s.FP32)
            baseline = s.prune_magnitude(w, s.PATTERN_24).retained_magnitude
            _, res = s.find_permutation(w, s.PATTERN_24, s.SearchBudget(mode="exhaustive"))
            if res.retained_magnitude > baseline + 1e-9:
                improved += 1
        assert improved / trials > 0.5


class TestNonFinite:
    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def weight(self, request, rng):
        data = random_dense(rng, 8, 8, s.FP32).data.copy()
        data[3, 5] = request.param
        return s.DenseMatrix(data, s.FP32)

    def test_prune_magnitude_rejects(self, weight):
        with pytest.raises(s.NonFiniteError) as exc:
            s.prune_magnitude(weight, s.PATTERN_24)
        assert exc.value.code == "non_finite"

    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_find_permutation_rejects(self, weight, mode):
        with pytest.raises(s.NonFiniteError):
            s.find_permutation(weight, s.PATTERN_24, s.SearchBudget(mode=mode))

    def test_find_transposable_mask_rejects(self, weight):
        with pytest.raises(s.NonFiniteError):
            s.find_transposable_mask(weight)


class TestPropagatePermutation:
    def test_identity_perm(self, rng):
        w = random_dense(rng, 8, 4, s.FP32)
        out = s.propagate_permutation(w, s.Permutation.identity(8))
        assert np.array_equal(out.data, w.data)

    def test_inverse_composition(self, rng):
        w = random_dense(rng, 8, 4, s.FP32)
        perm = s.Permutation(rng.permutation(8))
        back = s.propagate_permutation(s.propagate_permutation(w, perm), perm.inverse())
        assert np.array_equal(back.data, w.data)

    def test_two_layer_function_unchanged_float(self, rng):
        w1 = random_dense(rng, 8, 8, s.FP32)
        w2 = random_dense(rng, 4, 8, s.FP32)
        x = random_dense(rng, 8, 5, s.FP32)
        perm = s.Permutation(rng.permutation(8))
        ref = s.gemm_dense(w2, s.gemm_dense(w1, x))
        w2p = s.permute_columns(w2, perm)
        w1p = s.propagate_permutation(w1, perm)
        got = s.gemm_dense(w2p, s.gemm_dense(w1p, x))
        tol = s.float_tolerance(ref, 8)
        assert np.max(np.abs(got.data - ref.data)) <= tol

    def test_two_layer_function_unchanged_int(self, rng):
        w1 = random_dense(rng, 8, 8, s.INT8)
        w2 = random_dense(rng, 4, 8, s.INT8)
        x = random_dense(rng, 8, 5, s.INT8)
        perm = s.Permutation(rng.permutation(8))
        h = s.gemm_dense(w1, x)
        h8 = s.DenseMatrix(np.clip(h.data, -128, 127).astype(np.int32), s.INT8)
        ref = s.gemm_dense(w2, h8)
        w2p = s.permute_columns(w2, perm)
        w1p = s.propagate_permutation(w1, perm)
        hp = s.gemm_dense(w1p, x)
        hp8 = s.DenseMatrix(np.clip(hp.data, -128, 127).astype(np.int32)[:, :], s.INT8)
        got = s.gemm_dense(w2p, hp8)
        assert np.array_equal(got.data, ref.data)

    def test_permutation_of_the_wrong_size_rejected(self, rng):
        w = random_dense(rng, 4, 8, s.FP32)
        with pytest.raises(s.ShapeError):
            s.permute_columns(w, s.Permutation.identity(4))
        with pytest.raises(s.ShapeError):
            s.propagate_permutation(w, s.Permutation.identity(8))

    def test_ragged_list_rejected(self):
        # unchecked, numpy raised a bare ValueError ("inhomogeneous shape")
        with pytest.raises(s.PermutationError) as exc:
            s.Permutation([[1], [0, 2]])
        assert exc.value.code == "permutation"

    def test_not_a_bijection_rejected(self):
        with pytest.raises(s.PermutationError):
            s.Permutation(np.array([0, 0, 1]))
        with pytest.raises(s.PermutationError):
            s.Permutation([0, 0, 1])

    @pytest.mark.parametrize(
        "perm",
        [
            np.array([1.0, 0.0, 3.0, 2.0], dtype=np.float32),
            np.array([True, False]),
            np.array(0),
            [1.0, 0.0],
            [[0, 1]],
        ],
        ids=["float32", "bool", "0d", "float_list", "2d_list"],
    )
    def test_non_integer_or_not_1d_rejected(self, perm):
        # float32 is the layout of the `.permutation` entry `sparse24 prune --mask permute-*` writes
        with pytest.raises(s.PermutationError):
            s.Permutation(perm)

    def test_callers_array_stays_writable(self):
        a = np.array([1, 0, 2, 3])
        perm = s.Permutation(a)
        a[0] = 5
        assert perm.perm.tolist() == [1, 0, 2, 3]

    def test_list_stored_as_read_only_integer_array(self):
        perm = s.Permutation([1, 0, 2, 3])
        assert isinstance(perm.perm, np.ndarray) and perm.perm.dtype.kind == "i"
        assert perm.perm.tolist() == [1, 0, 2, 3]
        with pytest.raises(ValueError):
            perm.perm[0] = 0


def tile_enumeration_oracle():
    """All 4x4 binary matrices with row and column sums 2, by filtering the
    full 2^16 space (independent of the library's candidate table)."""
    masks = []
    for bits in range(1 << 16):
        m = np.array([(bits >> i) & 1 for i in range(16)]).reshape(4, 4)
        if np.all(m.sum(axis=0) == 2) and np.all(m.sum(axis=1) == 2):
            masks.append(m.astype(bool))
    return masks


ORACLE_TILE_MASKS = tile_enumeration_oracle()


def transposable_per_tile_oracle(w):
    """One 90-candidate einsum per 4x4 tile; the first best candidate wins."""
    from sparse24.pruning import TILE_MASKS_2OF4

    absw = np.abs(w.data.astype(np.float64))
    bits = np.zeros(absw.shape, dtype=bool)
    for r0 in range(0, w.rows, 4):
        for c0 in range(0, w.cols, 4):
            scores = np.einsum("kij,ij->k", TILE_MASKS_2OF4, absw[r0 : r0 + 4, c0 : c0 + 4])
            bits[r0 : r0 + 4, c0 : c0 + 4] = TILE_MASKS_2OF4[int(np.argmax(scores))]
    return bits


class TestTransposableMask:
    def test_90_candidates(self):
        assert len(ORACLE_TILE_MASKS) == 90
        from sparse24.pruning import TILE_MASKS_2OF4

        assert len(TILE_MASKS_2OF4) == 90
        lib = {m.tobytes() for m in TILE_MASKS_2OF4}
        oracle = {m.tobytes() for m in ORACLE_TILE_MASKS}
        assert lib == oracle

    def test_exhaustive_matches_oracle(self, rng):
        for _ in range(25):
            w = random_dense(rng, 4, 4, s.FP32)
            res = s.find_transposable_mask(w)
            best = max(float(np.abs(w.data)[m].sum()) for m in ORACLE_TILE_MASKS)
            assert res.retained_magnitude == pytest.approx(best, rel=1e-6)

    def test_exhaustive_keeps_dominant_blocks(self):
        w = np.zeros((4, 4), dtype=np.float32)
        w[0, 0] = w[0, 1] = w[1, 0] = w[1, 1] = 10.0
        w[2, 2] = w[2, 3] = w[3, 2] = w[3, 3] = 9.0
        res = s.find_transposable_mask(s.DenseMatrix(w, s.FP32))
        assert res.retained_magnitude == pytest.approx(76.0)
        assert np.all(res.mask.bits[:2, :2]) and np.all(res.mask.bits[2:, 2:])

    def test_both_axes_valid(self, rng):
        w = random_dense(rng, 8, 12, s.FP32)
        res = s.find_transposable_mask(w)
        res.mask.check(s.PATTERN_24)
        s.Mask(np.ascontiguousarray(res.mask.bits.T)).check(s.PATTERN_24)

    # (136, 100) and (8, 2400) hold more tiles than one matrix product
    # scores: blocks of several tile rows, and one tile row per block
    @pytest.mark.parametrize("shape", [(4, 12), (12, 4), (8, 20), (20, 8), (136, 100), (8, 2400)])
    @pytest.mark.parametrize("fmt", [s.FP16, s.BF16, s.FP32])
    def test_matches_per_tile_loop(self, rng, shape, fmt):
        w = random_dense(rng, *shape, fmt)
        res = s.find_transposable_mask(w)
        assert np.array_equal(res.mask.bits, transposable_per_tile_oracle(w))

    def test_ties_keep_lowest_candidate(self, rng):
        # magnitudes in {0, 1, 2} leave many tiles with several best candidates
        w = s.DenseMatrix.from_values(rng.integers(0, 3, size=(8, 12)).astype(np.float32), s.FP16)
        res = s.find_transposable_mask(w)
        assert np.array_equal(res.mask.bits, transposable_per_tile_oracle(w))

    def test_transpose_symmetry(self, rng):
        w = random_dense(rng, 4, 4, s.FP32)
        res = s.find_transposable_mask(w)
        wt = s.DenseMatrix(np.ascontiguousarray(w.data.T), s.FP32)
        res_t = s.find_transposable_mask(wt)
        assert res_t.retained_magnitude == pytest.approx(res.retained_magnitude, rel=1e-6)

    def test_peak_memory_scoring_by_blocks(self, rng):
        # One einsum over every tile peaked at 4 034 KiB here (a float64 copy
        # and a (64, 64, 90) float64 score array); scoring a block of tile
        # rows at a time peaks at 1 354 KiB.
        w = random_dense(rng, 256, 256, s.FP16)
        assert traced_peak(lambda: s.find_transposable_mask(w)) < 4034 * 1024

    def test_dims_must_be_multiples_of_4(self, rng):
        with pytest.raises(s.ShapeError):
            s.find_transposable_mask(random_dense(rng, 4, 6, s.FP32))
