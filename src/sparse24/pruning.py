"""Mask finding: per-group magnitude pruning, column-permutation search with
compensating row permutations, and masks valid along both rows and columns.

Tie-breaking everywhere keeps the lower index so masks are reproducible.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .codec import Mask
from .formats import DenseMatrix, NMPattern, ShapeError, require_finite


class PermutationError(ValueError):
    """A column order that is not a bijection on [0, C)."""

    code = "permutation"


class SearchModeError(ValueError):
    """A permutation search mode other than exhaustive or greedy, an
    exhaustive search over more partitions than ``max_swaps``, or a
    :class:`SearchBudget` whose ``restarts``, ``max_swaps`` or ``seed`` is
    not a non-negative integer."""

    code = "search_mode"


@dataclass(frozen=True)
class PruneResult:
    mask: Mask
    retained_magnitude: float
    lost_magnitude: float


@dataclass(frozen=True)
class Permutation:
    """Bijection on column indices: new column j holds old column perm[j]."""

    perm: np.ndarray

    def __post_init__(self):
        try:
            p = np.array(self.perm)  # a copy, frozen below: the caller's array stays writable
        except ValueError as exc:  # numpy's "inhomogeneous shape"
            raise PermutationError(f"need a 1-D integer array: {exc}") from exc
        if p.ndim != 1 or p.dtype.kind not in "iu":
            raise PermutationError(f"need a 1-D integer array, got {p.ndim}-D {p.dtype}")
        if sorted(p.tolist()) != list(range(len(p))):
            raise PermutationError("not a bijection on [0, C)")
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)

    @property
    def size(self) -> int:
        return len(self.perm)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.size)
        return Permutation(inv)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(np.arange(size))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.perm, np.arange(self.size)))


@dataclass
class SearchBudget:
    """Controls for the permutation search.

    mode="exhaustive" enumerates all distinct group partitions, if at most
    ``max_swaps``; mode="greedy" runs pairwise-column-swap hill climbing
    with restarts. ``stats`` is filled in by the search (e.g. swaps_used).
    ``restarts``, ``max_swaps`` and ``seed`` must be non-negative integers,
    else :class:`SearchModeError`.
    """

    mode: str = "greedy"
    restarts: int = 4
    max_swaps: int = 10_000
    seed: int = 0
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("restarts", "max_swaps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise SearchModeError(f"{name} must be a non-negative integer, got {value!r}")


def prune_magnitude(w: DenseMatrix, pattern: NMPattern) -> PruneResult:
    """Keep the n largest-|w| entries of every aligned group of m.

    Exact per-group optimum; equal magnitudes keep the lower index. The keep
    rule runs on |w| in the data's own dtype (float32, or int32 for INT8):
    float64 holds each such value exactly and keeps their order, so the mask
    is the one float64 magnitudes give, and float64 is formed only for the
    two sums. Raises :class:`NonFiniteError` on NaN or ±inf weights.
    """
    absw = np.abs(pattern.groups(w.data))
    require_finite(absw, "weights")
    return _keep_largest(absw, pattern)


def _keep_largest(absw: np.ndarray, pattern: NMPattern) -> PruneResult:
    """:func:`prune_magnitude` on finite magnitudes in (rows, groups, m) layout."""
    rows, groups, m = absw.shape
    return _prune_result(absw, pattern.keep(absw).reshape(rows, groups * m))


def _prune_result(absw: np.ndarray, bits: np.ndarray) -> PruneResult:
    """The mask ``bits`` with the magnitudes of ``absw`` that it keeps and drops.

    Both sums run over a float64 copy of the values they add: summing
    float32 with ``dtype=float64`` splits numpy's pairwise summation into
    other blocks and can round differently."""
    total = float(absw.astype(np.float64).sum())
    # the kept magnitudes in row-major order: what absw[bits] sums, but faster
    retained = float(np.compress(bits.ravel(), absw.ravel()).astype(np.float64).sum())
    return PruneResult(mask=Mask(bits), retained_magnitude=retained, lost_magnitude=total - retained)


def permute_columns(w: DenseMatrix, perm: Permutation) -> DenseMatrix:
    if perm.size != w.cols:
        raise ShapeError(f"permutation size {perm.size} != {w.cols} columns")
    return DenseMatrix(np.ascontiguousarray(w.data[:, perm.perm]), w.fmt)


def propagate_permutation(producer_w: DenseMatrix, perm: Permutation) -> DenseMatrix:
    """Reorder producer rows so the composed network function is unchanged.

    If the consumer's columns are permuted (new col j = old col perm[j]), the
    activations feeding it must be reordered the same way, which for a linear
    producer means new row j = old row perm[j]. For convolution layers the
    same reordering targets the input-channel dimension.
    """
    if perm.size != producer_w.rows:
        raise ShapeError(f"permutation size {perm.size} != {producer_w.rows} producer rows")
    return DenseMatrix(np.ascontiguousarray(producer_w.data[perm.perm, :]), producer_w.fmt)


def enumerate_group_partitions(cols: int, m: int):
    """Yield one canonical column order per distinct partition of [0, cols)
    into unordered groups of size m. Count = C! / ((m!)^(C/m) * (C/m)!).
    A negative ``cols`` raises :class:`ShapeError`, as does an m that does
    not divide it."""
    if cols < 0:
        raise ShapeError(f"need cols >= 0, got {cols}")
    if cols % m != 0:
        raise ShapeError(f"group size {m} does not divide {cols}")

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        anchor, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, m - 1):
            group = (anchor,) + combo
            left = tuple(c for c in rest if c not in combo)
            for tail in rec(left):
                yield group + tail

    yield from rec(tuple(range(cols)))


# A sweep's pairs are scored in runs of consecutive pairs in visiting order,
# which may span positions. The first run holds _BATCH_ELEMENTS // rows
# pairs, at least _FIRST_BATCH; a run without an improving swap doubles the
# next, up to _RUN_ELEMENTS // rows pairs, and an accepted swap starts over.
# Runs are cut from a window of _WINDOW pairs, rebuilt when the cursor
# passes its end, so no table of all pairs is built. Picked by an
# interleaved timing sweep (fp16 2:4, column-scaled magnitudes, one BLAS
# thread, 2-vCPU x86 host) against per-position batches of 16 pairs or 4096
# entries: (_FIRST_BATCH, _BATCH_ELEMENTS, _RUN_ELEMENTS) = (4, 1024, 8192)
# ran 1.26-1.36x faster on 64x32 (5000 swaps, 4 restarts) and 1.03-1.68x on
# 256x64, 16x128, 512x256, 8x1024 and 2048x64; (16, 4096, 16384) ran
# 0.82-1.14x; windows of 1024 or 16384 pairs timed as 4096.
_FIRST_BATCH = 4
_BATCH_ELEMENTS = 1024
_RUN_ELEMENTS = 8192
_WINDOW = 4096


def _pair_window(starts: np.ndarray, m: int, first: int, size: int) -> np.ndarray:
    """Pairs ``first`` to ``first + size - 1`` of a sweep (fewer at its end) as
    (position, partner) rows; ``starts[p]`` is the index of position p's first
    pair, and its partners are every position of the later groups in order."""
    t = np.arange(first, min(first + size, int(starts[-1])))
    p = np.searchsorted(starts, t, side="right") - 1
    return np.stack((p, (p // m + 1) * m + t - starts[p]), axis=1)


def _greedy_sweeps(absw: np.ndarray, order: np.ndarray, pattern: NMPattern, swaps_left: int) -> int:
    """First-improvement pairwise column swaps on ``order`` (in place) until a
    sweep over all pairs improves nothing or no swaps are left; returns the
    swaps left. A sweep visits the pairs (p, q) of positions in different
    groups in ``itertools.combinations`` order, p ascending and then q, and
    charges each scored pair one swap; pairs within one group are not in it.
    A run of consecutive pairs is scored at once: the first improving pair
    is accepted and charged its offset in the run plus one, and the sweep
    resumes right after it; a run with none is charged in full."""
    n, m = pattern.n, pattern.m
    cols, rows = len(order), absw.shape[0]
    groups = cols // m
    cur = np.ascontiguousarray(absw[:, order].T, dtype=np.float64)  # cur[p]: |w| of the column at position p
    # For position p, over the m - 1 other entries of its group in each row:
    # thr[p] is their n-th largest and base_sum[p] sums their n largest over
    # all rows, so a column x placed at p makes the group score
    # base_sum[p] + sum(max(x - thr[p], 0)). sums[p] holds base_sum[p] and
    # the score of p's group, the sum of its n largest per row.
    thr, sums = np.empty_like(cur), np.empty((cols, 2))
    base_sum, score = sums.T

    def refresh(sel: slice):
        blocks = cur.reshape(groups, m, rows)[sel]
        s = np.sort(blocks, axis=1)  # ascending: the n-th largest is s[:, m - n]
        nth, after = s[:, m - n : m - n + 1], s[:, m - n - 1 : m - n]
        top_sum = np.add.reduce(s[:, m - n :], axis=1, keepdims=True)
        # taking an entry out of the top n lets the (n+1)-th largest in
        inside = blocks >= nth
        base_sum.reshape(groups, m)[sel] = np.add.reduce(np.where(inside, top_sum - blocks + after, top_sum), axis=2)
        score.reshape(groups, m)[sel] = np.add.reduce(top_sum, axis=2)
        thr.reshape(groups, m, rows)[sel] = np.where(inside, after, nth)

    refresh(slice(None))
    starts = np.zeros(cols + 1, dtype=np.intp)
    np.cumsum(cols - (np.arange(cols) // m + 1) * m, out=starts[1:])
    total = int(starts[-1])
    first_run = max(_FIRST_BATCH, _BATCH_ELEMENTS // max(rows, 1))
    max_run = max(first_run, _RUN_ELEMENTS // max(rows, 1))
    window_at, window = 0, np.empty((0, 2), dtype=np.intp)  # built on first use
    improved = True
    while improved and swaps_left > 0:
        improved = False
        t, run = 0, first_run
        while t < total and swaps_left > 0:
            if not window_at <= t < window_at + len(window):
                window_at, window = t, _pair_window(starts, m, t, _WINDOW)
                swapped = window[:, ::-1].copy()  # (partner, position) rows
            stop = min(t + run, t + swaps_left, window_at + len(window))
            run_at = slice(t - window_at, stop - window_at)
            pq = window[run_at]
            # per pair (p, q): x[:, 0] is the column at q against thr[p], and
            # x[:, 1] the column at p against thr[q]
            x = cur.take(swapped[run_at], axis=0)
            x -= thr.take(pq, axis=0)
            np.maximum(x, 0.0, out=x)
            pair_sums = sums[pq]  # (pair, p | q, base_sum | group score)
            new = pair_sums[:, :, 0] + np.add.reduce(x, axis=2)
            gain = new[:, 0] + new[:, 1] > pair_sums[:, 0, 1] + pair_sums[:, 1, 1]
            k = int(gain.argmax())
            if not gain[k]:
                swaps_left -= stop - t
                t, run = stop, min(2 * run, max_run)
                continue
            swaps_left -= k + 1
            i, j = int(pq[k, 0]), int(pq[k, 1])
            order[i], order[j] = order[j], order[i]
            cur[i], cur[j] = cur[j], cur[i].copy()
            gi, gj = i // m, j // m  # gi < gj: q lies in a later group
            refresh(slice(gi, gj + 1, gj - gi))
            improved = True
            t, run = t + k + 1, first_run
    return swaps_left


def find_permutation(
    w: DenseMatrix, pattern: NMPattern, budget: SearchBudget | None = None
) -> tuple[Permutation, PruneResult]:
    """Search for a column permutation maximizing retained magnitude after
    pruning. Each candidate order (identity first, then each greedy
    restart's final order or each exhaustive partition) is pruned by
    :func:`prune_magnitude`'s keep rule and sums, and the first candidate
    with the largest retained magnitude is returned with its
    :class:`PruneResult`. The result therefore never retains less than
    ``prune_magnitude(w, pattern)``, in any format.

    Greedy mode climbs by first-improvement swaps of two columns in different
    groups, visiting pairs in lexicographic order and charging each scored
    pair to ``max_swaps``; restarts 2 and later begin from seeded random
    orders. A swap changes only its two groups, and each is scored from
    per-position gain arrays: over the other m - 1 entries of a position's
    group, the sum of their n largest |w| (base) and their n-th largest
    (thr), so placing column c at position p gives the group the score
    sum over rows of base + max(|w[:, c]| - thr, 0). Consecutive pairs are
    scored together in runs that may span positions, and a run's first
    improving pair is the one taken, so the swaps made, their order and the
    swaps charged are those of a walk that scores one pair at a time.

    Exhaustive mode first raises :class:`SearchModeError` if there are more
    partitions (:func:`enumerate_group_partitions`) than ``max_swaps``.
    Swaps compare sums of 2 * rows * n magnitudes, so their decisions are
    exact for FP16 weights with rows <= 2048 at 2:4. Raises
    :class:`NonFiniteError` on NaN or ±inf weights.
    """
    if budget is None:
        budget = SearchBudget()
    best_order, best = np.arange(w.cols), prune_magnitude(w, pattern)
    absw = np.abs(w.data)

    def consider(order: np.ndarray) -> None:
        nonlocal best_order, best
        # take copies in row-major order (absw[:, order] would not), so the
        # sums add as they do in prune_magnitude(permute_columns(w, order))
        result = _keep_largest(pattern.groups(np.take(absw, order, axis=1)), pattern)
        if result.retained_magnitude > best.retained_magnitude:
            best_order, best = order, result

    if budget.mode == "exhaustive":
        groups = w.cols // pattern.m
        partitions = math.factorial(w.cols) // (math.factorial(pattern.m) ** groups * math.factorial(groups))
        if partitions > budget.max_swaps:
            raise SearchModeError(f"{partitions} partitions of {w.cols} columns exceed max_swaps={budget.max_swaps}")
        for order in enumerate_group_partitions(w.cols, pattern.m):
            consider(np.array(order, dtype=np.intp))  # intp even when empty: zero columns
        budget.stats["partitions_visited"] = partitions
    elif budget.mode == "greedy":
        rng = np.random.default_rng(budget.seed)
        swaps_left = budget.max_swaps
        for restart in range(max(1, budget.restarts)):
            order = np.arange(w.cols) if restart == 0 else rng.permutation(w.cols)
            if swaps_left > 0:
                swaps_left = _greedy_sweeps(absw, order, pattern, swaps_left)
            consider(order)
        budget.stats["swaps_used"] = budget.max_swaps - swaps_left
    else:
        raise SearchModeError(f"unknown search mode {budget.mode!r}")
    return Permutation(best_order), best


# --- masks valid along rows and columns (4x4 tiles, 2:4 both ways) ---


def _valid_tile_masks() -> np.ndarray:
    """All 4x4 boolean masks with every row and column summing to 2 (90 total)."""
    rows = [np.array(r) for r in itertools.product((0, 1), repeat=4) if sum(r) == 2]
    masks = []
    for combo in itertools.product(rows, repeat=4):
        m = np.stack(combo)
        if np.all(m.sum(axis=0) == 2):
            masks.append(m.astype(bool))
    return np.stack(masks)


TILE_MASKS_2OF4 = _valid_tile_masks()
# candidate k as column k of a (16, 90) float64 matrix, tile entries row-major
_TILE_MASK_COLUMNS = TILE_MASKS_2OF4.reshape(len(TILE_MASKS_2OF4), 16).T.astype(np.float64)
# Tiles scored per matrix product (whole rows of tiles, at least one). In an
# interleaved sweep over 256-4096 (256x256 and 64x1024 fp16, 512x512 fp32,
# one BLAS thread) 512 and 1024 ran 1.2-1.3x faster than the single einsum
# they replaced and 4096 only 1.05-1.1x; 512 keeps the scores at 360 KiB.
_TILE_BLOCK = 512


def find_transposable_mask(w: DenseMatrix) -> PruneResult:
    """Find a mask satisfying 2:4 along rows and columns of every 4x4 tile.

    Per tile, the magnitude-maximal mask among all 90 candidates; equal
    scores keep the lower candidate. The tiles are scored a block of tile
    rows at a time, as one (tiles, 16) @ (16, 90) float64 product each.
    Raises :class:`NonFiniteError` on NaN or ±inf weights.
    """
    if w.rows % 4 or w.cols % 4:
        raise ShapeError(f"dims {w.rows}x{w.cols} must be multiples of 4")
    require_finite(w.data, "weights")
    absw = np.abs(w.data)
    tile_rows, tile_cols = w.rows // 4, w.cols // 4
    tiles = absw.reshape(tile_rows, 4, tile_cols, 4).transpose(0, 2, 1, 3)
    best = np.empty((tile_rows, tile_cols), dtype=np.intp)
    step = max(1, _TILE_BLOCK // max(tile_cols, 1))
    for a in range(0, tile_rows, step):
        block = tiles[a : a + step].astype(np.float64, order="C")
        scores = block.reshape(-1, 16) @ _TILE_MASK_COLUMNS
        best[a : a + step] = scores.argmax(axis=1).reshape(block.shape[:2])
    bits = TILE_MASKS_2OF4[best]  # (row tile, col tile, 4, 4)
    return _prune_result(absw, bits.transpose(0, 2, 1, 3).reshape(w.rows, w.cols))
