"""Mask finding: per-group magnitude pruning, column-permutation search with
compensating row permutations, and masks valid along both rows and columns.

Tie-breaking everywhere keeps the lower index so masks are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .codec import Mask
from .formats import DenseMatrix, NMPattern, ShapeError, require_finite


class PermutationError(ValueError):
    """A column order that is not a bijection on [0, C)."""

    code = "permutation"


class SearchModeError(ValueError):
    """A permutation search mode other than exhaustive or greedy."""

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
        p = np.asarray(self.perm)
        if p.ndim != 1 or p.dtype.kind not in "iu":
            raise PermutationError(f"need a 1-D integer array, got {p.ndim}-D {p.dtype}")
        if sorted(p.tolist()) != list(range(len(p))):
            raise PermutationError("not a bijection on [0, C)")
        p.setflags(write=False)

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

    mode="exhaustive" enumerates all distinct group partitions (feasible for
    small C); mode="greedy" runs pairwise-column-swap hill climbing with
    restarts. ``stats`` is filled in by the search (e.g. partitions_visited).
    """

    mode: str = "greedy"
    restarts: int = 4
    max_swaps: int = 10_000
    seed: int = 0
    stats: dict = field(default_factory=dict)


def prune_magnitude(w: DenseMatrix, pattern: NMPattern) -> PruneResult:
    """Keep the n largest-|w| entries of every aligned group of m.

    Exact per-group optimum; equal magnitudes keep the lower index.
    Raises :class:`NonFiniteError` on NaN or ±inf weights.
    """
    absw = np.abs(pattern.groups(w.data).astype(np.float64))
    require_finite(absw, "weights")
    return _prune_result(absw, pattern.keep(absw).reshape(w.rows, w.cols))


def _prune_result(absw: np.ndarray, bits: np.ndarray) -> PruneResult:
    """The mask ``bits`` with the magnitudes of ``absw`` that it keeps and drops."""
    total = float(absw.sum())
    # the kept magnitudes in row-major order: what absw[bits] sums, but faster
    retained = float(np.compress(bits.ravel(), absw.ravel()).sum())
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
    into unordered groups of size m. Count = C! / ((m!)^(C/m) * (C/m)!)."""
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


def _top_n(absw: np.ndarray, pattern: NMPattern) -> np.ndarray:
    """The n largest magnitudes of every aligned group of m, shape (rows, groups, n)."""
    return -np.partition(-pattern.groups(absw), pattern.n - 1, axis=2)[:, :, : pattern.n]


def _retained(absw: np.ndarray, order: np.ndarray, pattern: NMPattern) -> float:
    return float(_top_n(absw[:, order], pattern).sum())


# Partners of a column are scored in batches. The first holds at least
# _FIRST_BATCH partners and _BATCH_ELEMENTS entries, each batch without an
# improving swap doubles the next, and an accepted swap starts over from the
# first size. Small batches waste little work when improvements are
# frequent; doubling keeps the numpy passes per column logarithmic when they
# are rare.
_FIRST_BATCH = 16
_BATCH_ELEMENTS = 4096


def _greedy_sweeps(absw: np.ndarray, order: np.ndarray, pattern: NMPattern, swaps_left: int) -> int:
    """First-improvement pairwise column swaps on ``order`` (in place) until a
    sweep over all pairs improves nothing or no swaps are left; returns the
    swaps left. Pairs are visited in ``itertools.combinations`` order, pairs
    within one group are skipped for free, and every other scored pair costs
    one swap."""
    n, m = pattern.n, pattern.m
    cols, rows = len(order), absw.shape[0]
    cur = np.ascontiguousarray(absw[:, order].T)  # cur[p]: |w| of the column at position p
    group_scores = _top_n(absw[:, order], pattern).sum(axis=(0, 2))
    group_of = np.arange(cols) // m
    # For position p, over the m - 1 other entries of its group in each row:
    # base[p] sums their n largest and thr[p] is their n-th largest, so a
    # column x placed at p makes the group score sum(base[p] + max(x - thr[p], 0)).
    base, thr = np.empty_like(cur), np.empty_like(cur)
    base_sum = np.empty(cols)

    def refresh(groups):
        blocks = cur.reshape(cols // m, m, rows)[groups]
        s = np.sort(blocks, axis=1)  # ascending: the n-th largest is s[:, m - n]
        nth, after = s[:, m - n : m - n + 1], s[:, m - n - 1 : m - n]
        top_sum = s[:, m - n :].sum(axis=1, keepdims=True)
        # taking an entry out of the top n lets the (n+1)-th largest in
        inside = blocks >= nth
        b = np.where(inside, top_sum - blocks + after, top_sum)
        base.reshape(cols // m, m, rows)[groups] = b
        thr.reshape(cols // m, m, rows)[groups] = np.where(inside, after, nth)
        base_sum.reshape(cols // m, m)[groups] = b.sum(axis=2)

    refresh(slice(None))
    first_batch = max(_FIRST_BATCH, _BATCH_ELEMENTS // max(rows, 1))
    improved = True
    while improved and swaps_left > 0:
        improved = False
        for i in range(cols - m):  # the last group has no later partner
            gi = i // m
            j, batch = (gi + 1) * m, first_batch
            while j < cols and swaps_left > 0:
                stop = min(cols, j + batch, j + swaps_left)
                # new_i: group gi with the column at j moved to i; new_j: group
                # gj with the column at i moved to j
                new_i = base_sum[i] + np.maximum(cur[j:stop] - thr[i], 0.0).sum(axis=1)
                new_j = base_sum[j:stop] + np.maximum(cur[i] - thr[j:stop], 0.0).sum(axis=1)
                gain = new_i + new_j > group_scores[gi] + group_scores[group_of[j:stop]]
                k = int(np.argmax(gain))
                if not gain[k]:
                    swaps_left -= stop - j
                    j, batch = stop, 2 * batch
                    continue
                swaps_left -= k + 1
                jj = j + k
                gj = group_of[jj]
                order[[i, jj]] = order[[jj, i]]
                cur[[i, jj]] = cur[[jj, i]]
                group_scores[gi], group_scores[gj] = new_i[k], new_j[k]
                refresh([gi, gj])
                improved = True
                j, batch = jj + 1, first_batch
    return swaps_left


def find_permutation(
    w: DenseMatrix, pattern: NMPattern, budget: SearchBudget | None = None
) -> tuple[Permutation, PruneResult]:
    """Search for a column permutation maximizing retained magnitude after
    pruning. Identity is always in the candidate set, so the result is never
    worse than the unpermuted baseline.

    Greedy mode climbs by first-improvement swaps of two columns in different
    groups, visiting pairs in lexicographic order and charging each scored
    pair to ``max_swaps``; restarts 2 and later begin from seeded random
    orders. A swap changes only its two groups, and each is scored from
    per-position gain arrays: over the other m - 1 entries of a position's
    group, the sum of their n largest |w| (base) and their n-th largest
    (thr), so placing column c at position p gives the group the score
    sum over rows of base + max(|w[:, c]| - thr, 0).

    Decisions are exact for FP16 weights: every FP16 magnitude is an integer
    multiple of 2**-24 below 2**16, so any float64 sum of at most 8192 of
    them is exact, and swaps compare sums of 2 * rows * n magnitudes
    (rows <= 2048 at 2:4). Raises :class:`NonFiniteError` on NaN or ±inf
    weights.
    """
    if budget is None:
        budget = SearchBudget()
    pattern.check_divides(w.cols)
    require_finite(w.data, "weights")
    absw = np.abs(w.data.astype(np.float64))
    identity = np.arange(w.cols)
    best_order = identity
    best_val = _retained(absw, identity, pattern)

    if budget.mode == "exhaustive":
        visited = 0
        for order in enumerate_group_partitions(w.cols, pattern.m):
            visited += 1
            val = _retained(absw, np.array(order), pattern)
            if val > best_val:
                best_val = val
                best_order = np.array(order)
        budget.stats["partitions_visited"] = visited
    elif budget.mode == "greedy":
        rng = np.random.default_rng(budget.seed)
        swaps_left = budget.max_swaps
        for restart in range(max(1, budget.restarts)):
            order = identity.copy() if restart == 0 else rng.permutation(w.cols)
            if swaps_left > 0:
                swaps_left = _greedy_sweeps(absw, order, pattern, swaps_left)
            val = _retained(absw, order, pattern)
            if val > best_val:
                best_val, best_order = val, order
        budget.stats["swaps_used"] = budget.max_swaps - swaps_left
    else:
        raise SearchModeError(f"unknown search mode {budget.mode!r}")

    perm = Permutation(best_order)
    result = prune_magnitude(permute_columns(w, perm), pattern)
    return perm, result


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


def find_transposable_mask(w: DenseMatrix) -> PruneResult:
    """Find a mask satisfying 2:4 along rows and columns of every 4x4 tile.

    Per tile, the magnitude-maximal mask among all 90 candidates; equal
    scores keep the lower candidate. Raises :class:`NonFiniteError` on NaN
    or ±inf weights.
    """
    if w.rows % 4 or w.cols % 4:
        raise ShapeError(f"dims {w.rows}x{w.cols} must be multiples of 4")
    require_finite(w.data, "weights")
    absw = np.abs(w.data.astype(np.float64))
    tiles = absw.reshape(w.rows // 4, 4, w.cols // 4, 4)
    scores = np.einsum("kij,aibj->abk", TILE_MASKS_2OF4, tiles, optimize=True)
    best = TILE_MASKS_2OF4[np.argmax(scores, axis=2)]  # (row tile, col tile, 4, 4)
    return _prune_result(absw, best.transpose(0, 2, 1, 3).reshape(w.rows, w.cols))
