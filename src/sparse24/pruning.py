"""Mask finding: per-group magnitude pruning, column-permutation search with
compensating row permutations, and masks valid along both rows and columns.

Tie-breaking everywhere keeps the lower index so masks are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .codec import Mask, apply_mask  # noqa: F401  (re-exported; masks pair with pruning)
from .formats import DenseMatrix, NMPattern, ShapeError


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
        if sorted(p.tolist()) != list(range(len(p))):
            raise ValueError("not a bijection on [0, C)")
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
    """
    pattern.check_divides(w.cols)
    groups = np.abs(w.data.astype(np.float64)).reshape(w.rows, -1, pattern.m)
    # stable argsort on -|w| keeps lower indices first among ties
    order = np.argsort(-groups, axis=2, kind="stable")[:, :, : pattern.n]
    bits = np.zeros(groups.shape, dtype=bool)
    np.put_along_axis(bits, order, True, axis=2)
    mask = Mask(bits.reshape(w.rows, w.cols))
    total = float(groups.sum())
    retained = float(groups[bits].sum())
    return PruneResult(mask=mask, retained_magnitude=retained, lost_magnitude=total - retained)


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
    groups = absw.reshape(absw.shape[0], -1, pattern.m)
    return -np.partition(-groups, pattern.n - 1, axis=2)[:, :, : pattern.n]


def _retained(w: DenseMatrix, order: np.ndarray, pattern: NMPattern) -> float:
    return float(_top_n(np.abs(w.data.astype(np.float64))[:, order], pattern).sum())


def find_permutation(
    w: DenseMatrix, pattern: NMPattern, budget: SearchBudget | None = None
) -> tuple[Permutation, PruneResult]:
    """Search for a column permutation maximizing retained magnitude after
    pruning. Identity is always in the candidate set, so the result is never
    worse than the unpermuted baseline."""
    if budget is None:
        budget = SearchBudget()
    pattern.check_divides(w.cols)
    identity = np.arange(w.cols)
    best_order = identity
    best_val = _retained(w, identity, pattern)

    if budget.mode == "exhaustive":
        visited = 0
        for order in enumerate_group_partitions(w.cols, pattern.m):
            visited += 1
            val = _retained(w, np.array(order), pattern)
            if val > best_val:
                best_val = val
                best_order = np.array(order)
        budget.stats["partitions_visited"] = visited
    elif budget.mode == "greedy":
        # A swap of columns i and j changes only their two groups, so a
        # candidate is scored on those groups against their current scores.
        m = pattern.m
        absw = np.abs(w.data.astype(np.float64))
        rng = np.random.default_rng(budget.seed)
        swaps_left = budget.max_swaps
        for restart in range(max(1, budget.restarts)):
            order = identity.copy() if restart == 0 else rng.permutation(w.cols)
            group_scores = _top_n(absw[:, order], pattern).sum(axis=(0, 2))
            improved = True
            while improved and swaps_left > 0:
                improved = False
                for i, j in itertools.combinations(range(w.cols), 2):
                    if swaps_left <= 0:
                        break
                    gi, gj = i // m, j // m
                    if gi == gj:
                        continue  # within-group order never changes the objective
                    cols = np.concatenate((order[gi * m : gi * m + m], order[gj * m : gj * m + m]))
                    cols[i - gi * m], cols[m + j - gj * m] = order[j], order[i]
                    swaps_left -= 1
                    pair = _top_n(absw[:, cols], pattern).sum(axis=(0, 2))
                    if pair.sum() > group_scores[gi] + group_scores[gj]:
                        order[i], order[j] = order[j], order[i]
                        group_scores[[gi, gj]] = pair
                        improved = True
            val = _retained(w, order, pattern)
            if val > best_val:
                best_val, best_order = val, order
        budget.stats["swaps_used"] = budget.max_swaps - swaps_left
    else:
        raise ValueError(f"unknown search mode {budget.mode!r}")

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
    scores keep the lower candidate.
    """
    if w.rows % 4 or w.cols % 4:
        raise ShapeError(f"dims {w.rows}x{w.cols} must be multiples of 4")
    absw = np.abs(w.data.astype(np.float64))
    tiles = absw.reshape(w.rows // 4, 4, w.cols // 4, 4)
    scores = np.einsum("kij,aibj->abk", TILE_MASKS_2OF4, tiles, optimize=True)
    best = TILE_MASKS_2OF4[np.argmax(scores, axis=2)]  # (row tile, col tile, 4, 4)
    bits = best.transpose(0, 2, 1, 3).reshape(w.rows, w.cols)
    mask = Mask(bits)
    total = float(absw.sum())
    retained = float(absw[bits].sum())
    return PruneResult(mask=mask, retained_magnitude=retained, lost_magnitude=total - retained)
