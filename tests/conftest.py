import numpy as np
import pytest

import sparse24 as s


def random_dense(rng, rows, cols, fmt):
    if fmt.is_integer:
        vals = rng.integers(-128, 128, size=(rows, cols)).astype(np.float32)
    else:
        vals = rng.standard_normal((rows, cols)).astype(np.float32)
    return s.DenseMatrix.from_values(vals, fmt)


def random_conforming(rng, rows, cols, fmt, pattern=s.PATTERN_24):
    """Random matrix satisfying the N:M constraint, built from a random mask."""
    dense = random_dense(rng, rows, cols, fmt)
    groups = cols // pattern.m
    # the n smallest of m random keys pick n-of-m positions uniformly per group
    keys = rng.random((rows, groups, pattern.m))
    bits = keys <= np.partition(keys, pattern.n - 1, axis=-1)[..., pattern.n - 1 : pattern.n]
    mask = s.Mask(bits.reshape(rows, cols))
    return s.apply_mask(dense, mask)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
