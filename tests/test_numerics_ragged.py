"""Unit tests for the ragged per-rank chain reductions.

The bit-identity contract: ``ChainSegments.max`` / ``.sum`` over the
concatenated value array must equal what each rank computes on its own
contiguous slice — exactly, not approximately — for equal-width,
ragged, and empty-block layouts (each of which takes a different
reduction path internally).
"""

import numpy as np
import pytest

from repro.numerics import ChainSegments, validate_chain_blocks

LAYOUTS = {
    "equal_width": [(0, 8), (8, 16), (16, 24)],
    "ragged": [(0, 3), (3, 17), (17, 24)],
    "single_rank": [(0, 24)],
    "one_component_blocks": [(0, 1), (1, 2), (2, 24)],
    "with_empty": [(0, 5), (5, 5), (5, 23), (23, 24), (24, 24)],
}
N = 24


def _values(n=N, seed=7):
    # Scales spread over many decades so any reassociated summation
    # would visibly change the low bits.
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, size=n)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_max_matches_per_rank_slice(name):
    blocks = LAYOUTS[name]
    seg = ChainSegments(blocks, N)
    values = np.abs(_values())
    out = seg.max(values)
    for r, (lo, hi) in enumerate(blocks):
        expected = float(values[lo:hi].max()) if hi > lo else 0.0
        assert out[r] == expected


@pytest.mark.parametrize("width", [1, 4, 6, 100])
def test_max_bit_identical_to_per_rank_slice_with_nan_and_zeros(width):
    # Equal and unequal widths, rows that hold a NaN, signed zeros and
    # infinities: every rank's max is its own slice's ``.max()``, bits
    # included.
    rng = np.random.default_rng(width)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1.0, -1.0]
    for case in range(200):
        n_ranks = int(rng.integers(1, 50))
        widths = (
            np.full(n_ranks, width)
            if case % 2
            else rng.integers(1, 2 * width + 1, n_ranks)
        )
        bounds = np.concatenate([[0], np.cumsum(widths)]).tolist()
        blocks = list(zip(bounds[:-1], bounds[1:]))
        values = rng.choice(specials, bounds[-1])
        nan_rows = rng.random(n_ranks) < 0.2
        for lo, hi in np.array(blocks)[nan_rows]:
            values[rng.integers(lo, hi)] = np.nan
        want = np.array([values[lo:hi].max() for lo, hi in blocks])
        got = ChainSegments(blocks, bounds[-1]).max(values)
        assert got.tobytes() == want.tobytes(), (case, blocks)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_sum_bit_identical_to_per_rank_slice(name):
    blocks = LAYOUTS[name]
    seg = ChainSegments(blocks, N)
    values = _values()
    out = seg.sum(values)
    for r, (lo, hi) in enumerate(blocks):
        expected = values[lo:hi].sum() if hi > lo else 0.0
        assert out[r] == expected  # exact, not approx


def test_sum_bit_identical_on_wide_blocks():
    # Wide enough that numpy's pairwise summation actually recurses, so
    # a left-to-right accumulation (e.g. np.add.reduceat) would differ.
    blocks = [(0, 1000), (1000, 1537), (1537, 4096)]
    seg = ChainSegments(blocks, 4096)
    values = _values(4096, seed=3)
    out = seg.sum(values)
    for r, (lo, hi) in enumerate(blocks):
        assert out[r] == values[lo:hi].sum()
    # ... and the left-to-right order is indeed a different float here,
    # otherwise this test would not be testing anything.
    lo, hi = blocks[2]
    acc = 0.0
    for v in values[lo:hi]:
        acc += v
    assert acc != values[lo:hi].sum()


def test_validate_accepts_empty_blocks():
    validate_chain_blocks([(0, 0), (0, 4), (4, 4)], 4)


@pytest.mark.parametrize(
    "blocks, n",
    [
        ([], 4),  # no blocks at all
        ([(1, 4)], 4),  # does not start at 0
        ([(0, 2), (3, 4)], 4),  # gap
        ([(0, 3), (2, 4)], 4),  # overlap
        ([(0, 3), (3, 2)], 4),  # inverted block
        ([(0, 3)], 4),  # short coverage
        ([(0, 5)], 4),  # over-coverage
    ],
)
def test_validate_rejects_bad_tilings(blocks, n):
    with pytest.raises(ValueError):
        validate_chain_blocks(blocks, n)
