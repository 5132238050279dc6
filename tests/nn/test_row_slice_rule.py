"""The row-slice rule the shared-trunk kernel rests on (DESIGN.md §7).

``repro.nn.fused._layer_forward`` projects consecutive row spans that
hold one shared ``W_ih`` with one GEMM, and ``train_step`` gathers the
rows of a frozen layer 0 computed once over all rows.  Both are
bit-identical only because the rows of a GEMM with at least two rows
equal the same rows of any taller GEMM over the same weights.  A 1-row
product goes down BLAS's gemv path, which rounds differently; that is
why a 1-row span never joins a GEMM.

Checked here for the serving kernel on the benchmark deployment's
shapes — ``F = 119`` (the one-hot session input of the building-level
spec) and ``F = 48`` (hidden states), with ``4H = 192`` gate columns —
and the tiny scale's hidden 24 (``4H = 96``), from 2 rows up to
``MAX_RUN_ROWS``, the tallest run the kernel merges, in float64 and
float32.  Training's taller products are checked end to end by
``tests/nn/test_fused_train.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.fused import MAX_RUN_ROWS, _shared_runs

#: ``(F, 4H)`` of each projection the rule is checked on.
SHAPES = ((119, 192), (48, 192), (119, 96), (24, 96))
DTYPES = (np.float64, np.float32)


def _operands(seed, features, gates, rows, dtype):
    rng = np.random.default_rng(seed)
    if features == 119:
        x = (rng.random((rows, features)) < 0.05).astype(dtype)
    else:
        x = np.tanh(rng.standard_normal((rows, features))).astype(dtype)
    w = (rng.standard_normal((features, gates)) * 0.2).astype(dtype)
    return x, w


@st.composite
def _slices(draw):
    rows = draw(st.integers(2, MAX_RUN_ROWS))
    lo = draw(st.integers(0, rows - 2))
    hi = draw(st.integers(lo + 2, rows))
    subset = draw(
        st.lists(st.integers(0, rows - 1), min_size=2, max_size=rows, unique=True)
    )
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(SHAPES)),
        draw(st.sampled_from(DTYPES)),
        rows,
        (lo, hi),
        sorted(subset),
    )


@settings(max_examples=200, deadline=None)
@given(_slices())
def test_rows_of_a_multi_row_gemm_equal_the_full_gemm(case):
    seed, (features, gates), dtype, rows, (lo, hi), subset = case
    x, w = _operands(seed, features, gates, rows, dtype)
    full = x @ w
    assert np.array_equal(x[lo:hi] @ w, full[lo:hi])
    # A span's rows in a merged time-major projection are a row subset,
    # not one contiguous block.
    assert np.array_equal(x[subset] @ w, full[subset])


def test_a_one_row_product_is_the_exception():
    """The gemv path: single rows do not reproduce the GEMM's rows."""
    for features, gates in SHAPES[:2]:
        x, w = _operands(0, features, gates, 64, np.float64)
        full = x @ w
        differs = sum(
            not np.array_equal(x[i : i + 1] @ w, full[i : i + 1]) for i in range(64)
        )
        assert differs > 0, features


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=30),
    st.lists(st.integers(0, 1), min_size=30, max_size=30),
    st.integers(1, 6),
)
def test_runs_stay_within_the_checked_rows(sizes, keys, steps):
    """Every merged run is at most MAX_RUN_ROWS rows of ≥2-row spans over
    one key; the runs tile the spans in order."""
    bounds = np.cumsum([0, *sizes]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    runs = _shared_runs(spans, keys[: len(spans)], steps)
    assert [first for first, _ in runs] == [0, *(stop for _, stop in runs[:-1])]
    assert runs[-1][1] == len(spans)
    for first, stop in runs:
        if stop - first > 1:
            assert steps * (spans[stop - 1][1] - spans[first][0]) <= MAX_RUN_ROWS
            assert len(set(keys[first:stop])) == 1
            assert all(steps * (hi - lo) >= 2 for lo, hi in spans[first:stop])
