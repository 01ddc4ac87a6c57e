"""Allocation budgets: the traced peak of one warm call, beyond its inputs.

numpy reports its data buffers to ``tracemalloc``, so a call's peak depends
on its inputs, the block constants and the numpy version, never on the
box's load.  Each case builds its inputs, makes one untraced warm-up call
(field tables, code caches), then traces one more call.  Every bound gives
its measured peak and margin (numpy 2.4, Python 3.11).
"""

import tracemalloc

import numpy as np
import pytest

from fqangle import (
    Vector,
    angle_fast,
    angle_fast_rows,
    angle_naive_rows,
    angular_decode,
    argmin_scalar,
    decode_rows,
    field_from_order,
    make_field,
    make_rs_code,
)
from fqangle.experiments import random_nonzero_rows

MiB = 1 << 20


def _warm_peak(call) -> int:
    """Peak traced bytes of call() after one untraced warm-up call; the
    inputs exist before tracing starts, so they are not counted."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rows(field, T, n, seed):
    rng = np.random.default_rng(seed)
    return random_nonzero_rows(rng, field, T, n), random_nonzero_rows(rng, field, T, n)


# T = 10^4, n = 1000, int64 inputs of 76 MiB each.  The census blocks hold
# at most 2^16 positions, whatever q is: 0.76 MiB measured at every q
# (104.9 / 38.3 / 2.8 MiB with blocks sized by count cells alone); bound
# 1 MiB, a 0.24 MiB margin.
@pytest.mark.parametrize("p,m", [(3, 1), (2, 4), (251, 1)])
def test_census_blocks_bound_fast_rows(p, m):
    field = make_field(p, m)
    U, V = _rows(field, 10_000, 1000, field.q)
    assert _warm_peak(lambda: angle_fast_rows(field, U, V)) < 1 * MiB


# One prebuilt pair of 2^20 coordinates, counted in slices of 2^16
# positions: by compares at q = 2, by bincount above, the same as a
# one-row angle_fast_rows call.  0.69 MiB measured at q = 2, 16 and 251,
# 0.75 at 256 (11.0-12.0 MiB over the whole row), for the pair and the
# one-row call alike; bound 1 MiB.  GF(65521): 1.63 MiB (16.0 over the
# whole row), bound 2 MiB, its 65,523 count cells being 512 KiB per slice.
# build_census gets no gate: over GF(65521) it returns a 65,519-entry dict
# of 7.7 MiB.
@pytest.mark.parametrize("q,bound", [(2, MiB), (16, MiB), (251, MiB), (256, MiB), (65521, 2 * MiB)])
def test_slices_bound_one_long_pair(q, bound):
    field = field_from_order(q)
    rng = np.random.default_rng(q)
    u, v = (Vector(field, rng.integers(0, q, 1 << 20)) for _ in range(2))
    assert _warm_peak(lambda: angle_fast(u, v)) < bound
    assert _warm_peak(lambda: argmin_scalar(u, v)) < bound
    assert _warm_peak(lambda: angle_fast_rows(field, u.coords[None], v.coords[None])) < bound


def test_sort_census_of_a_wide_field_batch():
    # GF(3^10), (1000, 100): the sort path, the whole input in one call.
    # 1.43 MiB measured (3.05 MiB with a flat run index); bound 2 MiB.
    field = make_field(3, 10)
    U, V = _rows(field, 1000, 100, 0)
    assert _warm_peak(lambda: angle_fast_rows(field, U, V)) < 2 * MiB


# One oracle row block, reused over every pass: GF(7) adds V with a
# wrap-subtract, GF(16) walks a Gray code, GF(9) gathers from an exp
# window.  0.40 / 0.59 / 0.78 MiB measured; bound 1 MiB, a 0.22 MiB margin.
@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 2)])
def test_oracle_blocks_bound_naive_rows(p, m):
    field = make_field(p, m)
    U, V = _rows(field, 10_000, 1000, field.q)
    assert _warm_peak(lambda: angle_naive_rows(field, U, V)) < 1 * MiB


def test_decode_of_a_uniform_word():
    # RS[15,5]/GF(16): 0.29 MiB measured; bound 0.5 MiB
    field = make_field(2, 4)
    code = make_rs_code(field, 15, 5)
    u = Vector(field, np.random.default_rng(0).integers(0, field.q, code.n))
    assert _warm_peak(lambda: angular_decode(u, code)) < MiB // 2


# Batches of words in chunks of 2^18 int64 angle cells (2 MiB): 10^4 words
# of RS[7,3]/GF(7) (57 directions, chunks of 4599 words) and 6 words of
# RS[15,5]/GF(16) (69,905 directions, chunks of 3 words).  Each chunk's
# table is reduced in place and freed before the next is built: 3.36 /
# 3.10 MiB measured (5.36 / 4.70 with argmin and partition copies and two
# chunks' tables alive at once); bounds 3.75 / 3.5 MiB, margins 0.39 /
# 0.40 MiB.
@pytest.mark.parametrize("p,m,n,k,T,bound", [(7, 1, 7, 3, 10_000, 15 * MiB // 4), (2, 4, 15, 5, 6, 7 * MiB // 2)],
                         ids=["RS[7,3]/GF(7)", "RS[15,5]/GF(16)"])
def test_decode_chunks_bound_decode_rows(p, m, n, k, T, bound):
    field = make_field(p, m)
    code = make_rs_code(field, n, k)
    U = random_nonzero_rows(np.random.default_rng(0), field, T, n)
    assert _warm_peak(lambda: decode_rows(code, U)) < bound
