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

from fqangle import Vector, angle_fast_rows, angle_naive_rows, angular_decode, make_field, make_rs_code
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
    # RS[15,5]/GF(16): 0.33 MiB measured; bound 0.5 MiB
    field = make_field(2, 4)
    code = make_rs_code(field, 15, 5)
    u = Vector(field, np.random.default_rng(0).integers(0, field.q, code.n))
    assert _warm_peak(lambda: angular_decode(u, code)) < MiB // 2
