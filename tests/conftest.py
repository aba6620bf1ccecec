"""Session-wide test setup.

Wraps ``msip.kernel.solve`` for the whole test run with its residual
contract: for every finite, nonzero right-hand-side block B and its
solution X, ||B - G X|| <= 1e-10 ||B||. The wrapper is installed when
this file is imported, before any test module, so modules that import
``solve`` by name get the checked one too. Also holds ``layouts``, a
helper of the tests that check results in every memory layout of Y, and
``traced_peak``, of the tests that bound memory.
"""

import math
import tracemalloc

import numpy as np

import msip.kernel

_solve = msip.kernel.solve


def checked_solve(G, *blocks, **kwargs):
    """``msip.kernel.solve`` that asserts each block's residual contract;
    keyword arguments (the lent ``factor``) are passed through."""
    out = _solve(G, *blocks, **kwargs)
    for B, X in zip(blocks, out if len(blocks) > 1 else (out,)):
        B = np.asarray(B, dtype=float)
        num = np.linalg.norm(B - G @ X)
        den = np.linalg.norm(B)
        # the contract applies to well-posed systems only; non-finite
        # inputs propagate to the caller's divergence handling untouched
        if den > 0 and math.isfinite(den) and not num <= 1e-10 * den:
            raise AssertionError(
                f"solve residual contract violated: {num / den:.3e}"
            )
    return out


msip.kernel.solve = checked_solve


def layouts(Y):
    """Y in four memory layouts, by name: C and Fortran order, and views
    strided by rows and by columns."""
    M, d = Y.shape
    rows = np.zeros((2 * M, d))
    rows[::2] = Y
    cols = np.zeros((M, 2 * d))
    cols[:, ::2] = Y
    return {"c-order": np.array(Y, order="C"),
            "fortran-order": np.array(Y, order="F"),
            "row-strided": rows[::2], "column-strided": cols[:, ::2]}


def traced_peak(f, *args):
    """Peak bytes numpy and Python allocate during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
