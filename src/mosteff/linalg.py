"""Minimal dense real linear algebra in the max-norm.

Vectors are 1-d float64 ndarrays, matrices 2-d square ones.  Everything the
solvers need lives here: the infinity norms, one LAPACK LU (numpy's gesv,
the only place a matrix is ever factorized) that yields a solution, the
inverse and ||A|| ||A^-1|| together, explicit inversion for building initial
approximate inverses, solve_condition, and mult_condition, the
||A|| ||B|| / ||AB|| that solvers.diagnose reads for each B update.

The norms and the finiteness test run thousands of times per solve on a
few entries, where a ufunc reduction's fixed cost (about 0.5-1.2 us) is
most of the work.  So a float64 vector of at most 7 entries, or a matrix of
at most 7 rows of at most 7 entries, is read as Python floats: numpy adds a
row of fewer than 8 entries left to right, so an explicit left-to-right
loop (not sum(), which compensates from Python 3.12 on) gives its bits.
Entries whose plain sum is not finite (a NaN, an inf, or a sum that
overflows) fall back to the numpy body, which is also the body for larger
arrays: max_norm_vec and max_norm_mat take their maximum at argmax, and
all_finite reads one dot product.  The comment above them says why each
result is the one the ufunc reductions give, bit for bit.
"""

import math

import numpy as np

from .errors import SingularMatrix

# A matrix with ||A|| ||A^-1|| * PIVOT_RTOL >= 1 counts as singular: its
# pivots fall to about PIVOT_RTOL * ||A||, below what double precision can
# tell from zero.  The relative form keeps the test invariant under scaling.
PIVOT_RTOL = 1e-14

_FLOAT = np.dtype(float)


def _real(a):
    # a as a float64 ndarray, uncopied when it is one; complex entries
    # raise ValueError rather than lose their imaginary parts
    a = np.asarray(a)
    if a.dtype is not _FLOAT:
        if a.dtype.kind == "c":
            raise ValueError("expected real entries, got complex ones")
        a = a.astype(float)
    return a


def as_vector(x):
    v = _real(x)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-d vector of dimension >= 1")
    return v


def as_matrix(a):
    m = _real(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square 2-d matrix")
    return m


# The Python path.  A maximum is exact, so max(map(abs, ...)) has the bits
# np.maximum.reduce gives.  np.add.reduce adds a row of fewer than 8 entries
# left to right and pairwise from 8 on, so a row sum is an explicit
# left-to-right loop and a row holds at most 7 entries: 7 is the longest row
# whose bits agree, not a tuned speed.  A matrix has at most 7 rows too, so the
# path serves small systems only.  sum() would add in the same order up to
# Python 3.11, but from 3.12 on it compensates and can round differently.  The
# path reads only entries whose plain sum is finite, which holds only when
# every entry is, on any Python; a NaN, an inf or a sum that overflows falls
# back to the numpy body.
#
# The numpy body.  The entry at argmax is the maximum, and argmax points at
# the first NaN, so NaN propagates as np.maximum.reduce has it.  A sum of
# squares is finite only when every entry is; it also overflows for finite
# entries above about 1.3e154, so only a non-finite one falls back to the
# entrywise np.isfinite test, and all_finite gives the same bool in every
# case.  np.vdot flattens its arguments and, unlike ndarray.dot, reports no
# RuntimeWarning for that overflow.
_ROW_LIMIT = 7
_SMALL_VECTORS = frozenset((n,) for n in range(1, _ROW_LIMIT + 1))
_SMALL_MATRICES = frozenset((r, n) for r in range(1, _ROW_LIMIT + 1) for n in range(1, _ROW_LIMIT + 1))
_SMALL_SHAPES = _SMALL_VECTORS | _SMALL_MATRICES


def _largest(a):
    # the largest entry of a, the first NaN when a holds one
    return a.item(a.argmax())


def all_finite(a):
    """True when every entry of a is finite."""
    if type(a) is np.ndarray and a.shape in _SMALL_SHAPES and a.dtype is _FLOAT:
        if math.isfinite(sum(a.tolist() if a.ndim == 1 else a.ravel().tolist())):
            return True
    a = np.asarray(a, dtype=float)
    return math.isfinite(np.vdot(a, a)) or bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def max_norm_vec(v):
    """max_i |v_i|"""
    if type(v) is np.ndarray and v.shape in _SMALL_VECTORS and v.dtype is _FLOAT:
        vals = v.tolist()
        if math.isfinite(sum(vals)):
            return max(map(abs, vals))
    return _largest(np.abs(np.asarray(v, dtype=float)))


def max_norm_mat(a):
    """Induced max-norm: largest absolute row sum."""
    if type(a) is np.ndarray and a.shape in _SMALL_MATRICES and a.dtype is _FLOAT:
        sums = []
        for row in a.tolist():
            total = 0.0
            for entry in row:
                total += abs(entry)
            sums.append(total)
        if math.isfinite(sum(sums)):
            return max(sums)
    return _largest(np.add.reduce(np.abs(np.asarray(a, dtype=float)), axis=1))


def lu_factor(a, b=None):
    """One LAPACK LU (gesv) of A, solved against [b | I], b = 0 when absent.

    Returns (x, A^-1, ||A|| ||A^-1||) with Ax = b; x is None when b is None.
    A^-1 is the view sol[:, 1:] of the solution, with or without b.
    The only place a matrix is ever factorized.  Raises SingularMatrix when
    ||A|| is zero or not finite, when A has an exact zero pivot, or when A^-1
    is not finite or ||A|| ||A^-1|| >= 1 / PIVOT_RTOL.
    """
    a = as_matrix(a)
    norm = max_norm_mat(a)
    if not 0.0 < norm < math.inf:  # also true for NaN
        raise SingularMatrix("zero or non-finite matrix")
    m = a.shape[0]
    rhs = np.eye(m, m + 1, 1)  # [0 | I], whose column 0 takes b
    if b is not None:
        b = as_vector(b)
        if b.shape != (m,):
            raise ValueError(f"b has {b.size} entries, A has {m} rows")
        rhs[:, 0] = b
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("zero pivot") from exc
    inverse = sol[:, 1:]
    cond = norm * max_norm_mat(inverse)
    if not cond * PIVOT_RTOL < 1.0:  # also catches a non-finite inverse
        raise SingularMatrix(f"condition {cond:.3e} at or above {1.0 / PIVOT_RTOL:.0e}")
    return (None if b is None else sol[:, 0].copy()), inverse, cond


def lu_solve(a, b):
    """Solve Ax = b."""
    return lu_factor(a, b)[0]


def invert(a):
    """Explicit inverse A^-1."""
    return lu_factor(a)[1]


def solve_condition(a):
    """||A|| * ||A^-1|| in the max-norm.  Raises SingularMatrix."""
    return lu_factor(a)[2]


def mult_condition(a, b):
    """||A|| * ||B|| / ||AB||, the conditioning of a matrix product.

    A product of zero or non-finite norm has infinite condition.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    norm_ab = max_norm_mat(a @ b)
    if norm_ab == 0.0 or not math.isfinite(norm_ab):
        return math.inf
    return max_norm_mat(a) * max_norm_mat(b) / norm_ab
