"""Minimal dense real linear algebra in the max-norm.

Vectors are 1-d float64 ndarrays, matrices 2-d square ones.  Everything the
solvers need lives here: the infinity norms, one LAPACK LU (numpy's gesv,
the only place a matrix is ever factorized) that yields a solution, the
inverse and ||A|| ||A^-1|| together, explicit inversion for building initial
approximate inverses, and product_condition, the ||A|| ||B|| / ||AB|| that
the iteration traces take from norms they already hold.  solve_condition and
mult_condition give the same two diagnostics from the matrices alone.

The norms and the finiteness test run thousands of times per solve on a
few entries, where a ufunc reduction's fixed cost (about 0.6 us) is most of
the work.  So max_norm_vec and max_norm_mat take their maximum at argmax,
and all_finite reads one dot product; the comment above them says why each
result is the one the reductions give, bit for bit.
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


# A maximum is exact, so the entry at argmax has the bits np.maximum.reduce
# gives, and argmax points at the first NaN, so NaN propagates as before.
# The row sums stay np.add.reduce, whose pairwise order fixes their bits for
# rows of 8 or more entries.  A sum of squares is finite only when every
# entry is; it also overflows for finite entries above about 1.3e154, so
# only a non-finite one falls back to the entrywise np.isfinite test, and
# all_finite gives the same bool in every case.  np.vdot flattens its
# arguments and, unlike ndarray.dot, reports no RuntimeWarning for that
# overflow.


def _largest(a):
    # the largest entry of a, the first NaN when a holds one
    return a.item(a.argmax())


def all_finite(a):
    """True when every entry of a is finite."""
    a = np.asarray(a, dtype=float)
    return math.isfinite(np.vdot(a, a)) or bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def max_norm_vec(v):
    """max_i |v_i|"""
    return _largest(np.abs(np.asarray(v, dtype=float)))


def max_norm_mat(a):
    """Induced max-norm: largest absolute row sum."""
    return _largest(np.add.reduce(np.abs(np.asarray(a, dtype=float)), axis=1))


def lu_factor(a, b=None):
    """One LAPACK LU (gesv) of A, solved against [b | I].

    Returns (x, A^-1, ||A|| ||A^-1||) with Ax = b; x is None when b is None.
    The only place a matrix is ever factorized.  Raises SingularMatrix when
    ||A|| is zero or not finite, when A has an exact zero pivot, or when A^-1
    is not finite or ||A|| ||A^-1|| >= 1 / PIVOT_RTOL.
    """
    a = as_matrix(a)
    norm = max_norm_mat(a)
    if norm == 0.0 or not np.isfinite(norm):
        raise SingularMatrix("zero or non-finite matrix")
    eye = np.eye(a.shape[0])
    rhs = eye if b is None else np.column_stack((as_vector(b), eye))
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("zero pivot") from exc
    inverse = sol if b is None else sol[:, 1:]
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


def product_condition(norm_a, norm_b, norm_ab):
    """||A|| ||B|| / ||AB|| from the three norms; inf when ||AB|| is zero."""
    if norm_ab == 0.0:
        return float("inf")
    return norm_a * norm_b / norm_ab


def mult_condition(a, b):
    """||A|| * ||B|| / ||AB||, the conditioning of a matrix product.

    A product of zero norm has infinite condition.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    return product_condition(max_norm_mat(a), max_norm_mat(b), max_norm_mat(a @ b))
