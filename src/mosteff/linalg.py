"""Minimal dense real linear algebra in the max-norm.

Vectors are 1-d float64 ndarrays, matrices 2-d square ones.  Everything the
solvers need lives here: the infinity norms, one LAPACK LU (numpy's gesv,
the only place a matrix is ever factorized) that yields a solution and the
inverse together, explicit inversion for building initial approximate
inverses, and the two condition-number diagnostics used by the iteration
traces.
"""

import numpy as np

from .errors import SingularMatrix

# A matrix with ||A|| ||A^-1|| * PIVOT_RTOL >= 1 counts as singular: its
# pivots fall to about PIVOT_RTOL * ||A||, below what double precision can
# tell from zero.  The relative form keeps the test invariant under scaling.
PIVOT_RTOL = 1e-14


def as_vector(x):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-d vector of dimension >= 1")
    return v


def as_matrix(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square 2-d matrix")
    return m


# The reductions below call the ufuncs that ndarray.all(), .max() and
# .sum() wrap, skipping a Python-level wrapper that dominates at small sizes.


def all_finite(a):
    """True when every entry of a is finite."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def max_norm_vec(v):
    """max_i |v_i|"""
    v = np.asarray(v, dtype=float)
    return float(np.maximum.reduce(np.abs(v)))


def max_norm_mat(a):
    """Induced max-norm: largest absolute row sum."""
    a = np.asarray(a, dtype=float)
    return float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=1)))


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


def mult_condition(a, b, product=None):
    """||A|| * ||B|| / ||AB||, the conditioning of a matrix product.

    `product` is AB when the caller has already formed it.  A product of
    zero norm has infinite condition.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    return product_condition(max_norm_mat(a), max_norm_mat(b),
                             max_norm_mat(a @ b if product is None else product))
