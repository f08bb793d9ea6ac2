"""Local-convergence machinery for the inverse-update iterations.

Given the constants

    M  >= ||F'(x*)||            (Jacobian bound at the root)
    k  : Lipschitz constant of the divided difference centered at the root,
         ||[x,y;F] - F'(x*)|| <= k (||x-x*|| + ||y-x*||)
    beta = ||B0||, delta = ||I - B0 F'(x*)||   (initial inverse quality)
    r  : candidate ball radius around x*,  r_tilde : outer working radius

the scalar sequences below majorize the iteration: alpha_n bounds the error
||x_n - x*||, alpha_tilde_n bounds ||x_n + F(x_n) - x*||, beta_n bounds
||B_n||, delta_n bounds ||I - B_n F'(x*)|| and d_n bounds ||I - B_n T_n+1||.
Three inequalities on the first terms force all of them to decrease, giving
a guaranteed convergence ball; the largest feasible r is found by bisection
(feasibility is monotone in r because every left-hand side is increasing).
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import divdiff
from .divdiff import coincident_pairs, divided_difference, problem_jacobian
from .linalg import invert, max_norm_mat
from .solvers import IterationTrace


@dataclass(frozen=True)
class ConvergenceConstants:
    M: float
    k: float
    beta: float
    delta: float
    r: float
    r_tilde: float

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.M < 0 or self.k < 0:
            raise ValueError("M and k must be nonnegative")
        if self.beta <= 0 or self.r <= 0 or self.r_tilde <= 0:
            raise ValueError("beta, r, r_tilde must be positive")
        for value in (self.M, self.k, self.beta, self.delta, self.r, self.r_tilde):
            if not math.isfinite(value):
                raise ValueError("constants must be finite")


@dataclass(frozen=True)
class ScalarSequences:
    alpha: tuple
    alpha_tilde: tuple
    beta: tuple
    delta: tuple
    d: tuple


def _overflow_as_value_error(fn):
    # The recurrences square with float **, which raises OverflowError past
    # ~1.3e154: such a constant is out of range, a usage error to the CLI.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise ValueError("constants out of range: a float power overflows") from None
    return wrapper


def _next_terms(M, k, beta, delta, alpha):
    """One step of the recurrences on plain floats.

    Returns (delta_n + k beta_n alpha_n, alpha_{n+1}, alpha~_{n+1},
    delta_{n+1}, d_n): the sequences and the three conditions take their
    terms from here.
    """
    base = delta + k * beta * alpha
    a_next = base * alpha
    at_next = (1.0 + M + k * a_next) * a_next
    delta_next = delta ** 2 + k * M * beta ** 2 * (a_next + at_next)
    d = delta + k * beta * (a_next + at_next)
    return base, a_next, at_next, delta_next, d


@_overflow_as_value_error
def generate_sequences(c, n_terms):
    """Run the majorizing recurrences.

    alpha, alpha_tilde, delta get indices 0..n_terms; d and beta stop at
    n_terms-1 because d_n already consumes alpha_{n+1} and alpha_tilde_{n+1}.

        alpha_{n+1} = (delta_n + k beta_n alpha_n) alpha_n
        alpha~_{n+1} = (1 + M + k alpha_{n+1}) alpha_{n+1}
        delta_{n+1} = delta_n^2 + k M beta_n^2 (alpha_{n+1} + alpha~_{n+1})
        d_n         = delta_n   + k beta_n     (alpha_{n+1} + alpha~_{n+1})
        beta_{n+1}  = (1 + d_n) beta_n
    """
    if isinstance(n_terms, bool) or not isinstance(n_terms, numbers.Integral) or n_terms < 1:
        raise ValueError("n_terms must be an integer >= 1")
    alpha = [c.r]
    alpha_tilde = [c.r_tilde]
    beta = [c.beta]
    delta = [c.delta]
    d = []
    for n in range(n_terms):
        _, a_next, at_next, delta_next, d_n = _next_terms(c.M, c.k, beta[n], delta[n], alpha[n])
        delta.append(delta_next)
        d.append(d_n)
        alpha.append(a_next)
        alpha_tilde.append(at_next)
        if n + 1 <= n_terms - 1:
            beta.append((1.0 + d_n) * beta[n])
    return ScalarSequences(
        alpha=tuple(alpha),
        alpha_tilde=tuple(alpha_tilde),
        beta=tuple(beta),
        delta=tuple(delta),
        d=tuple(d),
    )


def existence_margin(delta):
    """1 - (1+delta)^2 delta; no radius exists unless it is positive."""
    return 1.0 - (1.0 + delta) ** 2 * delta


def _conditions(M, k, beta, delta, r, r_tilde):
    """The three first-term conditions at radius r, as (holds, reach,
    delta1, product): holds is (reach < r_tilde, delta1 < delta,
    product < 1), with reach = (1+M+k r) r and product = (1+d0)^2 (delta +
    k beta r).  Every side is formed before any is compared, so a float **
    that overflows raises for every caller."""
    base, _, _, delta1, d0 = _next_terms(M, k, beta, delta, r)
    reach = (1.0 + M + k * r) * r
    product = (1.0 + d0) ** 2 * base
    return (reach < r_tilde, delta1 < delta, product < 1.0), reach, delta1, product


@dataclass(frozen=True)
class ConditionReport:
    cond1: bool  # (1+M+k r) r < r_tilde
    cond2: bool  # delta_1 < delta_0
    cond3: bool  # (1+d_0)^2 (delta_0 + k beta alpha_0) < 1
    cond1_value: float  # (1+M+k r) r
    delta1: float
    cond3_margin: float  # 1 - (1+d_0)^2 (delta_0 + k beta alpha_0)

    @property
    def all_hold(self):
        return self.cond1 and self.cond2 and self.cond3


@_overflow_as_value_error
def check_conditions(c):
    """Evaluate the three first-term inequalities and the sides that
    `mosteff radius` prints; generate_sequences(c, 1) gives the first
    terms themselves."""
    (cond1, cond2, cond3), reach, delta1, product = _conditions(c.M, c.k, c.beta, c.delta, c.r, c.r_tilde)
    return ConditionReport(
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond1_value=reach,
        delta1=delta1,
        cond3_margin=1.0 - product,
    )


@_overflow_as_value_error
def find_radius(M, k, beta, delta, r_tilde):
    """Largest r for which all three conditions hold, by bisection.

    Returns None when no positive radius is feasible (in particular when
    1 - (1+delta)^2 delta <= 0).  Every condition's left side grows with r,
    so the feasible set is an interval (0, r*) and bisection applies.
    Raises ValueError for constants that ConvergenceConstants rejects, for
    constants so large that the recurrences overflow, and for an r_tilde
    so small that the search's smallest probe underflows to 0.
    """
    ConvergenceConstants(M=M, k=k, beta=beta, delta=delta, r=r_tilde, r_tilde=r_tilde)
    if existence_margin(delta) <= 0.0:
        return None

    def feasible(r):
        # check_conditions(...).all_hold on floats.  Every probe is positive
        # and finite, so the constants need no validation per probe.
        return all(_conditions(M, k, beta, delta, r, r_tilde)[0])

    hi = min(r_tilde, r_tilde / (1.0 + M))  # (1+M+kr)r >= r_tilde there
    lo = hi * 1e-12
    if lo == 0.0:  # r = 0 is no radius the constants accept
        raise ValueError("r_tilde too small: the radius search's smallest probe underflows to 0")
    if not feasible(lo):
        return None
    for _ in range(200):
        # Relative below r_tilde = 1, absolute above, and relative to hi, so
        # a small hi (a large M, a tiny r_tilde) gets its radius too.
        if hi - lo <= 1e-13 * max(min(r_tilde, 1.0), hi) and hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


_COC_WINDOW = 5


def estimate_coc(trace_or_errors):
    """Computational order of convergence from an error sequence.

    rho_k = ln(e_{k+1}/e_k) / ln(e_k/e_{k-1}) over indices whose error
    triple is strictly decreasing; returns the median.  The order is an
    asymptotic quantity, so only the last five errors above the precision
    floor enter (earlier iterations reflect the contraction transient, not
    the order).  Accepts an IterationTrace (floor-flagged entries are
    dropped) or a bare error sequence.  Returns None where no order can be
    read: fewer than 4 positive finite errors, or no strictly decreasing
    triple among the last five.
    """
    if isinstance(trace_or_errors, IterationTrace):
        errors = trace_or_errors.errors()
    else:
        errors = [float(e) for e in trace_or_errors]
    errors = [e for e in errors if e > 0.0 and math.isfinite(e)]
    if len(errors) < 4:
        return None
    errors = errors[-_COC_WINDOW:]
    rhos = []
    for kk in range(1, len(errors) - 1):
        e_prev, e_mid, e_next = errors[kk - 1], errors[kk], errors[kk + 1]
        if e_prev > e_mid > e_next:
            rhos.append(_log_ratio(e_next, e_mid) / _log_ratio(e_mid, e_prev))
    if len(rhos) == 2:  # the median of the one to three orders, as statistics.median takes it
        return (rhos[0] + rhos[1]) / 2
    return sorted(rhos)[len(rhos) // 2] if rhos else None


def _log_ratio(a, b):
    # ln(a/b) for errors a < b: the quotient's log, save where the quotient
    # underflows to 0 (a = 1e-200, b = 1e200), and there ln a - ln b
    quotient = a / b
    return math.log(quotient) if quotient > 0.0 else math.log(a) - math.log(b)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=8)
def _halton_table(n, dims):
    """Rows 1..n of the Halton sequence in the first `dims` prime bases,
    built once per (n, dims) and read-only, since every caller shares it.

    Entry [i, d] is the radical inverse of i + 1 in base _PRIMES[d], a
    low-discrepancy scalar in (0, 1): the digits of i + 1, lowest first,
    weighted 1/base, 1/base^2, ... and summed in that order.
    """
    table = np.empty((n, dims))
    for d in range(dims):
        base = _PRIMES[d]
        for row in range(n):
            index, f, result = row + 1, 1.0 / base, 0.0
            while index > 0:
                index, digit = divmod(index, base)
                result += f * digit
                f /= base
            table[row, d] = result
    table.flags.writeable = False
    return table


@np.errstate(over="ignore", invalid="ignore")
def estimate_constants(problem, r_sample, n_samples=200):
    """Sample-based estimates of M and k around a known root.

    M is exact (norm of the Jacobian at the root).  k is the max of
    ||[x,y;F] - F'(x*)|| / (||x-x*|| + ||y-x*||) over a deterministic
    low-discrepancy sample of pairs in the max-norm ball of radius r_sample
    — a lower bound on the true supremum, so advisory only.  The remaining
    fields are filled with the ideal-B0 convention (B0 = F'(x*)^-1, so
    beta = ||F'(x*)^-1|| and delta = 0) and r = r_sample; callers wanting
    different B0 quality should replace beta and delta before use.
    Raises ValueError unless r_sample is finite and positive, n_samples is
    an integer >= 1 and the problem has a known root and an analytic
    Jacobian.

    Cost and order: F'(x*) first, then F at the m+1 staircase points of
    each sample in turn, n_samples (m+1) evaluations in all; a sample at
    the root is skipped.  When no sample has a coincident coordinate pair,
    all points go to divdiff.evaluate_batch as one block, which raises the
    error the first failing evaluation would raise but may call F past a
    non-finite value; the quotients are then one array expression, with the
    bits of one divided_difference per sample.  Otherwise every sample goes
    to divided_difference in turn, which reads F' for a coincident column.
    Overflow and invalid-value warnings are silenced for the call, as run
    silences them: an F that overflows raises NonFiniteEvaluation.
    """
    if not 0.0 < r_sample < math.inf:  # also false for NaN
        raise ValueError("r_sample must be finite and positive")
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ValueError("n_samples must be an integer >= 1")
    if problem.known_solution is None:
        raise ValueError("constant estimation needs a known root")
    if problem.analytic_jacobian is None:
        raise ValueError("constant estimation needs an analytic Jacobian")
    root = np.asarray(problem.known_solution, dtype=float)
    m = problem.dimension
    if 2 * m > len(_PRIMES):
        raise ValueError("dimension too large for the built-in Halton bases")
    jac_root = problem_jacobian(problem, root)
    big_m = max_norm_mat(jac_root)

    # One row per sample: the pair (x, y) and ||x - x*|| + ||y - x*||.
    u = _halton_table(n_samples, 2 * m)
    xs = root + r_sample * (2.0 * u[:, :m] - 1.0)
    ys = root + r_sample * (2.0 * u[:, m:] - 1.0)
    denoms = np.maximum.reduce(np.abs(xs - root), axis=1) + np.maximum.reduce(np.abs(ys - root), axis=1)
    off_root = denoms > 0.0  # a sample at the root has no ratio
    xs, ys, denoms = xs[off_root], ys[off_root], denoms[off_root]
    gaps = xs - ys
    if np.any(coincident_pairs(xs, gaps)):
        dds = np.array([divided_difference(problem, x, y) for x, y in zip(xs, ys)])
    else:
        # F at staircase point j of each sample (the first j coordinates of
        # x, the rest of y), in order.  evaluate_batch is looked up on
        # divdiff, where a wrapper of it (a tracer) sees every call.
        points = np.where(np.tri(m + 1, m, -1, dtype=bool), xs[:, None, :], ys[:, None, :])
        f = divdiff.evaluate_batch(problem, points.reshape(-1, m)).reshape(-1, m + 1, m).transpose(0, 2, 1)
        # Row r, column j of a sample: (F_r(point j+1) - F_r(point j)) / gap_j.
        dds = (f[:, :, 1:] - f[:, :, :-1]) / gaps[:, None, :]
    # ||dd - F'(x*)|| per sample, the largest row sum as max_norm_mat takes it
    norms = np.maximum.reduce(np.add.reduce(np.abs(dds - jac_root), axis=2), axis=1)
    k_best = np.max(norms / denoms, initial=0.0).item()

    beta = max_norm_mat(invert(jac_root))
    r_tilde = (1.0 + big_m + k_best * r_sample) * r_sample * (1.0 + 1e-6)
    return ConvergenceConstants(
        M=big_m, k=k_best, beta=beta, delta=0.0, r=r_sample, r_tilde=r_tilde
    )
