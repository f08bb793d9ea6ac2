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

import math
from dataclasses import dataclass

import numpy as np

from .divdiff import divided_difference, problem_jacobian
from .errors import InsufficientData, NoKnownSolution
from .linalg import invert, max_norm_mat, max_norm_vec
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
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    alpha = [c.r]
    alpha_tilde = [c.r_tilde]
    beta = [c.beta]
    delta = [c.delta]
    d = []
    for n in range(n_terms):
        a_next = (delta[n] + c.k * beta[n] * alpha[n]) * alpha[n]
        at_next = (1.0 + c.M + c.k * a_next) * a_next
        delta.append(delta[n] ** 2 + c.k * c.M * beta[n] ** 2 * (a_next + at_next))
        d.append(delta[n] + c.k * beta[n] * (a_next + at_next))
        alpha.append(a_next)
        alpha_tilde.append(at_next)
        if n + 1 <= n_terms - 1:
            beta.append((1.0 + d[n]) * beta[n])
    return ScalarSequences(
        alpha=tuple(alpha),
        alpha_tilde=tuple(alpha_tilde),
        beta=tuple(beta),
        delta=tuple(delta),
        d=tuple(d),
    )


def _existence_margin(delta):
    """1 - (1+delta)^2 delta; no radius exists unless it is positive."""
    return 1.0 - (1.0 + delta) ** 2 * delta


@dataclass(frozen=True)
class ConditionReport:
    cond1: bool  # (1+M+k r) r < r_tilde
    cond2: bool  # delta_1 < delta_0
    cond3: bool  # (1+d_0)^2 (delta_0 + k beta alpha_0) < 1
    cond1_value: float  # (1+M+k r) r
    alpha1: float
    alpha_tilde1: float
    d0: float
    delta0: float
    delta1: float
    cond3_value: float
    cond3_margin: float  # 1 - cond3_value
    existence_margin: float  # 1 - (1+delta)^2 delta; > 0 needed for any radius
    contraction: float  # L = delta + k beta r, the per-step error factor
    consequence_a: bool  # delta_0 + k beta_0 alpha_0 < 1
    consequence_b: bool  # (1+d_0)(delta_0 + k beta_0 alpha_0) < 1

    @property
    def all_hold(self):
        return self.cond1 and self.cond2 and self.cond3


def check_conditions(c):
    """Evaluate the three first-term inequalities and their byproducts."""
    seq = generate_sequences(c, 1)
    d0 = seq.d[0]
    base = c.delta + c.k * c.beta * c.r  # delta_0 + k beta_0 alpha_0
    cond1_value = (1.0 + c.M + c.k * c.r) * c.r
    cond3_value = (1.0 + d0) ** 2 * base
    return ConditionReport(
        cond1=cond1_value < c.r_tilde,
        cond2=seq.delta[1] < seq.delta[0],
        cond3=cond3_value < 1.0,
        cond1_value=cond1_value,
        alpha1=seq.alpha[1],
        alpha_tilde1=seq.alpha_tilde[1],
        d0=d0,
        delta0=seq.delta[0],
        delta1=seq.delta[1],
        cond3_value=cond3_value,
        cond3_margin=1.0 - cond3_value,
        existence_margin=_existence_margin(c.delta),
        contraction=base,
        consequence_a=base < 1.0,
        consequence_b=(1.0 + d0) * base < 1.0,
    )


def find_radius(M, k, beta, delta, r_tilde):
    """Largest r for which all three conditions hold, by bisection.

    Returns None when no positive radius is feasible (in particular when
    1 - (1+delta)^2 delta <= 0).  Every condition's left side grows with r,
    so the feasible set is an interval (0, r*) and bisection applies.
    Raises ValueError for constants that ConvergenceConstants rejects.
    """
    ConvergenceConstants(M=M, k=k, beta=beta, delta=delta, r=r_tilde, r_tilde=r_tilde)
    if _existence_margin(delta) <= 0.0:
        return None

    def feasible(r):
        c = ConvergenceConstants(M=M, k=k, beta=beta, delta=delta, r=r, r_tilde=r_tilde)
        return check_conditions(c).all_hold

    hi = min(r_tilde, r_tilde / (1.0 + M))  # (1+M+kr)r >= r_tilde there
    lo = hi * 1e-12
    if not feasible(lo):
        return None
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, hi):
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
    dropped) or a bare error sequence.
    """
    if isinstance(trace_or_errors, IterationTrace):
        errors = trace_or_errors.errors(above_floor=True)
    else:
        errors = [float(e) for e in trace_or_errors]
    errors = [e for e in errors if e > 0.0 and math.isfinite(e)]
    if len(errors) < 4:
        raise InsufficientData(
            f"need at least 4 positive error entries above the floor, got {len(errors)}"
        )
    errors = errors[-_COC_WINDOW:]
    rhos = []
    for kk in range(1, len(errors) - 1):
        e_prev, e_mid, e_next = errors[kk - 1], errors[kk], errors[kk + 1]
        if e_prev > e_mid > e_next:
            rhos.append(math.log(e_next / e_mid) / math.log(e_mid / e_prev))
    if not rhos:
        raise InsufficientData("no strictly decreasing error triples in the tail")
    return float(np.median(rhos))


def _halton(index, base):
    # Radical-inverse low-discrepancy scalar in (0, 1).
    result = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def estimate_constants(problem, r_sample, n_samples=200):
    """Sample-based estimates of M and k around a known root.

    M is exact (norm of the Jacobian at the root).  k is the max of
    ||[x,y;F] - F'(x*)|| / (||x-x*|| + ||y-x*||) over a deterministic
    low-discrepancy sample of pairs in the max-norm ball of radius r_sample
    — a lower bound on the true supremum, so advisory only.  The remaining
    fields are filled with the ideal-B0 convention (B0 = F'(x*)^-1, so
    beta = ||F'(x*)^-1|| and delta = 0) and r = r_sample; callers wanting
    different B0 quality should replace beta and delta before use.
    """
    if problem.known_solution is None:
        raise NoKnownSolution("constant estimation needs a known root")
    if problem.analytic_jacobian is None:
        raise NoKnownSolution("constant estimation needs an analytic Jacobian")
    root = np.asarray(problem.known_solution, dtype=float)
    m = problem.dimension
    if 2 * m > len(_PRIMES):
        raise ValueError("dimension too large for the built-in Halton bases")
    jac_root = problem_jacobian(problem, root)
    big_m = max_norm_mat(jac_root)

    k_best = 0.0
    eye = np.eye(m)
    for idx in range(1, n_samples + 1):
        u = np.array([_halton(idx, _PRIMES[d]) for d in range(2 * m)])
        x = root + r_sample * (2.0 * u[:m] - 1.0)
        y = root + r_sample * (2.0 * u[m:] - 1.0)
        denom = max_norm_vec(x - root) + max_norm_vec(y - root)
        if denom == 0.0:
            continue
        dd = divided_difference(problem, x, y)
        ratio = max_norm_mat(dd - jac_root) / denom
        k_best = max(k_best, ratio)

    beta = max_norm_mat(invert(jac_root))
    r_tilde = (1.0 + big_m + k_best * r_sample) * r_sample * (1.0 + 1e-6)
    return ConvergenceConstants(
        M=big_m, k=k_best, beta=beta, delta=0.0, r=r_sample, r_tilde=r_tilde
    )
