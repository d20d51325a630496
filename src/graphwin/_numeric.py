"""Small numeric kernels in numpy and `math`: midranks, the two-sided
p-value of a t statistic, the Riemann zeta function and bisection.

They are the only special functions the package needs, so none of its
modules imports scipy. Each one stands for a scipy routine
(`stats.rankdata`, the p-value of `stats.spearmanr`, `special.zeta` and
`optimize.bisect`), and `tests/test_oracles.py` checks them against it:
midranks exactly, p-values within 1e-12 relative, zeta within 1e-14.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_EPS = 2.0**-53  # half an ulp of 1.0
_TINY = 1e-300

# (2k)! / B_2k for k = 1..12, the Euler-Maclaurin correction terms
_BERNOULLI_TERMS = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1892437580.3183792,
    74724249600.0,
    -2950130727918.164,
    116467828143500.67,
    -4597978722407473.0,
    1.8152105401943546e17,
    -7.166165256175667e18,
)


def midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, each group of ties ranked at the mean of its positions.

    The ranks are integers or halves of integers, so they are exact floats.
    A NaN anywhere makes every rank NaN.
    """
    x = np.asarray(values, dtype=float)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    ends = np.append(starts[1:], y.size)
    ranks = np.empty(y.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom.

    It is the regularised incomplete beta I_x(dof/2, 1/2) at
    x = dof / (dof + t^2); an infinite t gives 0.
    """
    a, b = dof / 2.0, 0.5
    tt = t * t
    if math.isinf(tt):
        return 0.0
    x, y = dof / (dof + tt), tt / (dof + tt)  # y = 1 - x without cancellation
    if y == 0.0:
        return 1.0
    log_front = _log_gamma_ratio(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)); from a = 10 on by its asymptotic
    series, which keeps the error near an ulp where two lgammas lose ~2e-13."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    u = 1.0 / (a * a)
    series = -1 / 8 + u * (
        1 / 192 + u * (-1 / 640 + u * (17 / 14336 + u * (-31 / 18432 + u * 691 / 180224)))
    )
    return 0.5 * math.log(a) + series / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Press et al., Numerical Recipes, 3rd ed., section 6.4)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


def zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1, by Euler-Maclaurin summation.

    Cephes' Hurwitz zeta at q = 1: sum 1^-s + ... + 10^-s directly, then
    add the tail integral and up to twelve Bernoulli corrections, stopping
    early once a term is below 2^-53 of the sum.
    """
    if not s > 1.0:
        raise ValueError(f"zeta needs s > 1, got {s}")
    total = 1.0
    base = 1.0
    term = 0.0
    i = 0
    while i < 9 or base <= 9.0:
        i += 1
        base += 1.0
        term = base**-s
        total += term
        if abs(term / total) < _EPS:
            return total
    total += term * base / (s - 1.0)
    total -= 0.5 * term
    rising = 1.0
    k = 0.0
    for coefficient in _BERNOULLI_TERMS:
        rising *= s + k
        term /= base
        correction = rising * term / coefficient
        total += correction
        if abs(correction / total) < _EPS:
            break
        k += 1.0
        rising *= s + k
        term /= base
        k += 1.0
    return total


def bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """A root of `f` in [lo, hi], where f(lo) and f(hi) differ in sign.

    It halves the bracket as scipy's `optimize.bisect` does, and stops once
    the half-width is below xtol + 4 eps |mid| or f(mid) is 0, within 100
    halvings.
    """
    rtol = 4 * np.finfo(float).eps
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0:
        raise ValueError("f(lo) and f(hi) must differ in sign")
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    step = hi - lo
    for _ in range(100):
        step *= 0.5
        mid = lo + step
        f_mid = f(mid)
        if f_mid * f_lo >= 0:
            lo = mid
        if f_mid == 0 or abs(step) < xtol + rtol * abs(mid):
            return mid
    raise RuntimeError("bisection did not converge in 100 steps")
