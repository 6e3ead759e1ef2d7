"""Reference values the gates compare against, derived here from closed forms.

None of these reuse the solver's grid or integrator.

* Unit logistic (mu = 1 - x, sigma = x; also the tabulated table, whose PCHIP
  interpolant reproduces linear data exactly): the adjusted drift is
  lam(x) = x - (1 + eps/2) x^2, so the drift zero is 1 / (1 + eps/2) and the
  drift peak half of it.
* General logistic with theta = 2 (mu = 1 - x^2, sigma = x):
  lam(x) = x - x^3 - (eps/2) x^2.  The peak solves 1 - eps x - 3 x^2 = 0 and
  the zero solves 1 - (eps/2) x - x^2 = 0.
* At eps = 0 the unit logistic threshold is the root of
  b = (1 - b)(e^{2b} - 1) and the long-run yield is b (1 - b).
"""

from __future__ import annotations

import math


def unit_logistic_bracket(eps):
    zero = 1.0 / (1.0 + 0.5 * eps)
    return 0.5 * zero, zero


def general_logistic2_bracket(eps):
    peak = (-eps + math.sqrt(eps * eps + 12.0)) / 6.0
    zero = (-0.5 * eps + math.sqrt(0.25 * eps * eps + 4.0)) / 2.0
    return peak, zero


def unit_logistic_threshold0(tol=1e-13):
    """Root of (1 - b)(e^{2b} - 1) - b on [0.5, 1] by bisection."""
    def f(b):
        return (1.0 - b) * math.expm1(2.0 * b) - b
    lo, hi = 0.5, 1.0
    if not f(lo) > 0.0 > f(hi):
        raise ArithmeticError("closed-form root is not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unit_logistic_yield0():
    b = unit_logistic_threshold0()
    return b * (1.0 - b)


# Reflected Euler bias is O(sqrt(dt)) (Asmussen, Glynn & Pitman 1995).  The
# largest coefficient measured on this model, |bias| / sqrt(dt), is 0.05
# (-0.0050 at dt = 1e-2, reference measure, 512 paths, T = 100); at
# dt = 2e-3 the worst-case measure reads +0.0016 over 13 seeds (0.036).
BIAS_COEFF = 0.05
SE_MULTIPLE = 4.0


def mc_gap_bound(dt, std_error):
    """Largest |mean - ell| a correct simulation shows at this dt and SE."""
    return BIAS_COEFF * math.sqrt(dt) + SE_MULTIPLE * std_error
