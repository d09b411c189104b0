"""Quadrature used by the deterministic envelope functions.

Finite intervals: adaptive Simpson with a relative target of 1e-8 and an
absolute floor of 1e-12.  Semi-infinite intervals: one QUADPACK (QAGI)
call with a relative target of 1e-8 and an absolute one of 1e-15, whose
result counts only when QUADPACK reports success and its own error
estimate meets that target.
"""

import math

from scipy.integrate import quad

from .errors import IntegrabilityError

REL_TOL = 1e-8
ABS_FLOOR = 1e-12
MAX_DEPTH = 40
INF_ABS_TOL = 1e-15


def _simpson(fn, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = fn(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(fn, a, fa, b, fb, whole, m, fm, tol, depth):
    lm, flm, left = _simpson(fn, a, fa, m, fm)
    rm, frm, right = _simpson(fn, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive(fn, a, fa, m, fm, left, lm, flm, tol / 2.0, depth - 1) + _adaptive(
        fn, m, fm, b, fb, right, rm, frm, tol / 2.0, depth - 1
    )


def integrate(fn, a, b, points=()):
    """Integrate ``fn`` on the finite interval [a, b].

    ``points`` lists interior breakpoints (kinks/discontinuities) the
    integrator should split at.
    """
    if b <= a:
        return 0.0
    knots = [a] + sorted(p for p in points if a < p < b) + [b]
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        flo, fhi = fn(lo), fn(hi)
        if not (math.isfinite(flo) and math.isfinite(fhi)):
            raise IntegrabilityError(f"integrand not finite on [{lo}, {hi}]")
        m, fm, whole = _simpson(fn, lo, flo, hi, fhi)
        tol = max(ABS_FLOOR, REL_TOL * abs(whole))
        total += _adaptive(fn, lo, flo, hi, fhi, whole, m, fm, tol, MAX_DEPTH)
    if not math.isfinite(total):
        raise IntegrabilityError("finite-interval quadrature diverged")
    return total


def integrate_to_inf(fn, a, factor=""):
    """Integrate ``fn`` on [a, infinity) with one QUADPACK call.

    Raises :class:`IntegrabilityError` naming ``factor`` when QUADPACK
    reports a failure (a divergent or too slowly decaying integrand among
    them) or its error estimate misses the target; it emits no warning.
    """
    # with full_output, a failure comes back as a trailing message, not a warning
    val, err, _, *message = quad(fn, a, math.inf, epsabs=INF_ABS_TOL, epsrel=REL_TOL,
                                 full_output=1)
    if message or not math.isfinite(val) or err > max(INF_ABS_TOL, REL_TOL * abs(val)):
        raise IntegrabilityError(
            f"semi-infinite quadrature from t={a:g} missed its target "
            f"(value {val:g}, error estimate {err:g})", factor=factor)
    return val
