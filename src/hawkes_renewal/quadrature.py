"""Quadrature used by the deterministic envelope functions.

Every integral is one QUADPACK call: QAGS on a finite interval, QAGP when
breakpoints are given, QAGI on [a, inf).  Each has a relative target of
1e-8 and an absolute one of 1e-15, and its result counts only when
QUADPACK reports success and its own error estimate meets that target.
"""

import math

from .errors import IntegrabilityError

REL_TOL = 1e-8
ABS_TOL = 1e-15


def _quad(fn, a, b, factor, points=()):
    """One QUADPACK call on [a, b]; raises :class:`IntegrabilityError` naming
    ``factor`` when QUADPACK reports a failure (a divergent or too slowly
    decaying integrand among them) or its error estimate misses the target.
    It emits no warning.  SciPy is imported here, on the first quadrature."""
    from scipy.integrate import quad
    # QAGP needs more subintervals than breakpoints
    kw = {"points": points, "limit": 50 + len(points)} if points else {}
    # with full_output, a failure comes back as a trailing message, not a warning
    val, err, _, *message = quad(fn, a, b, epsabs=ABS_TOL, epsrel=REL_TOL,
                                 full_output=1, **kw)
    if message or not math.isfinite(val) or err > max(ABS_TOL, REL_TOL * abs(val)):
        raise IntegrabilityError(
            f"quadrature on [{a:g}, {b:g}] missed its target "
            f"(value {val:g}, error estimate {err:g})", factor=factor)
    return val


def integrate(fn, a, b, points=()):
    """Integrate ``fn`` on the finite interval [a, b].

    ``points`` lists interior breakpoints (kinks/discontinuities) the
    integrator should split at.
    """
    if b <= a:
        return 0.0
    return _quad(fn, a, b, "", sorted({p for p in points if a < p < b}))


def integrate_to_inf(fn, a, factor=""):
    """Integrate ``fn`` on [a, infinity)."""
    return _quad(fn, a, math.inf, factor)
