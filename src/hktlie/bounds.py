"""The checks of a certificate, their bounds and the limits of its inputs, on
plain floats: the CLI checks its arguments without loading numpy."""

from __future__ import annotations

import numbers
import sys
from typing import Iterable

DEFAULT_TOL = 1e-9

#: every check of a verdict and its bound as a function of the tolerance, in
#: the order in which the verdict names the first failure: the two checks of
#: the triple as a whole, then those that each of I, J and K takes, named
#: with its prefix in a certificate ("J.square").  I, J and K are exact
#: signed permutations, so the quaternion and square checks read exactly 0 or
#: at least 1
BOUNDS = {
    "quaternion": lambda tol: tol,
    "invariance_leak": lambda tol: 1e-12,
    "integrability": lambda tol: tol,
    "square": lambda tol: tol,
    "bismut": lambda tol: 1e-12,
    "torsion_match": lambda tol: 10 * tol,
    "nijenhuis": lambda tol: 1e-5,
}

#: the checks of each structure, in BOUNDS order
STRUCTURE_CHECKS = tuple(BOUNDS)[2:]

#: the values a certificate reports without a bound
RECORDED = ("coset_closure",)

#: the finite-difference steps of the Nijenhuis check: below 2.98e-154,
#: (step/2)**2, the vielbein's second-order term at the half step, is no longer
#: a normal float, and a subnormal step ends in a Nijenhuis value of nan or 1
MIN_FD_STEP = 2 * sys.float_info.min ** 0.5
MAX_FD_STEP = 1e-2
#: the step of `hkt verify` and `cstruct.nijenhuis_at_origin` when none is given
DEFAULT_FD_STEP = 1e-4


class PairingError(ValueError):
    """The Cartan/u(1) directions cannot be paired off; padding is wrong."""


def _sci(x: float) -> str:
    """x to 3 significant digits, as "2.98e-154" or "1e-2"."""
    mantissa, exponent = f"{x:.2e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}"


def _check_real(name: str, value) -> None:
    """Raise ValueError unless value is a real number: a string is refused,
    where a comparison would raise TypeError."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol <= 1e-3; NaN is refused too."""
    _check_real("tolerance", tol)
    if not 0 < tol <= 1e-3:
        raise ValueError(f"tolerance must lie in (0, 1e-3], got {tol:g}")


def _check_fd_step(step: float) -> None:
    """Raise ValueError unless MIN_FD_STEP <= step <= MAX_FD_STEP."""
    _check_real("fd-step", step)
    if not MIN_FD_STEP <= step <= MAX_FD_STEP:
        raise ValueError(f"fd-step must lie in [{_sci(MIN_FD_STEP)}, {_sci(MAX_FD_STEP)}], "
                         f"so that (step/2)**2 stays a normal float; got {step:g}")


def _check_u1_count(u1_count) -> None:
    """Raise ValueError unless u1_count is a non-negative int; a bool is refused."""
    if isinstance(u1_count, bool) or not isinstance(u1_count, int) or u1_count < 0:
        raise ValueError(f"u1_count must be a non-negative int, got {u1_count!r}")


def _bounded(values: Iterable, tol: float):
    """The (check, value, bound) of each (check, value) pair that has a bound
    and was run.  A check is a BOUNDS key, optionally prefixed with a
    structure ("J.square"), or a RECORDED one, which has no bound; a value of
    None is a check not run."""
    for check, value in values:
        if check not in RECORDED and value is not None:
            yield check, value, BOUNDS[check.rpartition(".")[2]](tol)


def first_failure(values: Iterable, tol: float) -> tuple | None:
    """The first (check, value, bound) of the (check, value) pairs whose value
    exceeds its bound, or None; the pairs are read as `_bounded` reads them."""
    return next(((check, value, bound) for check, value, bound in _bounded(values, tol)
                 if not value <= bound), None)
