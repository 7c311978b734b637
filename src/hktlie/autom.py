"""Algebra automorphisms read from the structure constants, and the quaternion triple.

For a root theta with E_theta = nu (t_re + i t_im), conjugation by

    U = exp(i pi/4 (E_theta + E_-theta)) = exp(i pi/2 nu t_re)     (J-kind)
    U = exp(  pi/4 (E_theta - E_-theta)) = exp(i pi/2 nu t_im)     (K-kind)

acts on generator coefficients as Omega = exp(pi/4 B), B = 2 nu f[t]^T
(Spindel, Sevrin, Troost and Van Proeyen, Nucl. Phys. B308, 1988).  B has
the spectrum {0, +-i, +-2i}, so Omega is a fixed quartic polynomial in B,
with exact entries in {0, +-1/2, +-1/sqrt2, +-1}: f alone determines it.
Omega is the identity outside the indices that f[t] touches, so it is kept
as that block alone.  Conjugating the canonical complex structure I by the
J-kind automorphisms of all basic roots, outer level first, gives its
anticommuting partner J = Omega I Omega^T, and K = I J closes the
quaternion algebra.  On each 4x4 block of I that J is +-J0, with the sign
read off f (`cstruct.canonical_I`), and the triple is built from that
closed form; Omega stays here as the construction it comes from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import cstruct
from .bounds import DEFAULT_TOL, _check_fd_step, _check_tol, first_failure
from .cstruct import ComplexStructure
from .liealg import AlgebraRep
from .rootsys import Root, chain_nodes


class Automorphism:
    """Orthogonal action on generator coefficients, Omega t_A = sum_B Omega_BA t_B:
    `block` on the generator indices `support`, the identity elsewhere; `kind`
    is "J" or "K"."""

    def __init__(self, support: np.ndarray, block: np.ndarray, root: Root, kind: str,
                 level: int):
        self.support = support
        self.block = block
        self.root = root
        self.kind = kind
        self.level = level


#: the largest |Omega Omega^T - 1| of an automorphism before it is refused
ORTHOGONALITY_TOL = 1e-10

#: the largest distance of an entry of Omega from its exact value before it is refused
_ENTRY_TOL = 1e-12

#: the magnitudes of the entries of every Omega
OMEGA_ENTRIES = np.array([0.0, 0.5, np.sqrt(0.5), 1.0])

#: exp(pi/4 x) = sum_k c_k x^k at x = 0, +-i, +-2i: the Lagrange polynomial
#: of the exponential on the spectrum of B, in real form
_S = np.sqrt(0.5)
_EXP_COEFFS = (1.0, (8 * _S - 1) / 6, (15 - 16 * _S) / 12, (2 * _S - 1) / 6, (3 - 4 * _S) / 12)


def automorphism_from_root(rep: AlgebraRep, theta: Root, kind: str = "J",
                           level: int = 0) -> Automorphism:
    """The orthogonal generator action induced by the theta rotation: the
    polynomial of B on the indices that f[t] touches, the identity elsewhere.
    Refused more than ORTHOGONALITY_TOL off orthogonal, or more than
    _ENTRY_TOL from its exact entries."""
    if kind not in ("J", "K"):
        raise ValueError(f"kind must be 'J' or 'K', got {kind!r}")
    ent = rep.root_entry(theta)
    f = rep.structure_constants()
    row = f.index[:, 0] == (ent.re_index if kind == "J" else ent.im_index)
    _, b, c = f.index[row].T
    touched = np.zeros(f.dim, dtype=bool)
    touched[b] = touched[c] = True
    support = np.flatnonzero(touched)
    pos = np.cumsum(touched) - 1
    # E_-theta - E_theta = -(E_theta - E_-theta): the K rotation turns back
    sign = -1.0 if kind == "K" and theta.sign != "positive" else 1.0
    B = np.zeros((support.size, support.size))
    B[pos[c], pos[b]] = 2.0 * sign * ent.scale * f.value[row]
    block = np.zeros_like(B)
    for coeff in _EXP_COEFFS[::-1]:                  # Horner's rule
        block = block @ B + coeff * np.eye(support.size)
    ortho = float(np.abs(block @ block.T - np.eye(support.size)).max(initial=0.0))
    if ortho > ORTHOGONALITY_TOL:
        raise RuntimeError(f"automorphism for {theta} lost orthogonality: residual {ortho:.2e}")
    nearest = np.abs(np.abs(block)[..., None] - OMEGA_ENTRIES).argmin(axis=-1)
    exact = np.copysign(OMEGA_ENTRIES[nearest], block)
    snap = float(np.abs(block - exact).max(initial=0.0))
    if snap > _ENTRY_TOL:
        raise RuntimeError(f"automorphism for {theta} is {snap:.2e} from its exact entries")
    return Automorphism(support=support, block=exact, root=theta, kind=kind, level=level)


# ---------------------------------------------------------------------------
# the quaternion triple

class TripleResult:
    """I, J and K on the directions outside the quotient, which every
    check, and `dimension`, refers to.  `nodes` are the chain nodes whose
    J-kind automorphisms rotate I into J, outermost level first.  `checks`
    maps each check to its value: BOUNDS order, "J.square" per structure,
    then RECORDED; `failure` is the (check, value, bound) of the first
    failed check, or None."""

    def __init__(self, I: ComplexStructure, J: ComplexStructure, K: ComplexStructure,
                 nodes: tuple, checks: dict, failure: tuple | None, message: str):
        self.I = I
        self.J = J
        self.K = K
        self.nodes = nodes
        self.checks = checks
        self.failure = failure
        self.message = message

    @property
    def dimension(self) -> int:
        return self.I.dim

    @property
    def certified(self) -> bool:
        return self.failure is None

    @property
    def quaternion_residual(self) -> float:
        return self.checks["quaternion"]


def build_quaternion_triple(rep: AlgebraRep, tol: float = DEFAULT_TOL,
                            fd_step: float | None = None,
                            quotient: Sequence[int] = ()) -> TripleResult:
    """I, J = Omega I Omega^T, K = I J, with all residuals evaluated.

    `quotient` holds the generator indices of the quotiented subalgebra (none
    for a group manifold); chain nodes whose coroot axis it holds drop out of
    Omega.  I and J come from one walk of the chain, J in its closed form on
    I's blocks, and K is composed exactly: all three are exact signed
    permutations of the tangent directions.  `invariance_leak` is 1 when a
    tangent direction lies in no block outside the quotient, so that J
    would send it into the quotient, and 0 otherwise.  Residuals beyond
    tolerance yield certified=False, not an exception; an `fd_step` outside
    [MIN_FD_STEP, MAX_FD_STEP], or a `quotient` entry that is not an integer
    in range(rep.dim), or a `tol` outside (0, 1e-3], raises ValueError.
    """
    _check_tol(tol)
    if fd_step is not None:
        _check_fd_step(fd_step)
    I, J, leak = cstruct._canonical(rep, quotient)
    K = ComplexStructure(*cstruct._product((I.perm, I.sign), (J.perm, J.sign)), I.blocks)
    removed = set(quotient)
    nodes = tuple(n for n in chain_nodes(rep.chain_levels)
                  if rep.coroot_axis_index(n.theta) not in removed)

    # every number below reads the tangent directions: all indices outside
    # the quotient, and for a group manifold all of them
    inside = np.ones(rep.dim, dtype=bool)
    inside[list(removed)] = False
    f = rep.structure_constants()
    a, b, c = f.index.T
    closure = float(np.abs(f.value[inside[a] & inside[b] & ~inside[c]]).max(initial=0.0))
    f = f.restrict(np.flatnonzero(inside))

    checks = {"quaternion": cstruct.quaternion_residual(I, J, K),
              "invariance_leak": float(bool(leak))}
    for name, s in zip("IJK", (I, J, K)):
        nij = None
        if fd_step is not None and not removed:
            nij = cstruct.nijenhuis_at_origin(rep, s, fd_step)
        report = cstruct.geometry_report(s, f, tol, nijenhuis=nij)
        checks.update((f"{name}.{check}", value) for check, value in report.items())
    checks.update(coset_closure=closure)

    failure = first_failure(checks.items(), tol)
    message = "{} {:.2g} above {:g}".format(*failure) if failure else ""
    if leak:        # then failure is set too
        message += "; " + leak
    return TripleResult(I=I, J=J, K=K, nodes=nodes, checks=checks, failure=failure,
                        message=message)
