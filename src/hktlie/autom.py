"""Algebra automorphisms read from the structure constants, and the quaternion triple.

For a root theta with E_theta = nu (t_re + i t_im), conjugation by

    U = exp(i pi/4 (E_theta + E_-theta)) = exp(i pi/2 nu t_re)     (J-kind)
    U = exp(  pi/4 (E_theta - E_-theta)) = exp(i pi/2 nu t_im)     (K-kind)

acts on generator coefficients as Omega = exp(pi/4 B), B = 2 nu f[t]^T
(Spindel, Sevrin, Troost and Van Proeyen, Nucl. Phys. B308, 1988).  B has
the spectrum {0, +-i, +-2i}, so Omega is a fixed quartic polynomial in B,
with exact entries in {0, +-1/2, +-1/sqrt2, +-1}: f alone determines it.
Omega is the identity outside the indices that f[t] touches, so it is kept
as that block alone.  Conjugating by the J-kind automorphisms of all basic
roots (outer level first), block by block, rotates the canonical complex
structure I into an anticommuting partner J; K = I J closes the quaternion
algebra.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import cstruct
from .bounds import BOUNDS, DEFAULT_TOL, _check_fd_step, _check_tol, first_failure
from .cstruct import ComplexStructure, canonical_I
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
    Refused more than ORTHOGONALITY_TOL off orthogonal, or above the snap
    bound from its exact entries."""
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
    if snap > BOUNDS["snap"](DEFAULT_TOL):
        raise RuntimeError(f"automorphism for {theta} is {snap:.2e} from its exact entries")
    return Automorphism(support=support, block=exact, root=theta, kind=kind, level=level)


# ---------------------------------------------------------------------------
# the quaternion triple

class TripleResult:
    """I, J and K on the directions outside the quotient, which every
    check, and `dimension`, refers to.  `nodes` are the chain nodes that
    rotate I, outermost level first, and `automorphisms` their J-kind
    automorphisms, one per node.  `checks` maps each check to its value:
    BOUNDS order, "J.snap" per structure, then RECORDED; `failure` is the
    (check, value, bound) of the first failed check, or None."""

    def __init__(self, I: ComplexStructure, J: ComplexStructure, K: ComplexStructure,
                 nodes: tuple, automorphisms: tuple, checks: dict, failure: tuple | None,
                 message: str):
        self.I = I
        self.J = J
        self.K = K
        self.nodes = nodes
        self.automorphisms = automorphisms
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


def _conjugate(m: np.ndarray, automorphisms: Sequence[Automorphism]) -> np.ndarray:
    """Omega m Omega^T for Omega the ordered product of `automorphisms`,
    outermost level first (applied first), one block at a time: each touches
    only the rows and columns of its support."""
    m = m.copy()
    for a in sorted(automorphisms, key=lambda a: a.level):
        s, b = a.support, a.block
        m[s] = b @ m[s]
        m[:, s] = m[:, s] @ b.T
    return m


def build_quaternion_triple(rep: AlgebraRep, tol: float = DEFAULT_TOL,
                            fd_step: float | None = None,
                            quotient: Sequence[int] = ()) -> TripleResult:
    """I, J = Omega I Omega^T, K = I J, with all residuals evaluated.

    `quotient` holds the generator indices of the quotiented subalgebra (none
    for a group manifold); chain nodes whose coroot axis it holds drop out of
    Omega.  J is the float conjugation on the tangent directions, snapped
    once; K is composed exactly, so it is as far from its float product as J
    is.  Residuals beyond tolerance yield certified=False, not an exception;
    an `fd_step` outside [MIN_FD_STEP, MAX_FD_STEP], or a `quotient` entry
    that is not an integer in range(rep.dim), or a `tol` outside (0, 1e-3],
    raises ValueError.
    """
    _check_tol(tol)
    if fd_step is not None:
        _check_fd_step(fd_step)
    I = canonical_I(rep, quotient)
    removed = set(quotient)
    nodes = tuple(n for n in chain_nodes(rep.chain_levels)
                  if rep.coroot_axis_index(n.theta) not in removed)
    f = rep.structure_constants()

    # every structure and number below reads the tangent directions: all
    # indices outside the quotient, and for a group manifold all of them
    inside = np.ones(rep.dim, dtype=bool)
    inside[list(removed)] = False
    tangent, qidx = np.flatnonzero(inside), np.flatnonzero(~inside)
    on_tangent = np.ix_(tangent, tangent) if removed else ...     # no copy for a group
    whole = np.zeros((rep.dim, rep.dim))        # I on the algebra, 0 on the quotient
    whole[tangent[I.perm], tangent] = I.sign
    autos = tuple(automorphism_from_root(rep, n.theta, "J", n.level) for n in nodes)
    Jm = _conjugate(whole, autos)
    J = ComplexStructure.from_matrix(Jm[on_tangent], I.blocks)
    K = ComplexStructure(*cstruct._product((I.perm, I.sign), (J.perm, J.sign)), J.snap, I.blocks)
    autos_k = tuple(automorphism_from_root(rep, n.theta, "K", n.level) for n in nodes)
    k_mismatch = cstruct._distance(_conjugate(whole, autos_k)[on_tangent], K.perm, K.sign)

    # I has no cross block, and K = I J moves J's
    cross = np.abs(Jm[np.ix_(qidx, tangent)])
    leak = max(float(cross.max(initial=0.0)),
               float(np.abs(Jm[np.ix_(tangent, qidx)]).max(initial=0.0)))
    leak_note = ""
    if cross.max(initial=0.0) > 0:
        qi, ti = np.unravel_index(np.argmax(cross), cross.shape)
        blk = next((b.description for b in I.blocks if ti in b.indices), f"index {tangent[ti]}")
        leak_note = f"J leaks out of {blk} into quotient index {qidx[qi]}"
    del whole, Jm       # before the checks, whose terms set the peak
    a, b, c = f.index.T
    closure = float(np.abs(f.value[inside[a] & inside[b] & ~inside[c]]).max(initial=0.0))
    f = f.restrict(tangent)

    checks = {"quaternion": cstruct.quaternion_residual(I, J, K), "invariance_leak": leak}
    for name, s in zip("IJK", (I, J, K)):
        nij = None
        if fd_step is not None and not removed:
            try:
                nij = cstruct.nijenhuis_at_origin(rep, s, fd_step)
            except ValueError:      # above the snap bound, which the snap check reports
                nij = float("inf")
        report = cstruct.geometry_report(s, f, tol, nijenhuis=nij)
        checks.update((f"{name}.{check}", value) for check, value in report.items())
    checks.update(k_mismatch=k_mismatch, coset_closure=closure)

    failure = first_failure(checks.items(), tol)
    message = "{} {:.2g} above {:g}".format(*failure) if failure else ""
    if leak > BOUNDS["invariance_leak"](tol):   # then failure is set too
        message += "; " + leak_note
    return TripleResult(I=I, J=J, K=K, nodes=nodes, automorphisms=autos, checks=checks,
                        failure=failure, message=message)
