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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import cstruct
from .cstruct import BOUNDS, DEFAULT_TOL, ComplexStructure, PairingError, canonical_I
from .liealg import AlgebraRep
from .rootsys import Root, RootSystem, chain_nodes, extended_dynkin_surgery, split_subsystems


class DecompositionMismatchError(RuntimeError):
    """Commutator-based centralizer disagrees with the diagram surgery."""


@dataclass(eq=False)
class Automorphism:
    """Orthogonal action on generator coefficients, Omega t_A = sum_B Omega_BA t_B:
    `block` on the generator indices `support`, the identity elsewhere."""

    support: np.ndarray
    block: np.ndarray
    root: Root
    kind: str            # "J" | "K"
    level: int


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
    coo = rep.structure_constants().coo
    row = coo.index[:, 0] == (ent.re_index if kind == "J" else ent.im_index)
    _, b, c = coo.index[row].T
    touched = np.zeros(coo.dim, dtype=bool)
    touched[b] = touched[c] = True
    support = np.flatnonzero(touched)
    pos = np.cumsum(touched) - 1
    # E_-theta - E_theta = -(E_theta - E_-theta): the K rotation turns back
    sign = -1.0 if kind == "K" and theta.sign != "positive" else 1.0
    B = np.zeros((support.size, support.size))
    B[pos[c], pos[b]] = 2.0 * sign * ent.scale * coo.value[row]
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
# centralizers and the basic-root chain

@dataclass(eq=False)
class CentralizerDecomposition:
    """Generators commuting with a set of root vectors, split into summands."""

    summands: tuple              # RootSubsystem, ...
    abelian_vectors: np.ndarray  # orthonormal commuting Cartan directions (D-dim rows)
    generator_indices: tuple     # all semisimple-part generator indices in the centralizer

    @property
    def dimension(self) -> int:
        """The summands' root pairs and Cartan directions, and the Abelian ones."""
        return sum(s.dimension for s in self.summands) + self.abelian_vectors.shape[0]

    @property
    def shapes(self) -> tuple:
        return tuple((s.family, s.rank) for s in self.summands)


def _commutes_exactly(rs: RootSystem, root: Root, theta: Root) -> bool:
    """[E_{+-root}, E_{+-theta}] = 0: root +- theta is neither a root nor 0.

    A non-zero inner product makes root - theta or root + theta a root or 0
    (the theta-string through root), so only orthogonal roots are looked up.
    """
    if root.dot(theta):
        return False
    return not any(rs.is_root(tuple(a + sgn * b for a, b in zip(root.coords, theta.coords)))
                   for sgn in (1, -1))


def _commuting_roots(rep: AlgebraRep, roots: Iterable[Root], thetas: Sequence[Root]) -> list:
    """The roots whose basis elements commute with E_{+-theta} for every theta.

    t_A commutes with E_{+-theta} when f[A, t, :] = 0 for both basis indices
    t of theta.  This test on f must agree with the exact one, that
    root +- theta is neither a root nor 0 for every theta; a disagreement
    raises DecompositionMismatchError."""
    coo = rep.structure_constants().coo
    of_theta = np.zeros(coo.dim, dtype=bool)
    for t in thetas:
        ent = rep.root_entry(t)
        of_theta[[ent.re_index, ent.im_index]] = True
    moved = np.zeros(coo.dim, dtype=bool)
    moved[coo.index[of_theta[coo.index[:, 1]], 0]] = True
    rs = rep.root_system
    commuting = []
    for root in roots:
        ent = rep.root_entry(root)
        ok = not (moved[ent.re_index] or moved[ent.im_index])
        if ok != all(_commutes_exactly(rs, root, t) for t in thetas):
            raise DecompositionMismatchError(
                f"root {root} against {', '.join(map(str, thetas))}: "
                "commutator test and root combinatorics disagree")
        if ok:
            commuting.append(root)
    return commuting


def centralizer(rep: AlgebraRep, thetas: Iterable[Root]) -> CentralizerDecomposition:
    """All semisimple-part basis elements X with [X, E_{+-theta}] = 0 for every theta.

    Cross-checked against the root combinatorics: the commuting root pairs
    must be exactly the roots whose sum and difference with every theta are
    neither roots nor 0, and for a single highest root the summand shapes
    must match the extended-diagram surgery.
    """
    thetas = list(thetas)
    rs = rep.root_system
    commuting_roots = _commuting_roots(rep, rs.positive_roots, thetas)
    indices = [i for root in commuting_roots
               for i in (rep.root_entry(root).re_index, rep.root_entry(root).im_index)]

    summands = split_subsystems(rs, tuple(commuting_roots))
    if len(thetas) == 1 and thetas[0].coords == rs.highest_root.coords:
        surgery = extended_dynkin_surgery(rs)
        if sorted(surgery.shapes) != sorted((s.family, s.rank) for s in summands):
            raise DecompositionMismatchError(
                f"centralizer shapes {[(s.family, s.rank) for s in summands]} disagree "
                f"with diagram surgery {surgery.shapes}")

    # commuting Cartan directions: orthogonal to every theta and summand
    # Cartan span, by one Gram-Schmidt pass over those and then the unit axes
    n = len(rep.csa_indices)
    rows = [rep.eigen_coords(r)[:n] for r in thetas + [
        simple for s in summands for simple in s.simple_roots]]
    span, leftover = [], []
    for k, v in enumerate(rows + list(np.eye(n))):
        for b in span:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            span.append(v / norm)
            if k >= len(rows):
                leftover.append(span[-1])
    abelian = np.zeros((len(leftover), rep.dim))
    abelian[:, list(rep.csa_indices)] = np.reshape(leftover, (-1, n))
    return CentralizerDecomposition(
        summands=summands, abelian_vectors=abelian, generator_indices=tuple(sorted(indices)))


def basic_roots(rep: AlgebraRep) -> tuple:
    """The nodes of the iterated highest-root chain, numerically cross-checked
    level by level.

    For every node, the roots of its subsystem whose basis elements commute with
    E_{+-theta} must be exactly the positive roots of the child subsystems found
    combinatorially, and the basic coroots must be mutually orthogonal.
    """
    nodes = chain_nodes(rep.chain_levels)
    if not nodes:
        raise PairingError(f"no basic roots: the algebra is {rep.u1_count} u(1) factor(s) "
                           "and no simple factor")
    for node in nodes:
        got = {r.coords for r in _commuting_roots(rep, node.subsystem.positive_roots,
                                                  [node.theta])}
        want = {r.coords for c in node.children for r in c.subsystem.positive_roots}
        if got != want:
            raise DecompositionMismatchError(
                f"chain node {node.label}: centralizer and children differ on roots "
                f"{sorted(got ^ want)}")
    w = np.array([rep.eigen_coords(n.theta) for n in nodes])
    resid = float(np.abs(np.triu(w @ w.T, 1)).max())
    if resid > 1e-9:
        raise DecompositionMismatchError(f"basic coroots are not orthogonal: {resid:.2e}")
    return nodes


def make_csa_pairing(rep: AlgebraRep, quotient: Sequence[int] = ()) -> tuple:
    """(t, e) generator-index pairs: the coroot axis of each basic root outside
    the quotient, in chain order, with one leftover Cartan/u(1) axis outside it.

    `quotient` holds the generator indices of a quotiented subalgebra.
    """
    removed = set(quotient)
    t_idx = [rep.coroot_axis_index(n.theta) for n in chain_nodes(rep.chain_levels)]
    t_idx = [i for i in t_idx if i not in removed]
    e_idx = [ax.index for ax in rep.csa_axes
             if ax.kind in ("abelian", "u1")
             and ax.index not in removed and ax.index not in t_idx]
    missing = len(t_idx) - len(e_idx)
    if missing:
        need = (f"requires {missing} more u(1) factor(s)" if missing > 0
                else f"{-missing} u(1) factor(s) too many")
        raise PairingError(
            f"cannot pair {len(t_idx)} basic coroot(s) with {len(e_idx)} leftover "
            f"Cartan/u(1) direction(s); {need}")
    return tuple(zip(t_idx, e_idx))


# ---------------------------------------------------------------------------
# the quaternion triple

@dataclass(eq=False)
class TripleResult:
    """I, J, K on the whole algebra; every residual, and `dimension`, refers
    to the directions outside the quotient."""

    I: ComplexStructure
    J: ComplexStructure
    K: ComplexStructure
    automorphisms: tuple
    quaternion_residual: float
    k_mismatch: float
    reports: dict        # "I"/"J"/"K" -> GeometryResidualReport
    dimension: int
    invariance_leak: float
    coset_closure: float
    failure: tuple | None  # (check, value, bound) of the first failed check
    message: str

    @property
    def certified(self) -> bool:
        return self.failure is None


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
    Omega.  Residuals beyond tolerance yield certified=False, not an exception;
    an `fd_step` outside [MIN_FD_STEP, MAX_FD_STEP] raises ValueError.
    """
    if fd_step:
        cstruct._check_fd_step(fd_step)
    removed = set(quotient)
    nodes = [n for n in basic_roots(rep) if rep.coroot_axis_index(n.theta) not in removed]
    f = rep.structure_constants().coo

    I = canonical_I(rep, make_csa_pairing(rep, quotient))
    autos = tuple(automorphism_from_root(rep, n.theta, "J", n.level) for n in nodes)
    Jm = _conjugate(I.matrix, autos)
    Km = I.matrix @ Jm

    # every number below reads the tangent directions: all indices outside
    # the quotient, and for a group manifold all of them
    inside = np.ones(rep.dim, dtype=bool)
    inside[list(removed)] = False
    tangent, qidx = np.flatnonzero(inside), np.flatnonzero(~inside)
    on_tangent = np.ix_(tangent, tangent)
    autos_k = tuple(automorphism_from_root(rep, n.theta, "K", n.level) for n in nodes)
    k_mismatch = float(np.abs(Km - _conjugate(I.matrix, autos_k))[on_tangent].max())

    J = ComplexStructure(Jm, I.blocks).tagged()
    K = ComplexStructure(Km, I.blocks).tagged()
    structures = {"I": I.matrix, "J": Jm, "K": Km}

    leak = 0.0
    leak_note = ""
    for name, m in structures.items():
        sub = np.abs(m[np.ix_(qidx, tangent)])
        if sub.max(initial=0.0) > leak:
            leak = float(sub.max())
            qi, ti = np.unravel_index(np.argmax(sub), sub.shape)
            blk = next((b.description for b in I.blocks if tangent[ti] in b.indices),
                       f"index {tangent[ti]}")
            leak_note = f"{name} leaks out of {blk} into quotient index {qidx[qi]}"
        leak = max(leak, float(np.abs(m[np.ix_(tangent, qidx)]).max(initial=0.0)))
    a, b, c = f.index.T
    closure = float(np.abs(f.value[inside[a] & inside[b] & ~inside[c]]).max(initial=0.0))
    f = f.restrict(tangent)
    restricted = {k: m[on_tangent] for k, m in structures.items()}

    quat = cstruct.quaternion_residual(*restricted.values())
    reports = {}
    for (name, m), whole in zip(restricted.items(), (I, J, K)):
        nij = None
        if fd_step and not removed:
            try:
                nij = cstruct.nijenhuis_at_origin(rep, whole, fd_step)
            except ValueError:      # above the snap bound, which the snap check reports
                nij = float("inf")
        reports[name] = cstruct.geometry_report(m, f, tol, nijenhuis=nij)

    failure = cstruct.first_failure(
        [("quaternion", quat), ("invariance_leak", leak)]
        + [(f"{name}.{check}", value) for name, r in reports.items()
           for check, value in r.to_json_dict().items()], tol)
    message = "{} {:.2g} above {:g}".format(*failure) if failure else ""
    if leak > cstruct.BOUNDS["invariance_leak"](tol):   # then failure is set too
        message += "; " + leak_note
    return TripleResult(I=I, J=J, K=K, automorphisms=autos,
                        quaternion_residual=quat, k_mismatch=k_mismatch,
                        reports=reports, dimension=len(tangent),
                        invariance_leak=leak, coset_closure=closure,
                        failure=failure, message=message)
