"""Algebra automorphisms from group conjugation and the quaternion triple.

For a root theta with Chevalley vectors E_{+-theta}, conjugation by

    U = exp(i pi/4 (E_theta + E_-theta))        (J-kind)
    U = exp(  pi/4 (E_theta - E_-theta))        (K-kind)

induces an orthogonal matrix Omega on generator coefficients that preserves
the structure constants.  Composing the J-kind automorphisms of all basic
roots (outer level first) rotates the canonical complex structure I into an
anticommuting partner J; K = I J closes the quaternion algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import cstruct
from .cstruct import DEFAULT_TOL, ComplexStructure, PairingError, canonical_I
from .liealg import AlgebraRep, exp_i_hermitian
from .rootsys import Root, chain_nodes, extended_dynkin_surgery, split_subsystems


class DecompositionMismatchError(RuntimeError):
    """Commutator-based centralizer disagrees with the diagram surgery."""


@dataclass(eq=False)
class Automorphism:
    """Orthogonal action on generator coefficients, Omega t_A = sum_B Omega_BA t_B."""

    matrix: np.ndarray
    root: Root
    kind: str            # "J" | "K"
    level: int

    def orthogonality_residual(self) -> float:
        m = self.matrix
        return float(np.abs(m @ m.T - np.eye(m.shape[0])).max())

    def invariance_residual(self, f) -> float:
        ff = f.f if hasattr(f, "f") else np.asarray(f)
        m = self.matrix
        rotated = np.einsum("da,eb,fc,def->abc", m, m, m, ff, optimize=True)
        return float(np.abs(rotated - ff).max())


def adjoint_action(rep: AlgebraRep, u: np.ndarray) -> np.ndarray:
    """Omega_BA = Tr((U^dag t_A U) t_B) / C, the coefficient action of X -> U^dag X U."""
    g = rep.generators
    rotated = np.einsum("ij,ajk,kl->ail", u.conj().T, g, u, optimize=True)
    omega = np.einsum("aij,bji->ba", rotated, g, optimize=True) / rep.norm_const
    if np.abs(omega.imag).max() > 1e-10:
        raise RuntimeError("adjoint action is not real on the Hermitian basis")
    return np.ascontiguousarray(omega.real)


def automorphism_from_root(rep: AlgebraRep, theta: Root, kind: str = "J",
                           level: int = 0, tol: float = 1e-10) -> Automorphism:
    """The orthogonal generator action induced by the theta rotation."""
    e = rep.root_vector(theta)
    edag = e.conj().T
    if kind == "J":
        u = exp_i_hermitian(np.pi / 4.0 * (e + edag))
    elif kind == "K":                     # exp(pi/4 (e - e^dag)) = exp(i h), h Hermitian
        u = exp_i_hermitian(-1j * np.pi / 4.0 * (e - edag))
    else:
        raise ValueError(f"kind must be 'J' or 'K', got {kind!r}")
    omega = adjoint_action(rep, u)
    ortho = Automorphism(omega, theta, kind, level).orthogonality_residual()
    if ortho > tol:
        raise RuntimeError(
            f"automorphism for {theta} lost orthogonality: residual {ortho:.2e}")
    # one Newton-Schulz step towards the nearest orthogonal matrix takes out
    # the rounding that J = Omega I Omega^T would otherwise carry
    omega = 1.5 * omega - 0.5 * omega @ (omega.T @ omega)
    return Automorphism(matrix=omega, root=theta, kind=kind, level=level)


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
        return len(self.generator_indices) + self.abelian_vectors.shape[0]

    @property
    def shapes(self) -> tuple:
        return tuple((s.family, s.rank) for s in self.summands)


def _commuting_roots(rep: AlgebraRep, roots: Iterable[Root], thetas: Sequence[Root]) -> list:
    """The roots whose generators commute with E_{+-theta} for every theta.

    The numerical commutator test must agree with the exact one, orthogonality
    to every theta; a disagreement raises DecompositionMismatchError.
    """
    evs = [rep.root_vector(t) for t in thetas]
    evs += [e.conj().T for e in evs]
    bound = 1e-7 * max(np.abs(e).max() for e in evs)
    commuting = []
    for root in roots:
        ent = rep.root_entry(root)
        ok = all(np.abs(rep.generators[idx] @ e - e @ rep.generators[idx]).max() <= bound
                 for idx in (ent.re_index, ent.im_index) for e in evs)
        if ok != all(root.dot(t) == 0 for t in thetas):
            raise DecompositionMismatchError(
                f"root {root} against {', '.join(map(str, thetas))}: "
                "commutator test and orthogonality disagree")
        if ok:
            commuting.append(root)
    return commuting


def centralizer(rep: AlgebraRep, thetas: Iterable[Root]) -> CentralizerDecomposition:
    """All semisimple-part generators X with [X, E_{+-theta}] = 0 for every theta.

    Cross-checked against the root combinatorics: the commuting root pairs
    must be exactly the roots orthogonal to every theta, and for a single
    highest root the summand shapes must match the extended-diagram surgery.
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

    # commuting Cartan directions: theta(h) = 0, i.e. orthogonal to the
    # coroot directions of all thetas; exclude the summand Cartan spans
    csa_idx = list(rep.csa_indices)
    rows = []
    for t in thetas:
        a = rep.eigen_coords(t)
        rows.append(a[:len(csa_idx)])
    for s in summands:
        for simple in s.simple_roots:
            rows.append(rep.eigen_coords(simple)[:len(csa_idx)])
    rows = np.array(rows) if rows else np.zeros((0, len(csa_idx)))
    basis = []
    for k in range(len(csa_idx)):
        v = np.eye(len(csa_idx))[k]
        for r in rows:
            rn = r / np.linalg.norm(r)
            v = v - (rn @ v) * rn
        for b in basis:
            v = v - (b @ v) * b
        n = np.linalg.norm(v)
        if n > 1e-9:
            basis.append(v / n)
    abelian = np.zeros((len(basis), rep.dim))
    for i, v in enumerate(basis):
        for c, idx in zip(v, csa_idx):
            abelian[i, idx] = c
    return CentralizerDecomposition(
        summands=summands, abelian_vectors=abelian, generator_indices=tuple(sorted(indices)))


def basic_roots(rep: AlgebraRep) -> tuple:
    """The nodes of the iterated highest-root chain, numerically cross-checked
    level by level.

    For every node, the roots of its subsystem whose generators commute with
    E_{+-theta} must decompose into exactly the child subsystems found
    combinatorially, and the basic coroots must be mutually orthogonal.
    """
    nodes = chain_nodes(rep.chain_levels)
    rs = rep.root_system
    for node in nodes:
        commuting = _commuting_roots(rep, node.subsystem.positive_roots, [node.theta])
        got = sorted(s.highest_root.coords for s in split_subsystems(rs, tuple(commuting)))
        want = sorted(c.theta.coords for c in node.children)
        if got != want:
            raise DecompositionMismatchError(
                f"chain node {node.label}: children {want} vs centralizer result {got}")
    w = np.array([rep.eigen_coords(n.theta) for n in nodes])
    gram = w @ w.T
    resid = float(np.abs(gram - np.diag(np.diag(gram))).max())
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
    if len(e_idx) != len(t_idx):
        raise PairingError(
            f"cannot pair {len(t_idx)} basic coroot(s) with {len(e_idx)} leftover "
            f"Cartan/u(1) direction(s); requires {len(t_idx) - len(e_idx)} more u(1) factor(s)")
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


def compose(automorphisms: Sequence[Automorphism], dim: int) -> np.ndarray:
    """Ordered product, outermost level first (applied first)."""
    total = np.eye(dim)
    for a in sorted(automorphisms, key=lambda a: a.level):
        total = a.matrix @ total
    return total


def build_quaternion_triple(rep: AlgebraRep, tol: float = DEFAULT_TOL,
                            fd_step: float | None = None,
                            quotient: Sequence[int] = ()) -> TripleResult:
    """I, J = Omega I Omega^T, K = I J, with all residuals evaluated.

    `quotient` holds the generator indices of the quotiented subalgebra (none
    for a group manifold); chain nodes whose coroot axis it holds drop out of
    Omega.  Residuals beyond tolerance yield certified=False, not an exception.
    """
    removed = set(quotient)
    nodes = [n for n in basic_roots(rep) if rep.coroot_axis_index(n.theta) not in removed]
    f = rep.structure_constants().coo

    I = canonical_I(rep, make_csa_pairing(rep, quotient))
    autos = tuple(automorphism_from_root(rep, n.theta, "J", n.level) for n in nodes)
    omega = compose(autos, rep.dim)
    Jm = omega @ I.matrix @ omega.T
    Km = I.matrix @ Jm

    autos_k = tuple(automorphism_from_root(rep, n.theta, "K", n.level) for n in nodes)
    omega_k = compose(autos_k, rep.dim)
    k_mismatch = float(np.abs(Km - omega_k @ I.matrix @ omega_k.T).max())

    J = ComplexStructure(Jm, I.blocks).tagged()
    K = ComplexStructure(Km, I.blocks).tagged()
    structures = {"I": I.matrix, "J": Jm, "K": Km}

    leak = closure = 0.0
    leak_note = ""
    if removed:
        qidx = sorted(removed)
        tangent = sorted(set(range(rep.dim)) - removed)
        for name, m in structures.items():
            sub = np.abs(m[np.ix_(qidx, tangent)])
            if sub.max() > leak:
                leak = float(sub.max())
                qi, ti = np.unravel_index(np.argmax(sub), sub.shape)
                blk = next((b.description for b in I.blocks if tangent[ti] in b.indices),
                           f"index {tangent[ti]}")
                leak_note = f"{name} leaks out of {blk} into quotient index {qidx[qi]}"
            leak = max(leak, float(np.abs(m[np.ix_(tangent, qidx)]).max()))
        inside = np.zeros(rep.dim, dtype=bool)
        inside[tangent] = True
        a, b, c = f.index.T
        closure = float(np.abs(f.value[inside[a] & inside[b] & ~inside[c]]).max(initial=0.0))
        f = f.restrict(tangent)
        restricted = {k: m[np.ix_(tangent, tangent)] for k, m in structures.items()}
    else:
        restricted = structures

    quat = cstruct.quaternion_residual(*restricted.values())
    reports = {}
    for name, m in restricted.items():
        nij = (cstruct.nijenhuis_at_origin(rep, structures[name], fd_step)
               if fd_step and not removed else None)
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
                        reports=reports, dimension=rep.dim - len(removed),
                        invariance_leak=leak, coset_closure=closure,
                        failure=failure, message=message)
