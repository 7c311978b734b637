"""Dense forms of the construction and certificate kernels, kept as test oracles.

`hktlie.liealg` computes f_ABC and the closure check by sparse joins over the
non-zero generator entries, and writes each root vector in closed form.
`hktlie.cstruct` holds a structure as its signed permutation, composes
permutations for the quaternion check, and evaluates integrability, Bismut
constancy, the hull torsion and the finite-difference Nijenhuis check over
the non-zero entries of f.  These are the same results computed densely:
row-at-a-time products for f and the closure, an SVD of the Cartan action
for a root vector, D x D products for the quaternion residual, (D, D, D)
einsum temporaries for the residuals, and D x D solves of the whole
vielbein for the Nijenhuis check, on any float matrix.  They are the
reference the fast kernels and closed forms must match, and the only way
to evaluate the checks on structures that are not signed permutations
(random negative controls, arbitrary antisymmetric matrices).  The
automorphisms Omega, which `hktlie.autom` reads from f in closed form and
keeps as one block on its support, are embedded here as D x D matrices,
composed densely, and computed afresh by conjugation in the representation
and a trace projection.  The float route to J and K, Omega I Omega^T
conjugated block by block and snapped to its nearest signed permutation,
is the reference for the closed form that `hktlie.cstruct.canonical_I`
reads off f.  The canonical structure, which
`hktlie.cstruct.canonical_I` builds in one walk of the chain, is built here
from a separate pairing, signed permutation and block walk, on any pairs of
Cartan/u(1) axes, its block signs read off the float route.  Beside them sit the references that only the
tests use: a pure u(1) algebra, so(n) built on its rotation generators (the
generic basis that the direct B and D vector build must reproduce, and the
B3 spinor on the gamma matrices), f recomputed from the generators, the
Jacobi identity, the 4x4 block shapes of a structure, the basic-root chain
from a pairwise join of the roots orthogonal to each highest root, the
Chevalley and coroot-periodicity checks in the representation, the
Hadamard series, the second-order metric and vielbein with the exact
Killing metric, the coordinate field of a structure, random complex
structures and the 4x4 self-duality check.
"""

import inspect
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from hktlie import autom
from hktlie import rootsys as R
from hktlie.cstruct import (
    DEFAULT_TOL, Block, ComplexStructure, PairingError, _hull_terms, _integrability_terms,
    _max_abs, _sum_by_key)
from hktlie.liealg import (
    F_ZERO, AlgebraRep, ConstructionError, StructureConstants, _build_matrix_rep,
    _commutator_entries, _eij, _flat_transposes, _structure_constants, _zero_extend)


def _matrix_of(x) -> np.ndarray:
    return x.matrix if isinstance(x, ComplexStructure) else np.asarray(x, dtype=float)


def signed_permutation(matrix) -> tuple:
    """(perm, sign, snap): the signed permutation with the entry sign[j] in
    row perm[j] of column j, read off the largest entry of each column, and
    snap, the largest entry of |matrix - that permutation|.

    Columns that peak in a repeated row leave the matrix at least 0.5 from
    every signed permutation, so the snap is then at least 0.5.
    """
    m = np.asarray(matrix, dtype=float)
    cols = np.arange(m.shape[1])
    perm = np.abs(m).argmax(axis=0)
    sign = np.where(m[perm, cols] < 0, -1.0, 1.0)
    diff = m.copy()
    diff[perm, cols] -= sign
    snap = float(np.abs(diff).max(initial=0.0))
    if np.bincount(perm).max(initial=0) > 1:
        snap = max(snap, 0.5)
    return perm, sign, snap


def structure_of(matrix, blocks: tuple = ()) -> ComplexStructure:
    """The structure of a float matrix that is a signed permutation to
    within 1e-12."""
    perm, sign, snap = signed_permutation(matrix)
    assert snap <= 1e-12, snap
    return ComplexStructure(perm, sign, blocks)


# ---------------------------------------------------------------------------
# construction kernels

def build_abelian_rep(u1_count: int) -> AlgebraRep:
    """A pure product of u(1) factors (a degenerate test algebra)."""
    if u1_count < 1:
        raise ValueError("need at least one u(1) factor")
    zero = AlgebraRep(
        family="U1", rank=0, u1_count=0, rep_kind="diagonal", matrix_dim=0, norm_const=1.0,
        generators=np.zeros((0, 0, 0), dtype=complex), csa_indices=(), u1_indices=(),
        root_system=None, chain_levels=(), root_table={}, csa_axes=(),
        _structure=StructureConstants(np.zeros((0, 3), dtype=int), np.zeros(0), 0))
    return _zero_extend(zero, u1_count)


def with_fields(rep: AlgebraRep, **changes) -> AlgebraRep:
    """A new AlgebraRep holding the constructor fields of `rep`, with
    `changes` in place of some: a built rep is read-only."""
    names = inspect.signature(AlgebraRep).parameters
    assert set(changes) <= set(names), set(changes) - set(names)
    return AlgebraRep(**{name: changes[name] if name in changes else getattr(rep, name)
                         for name in names})


def rotation_basis(rank: int, n: int, rotations: dict, kind: str) -> tuple:
    """so(n) in the representation whose rotation generators T_ab (a < b) are
    `rotations`: i(E_ab - E_ba) in the vector representation, i gamma_a
    gamma_b / 2 in the spinor one, with the same brackets; the tuple is the
    (d, embed, root_vector, kind) of `liealg._raw_basis`.

    The root vector of e_k +- e_l is v w^T - w v^T for the weight vectors
    (e_2k -+ i e_2k+1)/sqrt2 of +-e_k, and w = e_(2 rank), the zero weight,
    for B's short root e_k; an antisymmetric c stands for
    -i sum_{a<b} c_ab T_ab.
    """
    pairs = np.array(list(rotations)).T
    stack = np.stack(list(rotations.values()))
    cartan = np.stack([rotations[(2 * k, 2 * k + 1)] for k in range(rank)])

    def embed(w):
        return np.tensordot(w, cartan, 1)

    def weight(k, s):
        u = np.zeros(n, dtype=complex)
        u[2 * k], u[2 * k + 1] = np.sqrt(0.5), -1j * s * np.sqrt(0.5)
        return u

    def root_vector(a):
        k, l = np.flatnonzero(a)[[0, -1]]
        v = weight(k, 1)
        w = weight(l, a[l]) if l != k else np.eye(n)[2 * rank]
        c = np.outer(v, w) - np.outer(w, v)
        return -1j * np.tensordot(c[tuple(pairs)], stack, 1)

    return stack.shape[-1], embed, root_vector, kind


def build_rotation_vector_rep(family: str, rank: int) -> AlgebraRep:
    """B or D in the vector representation, with every root vector and Cartan
    matrix summed over the stacked rotation generators i(E_ab - E_ba)."""
    n = 2 * rank + 1 if family == "B" else 2 * rank
    rotations = {(a, b): 1j * (_eij(n, a, b) - _eij(n, b, a))
                 for a in range(n) for b in range(a + 1, n)}
    return _build_matrix_rep(family, rank, rotation_basis(rank, n, rotations, "vector"))


@dataclass(eq=False)
class CliffordRep:
    """Seven anticommuting Hermitian gamma matrices and the spin generators."""

    gammas: tuple
    spin_generators: dict   # (j, k), j < k -> i gamma_j gamma_k / 2


def build_clifford(dimension: int) -> CliffordRep:
    if dimension != 7:
        raise R.UnsupportedAlgebraError("only the 7-dimensional Clifford algebra is provided")
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    gam = [s1, s2, s3]
    while len(gam) < dimension:
        one = np.eye(gam[0].shape[0], dtype=complex)
        gam = [np.kron(g, s3) for g in gam[:-1]] + [np.kron(gam[-1], s3),
                                                    np.kron(one, s1), np.kron(one, s2)]
    gammas = tuple(gam)
    spin = {}
    for j in range(dimension):
        for k in range(j + 1, dimension):
            spin[(j, k)] = 1j * gammas[j] @ gammas[k] / 2.0
    return CliffordRep(gammas=gammas, spin_generators=spin)


def build_spinor_rep() -> AlgebraRep:
    """spin(7) on its 8-dimensional spinor, uncached, through the library's
    Chevalley, Cartan, f and closure steps: the faithful choice for coroot
    periodicity checks."""
    return _build_matrix_rep(
        "B", 3, rotation_basis(3, 7, build_clifford(7).spin_generators, "spinor"))


def structure_constants(rep: AlgebraRep) -> StructureConstants:
    """f recomputed from the generators of `rep` by the library's sparse
    kernel, as the build computes it, ignoring the f that `rep` holds."""
    return _structure_constants(rep.generators, rep.norm_const,
                                _commutator_entries(rep.generators))


def jacobi_residual(sc: StructureConstants) -> float:
    """max |f_ABE f_ECD + f_BCE f_EAD + f_CAE f_EBD| without a D^4 blow-up."""
    f = sc.f
    ad = f.transpose(0, 2, 1)  # ad[a][c,b] = f_abc
    worst = 0.0
    for a in range(sc.dim):
        lhs = ad[a] @ ad - ad @ ad[a]          # [ad_a, ad_b] stacked over b
        rhs = np.einsum("be,ecd->bcd", f[a], ad)
        worst = max(worst, np.abs(lhs - rhs).max())
    return worst


def structure_constants_rows(gens: np.ndarray, norm_const: float) -> np.ndarray:
    """Dense f_ABC = -(i/C) Tr([t_A, t_B] t_C), validated to be real.

    With T_abc = Tr(t_a t_b t_c), cyclicity gives Tr(t_b t_a t_c) = T_acb, so
    row a of f is -(i/C)(T_a - T_a^T); one (D, D) slice of T and the
    (D, d, d) products t_a t_b are held at a time.  Entries at or below
    F_ZERO are set to exact zero.
    """
    D = gens.shape[0]
    gT = _flat_transposes(gens)
    f = np.empty((D, D, D))
    imag = 0.0
    for a in range(D):
        t = (gens[a] @ gens).reshape(D, -1) @ gT
        row = -1j / norm_const * (t - t.T)
        imag = max(imag, float(np.abs(row.imag).max()))
        real = row.real
        real[np.abs(real) <= F_ZERO] = 0.0
        f[a] = real
    if imag > 1e-11:
        raise ConstructionError("structure constants are not real")
    return f


def closure_residual_rows(gens: np.ndarray, f: np.ndarray) -> float:
    """max |[t_a, t_b] - i f_abc t_c| over all a, b, one row a at a time."""
    D = gens.shape[0]
    flat = gens.reshape(D, -1)
    closure = 0.0
    for a in range(D):
        comm = (gens[a] @ gens - gens @ gens[a]).reshape(D, -1)
        closure = max(closure, float(np.abs(comm - 1j * (f[a] @ flat)).max()))
    return closure


def root_eigenvector_svd(ad_mats, target, noncsa) -> np.ndarray:
    """The root vector of eigenvalue `target` from the SVD of the stacked
    (rank m, m) matrix of ad_k - target_k; refused when no vector has that
    eigenvalue or its root space is degenerate."""
    m = ad_mats[0].shape[0]
    stack = np.vstack([ad - t * np.eye(m) for ad, t in zip(ad_mats, target)])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s[-1] > 1e-8:
        raise ConstructionError(f"no root vector found for eigenvalue {target}")
    if m > 1 and s[-2] < 1e-6:
        raise ConstructionError(f"degenerate root space for eigenvalue {target}")
    v = vh[-1].conj()
    return sum(vk * g for vk, g in zip(v, noncsa))


# ---------------------------------------------------------------------------
# the canonical structure from three walks of the chain

def reference_pairing(rep: AlgebraRep, quotient: Sequence[int] = ()) -> tuple:
    """(t, e) generator-index pairs: the coroot axis of each basic root outside
    the quotient, in chain order, with one leftover Cartan/u(1) axis outside it."""
    removed = set(quotient)
    t_idx = [rep.coroot_axis_index(n.theta) for n in R.chain_nodes(rep.chain_levels)]
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


def reference_blocks(rep: AlgebraRep, pairs: Sequence[tuple], J: np.ndarray) -> tuple:
    """Theta blocks and root quartets of every chain node, in generator
    indices: each pair mu + nu = theta of the node's positive roots, taken
    once.  A block's sign is the entry J[b2, b0] of the float J on the whole
    algebra, rounded: J e_b0 = sign e_b2 on +-J0."""
    blocks = []
    partner = dict(pairs)
    for node in R.chain_nodes(rep.chain_levels):
        theta = node.theta
        ent = rep.root_entry(theta)
        order = {r.coords: i for i, r in enumerate(node.positive_roots)}
        t = rep.coroot_axis_index(theta)
        if t in partner:
            indices = (ent.re_index, ent.im_index, t, partner[t])
            blocks.append(Block(indices, "theta", node.level, f"theta block {node.label}",
                                int(np.rint(J[indices[2], indices[0]]))))
        seen = set()
        for mu in node.positive_roots:
            rest = tuple(a - b for a, b in zip(theta.coords, mu.coords))
            if rest not in order or mu.coords in seen or rest in seen or mu.dot(theta) == 0:
                continue
            nu = node.positive_roots[order[rest]]
            first, second = (mu, nu) if order[mu.coords] < order[rest] else (nu, mu)
            e1, e2 = rep.root_entry(first), rep.root_entry(second)
            blocks.append(Block((e1.re_index, e1.im_index, e2.re_index, e2.im_index),
                                "quartet", node.level,
                                f"quartet ({first}, {second}) of {node.label}",
                                int(np.rint(J[e2.re_index, e1.re_index]))))
            seen.add(mu.coords)
            seen.add(rest)
    return tuple(blocks)


def reference_canonical_I(rep: AlgebraRep, quotient: Sequence[int] = (),
                          pairs: Sequence[tuple] | None = None) -> ComplexStructure:
    """The canonical structure on the directions outside `quotient`, from the
    pairing, the signed permutation and the blocks in three walks: -i on
    every positive root vector, t -> e on each (t, e) of `pairs`, by default
    `reference_pairing`; its blocks take their signs from the float J,
    `conjugated(rep, I)`."""
    if pairs is None:
        pairs = reference_pairing(rep, quotient)
    perm = np.full(rep.dim, -1)
    sign = np.ones(rep.dim)
    for j, k in [(e.re_index, e.im_index) for e in rep.root_table.values()] + list(pairs):
        perm[j], perm[k] = k, j
        sign[k] = -1.0
    inside = np.ones(rep.dim, dtype=bool)
    inside[list(quotient)] = False
    tangent = np.flatnonzero(inside)
    lost = tangent[(perm[tangent] < 0) | ~inside[perm[tangent]]]
    if lost.size:
        raise PairingError(f"generator(s) {lost.tolist()} outside the quotient have no "
                           "partner outside it")
    whole = np.zeros((rep.dim, rep.dim))
    whole[perm[tangent], tangent] = sign[tangent]
    J = conjugated(rep, whole, quotient)
    number = np.cumsum(inside) - 1
    blocks = tuple(Block(tuple(int(number[i]) for i in b.indices), b.kind, b.level,
                         b.description, b.sign)
                   for b in reference_blocks(rep, pairs, J) if inside[list(b.indices)].all())
    return ComplexStructure(number[perm[tangent]], sign[tangent], blocks=blocks)


# ---------------------------------------------------------------------------
# certificate residuals on float matrices

#: 4x4 blocks in the basis (t_A, t_A*, t_B, t_B*) or (t_A, t_A*, t_k, e_k)
SCRIPT_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
SCRIPT_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
SCRIPT_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)

_BLOCK_TAGS = (
    ("script-I", SCRIPT_I), ("script-J", SCRIPT_J), ("minus-script-J", -SCRIPT_J),
    ("script-K", SCRIPT_K), ("minus-script-K", -SCRIPT_K),
)
#: the largest entry of |block - reference| that still earns the reference's tag
BLOCK_TAG_TOL = 1e-8


def block_tags(X) -> list:
    """The shape of each block of the structure X: the first `_BLOCK_TAGS`
    name within BLOCK_TAG_TOL of it, else "other"."""
    m = X.matrix
    tags = []
    for b in X.blocks:
        sub = m[np.ix_(b.indices, b.indices)]
        tags.append(next((name for name, ref in _BLOCK_TAGS
                          if np.abs(sub - ref).max() <= BLOCK_TAG_TOL), "other"))
    return tags


def quaternion_residual(I, J, K) -> float:
    """max over p,q of ||I_p I_q + delta_pq - eps_pqs I_s||_F on float matrices."""
    mats = [_matrix_of(x) for x in (I, J, K)]
    d = mats[0].shape[0]
    eye = np.eye(d)
    eps = np.zeros((3, 3, 3))
    for p, q, s, v in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)):
        eps[p, q, s] = v
    worst = 0.0
    for p in range(3):
        for q in range(3):
            r = mats[p] @ mats[q] + (eye if p == q else 0.0)
            for s in range(3):
                if eps[p, q, s]:
                    r = r - eps[p, q, s] * mats[s]
            worst = max(worst, float(np.linalg.norm(r)))
    return worst



def _f_of(x) -> np.ndarray:
    return x.f if isinstance(x, StructureConstants) else np.asarray(x, dtype=float)


def integrability_residual(I, f) -> float:
    """max |f_ABC - I_AD I_BE f_DEC - I_BD I_CE f_DEA - I_CD I_AE f_DEB|."""
    i = _matrix_of(I)
    ff = _f_of(f)
    t1 = np.einsum("ad,be,dec->abc", i, i, ff, optimize=True)
    resid = ff - t1 - t1.transpose(2, 0, 1) - t1.transpose(1, 2, 0)
    return float(np.abs(resid).max())


def _di_from_field(I: np.ndarray, f: np.ndarray) -> np.ndarray:
    """dI[P, M, N] = d_P I_MN of the group-covariant field at the origin."""
    t = np.einsum("mq,nqp->pmn", I, f, optimize=True)
    return 0.5 * (t - t.transpose(0, 2, 1))


def bismut_residual(I, f) -> float:
    """Residual of the covariant constancy under the torsionful connection;
    vanishes identically for any antisymmetric I by cyclicity of f."""
    i = _matrix_of(I)
    ff = _f_of(f)
    di = _di_from_field(i, ff)
    conn = 0.5 * (np.einsum("qpm,qn->pmn", ff, i, optimize=True)
                  + np.einsum("qpn,mq->pmn", ff, i, optimize=True))
    return float(np.abs(di - conn).max())


def hull_torsion(I, f) -> np.ndarray:
    """C_MNP = I_M^Q I_N^S I_P^R (d_Q I_SR + d_S I_RQ + d_R I_QS) at the origin."""
    i = _matrix_of(I)
    di = _di_from_field(i, _f_of(f))
    g = di + di.transpose(1, 2, 0) + di.transpose(2, 0, 1)
    return np.einsum("mq,ns,pr,qsr->mnp", i, i, i, g, optimize=True)


class IntegrabilityError(ValueError):
    """A torsion computation was requested for a non-integrable structure."""


def torsion_via_hull(I, f, tol: float = DEFAULT_TOL) -> np.ndarray:
    """`hull_torsion`, refused for a structure that is not integrable."""
    resid = integrability_residual(I, f)
    if resid > tol:
        raise IntegrabilityError(
            f"torsion formula needs an integrable structure; integrability residual {resid:.3e}")
    return hull_torsion(I, f)


def torsion_match(I, f) -> float:
    """max |C - f| of the hull torsion."""
    return float(np.abs(hull_torsion(I, f) - _f_of(f)).max())


def coo_torsion_via_hull(I, f, tol: float = DEFAULT_TOL) -> np.ndarray:
    """`torsion_via_hull` from the COO kernel of `hktlie.cstruct`: the hull
    terms of the signed permutation of I over the non-zero entries of f,
    summed by index triple into a dense (D, D, D) array."""
    perm, sign = I.perm, I.sign
    resid = _max_abs(f.dim, _integrability_terms(perm, sign, f))
    if resid > tol:
        raise IntegrabilityError(
            f"torsion formula needs an integrable structure; integrability residual {resid:.3e}")
    keys, sums = _sum_by_key(f.dim, _hull_terms(perm, sign, f))
    out = np.zeros(f.dim ** 3)
    out[keys] = sums
    return out.reshape((f.dim,) * 3)


# ---------------------------------------------------------------------------
# the finite-difference Nijenhuis check on dense (D, D, D) arrays

#: directions per batched solve in _field_differences; bounds its
#: (block, D, D) temporaries independently of D
_FD_BLOCK = 16


def _field_differences(f: np.ndarray, I: np.ndarray, steps: Sequence[float]) -> list:
    """d[m] = (field(h e_m) - field(-h e_m)) / 2h of the coordinate field
    e I e^-1, one (D, D, D) array per step h in `steps`.

    At x = +-h e_m the vielbein of `vielbein_at` is
    e = 1 -+ (h/2) F_m - (h^2/6) F_m F_m^T with F_m = f[:, m, :], so the field
    of a block of directions is one batched product and one batched solve,
    and every step shares F_m and F_m F_m^T.
    """
    D = f.shape[0]
    eye = np.eye(D)
    out = [np.empty((D, D, D)) for _ in steps]
    for lo in range(0, D, _FD_BLOCK):
        F = f[:, lo:lo + _FD_BLOCK, :].transpose(1, 0, 2)
        n = F.shape[0]
        quad = F @ F.transpose(0, 2, 1)
        for h, d in zip(steps, out):
            e = np.concatenate((eye - h / 2 * F - h * h / 6 * quad,
                                eye + h / 2 * F - h * h / 6 * quad))
            # (e I e^-1)^T = e^-T (e I)^T
            field = np.linalg.solve(e.transpose(0, 2, 1), (e @ I).transpose(0, 2, 1))
            d[lo:lo + n] = (field[:n] - field[n:]).transpose(0, 2, 1) / (2 * h)
    return out


def nijenhuis_dense(rep: AlgebraRep, I, step: float = 1e-4) -> float:
    """max |N_MN^K| at the identity from Richardson-extrapolated central
    differences of the coordinate field of I."""
    i0 = _matrix_of(I)
    d1, d2 = _field_differences(rep.structure_constants().f, i0, (step, step / 2))
    di = (4.0 * d2 - d1) / 3.0

    def nijenhuis(d):
        t1 = d - d.transpose(1, 0, 2)
        return t1 - np.einsum("mp,nq,pqk->mnk", i0, i0, t1, optimize=True)

    n_extrap = float(np.abs(nijenhuis(di)).max())
    n_coarse = float(np.abs(nijenhuis(d1)).max())
    if n_extrap > 10.0 * max(n_coarse, 1e-12) and n_extrap > 1e-8:
        warnings.warn(
            f"Richardson extrapolation diverged (step {step:g}): {n_coarse:.2e} -> {n_extrap:.2e}; "
            "the step size is probably too small or too large", RuntimeWarning)
    return n_extrap


# ---------------------------------------------------------------------------
# automorphisms as dense D x D matrices

def dense_omega(auto, dim: int) -> np.ndarray:
    """The D x D matrix of an automorphism: its block on its support, the
    identity elsewhere."""
    omega = np.eye(dim)
    omega[np.ix_(auto.support, auto.support)] = auto.block
    return omega


def conjugate(m: np.ndarray, automorphisms) -> np.ndarray:
    """Omega m Omega^T for Omega the ordered product of `automorphisms`,
    outermost level first (applied first), one block at a time: each touches
    only the rows and columns of its support."""
    m = m.copy()
    for a in sorted(automorphisms, key=lambda a: a.level):
        s, b = a.support, a.block
        m[s] = b @ m[s]
        m[:, s] = m[:, s] @ b.T
    return m


def conjugated(rep: AlgebraRep, m: np.ndarray, quotient: Sequence[int] = (),
               kind: str = "J") -> np.ndarray:
    """The float route of the triple: Omega m Omega^T on the whole algebra,
    Omega the `kind` automorphisms of the chain nodes whose coroot axis lies
    outside `quotient`.  With m the canonical I on the directions outside
    the quotient and 0 on it, kind "J" gives J and kind "K" gives K = I J."""
    removed = set(quotient)
    return conjugate(m, [autom.automorphism_from_root(rep, n.theta, kind, n.level)
                         for n in R.chain_nodes(rep.chain_levels)
                         if rep.coroot_axis_index(n.theta) not in removed])


def compose(automorphisms, dim: int) -> np.ndarray:
    """Ordered product of the dense matrices, outermost level first (applied first)."""
    total = np.eye(dim)
    for a in sorted(automorphisms, key=lambda a: a.level):
        total = dense_omega(a, dim) @ total
    return total


def commuting_roots(rep: AlgebraRep, roots, thetas) -> list:
    """The roots whose generators commute with E_{+-theta} for every theta,
    read from the dense f: [t_A, t_t] = i f_AtC t_C is 0 for both
    generators t_re and t_im of each theta."""
    f = rep.structure_constants().f
    ts = [i for t in map(rep.root_entry, thetas) for i in (t.re_index, t.im_index)]
    return [r for r in roots
            if not f[np.ix_([rep.root_entry(r).re_index, rep.root_entry(r).im_index], ts)].any()]


def orthogonality_residual(auto, dim: int) -> float:
    """max |Omega Omega^T - 1| of the dense matrix."""
    m = dense_omega(auto, dim)
    return float(np.abs(m @ m.T - np.eye(dim)).max())


def invariance_residual(auto, f) -> float:
    """max |Omega_DA Omega_EB Omega_FC f_DEF - f_ABC|: Omega preserves f."""
    ff = _f_of(f)
    m = dense_omega(auto, ff.shape[0])
    rotated = np.einsum("da,eb,fc,def->abc", m, m, m, ff, optimize=True)
    return float(np.abs(rotated - ff).max())


# ---------------------------------------------------------------------------
# automorphisms by conjugation in the representation

def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a Hermitian matrix h, from its eigendecomposition."""
    if np.abs(h - h.conj().T).max() > 1e-12 * max(np.abs(h).max(), 1.0):
        raise ValueError("exp_i_hermitian needs a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def adjoint_action(rep: AlgebraRep, u: np.ndarray) -> np.ndarray:
    """Omega_BA = Tr((U^dag t_A U) t_B) / C, the coefficient action of X -> U^dag X U."""
    g = rep.generators
    rotated = np.einsum("ij,ajk,kl->ail", u.conj().T, g, u, optimize=True)
    omega = np.einsum("aij,bji->ba", rotated, g, optimize=True) / rep.norm_const
    if np.abs(omega.imag).max() > 1e-10:
        raise RuntimeError("adjoint action is not real on the Hermitian basis")
    return np.ascontiguousarray(omega.real)


def conjugation_omega(rep: AlgebraRep, theta, kind: str) -> np.ndarray:
    """Omega of the theta rotation by group conjugation: U = exp(i pi/4
    (E + E^dag)) for J, exp(pi/4 (E - E^dag)) for K, from an eigh
    exponential of the root vector in the representation."""
    e = rep.root_vector(theta)
    h = e + e.conj().T if kind == "J" else -1j * (e - e.conj().T)
    return adjoint_action(rep, exp_i_hermitian(np.pi / 4.0 * h))


# ---------------------------------------------------------------------------
# root data, f and coroots checked afresh

def highest_root(rs):
    """Recompute the highest root by height and check maximality."""
    theta = max(rs.positive_roots, key=rs.height)
    assert theta == rs.highest_root
    for a in rs.simple_roots:
        up = tuple(x + y for x, y in zip(theta.coords, a.coords))
        if rs.is_root(up):
            raise RuntimeError(f"{theta} is not maximal: {theta} + {a} is a root")
    return theta


def antisymmetry_residual(sc: StructureConstants) -> float:
    """max |f_ABC + f_BAC| and |f_ABC + f_ACB| on the dense f."""
    f = sc.f
    return max(np.abs(f + f.transpose(1, 0, 2)).max(),
               np.abs(f + f.transpose(0, 2, 1)).max())


def u1_residual(sc: StructureConstants, u1_indices: Sequence[int]) -> float:
    """The largest |f| of an entry that touches a u(1) index."""
    touches = np.isin(sc.index, list(u1_indices)).any(axis=1)
    return float(np.abs(sc.value[touches]).max(initial=0.0))


def coroot_matrix(rep: AlgebraRep, root) -> np.ndarray:
    """The coroot of `root` as a matrix in the representation."""
    a = rep.eigen_coords(root)
    return np.tensordot(2.0 * a / (a @ a), rep.generators[[ax.index for ax in rep.csa_axes]], 1)


# ---------------------------------------------------------------------------
# the basic-root chain by a pairwise join of the orthogonal roots

def split_subsystems(positive) -> tuple:
    """Decompose a closed set of positive roots into irreducible summands:
    the components of the non-orthogonality graph over every pair of
    roots, each as the pair (positive roots, simple roots), by descending
    highest root, with the simple roots those that are no difference of
    two of its members and the heights walked up from them."""
    roots = list(positive)
    if not roots:
        return ()
    comp_of = list(range(len(roots)))

    def find(i):
        while comp_of[i] != i:
            comp_of[i] = comp_of[comp_of[i]]
            i = comp_of[i]
        return i

    for i, j in combinations(range(len(roots)), 2):
        if roots[i].dot(roots[j]) != 0:
            comp_of[find(i)] = find(j)

    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(roots[i])

    out = []
    for members in groups.values():
        coord_set = {r.coords for r in members}
        simples = [r for r in members if not any(
            tuple(a - b for a, b in zip(r.coords, s.coords)) in coord_set
            for s in members if s.coords != r.coords)]
        simples.sort(key=lambda r: tuple(-c for c in r.coords))
        coeffs = R._expand(coord_set, [s.coords for s in simples])
        heights = {c: sum(v) for c, v in coeffs.items()}
        members.sort(key=lambda r: (heights[r.coords], tuple(-c for c in r.coords)))
        top = members[-1]
        if sum(1 for r in members if heights[r.coords] == heights[top.coords]) != 1:
            raise RuntimeError("subsystem highest root is not unique")
        out.append((tuple(members), tuple(simples)))
    assert sum(len(members) for members, _ in out) == len(roots)
    out.sort(key=lambda pair: tuple(-c for c in pair[0][-1].coords))
    return tuple(out)


def reference_chain(rs) -> tuple:
    """Levels of the basic-root chain, each node's children split from its
    positive roots orthogonal to theta by `split_subsystems`."""
    def grow(positive, simple, family, rank, label, level):
        theta = positive[-1]
        children = []
        for members, simples in split_subsystems(r for r in positive if r.dot(theta) == 0):
            fam, rk = R._classify_shape(members, len(simples))
            children.append(grow(members, simples, fam, rk,
                                 f"{fam}{rk}:{rs.root_label(members[-1])}", level + 1))
        return R.ChainNode(positive_roots=positive, simple_roots=simple, family=family,
                           rank=rank, label=label, theta=theta, level=level,
                           children=tuple(children))

    levels = []
    frontier = (grow(rs.positive_roots, rs.simple_roots, rs.family, rs.rank,
                     f"{rs.family}{rs.rank}", 0),)
    while frontier:
        levels.append(frontier)
        frontier = tuple(c for node in frontier for c in node.children)
    return tuple(levels)


# ---------------------------------------------------------------------------
# root vectors and coroot periodicity in the representation

def chevalley_root_vectors(rep: AlgebraRep) -> dict:
    """Validate and return the stored root-vector table.

    Re-checks, for every positive root, the eigenvalue property
    [h, E_alpha] = alpha(h) E_alpha and the normalization
    [E_alpha, E_-alpha] = coroot(alpha).
    """
    for root in rep.root_system.positive_roots:
        e = rep.root_vector(root)
        a = rep.eigen_coords(root)
        for ax, ak in zip(rep.csa_axes, a):
            if ax.kind == "u1":
                continue
            h = rep.generators[ax.index]
            if np.abs(h @ e - e @ h - ak * e).max() > 1e-8:
                raise ConstructionError(f"E_{root} is not an eigenvector of the Cartan action")
        resid = np.abs(e @ e.conj().T - e.conj().T @ e - coroot_matrix(rep, root)).max()
        if resid > 1e-8:
            raise ConstructionError(f"E_{root} violates the Chevalley normalization")
    return dict(rep.root_table)


@dataclass(frozen=True)
class PeriodicityResult:
    period_ok: bool
    min_nontrivial: bool
    max_dev_at_period: float


def coroot_periodicity_check(rep: AlgebraRep, coroot_element: np.ndarray,
                             tol: float = 1e-9) -> PeriodicityResult:
    """exp(2 pi i h) = 1 and exp(i phi h) != 1 for phi in {pi/2, pi, 3pi/2}.

    Requires a representation that is faithful for the simply connected
    group; the vector representation of B/D would report a spurious period
    pi for the short coroots.
    """
    if rep.rep_kind == "vector":
        raise ValueError(
            f"the {rep.rep_kind} representation of {rep.family}{rep.rank} is not faithful "
            "for the simply connected group; use the defining (A/C) or spinor (B3) one")
    eye = np.eye(coroot_element.shape[0])
    at_period = np.abs(exp_i_hermitian(2 * np.pi * coroot_element) - eye).max()
    nontrivial = all(
        np.abs(exp_i_hermitian(phi * coroot_element) - eye).max() > 0.1
        for phi in (np.pi, np.pi / 2, 3 * np.pi / 2))
    return PeriodicityResult(period_ok=bool(at_period <= tol),
                             min_nontrivial=bool(nontrivial),
                             max_dev_at_period=float(at_period))


# ---------------------------------------------------------------------------
# series, exact-exponential and random references for the library's checks

def hadamard_adjoint(r: np.ndarray, x: np.ndarray, tol: float = 1e-16,
                     max_terms: int = 80) -> np.ndarray:
    """e^R X e^-R summed term by term; the series oracle for adjoint_action."""
    out = x.copy()
    term = x.copy()
    scale = max(np.abs(x).max(), 1.0)
    for n in range(1, max_terms):
        term = (r @ term - term @ r) / n
        out = out + term
        if np.abs(term).max() < tol * scale:
            return out
    raise RuntimeError("commutator series did not converge")


def metric_at(rep: AlgebraRep, x: Sequence[float]) -> np.ndarray:
    """Bi-invariant metric near the identity, to second order in x."""
    f = rep.structure_constants().f
    x = np.asarray(x, dtype=float)
    quad = np.einsum("mpq,npr,q,r->mn", f, f, x, x, optimize=True)
    return np.eye(rep.dim) - quad / 12.0


def vielbein_at(rep: AlgebraRep, x: Sequence[float]) -> np.ndarray:
    """Frame e_MA with e e^T = metric_at, to second order in x."""
    f = rep.structure_constants().f
    x = np.asarray(x, dtype=float)
    lin = -0.5 * np.einsum("mpa,p->ma", f, x, optimize=True)
    quad = -np.einsum("mpq,arq,p,r->ma", f, f, x, x, optimize=True) / 6.0
    return np.eye(rep.dim) + lin + quad


def killing_metric_exact(rep: AlgebraRep, x: Sequence[float], step: float = 1e-5) -> np.ndarray:
    """Killing metric (1/C) Tr(d_M w d_N w^-1) by central differences of the
    exact exponential map; the independent oracle for metric_at."""
    import scipy.linalg
    g = rep.generators
    x = np.asarray(x, dtype=float)

    def omega(y):
        return scipy.linalg.expm(1j * np.einsum("a,aij->ij", y, g))

    D = rep.dim
    dw = np.empty((D, rep.matrix_dim, rep.matrix_dim), dtype=complex)
    dwinv = np.empty_like(dw)
    for m in range(D):
        e = np.zeros(D)
        e[m] = step
        dw[m] = (omega(x + e) - omega(x - e)) / (2 * step)
        dwinv[m] = (np.linalg.inv(omega(x + e)) - np.linalg.inv(omega(x - e))) / (2 * step)
    return np.real(np.einsum("mij,nji->mn", dw, dwinv)) / rep.norm_const


def structure_field(rep: AlgebraRep, I, x: Sequence[float]) -> np.ndarray:
    """Mixed-index coordinate field I_M^N(x) = e_MA I_AB (e^-1)_B^N."""
    e = vielbein_at(rep, x)
    return e @ _matrix_of(I) @ np.linalg.inv(e)


def random_complex_structure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random antisymmetric orthogonal matrix squaring to -1 (not adapted
    to any root structure); the negative control for the residual checks."""
    if dim % 2:
        raise ValueError("complex structures need even dimension")
    rot = np.zeros((dim, dim))
    for k in range(dim // 2):
        rot[2 * k, 2 * k + 1] = -1.0
        rot[2 * k + 1, 2 * k] = 1.0
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    return q @ rot @ q.T


def self_duality_residual(X, eps_sign: float = 1.0) -> float:
    """||X_AB - 1/2 eps_ABCD X_CD|| for a 4x4 block, with eps_0123 = eps_sign."""
    x = _matrix_of(X)
    if x.shape != (4, 4):
        raise ValueError("self-duality is a 4x4 check")
    eps = np.zeros((4, 4, 4, 4))
    from itertools import permutations
    base = (0, 1, 2, 3)
    for perm in permutations(range(4)):
        sign = 1.0
        p = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if p[a] > p[b]:
                    sign = -sign
        eps[perm] = sign * eps_sign
    dual = 0.5 * np.einsum("abcd,cd->ab", eps, x)
    return float(np.abs(x - dual).max())
