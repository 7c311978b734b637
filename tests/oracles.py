"""Dense forms of the construction and certificate kernels, kept as test oracles.

`hktlie.liealg` computes f_ABC and the closure check by sparse joins over the
non-zero generator entries, and writes each root vector in closed form.
`hktlie.cstruct` evaluates integrability, Bismut constancy, the hull
torsion and the finite-difference Nijenhuis check on the signed permutation
of a structure over the non-zero entries of f.  These are the same results
computed densely: row-at-a-time products for f and the closure, an SVD of
the Cartan action for a root vector, (D, D, D) einsum temporaries for the
residuals, and D x D solves of the whole vielbein for the Nijenhuis check,
on any float matrix.  They are the reference the fast kernels and closed
forms must match, and the only way to evaluate the checks on structures
that are not signed permutations (random negative controls, arbitrary
antisymmetric matrices).  The automorphisms Omega, which `hktlie.autom`
reads from f in closed form and keeps as one block on its support, are
embedded here as D x D matrices, composed densely, and computed afresh by
conjugation in the representation and a trace projection.  The last
sections hold the references that only the tests use: the Chevalley and
coroot-periodicity checks in the representation, the Hadamard series, the
second-order metric and vielbein with the exact Killing metric, the
coordinate field of a structure, random complex structures and the 4x4
self-duality check.
"""

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hktlie.cstruct import (
    DEFAULT_TOL, _coo_of, _hull_terms, _integrability_terms, _matrix_of, _max_abs,
    _signed_of, _sum_by_key)
from hktlie.liealg import (
    F_ZERO, AlgebraRep, ConstructionError, StructureConstants, _flat_transposes)


# ---------------------------------------------------------------------------
# construction kernels

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
# certificate residuals


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
    perm, sign = _signed_of(I)
    coo = _coo_of(f)
    resid = _max_abs(coo.dim, _integrability_terms(perm, sign, coo))
    if resid > tol:
        raise IntegrabilityError(
            f"torsion formula needs an integrable structure; integrability residual {resid:.3e}")
    keys, sums = _sum_by_key(coo.dim, _hull_terms(perm, sign, coo))
    out = np.zeros(coo.dim ** 3)
    out[keys] = sums
    return out.reshape((coo.dim,) * 3)


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


def compose(automorphisms, dim: int) -> np.ndarray:
    """Ordered product of the dense matrices, outermost level first (applied first)."""
    total = np.eye(dim)
    for a in sorted(automorphisms, key=lambda a: a.level):
        total = dense_omega(a, dim) @ total
    return total


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
        resid = np.abs(e @ e.conj().T - e.conj().T @ e - rep.coroot_matrix(root)).max()
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
