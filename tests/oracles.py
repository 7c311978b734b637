"""Dense einsum forms of the certificate residuals, kept as test oracles.

`hktlie.cstruct` evaluates integrability, Bismut constancy and the hull
torsion on the signed permutation of a structure over the non-zero entries
of f.  These are the same formulas contracted densely on any float matrix,
with (D, D, D) temporaries: the reference the sparse kernels must match, and
the only way to evaluate the checks on structures that are not signed
permutations (random negative controls, arbitrary antisymmetric matrices).
"""

import numpy as np

from hktlie.cstruct import DEFAULT_TOL, IntegrabilityError, _matrix_of
from hktlie.liealg import StructureConstants


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
