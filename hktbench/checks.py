"""Checks of the program's outputs, computed apart from the program.

Every function returns a list of reasons; an empty list means the output
passed. Dimensions and u(1) paddings come from closed forms, the bounds
from the README's statement of when a certificate is `certified`, and the
high-rank algebra identities from the benchmark's own matrix products.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-9        # the CLI's default --tol
BISMUT_BOUND = 1e-12    # covariant constancy
LEAK_BOUND = 1e-12      # structures leaking out of the coset directions
NIJENHUIS_BOUND = 1e-5  # finite-difference field, Richardson-extrapolated
MATRIX_BOUND = 1e-12    # the benchmark's own quaternion and f_ABC identities
EXIT_CODES = {"certified": 0, "failed": 1, "not-admissible": 3}


def group_dim(family: str, rank: int) -> int:
    """Dimension of SU(r+1), Spin(2r+1), Sp(r) or Spin(2r)."""
    return {"A": rank * (rank + 2), "B": rank * (2 * rank + 1),
            "C": rank * (2 * rank + 1), "D": rank * (2 * rank - 1)}[family]


def basic_root_count(family: str, rank: int) -> int:
    """Length of the iterated highest-root chain.

    A_r: theta = e1 - e_{r+1} leaves A_{r-2}, so (r+1)//2 roots. B_r and
    C_r: r roots (2e_i for C; e1+e2 leaves A1 + B_{r-2} for B). D_r:
    e1+e2 leaves A1 + A1 + D_{r-2}, down to D3 = A3 or D2 = A1 + A1, so
    r roots for even r and r-1 for odd r.
    """
    if family == "A":
        return (rank + 1) // 2
    if family in ("B", "C"):
        return rank
    return rank if rank % 2 == 0 else rank - 1


def padding(family: str, rank: int) -> int:
    """u(1) factors that pair the Cartan directions off with the basic roots."""
    return 2 * basic_root_count(family, rank) - rank


def _too_big(value, bound) -> bool:
    return not isinstance(value, (int, float)) or not value <= bound


def certificate(cert: dict) -> list:
    """Residuals of one certified space against the README's bounds."""
    if cert.get("verdict") != "certified":
        return [f"verdict {cert.get('verdict')!r}: {cert.get('message', '')}"]
    reasons = []
    if set(cert["residuals"]) != {"I", "J", "K"}:
        reasons.append(f"residuals for {sorted(cert['residuals'])}, not I, J, K")
    for key, bound in (("quaternion", TOLERANCE), ("invariance_leak", LEAK_BOUND)):
        if _too_big(cert[key], bound):
            reasons.append(f"{key} {cert[key]} above {bound:g}")
    group_manifold = not cert["quotient"]
    for name, res in sorted(cert["residuals"].items()):
        bounds = {"integrability": TOLERANCE, "square": TOLERANCE,
                  "torsion_match": 10 * TOLERANCE, "bismut": BISMUT_BOUND}
        for key, bound in bounds.items():
            if _too_big(res[key], bound):
                reasons.append(f"{name}.{key} {res[key]} above {bound:g}")
        nij = res["nijenhuis"]
        if nij is not None and _too_big(nij, NIJENHUIS_BOUND):
            reasons.append(f"{name}.nijenhuis {nij} above {NIJENHUIS_BOUND:g}")
        if nij is not None and not group_manifold:
            reasons.append(f"{name}.nijenhuis reported for a quotient")
    if not (cert["dimension"] > 0 and cert["dimension"] % 4 == 0):
        reasons.append(f"dimension {cert['dimension']} is not a positive multiple of 4")
    return reasons


def verify_output(space, returncode: int, cert) -> list:
    """One `hkt --json verify` against the space's closed-form data."""
    if not isinstance(cert, dict):
        return [f"no certificate on stdout (exit {returncode})"]
    reasons = []
    if EXIT_CODES.get(cert.get("verdict")) != returncode:
        reasons.append(f"exit {returncode} does not match verdict {cert.get('verdict')!r}")
    # A quotient's padding has no closed form here; its spec carries it.
    need = None if space.quotient_dim else sum(padding(f, r) for f, r in space.factors)
    if need is not None and need != space.u1:
        if cert.get("verdict") != "not-admissible":
            reasons.append(f"verdict {cert.get('verdict')!r}, expected not-admissible")
        if cert.get("padding_required") != need:
            reasons.append(f"padding_required {cert.get('padding_required')}, closed form {need}")
        return reasons
    reasons += certificate(cert)
    dim = sum(group_dim(f, r) for f, r in space.factors) + space.u1 - space.quotient_dim
    if cert.get("dimension") != dim:
        reasons.append(f"dimension {cert.get('dimension')}, closed form {dim}")
    if cert.get("u1_count") != space.u1:
        reasons.append(f"u1_count {cert.get('u1_count')}, expected {space.u1}")
    if need is not None and any(
            r["nijenhuis"] is None for r in cert.get("residuals", {}).values()):
        reasons.append("group manifold certified without the Nijenhuis check")
    return reasons


def catalog_output(returncode: int, certs, listing) -> list:
    """One `hkt --json catalog F r --verify` against the family's listing."""
    if not isinstance(certs, list):
        return [f"no certificate list on stdout (exit {returncode})"]
    reasons = []
    if returncode != 0:
        reasons.append(f"exit {returncode}")
    for cert in certs:
        reasons += [f"{cert.get('name')}: {r}" for r in certificate(cert)]
    names = [c.get("name") for c in certs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        reasons.append(f"duplicate rows {dupes}")
    if listing is None:
        reasons.append("no listing to compare against")
    elif sorted(names) != sorted(listing):
        reasons.append(f"rows {sorted(set(names) ^ set(listing))} differ from the listing")
    return reasons


def _structure_constants(gens, norm_const, triples):
    """-(i/C) Tr([t_A, t_B] t_C) for the given index triples."""
    a, b, c = (gens[triples[:, k]] for k in range(3))
    comm = a @ b - b @ a
    return (-1j / norm_const * np.einsum("nij,nji->n", comm, c)).real


def integrability(S, f) -> float:
    """max |f_ABC - S_AD S_BE f_DEC - S_BD S_CE f_DEA - S_CD S_AE f_DEB|."""
    g = np.tensordot(S, f, axes=(1, 0))          # g[a,e,c] = S_ad f_dec
    t = np.matmul(S[None, :, :], g)               # t[a,b,c] = S_be g[a,e,c]
    return float(np.abs(f - t - t.transpose(2, 0, 1) - t.transpose(1, 2, 0)).max())


def highrank_output(family, rank, data, rng, samples: int = 256) -> list:
    """A built rep and triple: quaternion algebra, f_ABC, integrability."""
    reasons = []
    I, J, K = data["I"], data["J"], data["K"]
    D = I.shape[0]
    want = group_dim(family, rank) + padding(family, rank)
    if D != want or D % 4:
        reasons.append(f"dimension {D}, closed form {want}")
    if int(data["u1_count"]) != padding(family, rank):
        reasons.append(f"u1_count {int(data['u1_count'])}, closed form {padding(family, rank)}")
    if not bool(data["certified"]):
        reasons.append("triple not certified by the program")
    eye = np.eye(D)
    identities = {
        "I+I^T": I + I.T, "J+J^T": J + J.T, "K+K^T": K + K.T,
        "I^2+1": I @ I + eye, "J^2+1": J @ J + eye, "K^2+1": K @ K + eye,
        "IJ-K": I @ J - K, "JK-I": J @ K - I, "KI-J": K @ I - J,
    }
    for name, m in identities.items():
        worst = float(np.abs(m).max())
        if not worst <= MATRIX_BOUND:
            reasons.append(f"{name} = {worst:.3e} above {MATRIX_BOUND:g}")
    f, gens = data["f"], data["generators"]
    triples = rng.integers(0, D, size=(samples, 3))
    ours = _structure_constants(gens, float(data["norm_const"]), triples)
    theirs = f[triples[:, 0], triples[:, 1], triples[:, 2]]
    worst = float(np.abs(ours - theirs).max())
    if not worst <= MATRIX_BOUND:
        reasons.append(f"f_ABC differs from -(i/C)Tr([t_A,t_B]t_C) by {worst:.3e}")
    for name, S in (("I", I), ("J", J), ("K", K)):
        resid = integrability(S, f)
        if not resid <= TOLERANCE:
            reasons.append(f"{name} integrability {resid:.3e} above {TOLERANCE:g}")
    return reasons
