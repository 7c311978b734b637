"""Matrix representations of the compact classical algebras.

Builds an orthonormal Hermitian generator basis Tr(t_A t_B) = C delta_AB that
is adapted to the root structure: every positive root alpha owns a pair of
generators with E_alpha = nu_alpha (t_A + i t_A*), and the Cartan directions
are aligned with the iterated-highest-root construction (unit vectors along
the basic coroots first, the leftover commuting directions after them).
Each simple algebra is built once; u(1) factors zero-extend it, f unchanged.
Nothing above this module reads a matrix, only f and the root table.

Representations used: defining for A_n (dim n+1) and C_n (dim 2n), vector for
B_n (dim 2n+1) and D_n (dim 2n).  For B_3 an 8-dimensional spinor
representation is available as well; it is the faithful choice for coroot
periodicity checks.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rootsys import (
    Root,
    RootSystem,
    UnsupportedAlgebraError,
    chain_nodes,
    coroot,
    root_chain,
)

#: trace normalization Tr(t_A t_B) = C per family (defining/vector reps)
NORM_CONST = {"A": 0.5, "B": 2.0, "C": 2.0, "D": 2.0}


class ConstructionError(RuntimeError):
    """Numerical failure while assembling a generator basis."""


def _np_coords(coords: Sequence[int]) -> np.ndarray:
    return np.array([float(c) for c in coords])


@dataclass(frozen=True)
class RootVectorEntry:
    """Indices and scale with E_alpha = scale * (t[re] + i t[im])."""

    re_index: int
    im_index: int
    scale: float


@dataclass(frozen=True, eq=False)
class CsaAxis:
    """One Cartan (or appended Abelian) generator with its functional data."""

    index: int
    kind: str                 # "coroot" | "abelian" | "u1"
    level: int
    node_label: str
    root: Root | None         # the basic root, for kind == "coroot"
    functional: np.ndarray    # w with alpha(h) = w . alpha_std; zeros for u1


#: entries of f_ABC and of the generators at or below this magnitude are
#: rounding: up to A13 and D10 it stays below 1e-15 in both, and the smallest
#: true entry of f is 0.091
F_ZERO = 1e-12


@dataclass(frozen=True, eq=False)
class CooTensor:
    """The non-zero entries t[index[k]] = value[k] of a (dim, dim, dim) tensor."""

    index: np.ndarray    # (n, 3) integer index triples
    value: np.ndarray    # (n,)
    dim: int

    @classmethod
    def from_dense(cls, t: np.ndarray) -> "CooTensor":
        t = np.asarray(t, dtype=float)
        index = np.argwhere(t)
        return cls(index, t[tuple(index.T)], t.shape[0])

    def restrict(self, keep: Sequence[int]) -> "CooTensor":
        """The entries whose three indices all lie in `keep`, renumbered in
        the order of `keep`."""
        new = np.full(self.dim, -1)
        new[list(keep)] = np.arange(len(keep))
        mapped = new[self.index]
        inside = (mapped >= 0).all(axis=1)
        return CooTensor(mapped[inside], self.value[inside], len(keep))


@dataclass(eq=False)
class StructureConstants:
    """Totally antisymmetric f_ABC with [t_A, t_B] = i f_ABC t_C, held as its
    non-zero entries; `f` is the dense (D, D, D) view, built on first read."""

    coo: CooTensor

    @property
    def dim(self) -> int:
        return self.coo.dim

    @functools.cached_property
    def f(self) -> np.ndarray:
        f = np.zeros((self.dim,) * 3)
        f[tuple(self.coo.index.T)] = self.coo.value
        f.setflags(write=False)
        return f

    def antisymmetry_residual(self) -> float:
        f = self.f
        return max(np.abs(f + f.transpose(1, 0, 2)).max(),
                   np.abs(f + f.transpose(0, 2, 1)).max())

    def jacobi_residual(self) -> float:
        """max |f_ABE f_ECD + f_BCE f_EAD + f_CAE f_EBD| without a D^4 blow-up."""
        f = self.f
        ad = f.transpose(0, 2, 1)  # ad[a][c,b] = f_abc
        worst = 0.0
        for a in range(self.dim):
            lhs = ad[a] @ ad - ad @ ad[a]          # [ad_a, ad_b] stacked over b
            rhs = np.einsum("be,ecd->bcd", f[a], ad)
            worst = max(worst, np.abs(lhs - rhs).max())
        return worst

    def u1_residual(self, u1_indices: Sequence[int]) -> float:
        touches = np.isin(self.coo.index, list(u1_indices)).any(axis=1)
        return float(np.abs(self.coo.value[touches]).max(initial=0.0))


@dataclass(eq=False)
class AlgebraRep:
    """Concrete matrix representation with root-adapted orthonormal basis."""

    family: str
    rank: int
    u1_count: int
    rep_kind: str
    matrix_dim: int
    norm_const: float
    generators: np.ndarray           # (D, d, d) complex, Hermitian
    csa_indices: tuple[int, ...]
    u1_indices: tuple[int, ...]
    root_system: RootSystem
    chain_levels: tuple
    root_table: dict                 # positive-root coords -> RootVectorEntry
    csa_axes: tuple[CsaAxis, ...]
    faithful_simply_connected: bool
    _structure: StructureConstants | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.structure_constants().dim

    def root_entry(self, root: Root) -> RootVectorEntry:
        key = root.coords if root.sign == "positive" else tuple(-c for c in root.coords)
        return self.root_table[key]

    def root_vector(self, root: Root) -> np.ndarray:
        """Chevalley root vector E_root = nu (t_re + i t_im) in the representation."""
        ent = self.root_entry(root)
        e = ent.scale * (self.generators[ent.re_index] + 1j * self.generators[ent.im_index])
        return e if root.sign == "positive" else e.conj().T

    def eigen_coords(self, root: Root) -> np.ndarray:
        """Root coordinates with respect to the orthonormal Cartan basis."""
        return np.stack([ax.functional for ax in self.csa_axes]) @ _np_coords(root.coords)

    def coroot_matrix(self, root: Root) -> np.ndarray:
        """Coroot as a matrix in this representation."""
        a = self.eigen_coords(root)
        return np.tensordot(2.0 * a / (a @ a),
                            self.generators[[ax.index for ax in self.csa_axes]], 1)

    def coroot_axis_index(self, root: Root) -> int:
        for ax in self.csa_axes:
            if ax.kind == "coroot" and ax.root.coords == root.coords:
                return ax.index
        raise KeyError(f"{root} is not a basic root of this algebra")

    def structure_constants(self) -> StructureConstants:
        if self._structure is None:
            self._structure = structure_constants(self)
        return self._structure

    def to_json_dict(self) -> dict:
        """Debug/fixture export: matrices as row-major [re, im] pairs."""
        return {
            "family": self.family,
            "rank": self.rank,
            "u1_count": self.u1_count,
            "rep_kind": self.rep_kind,
            "matrix_dim": self.matrix_dim,
            "norm_const": self.norm_const,
            "generators": np.stack((self.generators.real, self.generators.imag),
                                   axis=-1).tolist(),
            "csa_indices": list(self.csa_indices),
            "u1_indices": list(self.u1_indices),
            "root_table": [
                {"root": [str(c) for c in coords], "re_index": e.re_index,
                 "im_index": e.im_index, "scale": e.scale}
                for coords, e in sorted(self.root_table.items())],
        }


# ---------------------------------------------------------------------------
# family-specific raw material

def _pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s3


def _eij(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


@dataclass(eq=False)
class _Raw:
    """Initial spanning data for one family/representation."""

    d: int
    C: float
    noncsa: list            # orthonormal Hermitian generators outside the CSA
    embed: callable         # std functional vector -> Cartan matrix
    extract: callable       # Cartan matrix -> std functional vector
    std_candidates: list    # deterministic seeds for the leftover Cartan axes
    faithful: bool


def _raw_basis(family: str, rank: int, rep_kind: str) -> _Raw:
    if family == "A":
        d = rank + 1
        noncsa = []
        for i in range(d):
            for j in range(i + 1, d):
                noncsa.append((_eij(d, i, j) + _eij(d, j, i)) / 2.0)
                noncsa.append(-1j * (_eij(d, i, j) - _eij(d, j, i)) / 2.0)

        def embed(w):
            return np.diag(np.asarray(w, dtype=complex))

        def extract(h):
            return np.real(np.diag(h)).copy()

        cands = []
        for k in range(1, d):
            v = np.zeros(d)
            v[:k] = 1.0
            v[k] = -float(k)
            cands.append(v)
        return _Raw(d, NORM_CONST["A"], noncsa, embed, extract, cands, faithful=True)

    if family in ("B", "D") and rep_kind == "vector":
        # rotation generators T_jk = i(E_jk - E_kj); same bracket signs as the
        # spinor T_jk = i gamma_j gamma_k / 2, so both reps share conventions
        d = 2 * rank + 1 if family == "B" else 2 * rank
        csa_pairs = {(2 * k, 2 * k + 1) for k in range(rank)}
        noncsa = []
        for i in range(d):
            for j in range(i + 1, d):
                if (i, j) in csa_pairs:
                    continue
                noncsa.append(1j * (_eij(d, i, j) - _eij(d, j, i)))

        def embed(w):
            h = np.zeros((d, d), dtype=complex)
            for k, wk in enumerate(w):
                h += wk * 1j * (_eij(d, 2 * k, 2 * k + 1) - _eij(d, 2 * k + 1, 2 * k))
            return h

        def extract(h):
            return np.array([np.imag(h[2 * k, 2 * k + 1]) for k in range(rank)])

        cands = [np.eye(rank)[k] for k in range(rank)]
        return _Raw(d, NORM_CONST[family], noncsa, embed, extract, cands, faithful=False)

    if family == "B" and rep_kind == "spinor":
        if rank != 3:
            raise UnsupportedAlgebraError("spinor representation only provided for B3")
        cliff = build_clifford(7)
        t = {}
        for i in range(7):
            for j in range(i + 1, 7):
                t[(i, j)] = cliff.spin_generators[(i, j)]
        csa_pairs = {(0, 1), (2, 3), (4, 5)}
        noncsa = [t[p] for p in sorted(t) if p not in csa_pairs]

        def embed(w):
            return sum(wk * t[(2 * k, 2 * k + 1)] for k, wk in enumerate(w))

        def extract(h):
            return np.array([np.real(np.trace(h @ t[(2 * k, 2 * k + 1)])) / 2.0
                             for k in range(3)])

        cands = [np.eye(3)[k] for k in range(3)]
        return _Raw(8, 2.0, noncsa, embed, extract, cands, faithful=True)

    if family == "C":
        n = rank
        d = 2 * n
        noncsa = []
        for i in range(n):
            for j in range(i + 1, n):
                for a in ((_eij(n, i, j) + _eij(n, j, i)) / np.sqrt(2),
                          -1j * (_eij(n, i, j) - _eij(n, j, i)) / np.sqrt(2)):
                    x = np.zeros((d, d), dtype=complex)
                    x[:n, :n] = a
                    x[n:, n:] = -a.T
                    noncsa.append(x)
        for i in range(n):
            for j in range(i, n):
                b0 = _eij(n, i, j) + _eij(n, j, i) if i != j else _eij(n, i, i)
                if i != j:
                    b0 = b0 / np.sqrt(2)
                for b in (b0, 1j * b0):
                    x = np.zeros((d, d), dtype=complex)
                    x[:n, n:] = b
                    x[n:, :n] = b.conj().T
                    noncsa.append(x)

        def embed(w):
            h = np.zeros((d, d), dtype=complex)
            for k, wk in enumerate(w):
                h[k, k] = wk
                h[n + k, n + k] = -wk
            return h

        def extract(h):
            return np.real(np.diag(h)[:n]).copy()

        cands = [np.eye(n)[k] for k in range(n)]
        return _Raw(d, NORM_CONST["C"], noncsa, embed, extract, cands, faithful=True)

    raise UnsupportedAlgebraError(f"no representation {rep_kind!r} for family {family!r}")


# ---------------------------------------------------------------------------
# Clifford algebra / spinor generators

@dataclass(eq=False)
class CliffordRep:
    """Seven anticommuting Hermitian gamma matrices and the spin generators."""

    gammas: tuple
    spin_generators: dict   # (j, k), j < k -> i gamma_j gamma_k / 2


def build_clifford(dimension: int) -> CliffordRep:
    if dimension != 7:
        raise UnsupportedAlgebraError("only the 7-dimensional Clifford algebra is provided")
    s1, s2, s3 = _pauli()
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


# ---------------------------------------------------------------------------
# adapted Cartan basis

def _gram_schmidt_matrices(mats, inner, tol=1e-10):
    """Orthonormalize a list of matrices under `inner`, dropping null vectors."""
    basis = []
    for m in mats:
        v = m.copy()
        for b in basis:
            v = v - inner(b, v) * b
        n = np.sqrt(abs(inner(v, v)))
        if n > tol:
            basis.append(v / n)
    return basis


def _adapted_csa(rs: RootSystem, levels, raw: _Raw):
    """Cartan matrices: unit basic-coroot axes, then leftover axes per node."""
    C = raw.C

    def inner(x, y):
        return np.real(np.trace(x.conj().T @ y)) / C

    nodes = chain_nodes(levels)
    axes = []  # (kind, level, node_label, root_or_None, matrix)
    for node in nodes:
        h = raw.embed(_np_coords(coroot(node.theta)))
        h = h / np.sqrt(abs(inner(h, h)))
        axes.append(("coroot", node.level, node.label, node.theta, h))

    used = [a[4] for a in axes]
    for node in nodes:
        span = _gram_schmidt_matrices(
            [raw.embed(_np_coords(s.coords)) for s in node.subsystem.simple_roots], inner)
        forbidden = [raw.embed(_np_coords(coroot(node.theta)))]
        for child in node.children:
            forbidden += [raw.embed(_np_coords(s.coords)) for s in child.subsystem.simple_roots]
        forbidden = _gram_schmidt_matrices(forbidden, inner)
        found = 0
        for cand in raw.std_candidates:
            v = raw.embed(cand).astype(complex)
            w = sum((inner(b, v) * b for b in span), np.zeros_like(v))
            for b in forbidden + used:
                w = w - inner(b, w) * b
            n = np.sqrt(abs(inner(w, w)))
            if n > 1e-9:
                w = w / n
                axes.append(("abelian", node.level, node.label, None, w))
                used.append(w)
                found += 1
        if found != node.abelian_dim:
            raise ConstructionError(
                f"expected {node.abelian_dim} leftover Cartan directions at {node.label}, found {found}")
    return axes


# ---------------------------------------------------------------------------
# Chevalley root vectors

def _flat_transposes(gens: np.ndarray) -> np.ndarray:
    """(d^2, n) matrix whose column b is t_b^T flattened, so that
    X.reshape(-1, d^2) @ _flat_transposes(gens) holds the traces Tr(X t_b)."""
    n = gens.shape[0]
    return gens.transpose(0, 2, 1).reshape(n, -1).T


def _ad_matrices(csa_mats, noncsa, C):
    gens = np.stack(noncsa)
    m = gens.shape[0]
    gT = _flat_transposes(gens)
    # ad[p, q] = Tr([h, t_q] t_p) / C
    return [((h @ gens - gens @ h).reshape(m, -1) @ gT).T / C for h in csa_mats]


def _root_eigenvector(ad_mats, target, noncsa):
    """The root vector sum_q v_q t_q with ad_k v = target_k v on every Cartan
    axis k.

    With S the (rank m, m) stack of the ad_k - target_k, v is the null vector
    of S^H S = sum_k (ad_k - target_k)^H (ad_k - target_k), from one (m, m)
    eigh.  Refused when |S v| is above 1e-8 (no root vector) or when the
    second eigenvalue is below 1e-12 (a degenerate root space).
    """
    m = ad_mats[0].shape[0]
    stack = np.concatenate([ad - t * np.eye(m) for ad, t in zip(ad_mats, target)])
    w, vecs = np.linalg.eigh(stack.conj().T @ stack)
    v = vecs[:, 0]
    if np.linalg.norm(stack @ v) > 1e-8:
        raise ConstructionError(f"no root vector found for eigenvalue {target}")
    if m > 1 and w[1] < 1e-12:
        raise ConstructionError(f"degenerate root space for eigenvalue {target}")
    return sum(vk * g for vk, g in zip(v, noncsa))


def _fix_phase(e, tol=1e-8):
    flat = e.ravel()
    scale = np.abs(flat).max()
    lead = flat[np.argmax(np.abs(flat) > tol * scale)]
    return e * (lead.conjugate() / abs(lead))


def _chevalley_table(rs: RootSystem, csa_axes_raw, raw: _Raw):
    """Chevalley root vectors: eigensolve the simple roots, commutate the rest."""
    C = raw.C
    csa_mats = [a[4] for a in csa_axes_raw]
    W = np.stack([raw.extract(h) for h in csa_mats])

    def eigen(root):
        return W @ _np_coords(root.coords)

    def coroot_mat(root):
        a = eigen(root)
        c = 2.0 * a / (a @ a)
        return sum(ck * h for ck, h in zip(c, csa_mats))

    ad_mats = _ad_matrices(csa_mats, raw.noncsa, C)
    ev = {}
    for root in rs.positive_roots:
        if rs.height(root) == 1:
            e = _root_eigenvector(ad_mats, eigen(root), raw.noncsa)
            comm = e @ e.conj().T - e.conj().T @ e
            target = coroot_mat(root)
            c = np.real(np.trace(comm @ target)) / np.real(np.trace(target @ target))
            if c <= 0:
                raise ConstructionError(f"negative Chevalley normalization at root {root}")
            e = _fix_phase(e / np.sqrt(c))
        else:
            for i, a in enumerate(rs.simple_roots):
                rest = tuple(x - y for x, y in zip(root.coords, a.coords))
                if rest in ev:
                    break
            else:
                raise ConstructionError(f"no decomposition for root {root}")
            lower = rs.root(rest)
            q = rs.root_string_down(a, lower)
            e = (ev[a.coords] @ ev[rest] - ev[rest] @ ev[a.coords]) / (q + 1)
        target = coroot_mat(root)
        resid = np.abs(e @ e.conj().T - e.conj().T @ e - target).max()
        if resid > 1e-8:
            raise ConstructionError(
                f"Chevalley normalization failed at root {root}: residual {resid:.2e}")
        ev[root.coords] = e
    return ev


# ---------------------------------------------------------------------------
# public constructors

@functools.lru_cache(maxsize=64)
def _cached_rep(family, rank, rep_kind):
    return _build_matrix_rep(family, rank, rep_kind)


def build_matrix_rep(family: str, rank: int, u1_count: int = 0,
                     rep_kind: str = "auto") -> AlgebraRep:
    """Orthonormal root-adapted generator basis for family/rank, plus u(1)s:
    one build per (family, rank, rep_kind) and process, zero-extended."""
    family = family.upper()
    if u1_count < 0:
        raise ValueError("u1_count must be non-negative")
    if rep_kind == "auto":
        rep_kind = "defining" if family in ("A", "C") else "vector"
    rep = _cached_rep(family, rank, rep_kind)
    return _zero_extend(rep, u1_count) if u1_count else rep


def _zero_extend(rep: AlgebraRep, u: int) -> AlgebraRep:
    """`rep` times u more u(1) factors: every generator gains u zero rows and
    columns, u(1) number k is sqrt(C) on the new diagonal slot k, and f keeps
    its entries at dimension D + u."""
    D, d = rep.dim, rep.matrix_dim
    gens = np.zeros((D + u, d + u, d + u), dtype=complex)
    gens[:D, :d, :d] = rep.generators
    gens[range(D, D + u), range(d, d + u), range(d, d + u)] = np.sqrt(rep.norm_const)
    gens.setflags(write=False)
    zero = np.zeros(rep.csa_axes[0].functional.size if rep.csa_axes else 0)
    coo = rep.structure_constants().coo
    return dataclasses.replace(
        rep, u1_count=rep.u1_count + u, matrix_dim=d + u, generators=gens,
        u1_indices=rep.u1_indices + tuple(range(D, D + u)),
        csa_axes=rep.csa_axes + tuple(CsaAxis(index=i, kind="u1", level=-1, node_label="u1",
                                              root=None, functional=zero)
                                      for i in range(D, D + u)),
        _structure=StructureConstants(CooTensor(coo.index, coo.value, D + u)))


def _build_matrix_rep(family, rank, rep_kind):
    rs, levels = root_chain(family, rank)
    raw = _raw_basis(family, rank, rep_kind)
    csa_axes_raw = _adapted_csa(rs, levels, raw)
    ev = _chevalley_table(rs, csa_axes_raw, raw)

    C, d = raw.C, raw.d
    npos = len(rs.positive_roots)
    D = 2 * npos + rank

    gens = np.zeros((D, d, d), dtype=complex)
    table = {}
    W = np.stack([raw.extract(ax[4]) for ax in csa_axes_raw])

    for i, root in enumerate(rs.positive_roots):
        e = ev[root.coords]
        a = W @ _np_coords(root.coords)
        nu = 1.0 / np.sqrt(a @ a)
        gens[2 * i] = (e + e.conj().T) / (2 * nu)
        gens[2 * i + 1] = -1j * (e - e.conj().T) / (2 * nu)
        table[root.coords] = RootVectorEntry(2 * i, 2 * i + 1, nu)

    gens[2 * npos:] = [ax[4] for ax in csa_axes_raw]
    csa_axes = tuple(CsaAxis(2 * npos + k, kind, level, label, root, W[k])
                     for k, (kind, level, label, root, _) in enumerate(csa_axes_raw))

    _snap_to_zero(gens)
    gram = gens.reshape(D, -1) @ _flat_transposes(gens)
    dev = np.abs(gram - C * np.eye(D))
    if dev.max() > 1e-9:
        a, b = np.unravel_index(np.argmax(dev), dev.shape)
        raise ConstructionError(
            f"generator basis not orthonormal: Tr(t_{a} t_{b}) deviates by {dev[a, b]:.2e}")

    gens.setflags(write=False)
    comm = _commutator_entries(gens)
    structure = _structure_constants(gens, C, comm)
    _check_closure(gens, structure.coo, comm)
    return AlgebraRep(
        family=family, rank=rank, u1_count=0, rep_kind=rep_kind,
        matrix_dim=d, norm_const=C, generators=gens,
        csa_indices=tuple(2 * npos + k for k in range(rank)), u1_indices=(),
        root_system=rs, chain_levels=levels, root_table=table,
        csa_axes=csa_axes, faithful_simply_connected=raw.faithful,
        _structure=structure)


def _snap_to_zero(gens: np.ndarray) -> None:
    """Set the real and imaginary parts at or below F_ZERO to exact zero, so
    the generators carry their sparsity exactly."""
    for part in (gens.real, gens.imag):
        part[np.abs(part) <= F_ZERO] = 0.0


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
    """The distinct integer keys, sorted, and the sum of `values` at each.

    Sorted with argsort, not np.unique: numpy 2.4's np.unique imports
    numpy.ma, about 15 ms and 2 MB for every process.
    """
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(values[order], starts)


def _join(left: np.ndarray, right: np.ndarray) -> tuple:
    """All index pairs (l, r) with left[l] == right[r]."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    count = np.searchsorted(ordered, left, "right") - lo
    l = np.repeat(np.arange(left.size), count)
    offset = np.arange(l.size) - np.repeat(np.cumsum(count) - count, count)
    return l, order[lo[l] + offset]


def _entries(gens: np.ndarray) -> tuple:
    """(a, i, j, value) of the non-zero generator entries (t_a)_ij."""
    a, i, j = np.nonzero(gens)
    return a, i, j, gens[a, i, j]


def _commutator_entries(gens: np.ndarray) -> tuple:
    """Flat keys ((a D + b) d + i) d + k and values of ([t_a, t_b])_ik, from
    the products (t_a)_ij (t_b)_jk of non-zero entries joined on j."""
    D, d, _ = gens.shape
    a, i, j, v = _entries(gens)
    l, r = _join(j, i)
    p = v[l] * v[r]
    ik = i[l] * d + j[r]
    keys = np.concatenate(((a[l] * D + a[r]) * d * d + ik, (a[r] * D + a[l]) * d * d + ik))
    return sum_by_key(keys, np.concatenate((p, -p)))


def _check_closure(gens: np.ndarray, f: CooTensor, comm: tuple,
                   tol: float = 1e-9) -> float:
    """max |[t_a, t_b] - i f_abc t_c| over all a, b and matrix entries, with
    `comm` the `_commutator_entries` of `gens`.

    The f terms join the COO entries of f on c with the generator entries;
    both sides are summed by (a, b, i, k).  Raises ConstructionError above
    `tol`.
    """
    D, d, _ = gens.shape
    keys, comm = comm
    c, i, k, v = _entries(gens)
    l, r = _join(f.index[:, 2], c)
    ab = f.index[l, 0] * D + f.index[l, 1]
    _, resid = sum_by_key(np.concatenate((keys, (ab * d + i[r]) * d + k[r])),
                          np.concatenate((comm, -1j * f.value[l] * v[r])))
    closure = float(np.abs(resid).max(initial=0.0))
    if closure > tol:
        raise ConstructionError(f"algebra does not close on the basis: residual {closure:.2e}")
    return closure


def build_abelian_rep(u1_count: int) -> AlgebraRep:
    """A pure product of u(1) factors (useful as a degenerate test algebra)."""
    if u1_count < 1:
        raise ValueError("need at least one u(1) factor")
    zero = AlgebraRep(
        family="U1", rank=0, u1_count=0, rep_kind="diagonal", matrix_dim=0, norm_const=1.0,
        generators=np.zeros((0, 0, 0), dtype=complex), csa_indices=(), u1_indices=(),
        root_system=None, chain_levels=(), root_table={}, csa_axes=(),
        faithful_simply_connected=True,
        _structure=StructureConstants(CooTensor(np.zeros((0, 3), dtype=int), np.zeros(0), 0)))
    return _zero_extend(zero, u1_count)


def structure_constants(rep: AlgebraRep) -> StructureConstants:
    """f_ABC = -(i/C) Tr([t_A, t_B] t_C), validated to be real.

    The commutator entries ([t_A, t_B])_ik are joined on (i, k) with the
    generator entries (t_C)_ki and summed by (A, B, C), so the cost follows
    the non-zero entries of the generators, not D^3.  Entries at or below
    F_ZERO are set to exact zero; the rest form the COO form.
    """
    return _structure_constants(rep.generators, rep.norm_const,
                                _commutator_entries(rep.generators))


def _structure_constants(g: np.ndarray, norm_const: float, comm: tuple) -> StructureConstants:
    """`structure_constants` from the `_commutator_entries` of the generators."""
    D, d, _ = g.shape
    keys, comm = comm
    c, i, k, v = _entries(g)
    l, r = _join(keys % (d * d), k * d + i)
    keys, trace = sum_by_key(keys[l] // (d * d) * D + c[r], comm[l] * v[r])
    f = -1j / norm_const * trace
    if np.abs(f.imag).max(initial=0.0) > 1e-11:
        raise ConstructionError("structure constants are not real")
    keep = np.abs(f.real) > F_ZERO
    index = np.stack(np.unravel_index(keys[keep], (D, D, D)), axis=1)
    out = StructureConstants(CooTensor(index, f.real[keep], D))
    for array in (out.coo.index, out.coo.value):
        array.setflags(write=False)
    return out


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a Hermitian matrix h, from its eigendecomposition."""
    if np.abs(h - h.conj().T).max() > 1e-12 * max(np.abs(h).max(), 1.0):
        raise ValueError("exp_i_hermitian needs a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def chevalley_root_vectors(rep: AlgebraRep, rs: RootSystem | None = None) -> dict:
    """Validate and return the stored root-vector table.

    Re-checks, for every positive root, the eigenvalue property
    [h, E_alpha] = alpha(h) E_alpha and the normalization
    [E_alpha, E_-alpha] = coroot(alpha).
    """
    rs = rs or rep.root_system
    if rs is not rep.root_system and (rs.family, rs.rank) != (rep.family, rep.rank):
        raise ValueError("root system does not match the representation")
    for root in rs.positive_roots:
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
    if not rep.faithful_simply_connected:
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
