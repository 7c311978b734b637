"""Matrix representations of the compact classical algebras.

Builds an orthonormal Hermitian generator basis Tr(t_A t_B) = C delta_AB that
is adapted to the root structure: every positive root alpha owns a pair of
generators with E_alpha = nu_alpha (t_A + i t_A*), and the Cartan directions
are aligned with the iterated-highest-root construction (unit vectors along
the basic coroots first, the leftover commuting directions after them).
Each simple algebra is built once; u(1) factors zero-extend it, f unchanged.
Nothing above this module reads a matrix, only f and the root table.

Nothing is solved for: each Chevalley root vector is a closed form in its
root's integer coordinates (Fulton and Harris, Representation Theory,
sections 15-20), and the Cartan axes are orthonormalised as rank-sized
functionals, since Tr(h(u) h(v)) / C = kappa u . v in every representation.

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

#: trace normalization Tr(t_A t_B) = C per family, in every representation
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

#: the largest |[t_a, t_b] - i f_abc t_c| of a built algebra
CLOSURE_TOL = 1e-9


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
    _structure: StructureConstants = field(repr=False)

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
# closed forms in the standard representations

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
    """One family/representation: the Cartan matrix of a functional and the
    Chevalley root vectors in closed form."""

    d: int
    embed: callable         # functional w -> Cartan matrix h, alpha(h) = w . alpha
    root_vector: callable   # positive-root coords -> E_alpha up to a positive scale
    std_candidates: list    # deterministic seeds for the leftover Cartan axes


def _raw_basis(family: str, rank: int, rep_kind: str) -> _Raw:
    if family == "A":
        d = rank + 1

        def embed(w):
            return np.diag(np.asarray(w, dtype=complex))

        def root_vector(a):             # e_i - e_j -> E_ij
            return _eij(d, a.index(1), a.index(-1))

        cands = []
        for k in range(1, d):
            v = np.zeros(d)
            v[:k] = 1.0
            v[k] = -float(k)
            cands.append(v)
        return _Raw(d, embed, root_vector, cands)

    if family == "C":
        n = rank
        d = 2 * n

        def embed(w):
            return np.diag(np.concatenate((w, np.negative(w))).astype(complex))

        def root_vector(a):
            i, j = np.flatnonzero(a)[[0, -1]]
            if a[i] == 2:               # 2 e_i
                return _eij(d, i, n + i)
            if a[j] < 0:                # e_i - e_j
                return _eij(d, i, j) - _eij(d, n + j, n + i)
            return _eij(d, i, n + j) + _eij(d, j, n + i)

        return _Raw(d, embed, root_vector, list(np.eye(n)))

    if family in ("B", "D") and rep_kind == "vector":
        n = 2 * rank + 1 if family == "B" else 2 * rank
        rotations = {(a, b): 1j * (_eij(n, a, b) - _eij(n, b, a))
                     for a in range(n) for b in range(a + 1, n)}
        return _rotation_basis(rank, n, rotations)

    if family == "B" and rep_kind == "spinor":
        if rank != 3:
            raise UnsupportedAlgebraError("spinor representation only provided for B3")
        return _rotation_basis(3, 7, build_clifford(7).spin_generators)

    raise UnsupportedAlgebraError(f"no representation {rep_kind!r} for family {family!r}")


def _rotation_basis(rank: int, n: int, rotations: dict) -> _Raw:
    """so(n) in the representation whose rotation generators T_ab (a < b) are
    `rotations`: i(E_ab - E_ba) in the vector representation, i gamma_a
    gamma_b / 2 in the spinor one, with the same brackets.

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

    return _Raw(stack.shape[-1], embed, root_vector, list(np.eye(rank)))


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
# adapted Cartan axes and Chevalley root vectors

def _gram_schmidt(vectors, kappa: float) -> list:
    """Orthonormalize functionals under kappa u . v, dropping null vectors."""
    basis = []
    for v in vectors:
        for b in basis:
            v = v - kappa * (b @ v) * b
        norm = np.sqrt(kappa * (v @ v))
        if norm > 1e-10:
            basis.append(v / norm)
    return basis


def _adapted_csa(levels, raw: _Raw, C: float, first_index: int) -> tuple:
    """Cartan axes numbered from `first_index`, their functionals orthonormal
    under Tr(embed(u) embed(v)) / C = kappa u . v: unit basic-coroot axes,
    then leftover axes per node."""
    h = raw.embed(np.eye(raw.std_candidates[0].size)[0])
    kappa = np.real(np.trace(h @ h)) / C
    nodes = chain_nodes(levels)
    axes = []

    def add(kind, node, root, w):
        axes.append(CsaAxis(first_index + len(axes), kind, node.level, node.label, root,
                            w / np.sqrt(kappa * (w @ w))))

    for node in nodes:
        add("coroot", node, node.theta, _np_coords(coroot(node.theta)))
    for node in nodes:
        span = _gram_schmidt([_np_coords(s.coords) for s in node.subsystem.simple_roots], kappa)
        forbidden = [_np_coords(coroot(node.theta))]
        for child in node.children:
            forbidden += [_np_coords(s.coords) for s in child.subsystem.simple_roots]
        forbidden = _gram_schmidt(forbidden, kappa)
        before = len(axes)
        for cand in raw.std_candidates:
            w = sum((kappa * (b @ cand) * b for b in span), np.zeros_like(cand))
            for b in forbidden + [ax.functional for ax in axes]:
                w = w - kappa * (b @ w) * b
            if np.sqrt(kappa * (w @ w)) > 1e-9:
                add("abelian", node, None, w)
        if len(axes) - before != node.abelian_dim:
            raise ConstructionError(f"expected {node.abelian_dim} leftover Cartan directions "
                                    f"at {node.label}, found {len(axes) - before}")
    return tuple(axes)


def _chevalley_vector(raw: _Raw, root: Root) -> np.ndarray:
    """The closed-form root vector, scaled so that [E, E^dag] is the coroot."""
    e = raw.root_vector(root.coords)
    target = raw.embed(_np_coords(coroot(root)))
    comm = e @ e.conj().T - e.conj().T @ e
    c = np.real(np.trace(comm @ target)) / np.real(np.trace(target @ target))
    if c <= 0:
        raise ConstructionError(f"negative Chevalley normalization at root {root}")
    resid = np.abs(comm / c - target).max()
    if resid > 1e-8:
        raise ConstructionError(
            f"Chevalley normalization failed at root {root}: residual {resid:.2e}")
    return e / np.sqrt(c)


def _flat_transposes(gens: np.ndarray) -> np.ndarray:
    """(d^2, n) matrix whose column b is t_b^T flattened, so that
    X.reshape(-1, d^2) @ _flat_transposes(gens) holds the traces Tr(X t_b)."""
    n = gens.shape[0]
    return gens.transpose(0, 2, 1).reshape(n, -1).T


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
    C, d = NORM_CONST[family], raw.d
    npos = len(rs.positive_roots)
    D = 2 * npos + rank
    csa_axes = _adapted_csa(levels, raw, C, 2 * npos)
    W = np.stack([ax.functional for ax in csa_axes])

    gens = np.zeros((D, d, d), dtype=complex)
    table = {}

    for i, root in enumerate(rs.positive_roots):
        e = _chevalley_vector(raw, root)
        a = W @ _np_coords(root.coords)
        nu = 1.0 / np.sqrt(a @ a)
        gens[2 * i] = (e + e.conj().T) / (2 * nu)
        gens[2 * i + 1] = -1j * (e - e.conj().T) / (2 * nu)
        table[root.coords] = RootVectorEntry(2 * i, 2 * i + 1, nu)

    gens[2 * npos:] = [raw.embed(w) for w in W]
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
        csa_axes=csa_axes, _structure=structure)


def _snap_to_zero(gens: np.ndarray) -> None:
    """Set the real and imaginary parts at or below F_ZERO to exact zero, so
    the generators carry their sparsity exactly."""
    for part in (gens.real, gens.imag):
        part[np.abs(part) <= F_ZERO] = 0.0


def _reduce_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
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
    return _reduce_by_key(keys, np.concatenate((p, -p)))


def _check_closure(gens: np.ndarray, f: CooTensor, comm: tuple) -> float:
    """max |[t_a, t_b] - i f_abc t_c| over all a, b and matrix entries, with
    `comm` the `_commutator_entries` of `gens`.

    The f terms join the COO entries of f on c with the generator entries;
    both sides are summed by (a, b, i, k).  Raises ConstructionError above
    CLOSURE_TOL.
    """
    D, d, _ = gens.shape
    keys, comm = comm
    c, i, k, v = _entries(gens)
    l, r = _join(f.index[:, 2], c)
    ab = f.index[l, 0] * D + f.index[l, 1]
    _, resid = _reduce_by_key(np.concatenate((keys, (ab * d + i[r]) * d + k[r])),
                          np.concatenate((comm, -1j * f.value[l] * v[r])))
    closure = float(np.abs(resid).max(initial=0.0))
    if closure > CLOSURE_TOL:
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
    keys, trace = _reduce_by_key(keys[l] // (d * d) * D + c[r], comm[l] * v[r])
    f = -1j / norm_const * trace
    if np.abs(f.imag).max(initial=0.0) > 1e-11:
        raise ConstructionError("structure constants are not real")
    keep = np.abs(f.real) > F_ZERO
    index = np.stack(np.unravel_index(keys[keep], (D, D, D)), axis=1)
    out = StructureConstants(CooTensor(index, f.real[keep], D))
    for array in (out.coo.index, out.coo.value):
        array.setflags(write=False)
    return out
