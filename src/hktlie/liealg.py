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

One representation per family: defining for A_n (dim n+1) and C_n (dim 2n),
vector for B_n (dim 2n+1) and D_n (dim 2n).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .bounds import _check_u1_count
from .rootsys import (
    Root,
    RootSystem,
    _Frozen,
    _Value,
    _algebra_key,
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


class RootVectorEntry(_Value):
    """Indices and scale with E_alpha = scale * (t[re] + i t[im])."""

    def __init__(self, re_index: int, im_index: int, scale: float):
        self.__dict__.update(re_index=re_index, im_index=im_index, scale=scale)


class CsaAxis(_Frozen):
    """One Cartan (or appended Abelian) generator with its functional data:
    `kind` is "coroot", "abelian" or "u1", `root` the basic root of a
    coroot axis (else None), and `functional` the w with
    alpha(h) = w . alpha_std (zeros for a u(1))."""

    def __init__(self, index: int, kind: str, level: int, node_label: str, root: Root | None,
                 functional: np.ndarray):
        self.__dict__.update(index=index, kind=kind, level=level, node_label=node_label,
                             root=root, functional=functional)


#: entries of f_ABC and of the generators at or below this magnitude are
#: rounding: up to A13 and D10 it stays below 1e-15 in both, and the smallest
#: true entry of f is 0.091
F_ZERO = 1e-12

#: the largest |[t_a, t_b] - i f_abc t_c| of a built algebra
CLOSURE_TOL = 1e-9


class StructureConstants(_Frozen):
    """Totally antisymmetric f_ABC with [t_A, t_B] = i f_ABC t_C, held as its
    non-zero entries f[index[k]] = value[k], with `index` the (n, 3) integer
    index triples; `f` is the dense (D, D, D) view, built on first read."""

    def __init__(self, index: np.ndarray, value: np.ndarray, dim: int):
        self.__dict__.update(index=index, value=value, dim=dim)

    def restrict(self, keep: Sequence[int]) -> "StructureConstants":
        """The entries whose three indices all lie in `keep`, renumbered in
        the order of `keep`."""
        new = np.full(self.dim, -1)
        new[list(keep)] = np.arange(len(keep))
        mapped = new[self.index]
        inside = (mapped >= 0).all(axis=1)
        return StructureConstants(mapped[inside], self.value[inside], len(keep))

    @functools.cached_property
    def f(self) -> np.ndarray:
        f = np.zeros((self.dim,) * 3)
        f[tuple(self.index.T)] = self.value
        f.setflags(write=False)
        return f


class AlgebraRep(_Frozen):
    """Concrete matrix representation with root-adapted orthonormal basis:
    `generators` are the (D, d, d) Hermitian matrices, and `root_table` maps
    each positive root's coordinates to its RootVectorEntry."""

    def __init__(self, family: str, rank: int, u1_count: int, rep_kind: str, matrix_dim: int,
                 norm_const: float, generators: np.ndarray, csa_indices: tuple[int, ...],
                 u1_indices: tuple[int, ...], root_system: RootSystem, chain_levels: tuple,
                 root_table: dict, csa_axes: tuple[CsaAxis, ...],
                 _structure: StructureConstants):
        self.__dict__.update(
            family=family, rank=rank, u1_count=u1_count, rep_kind=rep_kind,
            matrix_dim=matrix_dim, norm_const=norm_const, generators=generators,
            csa_indices=csa_indices, u1_indices=u1_indices, root_system=root_system,
            chain_levels=chain_levels, root_table=root_table, csa_axes=csa_axes,
            _structure=_structure)

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

    @functools.cached_property
    def _coroot_axes(self) -> dict:
        return {ax.root.coords: ax.index for ax in self.csa_axes if ax.kind == "coroot"}

    def coroot_axis_index(self, root: Root) -> int:
        index = self._coroot_axes.get(root.coords)
        if index is None:
            raise KeyError(f"{root} is not a basic root of this algebra")
        return index

    def structure_constants(self) -> StructureConstants:
        return self._structure


# ---------------------------------------------------------------------------
# closed forms in the standard representations

def _eij(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def _raw_basis(family: str, rank: int) -> tuple:
    """The family's one representation, in closed form, as the tuple
    (d, embed, root_vector, candidates, kind): the matrix size d; `embed`,
    the Cartan matrix h of a functional w, with alpha(h) = w . alpha;
    `root_vector`, E_alpha up to a positive scale from a positive root's
    coordinates; `candidates`, the deterministic seeds of the leftover Cartan
    axes; and `kind`, "defining" or "vector".  `root_chain` has checked the
    family."""
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
        return d, embed, root_vector, cands, "defining"

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

        return d, embed, root_vector, list(np.eye(n)), "defining"

    # B and D, so(d) on C^d: the Cartan matrix of w rotates plane (2k, 2k+1)
    # by w_k; the root vector of e_k +- e_l is v w^T - w v^T for the weight
    # vectors (e_2k -+ i e_2k+1)/sqrt2 of +-e_k, and w = e_(2 rank), the zero
    # weight, for B's short root e_k
    d = 2 * rank + 1 if family == "B" else 2 * rank
    planes = 2 * np.arange(rank)

    def embed(w):
        h = np.zeros((d, d), dtype=complex)
        h[planes, planes + 1] = 1j * w
        h[planes + 1, planes] = -1j * w
        return h

    def weight(k, s):
        u = np.zeros(d, dtype=complex)
        u[2 * k], u[2 * k + 1] = np.sqrt(0.5), -1j * s * np.sqrt(0.5)
        return u

    def root_vector(a):
        k, l = np.flatnonzero(a)[[0, -1]]
        v = weight(k, 1)
        w = weight(l, a[l]) if l != k else np.eye(d)[2 * rank]
        return np.outer(v, w) - np.outer(w, v)

    return d, embed, root_vector, list(np.eye(rank)), "vector"


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


def _adapted_csa(levels, embed, candidates, C: float, first_index: int) -> tuple:
    """Cartan axes numbered from `first_index`, their functionals orthonormal
    under Tr(embed(u) embed(v)) / C = kappa u . v: unit basic-coroot axes,
    then leftover axes per node, each seeded by one of `candidates`."""
    h = embed(np.eye(candidates[0].size)[0])
    kappa = np.real(np.trace(h @ h)) / C
    nodes = chain_nodes(levels)
    axes = []

    def add(kind, node, root, w):
        axes.append(CsaAxis(first_index + len(axes), kind, node.level, node.label, root,
                            w / np.sqrt(kappa * (w @ w))))

    for node in nodes:
        add("coroot", node, node.theta, _np_coords(coroot(node.theta)))
    for node in nodes:
        span = _gram_schmidt([_np_coords(s.coords) for s in node.simple_roots], kappa)
        forbidden = [_np_coords(coroot(node.theta))]
        for child in node.children:
            forbidden += [_np_coords(s.coords) for s in child.simple_roots]
        forbidden = _gram_schmidt(forbidden, kappa)
        before = len(axes)
        for cand in candidates:
            w = sum((kappa * (b @ cand) * b for b in span), np.zeros_like(cand))
            for b in forbidden + [ax.functional for ax in axes]:
                w = w - kappa * (b @ w) * b
            if np.sqrt(kappa * (w @ w)) > 1e-9:
                add("abelian", node, None, w)
        if len(axes) - before != node.abelian_dim:
            raise ConstructionError(f"expected {node.abelian_dim} leftover Cartan directions "
                                    f"at {node.label}, found {len(axes) - before}")
    return tuple(axes)


def _chevalley_vector(embed, root_vector, root: Root) -> np.ndarray:
    """The closed-form root vector, scaled so that [E, E^dag] is the coroot."""
    e = root_vector(root.coords)
    target = embed(_np_coords(coroot(root)))
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
def _cached_rep(family, rank):
    return _build_matrix_rep(family, rank)


def build_matrix_rep(family: str, rank: int, u1_count: int = 0) -> AlgebraRep:
    """Orthonormal root-adapted generator basis for family/rank, plus u(1)s:
    one build per (family, rank) and process, zero-extended."""
    _check_u1_count(u1_count)
    rep = _cached_rep(*_algebra_key(family, rank))
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
    f = rep.structure_constants()
    return AlgebraRep(
        family=rep.family, rank=rep.rank, u1_count=rep.u1_count + u, rep_kind=rep.rep_kind,
        matrix_dim=d + u, norm_const=rep.norm_const, generators=gens,
        csa_indices=rep.csa_indices, u1_indices=rep.u1_indices + tuple(range(D, D + u)),
        root_system=rep.root_system, chain_levels=rep.chain_levels, root_table=rep.root_table,
        csa_axes=rep.csa_axes + tuple(CsaAxis(index=i, kind="u1", level=-1, node_label="u1",
                                              root=None, functional=zero)
                                      for i in range(D, D + u)),
        _structure=StructureConstants(f.index, f.value, D + u))


def _build_matrix_rep(family, rank, raw: tuple | None = None):
    """The family's own representation, or the one `raw` writes out in the
    form `_raw_basis` returns."""
    rs, levels = root_chain(family, rank)
    d, embed, root_vector, candidates, kind = raw or _raw_basis(family, rank)
    C = NORM_CONST[family]
    npos = len(rs.positive_roots)
    D = 2 * npos + rank
    csa_axes = _adapted_csa(levels, embed, candidates, C, 2 * npos)
    W = np.stack([ax.functional for ax in csa_axes])

    gens = np.zeros((D, d, d), dtype=complex)
    table = {}

    for i, root in enumerate(rs.positive_roots):
        e = _chevalley_vector(embed, root_vector, root)
        a = W @ _np_coords(root.coords)
        nu = 1.0 / np.sqrt(a @ a)
        gens[2 * i] = (e + e.conj().T) / (2 * nu)
        gens[2 * i + 1] = -1j * (e - e.conj().T) / (2 * nu)
        table[root.coords] = RootVectorEntry(2 * i, 2 * i + 1, nu)

    gens[2 * npos:] = [embed(w) for w in W]
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
    _check_closure(gens, structure, comm)
    rep = AlgebraRep(
        family=family, rank=rank, u1_count=0, rep_kind=kind,
        matrix_dim=d, norm_const=C, generators=gens,
        csa_indices=tuple(2 * npos + k for k in range(rank)), u1_indices=(),
        root_system=rs, chain_levels=levels, root_table=table,
        csa_axes=csa_axes, _structure=structure)
    _check_chain(rep)
    return rep


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


def _check_closure(gens: np.ndarray, f: StructureConstants, comm: tuple) -> float:
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


def _check_chain(rep: AlgebraRep) -> None:
    """Check the basic-root chain against f, once per build: at every node,
    the node's roots whose generators commute with E_{+-theta} must be
    exactly the positive roots of its children, and the basic coroots must
    be mutually orthogonal.

    t_A commutes with E_{+-theta} when f[A, t, :] = 0 for both basis indices
    t of theta.  The node's subsystem is closed, so root + theta is never a
    root, and by the theta-string root +- theta is neither a root nor 0
    exactly when (root, theta) = 0; `rootsys._grow_chain` has checked that
    the children hold those roots, so this compares f with the exact root
    combinatorics.  Reads f and the root table, no generator matrix; raises
    ConstructionError.
    """
    f = rep.structure_constants()
    t = f.index[:, 1]
    nodes = chain_nodes(rep.chain_levels)
    for node in nodes:
        ent = rep.root_entry(node.theta)
        moved = np.zeros(f.dim, dtype=bool)
        moved[f.index[(t == ent.re_index) | (t == ent.im_index), 0]] = True
        pairs = [(e.re_index, e.im_index) for e in map(rep.root_entry, node.positive_roots)]
        free = ~moved[pairs].any(axis=1)
        got = {r.coords for r, ok in zip(node.positive_roots, free) if ok}
        want = {r.coords for c in node.children for r in c.positive_roots}
        if got != want:
            raise ConstructionError(
                f"chain node {node.label}: centralizer and children differ on roots "
                f"{sorted(got ^ want)}")
    w = np.array([rep.eigen_coords(n.theta) for n in nodes])
    resid = float(np.abs(np.triu(w @ w.T, 1)).max())
    if resid > 1e-9:
        raise ConstructionError(f"basic coroots are not orthogonal: {resid:.2e}")


def _structure_constants(g: np.ndarray, norm_const: float, comm: tuple) -> StructureConstants:
    """f_ABC = -(i/C) Tr([t_A, t_B] t_C), validated to be real, from `comm`,
    the `_commutator_entries` of the generators `g`.

    The commutator entries ([t_A, t_B])_ik are joined on (i, k) with the
    generator entries (t_C)_ki and summed by (A, B, C), so the cost follows
    the non-zero entries of the generators, not D^3.  Entries at or below
    F_ZERO are set to exact zero; the rest form the COO form.
    """
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
    out = StructureConstants(index, f.real[keep], D)
    for array in (out.index, out.value):
        array.setflags(write=False)
    return out
