"""Complex structures on the tangent space and the geometric residual checks.

The tangent space of a group manifold at the identity is the algebra itself,
described by an orthonormal generator basis and the structure constants
f_ABC.  A complex structure here is a real antisymmetric D x D matrix acting
on generator coefficients, squaring to -1.  All checks reduce to finite
tensor contractions:

  * integrability:  f_ABC - (IIf)_ABC - (IIf)_BCA - (IIf)_CAB = 0,
  * Bismut constancy at the origin (an identity for any antisymmetric I),
  * the torsion of the Bismut connection equals f itself,
  * the Nijenhuis tensor, evaluated by Richardson-extrapolated central
    differences of the coordinate field I_M^N(x) = (e I e^-1)_M^N built
    from the second-order vielbein e, along every direction x = +-h e_m.

The constructed I, J and K are signed permutations of the generator basis
up to rounding.  Every check but the quaternion and square ones therefore
runs on the exact signed permutation (its distance from the matrix is the
`snap` check) over the non-zero entries of f: each term of a contraction is
a relabelled, re-signed copy of those entries, and the terms are summed by
index triple.  The first three checks cost O(nnz f) time and memory, with
no (D, D, D) temporary.  The Nijenhuis check reads f as COO too: along e_m
the vielbein differs from 1 only on the support of f[:, m, :], block by
block, so e - 1 and e^-1 - 1 are small exact blocks, computed once per f
and step for I, J and K, and the differences of e I e^-1 and N are sums of
relabelled copies of their non-zero entries, one block of N's third index
at a time, so the check's working set does not grow with D^3.
"""

from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .liealg import AlgebraRep, CooTensor, StructureConstants, _reduce_by_key
from .rootsys import chain_nodes

DEFAULT_TOL = 1e-9

#: every check of a verdict and its bound as a function of the tolerance, in
#: the order in which the verdict names the first failure
BOUNDS = {
    "quaternion": lambda tol: tol,
    "invariance_leak": lambda tol: 1e-12,
    "snap": lambda tol: 1e-12,
    "integrability": lambda tol: tol,
    "square": lambda tol: tol,
    "bismut": lambda tol: 1e-12,
    "torsion_match": lambda tol: 10 * tol,
    "nijenhuis": lambda tol: 1e-5,
}

#: 4x4 blocks in the basis (t_A, t_A*, t_B, t_B*) or (t_A, t_A*, t_k, e_k)
SCRIPT_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
SCRIPT_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
SCRIPT_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)

_BLOCK_TAGS = (
    ("script-I", SCRIPT_I), ("script-J", SCRIPT_J), ("minus-script-J", -SCRIPT_J),
    ("script-K", SCRIPT_K), ("minus-script-K", -SCRIPT_K),
)


class PairingError(ValueError):
    """The Cartan/u(1) directions cannot be paired off; padding is wrong."""


@dataclass(frozen=True)
class Block:
    """One 4x4 block of a complex structure, with a shape tag."""

    indices: tuple         # four generator indices
    kind: str              # "theta" | "quartet"
    level: int
    description: str
    tag: str = "other"


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
    snap = float(np.abs(diff).max())
    if np.bincount(perm).max() > 1:
        snap = max(snap, 0.5)
    return perm, sign, snap


@dataclass(eq=False)
class ComplexStructure:
    """A structure's matrix and blocks, with the signed permutation nearest
    to the matrix (see `signed_permutation`)."""

    matrix: np.ndarray
    blocks: tuple = ()
    perm: np.ndarray = field(init=False, repr=False)
    sign: np.ndarray = field(init=False, repr=False)
    snap: float = field(init=False)

    def __post_init__(self):
        self.perm, self.sign, self.snap = signed_permutation(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def square_residual(self) -> float:
        m = self.matrix
        return float(np.abs(m @ m + np.eye(self.dim)).max())

    def tagged(self) -> "ComplexStructure":
        return ComplexStructure(self.matrix, classify_blocks(self.matrix, self.blocks))


def classify_blocks(matrix: np.ndarray, blocks: Iterable[Block], tol: float = 1e-8) -> tuple:
    out = []
    for b in blocks:
        sub = matrix[np.ix_(b.indices, b.indices)]
        tag = "other"
        for name, ref in _BLOCK_TAGS:
            if np.abs(sub - ref).max() <= tol:
                tag = name
                break
        out.append(Block(b.indices, b.kind, b.level, b.description, tag))
    return tuple(out)


def _matrix_of(x) -> np.ndarray:
    return x.matrix if isinstance(x, ComplexStructure) else np.asarray(x, dtype=float)


def _structure_of(x) -> ComplexStructure:
    return x if isinstance(x, ComplexStructure) else ComplexStructure(_matrix_of(x))


def _coo_of(f) -> CooTensor:
    if isinstance(f, CooTensor):
        return f
    if isinstance(f, StructureConstants):
        return f.coo
    return CooTensor.from_dense(f)


def canonical_blocks(rep: AlgebraRep, pairs: Sequence[tuple]) -> tuple:
    """Partition of generator indices into theta blocks and root quartets."""
    if rep.root_system is None:
        return ()
    blocks = []
    partner = dict(pairs)
    order = {r.coords: i for i, r in enumerate(rep.root_system.positive_roots)}
    for node in chain_nodes(rep.chain_levels):
        theta = node.theta
        ent = rep.root_entry(theta)
        node_pos = {r.coords for r in node.subsystem.positive_roots}
        t = rep.coroot_axis_index(theta)
        if t in partner:
            blocks.append(Block(
                indices=(ent.re_index, ent.im_index, t, partner[t]),
                kind="theta", level=node.level,
                description=f"theta block {node.label}"))
        seen = set()
        for mu in node.subsystem.positive_roots:
            if mu.coords == theta.coords or mu.coords in seen:
                continue
            rest = tuple(a - b for a, b in zip(theta.coords, mu.coords))
            if rest not in node_pos or rest in seen or mu.dot(theta) == 0:
                continue
            nu = rep.root_system.root(rest)
            first, second = (mu, nu) if order[mu.coords] < order[nu.coords] else (nu, mu)
            e1, e2 = rep.root_entry(first), rep.root_entry(second)
            blocks.append(Block(
                indices=(e1.re_index, e1.im_index, e2.re_index, e2.im_index),
                kind="quartet", level=node.level,
                description=f"quartet ({first}, {second}) of {node.label}"))
            seen.add(mu.coords)
            seen.add(rest)
    return tuple(blocks)


def canonical_I(rep: AlgebraRep, pairs: Sequence[tuple]) -> ComplexStructure:
    """The canonical complex structure: -i on every positive root vector,
    t -> e on each (t, e) pair of Cartan/u(1) generator indices."""
    used = [i for pair in pairs for i in pair]
    if not set(used) <= set(rep.csa_indices + rep.u1_indices) or len(set(used)) != len(used):
        raise PairingError(f"pairs {list(pairs)} must use distinct Cartan/u(1) axes")
    D = rep.dim
    m = np.zeros((D, D))
    for entry in rep.root_table.values():
        m[entry.im_index, entry.re_index] = 1.0
        m[entry.re_index, entry.im_index] = -1.0
    for t, e in pairs:
        m[e, t] = 1.0
        m[t, e] = -1.0
    m.setflags(write=False)
    return ComplexStructure(m, canonical_blocks(rep, pairs)).tagged()


# ---------------------------------------------------------------------------
# residuals

def _signed_of(I) -> tuple:
    """(perm, sign) of a structure; ValueError when it is farther than the
    snap bound from every signed permutation."""
    s = _structure_of(I)
    bound = BOUNDS["snap"](DEFAULT_TOL)
    if not s.snap <= bound:
        raise ValueError(f"structure is {s.snap:.3e} from the nearest signed permutation, "
                         f"above the snap bound {bound:g}")
    return s.perm, s.sign


def _sum_by_key(dim: int, terms) -> tuple:
    """The distinct flat keys of the (a, b, c, value) terms of a (dim, dim, dim)
    tensor and the sum of the values at each."""
    return _reduce_by_key(np.concatenate([(a * dim + b) * dim + c for a, b, c, _ in terms]),
                          np.concatenate([v for *_, v in terms]))


def _max_abs(dim: int, terms) -> float:
    _, sums = _sum_by_key(dim, terms)
    return float(np.abs(sums).max(initial=0.0))


def _f_terms(coo: CooTensor, scale: float = 1.0) -> list:
    return [(*coo.index.T, scale * coo.value)]


def _integrability_terms(perm, sign, coo: CooTensor) -> list:
    """f_ABC - (IIf)_ABC - (IIf)_BCA - (IIf)_CAB, where f_DEC lands in (IIf) at
    (perm D, perm E, C) with the sign sign_D sign_E."""
    d, e, c = coo.index.T
    a, b = perm[d], perm[e]
    w = -sign[d] * sign[e] * coo.value
    return _f_terms(coo) + [(a, b, c, w), (c, a, b, w), (b, c, a, w)]


def _di_terms(perm, sign, coo: CooTensor) -> list:
    """dI[P, M, N] = d_P I_MN of the group-covariant field at the origin,
    (I_MQ f_NQP - I_NQ f_MQP) / 2."""
    n, q, p = coo.index.T
    m = perm[q]
    w = 0.5 * sign[q] * coo.value
    return [(p, m, n, w), (p, n, m, -w)]


def _bismut_terms(perm, sign, coo: CooTensor) -> list:
    """dI[P, M, N] - (f_QPM I_QN + f_QPN I_MQ) / 2: an entry f_QPC lands at
    (P, C, N) with I_QN and at (P, M, C) with I_MQ."""
    q, p, c = coo.index.T
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    h = 0.5 * coo.value
    return _di_terms(perm, sign, coo) + [(p, c, inv[q], -sign[inv[q]] * h),
                                         (p, perm[q], c, -sign[q] * h)]


def _hull_terms(perm, sign, coo: CooTensor) -> list:
    """C_MNP = I_MQ I_NS I_PR (dI_QSR + dI_SRQ + dI_RQS)."""
    out = []
    for q, s, r, w in _di_terms(perm, sign, coo):
        for x, y, z in ((q, s, r), (s, r, q), (r, q, s)):
            out.append((perm[x], perm[y], perm[z], sign[x] * sign[y] * sign[z] * w))
    return out


def integrability_residual(I, f) -> float:
    """max |f_ABC - I_AD I_BE f_DEC - I_BD I_CE f_DEA - I_CD I_AE f_DEB|, on
    the signed permutation of I."""
    coo = _coo_of(f)
    return _max_abs(coo.dim, _integrability_terms(*_signed_of(I), coo))


def quaternion_residual(I, J, K) -> float:
    """max over p,q of ||I_p I_q + delta_pq - eps_pqs I_s||_F."""
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


def bismut_residual(I, f) -> float:
    """Residual of the covariant constancy under the torsionful connection,
    on the signed permutation of I.

    Vanishes identically for any antisymmetric I by cyclicity of f; a nonzero
    value signals an index-convention bug, not a geometric failure.
    """
    coo = _coo_of(f)
    return _max_abs(coo.dim, _bismut_terms(*_signed_of(I), coo))


#: the finite-difference steps of the Nijenhuis check: below 2.98e-154,
#: (step/2)**2, the vielbein's second-order term at the half step, is no longer
#: a normal float, and a subnormal step ends in a Nijenhuis value of nan or 1
MIN_FD_STEP = 2 * sys.float_info.min ** 0.5
MAX_FD_STEP = 1e-2


def _check_fd_step(step: float) -> None:
    """Raise ValueError unless MIN_FD_STEP <= step <= MAX_FD_STEP."""
    if not MIN_FD_STEP <= step <= MAX_FD_STEP:
        sci = functools.partial(np.format_float_scientific, precision=2, trim="-",
                                exp_digits=1)
        raise ValueError(f"fd-step must lie in [{sci(MIN_FD_STEP)}, {sci(MAX_FD_STEP)}], "
                         f"so that (step/2)**2 stays a normal float; got {step:g}")


#: weights of the vielbein variants x = +h e_m, -h e_m, +h' e_m, -h' e_m
#: (h = step, h' = h/2) in 2h d[m]: the real part for d at the step h, the
#: imaginary part for its Richardson extrapolation (4 d' - d)/3, with d' the
#: same difference at h', (field(h' e_m) - field(-h' e_m)) / 2h'.  Carrying
#: both in one complex value sums them with one sort.
_WEIGHTS = np.array([1 - 1j / 3, -1 + 1j / 3, 8j / 3, -8j / 3])

#: entries of Y = e^-1 - 1 per block of columns, the third index k of d, t1
#: and N; the terms of a block, a few per entry, exist one block at a time
_BLOCK = 1 << 11


def _offset_blocks(coo: CooTensor, step: float) -> list:
    """One (m, support, X, Y) per size s of the components: X and Y at
    x = +h e_m for h = step and step/2 on the n components of that size,
    stacked as (n, 2, s, s), block g of the direction m[g] on the indices
    support[g] (see `_vielbein_offsets`)."""
    dim = coo.dim
    a, m, c = coo.index.T
    node, other = m * dim + a, m * dim + c
    members, starts = _components(node, other, dim * dim)
    sizes = np.diff(starts, append=members.size)
    # component and position within it of every node (m, a) with m * dim + a
    component, position = np.zeros(dim * dim, dtype=int), np.zeros(dim * dim, dtype=int)
    component[members] = np.repeat(np.arange(starts.size), sizes)
    position[members] = np.arange(members.size) - np.repeat(starts, sizes)
    out = []
    for s in np.flatnonzero(np.bincount(sizes)):
        blocks = np.flatnonzero(sizes == s)
        block = np.full(starts.size, -1)
        block[blocks] = np.arange(blocks.size)
        inside = block[component[node]] >= 0
        F = np.zeros((blocks.size, s, s))
        F[block[component[node[inside]]], position[node[inside]],
          position[other[inside]]] = coo.value[inside]
        quad = F @ F.transpose(0, 2, 1)
        plus = np.stack([-h / 2 * F - h * h / 6 * quad for h in (step, step / 2)], axis=1)
        nodes = members[starts[blocks][:, None] + np.arange(s)]
        out.append((nodes[:, 0] // dim, nodes % dim, plus,
                    -np.linalg.solve(np.eye(s) + plus, plus)))
    return out


def _sites(blocks, dim: int, itype) -> tuple:
    """(m * D + row, m * D + col, values) of the entries of offset blocks
    where one of the four variants is non-zero, with the (n, 4) values in
    the order of `_WEIGHTS`.  Each of `blocks` is (m, support, plus), plus
    the offsets at x = +h e_m as in `_offset_blocks`; those at -h e_m are
    their transposes."""
    patterns = [(plus != 0).any(axis=1) for _, _, plus in blocks]
    patterns = [p | p.transpose(0, 2, 1) for p in patterns]
    n = sum(int(p.sum()) for p in patterns)
    rows, cols = np.empty(n, dtype=itype), np.empty(n, dtype=itype)
    values = np.empty((n, len(_WEIGHTS)))
    at = 0
    for (m, support, plus), pattern in zip(blocks, patterns):
        g, r, c = np.nonzero(pattern)
        part = slice(at, at + g.size)
        rows[part] = m[g] * dim + support[g, r]
        cols[part] = m[g] * dim + support[g, c]
        minus = plus.transpose(0, 1, 3, 2)
        for v, offsets in enumerate((plus[:, 0], minus[:, 0], plus[:, 1], minus[:, 1])):
            values[part, v] = offsets[g, r, c]
        at += g.size
    return rows, cols, values


def _grouped(group: np.ndarray, count: int, index: np.ndarray, value: np.ndarray) -> tuple:
    """(start, index, value) with the entries ordered by their group in
    range(count), those of group g from start[g] to start[g + 1]; `start`
    takes the integer type of `index`."""
    order = np.argsort(group, kind="stable")
    start = np.zeros(count + 1, dtype=index.dtype)
    np.cumsum(np.bincount(group, minlength=count), out=start[1:])
    return start, index[order], value[order]


def _components(node: np.ndarray, other: np.ndarray, size: int) -> tuple:
    """The connected components of the graph on range(size) whose edge list
    (node, other) holds every edge both ways round: the nodes that have an
    edge, grouped by component in ascending order, and the start of each
    component among them."""
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, node, label[other])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    touched = np.zeros(size, dtype=bool)
    touched[node] = True
    nodes = np.flatnonzero(touched)
    members = nodes[np.argsort(label[nodes], kind="stable")]
    return members, np.flatnonzero(np.diff(label[members], prepend=-1))


@functools.lru_cache(maxsize=1)
def _vielbein_offsets(coo: CooTensor, step: float) -> tuple:
    """X = e - 1 and Y = e^-1 - 1 for every direction m and every variant of
    `_WEIGHTS`, as the (start, index, values) of `_grouped` over the entries
    (m, row, col) where a variant is non-zero, `values` one column per
    variant: X grouped by m * D + col, with the row as index; Y grouped by
    col, with m * D + row as index.

    At x = +-h e_m the second-order vielbein
    e_MA(x) = delta_MA - (1/2) f_MPA x_P - (1/6) f_MPQ f_ARQ x_P x_R is
    e = 1 -+ (h/2) F_m - (h^2/6) F_m F_m^T with F_m = f[:, m, :].  F_m is
    antisymmetric, so X lives on S_m x S_m, S_m the support of F_m, and is
    block diagonal over the connected components of F_m's graph (2 to 9
    indices up to A13), and so is Y = -(1 + X)^-1 X: Y is exact from one
    small solve per component, batched over the components of one size.
    The offsets at -h e_m are the transposes of those at +h e_m, so the
    four variants share one pattern of entries.  X and Y depend on f and
    the step alone, so I, J and K share them.  Indices and starts, all
    below D^3, are int32 where that fits.
    """
    dim = coo.dim
    itype = np.int32 if dim ** 3 <= np.iinfo(np.int32).max else np.int64
    blocks = _offset_blocks(coo, step)
    rows, cols, values = _sites([(m, support, x) for m, support, x, _ in blocks], dim, itype)
    X = _grouped(cols, dim * dim, rows % dim, values)
    del rows, cols, values      # freed before Y's sites are made: the build's peak
    rows, cols, values = _sites([(m, support, y) for m, support, _, y in blocks], dim, itype)
    return X, _grouped(cols % dim, dim, rows, values)


def _upper(m: np.ndarray, n: np.ndarray, k: np.ndarray, value: np.ndarray) -> tuple:
    """The term (m, n, k, value) of a tensor antisymmetric in (m, n) moved to
    m <= n: (n, m, k, -value) when m > n, and value 0 when m = n."""
    return np.minimum(m, n), np.maximum(m, n), k, np.sign(n - m) * value


def _nijenhuis_max(perm, sign, dim: int, d_terms) -> tuple:
    """max |N_MNK| of N = t1 - I t1 I^T, t1 = d - d.transpose(1, 0, 2), for
    the real and the imaginary part of the (m, n, k, value) terms of d.  t1
    and N are antisymmetric in (m, n), so both are summed for m < n only."""
    keys, t1 = _sum_by_key(dim, [_upper(*term) for term in d_terms])
    m, n, k = keys // (dim * dim), keys // dim % dim, keys % dim
    _, sums = _sum_by_key(dim, [(m, n, k, t1),
                                _upper(perm[m], perm[n], k, -sign[m] * sign[n] * t1)])
    return tuple(float(np.abs(part).max(initial=0.0)) for part in (sums.real, sums.imag))


def _column_blocks(start: np.ndarray, size: int):
    """Ranges [lo, hi) of columns, each holding at most `size` entries of a
    grouping by column with starts `start`, or else one column."""
    lo, dim = 0, start.size - 1
    while lo < dim:
        hi = int(np.searchsorted(start, start[lo] + size, "right")) - 1
        hi = min(max(hi, lo + 1), dim)
        yield lo, hi
        lo = hi


def nijenhuis_at_origin(rep: AlgebraRep, I, step: float = 1e-4) -> float:
    """max |N_MN^K| at the identity from Richardson-extrapolated central
    differences d[m] = (field(h e_m) - field(-h e_m)) / 2h of the coordinate
    field e I e^-1, on the signed permutation of I.

    field - I = X I + I Y + X I Y with the offsets of `_vielbein_offsets`;
    I relabels them, so d and N are sums of relabelled COO terms.  No term
    mixes the third index k, so they are summed one block of k at a time.
    Raises ValueError for a step outside [MIN_FD_STEP, MAX_FD_STEP].
    """
    _check_fd_step(step)
    perm, sign = _signed_of(I)
    coo = rep.structure_constants().coo
    dim = coo.dim
    inv = np.empty_like(perm)
    inv[perm] = np.arange(dim)
    (xstart, xrow, xval), (ystart, yrow, yval) = _vielbein_offsets(coo, step)
    # (values @ weights).view(complex) sums the variants as weighted in 2h d
    weights = np.stack([_WEIGHTS.real, _WEIGHTS.imag], axis=1) / (2 * step)
    # the entries f[a, m, c] of X I by their column inv[c]
    fk = inv[coo.index[:, 2]]
    forder = np.argsort(fk, kind="stable")
    fstart = np.searchsorted(fk[forder], np.arange(dim + 1))

    def block_terms(lo: int, hi: int) -> list:
        """The (m, n, k, value) terms of d for the columns k in [lo, hi)."""
        # X I: (X_+ - X_-) I / 2h = -F_m I / 2 exactly, the same at both steps
        f = forder[fstart[lo]:fstart[hi]]
        a, m, _ = coo.index[f].T
        fixed = (m, a, fk[f], -0.5 * (1 + 1j) * sign[fk[f]] * coo.value[f])
        # I Y: the entry (q, k) of Y moves to row perm[q]
        y = slice(ystart[lo], ystart[hi])
        ym, q = np.divmod(yrow[y].astype(np.int64), dim)
        yk = np.repeat(np.arange(lo, hi), np.diff(ystart[lo:hi + 1]))
        signed = sign[q, None] * yval[y]
        iy = (ym, perm[q], yk, (signed @ weights).view(complex)[:, 0])
        # X I Y: the entry (q, k) of Y meets the run of X's column perm[q]
        key = ym * dim + perm[q]
        count = xstart[key + 1] - xstart[key]
        l = np.repeat(np.arange(key.size), count)
        x = np.repeat(xstart[key] - np.cumsum(count) + count, count) + np.arange(l.size)
        xiy = (ym[l], xrow[x], yk[l], ((xval[x] * signed[l]) @ weights).view(complex)[:, 0])
        return [fixed, iy, xiy]

    n_coarse = n_extrap = 0.0
    for lo, hi in _column_blocks(ystart, _BLOCK):
        coarse, extrap = _nijenhuis_max(perm, sign, dim, block_terms(lo, hi))
        n_coarse, n_extrap = max(n_coarse, coarse), max(n_extrap, extrap)
    if n_extrap > 10.0 * max(n_coarse, 1e-12) and n_extrap > 1e-8:
        warnings.warn(
            f"Richardson extrapolation diverged (step {step:g}): {n_coarse:.2e} -> {n_extrap:.2e}; "
            "the step size is probably too small or too large", RuntimeWarning)
    return n_extrap


@dataclass
class GeometryResidualReport:
    """Residuals of one complex structure against all geometric conditions."""

    snap: float
    integrability: float
    square: float
    bismut: float
    torsion_match: float
    nijenhuis: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "snap": self.snap,
            "integrability": self.integrability,
            "square": self.square,
            "bismut": self.bismut,
            "torsion_match": self.torsion_match,
            "nijenhuis": self.nijenhuis,
        }

    def worst(self) -> float:
        vals = [self.snap, self.integrability, self.square, self.bismut, self.torsion_match]
        if self.nijenhuis is not None:
            vals.append(self.nijenhuis)
        return max(vals)


def geometry_report(I, f, tol: float = DEFAULT_TOL,
                    nijenhuis: float | None = None) -> GeometryResidualReport:
    """All residual checks for one structure against the structure constants
    f; the Nijenhuis value is measured on the whole algebra and passed in.

    Integrability, Bismut constancy and the torsion match run on the signed
    permutation of I, so they are infinite when its snap is above bound;
    the torsion match is also infinite when I is not integrable.
    """
    s = _structure_of(I)
    coo = _coo_of(f)
    sq = s.square_residual()
    integ = bis = tors = float("inf")
    if s.snap <= BOUNDS["snap"](tol):
        integ = _max_abs(coo.dim, _integrability_terms(s.perm, s.sign, coo))
        bis = _max_abs(coo.dim, _bismut_terms(s.perm, s.sign, coo))
        if integ <= tol:
            tors = _max_abs(coo.dim, _hull_terms(s.perm, s.sign, coo) + _f_terms(coo, -1.0))
    return GeometryResidualReport(snap=s.snap, integrability=integ, square=sq, bismut=bis,
                                  torsion_match=tors, nijenhuis=nijenhuis)


def first_failure(values: Iterable, tol: float) -> tuple | None:
    """The first (check, value, bound) of the (check, value) pairs whose value
    exceeds its bound, or None.  A check is a BOUNDS key, optionally prefixed
    with a structure ("J.square"); a value of None is a check not run."""
    for check, value in values:
        bound = BOUNDS[check.rpartition(".")[2]](tol)
        if value is not None and not value <= bound:
            return check, value, bound
    return None
