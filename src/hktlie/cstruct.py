"""Complex structures on the tangent space and the geometric residual checks.

The tangent space of a group manifold at the identity is the algebra itself,
described by an orthonormal generator basis and the structure constants
f_ABC.  A complex structure here is a real antisymmetric D x D matrix acting
on generator coefficients, squaring to -1.  All checks reduce to finite
tensor contractions:

  * integrability:  f_ABC - (IIf)_ABC - (IIf)_BCA - (IIf)_CAB = 0,
  * Bismut constancy at the origin (an identity for any antisymmetric I),
  * the torsion of the Bismut connection equals f itself (for an orthogonal
    I with I I = -1 the hull torsion minus f is exactly minus the
    integrability tensor, so this restates integrability through its own
    kernel, a runtime cross-check like Bismut's),
  * the Nijenhuis tensor, evaluated by Richardson-extrapolated central
    differences of the coordinate field I_M^N(x) = (e I e^-1)_M^N built
    from the second-order vielbein e, along every direction x = +-h e_m.

A structure is held as the signed permutation that sends direction j to
sign[j] times direction perm[j].  I and J are exact signed permutations of
the tangent directions from one walk of the chain: J is +-J0 on each 4x4
block of I, with one sign read off f, so nothing is conjugated or snapped.
Every check runs on the permutations.  The quaternion and square checks
compose them, so they read exactly 0 or at least 1.  The others run over
the non-zero entries of f: each term of a contraction is a relabelled,
re-signed copy of those entries, and the terms are summed by index triple.
The first three checks cost O(nnz f) time and memory, with no (D, D, D)
temporary.  The Nijenhuis check reads f as COO too: along e_m
the vielbein differs from 1 only on the support of f[:, m, :], block by
block, so e - 1 and e^-1 - 1 are small exact blocks, computed once per f
and step for I, J and K, and the differences of e I e^-1 and N are sums of
relabelled copies of their non-zero entries, one block of N's third index
at a time, so the check's working set does not grow with D^3.
"""

from __future__ import annotations

import functools
import warnings
from typing import Sequence

import numpy as np

from .bounds import (BOUNDS, DEFAULT_FD_STEP, DEFAULT_TOL, MAX_FD_STEP, MIN_FD_STEP,  # noqa: F401
                     RECORDED, STRUCTURE_CHECKS, PairingError, _check_fd_step, first_failure)
from .liealg import AlgebraRep, StructureConstants, _reduce_by_key
from .rootsys import _Value, chain_nodes


class Block(_Value):
    """One 4x4 block of a complex structure: (t_A, t_A*, t_B, t_B*) or
    (t_A, t_A*, t_k, e_k), its four direction indices; `kind` is "theta" or
    "quartet"; `sign` is J's on the block, +1 or -1 (0 where f gives none),
    J being sign times J0: e0 -> e2, e1 -> -e3, e2 -> -e0, e3 -> e1."""

    def __init__(self, indices: tuple, kind: str, level: int, description: str, sign: int):
        self.__dict__.update(indices=indices, kind=kind, level=level, description=description,
                             sign=sign)


class ComplexStructure:
    """A complex structure on the tangent directions: the signed permutation
    that sends direction j to sign[j] times direction perm[j], and its 4x4
    blocks.  `matrix` is the dense view, built on first read."""

    def __init__(self, perm: np.ndarray, sign: np.ndarray, blocks: tuple = ()):
        for a in (perm, sign):      # `matrix` is built from them once
            a.setflags(write=False)
        self.perm = perm
        self.sign = sign
        self.blocks = blocks

    @property
    def dim(self) -> int:
        return self.perm.size

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        m[self.perm, np.arange(self.dim)] = self.sign
        m.setflags(write=False)
        return m

    def square_residual(self) -> float:
        """max |I I + 1|: 0 when I squares to -1, at least 1 otherwise.
        Column j of I I holds one entry s, in row p; with the identity's 1
        that is |s + 1| when p = j, else two entries of magnitude 1."""
        perm, sign = _product((self.perm, self.sign), (self.perm, self.sign))
        return float(np.where(perm == np.arange(self.dim), np.abs(sign + 1), 1.0).max(initial=0))


def _product(a: tuple, b: tuple) -> tuple:
    """(perm, sign) of the product a b of two signed permutations."""
    (pa, sa), (pb, sb) = a, b
    return pa[pb], sb * sa[pb]


def canonical_I(rep: AlgebraRep, quotient: Sequence[int] = ()) -> ComplexStructure:
    """The canonical complex structure on the directions outside `quotient`
    (all generators for a group manifold), numbered in their order, from one
    walk of the chain: -i on every positive root vector, and the coroot axis
    of each node outside the quotient, in chain order, sent to one leftover
    abelian or u(1) axis outside it.  Its blocks are each node's theta block
    and root quartets that stay outside the quotient, each with J's sign.

    A `quotient` entry that is not an integer in range(rep.dim) raises
    ValueError; more or fewer leftover axes than coroot axes, or a direction
    whose partner lies in the quotient, raises PairingError."""
    return _canonical(rep, quotient)[0]


def _canonical(rep: AlgebraRep, quotient: Sequence[int]) -> tuple:
    """(I, J, leak): `canonical_I` and its partner J, sign times J0 on each
    block, the sign +1 on a theta block and sign f[theta.re, mu.re, nu.im]
    on the quartet (mu, nu = theta - mu) (Spindel, Sevrin, Troost and Van
    Proeyen, Nucl. Phys. B308, 1988: the quarter turn of theta's su(2)).
    `leak` names the first direction outside the quotient whose block is
    not wholly outside it, or is ""; J sends such a direction to 0."""
    for i in quotient:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < rep.dim:
            raise ValueError(f"quotient index {i!r} is not a generator index in [0, {rep.dim})")
    d = rep.dim
    inside = np.ones(d, dtype=bool)
    inside[list(quotient)] = False
    leftover = [ax.index for ax in rep.csa_axes
                if ax.kind in ("abelian", "u1") and inside[ax.index]]
    partners = iter(leftover)
    f = rep.structure_constants()
    keys = (f.index[:, 0] * d + f.index[:, 1]) * d + f.index[:, 2]    # ascending, as f keeps them
    pairs, blocks = [], []
    for node in chain_nodes(rep.chain_levels):
        theta, roots = node.theta, node.positive_roots
        t = rep.coroot_axis_index(theta)
        ent = rep.root_entry(theta)
        if inside[t]:
            pairs.append((t, next(partners, None)))
            blocks.append(Block((ent.re_index, ent.im_index, *pairs[-1]), "theta", node.level,
                                f"theta block {node.label}", 1))
        # theta = mu + nu, found once from the lower-ordered root mu
        order = {r.coords: i for i, r in enumerate(roots)}
        for i, mu in enumerate(roots):
            j = order.get(tuple(a - b for a, b in zip(theta.coords, mu.coords)), -1)
            if i < j:
                e1, e2 = rep.root_entry(mu), rep.root_entry(roots[j])
                key = (ent.re_index * d + e1.re_index) * d + e2.im_index
                at = min(int(np.searchsorted(keys, key)), keys.size - 1)
                eps = int(np.sign(f.value[at])) if keys[at] == key else 0
                blocks.append(Block((e1.re_index, e1.im_index, e2.re_index, e2.im_index),
                                    "quartet", node.level,
                                    f"quartet ({mu}, {roots[j]}) of {node.label}", eps))
    missing = len(pairs) - len(leftover)
    if missing:
        need = (f"requires {missing} more u(1) factor(s)" if missing > 0
                else f"{-missing} u(1) factor(s) too many")
        raise PairingError(f"cannot pair {len(pairs)} basic coroot(s) with {len(leftover)} "
                           f"leftover Cartan/u(1) direction(s); {need}")

    perm = np.full(d, -1)
    sign = np.ones(d)
    for j, k in [(e.re_index, e.im_index) for e in rep.root_table.values()] + pairs:
        perm[j], perm[k] = k, j
        sign[k] = -1.0
    tangent = np.flatnonzero(inside)
    lost = tangent[(perm[tangent] < 0) | ~inside[perm[tangent]]]
    if lost.size:
        raise PairingError(f"generator(s) {lost.tolist()} outside the quotient have no "
                           "partner outside it")
    jperm, jsign = np.full(d, -1), np.zeros(d)
    for b in blocks:        # J0, as `Block` gives it
        at = list(b.indices)
        jperm[at] = [b.indices[p] for p in (2, 3, 0, 1)]
        jsign[at] = b.sign * np.array([1.0, -1.0, -1.0, 1.0])
    jperm, jsign = jperm[tangent], jsign[tangent]
    held = (jperm >= 0) & inside[jperm]
    leak = ""
    if not held.all():
        first = np.argmin(held)
        leak = f"J leaks out of index {tangent[first]}" + (
            f" into quotient index {jperm[first]}" if jperm[first] >= 0
            else ", which lies in no block")
    number = np.cumsum(inside) - 1
    blocks = tuple(Block(tuple(int(number[i]) for i in b.indices), b.kind, b.level,
                         b.description, b.sign)
                   for b in blocks if inside[list(b.indices)].all())
    I = ComplexStructure(number[perm[tangent]], sign[tangent], blocks)
    J = ComplexStructure(np.where(held, number[jperm], np.arange(tangent.size)),
                         np.where(held, jsign, 0.0), blocks)
    return I, J, leak


# ---------------------------------------------------------------------------
# residuals

def _sum_by_key(dim: int, terms) -> tuple:
    """The distinct flat keys of the (a, b, c, value) terms of a (dim, dim, dim)
    tensor and the sum of the values at each."""
    return _reduce_by_key(np.concatenate([(a * dim + b) * dim + c for a, b, c, _ in terms]),
                          np.concatenate([v for *_, v in terms]))


def _max_abs(dim: int, terms) -> float:
    _, sums = _sum_by_key(dim, terms)
    return float(np.abs(sums).max(initial=0.0))


def _f_terms(f: StructureConstants, scale: float = 1.0) -> list:
    return [(*f.index.T, scale * f.value)]


def _integrability_terms(perm, sign, f: StructureConstants) -> list:
    """f_ABC - (IIf)_ABC - (IIf)_BCA - (IIf)_CAB, where f_DEC lands in (IIf) at
    (perm D, perm E, C) with the sign sign_D sign_E."""
    d, e, c = f.index.T
    a, b = perm[d], perm[e]
    w = -sign[d] * sign[e] * f.value
    return _f_terms(f) + [(a, b, c, w), (c, a, b, w), (b, c, a, w)]


def _di_terms(perm, sign, f: StructureConstants) -> list:
    """dI[P, M, N] = d_P I_MN of the group-covariant field at the origin,
    (I_MQ f_NQP - I_NQ f_MQP) / 2."""
    n, q, p = f.index.T
    m = perm[q]
    w = 0.5 * sign[q] * f.value
    return [(p, m, n, w), (p, n, m, -w)]


def _bismut_terms(perm, sign, f: StructureConstants) -> list:
    """dI[P, M, N] - (f_QPM I_QN + f_QPN I_MQ) / 2: an entry f_QPC lands at
    (P, C, N) with I_QN and at (P, M, C) with I_MQ."""
    q, p, c = f.index.T
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    h = 0.5 * f.value
    return _di_terms(perm, sign, f) + [(p, c, inv[q], -sign[inv[q]] * h),
                                       (p, perm[q], c, -sign[q] * h)]


def _hull_terms(perm, sign, f: StructureConstants) -> list:
    """C_MNP = I_MQ I_NS I_PR (dI_QSR + dI_SRQ + dI_RQS).  dI_PMN is
    D_PMN - D_PNM with D_PMN = I_MQ f_NQP / 2, antisymmetric in (P, N), so
    the cyclic sum is 2 (D_QSR + D_SRQ + D_RQS): three relabellings of D."""
    (q, s, r, w), _ = _di_terms(perm, sign, f)
    return [(perm[x], perm[y], perm[z], 2 * sign[x] * sign[y] * sign[z] * w)
            for x, y, z in ((q, s, r), (s, r, q), (r, q, s))]


def integrability_residual(I, f: StructureConstants) -> float:
    """max |f_ABC - I_AD I_BE f_DEC - I_BD I_CE f_DEA - I_CD I_AE f_DEB|, on
    the signed permutation of I."""
    return _max_abs(f.dim, _integrability_terms(I.perm, I.sign, f))


def quaternion_residual(I: ComplexStructure, J: ComplexStructure,
                        K: ComplexStructure) -> float:
    """max over p,q of ||I_p I_q + delta_pq - eps_pqs I_s||_F on the signed
    permutations: 0 for a quaternion triple, at least 1 otherwise."""
    signed = [(x.perm, x.sign) for x in (I, J, K)]
    worst = 0.0
    for p in range(3):
        for q in range(3):
            perm, sign = _product(signed[p], signed[q])
            if p == q:
                rest, coeff = (np.arange(I.dim), np.ones(I.dim)), 1.0
            else:       # eps_pqs = 1 when q follows p cyclically, else -1
                rest, coeff = signed[3 - p - q], (-1.0 if (q - p) % 3 == 1 else 1.0)
            # two signed permutations: dim entries of magnitude 1 each, which
            # add or cancel where they meet
            meet = np.sum(sign * rest[1], where=perm == rest[0])
            worst = max(worst, float(np.sqrt(2 * I.dim + 2 * coeff * meet)))
    return worst


def bismut_residual(I, f: StructureConstants) -> float:
    """Residual of the covariant constancy under the torsionful connection,
    on the signed permutation of I.

    Vanishes identically for any antisymmetric I by cyclicity of f; a nonzero
    value signals an index-convention bug, not a geometric failure.
    """
    return _max_abs(f.dim, _bismut_terms(I.perm, I.sign, f))


#: weights of the vielbein variants x = +h e_m, -h e_m, +h' e_m, -h' e_m
#: (h = step, h' = h/2) in 2h d[m]: the real part for d at the step h, the
#: imaginary part for its Richardson extrapolation (4 d' - d)/3, with d' the
#: same difference at h', (field(h' e_m) - field(-h' e_m)) / 2h'.  Carrying
#: both in one complex value sums them with one sort.
_WEIGHTS = np.array([1 - 1j / 3, -1 + 1j / 3, 8j / 3, -8j / 3])

#: entries of Y = e^-1 - 1 per block of columns, the third index k of d, t1
#: and N; the terms of a block, a few per entry, exist one block at a time
_BLOCK = 1 << 11


def _offset_blocks(f: StructureConstants, step: float) -> list:
    """One (m, support, X, Y) per size s of the components: X and Y at
    x = +h e_m for h = step and step/2 on the n components of that size,
    stacked as (n, 2, s, s), block g of the direction m[g] on the indices
    support[g] (see `_vielbein_offsets`)."""
    dim = f.dim
    a, m, c = f.index.T
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
          position[other[inside]]] = f.value[inside]
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
def _vielbein_offsets(f: StructureConstants, step: float) -> tuple:
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
    dim = f.dim
    itype = np.int32 if dim ** 3 <= np.iinfo(np.int32).max else np.int64
    blocks = _offset_blocks(f, step)
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


def nijenhuis_at_origin(rep: AlgebraRep, I, step: float = DEFAULT_FD_STEP) -> float:
    """max |N_MN^K| at the identity from Richardson-extrapolated central
    differences d[m] = (field(h e_m) - field(-h e_m)) / 2h of the coordinate
    field e I e^-1, on the signed permutation of I.

    field - I = X I + I Y + X I Y with the offsets of `_vielbein_offsets`;
    I relabels them, so d and N are sums of relabelled COO terms.  No term
    mixes the third index k, so they are summed one block of k at a time.
    Raises ValueError for a step outside [MIN_FD_STEP, MAX_FD_STEP].
    """
    _check_fd_step(step)
    perm, sign = I.perm, I.sign
    f = rep.structure_constants()
    dim = f.dim
    inv = np.empty_like(perm)
    inv[perm] = np.arange(dim)
    (xstart, xrow, xval), (ystart, yrow, yval) = _vielbein_offsets(f, step)
    # (values @ weights).view(complex) sums the variants as weighted in 2h d
    weights = np.stack([_WEIGHTS.real, _WEIGHTS.imag], axis=1) / (2 * step)
    # the entries f[a, m, c] of X I by their column inv[c]
    fk = inv[f.index[:, 2]]
    forder = np.argsort(fk, kind="stable")
    fstart = np.searchsorted(fk[forder], np.arange(dim + 1))

    def block_terms(lo: int, hi: int) -> list:
        """The (m, n, k, value) terms of d for the columns k in [lo, hi)."""
        # X I: (X_+ - X_-) I / 2h = -F_m I / 2 exactly, the same at both steps
        e = forder[fstart[lo]:fstart[hi]]
        a, m, _ = f.index[e].T
        fixed = (m, a, fk[e], -0.5 * (1 + 1j) * sign[fk[e]] * f.value[e])
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


def geometry_report(I: ComplexStructure, f: StructureConstants, tol: float = DEFAULT_TOL,
                    nijenhuis: float | None = None) -> dict:
    """Every check of one structure against the structure constants f, by
    name in BOUNDS order; the Nijenhuis value is measured on the whole
    algebra and passed in (None: not run).  The torsion match is infinite
    when I is not integrable."""
    integ = _max_abs(f.dim, _integrability_terms(I.perm, I.sign, f))
    tors = float("inf")
    if integ <= tol:
        tors = _max_abs(f.dim, _hull_terms(I.perm, I.sign, f) + _f_terms(f, -1.0))
    values = dict(integrability=integ, square=I.square_residual(),
                  bismut=_max_abs(f.dim, _bismut_terms(I.perm, I.sign, f)), torsion_match=tors,
                  nijenhuis=nijenhuis)
    return {check: values[check] for check in STRUCTURE_CHECKS}
