import tracemalloc

import numpy as np
import pytest

from hktlie import liealg as L
from hktlie.autom import build_quaternion_triple
from hktlie.rootsys import UnsupportedAlgebraError, chain_nodes
from hktlie.spaces import required_padding

import oracles
from conftest import ABOVE_CAPS, CATALOG, CLI_RANGE


def em(d, i, j):
    m = np.zeros((d, d))
    m[i, j] = 1.0
    return m


def rot(d, i, j):
    return 1j * (em(d, i, j) - em(d, j, i))


# ---------------------------------------------------------------------------
# basis orthonormality and closure

@pytest.mark.parametrize("family,rank", CATALOG)
def test_orthonormal_basis(family, rank):
    rep = L.build_matrix_rep(family, rank)
    g = rep.generators
    gram = np.einsum("aij,bji->ab", g, g)
    assert np.abs(gram - rep.norm_const * np.eye(rep.dim)).max() < 1e-9
    assert np.abs(g - g.conj().transpose(0, 2, 1)).max() < 1e-12  # Hermitian


@pytest.mark.parametrize("family,rank", CATALOG)
def test_jacobi_residual_catalog(family, rank):
    f = L.build_matrix_rep(family, rank).structure_constants()
    assert oracles.jacobi_residual(f) < 1e-9
    assert oracles.antisymmetry_residual(f) < 1e-12


# ---------------------------------------------------------------------------
# sparse construction kernels against the dense oracles

def dense_structure_constants(g, C):
    comm = np.einsum("aij,bjk->abik", g, g)
    comm = comm - comm.transpose(1, 0, 2, 3)
    return -1j / C * np.einsum("abij,cji->abc", comm, g)


def dense_closure_residual(g, f):
    comm = np.einsum("aij,bjk->abik", g, g)
    comm = comm - comm.transpose(1, 0, 2, 3)
    return np.abs(comm - 1j * np.einsum("abc,cij->abij", f, g)).max()


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_structure_constants_match_dense_einsum(family, rank):
    """The index joins give the support of the row-at-a-time oracle, its
    values within 1e-14 and its closure residual within 1e-14; up to the rank
    caps the full (D, D, d, d) einsum agrees as well."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    g, C = rep.generators, rep.norm_const
    sc = rep.structure_constants()
    rows = oracles.structure_constants_rows(g, C)
    assert np.array_equal(sc.index, np.argwhere(rows))
    assert np.abs(sc.f - rows).max() <= 1e-14
    closure = L._check_closure(g, sc, L._commutator_entries(g))
    assert abs(closure - oracles.closure_residual_rows(g, rows)) <= 1e-14
    if (family, rank) in CLI_RANGE:
        dense = dense_structure_constants(g, C)
        assert np.abs(dense.imag).max() < 1e-14
        assert np.abs(sc.f - dense.real).max() <= 1e-14
        assert abs(closure - dense_closure_residual(g, sc.f)) <= 1e-14


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_structure_constant_support_is_exact(family, rank):
    """Every stored f_ABC != 0 obeys the root-weight selection rule
    +-w_A +- w_B +- w_C = 0, with weight 0 on the Cartan and u(1) axes, and
    the COO form lists exactly those entries."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    sc = rep.structure_constants()
    weight = np.zeros((rep.dim, len(next(iter(rep.root_table)))), dtype=int)
    for coords, entry in rep.root_table.items():
        weight[[entry.re_index, entry.im_index]] = coords
    a, b, c = np.nonzero(sc.f)
    wa, wb, wc = weight[a], weight[b], weight[c]
    selected = np.zeros(a.size, dtype=bool)
    for sb, sc_ in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        selected |= ~(wa + sb * wb + sc_ * wc).any(axis=1)
    assert selected.all(), np.abs(sc.f[a[~selected], b[~selected], c[~selected]]).max()
    assert np.array_equal(sc.index, np.stack((a, b, c), axis=1))
    assert np.array_equal(sc.value, sc.f[a, b, c])
    assert np.abs(sc.value).min() > L.F_ZERO


def test_closure_check_matches_dense_and_rejects_perturbed_generator():
    rep = L.build_matrix_rep("A", 3, 1)
    g, C = rep.generators, rep.norm_const
    sc = rep.structure_constants()
    closure = L._check_closure(g, sc, L._commutator_entries(g))
    assert abs(closure - dense_closure_residual(g, sc.f)) <= 1e-14

    # mix the u(1) generator with a Hermitian matrix that couples the su(4)
    # block to the u(1) slot: still orthonormal, but no longer a subalgebra
    d = rep.matrix_dim
    x = np.zeros((d, d), dtype=complex)
    x[0, d - 1] = x[d - 1, 0] = 1.0
    eps = 1e-3
    k = rep.u1_indices[0]
    bad = g.copy()
    bad[k] = (g[k] + eps * x) / np.sqrt(1.0 + 2.0 * eps ** 2 / C)
    gram = np.einsum("aij,bji->ab", bad, bad)
    assert np.abs(gram - C * np.eye(rep.dim)).max() < 1e-12
    broken = oracles.with_fields(rep, generators=bad, _structure=None)
    f_bad = oracles.structure_constants(broken)
    assert dense_closure_residual(bad, f_bad.f) > 1e-4
    with pytest.raises(L.ConstructionError, match="does not close"):
        L._check_closure(bad, f_bad, L._commutator_entries(bad))


def test_check_closure_of_abelian_generators_is_zero():
    rep = oracles.build_abelian_rep(3)
    sc = oracles.structure_constants(rep)
    assert sc.value.size == 0
    assert L._check_closure(rep.generators, sc,
                            L._commutator_entries(rep.generators)) == 0.0


def _quotient_tangent(space, monkeypatch):
    """The rep of a one-factor space and the generator indices outside its
    quotient (all of them for a group manifold), as `spaces` passes them to
    the triple."""
    from hktlie import autom, cli, spaces
    calls = []
    build = autom.build_quaternion_triple
    monkeypatch.setattr(autom, "build_quaternion_triple",
                        lambda rep, *a, quotient=(), **k: calls.append((rep, quotient))
                        or build(rep, *a, quotient=quotient, **k))
    assert spaces.build_coset_triple(cli.parse_space_string(space)).verdict == "certified"
    [(rep, quotient)] = calls
    return rep, np.setdiff1d(np.arange(rep.dim), quotient)


@pytest.mark.parametrize("space,size", [("A8", 40), ("B3xU1^2/A1:gamma", 20)])
def test_restricted_f_is_the_sub_tensor(space, size, monkeypatch):
    """`restrict(keep)` holds exactly the entries of f whose three indices
    lie in `keep`, renumbered in the order of `keep`, and its dense view is
    f on keep x keep x keep: on the tangent directions of a quotient, and on
    a shuffled half of those of a group manifold."""
    rep, keep = _quotient_tangent(space, monkeypatch)
    if len(keep) == rep.dim:
        keep = np.random.default_rng(0).permutation(keep)[:rep.dim // 2]
    assert len(keep) == size
    f = rep.structure_constants()
    sub = f.restrict(keep)
    assert isinstance(sub, L.StructureConstants) and sub.dim == len(keep)
    at = {int(k): i for i, k in enumerate(keep)}
    want = sorted((tuple(at[int(x)] for x in abc), v) for abc, v in zip(f.index, f.value)
                  if all(int(x) in at for x in abc))
    assert want and sorted((tuple(map(int, abc)), v) for abc, v in zip(sub.index, sub.value)) \
        == want
    assert np.array_equal(sub.f, f.f[np.ix_(keep, keep, keep)])


def _cartan_action(rep):
    """The Cartan matrices ad[p, q] = Tr([h, t_q] t_p) / C on a random
    orthogonal mix t of the generators outside the Cartan subalgebra."""
    g, m = rep.generators, rep.dim - rep.rank
    mix, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))
    noncsa = np.tensordot(mix, g[:m], 1)
    gT = L._flat_transposes(noncsa)
    return [((h @ noncsa - noncsa @ h).reshape(m, -1) @ gT).T / rep.norm_const
            for h in g[m:]], noncsa


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_simple_root_vectors_match_svd_oracle(family, rank):
    """Each closed-form simple-root vector spans the root space that the SVD
    of the Cartan action finds."""
    rep = L.build_matrix_rep(family, rank)
    ad, noncsa = _cartan_action(rep)
    for a in rep.root_system.simple_roots:
        e = rep.root_vector(a)
        ref = oracles.root_eigenvector_svd(ad, rep.eigen_coords(a), noncsa)
        overlap = abs(np.vdot(ref, e)) / (np.linalg.norm(ref) * np.linalg.norm(e))
        assert abs(overlap - 1.0) < 1e-13


def test_root_eigenvector_refuses_non_roots_and_degenerate_spaces():
    rep = L.build_matrix_rep("A", 2)
    ad, noncsa = _cartan_action(rep)
    targets = [rep.eigen_coords(a) for a in rep.root_system.simple_roots]
    # half a root is no eigenvalue of the Cartan action
    with pytest.raises(L.ConstructionError, match="no root vector"):
        oracles.root_eigenvector_svd(ad, targets[0] / 2, noncsa)
    # on the first Cartan axis alone both simple roots of su(3) take 1/2
    assert targets[0][0] == targets[1][0] == 0.5
    with pytest.raises(L.ConstructionError, match="degenerate"):
        oracles.root_eigenvector_svd(ad[:1], targets[0][:1], noncsa)


@pytest.mark.parametrize("family,rank,rep_kind", [
    ("A", 4, "defining"), ("B", 4, "vector"), ("C", 4, "defining"), ("D", 5, "vector"),
    ("B", 3, "spinor")])
def test_build_runs_no_eigensolver(family, rank, rep_kind, monkeypatch):
    """The root vectors are closed forms: an uncached build calls no eigh,
    eig or svd."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called while building the algebra")

    for name in ("eigh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rep = oracles.build_spinor_rep() if rep_kind == "spinor" else L._build_matrix_rep(family, rank)
    assert rep.rep_kind == rep_kind
    assert rep.generators.shape[0] == len(rep.root_system.positive_roots) * 2 + rank


@pytest.mark.parametrize("family,rank,u1", [
    (f, r, required_padding([(f, r)])) for f, r in CLI_RANGE + ABOVE_CAPS]
    + [("A", 13, 1), ("D", 10, 10)])
def test_generator_snap_zeroes_only_rounding(family, rank, u1, monkeypatch):
    """The entries that the snap to exact zero removes are below 1e-15, and
    no generator entry is left at or below F_ZERO but not zero."""
    zeroed = []
    snap = L._snap_to_zero

    def recording(gens):
        before = gens.copy()
        snap(gens)
        for old, new in ((before.real, gens.real), (before.imag, gens.imag)):
            zeroed.append(np.abs(old[(new == 0) & (old != 0)]).max(initial=0.0))

    monkeypatch.setattr(L, "_snap_to_zero", recording)
    rep = L._zero_extend(L._build_matrix_rep(family, rank), u1)
    assert len(zeroed) == 2 and max(zeroed) < 1e-15
    parts = np.abs(np.stack((rep.generators.real, rep.generators.imag)))
    assert not ((parts > 0) & (parts <= L.F_ZERO)).any()


def test_high_rank_certificate_path_builds_no_dense_f():
    """The tracemalloc peak of the D10xU1^10 build (uncached, as
    build_matrix_rep runs it) and its triple stays below 32 MB, half the
    64 MB of a dense f at D = 200."""
    L.build_matrix_rep("A", 2)                  # numpy's own first-use buffers
    tracemalloc.start()
    try:
        rep = L._zero_extend(L._build_matrix_rep("D", 10), 10)
        assert build_quaternion_triple(rep).certified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dim == 200
    assert peak < 32e6, f"{peak / 1e6:.1f} MB"


def test_su2_generators_and_epsilon():
    rep = L.build_matrix_rep("A", 1, 1)
    s = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    for k in range(3):
        assert np.abs(rep.generators[k][:2, :2] - s[k] / 2).max() < 1e-14
    # brute-force f over all triples against the Levi-Civita symbol
    f = rep.structure_constants().f
    for a in range(4):
        for b in range(4):
            for c in range(4):
                perm = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                        (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
                assert abs(f[a, b, c] - perm.get((a, b, c), 0.0)) < 1e-12


def test_abelian_rep_zero_structure():
    rep = oracles.build_abelian_rep(4)
    f = oracles.structure_constants(rep)
    assert np.abs(f.f).max() == 0.0


def test_su3_elementary_root_vectors():
    rep = L.build_matrix_rep("A", 2)
    rs = rep.root_system
    assert np.abs(rep.root_vector(rs.root((1, -1, 0))) - em(3, 0, 1)).max() < 1e-10
    assert np.abs(rep.root_vector(rs.root((0, 1, -1))) - em(3, 1, 2)).max() < 1e-10
    assert np.abs(rep.root_vector(rs.root((1, 0, -1))) - em(3, 0, 2)).max() < 1e-10


def test_su3_adapted_cartan_basis():
    """First Cartan axis = half the highest coroot, second the orthogonal one."""
    rep = L.build_matrix_rep("A", 2)
    h1 = rep.generators[rep.csa_indices[0]]
    h2 = rep.generators[rep.csa_indices[1]]
    assert np.abs(h1 - np.diag([0.5, 0.0, -0.5])).max() < 1e-12
    assert np.abs(h2 - np.diag([1.0, -2.0, 1.0]) / (2 * np.sqrt(3))).max() < 1e-12


def test_su3_frozen_structure_constants():
    """Hand-computed values in the adapted basis: [t_A, t_A*] = i coroot/2."""
    rep = L.build_matrix_rep("A", 2)
    rs = rep.root_system
    f = rep.structure_constants().f
    al = rep.root_entry(rs.root((1, -1, 0)))
    th = rep.root_entry(rs.root((1, 0, -1)))
    h1, h2 = rep.csa_indices
    assert abs(f[al.re_index, al.im_index, h1] - 0.5) < 1e-12
    assert abs(f[al.re_index, al.im_index, h2] - np.sqrt(3) / 2) < 1e-12
    assert abs(f[th.re_index, th.im_index, h1] - 1.0) < 1e-12
    assert abs(f[th.re_index, th.im_index, h2]) < 1e-12


@pytest.mark.parametrize(
    "family,rank,rep_kind", [(f, r, "auto") for f, r in CLI_RANGE + ABOVE_CAPS]
    + [("B", 3, "spinor")], ids=[f"{f}-{r}" for f, r in CLI_RANGE + ABOVE_CAPS] + ["B-3-spinor"])
def test_chevalley_normalization(family, rank, rep_kind):
    rep = oracles.build_spinor_rep() if rep_kind == "spinor" else L.build_matrix_rep(family, rank)
    table = oracles.chevalley_root_vectors(rep)       # revalidates eigenvalues + norms
    assert set(table) == {r.coords for r in rep.root_system.positive_roots}


def test_spin7_gamma_root_vector():
    """E_gamma is proportional to T_57 - i T_67 with [E, E^dag] = 2 T_56."""
    rep = L.build_matrix_rep("B", 3)
    gamma = rep.root_system.root((0, 0, 1))
    e = rep.root_vector(gamma)
    d = rep.matrix_dim
    ref = rot(d, 4, 6) - 1j * rot(d, 5, 6)
    overlap = abs(np.trace(e.conj().T @ ref)) / (np.linalg.norm(e) * np.linalg.norm(ref))
    assert abs(overlap - 1.0) < 1e-12
    comm = e @ e.conj().T - e.conj().T @ e
    assert np.abs(comm - 2 * rot(d, 4, 5)).max() < 1e-10


def test_su2_chevalley_bracket():
    rep = L.build_matrix_rep("A", 1)
    alpha = rep.root_system.positive_roots[0]
    e = rep.root_vector(alpha)
    h = rep.generators[rep.csa_indices[0]]
    assert np.abs(e @ e.conj().T - e.conj().T @ e - 2 * h).max() < 1e-12


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 3)])
def test_bourbaki_commutator_norms(family, rank):
    """|[E_a, E_b]| = (q+1) |E_{a+b}| for every pair of positive roots."""
    rep = L.build_matrix_rep(family, rank)
    rs = rep.root_system
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a.coords == b.coords:
                continue
            ea, eb = rep.root_vector(a), rep.root_vector(b)
            comm = ea @ eb - eb @ ea
            tot = tuple(x + y for x, y in zip(a.coords, b.coords))
            if rs.is_root(tot):
                q = rs.root_string_down(a, b)
                et = rep.root_vector(rs.root(tot))
                assert abs(np.linalg.norm(comm) - (q + 1) * np.linalg.norm(et)) < 1e-9
            else:
                assert np.linalg.norm(comm) < 1e-10


def test_su3_commutation_relations_for_star_structure():
    """The vanishing patterns and sign relations of the mixed f components.

    Triple (alpha, alpha+beta, beta) with A ~ alpha pair, B ~ (alpha+beta)
    pair, C ~ beta pair, so that [E_A-root, E_B-root] has no projection on
    the C root vector.
    """
    rep = L.build_matrix_rep("A", 2)
    rs = rep.root_system
    f = rep.structure_constants().f
    A = rep.root_entry(rs.root((1, -1, 0)))
    B = rep.root_entry(rs.root((1, 0, -1)))
    C = rep.root_entry(rs.root((0, 1, -1)))
    a, a_ = A.re_index, A.im_index
    b, b_ = B.re_index, B.im_index
    c, c_ = C.re_index, C.im_index
    # two-term relations
    assert abs(f[a, b, c_] - f[a_, b_, c_]) < 1e-10
    assert abs(f[a_, b, c] + f[a, b_, c]) < 1e-10
    # all-unstarred / doubly-starred components vanish
    assert abs(f[a, b, c]) < 1e-10
    assert abs(f[a, b_, c_]) < 1e-10
    # the four-term relation
    assert abs(f[a, b, c_] + f[b_, a_, c_] - f[c, b_, a] - f[a_, c, b]) < 1e-10


@pytest.mark.parametrize("family,rank", [("B", r) for r in range(2, 9)]
                         + [("D", r) for r in range(3, 11)])
def test_vector_build_is_the_rotation_generator_build(family, rank):
    """The direct vector build writes each Cartan matrix and root vector
    without the stacked rotation generators i(E_ab - E_ba), and gives the
    same generators, f and Cartan functionals, bit for bit."""
    direct = L._build_matrix_rep(family, rank)
    stacked = oracles.build_rotation_vector_rep(family, rank)
    assert direct.rep_kind == stacked.rep_kind == "vector"
    assert np.array_equal(direct.generators, stacked.generators)
    f, g = direct.structure_constants(), stacked.structure_constants()
    assert np.array_equal(f.index, g.index) and np.array_equal(f.value, g.value)
    assert np.array_equal(np.stack([ax.functional for ax in direct.csa_axes]),
                          np.stack([ax.functional for ax in stacked.csa_axes]))


def test_u1_components_vanish():
    rep = L.build_matrix_rep("B", 3, 3)
    f = rep.structure_constants()
    assert oracles.u1_residual(f, rep.u1_indices) < 1e-14


# ---------------------------------------------------------------------------
# Clifford algebra and the spinor representation, kept as test references

def test_clifford_anticommutators():
    cl = oracles.build_clifford(7)
    eye = np.eye(8)
    for j in range(7):
        for k in range(7):
            anti = cl.gammas[j] @ cl.gammas[k] + cl.gammas[k] @ cl.gammas[j]
            if j == k:
                assert np.abs(anti - 2 * eye).max() < 1e-14
            else:
                assert np.abs(anti).max() < 1e-14


def test_spin_generators_hermitian_traceless():
    cl = oracles.build_clifford(7)
    for t in cl.spin_generators.values():
        assert np.abs(t - t.conj().T).max() < 1e-14
        assert abs(np.trace(t)) < 1e-14


def test_spin_generator_commutation_relations():
    """[T_jk, T_mn] = -i (d_jm T_kn - d_jn T_km + d_kn T_jm - d_km T_jn)."""
    cl = oracles.build_clifford(7)

    def T(a, b):
        if a == b:
            return np.zeros((8, 8), dtype=complex)
        return cl.spin_generators[(a, b)] if a < b else -cl.spin_generators[(b, a)]

    def delta(a, b):
        return 1.0 if a == b else 0.0

    pairs = list(cl.spin_generators)
    for (j, k) in pairs:
        for (m, n) in pairs:
            lhs = T(j, k) @ T(m, n) - T(m, n) @ T(j, k)
            rhs = -1j * (delta(j, m) * T(k, n) - delta(j, n) * T(k, m)
                         + delta(k, n) * T(j, m) - delta(k, m) * T(j, n))
            assert np.abs(lhs - rhs).max() < 1e-13


def test_clifford_unsupported_dimension():
    with pytest.raises(UnsupportedAlgebraError):
        oracles.build_clifford(9)


def test_spinor_rep_matches_vector_root_data():
    spin = oracles.build_spinor_rep()
    vec = L.build_matrix_rep("B", 3, 0)
    assert spin.matrix_dim == 8 and vec.matrix_dim == 7
    assert spin.dim == vec.dim == 21
    assert oracles.jacobi_residual(spin.structure_constants()) < 1e-9
    # roots and coroot coordinates agree between the representations
    for root in spin.root_system.positive_roots:
        a1 = spin.eigen_coords(root)
        a2 = vec.eigen_coords(root)
        assert np.abs(a1 - a2).max() < 1e-12


# ---------------------------------------------------------------------------
# coroot periodicity

def test_su2_coroot_periodicity():
    rep = L.build_matrix_rep("A", 1)
    coroot = oracles.coroot_matrix(rep, rep.root_system.positive_roots[0])
    res = oracles.coroot_periodicity_check(rep, coroot)
    assert res.period_ok and res.min_nontrivial
    # exp(i pi alpha^vee) = -1 for su(2)
    import scipy.linalg
    assert np.abs(scipy.linalg.expm(1j * np.pi * coroot) + np.eye(2)).max() < 1e-12


def test_su3_coroot_periodicity_all_roots():
    rep = L.build_matrix_rep("A", 2)
    for root in rep.root_system.positive_roots:
        res = oracles.coroot_periodicity_check(rep, oracles.coroot_matrix(rep, root))
        assert res.period_ok and res.min_nontrivial


def test_spin7_spinor_coroot_periodicity():
    rep = oracles.build_spinor_rep()
    for root in rep.root_system.positive_roots:
        res = oracles.coroot_periodicity_check(rep, oracles.coroot_matrix(rep, root))
        assert res.period_ok and res.min_nontrivial


def test_vector_rep_refused_for_periodicity():
    rep = L.build_matrix_rep("B", 3)
    gamma = rep.root_system.root((0, 0, 1))
    with pytest.raises(ValueError, match="not faithful"):
        oracles.coroot_periodicity_check(rep, oracles.coroot_matrix(rep, gamma))
    # and indeed the vector rep would lie: period pi for the short coroot
    import scipy.linalg
    assert np.abs(scipy.linalg.expm(1j * np.pi * oracles.coroot_matrix(rep, gamma))
                  - np.eye(rep.matrix_dim)).max() < 1e-12


def test_rejects_negative_u1_count():
    with pytest.raises(ValueError):
        L.build_matrix_rep("A", 1, -1)


def test_b3_cartan_span_is_rotation_planes():
    """The adapted Cartan axes span exactly {T_12, T_34, T_56}."""
    rep = L.build_matrix_rep("B", 3, 3)
    d = rep.matrix_dim
    planes = [rot(d, 0, 1), rot(d, 2, 3), rot(d, 4, 5)]
    for idx in rep.csa_indices:
        h = rep.generators[idx]
        proj = sum(np.trace(h @ p).real / 2.0 * p for p in planes)
        assert np.abs(h - proj).max() < 1e-12
    # and the short-coroot axis is literally T_56
    gamma = rep.root_system.root((0, 0, 1))
    assert np.abs(rep.generators[rep.coroot_axis_index(gamma)] - planes[2]).max() < 1e-12


def test_structure_constants_are_read_only_with_a_cached_dense_view():
    """The COO record is shared by every zero-extension of a cached build:
    it refuses assignment, and its dense view is built once, read-only."""
    f = L.StructureConstants(np.array([[0, 1, 2]]), np.array([1.0]), 3)
    with pytest.raises(AttributeError, match="dim"):
        f.dim = 4
    with pytest.raises(AttributeError, match="index"):
        del f.index
    assert f.f is f.f and not f.f.flags.writeable
    assert f.f[0, 1, 2] == 1.0 and np.count_nonzero(f.f) == 1
    entry = L.RootVectorEntry(0, 1, 0.5)
    assert entry == L.RootVectorEntry(0, 1, 0.5) and hash(entry) == hash((0, 1, 0.5))
    assert entry != L.RootVectorEntry(1, 0, 0.5)


@pytest.mark.parametrize("field", ["generators", "chain_levels", "_structure", "csa_axes"])
def test_rep_is_read_only(field):
    """A build's chain is checked against its f once, so a rep refuses
    assignment: a padded rep of a cached build stays the rep that was
    checked."""
    rep = L.build_matrix_rep("A", 2, 1)
    before = getattr(rep, field)
    with pytest.raises(AttributeError, match=field):
        setattr(rep, field, None)
    with pytest.raises(AttributeError, match=field):
        delattr(rep, field)
    assert getattr(rep, field) is before


def test_coroot_axis_of_each_basic_root():
    """Each chain node's theta finds its coroot axis; any other root is
    refused by name."""
    rep = L.build_matrix_rep("B", 3, 3)
    for node in chain_nodes(rep.chain_levels):
        ax = rep.csa_axes[rep.coroot_axis_index(node.theta) - rep.csa_axes[0].index]
        assert (ax.kind, ax.root, ax.level) == ("coroot", node.theta, node.level)
    short = rep.root_system.root((0, 1, 0))
    with pytest.raises(KeyError, match=r"\(0,1,0\) is not a basic root of this algebra"):
        rep.coroot_axis_index(short)
