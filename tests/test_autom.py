import dataclasses

import numpy as np
import pytest
import scipy.linalg

from hktlie import autom as A
from hktlie import cstruct as C
from hktlie import liealg as L
from hktlie.spaces import required_padding

import oracles
from conftest import ABOVE_CAPS, CATALOG, CLI_RANGE


# ---------------------------------------------------------------------------
# single automorphisms

def test_su2_j_kind_rotation():
    """t_1 and the u(1) stay, t_2 -> t_3 -> -t_2."""
    rep = L.build_matrix_rep("A", 1, 1)
    auto = A.automorphism_from_root(rep, rep.root_system.highest_root, "J")
    expect = np.array([[1, 0, 0, 0],
                       [0, 0, -1, 0],
                       [0, 1, 0, 0],
                       [0, 0, 0, 1]], dtype=float)
    assert np.abs(oracles.dense_omega(auto, rep.dim) - expect).max() < 1e-12


def test_su2_k_kind_rotation():
    """t_2 and the u(1) stay, t_1 -> -t_3, t_3 -> t_1."""
    rep = L.build_matrix_rep("A", 1, 1)
    auto = A.automorphism_from_root(rep, rep.root_system.highest_root, "K")
    expect = np.array([[0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [-1, 0, 0, 0],
                       [0, 0, 0, 1]], dtype=float)
    assert np.abs(oracles.dense_omega(auto, rep.dim) - expect).max() < 1e-12


def test_su3_root_vector_mixing():
    """Conjugation by the highest-root rotation sends
    E_alpha -> (E_alpha - i E_-beta)/sqrt(2) and cyclic variants."""
    rep = L.build_matrix_rep("A", 2)
    rs = rep.root_system
    al, be, th = rs.root((1, -1, 0)), rs.root((0, 1, -1)), rs.root((1, 0, -1))
    e_th = rep.root_vector(th)
    u = scipy.linalg.expm(1j * np.pi / 4 * (e_th + e_th.conj().T))
    ea, eb = rep.root_vector(al), rep.root_vector(be)
    s = 1 / np.sqrt(2)
    assert np.abs(u.conj().T @ ea @ u - s * (ea - 1j * eb.conj().T)).max() < 1e-12
    assert np.abs(u.conj().T @ eb @ u - s * (eb + 1j * ea.conj().T)).max() < 1e-12
    assert np.abs(u.conj().T @ ea.conj().T @ u - s * (ea.conj().T + 1j * eb)).max() < 1e-12
    assert np.abs(u.conj().T @ eb.conj().T @ u - s * (eb.conj().T - 1j * ea)).max() < 1e-12


def test_hadamard_series_oracle():
    """The commutator series, trace-projected, agrees with Omega read from f."""
    rep = L.build_matrix_rep("A", 2)
    theta = rep.root_system.highest_root
    e = rep.root_vector(theta)
    r = -1j * np.pi / 4 * (e + e.conj().T)   # U^dag X U = e^R X e^-R
    u = scipy.linalg.expm(1j * np.pi / 4 * (e + e.conj().T))
    auto = A.automorphism_from_root(rep, theta, "J")
    for a in range(rep.dim):
        x = rep.generators[a]
        series = oracles.hadamard_adjoint(r, x)
        direct = u.conj().T @ x @ u
        assert np.abs(series - direct).max() < 1e-12
        coeffs = np.einsum("ij,bji->b", series, rep.generators) / rep.norm_const
        assert np.abs(coeffs.real - oracles.dense_omega(auto, rep.dim)[:, a]).max() < 1e-10


@pytest.mark.parametrize("family,rank", CLI_RANGE)
def test_eigh_exponential_matches_expm_on_basic_roots(family, rank):
    """The J- and K-kind conjugations, exp(i h) from eigh, against scipy's expm."""
    rep = L.build_matrix_rep(family, rank)
    for theta in (n.theta for n in A.basic_roots(rep)):
        e = rep.root_vector(theta)
        for h in (np.pi / 4 * (e + e.conj().T), -1j * np.pi / 4 * (e - e.conj().T)):
            assert np.abs(oracles.exp_i_hermitian(h) - scipy.linalg.expm(1j * h)).max() <= 1e-14


def test_eigh_exponential_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        oracles.exp_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("family,rank", CATALOG)
def test_automorphism_orthogonality_and_invariance(family, rank):
    rep = L.build_matrix_rep(family, rank)
    f = rep.structure_constants()
    theta = rep.root_system.highest_root
    for kind in ("J", "K"):
        auto = A.automorphism_from_root(rep, theta, kind)
        assert oracles.orthogonality_residual(auto, rep.dim) < 1e-10
        assert oracles.invariance_residual(auto, f) < 1e-9


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_closed_form_omega_matches_conjugation_oracle(family, rank):
    """At every chain node, Omega read from f equals Omega by conjugation in
    the representation within 1e-13, and every entry is exactly one of
    0, +-1/2, +-1/sqrt2, +-1."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    for node in A.basic_roots(rep):
        for kind in ("J", "K"):
            omega = oracles.dense_omega(A.automorphism_from_root(rep, node.theta, kind), rep.dim)
            assert np.abs(omega - oracles.conjugation_omega(rep, node.theta, kind)).max() <= 1e-13
            assert np.isin(np.abs(omega), A.OMEGA_ENTRIES).all()


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_block_conjugation_matches_dense_product(family, rank):
    """J and the K route, conjugated one block at a time, equal
    Omega I Omega^T from the dense product of the whole Omega within 1e-15,
    with the same signed permutation."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    res = A.build_quaternion_triple(rep)
    I = res.I.matrix
    for kind in ("J", "K"):
        autos = [A.automorphism_from_root(rep, a.root, kind, a.level) for a in res.automorphisms]
        omega = oracles.compose(autos, rep.dim)
        got, want = A._conjugate(I, autos), omega @ I @ omega.T
        assert np.abs(got - want).max() <= 1e-15
        (gp, gs, _), (wp, ws, _) = C.signed_permutation(got), C.signed_permutation(want)
        assert np.array_equal(gp, wp) and np.array_equal(gs, ws)
    assert np.array_equal(res.J.matrix, A._conjugate(I, res.automorphisms))


def test_perturbed_f_row_is_refused():
    """Omega from an f whose theta row is 1e-8 off is refused, not snapped
    back onto exact entries."""
    rep = L.build_matrix_rep("A", 2)
    theta = rep.root_system.highest_root
    coo = rep.structure_constants().coo
    off = np.where(coo.index[:, 0] == rep.root_entry(theta).re_index, 1.0 + 1e-8, 1.0)
    bad = dataclasses.replace(rep, _structure=L.StructureConstants(
        L.CooTensor(coo.index, coo.value * off, coo.dim)))
    with pytest.raises(RuntimeError, match="lost orthogonality|exact entries"):
        A.automorphism_from_root(bad, theta, "J")


@pytest.mark.parametrize("family,rank", ABOVE_CAPS)
def test_quaternion_residual_stays_at_rounding_above_the_rank_caps(family, rank):
    """Each Omega is read from f and snapped to its exact entries, so it is
    orthogonal to rounding with no Newton-Schulz step, and the residual
    reads at most 8.2e-15 (A10)."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    res = A.build_quaternion_triple(rep)
    assert res.quaternion_residual < 2e-14
    for auto in res.automorphisms:
        assert oracles.orthogonality_residual(auto, rep.dim) < 1e-15


def test_invalid_kind_rejected():
    rep = L.build_matrix_rep("A", 1)
    with pytest.raises(ValueError):
        A.automorphism_from_root(rep, rep.root_system.highest_root, "L")


# ---------------------------------------------------------------------------
# centralizers

def test_su4_centralizer_of_highest_root():
    rep = L.build_matrix_rep("A", 3, 1)
    dec = A.centralizer(rep, [rep.root_system.highest_root])
    assert dec.shapes == (("A", 1),)
    [su2] = dec.summands
    assert su2.highest_root.coords == (0, 1, -1, 0)     # the beta su(2)
    assert dec.abelian_vectors.shape[0] == 1            # one leftover u(1)
    beta_entry = rep.root_entry(su2.highest_root)
    assert beta_entry.re_index in dec.generator_indices


def test_spin7_centralizer_no_abelian_part():
    rep = L.build_matrix_rep("B", 3)
    dec = A.centralizer(rep, [rep.root_system.highest_root])
    assert sorted(dec.shapes) == [("A", 1), ("A", 1)]
    assert dec.abelian_vectors.shape[0] == 0
    assert sorted(s.highest_root.coords for s in dec.summands) == [(0, 0, 1), (1, -1, 0)]


def test_su2_centralizer_empty():
    rep = L.build_matrix_rep("A", 1)
    dec = A.centralizer(rep, [rep.root_system.highest_root])
    assert dec.dimension == 0
    assert dec.summands == ()


@pytest.mark.parametrize("family,rank", CATALOG)
def test_centralizer_abelian_part_is_orthonormal_complement(family, rank):
    """The Abelian directions are orthonormal, orthogonal to theta and to
    every summand's simple roots, and span all that is left (at A4 and up
    the former sequential projection kept directions that fail this)."""
    rep = L.build_matrix_rep(family, rank)
    theta = rep.root_system.highest_root
    dec = A.centralizer(rep, [theta])
    rows = np.array([rep.eigen_coords(r) for r in [theta] + [
        simple for s in dec.summands for simple in s.simple_roots]])
    ab = dec.abelian_vectors[:, list(rep.csa_indices)]
    assert np.abs(ab @ rows.T).max(initial=0.0) < 1e-12
    assert np.abs(ab @ ab.T - np.eye(len(ab))).max(initial=0.0) < 1e-12
    assert len(ab) == rank - np.linalg.matrix_rank(rows)


@pytest.mark.parametrize("rank", [r for f, r in CLI_RANGE if f == "A"])
def test_centralizer_dimension_of_highest_root(rank):
    """su(n-1) + u(1) in su(n+1): (n-1)^2, Cartan directions included."""
    rep = L.build_matrix_rep("A", rank)
    assert A.centralizer(rep, [rep.root_system.highest_root]).dimension == (rank - 1) ** 2


def test_centralizer_of_short_root():
    """In spin(7), e1 is orthogonal to e3 but e1 +- e3 are roots: E_e1 does
    not commute with E_e3, and the centralizer is so(4) on e1 +- e2."""
    rep = L.build_matrix_rep("B", 3)
    dec = A.centralizer(rep, [rep.root_system.root((0, 0, 1))])
    assert {s.highest_root.coords for s in dec.summands} == {(1, 1, 0), (1, -1, 0)}
    assert dec.dimension == 6


def test_centralizer_of_two_roots():
    """Only the highest root of spin(7) commutes with both level-1 roots."""
    rep = L.build_matrix_rep("B", 3)
    rs = rep.root_system
    dec = A.centralizer(rep, [rs.root((1, -1, 0)), rs.root((0, 0, 1))])
    coords = {s.highest_root.coords for s in dec.summands}
    assert coords == {(1, 1, 0)}
    assert dec.abelian_vectors.shape[0] == 0


# ---------------------------------------------------------------------------
# chains

@pytest.mark.parametrize("family,rank,expected", [
    ("A", 6, [(1, 0, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, -1, 0), (0, 0, 1, 0, -1, 0, 0)]),
    ("B", 3, [(1, 1, 0), (1, -1, 0), (0, 0, 1)]),
    ("A", 1, [(1, -1)]),
])
def test_basic_roots(family, rank, expected):
    rep = L.build_matrix_rep(family, rank)
    nodes = A.basic_roots(rep)
    assert [n.theta.coords for n in nodes] == expected
    vecs = [rep.eigen_coords(n.theta) for n in nodes]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert abs(float(vecs[i] @ vecs[j])) < 1e-12


@pytest.mark.parametrize("family,rank", CATALOG)
def test_chain_cross_checks_numerically(family, rank):
    assert len(A.basic_roots(L.build_matrix_rep(family, rank))) >= 1


def test_chain_node_with_a_missing_child_is_refused():
    """D4 with one of the three level-1 children dropped from the top node:
    the roots that commute with E_{+-theta} by f are no longer the
    children's, and basic_roots raises."""
    rep = L.build_matrix_rep("D", 4, 4)
    [top] = rep.chain_levels[0]
    assert len(top.children) == 3
    levels = ((dataclasses.replace(top, children=top.children[1:]),),) + rep.chain_levels[1:]
    with pytest.raises(A.DecompositionMismatchError, match="chain node D4"):
        A.basic_roots(dataclasses.replace(rep, chain_levels=levels))


# ---------------------------------------------------------------------------
# quaternion triples

def test_su2_u1_triple_exact():
    rep = L.build_matrix_rep("A", 1, 1)
    res = A.build_quaternion_triple(rep)
    assert np.abs(res.I.matrix - C.SCRIPT_I).max() < 1e-12
    assert np.abs(res.J.matrix - C.SCRIPT_J).max() < 1e-12
    assert np.abs(res.K.matrix - C.SCRIPT_K).max() < 1e-12
    assert res.certified


def test_su3_j_is_diag_scriptJ_minus_scriptJ():
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    tags = [b.tag for b in res.J.blocks]
    assert tags == ["script-J", "minus-script-J"]
    ktags = [b.tag for b in res.K.blocks]
    assert ktags == ["script-K", "minus-script-K"]


def test_su4_u1_all_blocks_pm_scriptJ_and_unmixed():
    rep = L.build_matrix_rep("A", 3, 1)
    res = A.build_quaternion_triple(rep)
    assert len(res.J.blocks) == 4
    assert all(b.tag in ("script-J", "minus-script-J") for b in res.J.blocks)
    # J does not mix distinct blocks: zero outside the block-diagonal
    mask = np.zeros((rep.dim, rep.dim), dtype=bool)
    for b in res.J.blocks:
        mask[np.ix_(b.indices, b.indices)] = True
    assert np.abs(res.J.matrix[~mask]).max() < 1e-12


@pytest.mark.parametrize("family,rank", CATALOG)
def test_triples_certify(family, rank):
    from hktlie.spaces import required_padding
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    res = A.build_quaternion_triple(rep)
    assert res.certified
    assert res.quaternion_residual < 1e-9
    m = res.I.matrix @ res.J.matrix + res.J.matrix @ res.I.matrix
    assert np.abs(m).max() < 1e-9            # J anticommutes with I
    assert res.k_mismatch < 1e-9             # K-kind route reproduces I J here
    assert all(b.tag in ("script-J", "minus-script-J") for b in res.J.blocks)


def test_triple_memory_stays_within_a_fixed_budget():
    """The triple at A15xU1^1 (D = 256) traces at most 16 MiB: each Omega is
    conjugated as its block, where a dense D x D matrix per automorphism and
    their products traced 20.6 MiB."""
    import tracemalloc
    rep = L.build_matrix_rep("A", 15, 1)
    tracemalloc.start()
    try:
        assert A.build_quaternion_triple(rep).certified
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


def test_inner_block_untouched_by_outer_automorphism():
    """Generators commuting with E_{+-theta} are fixed by its automorphism."""
    rep = L.build_matrix_rep("A", 3, 1)
    auto = A.automorphism_from_root(rep, rep.root_system.highest_root, "J")
    dec = A.centralizer(rep, [rep.root_system.highest_root])
    idx = list(dec.generator_indices)
    omega = oracles.dense_omega(auto, rep.dim)
    sub = omega[np.ix_(idx, idx)]
    assert np.abs(sub - np.eye(len(idx))).max() < 1e-12
    for v in dec.abelian_vectors:
        assert np.abs(omega @ v - v).max() < 1e-12


def test_within_level_automorphisms_commute():
    """spin(7): the two level-1 rotations have disjoint support."""
    rep = L.build_matrix_rep("B", 3, 3)
    rs = rep.root_system
    oa = A.automorphism_from_root(rep, rs.root((1, -1, 0)), "J", level=1)
    og = A.automorphism_from_root(rep, rs.root((0, 0, 1)), "J", level=1)
    oa, og = oracles.dense_omega(oa, rep.dim), oracles.dense_omega(og, rep.dim)
    assert np.abs(oa @ og - og @ oa).max() < 1e-12


def test_double_rotation_keeps_complex_structure():
    """Applying the automorphism twice (angle pi per plane) still maps the
    canonical structure to an integrable complex structure."""
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    omega = oracles.compose(res.automorphisms, rep.dim)
    twice = omega @ omega
    m = twice @ res.I.matrix @ twice.T
    assert np.abs(m + m.T).max() < 1e-12
    assert np.abs(m @ m + np.eye(rep.dim)).max() < 1e-12
    assert C.integrability_residual(m, rep.structure_constants()) < 1e-9


def test_failure_names_first_failed_check():
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep, tol=1e-18)
    assert not res.certified
    assert res.failure == ("quaternion", res.quaternion_residual, 1e-18)
    assert res.message == "quaternion 9e-16 above 1e-18"
    assert A.build_quaternion_triple(rep).failure is None


def test_k_mismatch_recorded_not_asserted():
    rep = L.build_matrix_rep("B", 3, 3)
    res = A.build_quaternion_triple(rep)
    assert np.isfinite(res.k_mismatch)


def test_triple_reports_torsion_match():
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    for r in res.reports.values():
        assert r.torsion_match < 1e-8
        assert r.bismut < 1e-12


def test_d4_three_level1_automorphisms_commute():
    rep = L.build_matrix_rep("D", 4, 4)
    level1 = [n for n in A.basic_roots(rep) if n.level == 1]
    assert len(level1) == 3
    autos = [oracles.dense_omega(A.automorphism_from_root(rep, n.theta, "J", 1), rep.dim)
             for n in level1]
    for x in autos:
        for y in autos:
            assert np.abs(x @ y - y @ x).max() < 1e-12


# ---------------------------------------------------------------------------
# refusals with a reason

def test_surplus_padding_is_named():
    with pytest.raises(C.PairingError, match=r"; 1 u\(1\) factor\(s\) too many$"):
        A.build_quaternion_triple(L.build_matrix_rep("A", 1, 2))
    with pytest.raises(C.PairingError, match=r"requires 1 more u\(1\) factor\(s\)$"):
        A.build_quaternion_triple(L.build_matrix_rep("A", 1))


def test_abelian_algebra_has_no_basic_roots():
    with pytest.raises(C.PairingError, match="no basic roots: the algebra is 3 u"):
        A.basic_roots(L.build_abelian_rep(3))
