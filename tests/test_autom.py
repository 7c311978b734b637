import re

import numpy as np
import pytest
import scipy.linalg

from hktlie import autom as A
from hktlie import cstruct as C
from hktlie import liealg as L
from hktlie import rootsys as R
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
    for theta in (n.theta for n in R.chain_nodes(rep.chain_levels)):
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
    for node in R.chain_nodes(rep.chain_levels):
        for kind in ("J", "K"):
            omega = oracles.dense_omega(A.automorphism_from_root(rep, node.theta, kind), rep.dim)
            assert np.abs(omega - oracles.conjugation_omega(rep, node.theta, kind)).max() <= 1e-13
            assert np.isin(np.abs(omega), A.OMEGA_ENTRIES).all()


def node_automorphisms(rep, nodes, kind="J"):
    return [A.automorphism_from_root(rep, n.theta, kind, n.level) for n in nodes]


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_block_conjugation_matches_dense_product(family, rank):
    """The float route, J and the K route conjugated one block at a time,
    equals Omega I Omega^T from the dense product of the whole Omega within
    1e-15, with the same signed permutation, and that is the triple's J and K."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    res = A.build_quaternion_triple(rep)
    I = res.I.matrix
    for kind, exact in (("J", res.J), ("K", res.K)):
        autos = node_automorphisms(rep, res.nodes, kind)
        omega = oracles.compose(autos, rep.dim)
        got, want = oracles.conjugate(I, autos), omega @ I @ omega.T
        assert np.abs(got - want).max() <= 1e-15
        (gp, gs, _), (wp, ws, _) = map(oracles.signed_permutation, (got, want))
        assert np.array_equal(gp, wp) and np.array_equal(gs, ws)
        assert np.array_equal(exact.perm, gp) and np.array_equal(exact.sign, gs)


def test_perturbed_f_row_is_refused():
    """Omega from an f whose theta row is 1e-8 off is refused, not snapped
    back onto exact entries."""
    rep = L.build_matrix_rep("A", 2)
    theta = rep.root_system.highest_root
    f = rep.structure_constants()
    off = np.where(f.index[:, 0] == rep.root_entry(theta).re_index, 1.0 + 1e-8, 1.0)
    bad = oracles.with_fields(rep, _structure=L.StructureConstants(f.index, f.value * off, f.dim))
    with pytest.raises(RuntimeError, match="lost orthogonality|exact entries"):
        A.automorphism_from_root(bad, theta, "J")


@pytest.mark.parametrize("family,rank", ABOVE_CAPS)
def test_quaternion_residual_stays_at_rounding_above_the_rank_caps(family, rank):
    """Each Omega is read from f and snapped to its exact entries, so it is
    orthogonal to rounding with no Newton-Schulz step; the residual of the
    exact permutations is 0."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    res = A.build_quaternion_triple(rep)
    assert res.quaternion_residual == 0.0
    for auto in node_automorphisms(rep, res.nodes):
        assert oracles.orthogonality_residual(auto, rep.dim) < 1e-15


def test_invalid_kind_rejected():
    rep = L.build_matrix_rep("A", 1)
    with pytest.raises(ValueError):
        A.automorphism_from_root(rep, rep.root_system.highest_root, "L")


# ---------------------------------------------------------------------------
# centralizers: the children of the chain's top node

def test_su4_centralizer_of_highest_root():
    _, levels = R.root_chain("A", 3)
    [top] = levels[0]
    [su2] = top.children
    assert (su2.family, su2.rank) == ("A", 1)
    assert su2.theta.coords == (0, 1, -1, 0)            # the beta su(2)
    assert top.abelian_dim == 1                         # one leftover u(1)
    rep = L.build_matrix_rep("A", 3, 1)
    beta = rep.root_system.simple_roots[1]
    assert oracles.commuting_roots(rep, rep.root_system.positive_roots, [top.theta]) == [beta]


def test_spin7_centralizer_no_abelian_part():
    _, levels = R.root_chain("B", 3)
    [top] = levels[0]
    assert sorted((c.family, c.rank) for c in top.children) == \
        [("A", 1), ("A", 1)]
    assert top.abelian_dim == 0
    assert sorted(c.theta.coords for c in top.children) == [(0, 0, 1), (1, -1, 0)]


def test_su2_centralizer_empty():
    _, levels = R.root_chain("A", 1)
    [top] = levels[0]
    assert top.children == ()
    assert top.abelian_dim == 0


@pytest.mark.parametrize("family,rank", CATALOG)
def test_centralizer_abelian_part_is_orthonormal_complement(family, rank):
    """The level-0 Abelian Cartan axes are orthonormal under kappa,
    orthogonal to theta's coroot and to every child's simple roots, and as
    many as the top node's Abelian directions."""
    rep = L.build_matrix_rep(family, rank)
    [top] = rep.chain_levels[0]
    [theta_axis] = [ax for ax in rep.csa_axes if ax.kind == "coroot" and ax.level == 0]
    w = theta_axis.functional
    kappa = 1.0 / (w @ w)                   # every axis is a unit vector under kappa
    ab = np.array([ax.functional for ax in rep.csa_axes
                   if ax.kind == "abelian" and ax.level == 0]).reshape(-1, w.size)
    rows = np.array([R.coroot(top.theta)] + [
        s.coords for c in top.children for s in c.simple_roots], dtype=float)
    assert np.abs(ab @ rows.T).max(initial=0.0) < 1e-12
    assert np.abs(kappa * ab @ ab.T - np.eye(len(ab))).max(initial=0.0) < 1e-12
    assert len(ab) == top.abelian_dim


@pytest.mark.parametrize("rank", [r for f, r in CLI_RANGE if f == "A"])
def test_centralizer_dimension_of_highest_root(rank):
    """su(n-1) + u(1) in su(n+1): (n-1)^2, Cartan directions included."""
    _, levels = R.root_chain("A", rank)
    [top] = levels[0]
    assert sum(c.dimension for c in top.children) + top.abelian_dim == (rank - 1) ** 2


def test_centralizer_of_short_root():
    """In spin(7), e1 is orthogonal to e3 but e1 +- e3 are roots: E_e1 does
    not commute with E_e3, and the commuting roots are e1 +- e2."""
    rep = L.build_matrix_rep("B", 3)
    rs = rep.root_system
    got = oracles.commuting_roots(rep, rs.positive_roots, [rs.root((0, 0, 1))])
    assert {r.coords for r in got} == {(1, 1, 0), (1, -1, 0)}


def test_centralizer_of_two_roots():
    """Only the highest root of spin(7) commutes with both level-1 roots."""
    rep = L.build_matrix_rep("B", 3)
    rs = rep.root_system
    got = oracles.commuting_roots(rep, rs.positive_roots,
                                  [rs.root((1, -1, 0)), rs.root((0, 0, 1))])
    assert [r.coords for r in got] == [(1, 1, 0)]


# ---------------------------------------------------------------------------
# chains

@pytest.mark.parametrize("family,rank,expected", [
    ("A", 6, [(1, 0, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, -1, 0), (0, 0, 1, 0, -1, 0, 0)]),
    ("B", 3, [(1, 1, 0), (1, -1, 0), (0, 0, 1)]),
    ("A", 1, [(1, -1)]),
])
def test_basic_roots(family, rank, expected):
    rep = L.build_matrix_rep(family, rank)
    nodes = R.chain_nodes(rep.chain_levels)
    assert [n.theta.coords for n in nodes] == expected
    vecs = [rep.eigen_coords(n.theta) for n in nodes]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert abs(float(vecs[i] @ vecs[j])) < 1e-12


@pytest.mark.parametrize("family,rank", CATALOG)
def test_chain_cross_checks_numerically(family, rank):
    """The build's chain check passes again on the built rep, which has a
    chain: the roots that commute with E_{+-theta} by f are its children's
    at every node."""
    rep = L.build_matrix_rep(family, rank)
    assert len(R.chain_nodes(rep.chain_levels)) >= 1
    L._check_chain(rep)
    for node in R.chain_nodes(rep.chain_levels):
        got = oracles.commuting_roots(rep, node.positive_roots, [node.theta])
        assert {r.coords for r in got} == \
            {r.coords for c in node.children for r in c.positive_roots}


def test_chain_node_with_a_missing_child_is_refused(monkeypatch):
    """D4 with one of the three level-1 children dropped from the top node:
    its rank 4 less its coroot and two A1 children asks for one leftover
    Cartan axis, D4's top node has none, and the build raises before its
    chain check."""
    rs, levels = R.root_chain("D", 4)
    [top] = levels[0]
    assert len(top.children) == 3 and len(levels) == 2
    pruned = R.ChainNode(top.positive_roots, top.simple_roots, top.family, top.rank, top.label,
                         top.theta, top.level, top.children[1:])
    monkeypatch.setattr(L, "root_chain", lambda family, rank: (rs, ((pruned,), pruned.children)))
    with pytest.raises(L.ConstructionError,
                       match="^expected 1 leftover Cartan directions at D4, found 0$"):
        L._build_matrix_rep("D", 4)


def test_chain_child_that_lost_a_root_is_refused(monkeypatch):
    """D4 with the positive root of its child A1:alpha dropped, every rank
    kept: the Cartan axes still add up, and the chain check finds by f a
    root that commutes with E_{+-theta} and belongs to no child."""
    rs, levels = R.root_chain("D", 4)
    [top] = levels[0]
    [alpha] = [c for c in top.children if c.label == "A1:alpha"]
    assert [r.coords for r in alpha.positive_roots] == [(1, -1, 0, 0)]
    bare = R.ChainNode((), alpha.simple_roots, alpha.family, alpha.rank, alpha.label,
                       alpha.theta, alpha.level, alpha.children)
    children = tuple(bare if c is alpha else c for c in top.children)
    tampered = R.ChainNode(top.positive_roots, top.simple_roots, top.family, top.rank,
                           top.label, top.theta, top.level, children)
    monkeypatch.setattr(L, "root_chain", lambda family, rank: (rs, ((tampered,), children)))
    with pytest.raises(L.ConstructionError, match=re.escape(
            "chain node D4: centralizer and children differ on roots [(1, -1, 0, 0)]")):
        L._build_matrix_rep("D", 4)


# ---------------------------------------------------------------------------
# quaternion triples

def test_su2_u1_triple_exact():
    rep = L.build_matrix_rep("A", 1, 1)
    res = A.build_quaternion_triple(rep)
    assert np.abs(res.I.matrix - oracles.SCRIPT_I).max() < 1e-12
    assert np.abs(res.J.matrix - oracles.SCRIPT_J).max() < 1e-12
    assert np.abs(res.K.matrix - oracles.SCRIPT_K).max() < 1e-12
    assert res.certified


def test_su3_j_is_diag_scriptJ_minus_scriptJ():
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    assert oracles.block_tags(res.J) == ["script-J", "minus-script-J"]
    assert oracles.block_tags(res.K) == ["script-K", "minus-script-K"]


def test_su4_u1_all_blocks_pm_scriptJ_and_unmixed():
    rep = L.build_matrix_rep("A", 3, 1)
    res = A.build_quaternion_triple(rep)
    assert len(res.J.blocks) == 4
    assert all(t in ("script-J", "minus-script-J") for t in oracles.block_tags(res.J))
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
    # the K-kind route reproduces I J here
    assert np.abs(oracles.conjugated(rep, res.I.matrix, kind="K") - res.K.matrix).max() < 1e-12
    assert all(t in ("script-J", "minus-script-J") for t in oracles.block_tags(res.J))


def test_triple_memory_stays_within_a_fixed_budget():
    """The triple at A15xU1^1 (D = 256) traces at most 16 MiB: I, J and K
    are signed permutations of D entries each, where a dense D x D matrix per
    automorphism and their products traced 20.6 MiB."""
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
    """Generators commuting with E_{+-theta} are fixed by its automorphism:
    the root pairs of the top node's children and every Cartan or u(1) axis
    but theta's coroot."""
    rep = L.build_matrix_rep("A", 3, 1)
    [top] = rep.chain_levels[0]
    auto = A.automorphism_from_root(rep, top.theta, "J")
    idx = [i for c in top.children for r in c.positive_roots
           for i in (rep.root_entry(r).re_index, rep.root_entry(r).im_index)]
    idx += [ax.index for ax in rep.csa_axes if ax.index != rep.coroot_axis_index(top.theta)]
    assert len(idx) == 2 + 2 + 1
    omega = oracles.dense_omega(auto, rep.dim)
    sub = omega[np.ix_(idx, idx)]
    assert np.abs(sub - np.eye(len(idx))).max() < 1e-12


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
    omega = oracles.compose(node_automorphisms(rep, res.nodes), rep.dim)
    twice = omega @ omega
    m = twice @ res.I.matrix @ twice.T
    assert np.abs(m + m.T).max() < 1e-12
    assert np.abs(m @ m + np.eye(rep.dim)).max() < 1e-12
    assert C.integrability_residual(oracles.structure_of(m), rep.structure_constants()) < 1e-9


def test_failure_names_first_failed_check():
    """The quaternion residual of the exact permutations is 0; the rounding
    of f shows in I's integrability on A3xU1^1, which a tolerance of 1e-18
    fails.  Every residual of A2 is exactly 0, so it certifies even there."""
    rep = L.build_matrix_rep("A", 3, 1)
    res = A.build_quaternion_triple(rep, tol=1e-18)
    assert not res.certified
    assert res.quaternion_residual == 0.0
    assert res.failure == ("I.integrability", res.checks["I.integrability"], 1e-18)
    assert res.message == "I.integrability 1.1e-16 above 1e-18"
    assert A.build_quaternion_triple(rep).failure is None
    assert A.build_quaternion_triple(L.build_matrix_rep("A", 2), tol=1e-18).certified


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_dense_quaternion_oracle_on_the_float_conjugation(family, rank):
    """The dense residual of I, the float J = Omega I Omega^T (on a group
    manifold the tangent is the whole algebra) and their product stays
    within tol, where the certificate's reads 0."""
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    res = A.build_quaternion_triple(rep)
    I = res.I.matrix
    J = oracles.conjugated(rep, I)
    assert res.quaternion_residual == 0.0
    assert oracles.quaternion_residual(I, J, I @ J) <= C.DEFAULT_TOL


def with_J(monkeypatch, change):
    """Make every triple's J, as `cstruct._canonical` builds it, pass through
    `change(perm, sign, blocks)`, which returns its new (perm, sign)."""
    real = C._canonical

    def changed(rep, quotient):
        I, J, leak = real(rep, quotient)
        perm, sign = change(J.perm.copy(), J.sign.copy(), J.blocks)
        return I, C.ComplexStructure(perm, sign, J.blocks), leak

    monkeypatch.setattr(C, "_canonical", changed)


def test_flipped_sign_in_J_fails_the_quaternion_check(monkeypatch):
    """One entry of J negated: J no longer squares to -1, so quaternion and
    J.square read at least 1 and the verdict is failed."""
    from hktlie import spaces
    from hktlie.cli import parse_space_string
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    sign = res.J.sign.copy()
    sign[0] = -sign[0]
    bad = C.ComplexStructure(res.J.perm.copy(), sign)
    K = C.ComplexStructure(*C._product((res.I.perm, res.I.sign), (bad.perm, bad.sign)))
    assert C.quaternion_residual(res.I, bad, K) >= 1.0
    assert bad.square_residual() >= 1.0

    def flip_one_entry(perm, sign, blocks):
        sign[0] = -sign[0]
        return perm, sign

    with_J(monkeypatch, flip_one_entry)
    res = A.build_quaternion_triple(rep)
    assert res.checks["quaternion"] >= 1.0 and res.checks["J.square"] >= 1.0
    assert res.failure[0] == "quaternion"
    assert spaces.build_coset_triple(parse_space_string("A2")).verdict == "failed"


def test_one_block_sign_flipped_fails_the_certificate(monkeypatch):
    """J with its sign flipped on any one block of A8, and K = I J
    recomposed, is still a quaternion triple of signed permutations, but not
    integrable: the certificate fails on J's or K's integrability."""
    rep = L.build_matrix_rep("A", 8)
    flipped = []

    def flip_block(perm, sign, blocks):
        at = list(blocks[len(flipped)].indices)
        flipped.append(at)
        sign[at] = -sign[at]
        return perm, sign

    with_J(monkeypatch, flip_block)
    for _ in range(20):
        res = A.build_quaternion_triple(rep)
        assert res.checks["quaternion"] == 0.0 and res.checks["J.square"] == 0.0
        assert res.failure[0] in ("J.integrability", "K.integrability")
    assert len(flipped) == len(res.I.blocks) == 20


def test_a_zero_block_sign_fails_the_square_and_quaternion_checks(monkeypatch):
    """A block whose sign f gives as 0 sends its directions to 0: J does not
    square to -1 and the quaternion check fails, with no branch of its own."""
    rep = L.build_matrix_rep("A", 3, 1)

    def zero_block(perm, sign, blocks):
        sign[list(blocks[-1].indices)] = 0.0
        return perm, sign

    with_J(monkeypatch, zero_block)
    res = A.build_quaternion_triple(rep)
    assert res.checks["quaternion"] >= 1.0 and res.checks["J.square"] >= 1.0
    assert res.failure[0] == "quaternion"


def test_quotient_off_the_centralizers_leaks():
    """The generators 0 and 1 of A2 are no centralizer summand: the blocks
    that hold them are partly outside the quotient, so J would send their
    other directions into it.  The leak reads 1 and the message names the
    first such direction and where J sends it."""
    res = A.build_quaternion_triple(L.build_matrix_rep("A", 2), quotient=[0, 1])
    assert not res.certified
    assert res.checks["invariance_leak"] == 1.0 > 1e-12
    assert res.message.endswith("; J leaks out of index 2 into quotient index 0")


def test_direction_in_no_block_leaks():
    """A1xU1^1 over its coroot and u(1) axes keeps the root pair, which then
    lies in no block: the leak reads 1 and the message says so."""
    res = A.build_quaternion_triple(L.build_matrix_rep("A", 1, 1), quotient=[2, 3])
    assert res.checks["invariance_leak"] == 1.0
    assert res.message.endswith("; J leaks out of index 0, which lies in no block")


@pytest.fixture
def recorded_triples(monkeypatch):
    """Every triple that `spaces` builds, with its rep and quotient."""
    calls = []
    real = A.build_quaternion_triple

    def record(rep, tol=C.DEFAULT_TOL, fd_step=None, quotient=()):
        res = real(rep, tol, fd_step, quotient)
        calls.append((rep, quotient, res))
        return res

    monkeypatch.setattr(A, "build_quaternion_triple", record)
    return calls


def test_quotient_structures_live_on_the_tangent(recorded_triples):
    """On every catalog quotient, I, J and K act on the directions outside
    the quotient and square to -1 exactly; the dense oracle on the float J,
    restricted to those directions, stays within tol."""
    from hktlie import spaces
    for factor in CLI_RANGE:
        for spec in spaces.enumerate_quotients(factor):
            if spec.selections:
                assert spaces.build_coset_triple(spec).verdict == "certified"
    assert len(recorded_triples) == 70
    for rep, quotient, res in recorded_triples:
        for s in (res.I, res.J, res.K):
            assert s.dim == res.dimension
            assert s.square_residual() == 0.0
        tangent = np.setdiff1d(np.arange(rep.dim), quotient)
        whole = np.zeros((rep.dim, rep.dim))
        whole[np.ix_(tangent, tangent)] = res.I.matrix
        J = oracles.conjugated(rep, whole, quotient)[np.ix_(tangent, tangent)]
        assert oracles.quaternion_residual(res.I, J, res.I.matrix @ J) <= C.DEFAULT_TOL


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_closed_form_is_the_float_route_on_every_quotient(family, rank, recorded_triples):
    """On every enumerated quotient, group manifold included, J and K are the
    signed permutations of the float route, J = Omega I Omega^T and I J,
    read off within 1e-12, and the K-kind route gives K within 1e-12;
    nothing leaks out of the tangent directions."""
    from hktlie import spaces
    specs = spaces.enumerate_quotients((family, rank))
    for spec in specs:
        spaces.build_coset_triple(spec)
    assert len(recorded_triples) == len(specs)
    for rep, quotient, res in recorded_triples:
        tangent = np.ix_(*[np.setdiff1d(np.arange(rep.dim), quotient)] * 2)
        whole = np.zeros((rep.dim, rep.dim))
        whole[tangent] = res.I.matrix
        J = oracles.conjugated(rep, whole, quotient)
        assert np.abs(J[np.ix_(quotient, range(rep.dim))]).max(initial=0.0) <= 1e-12
        J = J[tangent]
        for exact, route in ((res.J, J), (res.K, res.I.matrix @ J)):
            perm, sign, snap = oracles.signed_permutation(route)
            assert snap <= 1e-12
            assert np.array_equal(exact.perm, perm) and np.array_equal(exact.sign, sign)
        K = oracles.conjugated(rep, whole, quotient, kind="K")[tangent]
        assert np.abs(K - res.K.matrix).max() <= 1e-12
        assert res.checks["invariance_leak"] == 0.0


def test_triple_reports_torsion_match():
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    for s in "IJK":
        assert res.checks[f"{s}.torsion_match"] < 1e-8
        assert res.checks[f"{s}.bismut"] < 1e-12


def test_d4_three_level1_automorphisms_commute():
    rep = L.build_matrix_rep("D", 4, 4)
    level1 = [n for n in R.chain_nodes(rep.chain_levels) if n.level == 1]
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
    """A pure u(1) algebra has no chain, so no coroot takes its u(1)s."""
    rep = oracles.build_abelian_rep(3)
    assert R.chain_nodes(rep.chain_levels) == ()
    with pytest.raises(C.PairingError, match=r"cannot pair 0 basic coroot\(s\) with 3 .*"
                                             r"3 u\(1\) factor\(s\) too many$"):
        A.build_quaternion_triple(rep)


@pytest.mark.parametrize("entry", [-1, 9, 999, 2.5, True, "3"])
def test_quotient_entry_outside_the_generators_is_refused(entry):
    """A2xU1^1 has the generators 0 to 8.  A quotient entry must be one of
    them as an integer: numpy indexing would read -1 as generator 8 where
    the pairing reads it as none, and 999 or 2.5 would index nothing.  The
    triple and I refuse it alike."""
    rep = L.build_matrix_rep("A", 2, 1)
    for build in (lambda: A.build_quaternion_triple(rep, quotient=[entry]),
                  lambda: C.canonical_I(rep, [entry])):
        with pytest.raises(ValueError, match=re.escape(f"quotient index {entry!r} is not a "
                                                       "generator index in [0, 9)")):
            build()
