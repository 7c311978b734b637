import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlie import autom as A
from hktlie import cstruct as C
from hktlie import liealg as L

import oracles
from conftest import ABOVE_CAPS, CATALOG, CLI_RANGE


def canonical(family, rank, u1=0):
    rep = L.build_matrix_rep(family, rank, u1)
    return rep, C.canonical_I(rep, A.make_csa_pairing(rep))


def abelian4():
    rep = L.build_abelian_rep(4)
    return rep, C.canonical_I(rep, ((0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# canonical structures

def test_su2_u1_canonical_matches_block():
    rep, I = canonical("A", 1, 1)
    assert np.abs(I.matrix - C.SCRIPT_I).max() < 1e-14
    assert [b.tag for b in I.blocks] == ["script-I"]


def test_su3_canonical_block_structure():
    rep, I = canonical("A", 2)
    # exactly antisymmetric by construction, squares to -1
    assert np.array_equal(I.matrix, -I.matrix.T)
    assert I.square_residual() < 1e-12
    assert [b.tag for b in I.blocks] == ["script-I", "script-I"]
    # I_83 = +1: the leftover Cartan axis is the image of the coroot axis
    h_coroot, h_rest = rep.csa_indices
    assert I.matrix[h_rest, h_coroot] == 1.0


def test_abelian_dim4_two_rotation_blocks():
    rep, I = abelian4()
    expect = np.zeros((4, 4))
    expect[1, 0] = expect[3, 2] = 1.0
    expect[0, 1] = expect[2, 3] = -1.0
    assert np.array_equal(I.matrix, expect)


@pytest.mark.parametrize("family,rank", CATALOG)
def test_canonical_invariants(family, rank):
    from hktlie.spaces import required_padding
    rep, I = canonical(family, rank, required_padding([(family, rank)]))
    f = rep.structure_constants()
    assert np.array_equal(I.matrix, -I.matrix.T)
    assert I.square_residual() <= 1e-12
    assert C.integrability_residual(I, f) <= 1e-9


@pytest.mark.parametrize("family,rank", CATALOG)
def test_nijenhuis_agrees_with_algebraic_check(family, rank):
    """FD residual below 1e-5 (step 1e-4) exactly when the algebraic one is
    below 1e-9, for the canonical structure and one random control."""
    from hktlie.spaces import required_padding
    rep, I = canonical(family, rank, required_padding([(family, rank)]))
    f = rep.structure_constants()
    samples = [(I.matrix, C.nijenhuis_at_origin),
               (oracles.random_complex_structure(rep.dim, np.random.default_rng(1)),
                oracles.nijenhuis_dense)]
    for m, nijenhuis in samples:
        alg_small = oracles.integrability_residual(m, f) <= 1e-9
        fd_small = nijenhuis(rep, m, step=1e-4) <= 1e-5
        assert alg_small == fd_small


def test_pairing_dimension_mismatch_raises():
    rep = L.build_matrix_rep("A", 3)      # needs one u(1), none appended
    with pytest.raises(C.PairingError, match="u\\(1\\)"):
        A.make_csa_pairing(rep)


@pytest.mark.parametrize("pairs", [((0, 4),), ((6, 7), (6, 8)), ((6, 99),)])
def test_canonical_I_rejects_pairs_off_the_cartan_axes(pairs):
    """A2 x U(1): generators 0-5 are root parts, 6-7 Cartan, 8 the u(1)."""
    rep = L.build_matrix_rep("A", 2, 1)
    assert rep.csa_indices + rep.u1_indices == (6, 7, 8)
    with pytest.raises(C.PairingError, match="distinct Cartan/u\\(1\\) axes"):
        C.canonical_I(rep, pairs)


# ---------------------------------------------------------------------------
# integrability residual

def test_integrability_zero_for_abelian():
    rep, I = abelian4()
    f = L.structure_constants(rep)
    assert C.integrability_residual(I, f) == 0.0


def test_integrability_canonical_su3():
    rep, I = canonical("A", 2)
    assert C.integrability_residual(I, rep.structure_constants()) < 1e-9


def test_integrability_random_controls():
    rep = L.build_matrix_rep("A", 2)
    f = rep.structure_constants()
    rng = np.random.default_rng(11)
    for _ in range(20):
        I = oracles.random_complex_structure(rep.dim, rng)
        assert oracles.integrability_residual(I, f) > 0.1


# ---------------------------------------------------------------------------
# Bismut constancy (identity-level cancellation)

def test_bismut_zero_canonical_su3():
    rep, I = canonical("A", 2)
    assert C.bismut_residual(I, rep.structure_constants()) < 1e-12


def test_bismut_zero_for_abelian():
    rep, I = abelian4()
    assert C.bismut_residual(I, L.structure_constants(rep)) == 0.0


def test_bismut_zero_for_random_antisymmetric():
    """The cancellation is algebraic: the two sides are equal term by term
    because f_NQP = f_QPN and f_MQP = f_QPM under cyclic permutations."""
    rep = L.build_matrix_rep("A", 2)
    f = rep.structure_constants()
    rng = np.random.default_rng(7)
    for _ in range(10):
        raw = rng.standard_normal((rep.dim, rep.dim))
        anti = raw - raw.T            # any antisymmetric matrix, not just orthogonal
        assert oracles.bismut_residual(anti, f) < 1e-12


# ---------------------------------------------------------------------------
# metric and vielbein

def test_metric_identity_at_origin():
    rep = L.build_matrix_rep("A", 1)
    assert np.array_equal(oracles.metric_at(rep, np.zeros(rep.dim)), np.eye(rep.dim))
    assert np.array_equal(oracles.vielbein_at(rep, np.zeros(rep.dim)), np.eye(rep.dim))


def test_metric_matches_exact_killing_su2():
    rep = L.build_matrix_rep("A", 1)
    x = np.array([0.05, 0.0, 0.0])
    approx = oracles.metric_at(rep, x)
    exact = oracles.killing_metric_exact(rep, x)
    assert np.abs(approx - exact).max() < 1e-5


def test_metric_abelian_is_flat():
    rep = L.build_abelian_rep(4)
    x = np.array([0.3, -0.2, 0.1, 0.7])
    assert np.array_equal(oracles.metric_at(rep, x), np.eye(4))


def test_vielbein_squares_to_metric():
    rep = L.build_matrix_rep("A", 2)
    rng = np.random.default_rng(3)
    x = 0.02 * rng.standard_normal(rep.dim)
    e = oracles.vielbein_at(rep, x)
    g = oracles.metric_at(rep, x)
    assert np.abs(e @ e.T - g).max() < 1e-4   # agreement through second order


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
def test_vielbein_metric_consistency_property(xs):
    """e e^T tracks the metric to third order in the coordinates."""
    rep = L.build_matrix_rep("A", 1)
    x = np.array(xs)
    e = oracles.vielbein_at(rep, x)
    g = oracles.metric_at(rep, x)
    bound = 1e-12 + float(np.linalg.norm(x)) ** 3
    assert np.abs(e @ e.T - g).max() <= bound


# ---------------------------------------------------------------------------
# torsion

def test_torsion_equals_f_su2_u1():
    rep, I = canonical("A", 1, 1)
    f = rep.structure_constants()
    tors = oracles.coo_torsion_via_hull(I, f)
    assert np.abs(tors - f.f).max() < 1e-9


def test_torsion_equals_f_su3():
    rep, I = canonical("A", 2)
    f = rep.structure_constants()
    assert np.abs(oracles.coo_torsion_via_hull(I, f) - f.f).max() < 1e-9


def test_torsion_zero_for_abelian():
    rep, I = abelian4()
    f = L.structure_constants(rep)
    assert np.abs(oracles.coo_torsion_via_hull(I, f)).max() == 0.0


def test_torsion_refuses_non_integrable():
    rep = L.build_matrix_rep("A", 2)
    f = rep.structure_constants()
    I = oracles.random_complex_structure(rep.dim, np.random.default_rng(5))
    with pytest.raises(oracles.IntegrabilityError, match="residual"):
        oracles.torsion_via_hull(I, f)


# ---------------------------------------------------------------------------
# Nijenhuis tensor by finite differences

def test_nijenhuis_small_for_canonical_su3():
    rep, I = canonical("A", 2)
    assert C.nijenhuis_at_origin(rep, I, step=1e-4) < 1e-6


def loop_nijenhuis(rep, I, step):
    """The per-direction finite differences of structure_field, one dense
    D x D inverse per direction."""
    D = rep.dim

    def fd(h):
        d = np.empty((D, D, D))
        for m in range(D):
            x = np.zeros(D)
            x[m] = h
            d[m] = (oracles.structure_field(rep, I, x) - oracles.structure_field(rep, I, -x)) / (2 * h)
        return d

    di = (4.0 * fd(step / 2) - fd(step)) / 3.0
    t1 = di - di.transpose(1, 0, 2)
    return float(np.abs(t1 - np.einsum("mp,nq,pqk->mnk", I, I, t1)).max())


# D = 8, 24 and 32: below one block of the dense oracle's directions, a
# partial last block, whole blocks
@pytest.mark.parametrize("family,rank,u1", [("A", 2, 0), ("B", 3, 3), ("D", 4, 4)])
def test_batched_nijenhuis_matches_direction_loop(family, rank, u1):
    rep = L.build_matrix_rep(family, rank, u1)
    triple = A.build_quaternion_triple(rep)
    for s in (triple.I, triple.J, triple.K):
        assert abs(C.nijenhuis_at_origin(rep, s, step=1e-4)
                   - loop_nijenhuis(rep, s.matrix, 1e-4)) <= 1e-12
    X = oracles.random_complex_structure(rep.dim, np.random.default_rng(7))
    batched = oracles.nijenhuis_dense(rep, X, step=1e-4)
    assert batched > 1e-5
    assert abs(batched - loop_nijenhuis(rep, X, 1e-4)) <= 1e-12 * batched


def test_nijenhuis_zero_for_abelian():
    rep, I = abelian4()
    assert C.nijenhuis_at_origin(rep, I, step=1e-4) < 1e-14


def test_nijenhuis_large_for_random():
    rep = L.build_matrix_rep("A", 2)
    rng = np.random.default_rng(13)
    for _ in range(3):
        I = oracles.random_complex_structure(rep.dim, rng)
        n = oracles.nijenhuis_dense(rep, I, step=1e-4)
        assert n > 0.05
        assert oracles.integrability_residual(I, rep.structure_constants()) > 0.05


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_nijenhuis_matches_dense_oracle(family, rank):
    """The kernel on the support of each direction equals the dense finite
    differences; above the rank caps on J alone, to keep the suite short."""
    from hktlie.spaces import required_padding
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    triple = A.build_quaternion_triple(rep)
    structures = (triple.J,) if (family, rank) in ABOVE_CAPS else (triple.I, triple.J, triple.K)
    for s in structures:
        got = C.nijenhuis_at_origin(rep, s, step=1e-4)
        assert got < 1e-5
        assert abs(got - oracles.nijenhuis_dense(rep, s, step=1e-4)) <= 1e-13


def test_nijenhuis_refuses_non_permutation():
    """Away from a signed permutation the kernel raises and names the snap
    distance; the certificate then reports an infinite Nijenhuis value."""
    rep, I = canonical("A", 2)
    for m in (oracles.random_complex_structure(rep.dim, np.random.default_rng(3)),
              I.matrix + 1e-9):
        snap = C.ComplexStructure(m).snap
        with pytest.raises(ValueError, match=f"{snap:.3e} from the nearest signed permutation"):
            C.nijenhuis_at_origin(rep, m, step=1e-4)


@pytest.mark.parametrize("step", [1e-320, 5e-324])
def test_subnormal_fd_step_is_refused_by_the_library(step):
    """Both library entry points refuse a subnormal step, which gave 0 or 1
    with RuntimeWarnings, before any snap refusal could turn it into inf."""
    rep, I = canonical("A", 2)
    with pytest.raises(ValueError, match=r"fd-step must lie in \[2.98e-154, 1e-2\]"):
        C.nijenhuis_at_origin(rep, I, step)
    with pytest.raises(ValueError, match=r"fd-step must lie in \[2.98e-154, 1e-2\]"):
        A.build_quaternion_triple(rep, fd_step=step)


def test_refused_nijenhuis_is_reported_infinite(monkeypatch):
    def refuse(rep, I, step=1e-4):
        raise ValueError("structure is 1.000e-06 from the nearest signed permutation")

    monkeypatch.setattr(C, "nijenhuis_at_origin", refuse)
    result = A.build_quaternion_triple(L.build_matrix_rep("A", 2), fd_step=1e-4)
    assert [r.nijenhuis for r in result.reports.values()] == [np.inf] * 3
    assert result.failure == ("I.nijenhuis", np.inf, 1e-5)


def test_nijenhuis_memory_stays_within_a_fixed_budget():
    """The three calls with the offsets built afresh trace at most 3 MB at A8
    (D = 80) and 10 MB at A13xU1^1 (D = 196): the offsets and the terms of
    one block of k, where summing all of N at once took 10.2 and 40.7 MB
    (2.5 and 0.7 D^3 float64) and the dense oracle takes 7 D^3 per call."""
    import tracemalloc
    for family, rank, u1, budget in (("A", 8, 0, 3e6), ("A", 13, 1, 10e6)):
        rep = L.build_matrix_rep(family, rank, u1)
        triple = A.build_quaternion_triple(rep)
        C._vielbein_offsets.cache_clear()
        tracemalloc.start()
        try:
            for s in (triple.I, triple.J, triple.K):
                assert C.nijenhuis_at_origin(rep, s, step=1e-4) < 1e-5
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, (family, rank, peak / 1e6)


@pytest.mark.parametrize("family,rank", CLI_RANGE)
def test_block_split_cannot_move_the_nijenhuis_value(family, rank, monkeypatch):
    """One block of k for all of N, one block per column, and the default
    split give the same maxima within 1e-15, and the dense oracle's within
    1e-13."""
    from hktlie.spaces import required_padding
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    triple = A.build_quaternion_triple(rep)
    for s in (triple.I, triple.J, triple.K):
        default = C.nijenhuis_at_origin(rep, s, step=1e-4)
        split = []
        for block in (rep.dim ** 3, 1):
            monkeypatch.setattr(C, "_BLOCK", block)
            split.append(C.nijenhuis_at_origin(rep, s, step=1e-4))
        monkeypatch.undo()
        assert max(abs(v - default) for v in split) <= 1e-15, (default, split)
        assert abs(split[1] - oracles.nijenhuis_dense(rep, s, step=1e-4)) <= 1e-13


def test_nijenhuis_path_builds_no_dense_f():
    from hktlie import spaces
    from hktlie.cli import parse_space_string
    L._cached_rep.cache_clear()
    report = spaces.build_coset_triple(parse_space_string("A8"), fd_step=1e-4)
    assert report.verdict == "certified"
    rep = L.build_matrix_rep("A", 8)
    assert "f" not in vars(rep.structure_constants())


# ---------------------------------------------------------------------------
# quaternion residual

def test_quaternion_thooft_triple():
    assert C.quaternion_residual(C.SCRIPT_I, C.SCRIPT_J, C.SCRIPT_K) == 0.0


def test_quaternion_degenerate_triple():
    assert C.quaternion_residual(C.SCRIPT_I, C.SCRIPT_I, C.SCRIPT_K) >= 2.0


def test_quaternion_su3_triple():
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    assert C.quaternion_residual(res.I, res.J, res.K) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_quaternion_residual_orthogonal_invariance(seed):
    """Conjugating the whole triple by one orthogonal matrix is inert."""
    rng = np.random.default_rng(seed)
    i, j = C.SCRIPT_I, C.SCRIPT_J
    k = i @ j
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    before = C.quaternion_residual(i, j, k)
    after = C.quaternion_residual(q @ i @ q.T, q @ j @ q.T, q @ k @ q.T)
    assert abs(before - after) < 1e-12


# ---------------------------------------------------------------------------
# self-duality

def test_self_duality_su2_u1_triple():
    rep = L.build_matrix_rep("A", 1, 1)
    res = A.build_quaternion_triple(rep)
    for X in (res.I, res.J, res.K):
        assert oracles.self_duality_residual(X.matrix) < 1e-12


def test_self_duality_needs_4x4():
    with pytest.raises(ValueError):
        oracles.self_duality_residual(np.zeros((6, 6)))


# ---------------------------------------------------------------------------
# pairing invariants

@pytest.mark.parametrize("family,rank,u1,pairs", [
    ("A", 1, 1, 1), ("A", 2, 0, 1), ("A", 3, 1, 2), ("B", 3, 3, 3),
    ("C", 2, 2, 2), ("D", 4, 4, 4), ("A", 6, 0, 3)])
def test_pairing_counts_and_orthonormality(family, rank, u1, pairs):
    rep = L.build_matrix_rep(family, rank, u1)
    pairing = A.make_csa_pairing(rep)
    assert len(pairing) == pairs
    # the pairs use distinct axes, so their unit vectors are orthonormal
    used = [i for pair in pairing for i in pair]
    assert len(set(used)) == len(used)
    # every t index sits on one basic-coroot axis
    for t_idx, _ in pairing:
        ax = next(a for a in rep.csa_axes if a.index == t_idx)
        assert ax.kind == "coroot"


def test_spin7_quartet_decompositions_of_theta():
    """theta = (a+b)+(b+2c) = (a+b+c)+(b+c) = (a+b+2c)+b: exactly the three
    level-0 quartets, alongside one theta block per basic root."""
    rep, I = canonical("B", 3, 3)
    quartets = [b for b in I.blocks if b.kind == "quartet"]
    thetas = [b for b in I.blocks if b.kind == "theta"]
    assert len(thetas) == 3 and len(quartets) == 3
    pair_of = {}
    for root, entry in rep.root_table.items():
        pair_of[entry.re_index] = root
    got = {frozenset((pair_of[b.indices[0]], pair_of[b.indices[2]])) for b in quartets}
    want = {
        frozenset(((1, 0, -1), (0, 1, 1))),   # (a+b) + (b+2c)
        frozenset(((1, 0, 0), (0, 1, 0))),    # (a+b+c) + (b+c)
        frozenset(((1, 0, 1), (0, 1, -1))),   # (a+b+2c) + b
    }
    assert got == want


def test_bounds_table_and_first_failure():
    tol = 1e-9
    assert {k: b(tol) for k, b in C.BOUNDS.items()} == {
        "quaternion": tol, "invariance_leak": 1e-12, "snap": 1e-12, "integrability": tol,
        "square": tol, "bismut": 1e-12, "torsion_match": 10 * tol, "nijenhuis": 1e-5}
    assert list(C.BOUNDS)[:3] == ["quaternion", "invariance_leak", "snap"]
    values = [("quaternion", 1e-15), ("invariance_leak", 0.0), ("J.nijenhuis", None),
              ("J.bismut", 2e-12), ("K.square", 1.0)]
    assert C.first_failure(values, tol) == ("J.bismut", 2e-12, 1e-12)
    assert C.first_failure(values[:3], tol) is None
    check, value, bound = C.first_failure([("I.torsion_match", float("nan"))], tol)
    assert check == "I.torsion_match" and value != value and bound == 10 * tol


# ---------------------------------------------------------------------------
# signed-permutation kernels against the dense oracles

def random_signed_permutation_structure(dim, rng):
    """A complex structure that pairs the generators at random, t_a -> +-t_b."""
    m = np.zeros((dim, dim))
    for a, b in rng.permutation(dim).reshape(-1, 2):
        s = rng.choice((-1.0, 1.0))
        m[b, a], m[a, b] = s, -s
    return m


def dense_of(coo):
    out = np.zeros((coo.dim,) * 3)
    out[tuple(coo.index.T)] = coo.value
    return out


def assert_report_matches_oracles(matrix, coo, tol, report):
    """The kernels and the dense oracles on the float matrix agree to 1e-13,
    and each check falls on the same side of its bound."""
    f = dense_of(coo)
    integ = oracles.integrability_residual(matrix, f)
    want = {"integrability": integ, "bismut": oracles.bismut_residual(matrix, f),
            "torsion_match": oracles.torsion_match(matrix, f) if integ <= tol else np.inf}
    assert report.snap <= C.BOUNDS["snap"](tol)
    for check, value in want.items():
        got = getattr(report, check)
        assert got == value or abs(got - value) <= 1e-13, (check, got, value)
        bound = C.BOUNDS[check](tol)
        assert (got <= bound) == (value <= bound), check


@pytest.fixture
def recorded_reports(monkeypatch):
    """Every geometry_report call of the certificate path, with its inputs."""
    calls = []
    real = C.geometry_report

    def record(I, f, tol=C.DEFAULT_TOL, nijenhuis=None):
        report = real(I, f, tol, nijenhuis)
        calls.append((C._matrix_of(I), f, tol, report))
        return report

    monkeypatch.setattr(C, "geometry_report", record)
    return calls


def test_kernels_match_oracles_on_every_catalog_certificate(recorded_reports):
    from conftest import CLI_RANGE
    from hktlie import spaces
    certificates = 0
    for factor in CLI_RANGE:
        for spec in spaces.enumerate_quotients(factor):
            certificates += spaces.build_coset_triple(spec).verdict == "certified"
    assert certificates == 87
    assert len(recorded_reports) == 3 * 87
    for call in recorded_reports:
        assert_report_matches_oracles(*call)


@pytest.mark.parametrize("family,rank", ABOVE_CAPS)
def test_kernels_match_oracles_above_the_rank_caps(family, rank, recorded_reports):
    from hktlie.spaces import required_padding
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    assert A.build_quaternion_triple(rep).certified
    assert len(recorded_reports) == 3
    for call in recorded_reports:
        assert_report_matches_oracles(*call)


@pytest.mark.parametrize("family,rank,u1", [("A", 4, 0), ("B", 3, 3), ("D", 4, 4)])
def test_random_signed_permutations_are_not_integrable(family, rank, u1):
    rep = L.build_matrix_rep(family, rank, u1)
    f = rep.structure_constants()
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_signed_permutation_structure(rep.dim, rng)
        structure = C.ComplexStructure(m)
        assert structure.snap == 0.0
        assert np.array_equal(structure.matrix[structure.perm, np.arange(rep.dim)],
                              structure.sign)
        ours = C.integrability_residual(m, f)
        assert ours > 0.1 and oracles.integrability_residual(m, f) > 0.1
        assert abs(ours - oracles.integrability_residual(m, f)) <= 1e-13
        assert abs(C.bismut_residual(m, f) - oracles.bismut_residual(m, f)) <= 1e-13
        with pytest.raises(oracles.IntegrabilityError, match="residual"):
            oracles.coo_torsion_via_hull(m, f)
        assert C.geometry_report(m, f).torsion_match == np.inf


def test_rotated_structure_is_refused():
    """A canonical structure turned by a small rotation is no signed
    permutation: the kernels refuse it and the report's snap says why."""
    rep, I = canonical("A", 2)
    f = rep.structure_constants()
    angle = 1e-6
    rot = np.eye(rep.dim)
    rot[0, 0] = rot[2, 2] = np.cos(angle)
    rot[2, 0], rot[0, 2] = np.sin(angle), -np.sin(angle)
    m = rot @ I.matrix @ rot.T
    for kernel in (C.integrability_residual, C.bismut_residual, oracles.coo_torsion_via_hull):
        with pytest.raises(ValueError, match="from the nearest signed permutation"):
            kernel(m, f)
    report = C.geometry_report(m, f)
    assert 1e-12 < report.snap < 1e-5
    assert report.square < 1e-12
    assert report.integrability == report.bismut == report.torsion_match == np.inf
    failure = C.first_failure(report.to_json_dict().items(), C.DEFAULT_TOL)
    assert failure == ("snap", report.snap, 1e-12)


def test_snap_of_repeated_rows_is_at_least_one_half():
    m = np.zeros((4, 4))
    m[0, 0] = m[0, 1] = 1.0       # two columns peak in row 0
    m[2, 3], m[3, 2] = -1.0, 1.0
    perm, sign, snap = C.signed_permutation(m)
    assert snap >= 0.5
    assert C.signed_permutation(np.eye(4)[[1, 0, 3, 2]] * -1.0)[2] == 0.0


def test_sparse_torsion_matches_dense_oracle():
    for family, rank, u1 in (("A", 2, 0), ("B", 3, 3), ("C", 3, 3)):
        rep = L.build_matrix_rep(family, rank, u1)
        f = rep.structure_constants()
        triple = A.build_quaternion_triple(rep)
        for s in (triple.I, triple.J, triple.K):
            assert np.abs(oracles.coo_torsion_via_hull(s, f) - oracles.hull_torsion(s, f)).max() <= 1e-13


def test_geometry_report_memory_stays_below_the_dense_temporaries():
    """A10, D = 120: one dense (D, D, D) temporary is 13.8 MB."""
    import tracemalloc
    rep = L.build_matrix_rep("A", 10)
    triple = A.build_quaternion_triple(rep)
    f = rep.structure_constants()
    tracemalloc.start()
    try:
        for s in (triple.I, triple.J, triple.K):
            C.geometry_report(s.matrix, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
