"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS line with the
measured numbers once its assertions went through (run with -s or -rA to see
them).  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import scipy.linalg

from hktlie import autom as A
from hktlie import cstruct as C
from hktlie import liealg as L
from hktlie import spaces as S

import oracles
from conftest import CATALOG


def _done(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_hopf_manifold_exact_triple():
    """SU(2) x U(1): the triple equals the reference 4x4 matrices entrywise
    to 1e-12, all three are self-dual, and the build takes < 0.1 s."""
    scipy.linalg.expm(np.eye(2, dtype=complex))        # warm the solver
    L._cached_rep.cache_clear()
    t0 = time.perf_counter()
    rep = L.build_matrix_rep("A", 1, 1)
    res = A.build_quaternion_triple(rep)
    elapsed = time.perf_counter() - t0

    for got, want in ((res.I, C.SCRIPT_I), (res.J, C.SCRIPT_J), (res.K, C.SCRIPT_K)):
        assert np.abs(got.matrix - want).max() <= 1e-12
        assert set(np.unique(want)) <= {-1.0, 0.0, 1.0}
        assert oracles.self_duality_residual(got.matrix, eps_sign=1.0) <= 1e-12
    assert elapsed < 0.1
    _done(1, f"SU(2)xU(1) triple exact to 1e-12, self-dual, built in {elapsed * 1e3:.1f} ms")


def test_criterion_2_su3_canonical_structures():
    """SU(3): I = diag(scriptI, scriptI) with the coroot axis mapped to the
    orthogonal Cartan axis; the J action on the alpha/beta sector matches the
    reference signs to 1e-10; quaternion and integrability below 1e-9."""
    rep = L.build_matrix_rep("A", 2)
    res = A.build_quaternion_triple(rep)
    rs = rep.root_system

    # block basis (theta pair, t, e | alpha pair, beta pair)
    perm = [i for b in res.I.blocks for i in b.indices]
    eye2 = np.kron(np.eye(2), C.SCRIPT_I)
    assert np.abs(res.I.matrix[np.ix_(perm, perm)] - eye2).max() <= 1e-12
    h_t, h_e = rep.csa_indices
    assert res.I.matrix[h_e, h_t] == 1.0               # I_83 = 1

    al = rep.root_entry(rs.root((1, -1, 0)))
    be = rep.root_entry(rs.root((0, 1, -1)))
    J = res.J.matrix
    assert abs(J[be.re_index, al.re_index] + 1) <= 1e-10   # J t1 = -t6
    assert abs(J[be.im_index, al.im_index] - 1) <= 1e-10   # J t2 = +t7
    assert abs(J[al.re_index, be.re_index] - 1) <= 1e-10   # J t6 = +t1
    assert abs(J[al.im_index, be.im_index] + 1) <= 1e-10   # J t7 = -t2

    assert res.quaternion_residual < 1e-9
    worst_integ = max(r.integrability for r in res.reports.values())
    assert worst_integ < 1e-9
    _done(2, f"SU(3): I block-diagonal, J action signs exact, "
             f"quaternion {res.quaternion_residual:.1e}, integrability {worst_integ:.1e}")


FULL_CERTIFICATION = [
    ("SU(3)", "A", 2, 0),
    ("SU(4) x U(1)", "A", 3, 1),
    ("SU(5)", "A", 4, 0),
    ("SU(7)", "A", 6, 0),
    ("Sp(2) x [U(1)]^2", "C", 2, 2),
    ("Spin(7) x [U(1)]^3", "B", 3, 3),
    ("Spin(8) x [U(1)]^4", "D", 4, 4),
]


def test_criterion_3_full_certification_catalog():
    """Quaternion + integrability for I, J, K + torsion match C = f (1e-8)
    for the seven group manifolds, each under 10 s."""
    lines = []
    for name, family, rank, padding in FULL_CERTIFICATION:
        t0 = time.perf_counter()
        rep = L.build_matrix_rep(family, rank, padding)
        res = A.build_quaternion_triple(rep)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, (name, elapsed)
        assert res.quaternion_residual < 1e-9, name
        for key, r in res.reports.items():
            assert r.integrability < 1e-9, (name, key)
            assert r.square < 1e-9, (name, key)
            assert r.torsion_match < 1e-8, (name, key)
        assert res.certified
        lines.append(f"{name} ({elapsed:.2f} s)")
    _done(3, "full certification: " + ", ".join(lines))


def test_criterion_4_classification_tables():
    """Padding table entries for A up to rank 8, B/C up to 4, D up to 5."""
    expected = {
        ("A", 1): 1, ("A", 2): 0, ("A", 3): 1, ("A", 4): 0,
        ("A", 5): 1, ("A", 6): 0, ("A", 7): 1, ("A", 8): 0,
        ("B", 1): 1, ("B", 2): 2, ("B", 3): 3, ("B", 4): 4,
        ("C", 1): 1, ("C", 2): 2, ("C", 3): 3, ("C", 4): 4,
        ("D", 3): 1, ("D", 4): 4, ("D", 5): 3,
    }
    count = 0
    for family, max_rank in (("A", 8), ("B", 4), ("C", 4), ("D", 5)):
        for row in S.classify_family(family, max_rank):
            assert row.padding == expected[(family, row.rank)], row
            count += 1
    # the closed forms: SU(2l+1): 0, SU(2l): 1, Sp(l): l, SO(2l+1): l,
    # SO(4l): 2l, SO(4l+2): 2l-1
    for ell in (1, 2, 3, 4):
        if 2 * ell <= 9:
            assert expected.get(("A", 2 * ell - 1), 1) == 1
        if 2 * ell + 1 <= 9:
            assert expected.get(("A", 2 * ell), 0) == 0
        if ell <= 4:
            assert expected[("C", ell)] == ell
            assert expected[("B", ell)] == ell
    assert expected[("D", 4)] == 2 * 2          # SO(8) = SO(4l), l = 2
    assert expected[("D", 3)] == 2 * 1 - 1      # SO(6) = SO(4l+2), l = 1
    assert expected[("D", 5)] == 2 * 2 - 1      # SO(10) = SO(4l+2), l = 2
    _done(4, f"classification reproduces all {count} classical entries")


COSETS = [
    ("SU(4)/SU(2)", S.SpaceSpec((("A", 3),), 0,
     (S.LevelSelection(1, ("A1:beta",), False),)), 12),
    ("SU(4)/(SU(2)xU(1)) x U(1)", S.SpaceSpec((("A", 3),), 1,
     (S.LevelSelection(1, ("A1:beta",), True),)), 12),
    ("SU(3)/U(1) x U(1)", S.SpaceSpec((("A", 2),), 1,
     (S.LevelSelection(1, (), True),)), 8),
    ("SU(7)/SU(5)", S.SpaceSpec((("A", 6),), 0,
     (S.LevelSelection(1, ("A4:011110",), False),)), 24),
    ("Spin(7)/(SU(2)xSU(2)) x U(1)", S.SpaceSpec((("B", 3),), 1,
     (S.LevelSelection(1, ("A1:alpha", "A1:gamma"), False),)), 16),
    ("Spin(7)/SU(2) x [U(1)]^2", S.SpaceSpec((("B", 3),), 2,
     (S.LevelSelection(1, ("A1:alpha",), False),)), 20),
]


def test_criterion_5_coset_certification():
    """The six quotients certify: exact subspace invariance, restricted
    quaternion and integrability residuals below 1e-9."""
    lines = []
    for name, spec, dim in COSETS:
        report = S.build_coset_triple(spec)
        assert report.verdict == "certified", (name, report.message)
        assert report.dimension == dim, name
        assert report.invariance_leak <= 1e-12, name
        assert report.quaternion < 1e-9, name
        for key, r in report.residuals.items():
            assert r.integrability < 1e-9, (name, key)
            assert r.square < 1e-9, (name, key)
        lines.append(f"{name} (dim {dim}, leak {report.invariance_leak:.1e})")
    _done(5, "cosets certified: " + "; ".join(lines))


def test_criterion_6_property_suites():
    """Jacobi on every catalog algebra; automorphism orthogonality and
    structure-constant invariance; the +-(q+1) commutator norms; coroot
    periodicity; the two- and four-term relations on su(3)."""
    worst_jacobi = 0.0
    for family, rank in CATALOG:
        rep = L.build_matrix_rep(family, rank)
        worst_jacobi = max(worst_jacobi, rep.structure_constants().jacobi_residual())
    assert worst_jacobi < 1e-9

    worst_auto = 0.0
    for family, rank in CATALOG:
        rep = L.build_matrix_rep(family, rank)
        f = rep.structure_constants()
        auto = A.automorphism_from_root(rep, rep.root_system.highest_root, "J")
        worst_auto = max(worst_auto, oracles.orthogonality_residual(auto, rep.dim),
                         oracles.invariance_residual(auto, f))
    assert worst_auto < 1e-9

    for family, rank in (("A", 2), ("A", 3), ("B", 3)):
        rep = L.build_matrix_rep(family, rank)
        rs = rep.root_system
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a.coords == b.coords:
                    continue
                tot = tuple(x + y for x, y in zip(a.coords, b.coords))
                if not rs.is_root(tot):
                    continue
                comm = rep.root_vector(a) @ rep.root_vector(b) \
                    - rep.root_vector(b) @ rep.root_vector(a)
                q = rs.root_string_down(a, b)
                want = (q + 1) * np.linalg.norm(rep.root_vector(rs.root(tot)))
                assert abs(np.linalg.norm(comm) - want) < 1e-9, (family, rank, a, b)

    for rep in (L.build_matrix_rep("A", 1), L.build_matrix_rep("A", 2),
                L.build_matrix_rep("B", 3, 0, rep_kind="spinor")):
        for root in rep.root_system.positive_roots:
            res = oracles.coroot_periodicity_check(rep, rep.coroot_matrix(root))
            assert res.period_ok and res.min_nontrivial

    rep = L.build_matrix_rep("A", 2)
    rs = rep.root_system
    f = rep.structure_constants().f
    Ae = rep.root_entry(rs.root((1, -1, 0)))
    Be = rep.root_entry(rs.root((1, 0, -1)))
    Ce = rep.root_entry(rs.root((0, 1, -1)))
    a, a_, b, b_, c, c_ = (Ae.re_index, Ae.im_index, Be.re_index,
                           Be.im_index, Ce.re_index, Ce.im_index)
    assert abs(f[a, b, c_] - f[a_, b_, c_]) < 1e-10
    assert abs(f[a_, b, c] + f[a, b_, c]) < 1e-10
    assert abs(f[a, b, c_] + f[b_, a_, c_] - f[c, b_, a] - f[a_, c, b]) < 1e-10
    _done(6, f"properties hold (worst Jacobi {worst_jacobi:.1e}, "
             f"worst automorphism residual {worst_auto:.1e})")


def test_criterion_7_negative_control():
    """100 random antisymmetric unit-normalized structures on su(3): the
    integrability residual never drops below 1e-2 while the covariant-
    constancy identity stays at the 1e-12 level."""
    rep = L.build_matrix_rep("A", 2)
    f = rep.structure_constants()
    rng = np.random.default_rng(20250808)
    min_integ = np.inf
    max_bismut = 0.0
    for _ in range(100):
        I = oracles.random_complex_structure(rep.dim, rng)
        min_integ = min(min_integ, oracles.integrability_residual(I, f))
        max_bismut = max(max_bismut, oracles.bismut_residual(I, f))
    assert min_integ > 1e-2
    assert max_bismut < 1e-12
    _done(7, f"negative control: min integrability {min_integ:.3f}, "
             f"max covariant-constancy residual {max_bismut:.1e}")


def test_criterion_8_finite_difference_cross_check():
    """The finite-difference Nijenhuis residual (step 1e-4, Richardson) is
    below 1e-5 exactly for the structures whose algebraic residual is below
    1e-9, on SU(3) and SU(2) x U(1)."""
    lines = []
    for family, rank, u1 in (("A", 2, 0), ("A", 1, 1)):
        rep = L.build_matrix_rep(family, rank, u1)
        f = rep.structure_constants()
        res = A.build_quaternion_triple(rep)
        for key, X in (("I", res.I), ("J", res.J), ("K", res.K)):
            alg = C.integrability_residual(X, f)
            fd = C.nijenhuis_at_origin(rep, X, step=1e-4)
            assert alg < 1e-9
            assert fd < 1e-5, (family, key, fd)
        # the two formulations must agree sample by sample (on the 4d Hopf
        # algebra a random structure can legitimately be integrable)
        rng = np.random.default_rng(99)
        for _ in range(5):
            I = oracles.random_complex_structure(rep.dim, rng)
            alg_small = oracles.integrability_residual(I, f) < 1e-9
            fd_small = oracles.nijenhuis_dense(rep, I, step=1e-4) < 1e-5
            assert alg_small == fd_small
        lines.append(f"{family}{rank}+u1^{u1}")
    _done(8, "finite-difference integrability agrees with the algebraic "
             "check on " + " and ".join(lines))
