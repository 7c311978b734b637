import os
import subprocess
import sys

import pytest

from hktlie import autom as A
from hktlie import liealg as L
from hktlie import rootsys as R
from hktlie import spaces as S

Sel = S.LevelSelection
Spec = S.SpaceSpec


# ---------------------------------------------------------------------------
# padding

@pytest.mark.parametrize("factors,expected", [
    ([("A", 2)], 0),
    ([("D", 4)], 4),
    ([("B", 3)], 3),
    ([("A", 1)], 1),
    ([("C", 2)], 2),
])
def test_required_padding(factors, expected):
    assert S.required_padding(factors) == expected


def test_required_padding_additive():
    single = sum(S.required_padding([f]) for f in [("A", 3), ("B", 3), ("C", 2)])
    assert S.required_padding([("A", 3), ("B", 3), ("C", 2)]) == single


PADDINGS = {
    ("A", 1): 1, ("A", 2): 0, ("A", 3): 1, ("A", 4): 0,
    ("A", 5): 1, ("A", 6): 0, ("A", 7): 1, ("A", 8): 0,
    ("B", 1): 1, ("B", 2): 2, ("B", 3): 3, ("B", 4): 4,
    ("C", 1): 1, ("C", 2): 2, ("C", 3): 3, ("C", 4): 4,
    ("D", 3): 1, ("D", 4): 4, ("D", 5): 3,
}


#: the classical group dimensions, the oracle for the root-system count
#: 2 |positive roots| + rank
GROUP_DIMS = {"A": lambda r: (r + 1) ** 2 - 1, "B": lambda r: r * (2 * r + 1),
              "C": lambda r: r * (2 * r + 1), "D": lambda r: r * (2 * r - 1)}


@pytest.mark.parametrize("family,max_rank", [("A", 8), ("B", 4), ("C", 4), ("D", 5)])
def test_classification_tables(family, max_rank):
    rows = S.classify_family(family, max_rank)
    for row in rows:
        assert row.padding == PADDINGS[(family, row.rank)]
        assert row.group_dim == GROUP_DIMS[family](row.rank)
        assert (row.group_dim + row.padding) % 4 == 0


def test_classification_names():
    assert [r.name for r in S.classify_family("A", 3)] == ["SU(2)", "SU(3)", "SU(4)"]
    assert [r.name for r in S.classify_family("C", 1)] == ["Sp(1)"]
    assert S.classify_family("C", 1)[0].padding == 1
    assert [r.name for r in S.classify_family("D", 5)] == ["Spin(6)", "Spin(8)", "Spin(10)"]


# ---------------------------------------------------------------------------
# quotient enumeration

def test_su4_four_options():
    specs = S.enumerate_quotients(("A", 3))
    names = sorted(sp.name for sp in specs)
    assert names == sorted([
        "SU(4) x U(1)",
        "SU(4) / (A1:beta)",
        "SU(4) / (A1:beta x U(1)-part@L1) x U(1)",
        "SU(4) / (U(1)-part@L1) x [U(1)]^2",
    ])


def test_su3_quotients():
    specs = S.enumerate_quotients(("A", 2))
    assert sorted(sp.name for sp in specs) == sorted(
        ["SU(3)", "SU(3) / (U(1)-part@L1) x U(1)"])


def test_spin7_quotients():
    specs = S.enumerate_quotients(("B", 3))
    by_name = {sp.name: sp for sp in specs}
    assert set(by_name) == {
        "Spin(7) x [U(1)]^3",
        "Spin(7) / (A1:alpha) x [U(1)]^2",
        "Spin(7) / (A1:gamma) x [U(1)]^2",
        "Spin(7) / (A1:alpha x A1:gamma) x U(1)",
    }


def dimension_of(spec):
    report = S.build_coset_triple(spec)
    assert report.verdict == "certified"
    return report.dimension


def test_spin7_quotient_dimensions():
    assert dimension_of(Spec((("B", 3),), 1, (Sel(1, ("A1:alpha", "A1:gamma"), False),))) == 16
    assert dimension_of(Spec((("B", 3),), 2, (Sel(1, ("A1:gamma",), False),))) == 20


@pytest.mark.parametrize("factor", [("A", 2), ("A", 3), ("A", 6), ("B", 3), ("C", 2), ("D", 4)])
def test_enumerated_dimensions_multiple_of_four(factor):
    family, rank = factor
    group_dim = GROUP_DIMS[family](rank)
    for spec in S.enumerate_quotients(factor):
        report = S.build_coset_triple(spec)
        assert report.verdict != "not-admissible"
        assert report.dimension % 4 == 0
        assert report.dimension <= group_dim + spec.u1_count


def test_su7_deep_levels():
    specs = S.enumerate_quotients(("A", 6))
    names = {sp.name for sp in specs}
    assert "SU(7) / (A4:011110)" in names
    assert "SU(7) / (A2:001100)" in names                               # level 2
    assert "SU(7) / (A2:001100 x U(1)-part@L2) x U(1)" in names
    assert "SU(7) / (A1:delta x U(1)-part) x U(1)" in names or \
        any(sp.selections and sp.selections[0].level == 3 for sp in specs)  # level 3
    # quotient by the level-1 abelian part alone
    assert any(sp.selections and sp.selections[0].include_abelian
               and not sp.selections[0].summands for sp in specs)


# ---------------------------------------------------------------------------
# coset certification

COSETS = [
    (Spec((("A", 3),), 0, (Sel(1, ("A1:beta",), False),)), 12, 1),
    (Spec((("A", 3),), 1, (Sel(1, ("A1:beta",), True),)), 12, 1),
    (Spec((("A", 2),), 1, (Sel(1, (), True),)), 8, 1),
    (Spec((("A", 6),), 0, (Sel(1, ("A4:011110",), False),)), 24, 1),
    (Spec((("B", 3),), 1, (Sel(1, ("A1:alpha", "A1:gamma"), False),)), 16, 1),
    (Spec((("B", 3),), 2, (Sel(1, ("A1:alpha",), False),)), 20, 2),
]


@pytest.mark.parametrize("spec,dim,n_autos", COSETS)
def test_coset_certification(spec, dim, n_autos):
    report = S.build_coset_triple(spec)
    assert report.verdict == "certified"
    assert report.dimension == dim
    assert len(report.automorphisms) == n_autos
    assert report.checks["invariance_leak"] <= 1e-12
    assert report.checks["quaternion"] < 1e-9
    for r in report.residuals.values():
        assert r["integrability"] < 1e-9
        assert r["square"] < 1e-9


def test_su4_mod_su2_uses_only_outer_automorphism():
    report = S.build_coset_triple(Spec((("A", 3),), 0, (Sel(1, ("A1:beta",), False),)))
    [auto] = report.automorphisms
    assert auto.level == 0 and auto.kind == "J"
    assert auto.root.coords == (1, 0, 0, -1)
    [node] = report.nodes
    assert (node.label, node.theta, node.level) == ("A3", auto.root, 0)


def test_spin7_mod_su2alpha_converts_theta_and_gamma():
    report = S.build_coset_triple(Spec((("B", 3),), 2, (Sel(1, ("A1:alpha",), False),)))
    roots = sorted(a.root.coords for a in report.automorphisms)
    assert roots == [(0, 0, 1), (1, 1, 0)]
    assert [n.theta for n in report.nodes] == [a.root for a in report.automorphisms]


def test_empty_quotient_matches_group_verification():
    """The coset path with no quotient reproduces the group-manifold triple
    field by field, on multi-level chains and with the Nijenhuis check."""
    for family, rank, fd_step in (("A", 2, None), ("B", 3, None), ("D", 4, None),
                                  ("B", 3, 1e-3)):
        padding = S.required_padding([(family, rank)])
        report = S.build_coset_triple(Spec(((family, rank),), padding), fd_step=fd_step)
        direct = A.build_quaternion_triple(L.build_matrix_rep(family, rank, padding),
                                           fd_step=fd_step)
        assert report.verdict == "certified" and direct.certified
        assert report.checks == direct.checks
        assert report.dimension == direct.dimension == L.build_matrix_rep(
            family, rank, padding).dim
        for key in ("I", "J", "K"):
            assert (report.checks[f"{key}.nijenhuis"] is None) == (fd_step is None)
        assert report.checks["coset_closure"] == report.checks["invariance_leak"] == 0.0
        assert report.message == direct.message == ""


def test_not_admissible_reports_required_padding():
    report = S.build_coset_triple(Spec((("A", 3),), 0))
    assert report.verdict == "not-admissible"
    assert report.padding_required == 1
    assert "requires 1 u(1) factor" in report.message
    report = S.build_coset_triple(Spec((("D", 4),), 2))
    assert report.verdict == "not-admissible"
    assert report.padding_required == 4


def test_excess_padding_is_not_admissible():
    report = S.build_coset_triple(Spec((("A", 2),), 2))
    assert report.verdict == "not-admissible"


def test_multi_factor_product():
    spec = Spec((("A", 1), ("B", 3)), 1 + 3)
    report = S.build_coset_triple(spec)
    assert report.verdict == "certified"
    assert report.dimension == 4 + 24
    assert len(report.nodes) == len(report.automorphisms) == 1 + 3
    assert [n.label for n in report.nodes] == ["A1", "B3", "A1:alpha", "A1:gamma"]
    assert [a.level for a in report.automorphisms] == [0, 0, 1, 1]
    assert {a.kind for a in report.automorphisms} == {"J"}


def test_product_report_is_its_factors_triples():
    """A product's certificate is the TripleResult of each factor, in spec
    order; every other field reads them."""
    report = S.build_coset_triple(Spec((("A", 2), ("B", 3)), 3))
    direct = [A.build_quaternion_triple(L.build_matrix_rep(f, r, S.required_padding([(f, r)])))
              for f, r in (("A", 2), ("B", 3))]
    assert len(report.triples) == 2
    for got, want in zip(report.triples, direct):
        assert got.checks == want.checks
        assert [n.label for n in got.nodes] == [n.label for n in want.nodes]
        assert got.dimension == want.dimension == got.I.dim
    assert report.dimension == sum(t.dimension for t in report.triples) == 32
    assert report.nodes == report.triples[0].nodes + report.triples[1].nodes
    assert report.automorphisms == (report.triples[0].automorphisms
                                    + report.triples[1].automorphisms)
    # one combine: the key-wise worst, None for a check that no factor ran
    assert list(report.checks) == list(report.triples[0].checks)
    for key, value in report.checks.items():
        ran = [t.checks[key] for t in report.triples if t.checks[key] is not None]
        assert value == (max(ran) if ran else None), key
    assert report.checks["J.nijenhuis"] is None
    doc = report.to_json_dict()
    assert [n.label for n in report.nodes] == [b["label"] for b in doc["basic_roots"]]
    assert [[str(c) for c in n.theta.coords] for n in report.nodes] == \
        [b["coords"] for b in doc["basic_roots"]]


def test_not_admissible_report_holds_no_triple():
    report = S.build_coset_triple(Spec((("A", 3),), 0))
    assert report.triples == () and report.dimension == 0
    assert report.nodes == report.automorphisms == ()
    assert report.checks == {} and report.residuals == {}
    doc = report.to_json_dict()
    # "inf" is a check of the triple as a whole that was not measured
    whole = ("quaternion", "invariance_leak", "k_mismatch", "coset_closure")
    assert [doc[k] for k in whole] == [float("inf")] * 4
    assert doc["basic_roots"] == doc["automorphisms"] == [] and doc["residuals"] == {}


def test_multi_factor_quotient_rejected():
    with pytest.raises(ValueError):
        S.build_coset_triple(Spec((("A", 1), ("A", 2)), 1, (Sel(1, (), True),)))


def test_unknown_summand_label():
    with pytest.raises(ValueError, match="unknown"):
        S.build_coset_triple(Spec((("A", 3),), 0, (Sel(1, ("A1:gamma",), False),)))


def test_coset_restricted_structures_are_complex_structures():
    """Restricted I, J, K: antisymmetric, square to -1, pairwise anticommute."""
    for spec, dim, _ in COSETS:
        family, rank = spec.factors[0]
        rep = L.build_matrix_rep(family, rank, spec.u1_count)
        report = S.build_coset_triple(spec)
        assert report.verdict == "certified"
        for r in report.residuals.values():
            assert r["square"] < 1e-9
        assert report.checks["quaternion"] < 1e-9


def test_abelian_item_without_abelian_part_is_refused():
    """D4 and A1 have no level-1 Abelian part: such a spec would certify the
    group manifold under a quotient name."""
    for factor, u1 in ((("D", 4), 4), (("A", 1), 1)):
        spec = Spec((factor,), u1, (Sel(1, (), True),))
        with pytest.raises(ValueError, match="no Abelian part at level 1"):
            S.build_coset_triple(spec)


def test_selection_must_remove_something_at_its_own_level():
    """An empty selection would certify the group manifold under a quotient
    name; a summand is found in the whole chain, then held to its level."""
    with pytest.raises(ValueError, match="selection at level 1 removes nothing"):
        S.build_coset_triple(Spec((("A", 3),), 1, (Sel(1, (), False),)))
    with pytest.raises(ValueError, match="summand 'A1:gamma' sits at level 2, not 1"):
        S.build_coset_triple(Spec((("B", 4),), 4, (Sel(1, ("A1:gamma",), False),)))


def test_quotient_at_two_levels_is_refused():
    """The grammar puts every quotient item at one level; a spec with two
    selections would print as a different space (here A7xU1^1/u1)."""
    spec = Spec((("A", 7),), 1, (Sel(1, (), True), Sel(3, ("A1:delta",), False)))
    with pytest.raises(ValueError, match="one level; got 2 selections"):
        S.build_coset_triple(spec)


def test_spec_without_simple_factor_is_refused():
    with pytest.raises(ValueError, match="need at least one simple factor"):
        S.build_coset_triple(Spec((), 0))


def counting_builds(monkeypatch):
    """The (family, rank) of every root system and chain built from now on."""
    built = []
    build, chain = R.build_root_system, R.basic_root_chain

    def counted_build(family, rank):
        built.append(("build_root_system", f"{family}{rank}"))
        return build(family, rank)

    def counted_chain(rs):
        built.append(("basic_root_chain", f"{rs.family}{rs.rank}"))
        return chain(rs)

    monkeypatch.setattr(R, "build_root_system", counted_build)
    monkeypatch.setattr(R, "basic_root_chain", counted_chain)
    R.root_chain.cache_clear()
    return built


def test_product_builds_each_chain_once(monkeypatch):
    """One chain build per factor: the padding check and the certification
    read the same resolved factors."""
    built = counting_builds(monkeypatch)
    report = S.build_coset_triple(Spec((("A", 2), ("B", 3)), 3))
    assert report.verdict == "certified"
    assert [algebra for name, algebra in built if name == "basic_root_chain"] == ["A2", "B3"]


def test_lowercase_family_reads_as_uppercase(monkeypatch):
    """A library spec with a lowercase family certifies under the uppercase
    name and factors, from one root-data build."""
    built = counting_builds(monkeypatch)
    report = S.build_coset_triple(Spec((("a", 3),), 1))
    assert report.verdict == "certified"
    assert report.name == "SU(4) x U(1)"
    assert report.to_json_dict()["factors"] == [["A", 3]]
    assert report.to_json_dict() == S.build_coset_triple(Spec((("A", 3),), 1)).to_json_dict()
    assert sorted(built) == [("basic_root_chain", "A3"), ("build_root_system", "A3")]


@pytest.mark.parametrize("read", [
    lambda family: S.enumerate_quotients((family, 3)),
    lambda family: S.required_padding([(family, 3)]),
    lambda family: R.root_chain(family, 3),
], ids=["enumerate_quotients", "required_padding", "root_chain"])
def test_lowercase_factor_shares_the_root_chain_cache(read):
    """A factor's family is read upper-case before `root_chain`'s cache, so
    "a" finds the entry that "A" made, and gives the same answer (for
    `root_chain`, the same objects)."""
    R.root_chain.cache_clear()
    upper = read("A")
    assert R.root_chain.cache_info().misses == 1
    assert read("a") == upper
    assert R.root_chain.cache_info().misses == 1


def test_spec_is_a_read_only_value():
    sel = Sel(1, ("A1:gamma",))
    assert sel == Sel(1, ("A1:gamma",), False) and hash(sel) == hash(Sel(1, ("A1:gamma",)))
    assert sel != Sel(1, ("A1:gamma",), True)
    spec = Spec((("b", 3),), 2, (sel,))
    assert spec.factors == (("B", 3),)
    assert spec == Spec((("B", 3),), 2, (Sel(1, ("A1:gamma",)),))
    assert hash(spec) == hash(Spec((("B", 3),), 2, (sel,)))
    assert len({spec, Spec((("B", 3),), 2, (sel,)), Spec((("B", 3),), 2)}) == 2
    assert Spec((("b", 3),), 2).factors == (("B", 3),)
    for obj, field in ((spec, "factors"), (spec, "u1_count"), (sel, "summands")):
        with pytest.raises(AttributeError, match=field):
            setattr(obj, field, ())
    assert spec.factors == (("B", 3),) and sel.summands == ("A1:gamma",)


def test_root_data_is_built_once_per_algebra(monkeypatch, capsys):
    """A repeated factor, the padding table, a catalog and the parser share
    one root system and chain per (family, rank); `catalog A 8 --verify`
    made 13 builds of each for its 11 specs."""
    from hktlie import cli
    built = counting_builds(monkeypatch)
    assert S.build_coset_triple(Spec((("A", 2),) * 4, 0)).verdict == "certified"
    assert S.required_padding([("A", 2), ("A", 2)]) == 0
    assert cli.main(["catalog", "A", "8", "--verify"]) == 0
    cli.parse_space_string("A8xU1^1/u1")
    capsys.readouterr()
    assert sorted(built) == [("basic_root_chain", "A2"), ("basic_root_chain", "A8"),
                             ("build_root_system", "A2"), ("build_root_system", "A8")]


# ---------------------------------------------------------------------------
# the limits of the library's inputs, with the command line's texts

@pytest.mark.parametrize("tol", ["nan", "0", "-1", "2e-3"])
def test_library_refuses_the_tolerances_the_cli_refuses(capsys, tol):
    """A tolerance outside (0, 1e-3] once reached the checks: with NaN, an
    exact A2 triple failed as "quaternion 0 above nan"."""
    from hktlie import cli
    assert cli.main(["--tol", tol, "verify", "A2"]) == 2
    err = capsys.readouterr().err
    rep = L.build_matrix_rep("A", 2)
    for build in (lambda: S.build_coset_triple(Spec((("A", 2),), 0), tol=float(tol)),
                  lambda: A.build_quaternion_triple(rep, tol=float(tol))):
        with pytest.raises(ValueError) as exc:
            build()
        assert err == f"error: {exc.value}\n"


def test_enumerate_quotients_refuses_a_negative_max_level(capsys):
    from hktlie import cli
    assert cli.main(["catalog", "A", "3", "-1"]) == 2
    with pytest.raises(ValueError) as exc:
        S.enumerate_quotients(("A", 3), -1)
    assert capsys.readouterr().err == f"error: {exc.value}\n"


#: the library calls that take a rank, as source text for a fresh process
RANK_CALLS = {
    "root_chain": "rootsys.root_chain('A', {rank!r})",
    "build_matrix_rep": "liealg.build_matrix_rep('A', {rank!r})",
    "build_coset_triple": "spaces.build_coset_triple(spaces.SpaceSpec((('A', {rank!r}),), 0))",
}


def refusal_in_a_fresh_process(call: str) -> tuple:
    """(exit code, stdout, stderr) of a fresh process that runs the source
    text `call` and prints the UnsupportedAlgebraError it raises."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = ("from hktlie import liealg, rootsys, spaces\ntry:\n    " + call
             + "\nexcept rootsys.UnsupportedAlgebraError as exc:\n    print(exc)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("rank", [2.0, True])
@pytest.mark.parametrize("call", RANK_CALLS)
def test_rank_that_is_no_int_is_refused_in_a_fresh_process(call, rank):
    """Cold, 2.0 reached `range` in a bare TypeError, and True built an
    algebra whose rank read True."""
    assert refusal_in_a_fresh_process(RANK_CALLS[call].format(rank=rank)) == (
        0, f"rank must be an int, got {rank!r}\n", "")


@pytest.mark.parametrize("rank", [2.0, True])
@pytest.mark.parametrize("call", RANK_CALLS)
def test_rank_that_is_no_int_is_refused_after_a_warm_build(call, rank):
    """Warm, the caches served 2.0 the entry of 2 and True that of 1."""
    S.build_coset_triple(Spec((("A", int(rank)),), S.required_padding([("A", int(rank))])))
    with pytest.raises(R.UnsupportedAlgebraError) as exc:
        eval(RANK_CALLS[call].format(rank=rank), {"liealg": L, "rootsys": R, "spaces": S})
    assert str(exc.value) == f"rank must be an int, got {rank!r}"


#: the library calls that take a family, as source text
FAMILY_CALLS = {
    "build_coset_triple": "spaces.build_coset_triple(spaces.SpaceSpec((({family!r}, 2),), 0))",
    "root_chain": "rootsys.root_chain({family!r}, 2)",
    "build_matrix_rep": "liealg.build_matrix_rep({family!r}, 2)",
    "classify_family": "spaces.classify_family({family!r}, 2)",
}


@pytest.mark.parametrize("family", [None, 3])
@pytest.mark.parametrize("call", FAMILY_CALLS)
def test_family_that_is_no_string_is_refused_in_a_fresh_process(call, family):
    """A family that is not a string ended in a bare AttributeError of its
    `upper`, in `SpaceSpec` or in the key of the caches."""
    assert refusal_in_a_fresh_process(FAMILY_CALLS[call].format(family=family)) == (
        0, f"unknown family {family!r}; expected one of ('A', 'B', 'C', 'D')\n", "")


@pytest.mark.parametrize("family", [None, 3])
@pytest.mark.parametrize("call", FAMILY_CALLS)
def test_family_that_is_no_string_is_refused_after_a_warm_build(call, family):
    S.build_coset_triple(Spec((("A", 2),), 0))
    with pytest.raises(R.UnsupportedAlgebraError) as exc:
        eval(FAMILY_CALLS[call].format(family=family), {"liealg": L, "rootsys": R, "spaces": S})
    assert str(exc.value) == f"unknown family {family!r}; expected one of ('A', 'B', 'C', 'D')"


#: the library calls that take a u(1) count
U1_CALLS = {
    "build_matrix_rep": lambda u1: L.build_matrix_rep("A", 1, u1),
    "build_coset_triple": lambda u1: S.build_coset_triple(Spec((("A", 1),), u1)),
    "space_spec": lambda u1: S.space_spec((("A", 1),), u1),
}


@pytest.mark.parametrize("u1", [True, 1.0, 1.5, -1])
@pytest.mark.parametrize("call", U1_CALLS)
def test_u1_count_that_is_no_non_negative_int_is_refused(call, u1):
    """True certified A1 x U(1) and wrote "u1_count":true into its
    certificate, 1.0 wrote 1.0, and 1.5 ended in numpy's TypeError."""
    with pytest.raises(ValueError) as exc:
        U1_CALLS[call](u1)
    assert str(exc.value) == f"u1_count must be a non-negative int, got {u1!r}"
