"""Certification reads f and the root table, never the generator matrices,
and each simple algebra is built once per process."""

import contextlib
import copy
import io

import numpy as np
import pytest

from hktlie import autom as A
from hktlie import cli
from hktlie import cstruct as C
from hktlie import liealg as L
from hktlie import spaces as S
from hktlie.spaces import required_padding

import oracles
from conftest import CLI_RANGE


class _NoMatrices(L.AlgebraRep):
    """An AlgebraRep whose generator matrices raise on access."""

    @property
    def generators(self):
        raise AssertionError("the generator matrices were read")


def without_matrices(rep: L.AlgebraRep) -> L.AlgebraRep:
    blind = copy.copy(rep)
    object.__setattr__(blind, "__class__", _NoMatrices)
    return blind


def assert_same_triple(got, want):
    for name in ("I", "J", "K"):
        assert np.array_equal(getattr(got, name).matrix, getattr(want, name).matrix)
    assert [(a.support.tolist(), a.block.tolist()) for a in got.automorphisms] == \
        [(a.support.tolist(), a.block.tolist()) for a in want.automorphisms]
    for name in ("dimension", "checks", "failure", "message"):
        assert getattr(got, name) == getattr(want, name), name


def test_blind_rep_refuses_the_matrices():
    with pytest.raises(AssertionError, match="matrices were read"):
        without_matrices(L.build_matrix_rep("A", 2)).generators


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_chain_centralizer_and_pairing_read_no_matrix(family, rank):
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    blind = without_matrices(rep)
    L._check_chain(blind)
    got, want = C.canonical_I(blind), C.canonical_I(rep)
    assert np.array_equal(got.perm, want.perm) and np.array_equal(got.sign, want.sign)
    assert got.blocks == want.blocks


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_group_triple_with_fd_step_reads_no_matrix(family, rank):
    rep = L.build_matrix_rep(family, rank, required_padding([(family, rank)]))
    got = A.build_quaternion_triple(without_matrices(rep), fd_step=1e-4)
    want = A.build_quaternion_triple(rep, fd_step=1e-4)
    assert want.checks["J.nijenhuis"] is not None
    assert_same_triple(got, want)


@pytest.mark.parametrize("space", ["A3xU1^1/A1:beta,u1", "B3xU1^2/A1:gamma"])
def test_quotient_triple_reads_no_matrix(space, monkeypatch):
    spec = cli.parse_space_string(space)
    triples = []
    build = A.build_quaternion_triple
    monkeypatch.setattr(A, "build_quaternion_triple",
                        lambda *a, **k: triples.append(build(*a, **k)) or triples[-1])
    want = S.build_coset_triple(spec).to_json_dict()
    build_rep = L.build_matrix_rep
    monkeypatch.setattr(L, "build_matrix_rep", lambda *key: without_matrices(build_rep(*key)))
    got = S.build_coset_triple(spec).to_json_dict()
    assert got == want and want["verdict"] == "certified"
    assert len(triples) == 2
    assert_same_triple(*triples)


# ---------------------------------------------------------------------------
# one build per algebra

def test_catalog_builds_each_simple_algebra_once(monkeypatch):
    """`catalog D 4 --verify` pads so(8) with 0 to 4 u(1)s over its
    quotients, from one build."""
    builds = []
    build = L._build_matrix_rep
    monkeypatch.setattr(L, "_build_matrix_rep", lambda *key: builds.append(key) or build(*key))
    L._cached_rep.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "catalog", "D", "4", "--verify"]) == cli.EXIT_OK
    assert builds == [("D", 4)]


def test_catalog_checks_the_chain_once(monkeypatch):
    """`catalog D 4 --verify` certifies five paddings of so(8) and checks its
    chain against f once, in the build."""
    checked = []
    check = L._check_chain
    monkeypatch.setattr(L, "_check_chain", lambda rep: checked.append(rep.rank) or check(rep))
    L._cached_rep.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "catalog", "D", "4", "--verify"]) == cli.EXIT_OK
    assert checked == [4]


@pytest.mark.parametrize("family,rank", CLI_RANGE)
def test_padded_rep_is_the_zero_extension_of_its_build(family, rank):
    """The padded generators hold the unpadded ones in their top-left
    corner and sqrt(C) on one new diagonal slot per u(1); f keeps the
    unpadded entries, within 1 ulp of f read from the padded matrices."""
    u1 = required_padding([(family, rank)]) or 1
    base = L.build_matrix_rep(family, rank)
    rep = L.build_matrix_rep(family, rank, u1)
    D, d = base.dim, base.matrix_dim
    assert (rep.dim, rep.matrix_dim, rep.u1_count) == (D + u1, d + u1, u1)

    ext = np.zeros((D + u1, d + u1, d + u1), dtype=complex)
    ext[:D, :d, :d] = base.generators
    for k in range(u1):
        ext[D + k, d + k, d + k] = np.sqrt(base.norm_const)
    assert np.array_equal(rep.generators, ext)

    f, f0 = rep.structure_constants(), base.structure_constants()
    assert f.dim == D + u1
    assert np.array_equal(f.index, f0.index) and np.array_equal(f.value, f0.value)
    from_matrices = oracles.structure_constants(rep)
    assert np.array_equal(from_matrices.index, f.index)
    assert np.abs(from_matrices.value - f.value).max() <= 2.3e-16

    assert rep.root_table == base.root_table
    assert rep.csa_axes[:base.rank] == base.csa_axes
    assert rep.u1_indices == tuple(range(D, D + u1))
    assert [(ax.index, ax.kind) for ax in rep.csa_axes[base.rank:]] == \
        [(i, "u1") for i in rep.u1_indices]
