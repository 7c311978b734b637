from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlie import rootsys as R

import oracles
from conftest import ABOVE_CAPS, CLI_RANGE

SUPPORTED = [("A", r) for r in range(1, 9)] + \
    [("B", r) for r in range(2, 5)] + \
    [("C", r) for r in range(2, 5)] + \
    [("D", r) for r in range(3, 6)]


def count_formula(family, rank):
    return {"A": rank * (rank + 1) // 2, "B": rank * rank,
            "C": rank * rank, "D": rank * (rank - 1)}[family]


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_positive_root_counts(family, rank):
    rs = R.build_root_system(family, rank)
    assert len(rs.positive_roots) == count_formula(family, rank)
    assert len(set(r.coords for r in rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_cartan_matrix_entries(family, rank):
    rs = R.build_root_system(family, rank)
    for i, row in enumerate(rs.cartan_matrix):
        for j, v in enumerate(row):
            if i == j:
                assert v == 2
            else:
                assert v in (0, -1, -2, -3)
    # definition check against the exact inner products
    for i, a in enumerate(rs.simple_roots):
        for j, b in enumerate(rs.simple_roots):
            assert rs.cartan_matrix[i][j] == 2 * a.dot(b) / b.norm2


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_highest_root_is_label_combination(family, rank):
    rs = R.build_root_system(family, rank)
    theta = oracles.highest_root(rs)
    combo = [sum(c * s.coords[k] for c, s in zip(rs.dynkin_labels, rs.simple_roots))
             for k in range(rs.dim)]
    assert tuple(combo) == theta.coords


def test_a2_positive_roots():
    rs = R.build_root_system("A", 2)
    assert {r.coords for r in rs.positive_roots} == {
        (1, -1, 0), (0, 1, -1), (1, 0, -1)}


def test_a1_smallest_case():
    rs = R.build_root_system("A", 1)
    assert [r.coords for r in rs.positive_roots] == [(1, -1)]
    assert rs.highest_root.coords == (1, -1)


def test_b3_paper_data():
    rs = R.build_root_system("B", 3)
    assert len(rs.positive_roots) == 9
    assert rs.is_root((0, 1, 0))            # beta + gamma
    assert rs.highest_root.coords == (1, 1, 0)
    assert rs.dynkin_labels == (1, 2, 2)    # theta = alpha + 2 beta + 2 gamma
    # two long, one short among the simple roots
    assert [s.length_class for s in rs.simple_roots] == ["long", "long", "short"]


def test_a3_highest_root():
    rs = R.build_root_system("A", 3)
    assert rs.highest_root.coords == (1, 0, 0, -1)
    assert rs.dynkin_labels == (1, 1, 1)


def test_coroot_values():
    rs = R.build_root_system("B", 3)
    gamma = rs.root((0, 0, 1))
    assert R.coroot(gamma) == (0, 0, 2)
    beta2gamma = rs.root((0, 1, 1))
    assert R.coroot(beta2gamma) == (0, 1, 1)
    # pairing <r, coroot(r)> = 2, always
    for r in rs.positive_roots:
        assert R.dot(r.coords, R.coroot(r)) == 2
    a1 = R.build_root_system("A", 1)
    alpha = a1.positive_roots[0]
    assert R.dot(alpha.coords, R.coroot(alpha)) == 2


@pytest.mark.parametrize("family", ["B", "C"])
def test_coroot_swaps_length_classes(family):
    rs = R.build_root_system(family, 3)
    longs = [r for r in rs.positive_roots if r.length_class == "long"]
    shorts = [r for r in rs.positive_roots if r.length_class == "short"]
    long_cor = {R.dot(R.coroot(r), R.coroot(r)) for r in longs}
    short_cor = {R.dot(R.coroot(r), R.coroot(r)) for r in shorts}
    assert max(long_cor) < min(short_cor)


def test_negation_closure():
    rs = R.build_root_system("C", 3)
    for r in rs.positive_roots:
        assert rs.is_root(tuple(-c for c in r.coords))
        assert r.negated().sign == "negative"


def test_non_integral_coordinates_rejected():
    rs = R.build_root_system("B", 3)
    assert rs.root((Fraction(1), Fraction(1), Fraction(0))).coords == (1, 1, 0)
    with pytest.raises(ValueError, match="integers"):
        rs.root((Fraction(1, 2), 1, 0))
    with pytest.raises(ValueError, match="not integral"):
        R.coroot((1, 1, 1))  # 2 v / 3 does not divide exactly


def test_root_nonzero_rejected():
    with pytest.raises(ValueError):
        R.Root((Fraction(0), Fraction(0)))


def test_zero_root_rejected_by_its_constructor():
    with pytest.raises(ValueError, match="nonzero"):
        R.Root((0, 0))


def test_root_compares_and_hashes_by_value():
    a = R.Root((1, -1, 0))
    assert a == R.Root((1, -1, 0), "long", "positive")
    assert hash(a) == hash(R.Root((1, -1, 0)))
    assert len({a, R.Root((1, -1, 0)), a.negated().negated()}) == 1
    assert a != R.Root((1, -1, 0), "short") and a != a.negated()
    assert a != (1, -1, 0)
    assert repr(a) == "Root(coords=(1, -1, 0), length_class='long', sign='positive')"


@pytest.mark.parametrize("record,field", [("root", "coords"), ("root", "sign"),
                                          ("system", "rank"), ("system", "_coeffs"),
                                          ("node", "children"), ("node", "theta")])
def test_records_refuse_assignment(record, field):
    """Roots, root systems and chain nodes are shared through `root_chain`'s
    cache, so none of them can be changed after it is built."""
    rs, levels = R.root_chain("B", 3)
    obj = {"root": rs.highest_root, "system": rs, "node": levels[0][0]}[record]
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=field):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=field):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("coords", [(0, 0), (0,), ()])
def test_coroot_of_zero_or_empty_vector_rejected(coords):
    """As `Root` does: a ValueError, not a ZeroDivisionError or an empty coroot."""
    with pytest.raises(ValueError, match="nonzero"):
        R.coroot(coords)


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 1), ("A", 0), ("E", 6)])
def test_unsupported_family_rank(family, rank):
    with pytest.raises(R.UnsupportedAlgebraError):
        R.build_root_system(family, rank)


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_root_strings_match_cartan_pairing(family, rank):
    """q - p for the b-string through a equals the integer pairing <a, b^vee>."""
    rs = R.build_root_system(family, rank)
    roots = rs.positive_roots
    for a in roots:
        for b in roots:
            if a.coords == b.coords:
                continue
            down = rs.root_string_down(a, b)
            up = 0
            cur = tuple(x + y for x, y in zip(a.coords, b.coords))
            while rs.is_root(cur):
                up += 1
                cur = tuple(x + y for x, y in zip(cur, b.coords))
            pairing = 2 * a.dot(b) / b.norm2
            assert down - up == pairing


@pytest.mark.parametrize("family,rank,shapes,abelian", [
    ("A", 6, [("A", 4)], 1),
    ("B", 3, [("A", 1), ("A", 1)], 0),
    ("D", 4, [("A", 1), ("A", 1), ("A", 1)], 0),
    ("A", 2, [], 1),
    ("A", 1, [], 0),
    ("C", 2, [("A", 1)], 0),
    ("C", 4, [("C", 3)], 0),
    ("B", 4, [("A", 1), ("B", 2)], 0),
    ("D", 5, [("A", 1), ("A", 3)], 0),
])
def test_extended_dynkin_surgery(family, rank, shapes, abelian):
    """The surgery of the extended diagram is the top node of the chain."""
    _, levels = R.root_chain(family, rank)
    [top] = levels[0]
    assert sorted((c.family, c.rank) for c in top.children) == sorted(shapes)
    assert top.abelian_dim == abelian
    for c in top.children:
        assert len(c.positive_roots) == count_formula(c.family, c.rank)


def test_surgery_matches_deleted_subdiagram():
    """At every chain node, the children's simple roots are the node's
    simple roots not adjacent to -theta."""
    for family, rank in SUPPORTED:
        for node in R.chain_nodes(R.root_chain(family, rank)[1]):
            survivors = {s.coords for s in node.simple_roots if s.dot(node.theta) == 0}
            got = {s.coords for c in node.children for s in c.simple_roots}
            assert got == survivors


def test_chain_with_a_missing_summand_is_refused(monkeypatch):
    """D4 with one of the three summands of the extended diagram dropped:
    the top node's roots orthogonal to theta outnumber its children's, and
    the chain is refused."""
    children = R._diagram_children
    monkeypatch.setattr(R, "_diagram_children", lambda *node: children(*node)[1:])
    with pytest.raises(RuntimeError, match="chain node D4: 3 positive roots .* summands hold 2$"):
        R.basic_root_chain(R.build_root_system("D", 4))


def test_chain_with_a_short_summand_is_refused(monkeypatch):
    """B4 with its B2 summand one root short: the count check refuses the
    top node."""
    children = R._diagram_children

    def short(*node):
        # a B-type summand is the one with short roots, of norm 1
        return tuple((members[:-1], simples) if min(r.norm2 for r in members) == 1
                     else (members, simples) for members, simples in children(*node))

    monkeypatch.setattr(R, "_diagram_children", short)
    with pytest.raises(RuntimeError, match="chain node B4: .* summands hold 4$"):
        R.basic_root_chain(R.build_root_system("B", 4))


def _chain_record(levels):
    return [[(n.label, n.theta.coords, n.level, n.abelian_dim,
              [r.coords for r in n.positive_roots],
              [r.coords for r in n.simple_roots]) for n in level]
            for level in levels]


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS + [
    ("A", 15), ("B", 8), ("C", 8), ("D", 10), ("A", 23)])
def test_chain_matches_pairwise_reference(family, rank):
    """Node by node, the chain read off the extended diagram equals the
    reference that joins every pair of roots orthogonal to theta: labels,
    theta, levels, Abelian dimensions, and positive and simple roots in
    order."""
    rs = R.build_root_system(family, rank)
    assert _chain_record(R.basic_root_chain(rs)) == _chain_record(oracles.reference_chain(rs))


@pytest.mark.parametrize("family,rank", CLI_RANGE + ABOVE_CAPS)
def test_chain_nodes_hold_their_own_roots(family, rank):
    """Every node's theta is the last of its positive roots and the only one
    of greatest height; its dimension is two per positive root plus its
    rank, that of its family and rank; its Abelian directions are the rank
    left by theta's coroot and its children."""
    rs = R.build_root_system(family, rank)
    for node in R.chain_nodes(R.basic_root_chain(rs)):
        heights = [rs.height(r) for r in node.positive_roots]
        assert node.theta == node.positive_roots[-1]
        assert heights.count(max(heights)) == 1 and heights[-1] == max(heights)
        assert len(node.positive_roots) == count_formula(node.family, node.rank)
        assert node.dimension == 2 * len(node.positive_roots) + node.rank
        assert node.abelian_dim == node.rank - 1 - sum(c.rank for c in node.children) >= 0


def test_chain_work_is_linear_in_the_roots(monkeypatch):
    """The chain of A31 takes at most |positive roots| * rank exact dot
    products (15 376); a pairwise join of the orthogonal roots takes over
    300 000."""
    rs = R.build_root_system("A", 31)
    calls = []
    dot = R.dot
    monkeypatch.setattr(R, "dot", lambda u, v: calls.append(1) or dot(u, v))
    R.basic_root_chain(rs)
    assert len(calls) <= len(rs.positive_roots) * rs.rank


@pytest.mark.parametrize("family,rank,labels", [
    ("A", 6, [["A6"], ["A4:011110"], ["A2:001100"]]),
    ("B", 3, [["B3"], ["A1:alpha", "A1:gamma"]]),
    ("A", 1, [["A1"]]),
    ("A", 3, [["A3"], ["A1:beta"]]),
])
def test_basic_root_chain_labels(family, rank, labels):
    levels = R.basic_root_chain(R.build_root_system(family, rank))
    got = [[n.label for n in level] for level in levels]
    assert got == labels


def test_su7_chain_roots():
    levels = R.basic_root_chain(R.build_root_system("A", 6))
    thetas = [n.theta.coords for lv in levels for n in lv]
    assert thetas == [(1, 0, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, -1, 0), (0, 0, 1, 0, -1, 0, 0)]


def test_spin7_chain_roots():
    levels = R.basic_root_chain(R.build_root_system("B", 3))
    assert [n.theta.coords for n in levels[0]] == [(1, 1, 0)]
    assert sorted(n.theta.coords for n in levels[1]) == [(0, 0, 1), (1, -1, 0)]


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_chain_coroots_orthogonal(family, rank):
    levels = R.basic_root_chain(R.build_root_system(family, rank))
    thetas = [n.theta for n in R.chain_nodes(levels)]
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            assert R.dot(R.coroot(thetas[i]), R.coroot(thetas[j])) == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUPPORTED))
def test_root_system_invariants_property(case):
    family, rank = case
    rs = R.build_root_system(family, rank)

    def ints(xs):
        return all(type(x) is int for x in xs)

    # heights positive, coefficient expansion integral and exact, and every
    # number of the layer a plain int
    for r in rs.positive_roots:
        coeffs = rs.coefficients(r)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        assert sum(coeffs) >= 1
        assert ints(r.coords) and ints(R.coroot(r)) and ints(coeffs)
        assert type(rs.height(r)) is int and type(r.norm2) is int
        combo = [sum(c * s.coords[k] for c, s in zip(coeffs, rs.simple_roots))
                 for k in range(rs.dim)]
        assert tuple(combo) == r.coords
    assert all(ints(row) for row in rs.cartan_matrix) and ints(rs.dynkin_labels)
    for node in R.chain_nodes(R.basic_root_chain(rs)):
        assert ints(x for r in node.positive_roots for x in r.coords)
    # highest root unique among maximal heights
    heights = sorted(rs.height(r) for r in rs.positive_roots)
    assert heights.count(heights[-1]) == 1
    # adding a simple root to theta never gives a root
    for s in rs.simple_roots:
        up = tuple(a + b for a, b in zip(rs.highest_root.coords, s.coords))
        assert not rs.is_root(up)


def test_json_serialization_roundtrip():
    rs = R.build_root_system("B", 3)
    doc = rs.to_json_dict()
    assert doc["family"] == "B" and doc["rank"] == 3
    assert doc["highest_root"] == ["1", "1", "0"]
    assert len(doc["positive_roots"]) == 9
    assert doc["dynkin_labels"] == [1, 2, 2]
    # rational coordinates survive the string round trip
    coords = tuple(Fraction(c) for c in doc["positive_roots"][0])
    assert rs.is_root(coords)
