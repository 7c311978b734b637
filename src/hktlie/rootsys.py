"""Classical root systems over exact integer coordinates.

Families A/B/C/D in their standard orthogonal embeddings: A_n lives in the
zero-sum hyperplane of Z^(n+1); B_n, C_n and D_n live in Z^n.  Every root
coordinate, coroot, inner product and simple-root coefficient is an integer,
so everything in this module is exact Python int arithmetic; floating point
only enters in the matrix layer built on top.

Conventions:
  * simple roots are ordered alpha_1 .. alpha_r in chain order, with the
    short (B) / long (C) / fork (D) root last;
  * positive roots are listed by increasing height, ties broken by
    descending lexicographic order on coordinates;
  * cartan[i][j] = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

FAMILIES = ("A", "B", "C", "D")

MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

#: greek aliases for simple roots, used in human-readable summand labels
GREEK = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")

Coords = tuple  # tuple[int, ...]


class UnsupportedAlgebraError(ValueError):
    """Family/rank combination outside the classical tables."""


def _algebra_key(family: str, rank: int) -> tuple:
    """(family, rank) as every cache of an algebra keys it: a classical
    family, a string read upper-case, and an int rank.  Any other family is
    refused, and so is any other rank, a bool or 2.0: a cache would serve it
    the entry of 1 or 2, and a fresh build would fail in `range`."""
    family = family.upper() if isinstance(family, str) else family
    if not isinstance(family, str) or family not in FAMILIES:
        raise UnsupportedAlgebraError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise UnsupportedAlgebraError(f"rank must be an int, got {rank!r}")
    return family, rank


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def _ints(seq) -> Coords:
    """Integer coordinates; a non-integral entry is rejected, never rounded."""
    seq = tuple(seq)
    coords = tuple(int(x) for x in seq)
    if coords != seq:
        raise ValueError(f"root coordinates must be integers, got {seq}")
    return coords


class _Frozen:
    """Base of the read-only records: each `__init__` writes its fields once,
    straight into the instance dict, and assigning one afterwards raises.
    A `functools.cached_property` writes there too, so it still works."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """A read-only record that compares, hashes and prints as its fields: the
    entries of its instance dict, in the order `__init__` writes them."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


class Root(_Value):
    """A root as an exact coordinate vector with length/sign bookkeeping."""

    def __init__(self, coords: Coords, length_class: str = "long", sign: str = "positive"):
        if not any(coords):
            raise ValueError("root coordinates must be nonzero")
        # length_class is "long" | "short", sign "positive" | "negative"
        self.__dict__.update(coords=coords, length_class=length_class, sign=sign)

    @property
    def norm2(self) -> int:
        return dot(self.coords, self.coords)

    def negated(self) -> "Root":
        sign = "negative" if self.sign == "positive" else "positive"
        return Root(tuple(-c for c in self.coords), self.length_class, sign)

    def dot(self, other: "Root") -> int:
        return dot(self.coords, other.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def coroot(root: Root | Sequence[int]) -> Coords:
    """Coroot 2*alpha/(alpha, alpha) in the same coordinate system."""
    coords = root.coords if isinstance(root, Root) else _ints(root)
    n2 = dot(coords, coords)
    if n2 == 0:
        raise ValueError("root coordinates must be nonzero")
    if any(2 * c % n2 for c in coords):
        raise ValueError(f"coroot of {coords} is not integral")
    return tuple(2 * c // n2 for c in coords)


def _vec(dim: int, *entries: tuple[int, int]) -> Coords:
    """The vector with the given (index, value) entries and zeros elsewhere."""
    v = [0] * dim
    for i, c in entries:
        v[i] = c
    return tuple(v)


def _simple_root_coords(family: str, rank: int) -> list[Coords]:
    if family == "A":
        return [_vec(rank + 1, (i, 1), (i + 1, -1)) for i in range(rank)]
    chain = [_vec(rank, (i, 1), (i + 1, -1)) for i in range(rank - 1)]
    if family == "B":
        last = _vec(rank, (rank - 1, 1))
    elif family == "C":
        last = _vec(rank, (rank - 1, 2))
    else:       # D: `build_root_system` has checked the family
        last = _vec(rank, (rank - 2, 1), (rank - 1, 1))
    return chain + [last]


def _positive_root_coords(family: str, rank: int) -> list[Coords]:
    if family == "A":
        dim = rank + 1
        return [_vec(dim, (i, 1), (j, -1)) for i in range(dim) for j in range(i + 1, dim)]
    out = [_vec(rank, (i, 1), (j, sj))
           for i in range(rank) for j in range(i + 1, rank) for sj in (-1, 1)]
    if family == "B":
        out += [_vec(rank, (i, 1)) for i in range(rank)]
    elif family == "C":
        out += [_vec(rank, (i, 2)) for i in range(rank)]
    return out


def _length_class(family: str, norm2: int) -> str:
    if family in ("A", "D"):
        return "long"
    if family == "B":
        return "long" if norm2 == 2 else "short"
    return "long" if norm2 == 4 else "short"


def _expand(positive: Iterable[Coords], simples: Sequence[Coords]) -> dict:
    """Coefficients of a closed set of positive roots over its simple roots.

    Every positive root that is not simple is a lower positive root plus one
    simple root, so walking up from the simple roots one simple root at a time
    reaches every root with exact integer coefficients.
    """
    targets = set(positive)
    coeffs = {s: _vec(len(simples), (k, 1)) for k, s in enumerate(simples)}
    frontier = list(coeffs)
    while frontier:
        lower, frontier = frontier, []
        for b in lower:
            for k, s in enumerate(simples):
                up = tuple(x + y for x, y in zip(b, s))
                if up in targets and up not in coeffs:
                    coeffs[up] = tuple(c + (i == k) for i, c in enumerate(coeffs[b]))
                    frontier.append(up)
    missing = targets - coeffs.keys()
    if missing:
        raise RuntimeError(f"positive roots {sorted(missing)} are not non-negative integer "
                           f"combinations of the simple roots {list(simples)}")
    return coeffs


class RootSystem(_Frozen):
    """A classical simple root system with all derived combinatorial data."""

    def __init__(self, family: str, rank: int, dim: int, simple_roots: tuple[Root, ...],
                 positive_roots: tuple[Root, ...], cartan_matrix: tuple[tuple[int, ...], ...],
                 highest_root: Root, dynkin_labels: tuple[int, ...], _root_set: frozenset,
                 _coeffs: dict):
        self.__dict__.update(
            family=family, rank=rank, dim=dim, simple_roots=simple_roots,
            positive_roots=positive_roots, cartan_matrix=cartan_matrix,
            highest_root=highest_root, dynkin_labels=dynkin_labels, _root_set=_root_set,
            _coeffs=_coeffs)

    def is_root(self, coords: Sequence[int]) -> bool:
        return tuple(coords) in self._root_set

    def root(self, coords: Sequence[int]) -> Root:
        coords = _ints(coords)
        if coords not in self._root_set:
            raise KeyError(f"{coords} is not a root of {self.family}{self.rank}")
        positive = coords in self._coeffs
        base = coords if positive else tuple(-c for c in coords)
        n2 = dot(base, base)
        r = Root(base, _length_class(self.family, n2), "positive")
        return r if positive else r.negated()

    def coefficients(self, root: Root) -> Coords:
        """Expansion of a root over the simple roots (exact)."""
        key = root.coords
        if key in self._coeffs:
            return self._coeffs[key]
        neg = tuple(-c for c in key)
        if neg in self._coeffs:
            return tuple(-c for c in self._coeffs[neg])
        raise KeyError(f"{key} is not a root of {self.family}{self.rank}")

    def height(self, root: Root) -> int:
        return sum(self.coefficients(root))

    def root_string_down(self, a: Root, b: Root) -> int:
        """Largest q >= 0 such that a - q*b is still a root."""
        q = 0
        cur = tuple(x - y for x, y in zip(a.coords, b.coords))
        while cur in self._root_set:
            q += 1
            cur = tuple(x - y for x, y in zip(cur, b.coords))
        return q

    def root_label(self, root: Root) -> str:
        """Greek name for simple roots, Dynkin-coefficient digits otherwise."""
        coeffs = self.coefficients(root)
        nz = [(i, c) for i, c in enumerate(coeffs) if c != 0]
        if len(nz) == 1 and nz[0][1] == 1 and nz[0][0] < len(GREEK):
            return GREEK[nz[0][0]]
        return "".join(str(c) for c in coeffs)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "simple_roots": [[str(c) for c in r.coords] for r in self.simple_roots],
            "positive_roots": [[str(c) for c in r.coords] for r in self.positive_roots],
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
            "highest_root": [str(c) for c in self.highest_root.coords],
            "dynkin_labels": list(self.dynkin_labels),
        }


def build_root_system(family: str, rank: int) -> RootSystem:
    family, rank = _algebra_key(family, rank)
    if rank < MIN_RANK[family]:
        raise UnsupportedAlgebraError(
            f"{family}{rank} is not supported (need rank >= {MIN_RANK[family]} for family {family})")

    simples_c = _simple_root_coords(family, rank)
    positives_c = _positive_root_coords(family, rank)
    root_set = frozenset(positives_c) | frozenset(tuple(-c for c in p) for p in positives_c)

    coeffs = _expand(positives_c, simples_c)

    def mkroot(c):
        return Root(c, _length_class(family, dot(c, c)), "positive")

    positives = sorted(
        (mkroot(c) for c in positives_c),
        key=lambda r: (sum(coeffs[r.coords]), tuple(-x for x in r.coords)))
    simples = tuple(mkroot(c) for c in simples_c)

    cartan = tuple(
        tuple(2 * a.dot(b) // b.norm2 for b in simples)
        for a in simples)

    heights = [sum(coeffs[r.coords]) for r in positives]
    hmax = max(heights)
    top = [r for r, h in zip(positives, heights) if h == hmax]
    if len(top) != 1:
        raise RuntimeError(f"highest root of {family}{rank} is not unique")
    highest = top[0]
    labels = coeffs[highest.coords]

    return RootSystem(
        family=family, rank=rank, dim=len(simples_c[0]),
        simple_roots=simples, positive_roots=tuple(positives),
        cartan_matrix=cartan, highest_root=highest, dynkin_labels=labels,
        _root_set=root_set, _coeffs=coeffs)


# ---------------------------------------------------------------------------
# the iterated highest-root / centralizer chain

def _classify_shape(positive: Sequence[Root], rank: int) -> tuple[str, int]:
    """Family/rank of an irreducible subsystem from absolute root norms."""
    norms = {r.norm2 for r in positive}
    count = len(positive)
    if len(norms) == 1:
        if count == rank * (rank + 1) // 2:
            return "A", rank
        if count == rank * (rank - 1):
            return "D", rank
        raise RuntimeError(f"cannot classify simply-laced subsystem: rank {rank}, {count} roots")
    if min(norms) == 1:
        fam = "B"
    elif max(norms) == 4:
        fam = "C"
    else:
        raise RuntimeError(f"cannot classify subsystem with norms {norms}")
    if count != rank * rank:
        raise RuntimeError(f"{fam}-type subsystem of rank {rank} should have {rank * rank} positive roots, got {count}")
    return fam, rank


def _diagram_children(rs: RootSystem, positive: Sequence[Root], simple: Sequence[Root],
                      theta: Root) -> tuple:
    """The irreducible summands of a node's roots orthogonal to its highest
    root theta, read off the extended Dynkin diagram, each as the pair
    (positive roots, simple roots), by descending highest root.

    The node's simple roots are simple roots of the whole system and theta
    is dominant, so (alpha, theta) = sum_i c_i (alpha_i, theta) has no
    negative term: a positive root is orthogonal to theta exactly when its
    support avoids the neighbours of -theta.  A root's support is connected,
    so each summand is one component of the diagram on the simple roots
    orthogonal to theta (O(rank^2)), holding the node's positive roots
    supported on it (O(|positive roots| * rank)).
    """
    index = {s.coords: i for i, s in enumerate(rs.simple_roots)}
    kept = {index[s.coords] for s in simple if s.dot(theta) == 0}
    out = []
    while kept:
        component, frontier = set(), [kept.pop()]
        while frontier:
            i = frontier.pop()
            component.add(i)
            linked = {j for j in kept if rs.cartan_matrix[i][j]}
            kept -= linked
            frontier.extend(linked)
        # a summand's heights are the parent's, so the node's order is kept
        members = tuple(r for r in positive
                        if all(not c or k in component for k, c in enumerate(rs._coeffs[r.coords])))
        simples = sorted((rs.simple_roots[i] for i in component),
                         key=lambda r: tuple(-c for c in r.coords))
        out.append((members, tuple(simples)))
    out.sort(key=lambda pair: tuple(-c for c in pair[0][-1].coords))
    return tuple(out)


class ChainNode(_Frozen):
    """One step of the iterated construction: an irreducible closed subsystem
    in the coordinates of the whole root system, its highest root theta, and
    the nodes of the summands of its roots orthogonal to theta."""

    def __init__(self, positive_roots: tuple[Root, ...], simple_roots: tuple[Root, ...],
                 family: str, rank: int, label: str, theta: Root, level: int,
                 children: tuple[ChainNode, ...]):
        # positive_roots run by increasing height, theta last
        self.__dict__.update(
            positive_roots=positive_roots, simple_roots=simple_roots, family=family,
            rank=rank, label=label, theta=theta, level=level, children=children)

    @property
    def dimension(self) -> int:
        """Dimension of the subalgebra the node's roots span."""
        return 2 * len(self.positive_roots) + self.rank

    @property
    def abelian_dim(self) -> int:
        """Commuting Cartan directions of this node not used by its children."""
        return self.rank - 1 - sum(c.rank for c in self.children)


def _grow_chain(rs: RootSystem, positive: tuple, simple: tuple, family: str, rank: int,
                label: str, level: int) -> ChainNode:
    """The chain below one node: its children are the summands of the
    extended diagram, checked by count against the node's positive roots
    orthogonal to theta, each classified by its root norms and labelled by
    its highest root."""
    if level > rs.rank + 1:
        raise RuntimeError("highest-root chain failed to terminate")
    theta = positive[-1]
    summands = _diagram_children(rs, positive, simple, theta)
    orthogonal = sum(1 for r in positive if r.dot(theta) == 0)
    held = sum(len(members) for members, _ in summands)
    if orthogonal != held:
        raise RuntimeError(
            f"chain node {label}: {orthogonal} positive roots are orthogonal to theta, "
            f"the extended diagram's summands hold {held}")
    children = []
    for members, simples in summands:
        fam, rk = _classify_shape(members, len(simples))
        children.append(_grow_chain(rs, members, simples, fam, rk,
                                    f"{fam}{rk}:{rs.root_label(members[-1])}", level + 1))
    return ChainNode(positive_roots=positive, simple_roots=simple, family=family, rank=rank,
                     label=label, theta=theta, level=level, children=tuple(children))


def basic_root_chain(rs: RootSystem) -> tuple[tuple[ChainNode, ...], ...]:
    """Levels of the iterated highest-root construction, outermost first.

    Level 0 holds the full system; level k+1 holds the irreducible summands
    of the roots orthogonal to each level-k highest root, read off the
    extended Dynkin diagram: the components of the level-k node's simple
    roots orthogonal to its highest root.  The chain stops when only
    commuting directions are left.
    """
    top = _grow_chain(rs, rs.positive_roots, rs.simple_roots, rs.family, rs.rank,
                      f"{rs.family}{rs.rank}", 0)
    levels = []
    frontier = (top,)
    while frontier:
        levels.append(frontier)
        frontier = tuple(c for node in frontier for c in node.children)
    return tuple(levels)


def root_chain(family: str, rank: int) -> tuple:
    """(root system, basic-root chain) of one simple algebra, built once per
    (family, rank) and process; both are immutable, so callers share them.
    The key is checked before the cache, so "a" finds the entry of "A"."""
    return _root_chain(*_algebra_key(family, rank))


@functools.lru_cache(maxsize=64)
def _root_chain(family: str, rank: int) -> tuple:
    rs = build_root_system(family, rank)
    return rs, basic_root_chain(rs)


root_chain.cache_info, root_chain.cache_clear = _root_chain.cache_info, _root_chain.cache_clear


def chain_nodes(levels) -> tuple[ChainNode, ...]:
    return tuple(node for level in levels for node in level)
