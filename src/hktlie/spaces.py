"""Admissibility classification, quotient enumeration and certification.

A compact group manifold carries a quaternion triple of integrable complex
structures when its Cartan torus is exactly twice as large as the set of
basic roots of the iterated highest-root construction; u(1) factors are
appended to make up the difference.  Quotients by centralizer summands
(with or without their Abelian parts) inherit the construction: the
automorphisms attached to quotiented summands are dropped and the
structures are restricted to the coset directions.
"""

from __future__ import annotations

import itertools

from .bounds import (BOUNDS, DEFAULT_TOL, RECORDED, STRUCTURE_CHECKS, PairingError, _check_fd_step,
                     _check_tol, _check_u1_count)
from .rootsys import (
    ChainNode,
    _Value,
    _algebra_key,
    chain_nodes,
    root_chain,
)

GROUP_NAMES = {"A": lambda r: f"SU({r + 1})", "B": lambda r: f"Spin({2 * r + 1})",
               "C": lambda r: f"Sp({r})", "D": lambda r: f"Spin({2 * r})"}


def group_name(family: str, rank: int) -> str:
    return GROUP_NAMES[family](rank)


class LevelSelection(_Value):
    """Quotient choice at one chain level: summands, by node label (e.g.
    ("A1:gamma",)), and the Abelian part."""

    def __init__(self, level: int, summands: tuple, include_abelian: bool = False):
        self.__dict__.update(level=level, summands=summands, include_abelian=include_abelian)


class SpaceSpec(_Value):
    """A (possibly quotiented) product of simple factors and u(1) circles;
    `factors` holds the (family, rank) pairs, a string family read
    upper-case; `_resolve_spec` refuses any other."""

    def __init__(self, factors: tuple, u1_count: int, selections: tuple = ()):
        self.__dict__.update(factors=tuple((f.upper() if isinstance(f, str) else f, r)
                                           for f, r in factors),
                             u1_count=u1_count, selections=selections)

    @property
    def name(self) -> str:
        base = " x ".join(group_name(f, r) for f, r in self.factors)
        quo = []
        for sel in self.selections:
            quo += list(sel.summands)
            if sel.include_abelian:
                quo.append(f"U(1)-part@L{sel.level}")
        if quo:
            base = f"{base} / ({' x '.join(quo)})"
        if self.u1_count == 1:
            base += " x U(1)"
        elif self.u1_count > 1:
            base += f" x [U(1)]^{self.u1_count}"
        return base


def required_padding(factors) -> int:
    """u(1) factors needed so the Cartan space pairs off: 2 n_b - rank, summed
    over the factors; each one is the padding of its empty quotient."""
    return sum(_quotient_padding(root_chain(f, r)[1], (), ())
               for f, r in factors)


class ClassRow(_Value):
    """One row of `classify_family`'s padding table."""

    def __init__(self, family: str, rank: int, name: str, group_dim: int, padding: int,
                 total_dim: int):
        self.__dict__.update(family=family, rank=rank, name=name, group_dim=group_dim,
                             padding=padding, total_dim=total_dim)


def classify_family(family: str, max_rank: int) -> list:
    """Padding table for one classical family up to max_rank.

    Rank-1 B and C entries are the su(2) coincidences Spin(3) = Sp(1) = SU(2)
    and are classified through A1.
    """
    family, max_rank = _algebra_key(family, max_rank)
    start = 3 if family == "D" else 1
    if max_rank < start:
        raise ValueError(f"max_rank {max_rank} is below the first classified rank "
                         f"of family {family} ({start})")
    rows = []
    for rank in range(start, max_rank + 1):
        algebra = ("A", 1) if family in ("B", "C") and rank == 1 else (family, rank)
        dim = root_chain(*algebra)[1][0][0].dimension
        p = required_padding([algebra])
        rows.append(ClassRow(family=family, rank=rank, name=group_name(family, rank),
                             group_dim=dim, padding=p, total_dim=dim + p))
    return rows


def _subtree(node: ChainNode):
    yield node
    for child in node.children:
        yield from _subtree(child)


def _quotient_padding(levels, tops, abelian_levels) -> int:
    """u(1) padding of a quotient: twice the basic roots left after removing
    the chain subtrees under `tops`, minus the Cartan directions left after
    also removing the Abelian parts of the nodes at `abelian_levels`."""
    removed = sum(1 for t in tops for _ in _subtree(t))
    removed_csa = sum(t.rank for t in tops)
    removed_csa += sum(n.abelian_dim for lv in abelian_levels for n in levels[lv])
    rank = levels[0][0].rank
    return 2 * (len(chain_nodes(levels)) - removed) - (rank - removed_csa)


def enumerate_quotients(factor, max_level: int = 8) -> list:
    """All quotient specs of one simple factor up to the given chain level.

    Level 0 is the padded group manifold itself; at level k, each subset of
    the level-k centralizer summands, with or without the centralizer's
    Abelian part, that the quotient rules of `_resolve_selections` accept,
    re-padded so the remaining Cartan directions pair off with the remaining
    basic roots; a selection that would need negative padding is left out.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be non-negative, got {max_level}")
    family, rank = factor
    _, levels = root_chain(family, rank)
    group_dim = levels[0][0].dimension

    specs = [SpaceSpec(((family, rank),), _quotient_padding(levels, (), ()))]
    for k in range(1, min(max_level, len(levels)) + 1):
        summands = levels[k] if k < len(levels) else ()
        for count in range(len(summands) + 1):
            for subset in itertools.combinations(summands, count):
                for with_ab in (False, True):
                    sel = LevelSelection(level=k, summands=tuple(n.label for n in subset),
                                         include_abelian=with_ab)
                    try:
                        tops, abelian_levels = _resolve_selections(levels, (sel,))
                    except ValueError:
                        continue
                    padding = _quotient_padding(levels, tops, abelian_levels)
                    if padding < 0:
                        continue
                    spec = SpaceSpec(((family, rank),), padding, (sel,))
                    dim = (group_dim + padding - sum(t.dimension for t in tops)
                           - sum(n.abelian_dim for lv in abelian_levels for n in levels[lv]))
                    if dim % 4:
                        raise RuntimeError(f"tangent dimension {dim} of {spec.name} is not 4k")
                    specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# verification

class VerificationReport:
    """The certificate of one space: the TripleResult of each simple factor,
    in spec order, and none for a space that is not admissible, whose
    `message` says why.  Every other field reads `triples`."""

    def __init__(self, spec: SpaceSpec, padding_required: int, tolerance: float,
                 triples: tuple = (), message: str = ""):
        self.spec = spec
        self.padding_required = padding_required
        self.tolerance = tolerance
        self.triples = triples
        self._message = message

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def dimension(self) -> int:
        return sum(t.dimension for t in self.triples)

    @property
    def nodes(self) -> tuple:
        return tuple(n for t in self.triples for n in t.nodes)

    @property
    def automorphisms(self) -> tuple:
        return tuple(a for t in self.triples for a in t.automorphisms)

    @property
    def checks(self) -> dict:
        """TripleResult.checks, the key-wise worst over the factors; a check
        that no factor ran stays None."""
        keys = self.triples[0].checks if self.triples else ()
        return {key: max((t.checks[key] for t in self.triples if t.checks[key] is not None),
                         default=None) for key in keys}

    @property
    def verdict(self) -> str:
        if not self.triples:
            return "not-admissible"
        return "certified" if all(t.certified for t in self.triples) else "failed"

    @property
    def message(self) -> str:
        return self._message or "; ".join(t.message for t in self.triples if t.message)

    @property
    def residuals(self) -> dict:
        """The checks of each structure, {"J": {"snap": ..., ...}, ...}."""
        nested = {}
        for key, value in self.checks.items():
            structure, _, check = key.rpartition(".")
            if structure:
                nested.setdefault(structure, {})[check] = value
        return nested

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "factors": [[f, r] for f, r in self.spec.factors],
            "u1_count": self.spec.u1_count,
            "quotient": [
                {"level": s.level, "summands": list(s.summands),
                 "include_abelian": s.include_abelian}
                for s in self.spec.selections],
            "dimension": self.dimension,
            "padding_required": self.padding_required,
            "basic_roots": [
                {"label": n.label, "coords": [str(c) for c in n.theta.coords], "level": n.level}
                for n in self.nodes],
            "automorphisms": [
                {"root": [str(c) for c in a.root.coords], "kind": a.kind, "level": a.level}
                for a in self.automorphisms],
            "residuals": self.residuals,
            # the checks of the triple as a whole; "inf" is one not measured
            **{k: float("inf") for k in (*BOUNDS, *RECORDED) if k not in STRUCTURE_CHECKS},
            **{k: v for k, v in self.checks.items() if "." not in k},
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "message": self.message,
        }


def _summand(levels, label: str) -> ChainNode:
    """The chain node below the top named `label`, by full label ("A1:gamma")
    or by shape alone ("A1"); either must name one node of the whole chain."""
    nodes = chain_nodes(levels[1:])
    hits = [n for n in nodes if label in (n.label, n.label.split(":")[0])]
    if not hits:
        raise ValueError(f"unknown summand {label!r}; available: {[n.label for n in nodes]}, "
                         "or u1 / u1@L for the Abelian part")
    if len(hits) > 1:
        raise ValueError(f"summand {label!r} is ambiguous; use one of {[n.label for n in hits]}")
    return hits[0]


def _resolve_selections(levels, selections):
    """Map the label selections of a quotient to chain nodes; returns (removed
    tops, Abelian levels).  The only home of the quotient rules: one level,
    inside the chain; each label names one node of the chain, at that level;
    a selection removes something; an Abelian item needs an Abelian part; no
    two removed subtrees overlap."""
    if len(selections) > 1:
        raise ValueError(f"a quotient sits at one level; got {len(selections)} selections")
    tops = []
    abelian_levels = []
    for sel in selections:
        if not 1 <= sel.level <= len(levels):
            raise ValueError(f"no centralizer at level {sel.level}; {levels[0][0].label} "
                             f"has levels 1 to {len(levels)}")
        if not sel.summands and not sel.include_abelian:
            raise ValueError(f"the selection at level {sel.level} removes nothing")
        for label in sel.summands:
            node = _summand(levels, label)
            if node.level != sel.level:
                raise ValueError(
                    f"summand {node.label!r} sits at level {node.level}, not {sel.level}")
            tops.append(node)
        if sel.include_abelian:
            # without commuting Cartan directions one level up, the
            # "quotient" is the group manifold under another name
            parents = levels[sel.level - 1]
            if sum(n.abelian_dim for n in parents) == 0:
                raise ValueError(
                    f"no Abelian part at level {sel.level}: the centralizer at chain "
                    f"node(s) {', '.join(n.label for n in parents)} is semisimple")
            abelian_levels.append(sel.level - 1)
    seen = set()
    for t in tops:
        for n in _subtree(t):
            if id(n) in seen:
                raise ValueError("overlapping quotient selections")
            seen.add(id(n))
    return tops, abelian_levels


def space_spec(factors, u1_count: int, summands=(), abelian=()) -> SpaceSpec:
    """The SpaceSpec of `factors` and `u1_count` circles over the chain nodes
    named in `summands`, by full label or shape alone, and the Abelian parts
    at the levels in `abelian` (None: the summands' level, or 1), in full
    labels and one selection per level; raises `_resolve_spec`'s ValueError."""
    nodes, selections = [], ()
    if summands and len(factors) == 1:      # else `_resolve_spec` refuses the quotient
        _, levels = root_chain(*factors[0])
        nodes = [_summand(levels, label) for label in summands]
    if summands or abelian:
        at = sorted({n.level for n in nodes} | set(abelian) - {None}) or [1]
        selections = tuple(LevelSelection(lv, tuple(n.label for n in nodes if n.level == lv),
                                          None in abelian or lv in abelian) for lv in at)
    spec = SpaceSpec(factors, u1_count, selections)
    _resolve_spec(spec)
    return spec


def _resolve_spec(spec: SpaceSpec) -> list:
    """Each factor of `spec` with its quotient and padding, from the shared
    root chain of its algebra, as the tuple (family, rank, tops,
    abelian_levels, padding): the removed chain subtrees, the chain levels
    whose nodes lose their Abelian parts, and the u(1) factors this factor
    needs.  A group factor is the empty quotient."""
    if not spec.factors:
        raise ValueError("need at least one simple factor")
    if spec.selections and len(spec.factors) != 1:
        raise ValueError("quotient selections are only supported for a single simple factor")
    _check_u1_count(spec.u1_count)
    factors = []
    for family, rank in spec.factors:
        _, levels = root_chain(family, rank)
        tops, abelian_levels = _resolve_selections(levels, spec.selections)
        factors.append((family, rank, tuple(tops), tuple(abelian_levels),
                        _quotient_padding(levels, tops, abelian_levels)))
    return factors


def _verify_factor(factor: tuple, tol, fd_step):
    """Map the quotient of one factor resolved by `_resolve_spec` to
    generator indices and certify it."""
    # imported here: they load numpy, which only a certification needs
    from . import autom, liealg

    family, rank, tops, abelian_levels, padding = factor
    rep = liealg.build_matrix_rep(family, rank, padding)
    removed = [n for t in tops for n in _subtree(t)]
    removed_nodes = {(n.level, n.label) for n in removed}

    quotient = {rep.coroot_axis_index(n.theta) for n in removed}
    for top in tops:
        for root in top.positive_roots:
            ent = rep.root_entry(root)
            quotient.update((ent.re_index, ent.im_index))
    quotient.update(ax.index for ax in rep.csa_axes if ax.kind == "abelian" and (
        (ax.level, ax.node_label) in removed_nodes or ax.level in abelian_levels))

    return autom.build_quaternion_triple(rep, tol, fd_step, quotient=sorted(quotient))


def build_coset_triple(spec: SpaceSpec, tol: float = DEFAULT_TOL,
                       fd_step: float | None = None) -> VerificationReport:
    """Certify a (quotiented, padded) space; never raises on residual failure.

    Raises ValueError for a spec that breaks the quotient rules, for a `tol`
    outside (0, 1e-3], or for an `fd_step` outside [MIN_FD_STEP, MAX_FD_STEP]."""
    _check_tol(tol)
    if fd_step is not None:
        _check_fd_step(fd_step)
    factors = _resolve_spec(spec)
    # each simple factor takes exactly its own padding (no cross-factor pairing)
    needed = sum(padding for *_, padding in factors)
    if needed != spec.u1_count:
        return VerificationReport(
            spec, needed, tol,
            message=f"{spec.name}: requires {max(needed, 0)} u(1) factor(s), got {spec.u1_count}")
    try:
        triples = tuple(_verify_factor(factor, tol, fd_step) for factor in factors)
    except PairingError as exc:
        return VerificationReport(spec, needed, tol, message=f"{spec.name}: {exc}")
    return VerificationReport(spec, needed, tol, triples)
