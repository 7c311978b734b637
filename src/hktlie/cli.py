"""Command-line front end: root-system data, certification, classification.

Exit codes: 0 certified / success, 1 residual failure, 2 usage or parse
error, 3 not admissible (wrong u(1) padding), 141 standard output closed
early (a broken pipe; the code a shell reports after SIGPIPE).

Space grammar: FACTORS ["/" QUOTIENT] where FACTORS is a list of
family-rank tokens and u(1) factors joined by "x" (e.g. "A2", "A3xU1^1",
"B3xU1^2"), and QUOTIENT is a comma-separated list of centralizer-summand
labels plus an optional "u1" marker for the Abelian part (e.g.
"B3xU1^2/A1:gamma", "A3xU1^1/A1:beta,u1").  Without summands, "u1" is the
Abelian part at level 1 and "u1@L" the one at level L (e.g. "A5xU1^1/u1@2").
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING

from .bounds import DEFAULT_FD_STEP, DEFAULT_TOL, _bounded, _check_fd_step, _check_tol

# Each command imports the layers it runs, so `--help`, a usage error and
# `roots` start without the ones they never use; this import serves the
# annotations alone.
if TYPE_CHECKING:
    from . import spaces

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_ADMISSIBLE = 3
EXIT_BROKEN_PIPE = 141

MAX_RANK = {"A": 8, "B": 4, "C": 4, "D": 5}


class SpecParseError(ValueError):
    pass


def _ascii(convert):
    """`convert` (int or float) on ASCII text alone, as an argparse type:
    int() and float() also read any Unicode digit, an Arabic-Indic three
    or a fullwidth one."""
    def parse(text: str):
        if not text.isascii():
            raise ValueError(text)
        return convert(text)

    parse.__name__ = convert.__name__       # argparse's "invalid int value: ..."
    return parse


# ---------------------------------------------------------------------------
# canonical JSON: sorted keys, 17 significant digits, byte-stable round trips

def _quote(text: str) -> str:
    """`text` as a JSON string, as json.dumps writes it with ensure_ascii:
    printable ASCII without a quote or backslash as it is, any other text by
    json.dumps itself, imported only then."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json
    return json.dumps(text)


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return '"%s"' % value
        return "%.17g" % value
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_quote(str(k))}:{_fmt(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(obj) -> str:
    return _fmt(obj)


# ---------------------------------------------------------------------------
# spec-string parsing

# re.ASCII: `\d` would match any Unicode digit, and int() reads them all
_FACTOR_RE = re.compile(r"^([A-Da-d])(\d+)$", re.ASCII)
_U1_RE = re.compile(r"^[Uu]1(?:\^(\d+))?$", re.ASCII)
#: the Abelian item of a quotient: "u1" (level 1 or the summands' level) or "u1@L"
_ABELIAN_RE = re.compile(r"^[Uu]1(?:@(\d+))?$", re.ASCII)


def parse_space_string(text: str) -> spaces.SpaceSpec:
    """The grammar and the rank caps, before any chain is built; every rule
    of a space is `spaces.space_spec`'s."""
    text = text.strip()
    if not text:
        raise SpecParseError("empty space string")
    if text.count("/") > 1:
        raise SpecParseError("at most one quotient part is allowed")
    head, slash, quot = text.partition("/")
    if slash and not quot.strip():
        raise SpecParseError("empty quotient after '/'")

    factors = []
    u1 = 0
    for token in head.split("x"):
        token = token.strip()
        if not token:
            raise SpecParseError(f"empty factor in {head!r}")
        m = _U1_RE.match(token)
        if m:
            u1 += int(m.group(1) or 1)
            continue
        m = _FACTOR_RE.match(token)
        if not m:
            raise SpecParseError(
                f"cannot parse factor {token!r}; expected e.g. A2, B3 or U1^2")
        factors.append((m.group(1).upper(), int(m.group(2))))
        _check_rank_range(*factors[-1])

    summands, abelian = [], []
    for item in quot.split(",") if quot else ():
        item = item.strip()
        if not item:
            raise SpecParseError("empty quotient item")
        ab = _ABELIAN_RE.match(item)
        if ab:
            abelian.append(int(ab.group(1)) if ab.group(1) else None)
        else:
            summands.append(item)
    from . import spaces

    try:
        return spaces.space_spec(factors, u1, summands, abelian)
    except ValueError as exc:       # UnsupportedAlgebraError included
        raise SpecParseError(str(exc)) from None


def _check_rank_range(family: str, rank: int) -> None:
    cap = MAX_RANK.get(family, rank)    # the library refuses an unknown family
    if rank > cap:
        raise SpecParseError(
            f"rank {rank} for family {family} is outside the supported range (<= {cap})")


# ---------------------------------------------------------------------------
# commands

def cmd_roots(args) -> int:
    m = _FACTOR_RE.match(args.system.strip())
    if not m:
        raise SpecParseError(f"cannot parse root system {args.system!r}; expected e.g. B3")
    family, rank = m.group(1).upper(), int(m.group(2))
    _check_rank_range(family, rank)
    from .rootsys import root_chain

    rs, levels = root_chain(family, rank)
    [top] = levels[0]
    # the extended-diagram surgery is the chain's first step
    summands = [f"{c.family}{c.rank}" for c in top.children]
    if args.json:
        doc = rs.to_json_dict()
        doc["surgery"] = {"summands": summands, "abelian_rank": top.abelian_dim}
        print(canonical_json(doc))
        return EXIT_OK
    print(f"root system {family}{rank}")
    print(f"  simple roots ({rank}):")
    for i, r in enumerate(rs.simple_roots):
        print(f"    {rs.root_label(r):<8} {r}")
    print(f"  positive roots ({len(rs.positive_roots)}):")
    for r in rs.positive_roots:
        print(f"    {r}   [{r.length_class}]")
    print("  cartan matrix:")
    for row in rs.cartan_matrix:
        print("    " + " ".join(f"{v:3d}" for v in row))
    print(f"  highest root: {rs.highest_root} = "
          + " + ".join(f"{c}*{rs.root_label(s)}" for c, s in zip(rs.dynkin_labels, rs.simple_roots) if c))
    print(f"  surgery of the extended diagram: {' + '.join(summands) or 'none'}"
          f" (+ {top.abelian_dim} abelian direction(s))")
    return EXIT_OK


def _verdict_exit(report: spaces.VerificationReport) -> int:
    return {"certified": EXIT_OK, "failed": EXIT_FAILED,
            "not-admissible": EXIT_NOT_ADMISSIBLE}[report.verdict]


def _verdict_text(verdict: str, message: str) -> str:
    """A failed verdict with the check that failed it."""
    return f"{verdict} ({message})" if verdict == "failed" and message else verdict


#: the text labels of the checks of the triple as a whole, in printing order
_LABELS = {"quaternion": "quaternion residual", "k_mismatch": "K-route mismatch",
           "invariance_leak": "subspace leak", "coset_closure": "coset closure (reported)"}


def _print_report(report: spaces.VerificationReport, as_json: bool) -> None:
    if as_json:
        print(canonical_json(report.to_json_dict()))
        return
    print(f"space: {report.name}")
    if report.verdict == "not-admissible":
        print(f"verdict: not-admissible ({report.message})")
        return
    print(f"dimension: {report.dimension}")
    print(f"u(1) padding: {report.padding_required}")
    print("basic roots: " + "; ".join(f"{n.label} theta={n.theta} (level {n.level})"
                                      for n in report.nodes))
    print("automorphisms: " + "; ".join(f"{a.kind}-kind at {a.root} (level {a.level})"
                                        for a in report.automorphisms))
    for name, checks in sorted(report.residuals.items()):
        print(f"residuals[{name}]: " + " ".join(
            f"{check}={'n/a' if value is None else f'{value:.3e}'}"
            for check, value in checks.items()))
    for check, label in _LABELS.items():
        print(f"{label}: {report.checks[check]:.3e}")
    print(f"verdict: {_verdict_text(report.verdict, report.message)}")


def cmd_verify(args) -> int:
    spec = parse_space_string(args.space)
    from . import spaces

    fd_step = DEFAULT_FD_STEP if args.fd_step is None else args.fd_step
    report = spaces.build_coset_triple(spec, tol=args.tol, fd_step=fd_step)
    _print_report(report, args.json)
    return _verdict_exit(report)


def cmd_classify(args) -> int:
    family = args.family.upper()
    _check_rank_range(family, args.max_rank)
    from . import spaces

    rows = spaces.classify_family(family, args.max_rank)
    if args.json:
        print(canonical_json([vars(r) for r in rows]))
        return EXIT_OK
    print(f"{'group':<10} {'rank':>4} {'dim':>5} {'u(1) padding':>13} {'total dim':>10}")
    for r in rows:
        print(f"{r.name:<10} {r.rank:>4} {r.group_dim:>5} {r.padding:>13} {r.total_dim:>10}")
    return EXIT_OK


def _spec_to_string(spec: spaces.SpaceSpec) -> str:
    head = "x".join(f"{f}{r}" for f, r in spec.factors)
    if spec.u1_count:
        head += f"xU1^{spec.u1_count}"
    if spec.selections:
        sel = spec.selections[0]
        abelian = "u1" if sel.summands or sel.level == 1 else f"u1@{sel.level}"
        items = list(sel.summands) + ([abelian] if sel.include_abelian else [])
        head += "/" + ",".join(items)
    return head


def cmd_catalog(args) -> int:
    family = args.family.upper()
    _check_rank_range(family, args.rank)
    from . import spaces

    specs = spaces.enumerate_quotients((family, args.rank), max_level=args.max_level)
    if not args.verify:
        if args.json:
            print(canonical_json([{"space": sp.name, "string": _spec_to_string(sp),
                                   "padding": sp.u1_count} for sp in specs]))
        else:
            for sp in specs:
                print(f"{sp.name:<44} [{_spec_to_string(sp)}]")
        return EXIT_OK
    # the Nijenhuis check runs on the group-manifold rows only when --fd-step is given
    reports = [spaces.build_coset_triple(sp, tol=args.tol, fd_step=args.fd_step)
               for sp in specs]
    if args.json:
        print(canonical_json([r.to_json_dict() for r in reports]))
    else:
        for sp, rep in zip(specs, reports):
            # the worst bounded value that ran; inf when not admissible
            worst = max((v for _, v, _ in _bounded(rep.checks.items(), rep.tolerance)),
                        default=float("inf"))
            print(f"{rep.name:<44} [{_spec_to_string(sp)}] dim={rep.dimension:<3} "
                  f"{_verdict_text(rep.verdict, rep.message)} (max residual {worst:.2e})")
    return EXIT_OK if all(r.verdict == "certified" for r in reports) else EXIT_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hkt",
        description="Construct quaternion triples of complex structures on compact "
                    "group manifolds and homogeneous spaces, and certify them numerically.")
    p.add_argument("--tol", type=_ascii(float), default=None,
                   help=f"residual tolerance (default {DEFAULT_TOL:g}; env HKT_TOL)")
    p.add_argument("--fd-step", type=_ascii(float), default=None,
                   help="finite-difference step for the Nijenhuis cross-check (verify: "
                        f"default {DEFAULT_FD_STEP:g}; catalog --verify: off unless given)")
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("roots", help="print a root system and its diagram surgery")
    pr.add_argument("system", help="family and rank, e.g. B3")
    pr.set_defaults(func=cmd_roots)

    pv = sub.add_parser("verify", help="certify one space, e.g. A2 or B3xU1^2/A1:gamma")
    pv.add_argument("space")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify", help="padding table for one family")
    pc.add_argument("family", help="A, B, C or D")
    pc.add_argument("max_rank", type=_ascii(int))
    pc.set_defaults(func=cmd_classify)

    pk = sub.add_parser("catalog", help="enumerate (and optionally verify) quotients")
    pk.add_argument("family")
    pk.add_argument("rank", type=_ascii(int))
    pk.add_argument("max_level", type=_ascii(int), nargs="?", default=8)
    pk.add_argument("--verify", action="store_true")
    pk.set_defaults(func=cmd_catalog)
    return p


def main(argv=None) -> int:
    # one BLAS thread unless the user chose otherwise: the kernels are small,
    # and by default OpenBLAS starts one thread per CPU at `import numpy`
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is None:
            try:
                args.tol = _ascii(float)(os.environ.get("HKT_TOL", str(DEFAULT_TOL)))
            except ValueError:
                raise SpecParseError(
                    f"HKT_TOL takes a number, got {os.environ['HKT_TOL']!r}") from None
        _check_tol(args.tol)
        if args.fd_step is not None:
            _check_fd_step(args.fd_step)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:       # SpecParseError and UnsupportedAlgebraError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
