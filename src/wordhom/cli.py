"""Command-line entry point.

Subcommands: homology (inj|full|gp), fill, gp-order, axioms, nakaoka,
derangements.  Output is JSON or text; identical configuration and seed give
byte-identical JSON.  Exit codes: 0 computed and all internal checks passed,
1 a mathematical verification failed, 2 invalid input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from dataclasses import dataclass

from .alphabet import Alphabet
from .chains import Chain
from .complexes import build_full, build_gp, build_injective
from .errors import (
    InternalInvariantBroken,
    InvalidInput,
    PreconditionViolated,
    ResourceLimit,
    VerificationFailed,
    WordhomError,
)
from .filler import fill_gp, fill_injective
from .genpos import InjectiveRelation, VectorRelation, check_axioms, gp_order
from .grouphom import DEFAULT_MAX_GENERATORS, nakaoka_table
from .homology import derangement_count, homology_table, rank_formula

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

DEFAULT_SEED = 42
# Longest --time-budget accepted, in seconds (about 31 years); the interval
# timer behind it overflows above about 9.2e9 seconds.
MAX_TIME_BUDGET = 1e9


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation settings shared by every subcommand."""

    format: str = "text"
    seed: int = DEFAULT_SEED
    max_basis: int | None = None
    max_generators: int = DEFAULT_MAX_GENERATORS
    time_budget: float | None = None


@contextlib.contextmanager
def _deadline(seconds):
    """Abort the main thread with ResourceLimit once the budget elapses."""
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        raise ResourceLimit("the time budget was exhausted", budget_seconds=seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _emit(payload: dict, config: RunConfig, text_lines) -> None:
    if config.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _relation_from_args(args):
    if args.variant == "inj":
        if args.m is None:
            raise InvalidInput("the injective relation needs --m")
        return InjectiveRelation(args.m)
    if args.p is None or args.dim is None:
        raise InvalidInput("the vector relation needs --p and --dim")
    return VectorRelation(args.p, args.dim)


def _parse_base(alphabet: Alphabet, raw: str):
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"--base is not valid JSON: {exc}") from exc
    return alphabet.word_from_json(obj)


# -- homology ----------------------------------------------------------------

def _groups_payload(groups: dict) -> list[dict]:
    return [
        {"degree": k, **groups[k].to_json()} for k in sorted(groups)
    ]


def _group_lines(groups: dict) -> list[str]:
    return [f"H_{k} = {groups[k]}" for k in sorted(groups)]


def _finish_homology(payload, groups, verified, problems, config) -> int:
    payload["groups"] = _groups_payload(groups)
    payload["verified"] = verified
    lines = _group_lines(groups)
    lines.append(
        f"verified: {verified['claim']}" if not problems else f"FAILED: {problems}"
    )
    _emit(payload, config, lines)
    return EXIT_OK if not problems else EXIT_VERIFICATION


def _cmd_homology(args, config: RunConfig) -> int:
    if args.variant == "inj":
        complex_rep = build_injective(args.m)
        groups = homology_table(complex_rep)
        expected_rank = derangement_count(args.m)
        problems = [
            f"H_{k} = {groups[k]} but triviality was claimed"
            for k in range(args.m)
            if not groups[k].is_trivial()
        ]
        top = groups[args.m]
        if top.free_rank != expected_rank or top.torsion:
            problems.append(f"H_{args.m} = {top} but Z^{expected_rank} was claimed")
        verified = {
            "claim": f"trivial below degree {args.m}, free of rank {expected_rank} there",
            "holds": not problems,
            "problems": problems,
        }
        payload = {"complex": {"kind": "injective", "m": args.m}}
        return _finish_homology(payload, groups, verified, problems, config)

    if args.variant == "full":
        complex_rep = build_full(args.m, args.max_degree, config.max_basis)
        groups = homology_table(complex_rep)
        problems = [
            f"H_{k} = {groups[k]} but the full word complex is acyclic"
            for k in sorted(groups)
            if not groups[k].is_trivial()
        ]
        verified = {
            "claim": f"trivial in degrees 0..{args.max_degree - 1}",
            "holds": not problems,
            "problems": problems,
        }
        payload = {
            "complex": {"kind": "full", "m": args.m, "max_degree": args.max_degree}
        }
        return _finish_homology(payload, groups, verified, problems, config)

    # general position: --p/--dim select vectors, --m alone selects letters
    if args.p is not None:
        if args.dim is None:
            raise InvalidInput("the vector relation needs both --p and --dim")
        relation = VectorRelation(args.p, args.dim)
    elif args.m is not None:
        relation = InjectiveRelation(args.m)
    else:
        raise InvalidInput("homology gp needs --p/--dim or --m")
    base = _parse_base(relation.alphabet, args.base)
    if not relation.gp(base, ()):
        raise PreconditionViolated(
            "the base word is not in general position",
            base=relation.alphabet.word_to_json(base),
        )
    order = gp_order(relation)
    bound = (order.lower_bound - len(base) - 1) // 2
    if args.max_degree == "auto":
        max_degree = None
    elif args.max_degree is None:
        max_degree = max(bound + 1, 1)
    else:
        max_degree = int(args.max_degree)
    complex_rep = build_gp(relation, base, max_degree, config.max_basis)
    groups = homology_table(complex_rep)
    problems = [
        f"H_{k} = {groups[k]} but triviality is claimed for degrees <= {bound}"
        for k in sorted(groups)
        if k <= bound and not groups[k].is_trivial()
    ]
    verified = {
        "claim": f"trivial for degrees <= {bound}",
        "order": order.to_json(relation.alphabet),
        "holds": not problems,
        "problems": problems,
    }
    payload = {
        "complex": {
            "kind": "general-position",
            "relation": relation.describe(),
            "base": relation.alphabet.word_to_json(base),
        }
    }
    return _finish_homology(payload, groups, verified, problems, config)


# -- fill ---------------------------------------------------------------------

def _cmd_fill(args, config: RunConfig) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InvalidInput(f"cannot read {args.input}: {exc}") from exc
    cycle = Chain.parse(raw)
    if cycle.alphabet.kind == "letters":
        certificate = fill_injective(cycle)
    else:
        relation = VectorRelation(cycle.alphabet.p, cycle.alphabet.dim)
        base = _parse_base(cycle.alphabet, args.base)
        certificate = fill_gp(cycle, relation, base)
    if args.check and not certificate.check():
        raise InternalInvariantBroken("certificate failed the recheck")
    payload = certificate.to_json()
    lines = [
        f"filled a degree-{cycle.degree} cycle with {len(certificate.filling)} terms",
        f"valid: {certificate.check()}",
    ]
    _emit(payload, config, lines)
    return EXIT_OK


# -- gp-order -------------------------------------------------------------------

def _cmd_gp_order(args, config: RunConfig) -> int:
    relation = _relation_from_args(args)
    result = gp_order(relation, max_n=args.max_n)
    payload = result.to_json(relation.alphabet)
    if result.exact:
        lines = [f"order = {result.value}"]
    else:
        lines = [f"order >= {result.value} (search exhausted)"]
    _emit(payload, config, lines)
    return EXIT_OK


# -- axioms ----------------------------------------------------------------------

def _cmd_axioms(args, config: RunConfig) -> int:
    relation = _relation_from_args(args)
    report = check_axioms(relation, trials=args.samples, seed=config.seed)
    payload = report.to_json(relation.alphabet)
    lines = [
        f"relation {report.relation}: {'pass' if report.passed else 'FAIL'}"
        f" ({report.trials} trials, seed {report.seed})"
    ]
    for axiom, hits in sorted(report.hypothesis_hits.items()):
        lines.append(f"  {axiom}: hypothesis hit {hits} times")
    for violation in report.violations:
        lines.append(f"  violated {violation.axiom}: x={violation.x} y={violation.y} z={violation.z}")
    _emit(payload, config, lines)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# -- nakaoka ----------------------------------------------------------------------

def _cmd_nakaoka(args, config: RunConfig) -> int:
    reports = nakaoka_table(args.n, args.max_degree, max_generators=config.max_generators)
    payload = {"n": args.n, "rows": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        claim = "claimed" if r.in_range else "no claim"
        lines.append(
            f"m={r.m}: H_m(S_{r.n - 1}) = {r.lhs}, H_m(S_{r.n}) = {r.rhs},"
            f" in range: {'yes' if r.in_range else 'no'} ({claim}),"
            f" equal: {'yes' if r.equal else 'no'}"
        )
    failed = [r for r in reports if not r.holds()]
    if failed:
        lines.append(f"FAILED: stability does not hold at m={[r.m for r in failed]}")
    _emit(payload, config, lines)
    return EXIT_OK if not failed else EXIT_VERIFICATION


# -- derangements -------------------------------------------------------------------

def _cmd_derangements(args, config: RunConfig) -> int:
    count = derangement_count(args.m)
    closed = rank_formula(args.m)
    payload = {
        "m": args.m,
        "derangements": count,
        "closed_form": closed,
        "agree": count == closed,
    }
    lines = [
        f"derangements({args.m}) = {count}",
        f"closed form = {closed}",
        f"agree: {'yes' if count == closed else 'NO'}",
    ]
    _emit(payload, config, lines)
    return EXIT_OK if count == closed else EXIT_VERIFICATION


# -- argument parsing ------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, default_format: str):
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=default_format,
        help=f"output format (default {default_format})",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed")
    parser.add_argument("--max-basis", type=int, default=None, help="basis-word budget override")
    parser.add_argument(
        "--max-generators",
        type=int,
        default=DEFAULT_MAX_GENERATORS,
        help="bar-complex generator budget",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds, 0 for none (at most 1e9); exceeding it exits 3",
    )


def _add_relation_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "variant",
        nargs="?",
        choices=("vec", "inj"),
        default="vec",
        help="relation kind (default vec)",
    )
    parser.add_argument("--p", type=int, default=None, help="field characteristic")
    parser.add_argument("--dim", type=int, default=None, help="vector dimension")
    parser.add_argument("--m", type=int, default=None, help="letter count for inj")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordhom",
        description="Exact integer homology of word complexes and related checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("homology", help="homology tables of word complexes")
    hom.add_argument("variant", choices=("inj", "full", "gp"))
    hom.add_argument("--m", type=int, default=None, help="letter count")
    hom.add_argument("--max-degree", default=None, help="truncation degree, or 'auto' for gp")
    hom.add_argument("--p", type=int, default=None, help="field characteristic (gp)")
    hom.add_argument("--dim", type=int, default=None, help="vector dimension (gp)")
    hom.add_argument("--base", default="[]", help="base word as JSON (gp)")
    _add_common(hom, "text")
    hom.set_defaults(handler=_cmd_homology)

    fill = sub.add_parser("fill", help="produce a boundary-filling certificate")
    fill.add_argument("--input", required=True, help="chain JSON file, or - for stdin")
    fill.add_argument("--base", default="[]", help="base word as JSON (vector alphabets)")
    fill.add_argument("--check", action="store_true", help="re-verify the certificate")
    _add_common(fill, "json")
    fill.set_defaults(handler=_cmd_fill)

    order = sub.add_parser("gp-order", help="order of a general position relation")
    _add_relation_flags(order)
    order.add_argument("--max-n", type=int, default=None, help="search bound")
    _add_common(order, "json")
    order.set_defaults(handler=_cmd_gp_order)

    axioms = sub.add_parser("axioms", help="randomized check of the relation axioms")
    _add_relation_flags(axioms)
    axioms.add_argument("--samples", type=int, default=1000, help="number of random triples")
    _add_common(axioms, "json")
    axioms.set_defaults(handler=_cmd_axioms)

    nak = sub.add_parser("nakaoka", help="compare H_m across consecutive symmetric groups")
    nak.add_argument("--n", type=int, required=True)
    nak.add_argument("--max-degree", type=int, required=True)
    _add_common(nak, "text")
    nak.set_defaults(handler=_cmd_nakaoka)

    der = sub.add_parser("derangements", help="derangement count and the closed form")
    der.add_argument("--m", type=int, required=True)
    _add_common(der, "text")
    der.set_defaults(handler=_cmd_derangements)

    return parser


def _validate_hom_args(args):
    if args.command == "homology":
        if args.variant in ("inj", "full") and args.m is None:
            raise InvalidInput(f"homology {args.variant} needs --m")
        if args.variant == "full":
            if args.max_degree is None:
                raise InvalidInput("homology full needs --max-degree")
            try:
                args.max_degree = int(args.max_degree)
            except ValueError as exc:
                raise InvalidInput("--max-degree must be an integer here") from exc
            if args.max_degree < 1:
                raise InvalidInput(
                    "homology full needs --max-degree >= 1", max_degree=args.max_degree
                )


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    config = RunConfig(
        format=args.format,
        seed=args.seed,
        max_basis=args.max_basis,
        max_generators=args.max_generators,
        time_budget=args.time_budget,
    )
    try:
        _validate_hom_args(args)
        budget = config.time_budget
        if budget is not None and not 0 <= budget <= MAX_TIME_BUDGET:
            # written as a string: JSON has no inf or nan
            raise InvalidInput(
                f"--time-budget must be between 0 and {MAX_TIME_BUDGET:.0f} seconds",
                time_budget=str(budget),
            )
        with _deadline(config.time_budget):
            return args.handler(args, config)
    except WordhomError as exc:
        print(json.dumps({"error": exc.to_json()}, sort_keys=True, indent=2))
        if isinstance(exc, ResourceLimit):
            return EXIT_RESOURCE
        if isinstance(exc, (InternalInvariantBroken, VerificationFailed)):
            return EXIT_VERIFICATION
        return EXIT_INVALID


def main():
    sys.exit(run(sys.argv[1:]))
