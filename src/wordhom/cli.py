"""Command-line entry point.

Subcommands and the flags each one reads:

  homology inj   --m (at most morse.MAX_INJECTIVE_MORSE_M)
  homology full  --m --max-degree [--max-basis]
  homology gp    --m | --p --dim, [--base --max-degree --max-basis]
  fill           --input [--base (vector cycles only) --check]
  gp-order       [vec|inj] --m | --p --dim, [--max-n]
  axioms         [vec|inj] --m | --p --dim, [--samples --seed]
  nakaoka        --n --max-degree [--max-generators]
  derangements   --m (at most MAX_DERANGEMENT_M)

Every subcommand also takes --format and --time-budget.  Relation rule: --m
names the injective relation and --p with --dim the vector relation; give
one, not both, and an optional vec|inj positional must agree with it.  Every
rejection, argparse's own included, prints the error JSON and exits 2.
Output is JSON or text; identical arguments give byte-identical JSON.  Exit
codes: 0 computed and all internal checks passed, 1 a mathematical
verification failed, 2 invalid input, 3 resource limit (a budget, or memory
or stack running out).

``run`` builds the parser on its first call, not at import, and reuses it
for the rest of the process.  Reuse is safe because the parser holds no
mutable defaults (no list defaults, no ``append`` actions): each call parses
into a fresh namespace.  Subcommands name their handler, which ``run`` looks
up in this module's globals at call time, so a handler replaced after the
parser was built still runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import signal
import sys

from .alphabet import parse_json
from .chains import Chain

# build_injective is no longer called here: the benchmark tracer hooks this
# name in wordhom.cli until the counters move into the package (ROADMAP item 3).
from .complexes import build_full, build_gp, build_injective  # noqa: F401
from .errors import InternalInvariantBroken, InvalidInput, ResourceLimit, WordhomError
from .filler import fill_gp, fill_injective
from .genpos import InjectiveRelation, VectorRelation, check_axioms, gp_order
from .grouphom import DEFAULT_MAX_GENERATORS, nakaoka_table
from .homology import derangement_count, homology_table, rank_formula
from .morse import injective_morse_complex

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

DEFAULT_SEED = 42
# Longest --time-budget accepted, in seconds (about 31 years); the interval
# timer behind it overflows above about 9.2e9 seconds.
MAX_TIME_BUDGET = 1e9
# Largest `derangements --m`: the count then has 2568 digits, below the 4300
# that Python turns into a decimal string by default.
MAX_DERANGEMENT_M = 1000


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


def _emit(payload: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _relation_from_args(args):
    """--m names the injective relation, --p with --dim the vector relation.

    The optional vec|inj positional of gp-order and axioms must agree.
    """
    if args.m is not None and (args.p is not None or args.dim is not None):
        raise InvalidInput("give --m or --p and --dim, not both")
    if args.m is None and (args.p is None or args.dim is None):
        raise InvalidInput("the injective relation needs --m, the vector relation --p and --dim")
    named = "inj" if args.m is not None else "vec"
    if getattr(args, "relation", None) not in (None, named):
        raise InvalidInput(f"relation {args.relation} does not match the flags, which name {named}")
    return InjectiveRelation(args.m) if named == "inj" else VectorRelation(args.p, args.dim)


def _parse_base(relation, raw):
    """The --base word (empty if not given), checked to be in general position."""
    obj = [] if raw is None else parse_json(raw, "--base")
    base = relation.alphabet.word_from_json(obj)
    relation.check_base(base)
    return base


# -- homology ----------------------------------------------------------------

def _finish_homology(payload, groups, verified, problems, args) -> int:
    """Emit the table with the claim in `verified` and whether it holds."""
    payload["groups"] = [{"degree": k, **groups[k].to_json()} for k in sorted(groups)]
    payload["verified"] = {**verified, "holds": not problems, "problems": problems}
    lines = [f"H_{k} = {groups[k]}" for k in sorted(groups)]
    lines.append(f"verified: {verified['claim']}" if not problems else f"FAILED: {problems}")
    _emit(payload, args, lines)
    return EXIT_OK if not problems else EXIT_VERIFICATION


def _cmd_homology_inj(args) -> int:
    # The Morse complex of the derangement matching: the derangements only.
    # It refuses an m outside 1..MAX_INJECTIVE_MORSE_M with InvalidInput.
    groups = homology_table(injective_morse_complex(args.m))
    expected_rank = derangement_count(args.m)
    problems = [
        f"H_{k} = {groups[k]} but triviality was claimed"
        for k in range(args.m)
        if not groups[k].is_trivial()
    ]
    top = groups[args.m]
    if top.free_rank != expected_rank or top.torsion:
        problems.append(f"H_{args.m} = {top} but Z^{expected_rank} was claimed")
    # The Euler characteristic, which shares no code with the matching.
    euler_rank = rank_formula(args.m)
    if top.free_rank != euler_rank:
        problems.append(f"H_{args.m} = {top} but the Euler characteristic gives rank {euler_rank}")
    verified = {"claim": f"trivial below degree {args.m}, free of rank {expected_rank} there"}
    payload = {"complex": {"kind": "injective", "m": args.m}}
    return _finish_homology(payload, groups, verified, problems, args)


def _cmd_homology_full(args) -> int:
    groups = homology_table(build_full(args.m, args.max_degree, args.max_basis))
    problems = [
        f"H_{k} = {groups[k]} but the full word complex is acyclic"
        for k in sorted(groups)
        if not groups[k].is_trivial()
    ]
    verified = {"claim": f"trivial in degrees 0..{args.max_degree - 1}"}
    payload = {"complex": {"kind": "full", "m": args.m, "max_degree": args.max_degree}}
    return _finish_homology(payload, groups, verified, problems, args)


def _cmd_homology_gp(args) -> int:
    relation = _relation_from_args(args)
    base = _parse_base(relation, args.base)
    order = gp_order(relation)
    bound = (order.lower_bound - len(base) - 1) // 2
    if args.max_degree == "auto":
        max_degree = None
    elif args.max_degree is None:
        max_degree = max(bound + 1, 1)
    else:
        max_degree = args.max_degree
    groups = homology_table(build_gp(relation, base, max_degree, args.max_basis))
    # The claim covers only the degrees that were computed.
    claimed = min(bound, max(groups))
    problems = [
        f"H_{k} = {groups[k]} but triviality is claimed for degrees <= {claimed}"
        for k in sorted(groups)
        if k <= claimed and not groups[k].is_trivial()
    ]
    verified = {
        "claim": f"trivial for degrees <= {claimed}",
        "order": order.to_json(relation.alphabet),
    }
    payload = {
        "complex": {
            "kind": "general-position",
            "relation": relation.describe(),
            "base": relation.alphabet.word_to_json(base),
        }
    }
    return _finish_homology(payload, groups, verified, problems, args)


# -- fill ---------------------------------------------------------------------

def _cmd_fill(args) -> int:
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {args.input}: {exc}") from exc
    cycle = Chain.parse(raw)
    if cycle.alphabet.kind == "letters":
        if args.base is not None:
            raise InvalidInput("--base applies to vector cycles only")
        certificate = fill_injective(cycle)
    else:
        relation = VectorRelation(cycle.alphabet.p, cycle.alphabet.dim)
        base = _parse_base(relation, args.base)
        certificate = fill_gp(cycle, relation, base)
    if args.check and not certificate.check():
        raise InternalInvariantBroken("certificate failed the recheck")
    payload = certificate.to_json()
    lines = [
        f"filled a degree-{cycle.degree} cycle with {len(certificate.filling)} terms",
        f"valid: {payload['valid']}",
    ]
    _emit(payload, args, lines)
    return EXIT_OK


# -- gp-order -------------------------------------------------------------------

def _cmd_gp_order(args) -> int:
    relation = _relation_from_args(args)
    result = gp_order(relation, max_n=args.max_n)
    payload = result.to_json(relation.alphabet)
    if result.exact:
        lines = [f"order = {result.value}"]
    else:
        lines = [f"order >= {result.value} (search exhausted)"]
    _emit(payload, args, lines)
    return EXIT_OK


# -- axioms ----------------------------------------------------------------------

def _cmd_axioms(args) -> int:
    relation = _relation_from_args(args)
    report = check_axioms(relation, trials=args.samples, seed=args.seed)
    payload = report.to_json(relation.alphabet)
    lines = [
        f"relation {report.relation}: {'pass' if report.passed else 'FAIL'}"
        f" ({report.trials} trials, seed {report.seed})"
    ]
    for axiom, hits in sorted(report.hypothesis_hits.items()):
        lines.append(f"  {axiom}: hypothesis hit {hits} times")
    for violation in report.violations:
        lines.append(f"  violated {violation.axiom}: x={violation.x} y={violation.y} z={violation.z}")
    _emit(payload, args, lines)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# -- nakaoka ----------------------------------------------------------------------

def _cmd_nakaoka(args) -> int:
    reports = nakaoka_table(args.n, args.max_degree, max_generators=args.max_generators)
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
    _emit(payload, args, lines)
    return EXIT_OK if not failed else EXIT_VERIFICATION


# -- derangements -------------------------------------------------------------------

def _cmd_derangements(args) -> int:
    if args.m > MAX_DERANGEMENT_M:
        raise ResourceLimit("derangements --m is capped", m=args.m, limit=MAX_DERANGEMENT_M)
    count = derangement_count(args.m)
    closed = rank_formula(args.m)
    payload = {"m": args.m, "derangements": count, "closed_form": closed, "agree": count == closed}
    lines = [
        f"derangements({args.m}) = {count}",
        f"closed form = {closed}",
        f"agree: {'yes' if count == closed else 'NO'}",
    ]
    _emit(payload, args, lines)
    return EXIT_OK if count == closed else EXIT_VERIFICATION


# -- argument parsing ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose every rejection is InvalidInput, so exit 2 with the error JSON."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


def _positive_int(raw: str) -> int:
    value = int(raw)  # a ValueError is argparse's "invalid value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1, got {raw!r}")
    return value


def _degree_or_auto(raw: str):
    return raw if raw == "auto" else _positive_int(raw)


def _time_budget(raw: str) -> float:
    budget = float(raw)
    if not 0 <= budget <= MAX_TIME_BUDGET:
        # written as a string: JSON has no inf or nan
        raise InvalidInput(
            f"--time-budget must be between 0 and {MAX_TIME_BUDGET:.0f} seconds",
            time_budget=str(budget),
        )
    return budget


def _add_common(parser: argparse.ArgumentParser, default_format: str):
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=default_format,
        help=f"output format (default {default_format})",
    )
    parser.add_argument(
        "--time-budget",
        type=_time_budget,
        help="wall-clock budget in seconds, 0 for none (at most 1e9); exceeding it exits 3",
    )


def _add_relation_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--m", type=int, help="letter count: the injective relation")
    parser.add_argument("--p", type=int, help="field characteristic: the vector relation")
    parser.add_argument("--dim", type=int, help="vector dimension: the vector relation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wordhom",
        description="Exact integer homology of word complexes and related checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("homology", help="homology tables of word complexes")
    variants = hom.add_subparsers(dest="variant", required=True)
    inj = variants.add_parser("inj", help="injective words on the letters 1..m")
    inj.add_argument("--m", type=int, required=True, help="letter count")
    inj.set_defaults(handler=_cmd_homology_inj.__name__)
    full = variants.add_parser("full", help="all words on the letters 1..m, truncated")
    full.add_argument("--m", type=int, required=True, help="letter count")
    full.add_argument("--max-degree", type=_positive_int, required=True, help="truncation degree")
    full.set_defaults(handler=_cmd_homology_full.__name__)
    gp = variants.add_parser("gp", help="words in general position to a base word")
    _add_relation_flags(gp)
    gp.add_argument("--base", help="base word as JSON (default [])")
    gp.add_argument("--max-degree", type=_degree_or_auto, help="truncation degree, or 'auto'")
    gp.set_defaults(handler=_cmd_homology_gp.__name__)
    for variant in (full, gp):
        variant.add_argument("--max-basis", type=_positive_int, help="basis-word budget override")
    for variant in (inj, full, gp):
        _add_common(variant, "text")

    fill = sub.add_parser("fill", help="produce a boundary-filling certificate")
    fill.add_argument("--input", required=True, help="chain JSON file, or - for stdin")
    fill.add_argument("--base", help="base word as JSON (vector cycles only; default [])")
    fill.add_argument("--check", action="store_true", help="re-verify the certificate")
    _add_common(fill, "json")
    fill.set_defaults(handler=_cmd_fill.__name__)

    order = sub.add_parser("gp-order", help="order of a general position relation")
    order.add_argument("--max-n", type=_positive_int, help="search bound")
    order.set_defaults(handler=_cmd_gp_order.__name__)

    axioms = sub.add_parser("axioms", help="randomized check of the relation axioms")
    axioms.add_argument("--samples", type=int, default=1000, help="number of random triples")
    axioms.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed")
    axioms.set_defaults(handler=_cmd_axioms.__name__)

    for relation_cmd in (order, axioms):
        relation_cmd.add_argument(
            "relation", nargs="?", choices=("vec", "inj"), help="must agree with the flags"
        )
        _add_relation_flags(relation_cmd)
        _add_common(relation_cmd, "json")

    nak = sub.add_parser("nakaoka", help="compare H_m across consecutive symmetric groups")
    nak.add_argument("--n", type=int, required=True)
    nak.add_argument("--max-degree", type=int, required=True)
    nak.add_argument(
        "--max-generators",
        type=_positive_int,
        default=DEFAULT_MAX_GENERATORS,
        help="budget of critical cells per degree of each group's Morse complex",
    )
    _add_common(nak, "text")
    nak.set_defaults(handler=_cmd_nakaoka.__name__)

    der = sub.add_parser("derangements", help="derangement count and the closed form")
    der.add_argument("--m", type=int, required=True, help=f"at most {MAX_DERANGEMENT_M}")
    _add_common(der, "text")
    der.set_defaults(handler=_cmd_derangements.__name__)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses: built on the first call, then reused."""
    return build_parser()


def run(argv) -> int:
    try:
        try:
            args = _shared_parser().parse_args(argv)
        except SystemExit:  # only --help exits; every rejection raises InvalidInput
            return EXIT_OK
        with _deadline(args.time_budget):
            # Looked up by name at call time, so a patched handler runs.
            return globals()[args.handler](args)
    except WordhomError as exc:
        error = exc
    except (MemoryError, RecursionError) as exc:
        # Running out of memory or stack is a resource limit, not a failed
        # verification; the error is reported after the except block has
        # released the failed computation's frames.  Other exceptions are bugs
        # and propagate.
        error = ResourceLimit(
            "the computation ran out of memory or stack", exception=type(exc).__name__
        )
    print(json.dumps({"error": error.to_json()}, sort_keys=True, indent=2))
    if isinstance(error, ResourceLimit):
        return EXIT_RESOURCE
    if isinstance(error, InternalInvariantBroken):
        return EXIT_VERIFICATION
    return EXIT_INVALID


def main():
    sys.exit(run(sys.argv[1:]))
