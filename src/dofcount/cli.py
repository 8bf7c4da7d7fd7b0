"""Command-line front end.

Subcommands:

* ``simulate`` -- seeded Monte Carlo runs of a plan vs the exact law
* ``sequence`` -- exact outcome-sequence distribution as fractions
* ``witness``  -- the first static-value-model refutation of a deck
* ``rank``     -- one K measurement for an urn / card-box / quantum system
* ``sweep``    -- K table over (N, V) ranges, written as CSV or JSON

Exit codes: 0 success, 1 usage error, 2 input-validation error, 3 internal
invariant failure; the console entry exits 141 without a traceback when
the reader closes stdout early.  ``--seed`` falls back to the
``DOFCOUNT_SEED`` environment variable, then to 0; output is byte-identical
for identical arguments and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from .deckfile import parse_deck_file
from .errors import DofcountError, InvariantError, ValidationError
from .quantum import RANK_TOL
from .rng import RandomStream
from .sequences import find_classicality_witness, sequence_distribution, simulate_plan
from .tomography import KReport, estimate_k, k_sweep

# Report columns: every KReport field, in field order, under its output name.
_RENAMED = {
    "n": "N", "v_or_m": "V_or_M", "k_rank": "K_rank", "k_naive": "K_naive", "k_paper": "K_paper"
}
_COLUMNS = tuple((f.name, _RENAMED.get(f.name, f.name)) for f in dataclasses.fields(KReport))
CSV_HEADER = ",".join(label for _, label in _COLUMNS)


class UsageError(DofcountError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(reports: list[KReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join(_csv_cell(getattr(r, name)) for name, _ in _COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(reports: list[KReport]) -> str:
    rows = [{label: getattr(r, name) for name, label in _COLUMNS} for r in reports]
    return json.dumps(rows, indent=2) + "\n"


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get("DOFCOUNT_SEED")
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"DOFCOUNT_SEED must be an integer, got {env!r}")
    if value < 0:
        raise ValidationError("seed must be non-negative")
    return value


def _load_deck(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read deck file {path}: {exc}")
    return parse_deck_file(data)


def _parse_plan(text: str) -> tuple[str, ...]:
    steps = tuple(step for step in text.split(",") if step)
    if not steps:
        raise UsageError(f"plan must name at least one variable, got {text!r}")
    return steps


def _parse_range(text: str, flag: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"{flag} expects A..B or a single integer, got {text!r}")
    if lo > hi:
        raise UsageError(f"{flag} range is empty: {text!r}")
    return list(range(lo, hi + 1))


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    _spec, deck = _load_deck(args.deck)
    plan = _parse_plan(args.plan)
    exact = sequence_distribution(deck, plan)
    counts = simulate_plan(deck, plan, args.trials, RandomStream(seed))
    impossible = set(counts) - set(exact.probabilities)
    if impossible:
        raise InvariantError(f"{len(impossible)} impossible sequence(s) observed")
    print(f"# plan={','.join(plan)} trials={args.trials} seed={seed}")
    for sequence, p in exact.items():
        hits = counts.get(sequence, 0)
        freq = hits / args.trials
        bound = 3.0 * math.sqrt(float(p) * (1.0 - float(p)) / args.trials)
        delta = abs(freq - float(p))
        status = "ok" if delta <= bound else "FAIL"
        values = ",".join(o.value for o in sequence)
        print(
            f"{values} exact={p} observed={freq:.6f} "
            f"delta={delta:.6f} bound={bound:.6f} {status}"
        )
    return 0


def _cmd_sequence(args) -> int:
    _spec, deck = _load_deck(args.deck)
    plan = _parse_plan(args.plan)
    dist = sequence_distribution(deck, plan)
    for sequence, p in dist.items():
        values = ",".join(o.value for o in sequence)
        print(f"{values} = {p}")
    return 0


def _cmd_witness(args) -> int:
    _spec, deck = _load_deck(args.deck)
    witness = find_classicality_witness(deck)
    if witness is None:
        print("none")
        return 0
    steps = " -> ".join(str(o) for o in witness.sequence)
    print(f"{steps}  probability = {witness.probability}")
    print(f"violates: {witness.violated_constraint}")
    return 0


def _cmd_rank(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.system == "cardbox" and args.v is None:
        raise UsageError("--v is required for cardbox systems")
    report = estimate_k(
        args.system,
        args.n,
        v=args.v,
        m=args.m,
        ensemble=args.ensemble,
        max_multiplicity=args.max_mult,
        tol=args.tol,
        rng=RandomStream(seed),
    )
    sys.stdout.write(render_csv([report]))
    return 0


def _cmd_sweep(args) -> int:
    seed = _resolve_seed(args.seed)
    reports = k_sweep(
        _parse_range(args.n_range, "--n-range"),
        _parse_range(args.v_range, "--v-range"),
        [s for s in args.systems.split(",") if s],
        seed,
        ensemble=args.ensemble,
        max_multiplicity=args.max_mult,
        tol=args.tol,
    )
    text = render_json(reports) if args.json else render_csv(reports)
    if args.out:
        Path(args.out).write_bytes(text.encode("utf-8"))
        print(f"wrote {len(reports)} reports to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once: a parser is a web of reference cycles, and one per call
    # piles up as garbage between the collector's rare full passes.
    parser = _Parser(
        prog="dofcount",
        description="Measure informational degrees of freedom of card-box, urn, "
        "and quantum reference systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="master seed (default: $DOFCOUNT_SEED, then 0)",
        )

    p = commands.add_parser("simulate", help="Monte Carlo runs vs exact sequence law")
    p.add_argument("--deck", required=True, help="deck JSON file")
    p.add_argument("--plan", required=True, help="comma-separated variable names")
    p.add_argument("--trials", type=int, default=10_000)
    add_seed(p)
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser("sequence", help="exact outcome-sequence distribution")
    p.add_argument("--deck", required=True)
    p.add_argument("--plan", required=True)
    p.set_defaults(func=_cmd_sequence)

    p = commands.add_parser("witness", help="search for a static-value-model refutation")
    p.add_argument("--deck", required=True)
    p.set_defaults(func=_cmd_witness)

    p = commands.add_parser("rank", help="single K measurement")
    p.add_argument("--system", required=True, choices=["urn", "cardbox", "quantum"])
    p.add_argument("--n", required=True, type=int, help="values per variable / dimension")
    p.add_argument("--v", type=int, default=None, help="variable count (cardbox)")
    p.add_argument("--m", type=int, default=None, help="basis count (quantum; default n+1)")
    p.add_argument("--ensemble", type=int, default=None, help="base ensemble size (default 10*F)")
    p.add_argument("--max-mult", type=int, default=2, help="max per-card multiplicity")
    p.add_argument("--tol", type=float, default=RANK_TOL, help="numeric rank threshold")
    add_seed(p)
    p.set_defaults(func=_cmd_rank)

    p = commands.add_parser("sweep", help="K table over N and V ranges")
    p.add_argument("--n-range", required=True, help="A..B inclusive, e.g. 2..4")
    p.add_argument("--v-range", required=True, help="C..D inclusive, e.g. 1..3")
    p.add_argument("--systems", default="cardbox,urn,quantum", help="comma-separated kinds")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--ensemble", type=int, default=None)
    p.add_argument("--max-mult", type=int, default=2)
    p.add_argument("--tol", type=float, default=RANK_TOL)
    add_seed(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop quietly, and point
        # stdout at devnull so the interpreter's final flush fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # what a shell reports for a process ended by SIGPIPE
    raise SystemExit(code)
