"""Command-line front end.

Subcommands:

* ``simulate`` -- seeded Monte Carlo runs of a plan vs the exact law
* ``sequence`` -- exact outcome-sequence distribution as fractions
* ``witness``  -- the first static-value-model refutation of a deck
* ``rank``     -- one K measurement for an urn / card-box / quantum system
* ``sweep``    -- K table over (N, V) ranges, written as CSV or JSON

Exit codes: 0 success, 1 usage error, 2 input-validation error, 3 internal
invariant failure; the console entry exits 141 without a traceback when
the reader closes stdout early.  ``--seed`` defaults to 0; output is
byte-identical for identical arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .deckfile import parse_deck_file
from .errors import DofcountError, InvariantError, ValidationError
from .rng import RandomStream
from .sequences import find_classicality_witness, sequence_distribution, simulate_plan
from .tomography import KReport, estimate_k, k_sweep

# Report columns: every KReport field, in field order, under its output name.
_RENAMED = {
    "n": "N", "v_or_m": "V_or_M", "k_rank": "K_rank", "k_naive": "K_naive", "k_paper": "K_paper"
}
_COLUMNS = tuple((f.name, _RENAMED.get(f.name, f.name)) for f in dataclasses.fields(KReport))
CSV_HEADER = ",".join(label for _, label in _COLUMNS)
_JOIN_ROWS = 4096  # sequence rows joined into one text


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
    rows = [",".join(_csv_cell(getattr(r, name)) for name, _ in _COLUMNS) for r in reports]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def render_json(reports: list[KReport]) -> str:
    rows = [{label: getattr(r, name) for name, label in _COLUMNS} for r in reports]
    return json.dumps(rows, indent=2) + "\n"


def _load_deck(path: str):
    try:
        with open(path, "rb") as file:
            return parse_deck_file(file.read())
    except OSError as exc:
        raise ValidationError(f"cannot read deck file {path}: {exc}")


def _parse_names(text: str, flag: str, kind: str) -> tuple[str, ...]:
    names = tuple(name for name in text.split(",") if name)
    if not names:
        raise UsageError(f"{flag} must name at least one {kind}, got {text!r}")
    return names


def _parse_range(text: str, flag: str) -> range:
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
    return range(lo, hi + 1)  # k_sweep checks its bounds without listing it


def _run_pieces(dist, before: str, after: str) -> np.ndarray:
    """``(runs, 4)`` object array: each run's line as ``str`` pieces that join to it.

    Parent run's labels (levels below the last only), last label, ``before
    + a`` and ``"/b" + after`` (``after`` when ``b`` is 1), for the law's
    lowest terms ``a/b``.  Each distinct ``a`` and ``b`` is formatted once.
    """
    text = np.array([""], dtype=object)
    shown = [np.array([("," if i else "") + x for x in labels], dtype=object)
             for i, labels in enumerate(dist.labels)]
    for parent, value, labels in zip(dist.parents[:-1], dist.values, shown):
        text = text[parent] + labels[value]
    tops, top = np.unique(dist.numerators, return_inverse=True)
    bottoms, bottom = np.unique(dist.denominators, return_inverse=True)
    heads = np.array([f"{before}{a}" for a in tops.tolist()], dtype=object)
    tails = np.array([after if b == 1 else f"/{b}{after}" for b in bottoms.tolist()], dtype=object)
    columns = text[dist.parents[-1]], shown[-1][dist.values[-1]], heads[top], tails[bottom]
    return np.stack(columns, axis=1)


def _write_text(text: str) -> None:
    """Write to stdout in slices of at most ``io.DEFAULT_BUFFER_SIZE`` characters: one write
    larger than a pipe's buffer can return without ``BrokenPipeError`` and drop the rest."""
    for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        sys.stdout.write(text[start : start + io.DEFAULT_BUFFER_SIZE])


def _cmd_simulate(args) -> int:
    deck = _load_deck(args.deck)
    plan = _parse_names(args.plan, "plan", "variable")
    law, counts = simulate_plan(deck, plan, args.trials, RandomStream(args.seed))

    def line(head: str, p: float, hits: int) -> str:  # head: "<run> exact=<a/b>", p: a / b
        freq = hits / args.trials
        bound = 3.0 * math.sqrt(p * (1.0 - p) / args.trials)
        delta = abs(freq - p)
        status = "ok" if delta <= bound else "FAIL"
        return f"{head} observed={freq:.6f} delta={delta:.6f} bound={bound:.6f} {status}\n"

    heads = map("".join, _run_pieces(law, " exact=", "").tolist())
    lines = map(line, heads, law._floats.tolist(), counts.tolist())
    _write_text("".join([f"# plan={','.join(plan)} trials={args.trials} seed={args.seed}\n", *lines]))
    return 0


def _cmd_sequence(args) -> int:
    deck = _load_deck(args.deck)
    plan = _parse_names(args.plan, "plan", "variable")
    dist = sequence_distribution(deck, plan)
    pieces = _run_pieces(dist, " = ", "\n")
    for start in range(0, len(pieces), _JOIN_ROWS):  # one block's text held at a time
        _write_text("".join(pieces[start : start + _JOIN_ROWS].ravel().tolist()))
    return 0


def _cmd_witness(args) -> int:
    deck = _load_deck(args.deck)
    witness = find_classicality_witness(deck)
    if witness is None:
        print("none")
        return 0
    steps = " -> ".join(str(o) for o in witness.sequence)
    print(f"{steps}  probability = {witness.probability}")
    print(f"violates: {witness.violated_constraint}")
    return 0


# rank flags that only some systems read: (flag, estimate_k keyword, systems)
_RANK_ONLY_FOR = (
    ("--v", "v_or_m", ("cardbox",)),
    ("--m", "v_or_m", ("quantum",)),
    ("--max-mult", "max_multiplicity", ("urn", "cardbox")),
)


def _cmd_rank(args) -> int:
    options = {}
    for flag, keyword, systems in _RANK_ONLY_FOR:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue  # estimate_k's default
        if args.system not in systems:
            raise UsageError(f"{flag} does not apply to {args.system} systems")
        options[keyword] = value
    if args.system == "cardbox" and args.v is None:
        raise UsageError("--v is required for cardbox systems")
    report = estimate_k(
        args.system, args.n, ensemble=args.ensemble, rng=RandomStream(args.seed), **options
    )
    _write_text(render_csv([report]))
    return 0


def _cmd_sweep(args) -> int:
    reports = k_sweep(
        _parse_range(args.n_range, "--n-range"),
        _parse_range(args.v_range, "--v-range"),
        _parse_names(args.systems, "--systems", "system kind"),
        args.seed,
        ensemble=args.ensemble,
        max_multiplicity=args.max_mult,
    )
    text = render_json(reports) if args.json else render_csv(reports)
    if args.out:
        try:
            Path(args.out).write_bytes(text.encode("utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot write output file {args.out}: {exc}")
        print(f"wrote {len(reports)} reports to {args.out}")
    else:
        _write_text(text)
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
        p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")

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
    p.add_argument(
        "--max-mult", type=int, default=None, help="max per-card multiplicity (urn, cardbox; default 2)"
    )
    add_seed(p)
    p.set_defaults(func=_cmd_rank)

    p = commands.add_parser("sweep", help="K table over N and V ranges")
    p.add_argument("--n-range", required=True, help="A..B inclusive, e.g. 2..4")
    p.add_argument("--v-range", required=True, help="C..D inclusive, e.g. 1..3")
    p.add_argument("--systems", default="cardbox,urn,quantum", help="comma-separated kinds")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    bad = "; a bad value exits 2 whatever --systems holds"
    p.add_argument("--ensemble", type=int, default=None, help=f"base ensemble size (all systems){bad}")
    p.add_argument("--max-mult", type=int, default=2, help=f"max card multiplicity (urn, cardbox){bad}")
    add_seed(p)
    p.set_defaults(func=_cmd_sweep)

    parser.commands = commands.choices  # subcommand name -> its own parser
    return parser


def cli_main(argv=None) -> int:
    """A known subcommand's argv goes straight to its own parser, scanned once; any other argv
    to the top-level parser.  Output, messages and exit codes are the same either way."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = build_parser().commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else build_parser().parse_args(argv)
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
