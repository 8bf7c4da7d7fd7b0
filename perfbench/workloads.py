"""Seeded inputs for the four benchmark workloads.

A workload is a fixed list of ops (one ``dofcount`` command line each) that
the benchmark sends in a closed loop, pass after pass.  Everything the
program sees -- argv and the deck files -- is generated here from the
benchmark seed, so the same seed always gives the same inputs.  Nothing in
this module imports ``dofcount``: the inputs and the oracles that check the
outputs stay independent of the code under test.

Op mixes are chosen so that the median and the tail percentile each fall
near the middle of one class of similar ops, whatever the number of passes
a run manages.  A percentile at the edge of a class, or between two classes
of different cost, jumps from run to run.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SIMULATE_TRIALS = 10_000  # the CLI default; simulate ops do not pass --trials

VALUE_NAMES = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class Op:
    """One ``cli_main`` call and what it must produce."""

    kind: str  # "sweep", "rank", "simulate", "sequence" or "witness"
    argv: tuple[str, ...]
    units: int  # work units the op completes when its output is correct
    params: dict = field(default_factory=dict, compare=False)
    deck: dict | None = field(default=None, compare=False)  # deck document, for deck ops


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of ``units_per_s`` is
    tail_q: int  # percentile reported as op_tail_ms

    @property
    def min_ops(self) -> int:
        """Ops a run needs so that at least 10 lie beyond ``tail_q``."""
        return math.ceil(10 * 100 / (100 - self.tail_q))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-classical", "K cells", 80),
        Workload("rank-quantum", "quantum states measured", 75),
        Workload("simulate-cli", "trials", 75),
        Workload("sequence-exact", "exact probabilities emitted", 90),
    )
}


@dataclass
class Inputs:
    """A workload's generated inputs: deck files plus the ops of each pass."""

    workload: Workload
    seed: int
    deck_paths: list[Path]
    properties: dict
    make_pass: Callable[[random.Random], list[Op]]

    def pass_ops(self, index: int) -> list[Op]:
        return self.make_pass(random.Random(f"{self.workload.name}/{self.seed}/{index}"))


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _random_deck(rng: random.Random, n: int, v: int, correlated: bool = False) -> dict:
    """Deck document over V variables of N values, multiplicities 1..3.

    A full deck holds every one of the N**V card types; a correlated deck
    holds only the N diagonal cards (every variable shows the same value
    index), which admits no classicality witness.
    """
    names = [f"X{i + 1}" for i in range(v)]
    values = list(VALUE_NAMES[:n])
    combos = [(j,) * v for j in range(n)] if correlated else itertools.product(range(n), repeat=v)
    cards = [
        {"assignment": {names[i]: values[c[i]] for i in range(v)}, "count": rng.randint(1, 3)}
        for c in combos
    ]
    return {"variables": [{"name": x, "values": values} for x in names], "cards": cards}


def _random_plan(rng: random.Random, names: list[str], length: int) -> list[str]:
    """Plan with no switch pressed twice in a row, so every step branches."""
    plan = [rng.choice(names)]
    while len(plan) < length:
        plan.append(rng.choice([x for x in names if x != plan[-1]]))
    return plan


def _write_deck(workdir: Path, name: str, doc: dict, write: bool) -> Path:
    path = workdir / f"{name}.json"
    if write:
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _sweep_inputs(seed, toy, workdir, write):
    rows = [2, 2, 3] if toy else [2] * 6 + [3] * 4 + [4] * 3 + [5]
    wide = [(2, 3)] if toy else [(3, 6), (2, 8)]

    def make(rng):
        ops = []
        for n, lo, hi in [(n, 1, 2 if toy else 4) for n in rows] + [(n, v, v) for n, v in wide]:
            s = _cli_seed(rng)
            argv = ("sweep", "--systems", "cardbox,urn", "--n-range", f"{n}..{n}",
                    "--v-range", f"{lo}..{hi}", "--seed", s)
            cells = hi - lo + 2  # card-box cells plus the urn row
            ops.append(Op("sweep", argv, cells, {"n": n, "v": (lo, hi), "seed": int(s)}))
        rng.shuffle(ops)
        return ops

    properties = {
        "rows_N": rows,
        "wide_cells_NV": wide,
        "card_types_per_fiducial_column": {
            f"N={n},V={v}": round(n**v / (n * v), 2)
            for n, v in [(n, 4) for n in sorted(set(rows))] + wide
        },
    }
    return [], properties, make


def _rank_inputs(seed, toy, workdir, write):
    mix = [2, 2, 3] if toy else [6] * 6 + [9] * 2 + [12]

    def make(rng):
        ops = []
        for n in mix:
            s = _cli_seed(rng)
            argv = ("rank", "--system", "quantum", "--n", str(n), "--seed", s)
            ops.append(Op("rank", argv, 2 * 10 * n * (n + 1), {"n": n, "seed": int(s)}))
        rng.shuffle(ops)
        return ops

    return [], {"n_mix": mix, "states_per_op": {n: 20 * n * (n + 1) for n in sorted(set(mix))}}, make


def _simulate_inputs(seed, toy, workdir, write):
    rng = random.Random(f"simulate-cli/{seed}/decks")
    shapes = [(2, 2), (2, 2)] if toy else [(3, 3)] * 3 + [(4, 3)] * 2
    decks = []  # (doc, path, plans)
    for i, (n, v) in enumerate(shapes):
        doc = _random_deck(rng, n, v)
        names = [x["name"] for x in doc["variables"]]
        a, b, c = rng.sample(names, 3) if v >= 3 else (names[0], names[1], names[0])
        plans = [[a, b, c], [a, b, a]]  # the second presses a switch again
        decks.append((doc, _write_deck(workdir, f"sim{i}", doc, write), plans))

    def make(pass_rng):
        ops = []
        for doc, path, plans in decks:
            for plan in plans:
                argv = ["simulate", "--deck", str(path), "--plan", ",".join(plan),
                        "--seed", _cli_seed(pass_rng)]
                trials = 200 if toy else SIMULATE_TRIALS
                if toy:
                    argv += ["--trials", str(trials)]
                ops.append(Op("simulate", tuple(argv), trials, {"plan": plan, "trials": trials}, doc))
        pass_rng.shuffle(ops)
        return ops

    properties = {
        "card_types": [n**v for n, v in shapes],
        "plan_length": 3,
        "repeated_switch_share": 0.5,
        "trials_per_op": 200 if toy else SIMULATE_TRIALS,
    }
    return [p for _, p, _ in decks], properties, make


def _sequence_inputs(seed, toy, workdir, write):
    rng = random.Random(f"sequence-exact/{seed}/decks")
    ops, paths = [], []
    long_plans = [(2, 2, 3)] if toy else [(3, 3, 9), (3, 3, 9), (4, 3, 7)]
    for i, (n, v, length) in enumerate(long_plans):
        doc = _random_deck(rng, n, v)
        plan = _random_plan(rng, [x["name"] for x in doc["variables"]], length)
        path = _write_deck(workdir, f"seq{i}", doc, write)
        argv = ("sequence", "--deck", str(path), "--plan", ",".join(plan))
        # Full decks and no immediate repeats: every one of the N**L runs is possible.
        ops.append(Op("sequence", argv, n**length, {"plan": plan}, doc))
        paths.append(path)
    # Few random decks, many witness-free ones: the median lands mid-way
    # through the witness-free searches whichever kind of search is faster.
    for correlated, count in ((False, 1), (True, 1)) if toy else ((False, 2), (True, 8)):
        for i in range(count):
            doc = _random_deck(rng, 3, 3, correlated)
            path = _write_deck(workdir, f"wit{int(correlated)}{i}", doc, write)
            ops.append(Op("witness", ("witness", "--deck", str(path)), 1, deck=doc))
            paths.append(path)
    rng.shuffle(ops)
    properties = {
        "sequence_plans_NVL": long_plans,
        "witness_decks_NV": [3, 3],
        "witness_free_share": 0.5 if toy else 0.8,
    }
    return paths, properties, lambda _rng: list(ops)  # every pass repeats the same ops


_BUILDERS = {
    "sweep-classical": _sweep_inputs,
    "rank-quantum": _rank_inputs,
    "simulate-cli": _simulate_inputs,
    "sequence-exact": _sequence_inputs,
}


def build_inputs(name: str, seed: int, workdir: Path, *, write: bool, toy: bool = False) -> Inputs:
    """Generate (and with ``write`` store) a workload's inputs for ``seed``.

    ``toy`` shrinks every op to a size that runs in well under a second;
    the benchmark's own tests use it.
    """
    paths, properties, make_pass = _BUILDERS[name](seed, toy, Path(workdir), write)
    return Inputs(WORKLOADS[name], seed, paths, properties, make_pass)
