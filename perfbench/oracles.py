"""Independent output checks for every benchmark op.

The checks share no code with ``dofcount``.  The card box is modelled here
as what its law makes it: the subdeck is always rebuilt from the full
deck, so the next outcome depends only on the last one, and a plan's run
has probability ``p_a1(x1) * prod T_{a_i a_(i+1)}[x_i, x_(i+1)]`` with
``T_ab = C_ab / row sums`` built from the deck's pair counts.  Every check
returns ``None`` for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from statistics import NormalDist

CSV_HEADER = "kind,N,V_or_M,K_rank,K_naive,K_paper,ensemble,saturated,seed"

# Family-wise false-alarm rate of one simulate check, split over its lines
# (Bonferroni).  The CLI's own per-line 3-sigma verdict flags honest runs.
SIMULATE_ALPHA = 1e-6


class ChainLaw:
    """Exact law of a deck document, as a Markov chain on the last outcome."""

    def __init__(self, doc: dict):
        self.names = [v["name"] for v in doc["variables"]]
        self.values = {v["name"]: list(v["values"]) for v in doc["variables"]}
        cards: dict[tuple[int, ...], int] = {}
        for card in doc["cards"]:
            key = tuple(self.values[x].index(card["assignment"][x]) for x in self.names)
            cards[key] = cards.get(key, 0) + card["count"]
        self.total = sum(cards.values())
        n = len(next(iter(self.values.values())))
        self.n = n
        self.single = {x: [0] * n for x in self.names}
        self.pair = {(a, b): [[0] * n for _ in range(n)] for a in self.names for b in self.names}
        for key, count in cards.items():
            for i, a in enumerate(self.names):
                self.single[a][key[i]] += count
                for j, b in enumerate(self.names):
                    self.pair[a, b][key[i]][key[j]] += count

    def weight(self, plan, idx) -> tuple[int, int]:
        """Probability of value indices ``idx`` under ``plan`` as (num, den)."""
        num, den = self.single[plan[0]][idx[0]], self.total
        for step in range(1, len(plan)):
            a, b = plan[step - 1], plan[step]
            num *= self.pair[a, b][idx[step - 1]][idx[step]]
            den *= self.single[a][idx[step - 1]]
            if num == 0:
                return 0, 1
        return num, den

    def support_size(self, plan) -> int:
        """Number of positive-probability runs of ``plan`` (dynamic programming)."""
        ways = [1 if c else 0 for c in self.single[plan[0]]]
        for a, b in zip(plan, plan[1:]):
            t = self.pair[a, b]
            ways = [sum(ways[x] for x in range(self.n) if t[x][y]) for y in range(self.n)]
        return sum(ways)

    def support(self, plan) -> dict[tuple[str, ...], Fraction]:
        """Every positive-probability run of ``plan``; small plans only."""
        out = {}
        for idx in itertools.product(range(self.n), repeat=len(plan)):
            num, den = self.weight(plan, idx)
            if num:
                out[tuple(self.values[a][i] for a, i in zip(plan, idx))] = Fraction(num, den)
        return out

    def has_witness(self) -> bool:
        """True iff some value of b occurs together with two values of a != b."""
        for a, b in itertools.permutations(self.names, 2):
            t = self.pair[a, b]
            if any(sum(1 for x in range(self.n) if t[x][y]) > 1 for y in range(self.n)):
                return True
        return False

    def indices(self, plan, values) -> list[int] | None:
        try:
            return [self.values[a].index(v) for a, v in zip(plan, values, strict=True)]
        except ValueError:
            return None


def _csv_rows(stdout: str) -> tuple[list[list[str]] | None, str | None]:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None, "missing CSV header"
    return [line.split(",") for line in lines[1:]], None


def _check_report(fields, kind, n, v, k_rank, k_naive, seed) -> str | None:
    if len(fields) != 9:
        return f"malformed report row {','.join(fields)}"
    expected = [kind, str(n), str(v), str(k_rank), str(k_naive), str(k_rank if kind != "cardbox" else n * v),
                str(10 * k_naive)]
    if fields[:7] != expected or fields[7] not in ("true", "false") or fields[8] != str(seed):
        return f"{kind} N={n} V_or_M={v}: got {','.join(fields)}, expected K_rank={k_rank}"
    return None


def check_sweep(params: dict, stdout: str) -> str | None:
    rows, err = _csv_rows(stdout)
    if err:
        return err
    n, (lo, hi), seed = params["n"], params["v"], params["seed"]
    expected = [("cardbox", n, v, v * (n - 1) + 1, n * v) for v in range(lo, hi + 1)]
    expected.append(("urn", n, 1, n, n))
    if len(rows) != len(expected):
        return f"{len(rows)} report rows, expected {len(expected)}"
    for fields, (kind, nn, v, k_rank, k_naive) in zip(rows, expected):
        reason = _check_report(fields, kind, nn, v, k_rank, k_naive, seed)
        if reason:
            return reason
    return None


def check_rank(params: dict, stdout: str) -> str | None:
    rows, err = _csv_rows(stdout)
    if err:
        return err
    n = params["n"]
    if len(rows) != 1:
        return f"{len(rows)} report rows, expected 1"
    return _check_report(rows[0], "quantum", n, n + 1, n * n, n * (n + 1), params["seed"])


def check_simulate(law: ChainLaw, params: dict, stdout: str) -> str | None:
    plan, trials = params["plan"], params["trials"]
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith(f"# plan={','.join(plan)} trials={trials} seed="):
        return "missing or wrong simulate header"
    exact = law.support(plan)
    z = NormalDist().inv_cdf(1 - SIMULATE_ALPHA / (2 * max(len(exact), 1)))
    seen, total = set(), 0
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 6 or not fields[1].startswith("exact=") or not fields[2].startswith("observed="):
            return f"malformed simulate line {line!r}"
        run = tuple(fields[0].split(","))
        if run not in exact:
            return f"impossible sequence {fields[0]} reported"
        if run in seen:
            return f"sequence {fields[0]} reported twice"
        seen.add(run)
        p = exact[run]
        if Fraction(fields[1][len("exact="):]) != p:
            return f"{fields[0]}: exact={fields[1][6:]}, oracle {p}"
        scaled = float(fields[2][len("observed="):]) * trials
        hits = round(scaled)
        if abs(scaled - hits) > 0.01:
            return f"{fields[0]}: observed frequency is not a count over {trials} trials"
        total += hits
        spread = z * math.sqrt(trials * float(p) * (1 - float(p))) + 1
        if abs(hits - trials * float(p)) > spread:
            return f"{fields[0]}: {hits} hits, expected {trials * float(p):.1f} +- {spread:.1f}"
    if seen != set(exact):
        return f"{len(exact) - len(seen)} possible sequences missing"
    if total != trials:
        return f"counts sum to {total}, expected {trials}"
    return None


def check_sequence(law: ChainLaw, params: dict, stdout: str) -> str | None:
    plan = params["plan"]
    parsed = []
    for line in stdout.splitlines():
        run, sep, prob = line.partition(" = ")
        if not sep:
            return f"malformed sequence line {line!r}"
        parsed.append((run, Fraction(prob)))
    total = sum(p for _, p in parsed)
    if total != 1:
        return f"probabilities sum to {total}, not 1"
    if len({run for run, _ in parsed}) != len(parsed):
        return "a sequence is reported twice"
    expected = law.support_size(plan)
    if len(parsed) != expected:
        return f"{len(parsed)} sequences, oracle support has {expected}"
    for run, p in parsed:
        idx = law.indices(plan, run.split(","))
        if idx is None:
            return f"unknown values in {run}"
        num, den = law.weight(plan, idx)
        if num == 0:
            return f"impossible sequence {run} reported"
        if p.numerator * den != num * p.denominator:
            return f"{run}: {p}, oracle {Fraction(num, den)}"
    return None


def check_witness(law: ChainLaw, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if lines == ["none"]:
        return "'none' on a deck that has a witness" if law.has_witness() else None
    if not law.has_witness():
        return "witness reported on a witness-free deck"
    if len(lines) != 2 or " probability = " not in lines[0] or not lines[1].startswith("violates: "):
        return "malformed witness output"
    steps, _, prob = lines[0].partition("  probability = ")
    pairs = [step.split("=", 1) for step in steps.split(" -> ")]
    if any(len(pair) != 2 for pair in pairs):
        return f"malformed witness run {steps!r}"
    plan = [a for a, _ in pairs]
    if not any(pairs[i][0] == pairs[j][0] and pairs[i][1] != pairs[j][1]
               for i in range(len(pairs)) for j in range(i + 1, len(pairs))):
        return f"witness {steps} has no contradictory repeat"
    idx = law.indices(plan, [x for _, x in pairs])
    if idx is None:
        return f"unknown values in witness {steps}"
    num, den = law.weight(plan, idx)
    p = Fraction(prob)
    if num == 0 or p.numerator * den != num * p.denominator:
        return f"witness probability {p}, oracle {Fraction(num, den)}"
    return None


class Checker:
    """Checks op outputs, caching the law of each deck it has seen."""

    def __init__(self):
        self._laws: dict[int, tuple[dict, ChainLaw]] = {}  # keeps each doc alive

    def law(self, doc: dict) -> ChainLaw:
        if id(doc) not in self._laws:
            self._laws[id(doc)] = (doc, ChainLaw(doc))
        return self._laws[id(doc)][1]

    def check(self, op, stdout: str) -> str | None:
        try:
            return self._check(op, stdout)
        except (ValueError, ZeroDivisionError, KeyError, IndexError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    def _check(self, op, stdout: str) -> str | None:
        if op.kind == "sweep":
            return check_sweep(op.params, stdout)
        if op.kind == "rank":
            return check_rank(op.params, stdout)
        if op.kind == "simulate":
            return check_simulate(self.law(op.deck), op.params, stdout)
        if op.kind == "sequence":
            return check_sequence(self.law(op.deck), op.params, stdout)
        if op.kind == "witness":
            return check_witness(self.law(op.deck), stdout)
        return f"unknown op kind {op.kind!r}"
