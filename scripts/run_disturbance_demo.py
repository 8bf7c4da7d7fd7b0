#!/usr/bin/env python3
"""Walk through the card box's sequential behavior on the four-card deck.

Shows, with exact fractions and a seeded Monte Carlo cross-check:
repeatability of an immediately repeated switch, order-invariance of pairs,
disturbance of one variable by measuring another in between, and the
length-3 run that no fixed-card-values model can produce.
"""

import argparse

from dofcount import (
    RandomStream,
    SystemSpec,
    check_repeatability,
    find_classicality_witness,
    sequence_distribution,
    simulate_plan,
    uniform_deck,
)


def show(title: str, dist) -> None:
    print(f"\n{title}")
    for sequence, p in dist.items():
        print(f"  {' then '.join(str(o) for o in sequence)}: {p}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=10_000)
    args = ap.parse_args()

    spec = SystemSpec.from_mapping({"Face": ["K", "Q"], "Suit": ["S", "H"]})
    deck = uniform_deck(spec)
    cards = ("/".join(f"{name}={values[x]}" for (name, values), x in zip(spec.variables, row))
             for row in deck.values.tolist())
    print("deck: one card each of", ", ".join(cards))

    show("repeat the same switch twice (off-diagonal terms vanish):",
         sequence_distribution(deck, ("Suit", "Suit")))
    print("repeatability audit:", "pass" if check_repeatability(deck) else "FAIL")

    show("Face then Suit:", sequence_distribution(deck, ("Face", "Suit")))
    show("Suit then Face (same joint frequencies):",
         sequence_distribution(deck, ("Suit", "Face")))

    show("Suit, Face, Suit -- the middle press re-randomizes Suit:",
         sequence_distribution(deck, ("Suit", "Face", "Suit")))

    witness = find_classicality_witness(deck)
    print(f"\nwitness run: {' -> '.join(str(o) for o in witness.sequence)} "
          f"(probability {witness.probability})")
    print(f"  {witness.violated_constraint}")
    print("  no assignment of fixed values to cards can produce this run.")

    print(f"\nMonte Carlo cross-check ({args.trials} trials, seed {args.seed}):")
    exact, counts = simulate_plan(deck, ("Suit", "Face", "Suit"), args.trials,
                                  RandomStream(args.seed))
    for (sequence, p), hits in zip(exact.items(), counts.tolist()):
        freq = hits / args.trials
        values = ",".join(o.value for o in sequence)
        print(f"  {values}: exact {p} = {float(p):.4f}, observed {freq:.4f}")


if __name__ == "__main__":
    main()
