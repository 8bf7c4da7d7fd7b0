"""Deck files: the JSON on-disk format for a spec plus a deck.

Schema (strict -- unknown keys are rejected so typos surface immediately):

    {
      "variables": [{"name": "Face", "values": ["K", "Q"]}, ...],
      "cards": [{"assignment": {"Face": "K", "Suit": "S"}, "count": 1}, ...]
    }

Counts must be integers >= 1.  Two card objects with the same assignment
are merged by summing their counts (a deck is a multiset).
"""

from __future__ import annotations

import json
import operator
from typing import Union

from .cardbox import Card, Deck, SystemSpec
from .errors import InvariantError, MalformedJsonError, SchemaViolationError, ValidationError

_TOP_KEYS = {"variables", "cards"}
_VARIABLE_KEYS = {"name", "values"}
_CARD_KEYS = {"assignment", "count"}


def parse_deck_file(data: Union[bytes, str]) -> tuple[SystemSpec, Deck]:
    """Parse and validate a deck document; errors name the offending field."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, too many digits
        raise MalformedJsonError(f"not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise SchemaViolationError("$", "top level must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaViolationError(key, "unknown key")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SchemaViolationError(key, "missing")

    spec = _parse_variables(doc["variables"])
    deck = _parse_cards(doc["cards"], spec)
    return spec, deck


def _parse_variables(raw) -> SystemSpec:
    if not isinstance(raw, list) or not raw:
        raise SchemaViolationError("variables", "must be a nonempty array")
    variables = []
    for i, item in enumerate(raw):
        where = f"variables[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(where, "must be an object")
        for key in item:
            if key not in _VARIABLE_KEYS:
                raise SchemaViolationError(f"{where}.{key}", "unknown key")
        name = item.get("name")
        values = item.get("values")
        if not isinstance(name, str) or not name:
            raise SchemaViolationError(f"{where}.name", "must be a nonempty string")
        if (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, str) and v for v in values)
        ):
            raise SchemaViolationError(
                f"{where}.values", "must be a nonempty array of nonempty strings"
            )
        variables.append((name, tuple(values)))
    return SystemSpec(tuple(variables))


def _parse_cards(raw, spec: SystemSpec) -> Deck:
    """Cards by one ``itemgetter`` over the variable names and one dict lookup per value; only
    a card that fails it goes through the field-by-field checks, which name its first fault."""
    if not isinstance(raw, list) or not raw:
        raise SchemaViolationError("cards", "must be a nonempty array")
    names, positions = spec.variable_names, spec._value_positions
    read = operator.itemgetter(*names, names[0])  # a tuple even for V = 1; map stops at V
    counts: dict[tuple[int, ...], int] = {}  # value indices -> count
    for i, item in enumerate(raw):
        try:  # exactly the two keys, every variable once and a count >= 1 (bool is no int)
            assignment, count = item["assignment"], item["count"]
            index = tuple(map(dict.__getitem__, positions, read(assignment)))
            valid = len(item) == 2 and len(assignment) == len(names) and type(count) is int
        except (KeyError, TypeError):  # a missing key, variable or value, or not an object
            valid = False
        if valid and count > 0:
            counts[index] = counts.get(index, 0) + count
            continue
        where = f"cards[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(where, "must be an object")
        for key in item:
            if key not in _CARD_KEYS:
                raise SchemaViolationError(f"{where}.{key}", "unknown key")
        assignment, count = item.get("assignment"), item.get("count")
        if not isinstance(assignment, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
        ):
            raise SchemaViolationError(
                f"{where}.assignment", "must be an object mapping variables to values"
            )
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise SchemaViolationError(f"{where}.count", "must be an integer >= 1")
        try:  # the fault is the assignment's: Card names its first one, in its own order
            Card.from_assignment(spec, assignment)
        except ValidationError as exc:
            raise SchemaViolationError(f"{where}.assignment", str(exc)) from exc
        raise InvariantError(f"{where} failed the lookup but passes every check")
    return Deck._from_indices(spec, counts)


def serialize_deck_file(spec: SystemSpec, deck: Deck) -> str:
    """Canonical JSON for a spec+deck; parse(serialize(x)) == x."""
    doc = {
        "variables": [
            {"name": name, "values": list(values)} for name, values in spec.variables
        ],
        "cards": [
            {"assignment": card.assignment, "count": count}
            for card, count in deck.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
