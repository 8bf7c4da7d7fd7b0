"""Deck files: the JSON on-disk format for a spec plus a deck.

Schema (strict -- unknown keys are rejected so typos surface immediately):

    {
      "variables": [{"name": "Face", "values": ["K", "Q"]}, ...],
      "cards": [{"assignment": {"Face": "K", "Suit": "S"}, "count": 1}, ...]
    }

Counts must be integers >= 1.  Two card objects with the same assignment
are merged by summing their counts (a deck is a multiset).  A file is read
into a ``Deck`` and written from one: each card's row of value indices and
the labels of ``deck.spec``.
"""

from __future__ import annotations

import json
import operator
from typing import Union

from .cardbox import Deck, SystemSpec
from .errors import InvariantError, ValidationError

_TOP_KEYS = {"variables", "cards"}
_VARIABLE_KEYS = {"name", "values"}
_CARD_KEYS = {"assignment", "count"}


def parse_deck_file(data: Union[bytes, str]) -> Deck:
    """Parse and validate a deck document; errors name the offending field."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, too many digits
        raise ValidationError(f"not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise ValidationError("$: top level must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ValidationError(f"{key}: unknown key")
    for key in _TOP_KEYS:
        if key not in doc:
            raise ValidationError(f"{key}: missing")

    return _parse_cards(doc["cards"], _parse_variables(doc["variables"]))


def _parse_variables(raw) -> SystemSpec:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("variables: must be a nonempty array")
    variables = []
    for i, item in enumerate(raw):
        where = f"variables[{i}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{where}: must be an object")
        for key in item:
            if key not in _VARIABLE_KEYS:
                raise ValidationError(f"{where}.{key}: unknown key")
        name = item.get("name")
        values = item.get("values")
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}.name: must be a nonempty string")
        if (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, str) and v for v in values)
        ):
            raise ValidationError(
                f"{where}.values: must be a nonempty array of nonempty strings"
            )
        variables.append((name, tuple(values)))
    return SystemSpec(tuple(variables))


def _parse_cards(raw, spec: SystemSpec) -> Deck:
    """Cards by one ``itemgetter`` over the variable names and one dict lookup per value; only
    a card that fails it goes through the field-by-field checks, which name its first fault."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError("cards: must be a nonempty array")
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
            raise ValidationError(f"{where}: must be an object")
        for key in item:
            if key not in _CARD_KEYS:
                raise ValidationError(f"{where}.{key}: unknown key")
        assignment, count = item.get("assignment"), item.get("count")
        if not isinstance(assignment, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
        ):
            raise ValidationError(
                f"{where}.assignment: must be an object mapping variables to values"
            )
        if type(count) is not int or count < 1:
            raise ValidationError(f"{where}.count: must be an integer >= 1")
        try:  # the assignment's first fault: an unknown variable, else a missing one, else a value
            for variable in assignment:
                spec.variable_index(variable)
            for name in names:
                if name not in assignment:
                    raise ValidationError(f"no value for variable {name!r}")
                spec.value_index(name, assignment[name])
        except ValidationError as exc:
            raise ValidationError(f"{where}.assignment: {exc}") from exc
        raise InvariantError(f"{where} failed the lookup but passes every check")
    return Deck(spec, counts.keys(), counts.values())


def serialize_deck_file(deck: Deck) -> str:
    """Canonical JSON for a deck and its spec; parse(serialize(x)) == x."""
    variables = deck.spec.variables
    assignments = [
        {name: values[x] for (name, values), x in zip(variables, row)} for row in deck.values.tolist()
    ]
    doc = {
        "variables": [{"name": name, "values": list(values)} for name, values in variables],
        "cards": [{"assignment": a, "count": n} for a, n in zip(assignments, deck.counts.tolist())],
    }
    return json.dumps(doc, indent=2) + "\n"
