import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dofcount import Card, Deck, SystemSpec, parse_deck_file, serialize_deck_file, uniform_deck
from dofcount.errors import (
    DuplicateNameError,
    IncompleteAssignmentError,
    MalformedJsonError,
    SchemaViolationError,
    UnknownValueError,
    UnknownVariableError,
    ValidationError,
)

FOUR_CARD_DOC = {
    "variables": [
        {"name": "Face", "values": ["K", "Q"]},
        {"name": "Suit", "values": ["S", "H"]},
    ],
    "cards": [
        {"assignment": {"Face": "K", "Suit": "S"}, "count": 1},
        {"assignment": {"Face": "K", "Suit": "H"}, "count": 1},
        {"assignment": {"Face": "Q", "Suit": "S"}, "count": 1},
        {"assignment": {"Face": "Q", "Suit": "H"}, "count": 1},
    ],
}


def doc_bytes(**overrides):
    doc = {**FOUR_CARD_DOC, **overrides}
    return json.dumps(doc).encode()


def test_parses_four_card_document():
    spec, deck = parse_deck_file(doc_bytes())
    assert spec.num_variables == 2
    assert spec.values_per_variable == 2
    assert len(deck.entries) == 4
    assert deck.total == 4


def test_zero_count_rejected():
    doc = doc_bytes(cards=[{"assignment": {"Face": "K", "Suit": "S"}, "count": 0}])
    with pytest.raises(SchemaViolationError) as err:
        parse_deck_file(doc)
    assert "count" in str(err.value)


def test_unknown_key_rejected():
    doc = doc_bytes(cards=[
        {"assignment": {"Face": "K", "Suit": "S"}, "count": 1, "color": "red"}
    ])
    with pytest.raises(SchemaViolationError) as err:
        parse_deck_file(doc)
    assert "color" in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaViolationError) as err:
        parse_deck_file(doc_bytes(notes="hello"))
    assert "notes" in str(err.value)


def test_missing_section_rejected():
    doc = {"variables": FOUR_CARD_DOC["variables"]}
    with pytest.raises(SchemaViolationError) as err:
        parse_deck_file(json.dumps(doc).encode())
    assert "cards" in str(err.value)


def test_malformed_json():
    with pytest.raises(MalformedJsonError):
        parse_deck_file(b"{not json")


def test_unknown_variable_in_assignment():
    doc = doc_bytes(cards=[{"assignment": {"Face": "K", "Rank": "2"}, "count": 1}])
    with pytest.raises(SchemaViolationError) as err:
        parse_deck_file(doc)
    assert "cards[0].assignment" in str(err.value)


def test_missing_variable_in_assignment():
    doc = doc_bytes(cards=[{"assignment": {"Face": "K"}, "count": 1}])
    with pytest.raises(SchemaViolationError):
        parse_deck_file(doc)


def test_bad_count_type():
    doc = doc_bytes(cards=[{"assignment": {"Face": "K", "Suit": "S"}, "count": True}])
    with pytest.raises(SchemaViolationError):
        parse_deck_file(doc)


def test_duplicate_variable_name_propagates():
    doc = doc_bytes(variables=[
        {"name": "Face", "values": ["K", "Q"]},
        {"name": "Face", "values": ["S", "H"]},
    ])
    with pytest.raises(DuplicateNameError):
        parse_deck_file(doc)


def test_duplicate_assignments_merge_counts():
    doc = doc_bytes(cards=[
        {"assignment": {"Face": "K", "Suit": "S"}, "count": 1},
        {"assignment": {"Face": "K", "Suit": "S"}, "count": 2},
    ])
    _spec, deck = parse_deck_file(doc)
    assert len(deck.entries) == 1
    assert deck.total == 3


def test_value_names_may_repeat_across_variables():
    doc = doc_bytes(
        variables=[
            {"name": "A", "values": ["x", "y"]},
            {"name": "B", "values": ["x", "y"]},
        ],
        cards=[{"assignment": {"A": "x", "B": "x"}, "count": 1}],
    )
    spec, deck = parse_deck_file(doc)
    assert spec.values_of("A") == spec.values_of("B") == ("x", "y")
    assert deck.total == 1


def test_round_trip(four_card_spec, weighted_deck):
    text = serialize_deck_file(four_card_spec, weighted_deck)
    spec, deck = parse_deck_file(text)
    assert spec == four_card_spec
    assert deck == weighted_deck


def test_round_trip_uniform(four_card_spec):
    deck = uniform_deck(four_card_spec)
    spec2, deck2 = parse_deck_file(serialize_deck_file(four_card_spec, deck))
    assert (spec2, deck2) == (four_card_spec, deck)


@pytest.mark.parametrize(
    "assignment, error, message",
    [
        ({"Rank": "2"}, UnknownVariableError, "unknown variable 'Rank'"),  # before missing ones
        ({"Face": "K", "Suit": "S", "Rank": "2"}, UnknownVariableError, "unknown variable 'Rank'"),
        ({"Suit": "X"}, IncompleteAssignmentError, "no value for variable 'Face'"),
        ({"Face": "X", "Suit": "Y"}, UnknownValueError, "unknown value 'X' for variable 'Face'"),
        ({"Face": "K", "Suit": "K"}, UnknownValueError, "unknown value 'K' for variable 'Suit'"),
    ],
)
def test_assignment_fault_names_its_card(assignment, error, message):
    doc = doc_bytes(cards=[
        {"assignment": {"Face": "K", "Suit": "S"}, "count": 1},
        {"assignment": assignment, "count": 1},
        {"assignment": {"Face": "Z"}, "count": 1},  # a later fault is not reached
    ])
    with pytest.raises(SchemaViolationError) as err:
        parse_deck_file(doc)
    assert str(err.value) == f"cards[1].assignment: {message}"
    assert type(err.value.__cause__) is error


SPEC_DOC = FOUR_CARD_DOC["variables"]
VALID_ASSIGNMENTS = st.fixed_dictionaries(
    {"Face": st.sampled_from(["K", "Q"]), "Suit": st.sampled_from(["S", "H"])}
)
ASSIGNMENTS = st.one_of(
    VALID_ASSIGNMENTS,
    VALID_ASSIGNMENTS,
    VALID_ASSIGNMENTS,  # mostly valid cards, so most decks parse
    st.dictionaries(
        st.sampled_from(["Face", "Suit", "Rank"]), st.sampled_from(["K", "Q", "S", "H", "2"]),
        max_size=3,
    ),
)


@given(st.lists(st.tuples(ASSIGNMENTS, st.integers(1, 3)), min_size=1, max_size=6))
def test_cards_parse_as_card_by_card_lookups(cards):
    # oracle: Card.from_assignment on each card in turn, counts merged by Card
    spec = SystemSpec(tuple((v["name"], tuple(v["values"])) for v in SPEC_DOC))
    counts, fault = {}, None
    for i, (assignment, count) in enumerate(cards):
        try:
            card = Card.from_assignment(spec, assignment)
        except ValidationError as exc:
            fault = f"cards[{i}].assignment: {exc}", type(exc)
            break
        counts[card] = counts.get(card, 0) + count
    doc = doc_bytes(cards=[{"assignment": a, "count": c} for a, c in cards])
    if fault is not None:
        with pytest.raises(SchemaViolationError) as err:
            parse_deck_file(doc)
        assert (str(err.value), type(err.value.__cause__)) == fault
        return
    _spec, deck = parse_deck_file(doc)
    assert deck == Deck.from_counts(spec, counts)
    rebuilt = Deck(spec, deck.entries)  # no index cache: arrays looks every card up
    for parsed, looked_up in zip(deck.arrays, rebuilt.arrays):
        assert parsed.tolist() == looked_up.tolist()
