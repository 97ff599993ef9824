"""Definition file parsing, serialization and the exact round trip."""

from fractions import Fraction

import pytest

from lieranders import (
    DefinitionError,
    catalog,
    load_definition,
    parse_definition,
    save_definition,
    serialize_definition,
)
from lieranders.definition import DefinitionFile
from lieranders.hypercomplex import find_signed_permutation_triples
from lieranders.riemann import identity_metric

CASE4_TEXT = """
{
  "dim": 4,
  "labels": ["X", "Y", "Z", "W"],
  "brackets": [
    {"i": 0, "j": 1, "coeffs": ["0", "1", "0", "0"]},
    {"i": 0, "j": 2, "coeffs": ["0", "0", "1/2", "0"]},
    {"i": 0, "j": 3, "coeffs": ["0", "0", "0", "1/2"]},
    {"i": 2, "j": 3, "coeffs": ["0", "1/2", "0", "0"]}
  ],
  "Q": ["1/2", "0", "0", "0"]
}
"""


def test_parse_case4():
    defn = parse_definition(CASE4_TEXT)
    assert defn.algebra.structure == catalog(4).structure
    assert defn.q_field == (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    assert not defn.metric_given
    assert defn.metric.gram == identity_metric(4).gram


def test_round_trip_is_exact():
    triple = find_signed_permutation_triples(catalog(3), identity_metric(4))[0]
    defn = DefinitionFile(
        algebra=catalog(4),
        metric=identity_metric(4),
        q_field=(Fraction(1, 3), Fraction(0), Fraction(0), Fraction(0)),
        hypercomplex=triple,
        metric_given=True,
    )
    text = serialize_definition(defn)
    again = parse_definition(text)
    assert again.algebra.structure == defn.algebra.structure
    assert again.algebra.labels == defn.algebra.labels
    assert again.metric.gram == defn.metric.gram
    assert again.q_field == defn.q_field
    assert again.hypercomplex == defn.hypercomplex
    # serialize once more: byte-identical
    assert serialize_definition(again) == text


def test_save_and_load(tmp_path):
    defn = parse_definition(CASE4_TEXT)
    path = tmp_path / "case4.json"
    save_definition(defn, path)
    assert load_definition(path).algebra.structure == defn.algebra.structure


def test_default_labels():
    defn = parse_definition('{"dim": 2, "brackets": []}')
    assert defn.algebra.labels == ("e0", "e1")


def test_reversed_orientation_consistent():
    # giving (j, i) with the negated coefficients is accepted
    text = """
    {"dim": 2, "brackets": [
      {"i": 1, "j": 0, "coeffs": ["0", "-1"]}
    ]}
    """
    defn = parse_definition(text)
    assert defn.algebra.structure[0][1] == (Fraction(0), Fraction(1))


def test_conflicting_duplicate_rejected():
    text = """
    {"dim": 2, "brackets": [
      {"i": 0, "j": 1, "coeffs": ["0", "1"]},
      {"i": 1, "j": 0, "coeffs": ["0", "1"]}
    ]}
    """
    with pytest.raises(DefinitionError, match="conflicts"):
        parse_definition(text)


def test_error_locations():
    with pytest.raises(DefinitionError, match="line"):
        parse_definition("{ not json")
    with pytest.raises(DefinitionError, match="dim"):
        parse_definition('{"dim": -1}')
    with pytest.raises(DefinitionError, match=r"brackets\[0\]\.coeffs\[1\]"):
        parse_definition(
            '{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "bad"]}]}'
        )
    with pytest.raises(DefinitionError, match="metric"):
        parse_definition('{"dim": 2, "brackets": [], "metric": [["1","2"],["2","1"]]}')
    with pytest.raises(DefinitionError, match="Q"):
        parse_definition('{"dim": 2, "brackets": [], "Q": ["1"]}')
    with pytest.raises(DefinitionError, match="integer or 'p/q'"):
        parse_definition('{"dim": 2, "brackets": [], "Q": [0.5, 1]}')
    with pytest.raises(DefinitionError, match="hypercomplex"):
        parse_definition('{"dim": 2, "brackets": [], "hypercomplex": []}')


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"dim": true}', r"dim: .* got True"),
        ('{"dim": false}', r"dim: .* got False"),
        ('{"dim": 2, "brackets": [{"i": false, "j": true, "coeffs": ["1", "0"]}]}',
         r"brackets\[0\]\.i: False"),
        ('{"dim": 3, "brackets": [{"i": 2, "j": true, "coeffs": ["1", "0", "0"]}]}',
         r"brackets\[0\]\.j: True"),
    ],
    ids=["dim-true", "dim-false", "i-false", "j-true"],
)
def test_json_booleans_are_not_integers(text, field):
    # bool is an int subclass in Python; a JSON true must not load as 1
    with pytest.raises(DefinitionError, match=field):
        parse_definition(text)
