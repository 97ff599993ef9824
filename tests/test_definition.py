"""Definition file parsing and loading."""

import json
from fractions import Fraction

import pytest

from lieranders import DefinitionError, catalog, load_definition, parse_definition
from lieranders.riemann import identity_metric

from conftest import QUATERNION_TRIPLE

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
    assert defn.metric.gram == identity_metric(4).gram
    assert defn.hypercomplex is None


def test_load_definition(tmp_path):
    # every field, as "p/q" strings and as JSON integers
    doc = json.loads(CASE4_TEXT)
    doc["metric"] = [["2", "1/2", 0, 0], ["1/2", "1", 0, 0], [0, 0, 1, 0], [0, 0, 0, "3"]]
    doc["hypercomplex"] = QUATERNION_TRIPLE.matrices()
    path = tmp_path / "case4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    defn = load_definition(path)
    assert defn.algebra.structure == catalog(4).structure
    assert defn.algebra.labels == ("X", "Y", "Z", "W")
    half = Fraction(1, 2)
    assert defn.metric.gram == ((2, half, 0, 0), (half, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))
    assert defn.q_field == (half, 0, 0, 0)
    assert defn.hypercomplex == QUATERNION_TRIPLE


def test_default_labels():
    defn = parse_definition('{"dim": 2, "brackets": []}')
    assert defn.algebra.labels == ("e0", "e1")


@pytest.mark.parametrize(
    "labels",
    [["X", "X", "X", "X"], ["X", "Y", "Z", "X"], ["X", "", "Z", "W"]],
    ids=["all-repeated", "one-repeated", "empty"],
)
def test_labels_must_be_distinct_and_non_empty(labels):
    # evidence names basis vectors by label: "nabla_X Q = -1/2*X" must be unambiguous
    text = CASE4_TEXT.replace('["X", "Y", "Z", "W"]', json.dumps(labels))
    with pytest.raises(DefinitionError, match=r"^labels: expected 4 distinct non-empty strings$"):
        parse_definition(text)


@pytest.mark.parametrize(
    "k, label",
    [
        (1, "1/2*X"),
        (1, "X "),
        (2, "Y Z"),
        (3, "2"),
        (0, "-X"),
        (2, "X+Y"),
        (1, "X,Y"),
        (3, "f(X)"),
        (0, "X=Y"),
    ],
    ids=["operator", "trailing-space", "inner-space", "digit", "minus", "plus", "comma",
         "parens", "equals"],
)
def test_labels_must_be_identifiers(k, label):
    # evidence is written as "1/2*X + Y": a label "1/2*X" would print as
    # "1/2*1/2*X", and a label "2" as "1/2*2"
    labels = ["X", "Y", "Z", "W"]
    labels[k] = label
    text = CASE4_TEXT.replace('["X", "Y", "Z", "W"]', json.dumps(labels))
    with pytest.raises(DefinitionError) as exc:
        parse_definition(text)
    assert str(exc.value) == f"labels[{k}]: {label!r} is not an identifier"


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
