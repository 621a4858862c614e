"""The batch term-list decoder against the per-label path it replaced.

``terms_from_dict`` reads every label of a term list in one array pass;
the oracle here is the old decoder, one ``PauliTerm.from_label`` per
label.  Both must give the same labels, bit-equal coefficients and
``+1``-signed strings whose ``x``/``z`` are fresh 1-D bool arrays.
"""

import itertools
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.paulis.pauli import PauliTerm
from repro.serialize import terms_from_dict, terms_to_dict

FIXTURES = Path(__file__).parent / "fixtures"


def oracle_terms(data):
    """The per-label decoder: one ``PauliTerm.from_label`` per label."""
    return [
        PauliTerm.from_label(label, coeff)
        for label, coeff in zip(data["labels"], data["coefficients"])
    ]


def bits(value):
    return struct.pack("<d", value)


def assert_matches_oracle(data):
    decoded = terms_from_dict(data)
    expected = oracle_terms(data)
    assert [t.to_label() for t in decoded] == [t.to_label() for t in expected]
    assert [bits(t.coefficient) for t in decoded] == [bits(t.coefficient) for t in expected]
    for term, reference in zip(decoded, expected):
        string = term.string
        assert string.sign == 1
        for row, ref in ((string.x, reference.string.x), (string.z, reference.string.z)):
            assert row.dtype == bool and row.shape == ref.shape == (len(data["labels"][0]),)
            np.testing.assert_array_equal(row, ref)
    arrays = [a for t in decoded for a in (t.string.x, t.string.z)]
    for first, second in itertools.combinations(arrays, 2):
        assert not np.shares_memory(first, second)
    return decoded


pauli_char = st.sampled_from("IXYZixyz")
coefficient = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0])
)


@st.composite
def term_lists(draw):
    width = draw(st.integers(1, 64))
    labels = draw(
        st.lists(st.text(pauli_char, min_size=width, max_size=width), max_size=12)
    )
    coeffs = draw(st.lists(coefficient, min_size=len(labels), max_size=len(labels)))
    return {"num_qubits": width, "labels": labels, "coefficients": coeffs}


@settings(max_examples=150, deadline=None)
@given(term_lists())
def test_batch_decode_matches_the_per_label_path(data):
    assert_matches_oracle(data)


@pytest.mark.parametrize(
    "labels, coeffs",
    [
        pytest.param([], [], id="empty"),
        pytest.param(["IIII", "iiii"], [0.5, -0.5], id="all-identity"),
        pytest.param(["xyzI", "ZYXi"], [-0.0, 0.0], id="lowercase-signed-zero"),
        pytest.param(["Y" * 64], [1e-300], id="width-64"),
    ],
)
def test_edge_cases_match_the_per_label_path(labels, coeffs):
    decoded = assert_matches_oracle(
        {"num_qubits": len(labels[0]) if labels else 0, "labels": labels, "coefficients": coeffs}
    )
    assert len(decoded) == len(labels)


@pytest.mark.parametrize("name", ["v1_grid_2x3", "v1_logical_cnot", "v1_logical_su4"])
def test_v1_fixture_terms_match_the_per_label_path(name):
    payload = json.loads((FIXTURES / f"{name}.json").read_text())
    assert_matches_oracle(payload["implemented_terms"])


@settings(max_examples=50, deadline=None)
@given(term_lists())
def test_reencoding_gives_the_same_labels(data):
    again = terms_to_dict(terms_from_dict(data))
    assert again["labels"] == [label.upper() for label in data["labels"]]
    assert list(map(bits, again["coefficients"])) == list(map(bits, data["coefficients"]))


@pytest.mark.parametrize(
    "labels, coeffs, match",
    [
        pytest.param(["XQZ"], [0.1], "invalid Pauli character 'Q'", id="non-pauli"),
        pytest.param(["XéZ"], [0.1], "invalid Pauli character", id="non-ascii"),
        pytest.param(["X Z"], [0.1], "invalid Pauli character ' '", id="space"),
        pytest.param([3], [0.1], "must be a string", id="not-a-string"),
        pytest.param(["XY", "ZZ", "YY"], [0.1, 0.2], "one coefficient per label",
                     id="missing-coefficient"),
        pytest.param(["XY"], [0.1, 0.2], "one coefficient per label", id="extra-coefficient"),
        pytest.param(["XY", "ZZZ"], [0.1, 0.2], "same length", id="ragged"),
    ],
)
def test_malformed_term_lists_raise(labels, coeffs, match):
    with pytest.raises(ValueError, match=match):
        terms_from_dict({"num_qubits": 2, "labels": labels, "coefficients": coeffs})
