"""Unit tests for transaction classes."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.values.classes import TransactionClass


def make(**kwargs):
    defaults = dict(
        name="c", num_steps=16, write_probability=0.25, slack_factor=2.0
    )
    defaults.update(kwargs)
    return TransactionClass(**defaults)


def test_penalty_gradient_from_angle():
    assert make(alpha_degrees=45.0).penalty_gradient == pytest.approx(1.0)
    assert make(alpha_degrees=0.0).penalty_gradient == 0.0
    assert math.isinf(make(alpha_degrees=90.0).penalty_gradient)


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_steps", 0),
        ("write_probability", 1.5),
        ("write_probability", -0.1),
        ("slack_factor", 0.5),
        ("value", -1.0),
        ("alpha_degrees", 95.0),
        ("weight", 0.0),
    ],
)
def test_invalid_parameters_rejected(field, value):
    with pytest.raises(ConfigurationError):
        make(**{field: value})
