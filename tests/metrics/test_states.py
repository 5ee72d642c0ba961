"""Tests for the link-state classifier (Definition 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.metrics.states import (
    LinkState,
    StateThresholds,
    classify_metric,
    classify_vector,
)


class TestThresholds:
    def test_paper_defaults(self):
        t = StateThresholds()
        assert t.lower == 100.0
        assert t.upper == 800.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            StateThresholds(lower=-1.0, upper=5.0)
        with pytest.raises(ValidationError):
            StateThresholds(lower=10.0, upper=5.0)
        with pytest.raises(ValidationError):
            StateThresholds(lower=float("nan"), upper=5.0)

    def test_out_of_order_bands_rejected(self):
        """Band order is checked once, when the bands are built, so
        ``diagnose`` never sees ``b_u < b_l``."""
        with pytest.raises(ValidationError, match="must be >= lower bound"):
            StateThresholds(lower=800.0, upper=100.0)

    def test_two_state_factory(self):
        t = StateThresholds.two_state(100.0)
        assert t.is_two_state
        assert t.lower == t.upper == 100.0

    def test_three_state_is_not_two_state(self):
        assert not StateThresholds().is_two_state


class TestClassification:
    @pytest.mark.parametrize(
        ("value", "state"),
        [
            (0.0, LinkState.NORMAL),
            (99.999, LinkState.NORMAL),
            (100.0, LinkState.UNCERTAIN),  # boundary belongs to uncertain
            (500.0, LinkState.UNCERTAIN),
            (800.0, LinkState.UNCERTAIN),
            (800.001, LinkState.ABNORMAL),
            (1e9, LinkState.ABNORMAL),
        ],
    )
    def test_definition_1(self, value, state):
        assert classify_metric(value, StateThresholds()) is state

    def test_two_state_boundary(self):
        t = StateThresholds.two_state(100.0)
        assert t.classify(99.0) is LinkState.NORMAL
        assert t.classify(100.0) is LinkState.UNCERTAIN  # single-point band
        assert t.classify(101.0) is LinkState.ABNORMAL

    def test_vector_classification(self):
        states = classify_vector(np.array([5.0, 500.0, 900.0]), StateThresholds())
        assert states == [LinkState.NORMAL, LinkState.UNCERTAIN, LinkState.ABNORMAL]

    @pytest.mark.parametrize(
        "thresholds", [StateThresholds(), StateThresholds.two_state(100.0)]
    )
    def test_vector_matches_scalar_at_the_bounds(self, thresholds):
        lower, upper = thresholds.lower, thresholds.upper
        values = np.array(
            [
                lower,
                upper,
                np.nextafter(lower, -np.inf),
                np.nextafter(upper, np.inf),
                (lower + upper) / 2,
                0.0,
                1e9,
                np.nan,
            ]
        )
        states = classify_vector(values, thresholds)
        assert states[:2] == [LinkState.UNCERTAIN, LinkState.UNCERTAIN]
        assert states[2:4] == [LinkState.NORMAL, LinkState.ABNORMAL]
        assert states == [thresholds.classify(float(value)) for value in values]

    def test_empty_vector(self):
        assert classify_vector(np.array([]), StateThresholds()) == []

    def test_vector_requires_1d(self):
        with pytest.raises(ValidationError):
            classify_vector(np.eye(2), StateThresholds())

    def test_state_str(self):
        assert str(LinkState.ABNORMAL) == "abnormal"


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0, 1000, allow_nan=False),
    st.floats(0, 500),
    st.floats(0, 500),
)
def test_classification_total_and_exclusive(value, lower, width):
    """Every value gets exactly one state, consistent with the bounds."""
    thresholds = StateThresholds(lower=lower, upper=lower + width)
    state = thresholds.classify(value)
    if state is LinkState.NORMAL:
        assert value < thresholds.lower
    elif state is LinkState.ABNORMAL:
        assert value > thresholds.upper
    else:
        assert thresholds.lower <= value <= thresholds.upper
