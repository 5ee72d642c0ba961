"""Tests for the exception hierarchy."""

import pytest

from repro import exceptions


class TestHierarchy:
    @pytest.mark.parametrize(
        "name",
        [n for n in exceptions.__all__ if n != "ReproError"],
    )
    def test_everything_derives_from_repro_error(self, name):
        cls = getattr(exceptions, name)
        assert issubclass(cls, exceptions.ReproError)

    def test_validation_error_is_value_error(self):
        assert issubclass(exceptions.ValidationError, ValueError)

    def test_routing_error_is_the_routing_family_base(self):
        """``except RoutingError`` must catch every routing failure mode."""
        for name in ("InvalidPathError", "NoPathError"):
            assert issubclass(getattr(exceptions, name), exceptions.RoutingError)

    def test_node_not_found_is_key_error(self):
        assert issubclass(exceptions.NodeNotFoundError, KeyError)
        err = exceptions.NodeNotFoundError("x")
        assert err.node == "x"
        assert "x" in str(err)

    def test_link_not_found_carries_link(self):
        err = exceptions.LinkNotFoundError(7)
        assert err.link == 7

    def test_no_path_error_carries_endpoints(self):
        err = exceptions.NoPathError("a", "b")
        assert err.source == "a"
        assert err.target == "b"

    def test_infeasible_attack_carries_solver_status(self):
        err = exceptions.InfeasibleAttackError("nope", solver_status="st")
        assert err.solver_status == "st"

    def test_one_base_catches_everything(self):
        """API contract: `except ReproError` at a boundary is sufficient."""
        with pytest.raises(exceptions.ReproError):
            raise exceptions.AttackConstraintError("x")
        with pytest.raises(exceptions.ReproError):
            raise exceptions.TomographyError("x")
        with pytest.raises(exceptions.ReproError):
            raise exceptions.SerializationError("x")
