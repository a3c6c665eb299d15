"""Tests for the protocol registry (`repro.protocols.register/available`)."""

import warnings

import pytest

from repro.bench.cli import build_subcommand_parser
from repro.protocols import (
    KeyAgreementProtocol,
    TgdhProtocol,
    available,
    get_protocol,
    register,
    unregister,
)


class DummyProtocol(KeyAgreementProtocol):
    name = "DUMMY"


def test_available_lists_the_papers_five_sorted():
    names = available()
    assert names == ("BD", "CKD", "GDH", "STR", "TGDH")
    assert list(names) == sorted(names)


def test_get_protocol_is_case_insensitive():
    assert get_protocol("tgdh") is get_protocol("TGDH") is TgdhProtocol


def test_get_protocol_names_the_choices_on_error():
    with pytest.raises(ValueError, match="choose from"):
        get_protocol("NOPE")


def test_register_and_unregister_roundtrip():
    register("DUMMY", DummyProtocol)
    try:
        assert "DUMMY" in available()
        assert get_protocol("dummy") is DummyProtocol
    finally:
        unregister("DUMMY")
    assert "DUMMY" not in available()


def test_register_rejects_non_protocol_classes():
    with pytest.raises(TypeError, match="KeyAgreementProtocol subclass"):
        register("BAD", object)


def test_register_same_class_is_idempotent():
    register("TGDH", TgdhProtocol)  # no-op, no error
    assert get_protocol("TGDH") is TgdhProtocol


def test_register_refuses_to_shadow_without_replace():
    with pytest.raises(ValueError, match="already registered"):
        register("TGDH", DummyProtocol)
    assert get_protocol("TGDH") is TgdhProtocol


def test_register_replace_rebinds_and_restores():
    register("TGDH", DummyProtocol, replace=True)
    try:
        assert get_protocol("TGDH") is DummyProtocol
    finally:
        register("TGDH", TgdhProtocol, replace=True)
    assert get_protocol("TGDH") is TgdhProtocol


def test_register_attaches_step_phases():
    phases = {"dummy-round": "broadcast"}
    register("DUMMY", DummyProtocol, phases=phases)
    try:
        assert DummyProtocol.STEP_PHASES == phases
    finally:
        unregister("DUMMY")


def test_unregister_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown protocol"):
        unregister("NOPE")


def test_protocols_mapping_iterates_silently():
    """Enumeration is ``available()``'s job now and stays warning-free;
    the deprecated ``PROTOCOLS`` mapping view is gone outright."""
    import repro.protocols

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(available()) == sorted(available())
        assert "TGDH" in available()
    assert not hasattr(repro.protocols, "PROTOCOLS")


def test_registered_protocol_appears_in_cli_choices():
    """The acceptance demo: registering a protocol makes it a valid
    ``--protocols`` choice everywhere, with no CLI edits."""
    register("DUMMY", DummyProtocol)
    try:
        parser = build_subcommand_parser()
        args = parser.parse_args(["load", "--protocols", "DUMMY", "TGDH"])
        assert args.protocols == ["DUMMY", "TGDH"]
    finally:
        unregister("DUMMY")
    with pytest.raises(SystemExit):
        build_subcommand_parser().parse_args(["load", "--protocols", "DUMMY"])
