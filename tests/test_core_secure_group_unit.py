"""Unit-level tests of SecureGroupMember internals."""

import inspect
import typing

import pytest

from repro.core import SecureSpreadFramework, secure_group
from repro.core.secure_group import _message_bytes, sorted_repr
from repro.crypto import rsa
from repro.gcs.topology import lan_testbed
from repro.protocols.base import ProtocolMessage


def _framework(**kwargs):
    defaults = dict(dh_group="dh-test")
    defaults.update(kwargs)
    return SecureSpreadFramework(lan_testbed(), default_protocol="BD", **defaults)


def _defined_functions(module):
    """Every function the module itself defines: top-level ones and the
    methods (plain or behind a property) of its own classes."""
    found = {}
    for owner in [module] + [
        cls for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    ]:
        for name, value in vars(owner).items():
            value = getattr(value, "fget", value)
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[value.__qualname__] = value
    return found


_SECURE_GROUP_FUNCTIONS = _defined_functions(secure_group)


@pytest.mark.parametrize("qualname", sorted(_SECURE_GROUP_FUNCTIONS))
def test_annotations_resolve(qualname):
    # An annotation naming something the module never imported only
    # fails when somebody evaluates it; evaluate them all.
    typing.get_type_hints(_SECURE_GROUP_FUNCTIONS[qualname])


class TestSigning:
    def test_message_bytes_deterministic(self):
        a = ProtocolMessage("BD", (1, 1), "bd-z", "alice", {"z": 5, "a": 1})
        b = ProtocolMessage("BD", (1, 1), "bd-z", "alice", {"a": 1, "z": 5})
        assert _message_bytes(a) == _message_bytes(b)

    def test_message_bytes_sensitive_to_content(self):
        a = ProtocolMessage("BD", (1, 1), "bd-z", "alice", {"z": 5})
        b = ProtocolMessage("BD", (1, 1), "bd-z", "alice", {"z": 6})
        c = ProtocolMessage("BD", (1, 2), "bd-z", "alice", {"z": 5})
        assert _message_bytes(a) != _message_bytes(b)
        assert _message_bytes(a) != _message_bytes(c)

    def test_sorted_repr_handles_mixed_keys(self):
        assert sorted_repr({"b": 1, "a": 2}) == sorted_repr({"a": 2, "b": 1})

    def test_forged_signature_rejected_with_real_crypto(self):
        fw = _framework(sign_for_real=True, rsa_bits=256)
        a = fw.member("a", 0)
        b = fw.member("b", 1)
        a.join()
        fw.run_until_idle()
        b.join()
        fw.run_until_idle()
        assert a.key_bytes == b.key_bytes
        # Inject a forged protocol message claiming to come from 'a'.
        forged = ProtocolMessage(
            "BD", b.protocol.view.view_id, "bd-z", "a", {"z": 1234}
        )
        before = b.protocol.ledger.snapshot()
        b._handle_protocol_message("a", forged, signature=99999)
        delta = b.protocol.ledger.delta_since(before)
        assert delta.verifications == 1  # it was checked...
        assert delta.exp_count() == 0  # ...and dropped before processing

    def test_signature_cost_charged_even_without_real_crypto(self):
        fw = _framework(sign_for_real=False)
        a = fw.member("a", 0)
        b = fw.member("b", 1)
        a.join()
        fw.run_until_idle()
        b.join()
        fw.run_until_idle()
        snap = a.protocol.ledger.snapshot()
        assert snap.signatures >= 1
        assert snap.verifications >= 1


class TestLazyKeys:
    """RSA key pairs are resolved on first use, not at construction."""

    def test_charged_only_signing_never_generates_a_key(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("an RSA key pair was generated")

        # An empty cache, so a key an earlier test left behind cannot
        # hide an eager lookup.
        monkeypatch.setattr(rsa, "_KEY_CACHE", {})
        monkeypatch.setattr(rsa, "generate_rsa_keypair", refuse)
        fw = _framework(sign_for_real=False)
        members = fw.spawn_members(4)
        for member in members:
            member.join()
            fw.run_until_idle()
        members[1].leave()
        fw.run_until_idle()
        rest = [m for m in members if m is not members[1]]
        assert len({m.key_bytes for m in rest}) == 1
        assert rest[0].protocol.ledger.snapshot().signatures >= 1
        assert rsa._KEY_CACHE == {}

    def test_real_signing_uses_the_deterministic_slot_key(self, monkeypatch):
        monkeypatch.setattr(rsa, "_KEY_CACHE", {})
        fw = _framework(sign_for_real=True, rsa_bits=256)
        members = fw.spawn_members(3)
        assert rsa._KEY_CACHE == {}  # nothing until somebody signs
        verified = []
        public_key_of = fw.public_key_of

        def recording(name):
            verified.append(name)
            return public_key_of(name)

        monkeypatch.setattr(fw, "public_key_of", recording)
        for member in members:
            member.join()
            fw.run_until_idle()
        members[0].leave()
        fw.run_until_idle()
        assert members[1].key_bytes == members[2].key_bytes is not None
        # Every sender's signature was checked against its framework key.
        assert {"m0", "m1", "m2"} <= set(verified)
        # The deterministic (bits, slot) key of the member's machine slot.
        for slot, member in enumerate(members):
            assert member._keypair is rsa.cached_rsa_keypair(256, slot)
            assert public_key_of(member.name) == member._keypair.public
            assert member._signer.keypair is member._keypair


class TestStateGuards:
    def test_key_bytes_none_before_first_epoch(self):
        fw = _framework()
        member = fw.member("solo", 0)
        assert member.key_bytes is None
        assert not member.is_secure

    def test_send_before_keyed_is_queued_not_lost(self):
        fw = _framework()
        a = fw.member("a", 0)
        b = fw.member("b", 1)
        a.join()
        b.join()
        a.send_secure(b"early bird")  # queued: epoch not established yet
        fw.run_until_idle()
        assert ("a", b"early bird") in b.inbox

    def test_secure_views_recorded_in_order(self):
        fw = _framework()
        members = fw.spawn_members(3)
        for member in members:
            member.join()
            fw.run_until_idle()
        sizes = [len(v.members) for v in members[0].secure_views]
        assert sizes == sorted(sizes)

    def test_unknown_payload_kind_raises(self):
        fw = _framework()
        member = fw.member("solo", 0)
        member.join()
        fw.run_until_idle()
        from repro.gcs.messages import GroupMessage

        bogus = GroupMessage(group="secure-group", sender="x",
                             payload=("mystery", 1))
        with pytest.raises(ValueError):
            member._on_message(member.client, bogus)
