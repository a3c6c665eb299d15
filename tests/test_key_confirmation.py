"""Tests for the key-confirmation variant of TGDH and STR (paper §5).

"Current implementations of TGDH and STR re-compute a blinded key even
though it has been computed already by the sponsor.  This provides a form
of key confirmation ...  This computation, however, can be removed for
better efficiency, and we consider this optimization when counting the
number of exponentiations."  We implement both variants; the default (and
everything the benchmarks measure) is the optimized one.
"""

import pytest

from repro.protocols.loopback import LoopbackGroup
from repro.protocols.str_protocol import StrProtocol
from repro.protocols.str_protocol import KeyConfirmationError as StrConfirmError
from repro.protocols.tgdh import TgdhProtocol
from repro.protocols.tgdh import KeyConfirmationError as TgdhConfirmError


def _confirming(cls):
    class Confirming(cls):
        def __init__(self, member, group, rng, engine=None):
            super().__init__(
                member, group, rng, engine=engine, key_confirmation=True
            )

    Confirming.name = cls.name
    return Confirming


def _grow(cls, size):
    loop = LoopbackGroup(cls)
    for i in range(size):
        loop.join(f"m{i}")
    return loop


@pytest.mark.parametrize(
    "protocol_cls", [TgdhProtocol, StrProtocol], ids=["TGDH", "STR"]
)
class TestConfirmationVariant:
    def test_agreement_still_holds(self, protocol_cls):
        loop = _grow(_confirming(protocol_cls), 6)
        loop.shared_key()
        loop.leave("m2")
        loop.shared_key()
        loop.join("x")
        loop.shared_key()

    def test_confirmation_costs_more_exponentiations(self, protocol_cls):
        plain = _grow(protocol_cls, 8)
        confirming = _grow(_confirming(protocol_cls), 8)
        plain_stats = plain.leave("m4")
        confirm_stats = confirming.leave("m4")
        assert (
            confirm_stats.exponentiations() > plain_stats.exponentiations()
        )

    def test_same_key_as_plain_variant(self, protocol_cls):
        """Confirmation only adds checks — the agreed key is unchanged."""
        plain = _grow(protocol_cls, 5)
        confirming = _grow(_confirming(protocol_cls), 5)
        assert plain.shared_key() == confirming.shared_key()


class TestConfirmationDetectsCorruption:
    def test_tgdh_detects_corrupted_blinded_key(self):
        loop = _grow(_confirming(TgdhProtocol), 4)
        member = loop.protocols["m0"]
        # Corrupt a published blinded key on m0's path, then force a
        # recompute by invalidating the keys at and above it.
        path = member._tree.path("m0")
        target = path[1]
        target.bkey = (target.bkey or 2) + 1
        target.key = None
        path[-1].key = None
        with pytest.raises(TgdhConfirmError):
            member._compute_path_keys()

    def test_str_detects_corrupted_blinded_key(self):
        loop = _grow(_confirming(StrProtocol), 4)
        member = loop.protocols["m0"]
        top = len(member._order)
        member._bk[top] = member._bk[top] + 1
        member._keys.pop(top, None)
        with pytest.raises(StrConfirmError):
            member._compute_chain(publish=False)
