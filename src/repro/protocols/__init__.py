"""The group key agreement protocols, behind one registry.

The five protocols the paper evaluates (§4) ship registered; anything
else — hierarchical compositions, AGDH-style variants, test doubles —
plugs in through :func:`register` and immediately appears everywhere the
registry is read: the framework's per-group protocol table, every bench
CLI ``--protocol``/``--protocols`` choice list, and the workload engine.

* :mod:`repro.protocols.gdh` — Cliques GDH IKA.3, group Diffie-Hellman with
  a token round, factor-out round and partial-key-list broadcast.
* :mod:`repro.protocols.ckd` — Centralized Key Distribution from the oldest
  member over pairwise Diffie-Hellman channels.
* :mod:`repro.protocols.bd` — Burmester-Desmedt: two all-broadcast rounds,
  constant full exponentiations, hidden small-exponent cost.
* :mod:`repro.protocols.tgdh` — Tree-based group Diffie-Hellman on the
  binary key tree of :mod:`repro.protocols.keytree`.
* :mod:`repro.protocols.str_protocol` — STR, the fully imbalanced
  ("skinny") key tree.

:mod:`repro.protocols.loopback` drives protocol instances over an in-memory
ordered transport for correctness tests and operation counting.

The registry API:

* :func:`register` — add a protocol class under a (case-insensitive)
  name, optionally attaching the ``STEP_PHASES`` phase labels the
  critical-path report uses.
* :func:`available` — every registered name, sorted (the single source
  of truth for CLI choice lists and sweep defaults).
* :func:`get_protocol` — name → class, with the available names in the
  error message.
* :func:`unregister` — remove a registration (test support).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.protocols.base import (
    KeyAgreementProtocol,
    ProtocolMessage,
    classify_event,
)
from repro.protocols.bd import BdProtocol
from repro.protocols.ckd import CkdProtocol
from repro.protocols.gdh import GdhProtocol
from repro.protocols.loopback import LoopbackGroup
from repro.protocols.str_protocol import StrProtocol
from repro.protocols.tgdh import TgdhProtocol

#: name -> protocol class; mutated only through register/unregister.
_REGISTRY: Dict[str, Type[KeyAgreementProtocol]] = {}


def register(
    name: str,
    cls: Type[KeyAgreementProtocol],
    phases: Optional[Dict[str, str]] = None,
    replace: bool = False,
) -> Type[KeyAgreementProtocol]:
    """Register a protocol class under ``name`` (normalized to upper case).

    ``phases`` optionally sets the class's ``STEP_PHASES`` mapping (the
    per-message-step phase labels the critical-path report prints), so a
    protocol defined outside this package can declare them at
    registration time.  Re-registering the same class under the same
    name is a no-op; binding the name to a *different* class requires
    ``replace=True`` — silently shadowing a protocol would change what
    every benchmark measures.  Returns ``cls`` so it works as a
    decorator: ``@lambda c: register("HIER", c)`` style helpers aside,
    plain calls read best.
    """
    if not (isinstance(cls, type) and issubclass(cls, KeyAgreementProtocol)):
        raise TypeError(
            f"protocol {name!r} must be a KeyAgreementProtocol subclass, "
            f"got {cls!r}"
        )
    key = name.upper()
    current = _REGISTRY.get(key)
    if current is not None and current is not cls and not replace:
        raise ValueError(
            f"protocol {key!r} is already registered to "
            f"{current.__name__}; pass replace=True to rebind it"
        )
    if phases is not None:
        cls.STEP_PHASES = dict(phases)
    _REGISTRY[key] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a registration (primarily for tests adding throwaway
    protocols); unknown names raise the same error as :func:`get_protocol`."""
    key = name.upper()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(_REGISTRY)}"
        )
    del _REGISTRY[key]


def available() -> Tuple[str, ...]:
    """Every registered protocol name, sorted.

    This is the single source of truth: CLI ``choices=``, sweep
    defaults and workload specs all read it, so a newly registered
    protocol appears in all of them without further edits.
    """
    return tuple(sorted(_REGISTRY))


def get_protocol(name: str) -> Type[KeyAgreementProtocol]:
    """The registered class for ``name`` (case-insensitive)."""
    cls = _REGISTRY.get(name.upper() if isinstance(name, str) else name)
    if cls is None:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {list(available())}"
        )
    return cls


# The paper's five, keyed by the names used throughout (§4).
register("GDH", GdhProtocol)
register("CKD", CkdProtocol)
register("BD", BdProtocol)
register("TGDH", TgdhProtocol)
register("STR", StrProtocol)

__all__ = [
    "KeyAgreementProtocol",
    "ProtocolMessage",
    "classify_event",
    "GdhProtocol",
    "CkdProtocol",
    "BdProtocol",
    "TgdhProtocol",
    "StrProtocol",
    "LoopbackGroup",
    "available",
    "get_protocol",
    "register",
    "unregister",
]
