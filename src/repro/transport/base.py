"""The :class:`Transport`/:class:`GroupChannel` protocols and the input
validation every substrate applies at its API boundary.

The interfaces are :class:`typing.Protocol` classes (structural), so the
simulated world and the asyncio backend implement them without a shared
base class; ``isinstance`` checks work through ``runtime_checkable``.

What the interface guarantees (both substrates):

* **View synchrony for surviving members** — every member of a group
  sees the same sequence of membership views, each carrying the members
  ordered by join age (oldest first) identically everywhere.
* **Agreed total order** — ``Service.AGREED`` multicasts (including the
  join/leave membership messages themselves) are delivered in one
  global order per group, the same at every member.
* **FIFO unicast** — targeted ``Service.FIFO`` messages preserve
  per-sender order but carry no inter-sender ordering.

What only the simulator adds on top: virtual time (bit-identical runs
for a given seed), deterministic fault injection and partition/merge
events, causal tracing, and a modelled CPU per machine.  The asyncio
backend runs on wall-clock time and real CPUs; its failure detector is
heartbeat-based suspicion rather than an omniscient reachability oracle.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from typing import Protocol, runtime_checkable

from repro.gcs.messages import Service

#: Capability tags a transport advertises in :attr:`Transport.capabilities`.
CAP_VIRTUAL_TIME = "virtual-time"

#: Spread limits group names to 32 bytes; we are a little more generous
#: but still bounded, so a malformed name fails here with a clear error
#: instead of deep inside ring sequencing.
MAX_GROUP_NAME_BYTES = 64
MAX_MEMBER_NAME_BYTES = 64

#: Spread's default maximum message is ~140 KB; anything larger must be
#: fragmented by the application.
MAX_PAYLOAD_BYTES = 140 * 1024


def validate_group_name(group: Any) -> str:
    """Validate a group name at the API boundary; returns it unchanged.

    Raises :class:`ValueError` (never an opaque ``KeyError`` from the
    sequencing internals) for anything that is not a printable, bounded,
    non-empty string.
    """
    if not isinstance(group, str):
        raise ValueError(
            f"group name must be a str, not {type(group).__name__}"
        )
    if not group:
        raise ValueError("group name must not be empty")
    encoded = group.encode("utf-8", errors="replace")
    if len(encoded) > MAX_GROUP_NAME_BYTES:
        raise ValueError(
            f"group name exceeds {MAX_GROUP_NAME_BYTES} bytes: {group[:32]!r}..."
        )
    if any(ch in group for ch in ("\x00", "\n", "\r")):
        raise ValueError(f"group name contains control characters: {group!r}")
    return group


def validate_member_name(name: Any) -> str:
    """Validate a member/client name; same discipline as group names."""
    if not isinstance(name, str):
        raise ValueError(
            f"member name must be a str, not {type(name).__name__}"
        )
    if not name:
        raise ValueError("member name must not be empty")
    if len(name.encode("utf-8", errors="replace")) > MAX_MEMBER_NAME_BYTES:
        raise ValueError(
            f"member name exceeds {MAX_MEMBER_NAME_BYTES} bytes: {name[:32]!r}..."
        )
    if any(ch in name for ch in ("\x00", "\n", "\r")):
        raise ValueError(f"member name contains control characters: {name!r}")
    return name


def validate_payload_size(size_bytes: Any) -> int:
    """Validate a declared payload size; returns it unchanged."""
    if isinstance(size_bytes, bool) or not isinstance(size_bytes, int):
        raise ValueError(
            f"size_bytes must be an int, not {type(size_bytes).__name__}"
        )
    if size_bytes < 0:
        raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
    if size_bytes > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"size_bytes {size_bytes} exceeds the {MAX_PAYLOAD_BYTES}-byte "
            "message limit; fragment the payload"
        )
    return size_bytes


@runtime_checkable
class Scheduler(Protocol):
    """The clock and timer service a transport exposes.

    The simulator's :class:`~repro.sim.engine.Simulator` satisfies this
    directly (virtual milliseconds); the asyncio backend wraps the event
    loop (wall-clock milliseconds).  Returned handles expose a settable
    ``cause`` attribute so causal tracing can annotate them.
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay_ms: float, fn: Callable, *args: Any) -> Any: ...

    def schedule_at(self, time_ms: float, fn: Callable, *args: Any) -> Any: ...


@runtime_checkable
class GroupChannel(Protocol):
    """One process's connection to the group communication substrate.

    Channels deliver :class:`~repro.gcs.messages.GroupMessage` and
    :class:`~repro.gcs.messages.View` objects through the ``on_message``
    and ``on_view`` callbacks (each called with ``(channel, item)``).
    ``received`` and ``views`` are the mailboxes of a channel with no
    listener: messages accumulate in ``received``, in delivery order,
    only while ``on_message`` is ``None``, and views in ``views`` only
    while ``on_view`` is ``None`` — a channel that is listened to retains
    nothing it has delivered.

    A channel is sent only the views of groups it belongs to, plus the
    view of its own departure (the leaver is named in ``view.left``).
    """

    name: str
    connected: bool

    def join(self, group: str) -> None: ...

    def leave(self, group: str) -> None: ...

    def multicast(
        self,
        group: str,
        payload: Any,
        service: Service = Service.AGREED,
        size_bytes: int = 64,
        target: Optional[str] = None,
    ) -> None: ...

    def unicast(
        self, group: str, target: str, payload: Any, size_bytes: int = 64
    ) -> None: ...

    def disconnect(self) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """A group communication substrate the secure stack can run on.

    ``machine(i)`` returns the CPU-accounting handle for process slot
    ``i`` — the simulator's contended :class:`~repro.sim.cpu.Machine`,
    or the asyncio backend's pass-through (real work already consumed
    real time).  It must expose ``name`` and the ``submit(...)``
    signature of :meth:`repro.sim.cpu.Machine.submit`.
    """

    kind: str
    capabilities: frozenset

    @property
    def scheduler(self) -> Scheduler: ...

    @property
    def now(self) -> float: ...

    def channel(self, name: str, machine_index: int) -> GroupChannel: ...

    def machine(self, machine_index: int) -> Any: ...

    def machine_count(self) -> int: ...

    def bind(self, obs: Any) -> None: ...

    def run_until_idle(self, max_events: int = 1_000_000) -> None: ...
