"""The Spread client library: the API applications (and Secure Spread) use.

A client is one process linked with the library (§3.1): it connects to the
daemon on its machine, joins/leaves groups, multicasts with a chosen
service level, and receives messages and membership views via callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.gcs.messages import GroupMessage, Service, View
from repro.transport.base import (
    validate_group_name,
    validate_member_name,
    validate_payload_size,
)


class SpreadClient:
    """One client process connected to a local daemon.

    Callbacks (``on_message``, ``on_view``) receive ``(client, item)`` and
    run inside the simulation.  :attr:`received` and :attr:`views` are the
    mailboxes of a client nobody listens to: messages accumulate there
    only while ``on_message`` is unset, views only while ``on_view`` is.
    """

    def __init__(self, name: str, daemon) -> None:
        self.name = validate_member_name(name)
        self.daemon = daemon
        self.world = daemon.world
        self.on_message: Optional[Callable[["SpreadClient", GroupMessage], None]] = None
        self.on_view: Optional[Callable[["SpreadClient", View], None]] = None
        self.received: List[GroupMessage] = []
        self.views: List[View] = []
        self.connected = True
        daemon.connect(self)

    # -- membership ------------------------------------------------------

    def join(self, group: str) -> None:
        """Join a group (a lightweight membership event: one Agreed message)."""
        self._require_connected()
        validate_group_name(group)
        message = GroupMessage(
            group=group,
            sender=self.name,
            payload={"daemon_id": self.daemon.daemon_id},
            kind="join",
            size_bytes=96,
        )
        self._submit(message)

    def leave(self, group: str) -> None:
        """Leave a group (a lightweight membership event: one Agreed message)."""
        self._require_connected()
        validate_group_name(group)
        message = GroupMessage(
            group=group, sender=self.name, payload=None, kind="leave", size_bytes=96
        )
        self._submit(message)

    def disconnect(self) -> None:
        """Detach from the daemon, implicitly leaving all groups."""
        self._require_connected()
        self.connected = False
        self.daemon.disconnect(self)

    # -- messaging ---------------------------------------------------------

    def multicast(
        self,
        group: str,
        payload: Any,
        service: Service = Service.AGREED,
        size_bytes: int = 64,
        target: Optional[str] = None,
    ) -> None:
        """Send to a group (or, with ``target``, to one member of it)."""
        self._require_connected()
        validate_group_name(group)
        validate_payload_size(size_bytes)
        if target is not None:
            validate_member_name(target)
        message = GroupMessage(
            group=group,
            sender=self.name,
            payload=payload,
            service=service,
            size_bytes=size_bytes,
            target=target,
        )
        self._submit(message)

    # -- delivery (called by the daemon) ----------------------------------

    def _on_crashed(self) -> None:
        """The local daemon crashed: the connection is severed with no
        leave messages (the surviving daemons discover it themselves)."""
        self.connected = False

    def _on_message(self, message: GroupMessage) -> None:
        if not self.connected:
            return
        if self.world.obs.enabled:
            self.world.obs.counter(
                "client.messages_delivered", client=self.name
            ).inc()
        if self.on_message is None:
            self.received.append(message)
        else:
            self.on_message(self, message)

    def _on_view(self, view: View) -> None:
        if not self.connected:
            return
        if self.world.obs.enabled:
            self.world.obs.counter(
                "client.views_delivered", client=self.name
            ).inc()
        if self.on_view is None:
            self.views.append(view)
        else:
            self.on_view(self, view)

    # -- internals ---------------------------------------------------------

    def _submit(self, message: GroupMessage) -> None:
        self.world.sim.schedule(
            self.world.params.ipc_ms, self.daemon.submit, message
        )

    def _require_connected(self) -> None:
        if not self.connected:
            raise RuntimeError(f"client {self.name!r} is disconnected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpreadClient({self.name!r} @ d{self.daemon.daemon_id})"
