"""The GCS on timed schedules: every operation fires at a drawn instant.

Each seed scripts a 13-daemon LAN :class:`GcsWorld`: clients join and
leave two groups, send Agreed messages and disconnect; the network splits
two or three ways and heals (failure detection after 0.01–3 ms); a
daemon crashes and restarts; on a third of the seeds every link drops
frames.  Nothing waits for quiescence between operations, so some of
them land between a propose and its install, or while a frame is held
behind the token sweep or waits on a NACK.

Each client records its ordered views (id, members) and deliveries
(sender, payload, instant).  One digest per seed and client is pinned in
``gcs_timed_schedules.json``: the daemon's ordered-delivery and
reconfiguration paths must keep every client's history byte-identical.
A failure names each seed and client that drifted.

Regenerate the pins (only for a change meant to alter GCS behaviour)::

    PYTHONPATH=src python tests/test_gcs_timed_schedules.py --write
"""

import hashlib
import json
import os
import random
import sys

import pytest

from repro.faults import LinkFaults
from repro.gcs import GcsWorld, lan_testbed

PINS = os.path.join(os.path.dirname(__file__), "gcs_timed_schedules.json")
SEEDS = range(60)
MACHINES = 13
GROUPS = ("g", "h")
#: operations per script, drawn over this many virtual milliseconds
OPERATIONS = 40
HORIZON_MS = 40.0
#: (operation, weight)
_MIX = (
    ("join", 5), ("leave", 3), ("send", 8), ("disconnect", 1),
    ("split", 2), ("heal", 2), ("crash", 1), ("restart", 1),
)


def _script(seed):
    """The seed's operations as ``(instant, kind, pick, detection_ms,
    layout)``; ``pick`` in [0, 1) chooses among the targets valid when
    the operation fires, so one drifted choice does not reshuffle the
    rest of the script."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in _MIX]
    weights = [weight for _, weight in _MIX]
    script = []
    for _ in range(OPERATIONS):
        kind = rng.choices(kinds, weights)[0]
        machines = list(range(MACHINES))
        rng.shuffle(machines)
        ways = rng.choice((2, 3))
        cuts = sorted(rng.sample(range(1, MACHINES), ways - 1))
        layout = [
            machines[a:b] for a, b in zip([0] + cuts, cuts + [MACHINES])
        ]
        script.append((
            rng.uniform(0.0, HORIZON_MS), kind, rng.random(),
            rng.uniform(0.01, 3.0), layout,
        ))
    script.sort(key=lambda op: op[0])
    drop = rng.choice((0.05, 0.1, 0.15)) if seed % 3 == 2 else 0.0
    return script, drop


def run_schedule(seed):
    """Run one seed's script; returns ``{client: [views and deliveries]}``."""
    world = GcsWorld(lan_testbed())
    rng = random.Random(-1 - seed)
    clients, logs = {}, {}
    crashed = set()

    def spawn(machine):
        name = f"c{len(clients)}"
        client = world.channel(name, machine)
        log = logs[name] = []
        client.on_view = lambda c, view: log.append(
            ("view", view.view_id, view.members)
        )
        client.on_message = lambda c, message: log.append(
            ("deliver", message.sender, message.payload, world.now)
        )
        clients[name] = client
        return client

    for index in range(6):
        spawn(rng.randrange(MACHINES)).join(GROUPS[index % 2])
    world.run_until_idle()
    script, drop = _script(seed)
    if drop:
        world.install_link_faults(LinkFaults.uniform(seed=seed, drop=drop))
    start = world.now
    sent = [0]

    def choose(options, pick):
        options = sorted(options)
        return options[int(pick * len(options))] if options else None

    def fire(kind, pick, detection_ms, layout):
        connected = [n for n, c in clients.items() if c.connected]
        up = [m for m in range(MACHINES) if m not in crashed]
        if kind == "join":
            if pick < 0.5 or not connected:
                client = spawn(choose(up, pick * 2))
            else:
                client = clients[choose(connected, pick * 2 - 1)]
            client.join(GROUPS[int(pick * 10) % 2])
        elif kind in ("leave", "send", "disconnect") and connected:
            client = clients[choose(connected, pick)]
            if kind == "leave":
                client.leave(GROUPS[int(pick * 10) % 2])
            elif kind == "send":
                sent[0] += 1
                client.multicast(GROUPS[int(pick * 10) % 2], f"m{sent[0]}")
            else:
                client.disconnect()
        elif kind == "split":
            world.partition(layout, detection_ms)
        elif kind == "heal":
            world.heal(detection_ms)
        elif kind == "crash" and len(crashed) < 2:
            victim = choose(up, pick)
            world.crash_daemon(victim, detection_ms)
            crashed.add(victim)
        elif kind == "restart" and crashed:
            revived = choose(crashed, pick)
            world.restart_daemon(revived, detection_ms)
            crashed.discard(revived)

    for at, kind, pick, detection_ms, layout in script:
        world.sim.schedule_at(start + at, fire, kind, pick, detection_ms, layout)
    world.run_until_idle()
    return logs


def digests(seed):
    return {
        name: hashlib.sha256(repr(log).encode()).hexdigest()[:16]
        for name, log in run_schedule(seed).items()
    }


def _pins():
    with open(PINS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", SEEDS)
def test_timed_schedule_is_unchanged(seed):
    expected = _pins()[str(seed)]
    got = digests(seed)
    drifted = sorted(
        name for name in set(expected) | set(got)
        if expected.get(name) != got.get(name)
    )
    assert not drifted, (
        f"seed {seed}: client(s) {', '.join(drifted)} drifted from the "
        f"pinned views and deliveries"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_gcs_timed_schedules.py --write")
    with open(PINS, "w") as handle:
        json.dump({str(s): digests(s) for s in SEEDS}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
