"""§6.1.1 micro-measurements on the LAN testbed.

The paper's basic parameters: an Agreed multicast costs ~1.2-1.6 ms nearly
independently of group size; a BD-style all-to-all round costs a few ms
for small groups growing to ~20 ms at 50 members; the membership service
costs 1-3 ms; and the per-operation cryptographic costs on the 666 MHz
PIII platform (RSA-1024 sign/verify, 512/1024-bit modular exponentiation).
"""


from conftest import run_once
from repro.crypto.costmodel import pentium3_666
from repro.gcs import GcsWorld, lan_testbed


def _grow(world, count, group="g"):
    clients = world.spawn_clients([f"c{i}" for i in range(count)])
    for client in clients:
        client.join(group)
        world.run_until_idle()
    return clients


def _agreed_latency(world, clients):
    """Send one Agreed multicast; time until every member delivered it."""
    stamps = []
    for client in clients:
        client.on_message = lambda _c, _m: stamps.append(world.now)
    t0 = world.now
    clients[0].multicast("g", "probe")
    world.run_until_idle()
    for client in clients:
        client.on_message = None
    return max(stamps) - t0


def _all_to_all_latency(world, clients):
    """Every member broadcasts; time until everyone has all n-1 others'."""
    t0 = world.now
    for client in clients:
        client.multicast("g", f"blast-{client.name}")
    world.run_until_idle()
    return world.now - t0


def test_agreed_multicast_cost(benchmark, results_dir):
    def measure():
        rows = []
        for size in (3, 13, 27, 50):
            world = GcsWorld(lan_testbed())
            clients = _grow(world, size)
            rows.append((size, _agreed_latency(world, clients)))
        return rows

    rows = run_once(benchmark, measure)
    print("\nAgreed multicast send+deliver cost (LAN):")
    for size, cost in rows:
        print(f"  n={size:3d}: {cost:5.2f} ms")
    # Almost constant, single-digit milliseconds, mild growth with n.
    costs = [cost for _, cost in rows]
    assert all(0.5 < cost < 6.0 for cost in costs)
    assert max(costs) < 3.0 * min(costs)


def test_all_to_all_round_cost(benchmark):
    def measure():
        rows = []
        for size in (3, 20, 50):
            world = GcsWorld(lan_testbed())
            clients = _grow(world, size)
            rows.append((size, _all_to_all_latency(world, clients)))
        return rows

    rows = run_once(benchmark, measure)
    print("\nBD-style all-to-all broadcast round (LAN):")
    for size, cost in rows:
        print(f"  n={size:3d}: {cost:5.2f} ms")
    by_size = dict(rows)
    # A few ms for small groups, noticeably more at 50 members.
    assert by_size[3] < 10.0
    assert by_size[50] > 2.0 * by_size[3]
    assert by_size[50] < 60.0


def test_membership_service_cost(benchmark):
    """Join/leave membership cost (no key agreement): 1-3 ms on the LAN."""

    def measure():
        world = GcsWorld(lan_testbed())
        clients = _grow(world, 20)
        stamps = []
        late = world.channel("late", 5)
        for client in clients:
            client.on_view = lambda _c, _v: stamps.append(world.now)
        t0 = world.now
        late.join("g")
        world.run_until_idle()
        return max(stamps) - t0

    cost = run_once(benchmark, measure)
    print(f"\nMembership service (join, n=20): {cost:.2f} ms")
    assert 0.5 < cost < 6.0


def test_crypto_operation_costs():
    """The cost model matches the paper's reported per-op milliseconds."""
    model = pentium3_666()
    assert 1.0 < model.exp_cost(512) < 3.5  # "~2 ms"
    assert 5.0 < model.exp_cost(1024) < 9.0  # "~7 ms"
    assert 7.0 < model.sign_ms < 12.0  # RSA-1024 sign w/ CRT
    assert 0.3 < model.verify_ms < 2.0  # RSA-1024 verify, e=3
    # Verification is much cheaper than signing (the reason for e=3).
    assert model.sign_ms > 5 * model.verify_ms
