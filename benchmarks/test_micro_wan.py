"""§6.2.1 micro-measurements on the WAN testbed.

The paper's basic parameters: an Agreed multicast costs ~300-335 ms
depending on the sender's site; a BD-style all-to-all round for 50 members
costs over a second; the membership service costs 400-700 ms for a join
and several hundred ms for a leave.
"""


from conftest import run_once
from repro.gcs import GcsWorld, wan_testbed

#: one representative sender machine per site
SITE_SENDERS = {"JHU": 0, "UCI": 11, "ICU": 12}


def _grown_world(count):
    world = GcsWorld(wan_testbed())
    clients = world.spawn_clients([f"c{i}" for i in range(count)])
    for client in clients:
        client.join("g")
        world.run_until_idle()
    return world, clients


def test_agreed_multicast_by_sender_site(benchmark, results_dir):
    def measure():
        results = {}
        for site, machine_index in SITE_SENDERS.items():
            world, clients = _grown_world(13)
            sender = clients[machine_index]
            stamps = []
            for client in clients:
                client.on_message = lambda _c, _m: stamps.append(world.now)
            t0 = world.now
            sender.multicast("g", "probe")
            world.run_until_idle()
            results[site] = max(stamps) - t0
        return results

    results = run_once(benchmark, measure)
    print("\nAgreed multicast send+deliver cost by sender site (WAN):")
    for site, cost in results.items():
        print(f"  sender at {site}: {cost:6.1f} ms")
    with open("benchmarks/results/micro_wan_agreed.txt", "w") as handle:
        for site, cost in results.items():
            handle.write(f"{site},{cost:.1f}\n")
    # Hundreds of milliseconds, sender-site dependent, within a 2x band.
    for cost in results.values():
        assert 120 < cost < 500
    assert max(results.values()) < 2.0 * min(results.values())


def test_all_to_all_round_cost(benchmark):
    def measure():
        world, clients = _grown_world(50)
        t0 = world.now
        for client in clients:
            client.multicast("g", f"blast-{client.name}")
        world.run_until_idle()
        return world.now - t0

    cost = run_once(benchmark, measure)
    print(f"\nBD-style all-to-all round, n=50 (WAN): {cost:.0f} ms")
    # The paper reports ~1.5 s; anything in the high-hundreds-to-2s band
    # preserves the conclusion (all-to-all is ruinous on a WAN).
    assert 400 < cost < 2500


def test_membership_service_cost(benchmark):
    """Join membership cost on the WAN: hundreds of milliseconds."""

    def measure():
        world, clients = _grown_world(20)
        stamps = []
        for client in clients:
            client.on_view = lambda _c, _v: stamps.append(world.now)
        late = world.channel("late", 5)
        t0 = world.now
        late.join("g")
        world.run_until_idle()
        join_cost = max(stamps) - t0
        stamps.clear()
        t0 = world.now
        clients[7].leave("g")
        world.run_until_idle()
        leave_cost = max(stamps) - t0
        return join_cost, leave_cost

    join_cost, leave_cost = run_once(benchmark, measure)
    print(f"\nMembership service (WAN): join {join_cost:.0f} ms, "
          f"leave {leave_cost:.0f} ms")
    assert 100 < join_cost < 900
    assert 100 < leave_cost < 900
