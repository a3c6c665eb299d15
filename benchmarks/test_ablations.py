"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one modelling decision and checks that the effect the
paper attributes to it actually appears in (or disappears from) the
simulation:

* **signature pricing** — §6.1.1 argues for RSA with e=3 because
  "expensive signature verification (e.g., as in DSA) noticeably degrades
  performance": under DSA-like costs BD (2(n-1) verifications per member)
  collapses;
* **CPU contention** — BD's doubling-every-13-members disappears on
  many-core machines;
* **crypto-free stack** — isolates pure communication cost: protocol
  ordering on the WAN is driven by rounds alone;
* **token ring vs idealized broadcast** — replacing the ring with nearly
  free links shows how much of the WAN cost is ordering latency.
"""


from conftest import run_once
from repro.crypto.costmodel import expensive_signatures, free_crypto
from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver
from repro.gcs.topology import Topology, lan_testbed, wan_testbed
from repro.sim.cpu import Machine

N = 20


def _measure(topology_factory, protocol, cost_model=None, dh="dh-512"):
    framework = SecureSpreadFramework(
        topology_factory(),
        default_protocol=protocol,
        dh_group=dh,
        cost_model=cost_model,
    )
    members = framework.spawn_members(N)
    for member in members:
        member.join()
        framework.run_until_idle()
    framework.timeline.mark_event(framework.now)
    extra = framework.member("x", 5)
    extra.join()
    framework.run_until_idle()
    return framework.timeline.latest_complete().total_elapsed()


def test_dsa_like_signatures_degrade_bd(benchmark):
    def measure():
        rsa_bd = _measure(lan_testbed, "BD")
        dsa_bd = _measure(lan_testbed, "BD", cost_model=expensive_signatures())
        rsa_tgdh = _measure(lan_testbed, "TGDH")
        dsa_tgdh = _measure(lan_testbed, "TGDH", cost_model=expensive_signatures())
        return rsa_bd, dsa_bd, rsa_tgdh, dsa_tgdh

    rsa_bd, dsa_bd, rsa_tgdh, dsa_tgdh = run_once(benchmark, measure)
    print(f"\nBD join n={N}: RSA(e=3) {rsa_bd:.0f} ms vs DSA-like {dsa_bd:.0f} ms")
    print(f"TGDH join n={N}: RSA(e=3) {rsa_tgdh:.0f} ms vs DSA-like {dsa_tgdh:.0f} ms")
    # BD's many verifications make it far more sensitive than TGDH.
    assert dsa_bd > 1.8 * rsa_bd
    assert (dsa_bd / rsa_bd) > 1.5 * (dsa_tgdh / rsa_tgdh)


def _many_core_lan():
    machines = [
        Machine(f"lan{i}", site="jhu-lan", cores=16, speed=1.0) for i in range(13)
    ]
    return Topology("lan-16core", machines, site_latency_ms={})


def _measured_join(topology, protocol, size):
    """One measured join on a custom testbed, the way a figure cell
    measures it: sequential growth, then the join."""
    with SecureSpreadFramework(topology, default_protocol=protocol) as framework:
        driver = GroupDriver(framework)
        driver.run(driver.grow(size))
        return driver.run(driver.measured("join"))


def test_cpu_contention_drives_bd_scaling(benchmark):
    """With 16 cores per machine, BD at 40 members loses the contention
    penalty that dual-CPU machines impose."""

    def measure():
        dual, many = (
            _measured_join(testbed(), "BD", 40)
            for testbed in (lan_testbed, _many_core_lan)
        )
        return dual.total_ms, many.total_ms

    dual, many = run_once(benchmark, measure)
    print(f"\nBD join n=40: dual-CPU {dual:.0f} ms vs 16-core {many:.0f} ms")
    assert many < 0.75 * dual


def test_free_crypto_isolates_communication(benchmark):
    """With zero-cost crypto on the WAN, rounds alone order the protocols:
    4-round GDH > 3-round CKD > 2-round STR/TGDH-class."""

    def measure():
        return {
            p: _measure(wan_testbed, p, cost_model=free_crypto())
            for p in ("GDH", "CKD", "STR", "BD")
        }

    costs = run_once(benchmark, measure)
    print("\nWAN join with free crypto (communication only):")
    for protocol, cost in costs.items():
        print(f"  {protocol:5s} {cost:7.0f} ms")
    assert costs["GDH"] > costs["CKD"]
    assert costs["CKD"] > min(costs["STR"], costs["BD"]) * 0.8
    assert costs["GDH"] > costs["STR"]


def _fast_ring_wan():
    """The WAN testbed with near-free intersite links: an 'idealized
    broadcast' network that removes the token-ring ordering latency."""
    topo = wan_testbed()
    machines = [
        Machine(m.name, site="one-site", cores=m.cores, speed=m.speed)
        for m in topo.machines
    ]
    return Topology("wan-idealized", machines, site_latency_ms={},
                    intra_site_latency_ms=0.08)


def test_token_ring_latency_dominates_wan(benchmark):
    """Collapsing the WAN to an idealized low-latency broadcast medium
    removes most of the measured cost: the ordering/token mechanics, not
    computation, dominate the real WAN numbers (§6.2.2)."""

    def measure():
        real = _measure(wan_testbed, "TGDH")
        ideal = _measure(_fast_ring_wan, "TGDH")
        return real, ideal

    real, ideal = run_once(benchmark, measure)
    print(f"\nTGDH join n={N}: real WAN {real:.0f} ms vs idealized {ideal:.0f} ms")
    assert ideal < real / 4


def test_key_confirmation_overhead(benchmark):
    """§5: the original Cliques TGDH/STR recompute published blinded keys
    as key confirmation; the paper counts the optimized variant.  The
    overhead is real but modest — roughly one extra exponentiation per
    level/position per member."""
    from repro.protocols.loopback import LoopbackGroup
    from repro.protocols.tgdh import TgdhProtocol

    class ConfirmingTgdh(TgdhProtocol):
        def __init__(self, member, group, rng, engine=None):
            super().__init__(
                member, group, rng, engine=engine, key_confirmation=True
            )

    ConfirmingTgdh.name = "TGDH"

    def measure():
        plain = LoopbackGroup(TgdhProtocol)
        confirming = LoopbackGroup(ConfirmingTgdh)
        for loop in (plain, confirming):
            for i in range(16):
                loop.join(f"m{i}")
        return (
            plain.leave("m8").exponentiations(),
            confirming.leave("m8").exponentiations(),
        )

    plain_exps, confirm_exps = run_once(benchmark, measure)
    print(f"\nTGDH leave n=16 total exponentiations: optimized {plain_exps} "
          f"vs key-confirmation {confirm_exps}")
    assert plain_exps < confirm_exps <= 3 * plain_exps


def test_tgdh_random_tree_vs_balanced(benchmark):
    """§6.1.2: the paper measures TGDH on an artificially balanced tree
    and argues that on a random (churn-grown) tree joins get cheaper
    (insertion lands nearer the root) while leaves get more expensive —
    but still cheaper than GDH.  We grow a random tree by churn and check
    both directions on sponsor workloads."""
    import random

    from repro.protocols.loopback import LoopbackGroup
    from repro.protocols.tgdh import TgdhProtocol
    from repro.protocols.gdh import GdhProtocol

    def random_tree_group(churn_events=40, seed=7):
        rng = random.Random(seed)
        loop = LoopbackGroup(TgdhProtocol)
        counter = 0
        for _ in range(16):
            loop.join(f"m{counter}")
            counter += 1
        for _ in range(churn_events):
            members = list(loop.members())
            if len(members) <= 12 or rng.random() < 0.5:
                loop.join(f"m{counter}")
                counter += 1
            else:
                loop.leave(rng.choice(members))
        while len(loop.members()) > 16:
            loop.leave(loop.members()[len(loop.members()) // 2])
        while len(loop.members()) < 16:
            loop.join(f"m{counter}")
            counter += 1
        return loop

    def measure():
        balanced = LoopbackGroup(TgdhProtocol)
        for i in range(16):
            balanced.join(f"b{i}")
        random_loop = random_tree_group()
        gdh = LoopbackGroup(GdhProtocol)
        for i in range(16):
            gdh.join(f"g{i}")
        bal_height = balanced.protocols[balanced.members()[0]]._tree.height()
        rnd_height = random_loop.protocols[
            random_loop.members()[0]
        ]._tree.height()
        bal_leave = balanced.leave(balanced.members()[8]).max_exponentiations()
        rnd_leave = random_loop.leave(
            random_loop.members()[8]
        ).max_exponentiations()
        gdh_leave = gdh.leave(gdh.members()[8]).max_exponentiations()
        return bal_height, rnd_height, bal_leave, rnd_leave, gdh_leave

    bal_h, rnd_h, bal_leave, rnd_leave, gdh_leave = run_once(benchmark, measure)
    print(f"\nTGDH tree height n=16: balanced {bal_h} vs churn-grown {rnd_h}")
    print(f"leave sponsor exponentiations: balanced {bal_leave}, "
          f"churn-grown {rnd_leave}, GDH {gdh_leave}")
    # The churn-grown tree is at least as tall, so its leave costs at
    # least as much -- but still (far) less than GDH's linear cost.
    assert rnd_h >= bal_h
    assert rnd_leave >= bal_leave - 1
    assert rnd_leave < gdh_leave
