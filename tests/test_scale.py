"""Scale checks beyond the paper's 50-member ceiling.

The paper's testbed stopped at 50 members; these tests push the efficient
protocols to 100 to confirm the asymptotics hold and to guard the
simulator against accidental super-linear blowups (event counts, virtual
time)."""

import math


from repro.core import SecureSpreadFramework
from repro.gcs.topology import lan_testbed
from repro.protocols import get_protocol
from repro.protocols.loopback import build_group


def test_tgdh_at_one_hundred_members_stays_logarithmic():
    loop = build_group(get_protocol("TGDH"), 100)
    tree = loop.protocols["m0"]._tree
    assert tree.height() <= 2 * math.ceil(math.log2(100))
    stats = loop.leave("m50")
    # Sponsor work stays ~2h even at twice the paper's max size.
    assert stats.max_exponentiations() <= 2 * tree.height() + 4


def test_str_join_cost_flat_at_one_hundred():
    loop = build_group(get_protocol("STR"), 100)
    stats = loop.join("x")
    assert stats.max_exponentiations() <= 6
    assert stats.rounds == 2


def test_simulated_group_of_eighty_completes_quickly():
    """Full-stack sanity at 80 members: the simulation must not blow up in
    event count (quadratic token or delivery bugs would)."""
    fw = SecureSpreadFramework(
        lan_testbed(), default_protocol="STR", dh_group="dh-test"
    )
    members = fw.spawn_members(80)
    for member in members:
        member.join()
        fw.run_until_idle()
    assert len({m.key_bytes for m in members}) == 1
    # A loose ceiling: ~sub-million events for 80 joins.
    assert fw.world.sim.events_processed < 1_500_000
    # Virtual time: 80 joins at tens of ms each stays under a minute.
    assert fw.now < 60_000
