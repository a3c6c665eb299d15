"""Analytic elapsed-time prediction from the conceptual cost model.

A coarse closed-form predictor: serial crypto cost via the
:class:`~repro.crypto.costmodel.CostModel` plus communication rounds times
an estimated per-round latency.  Used to sanity-check simulator output —
the simulated elapsed time should land within a small factor of the
prediction (the simulator additionally models CPU contention, token waits
and the membership service, which the predictor folds into constants).
"""

from __future__ import annotations

from repro.analysis.costs import conceptual_cost
from repro.crypto.costmodel import CostModel
from repro.gcs.messages import ViewEvent
from repro.gcs.topology import Topology
from repro.gcs.ring import TokenRing


def predict_elapsed_ms(
    protocol: str,
    event: ViewEvent,
    n: int,
    topology: Topology,
    cost_model: CostModel,
    modulus_bits: int = 512,
    m: int = 1,
    p: int = 1,
) -> float:
    """Predicted total elapsed milliseconds for one membership event."""
    cost = conceptual_cost(protocol, event, n=n, m=m, p=p)
    ring = TokenRing(topology, topology.machines)
    # An Agreed multicast costs roughly a half-cycle token wait plus a full
    # settlement sweep; a unicast costs a typical one-way latency.
    agreed_ms = 1.5 * ring.cycle_ms
    machines = topology.machines
    typical_one_way = max(
        topology.one_way_ms(machines[0], machines[-1]),
        topology.one_way_ms(machines[0], machines[min(1, len(machines) - 1)]),
    )
    communication = cost.rounds * agreed_ms + cost.unicasts * typical_one_way
    computation = (
        cost.serial_exponentiations * cost_model.exp_cost(modulus_bits)
        + cost.signatures * cost_model.sign_ms / max(cost.rounds, 1)
        + cost.verifications * cost_model.verify_ms
    )
    membership = agreed_ms
    return communication + computation + membership
