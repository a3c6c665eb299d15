"""Flight-recorder walkthrough: trace one rekey and attribute its cost.

Grows a TGDH group on the simulated LAN testbed with observability
enabled, injects one join, then:

* prints the per-epoch report — total elapsed time decomposed into the
  paper's §6 membership / communication / computation phases, read off
  the rekey's causal critical path (computation is the crypto the last
  member to install the key waited on, whoever ran it) and reconciled
  against the ``RekeyTimeline`` — then that critical path and the
  rekey-latency percentiles;
* prints the crypto operation counters the ledger bridge collected;
* writes a Chrome trace-event JSON you can open in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` — one process per
  simulated machine, one thread per member.

Run with ``python examples/trace_rekey.py``.
"""

import os
import tempfile

from repro.core import SecureSpreadFramework
from repro.gcs.topology import lan_testbed
from repro.obs import render_report, timeline_phases, validate_chrome_trace

GROUP_SIZE = 8


def main() -> None:
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol="TGDH", observe=True
    )
    machines = len(framework.world.topology.machines)
    for index in range(GROUP_SIZE):
        member = framework.member(f"m{index}", index % machines)
        member.join()
        framework.run_until_idle()

    framework.mark_event()                       # the measured instant
    joiner = framework.member("newcomer", GROUP_SIZE % machines)
    joiner.join()
    framework.run_until_idle()

    print(render_report(
        framework.timeline, framework.obs.spans,
        f"TGDH join at n={GROUP_SIZE} on the LAN testbed (ms)",
    ))

    (phases,) = timeline_phases(framework.timeline, framework.obs.spans)
    assert phases.reconciles(), "phases must sum to the timeline total"

    metrics = framework.obs.metrics
    print()
    print(f"exponentiations (whole run): "
          f"{metrics.counter_total('crypto.exponentiations'):.0f}")
    print(f"signatures: {metrics.counter_total('crypto.signatures'):.0f}, "
          f"verifications: {metrics.counter_total('crypto.verifications'):.0f}")
    print(f"network frames: {metrics.counter_total('net.frames'):.0f} "
          f"({metrics.counter_total('net.bytes'):.0f} bytes)")

    path = os.path.join(tempfile.mkdtemp(prefix="repro-trace-"), "rekey.json")
    trace = framework.obs.write_chrome_trace(path)
    validate_chrome_trace(trace)
    print()
    print(f"wrote {path} ({len(trace['traceEvents'])} trace events) — "
          f"open it in Perfetto or chrome://tracing")


if __name__ == "__main__":
    main()
