"""An unobserved run records nothing.

``Observability.enabled`` is the flight recorder's only switch: the span
recorder and the metrics registry record whatever they are handed, so
the ``obs.enabled`` guard at every recording site is all that keeps an
unobserved run — and the shared :data:`repro.obs.NULL_OBS` every layer
holds until it is given its deployment's recorder — empty.
"""

import asyncio

import pytest

import repro.core.framework
from repro.bench.chaos import run_chaos_cell
from repro.bench.scale import run_scale_cell
from repro.bench.series import run_figure_cell
from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.net.daemon import NetDaemon
from repro.net.runner import AsyncioTransport
from repro.obs import NULL_OBS, Observability
from repro.protocols import get_protocol
from repro.protocols.loopback import build_group


def _loopback():
    loop = build_group(get_protocol("TGDH"), 4)
    loop.leave("m2")
    assert all(p.obs is NULL_OBS for p in loop.protocols.values())


def _live():
    async def scenario():
        daemon = NetDaemon(host="127.0.0.1", port=0)
        transport = AsyncioTransport(port=await daemon.start())
        try:
            framework = SecureSpreadFramework(
                transport, default_protocol="TGDH", dh_group="dh-test"
            )
            driver = GroupDriver(framework, timeout_s=20.0)
            return await driver.arun(driver.join_leave_scenario(3))
        finally:
            await transport.aclose()
            await daemon.stop()

    assert asyncio.run(scenario())["leave"]


RUNS = {
    "figure": lambda: run_figure_cell(
        dict(protocol="GDH", event="join", sizes=[2, 3], dh_group="dh-test")
    ),
    "scale": lambda: run_scale_cell(
        dict(protocol="TGDH", group_size=6, dh_group="dh-test")
    ),
    "chaos": lambda: run_chaos_cell(
        dict(protocol="BD", drop_rate=0.2, group_size=4, dh_group="dh-test")
    ),
    "loopback": _loopback,
    "live-inline": _live,
}


def _assert_empty(obs):
    assert obs.enabled is False
    assert len(obs.spans) == 0 and obs.spans.dropped == 0
    assert obs.metrics.snapshot() == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_unobserved_run_leaves_recorder_and_registry_empty(name, monkeypatch):
    built = []

    class Tracked(Observability):
        def __init__(self, enabled=False):
            super().__init__(enabled)
            built.append(self)

    monkeypatch.setattr(repro.core.framework, "Observability", Tracked)
    RUNS[name]()
    assert bool(built) == (name != "loopback")
    for obs in built + [NULL_OBS]:
        _assert_empty(obs)
