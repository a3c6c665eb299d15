"""Layer probes: short micro-runs timing each layer's public functions
in isolation, one value per per-layer metric that no workload yields.

Run once per invocation in their own child process.  Every rate is the
best of three timings — a probe that shares two noisy cores with nothing
else still sees bursts, and the fastest repeat is the least disturbed.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import tempfile
import time

from repro import NetClient, NetDaemon, SecureSpreadFramework, get_engine
from repro.bench import run_cells, run_scale_cell
from repro.bench.scale import scale_cells
from repro.crypto.bignum import get_backend, gmpy2_available
from repro.crypto.costmodel import pentium3_666
from repro.crypto.fixedbase import FixedBaseTable
from repro.crypto.groups import get_group
from repro.crypto.ledger import OperationLedger
from repro.crypto.modmath import batch_exp, multi_exp
from repro.crypto.rng import DeterministicRandom
from repro.crypto.rsa import RsaSigner, RsaVerifier, cached_rsa_keypair
from repro.faults import LinkFaults
from repro.gcs import GcsWorld, lan_testbed
from repro.net.wire import (
    FrameType,
    decode_payload,
    encode_payload,
    pack_frame,
    read_frame,
)
from repro.obs import LogHistogram, Observability, timeline_critical_paths
from repro.protocols import available, get_protocol
from repro.protocols.base import ProtocolMessage
from repro.protocols.loopback import build_group
from repro.sim.cpu import Machine
from repro.sim.engine import Simulator
from repro.workload.arrivals import poisson_stream

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: work per probe: ``smoke`` divides every count by this
SMOKE_DIVISOR = 20


def _best_seconds(fn, repeats=3):
    """Wall seconds of the fastest of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _best_rate(units, fn, repeats=3):
    """``units`` per second over the fastest of ``repeats`` calls."""
    return units / _best_seconds(fn, repeats)


def _exponents(count, group):
    rng = DeterministicRandom(1)
    return [rng.random_exponent(group.q) for _ in range(count)]


def _noop():
    pass


# -- repro.sim --------------------------------------------------------------


def probe_sim(scale):
    events = 200_000 // scale

    def dispatch():
        sim = Simulator()
        for index in range(events):
            sim.schedule((index % 100) * 0.1, _noop)
        sim.run_until_idle(max_events=events + 1)

    def submits():
        sim = Simulator()
        machine = Machine("probe", cores=2)
        for _ in range(events):
            machine.submit(sim, 0.01)

    return {
        "sim.events_per_s": _best_rate(events, dispatch),
        "sim.cpu_submits_per_s": _best_rate(events, submits),
    }


# -- repro.gcs --------------------------------------------------------------


def _plain_world(clients=26):
    world = GcsWorld(lan_testbed())
    members = [world.channel(f"c{i}", i % 13) for i in range(clients)]
    for member in members:
        member.join("probe")
    world.run_until_idle()
    return world, members


def probe_gcs(scale):
    multicasts = max(400 // scale, 4)
    cycles = max(60 // scale, 2)
    storms = max(10 // scale, 1)

    def agreed():
        world, members = _plain_world()
        started = time.perf_counter()
        for index in range(multicasts):
            members[index % len(members)].multicast("probe", index)
        world.run_until_idle()
        elapsed = time.perf_counter() - started
        delivered = sum(
            1 for member in members for m in member.received if m.kind == "data"
        )
        return delivered / elapsed

    def views():
        world, _members = _plain_world()
        started = time.perf_counter()
        for index in range(cycles):
            extra = world.channel(f"x{index}", index % 13)
            extra.join("probe")
            world.run_until_idle()
            extra.leave("probe")
            world.run_until_idle()
        return 2 * cycles / (time.perf_counter() - started)

    def partitions():
        world, _members = _plain_world()
        started = time.perf_counter()
        for _ in range(storms):
            world.partition([list(range(7)), list(range(7, 13))])
            world.run_until_idle()
            world.heal()
            world.run_until_idle()
        return storms / (time.perf_counter() - started)

    return {
        "gcs.agreed_deliveries_per_s": max(agreed() for _ in range(3)),
        "gcs.view_changes_per_s": max(views() for _ in range(3)),
        "gcs.partition_heal_per_s": max(partitions() for _ in range(3)),
    }


# -- repro.core -------------------------------------------------------------


def probe_core(scale):
    members = 2000 // scale
    framework = SecureSpreadFramework(lan_testbed(), engine="symbolic")
    for slot in range(13):  # RSA key generation per machine slot, once
        framework.member(f"warm{slot}", slot)
    serial = itertools.count()

    def build():
        for _ in range(members):
            index = next(serial)
            framework.member(f"m{index}", index % 13)

    return {"core.members_built_per_s": _best_rate(members, build)}


# -- repro.protocols --------------------------------------------------------


def probe_protocols(scale):
    size = max(64 // scale, 4)
    budget_s = 0.3 / scale
    rates = {}
    for name in available():
        loop = build_group(get_protocol(name), size, engine="symbolic")
        events = 0
        started = time.perf_counter()
        while True:
            loop.join(f"x{events}")
            roster = loop.members()
            loop.leave(roster[len(roster) // 2])
            events += 2
            elapsed = time.perf_counter() - started
            if elapsed >= budget_s:
                break
        rates[f"protocols.{name.lower()}.loopback_events_per_s"] = (
            events / elapsed
        )
    return rates


# -- repro.crypto -----------------------------------------------------------


def probe_crypto(scale):
    python = get_backend("python")
    rates = {}
    for name, count in (("dh-512", 1000), ("dh-1024", 400), ("dh-2048", 120)):
        group = get_group(name)
        exponents = _exponents(max(count // scale, 4), group)
        bases = [python.powmod(group.g, e, group.p) for e in exponents[:8]]

        def modexp(backend=python, group=group, exponents=exponents):
            powmod, p = backend.powmod, group.p
            for index, exponent in enumerate(exponents):
                powmod(bases[index & 7], exponent, p)

        rates[f"crypto.modexp_per_s.{name}"] = _best_rate(
            len(exponents), modexp
        )
        if name == "dh-512" and gmpy2_available():
            # informational only: not in BENCHMARK.json, shown in the document
            rates["crypto.modexp_per_s.dh-512.gmpy2"] = _best_rate(
                len(exponents), lambda: modexp(get_backend("gmpy2"))
            )

    group = get_group("dh-512")
    exponents = _exponents(max(2000 // scale, 8), group)
    table = FixedBaseTable(
        group.p, group.g, group.q_bits, window=6, backend=python
    )
    rates["crypto.fixedbase_pow_per_s"] = _best_rate(
        len(exponents), lambda: table.pow_many(exponents)
    )
    elements = table.pow_many(exponents[:4])
    products = max(200 // scale, 2)
    rates["crypto.multi_exp_per_s"] = _best_rate(
        products,
        lambda: [
            multi_exp(
                list(zip(elements, exponents[i:i + 4])), group.p,
                backend=python,
            )
            for i in range(products)
        ],
    )
    batch = exponents[: max(500 // scale, 4)]
    rates["crypto.batch_exp_per_s"] = _best_rate(
        len(batch),
        lambda: batch_exp(elements[0], batch, group.p, backend=python),
    )

    keypair = cached_rsa_keypair(512, 0)
    signer, verifier = RsaSigner(keypair), RsaVerifier()
    message = b"probe" * 20
    signature = signer.sign(message)
    signs = max(500 // scale, 4)
    rates["crypto.rsa_sign_per_s"] = _best_rate(
        signs, lambda: [signer.sign(message) for _ in range(signs)]
    )
    verifies = max(5000 // scale, 4)
    rates["crypto.rsa_verify_per_s"] = _best_rate(
        verifies,
        lambda: [
            verifier.verify(keypair.public, message, signature)
            for _ in range(verifies)
        ],
    )

    charges = 50_000 // scale
    ledger, model = OperationLedger(), pentium3_666()

    def charge():
        for _ in range(charges):
            ledger.begin_charge()
            ledger.record_exponentiation(512)
            ledger.record_multiplication(512, 3)
            ledger.charge_pending(model)

    rates["crypto.ledger_charges_per_s"] = _best_rate(charges, charge)

    context = get_engine("symbolic").context(group)
    symbolic = 100_000 // scale

    def symbolic_exp():
        value = 7
        for index in range(symbolic):
            value = context.exp(value, exponents[index & 7])

    rates["crypto.symbolic_exp_per_s"] = _best_rate(symbolic, symbolic_exp)
    return rates


# -- repro.obs --------------------------------------------------------------


def probe_obs(scale):
    n = max(128 // scale, 8)
    spec = {
        "protocol": "TGDH", "group_size": n, "dh_group": "dh-512",
        "topology": "lan", "repeats": 1, "seed": 0, "engine": "symbolic",
    }

    def cell(observe):
        return _best_seconds(
            lambda: run_scale_cell(dict(spec, observe=observe)), repeats=2
        )

    plain = cell(False)
    rates = {"obs.overhead_ratio": cell(True) / plain}

    records = 200_000 // scale

    def spans():
        obs = Observability(enabled=True)
        for index in range(records):
            obs.span("probe", "span", "actor", "proc", index, index + 1.0)

    rates["obs.span_records_per_s"] = _best_rate(records, spans)

    def observes():
        histogram = LogHistogram("probe")
        for index in range(records):
            histogram.observe(0.5 + (index & 1023))

    rates["obs.histogram_observes_per_s"] = _best_rate(records, observes)

    size = max(32 // scale, 4)
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol="TGDH", engine="symbolic", observe=True
    )
    for index in range(size):
        member = framework.member(f"m{index}", index % 13)
        framework.mark_event()
        member.join()
        framework.run_until_idle()
    if not timeline_critical_paths(framework.timeline, framework.obs.spans):
        raise RuntimeError("critical-path probe recorded no epochs")
    rates["obs.critpath_walk_s"] = _best_seconds(
        lambda: timeline_critical_paths(framework.timeline, framework.obs.spans)
    )
    return rates


# -- repro.faults / repro.workload ------------------------------------------


def probe_faults(scale):
    decisions = 200_000 // scale

    def decide():
        faults = LinkFaults.uniform(seed=0, drop=0.05)
        for index in range(decisions):
            faults.apply(index % 13, (index + 1) % 13)

    return {"faults.link_decisions_per_s": _best_rate(decisions, decide)}


def probe_workload(scale):
    duration_ms = 20_000.0 / scale
    produced = []

    def generate():
        produced[:] = poisson_stream(16, 8, 2000.0, duration_ms, 1)

    generate()
    return {
        "workload.arrival_events_per_s": _best_rate(len(produced), generate)
    }


# -- repro.net --------------------------------------------------------------


def _key_agreement_frame():
    """A MULTICAST frame shaped like a 16-member broadcast round."""
    group = get_group("dh-512")
    elements = FixedBaseTable(group.p, group.g, group.q_bits).pow_many(
        _exponents(16, group)
    )
    message = ProtocolMessage(
        protocol="GDH", epoch=(1, 17), step="keylist", sender="m0",
        body={"partials": dict(enumerate(elements))},
        element_count=16,
    )
    payload = ("key-agreement", message, elements[0], 0)
    return {
        "group": "probe", "service": "agreed", "target": None,
        "payload": encode_payload(payload),
        "size_bytes": message.size_bytes, "kind": "data",
    }


async def _wire_round_trips(frames):
    body = _key_agreement_frame()
    started = time.perf_counter()
    reader = asyncio.StreamReader()
    for _ in range(frames):
        reader.feed_data(pack_frame(FrameType.MULTICAST, body))
    for _ in range(frames):
        _ftype, decoded = await read_frame(reader)
        decode_payload(decoded["payload"])
    return frames / (time.perf_counter() - started)


async def _daemon_deliveries(clients, multicasts):
    daemon = NetDaemon(host="127.0.0.1", port=0)
    port = await daemon.start()
    members = [NetClient(f"c{i}", port=port) for i in range(clients)]
    try:
        for member in members:
            await member.connect()
            member.join("probe")
        while any(
            not m.views or len(m.views[-1].members) < clients for m in members
        ):
            await asyncio.sleep(0.001)
        started = time.perf_counter()
        for index in range(multicasts):
            members[0].multicast("probe", index)
        while any(len(m.received) < multicasts for m in members):
            await asyncio.sleep(0.001)
        return clients * multicasts / (time.perf_counter() - started)
    finally:
        for member in members:
            await member.aclose()
        await daemon.stop()


def probe_net(scale):
    frames = max(4000 // scale, 8)
    multicasts = max(2000 // scale, 8)
    return {
        "net.wire_frames_per_s": max(
            asyncio.run(_wire_round_trips(frames)) for _ in range(3)
        ),
        "net.daemon_deliver_frames_per_s": asyncio.run(
            asyncio.wait_for(_daemon_deliveries(16, multicasts), timeout=60.0)
        ),
    }


# -- repro.bench ------------------------------------------------------------


def probe_bench(scale):
    os.makedirs(OUT_DIR, exist_ok=True)
    small = scale_cells(available(), [4, 6], engine="symbolic")
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as cache_dir:
        run_cells(small, jobs=1, cache_dir=cache_dir)
        warm = _best_rate(
            len(small), lambda: run_cells(small, jobs=1, cache_dir=cache_dir)
        )
    big = scale_cells(["BD", "TGDH"], [max(48 // scale, 4), max(64 // scale, 6)],
                      engine="symbolic")

    def sweep(jobs):
        started = time.perf_counter()
        run_cells(big, jobs=jobs, use_cache=False)
        return time.perf_counter() - started

    return {
        "bench.pool_warm_cells_per_s": warm,
        "bench.pool_jobs2_speedup": sweep(1) / sweep(2),
    }


PROBES = (
    probe_sim, probe_gcs, probe_core, probe_protocols, probe_crypto,
    probe_obs, probe_faults, probe_workload, probe_net, probe_bench,
)


def run_all(profile):
    scale = SMOKE_DIVISOR if profile == "smoke" else 1
    values = {}
    timings = {}
    for probe in PROBES:
        started = time.perf_counter()
        values.update(probe(scale))
        timings[probe.__name__] = time.perf_counter() - started
    return {"values": values, "probe_seconds": timings}
