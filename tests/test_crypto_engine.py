"""The crypto engine abstraction: real vs symbolic, and fixed-base tables.

The symbolic engine represents group elements by their discrete logs, so
every algebraic identity the protocols rely on holds exactly while no
bignum arithmetic runs; the recorded-operation wrappers are shared with
the real engine, which is what makes the charged ledgers identical.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scale import run_scale_cell
from repro.core.driver import LARGE_RUN_MAX_EVENTS, GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.crypto import engine as engine_module
from repro.crypto.engine import (
    REAL_ENGINE,
    SYMBOLIC_ENGINE,
    PowerCache,
    RealEngine,
    SymbolicEngine,
    get_engine,
)
from repro.crypto.fixedbase import FixedBaseTable
from repro.crypto.groups import GROUP_512, GROUP_TEST
from repro.crypto.ledger import OperationLedger
from repro.crypto.rng import DeterministicRandom
from repro.gcs.topology import lan_testbed
from repro.protocols import available


# -- fixed-base precomputation ------------------------------------------------


@pytest.mark.parametrize("window", [1, 3, 5, 6, 8])
def test_fixed_base_table_matches_builtin_pow(window):
    group = GROUP_512
    table = FixedBaseTable(group.p, group.g, group.q.bit_length(), window=window)
    rng = DeterministicRandom(7)
    for _ in range(20):
        e = rng.randrange(0, group.q)
        assert table.pow(e) == pow(group.g, e, group.p)


def test_fixed_base_table_edge_exponents():
    group = GROUP_TEST
    table = FixedBaseTable(group.p, group.g, group.q.bit_length(), window=4)
    for e in (0, 1, 2, group.q - 1, group.q, group.q + 1):
        assert table.pow(e) == pow(group.g, e, group.p)


def test_fixed_base_table_falls_back_outside_its_range():
    group = GROUP_TEST
    table = FixedBaseTable(group.p, group.g, group.q.bit_length(), window=4)
    oversized = 1 << (group.q.bit_length() + 13)
    assert table.pow(oversized) == pow(group.g, oversized, group.p)
    assert table.pow(-3) == pow(group.g, -3, group.p)


def test_fixed_base_table_single_window():
    # max_bits <= window collapses the table to a single row: every
    # in-range exponent is one table lookup, no assembly loop.
    group = GROUP_TEST
    max_bits = 4
    table = FixedBaseTable(group.p, group.g, max_bits, window=8)
    assert table.windows == 1
    for e in range((1 << max_bits) + 1):  # the last one falls back
        assert table.pow(e) == pow(group.g, e, group.p)


def test_fixed_base_table_boundary_bit_lengths():
    group = GROUP_TEST
    max_bits = group.q.bit_length()
    table = FixedBaseTable(group.p, group.g, max_bits, window=4)
    at_limit = (1 << max_bits) - 1  # bit_length == max_bits: table path
    beyond = 1 << max_bits  # bit_length == max_bits + 1: fallback path
    assert table.pow(at_limit) == pow(group.g, at_limit, group.p)
    assert table.pow(beyond) == pow(group.g, beyond, group.p)


def test_fixed_base_table_rejects_bad_parameters():
    group = GROUP_TEST
    with pytest.raises(ValueError):
        FixedBaseTable(group.p, group.g, group.q.bit_length(), window=0)
    with pytest.raises(ValueError):
        FixedBaseTable(group.p, group.g, 0)


def test_real_engine_precompute_changes_nothing_numerically():
    ledger_a, ledger_b = OperationLedger(), OperationLedger()
    fast = RealEngine(precompute=True).context(GROUP_512, ledger_a)
    plain = RealEngine(precompute=False).context(GROUP_512, ledger_b)
    rng = DeterministicRandom(3)
    for _ in range(5):
        e = rng.randrange(0, GROUP_512.q)
        assert fast.exp_g(e) == plain.exp_g(e)
    assert ledger_a.snapshot() == ledger_b.snapshot()


# -- shared power cache -------------------------------------------------------


def test_power_cache_counts_hits_and_matches_pow():
    group = GROUP_TEST
    cache = PowerCache(capacity=8)
    for _ in range(3):
        assert cache.pow(group.g, 5, group.p) == pow(group.g, 5, group.p)
    assert cache.pow(group.g, 6, group.p) == pow(group.g, 6, group.p)
    assert (cache.hits, cache.misses, len(cache)) == (2, 2, 2)


def test_power_cache_evicts_oldest_first():
    p = GROUP_TEST.p
    cache = PowerCache(capacity=2)
    for exponent in (1, 2, 3):  # 3 evicts 1
        cache.pow(7, exponent, p)
    assert (cache.misses, len(cache)) == (3, 2)
    cache.pow(7, 3, p)  # newest retained
    assert (cache.hits, cache.misses) == (1, 3)
    assert cache.pow(7, 1, p) == pow(7, 1, p)  # oldest recomputed
    assert (cache.hits, cache.misses, len(cache)) == (1, 4, 2)
    with pytest.raises(ValueError):
        PowerCache(capacity=0)


def test_real_engine_without_power_cache_agrees():
    uncached = RealEngine(power_cache_size=0)
    assert uncached.power_cache is None
    plain = uncached.context(GROUP_512, OperationLedger())
    cached = RealEngine().context(GROUP_512, OperationLedger())
    rng = DeterministicRandom(9)
    base = plain.exp_g(rng.randrange(1, GROUP_512.q))
    for _ in range(3):
        e = rng.randrange(1, GROUP_512.q)
        assert plain.exp(base, e) == cached.exp(base, e) == cached.exp(base, e)


@pytest.mark.parametrize(
    "protocol, hits, misses, with_trailing_restore",
    [("TGDH", 150, 54, (206, 65)), ("STR", 173, 40, (200, 44))],
    ids=["TGDH", "STR"],
)
def test_power_cache_earns_its_keep_on_tree_protocols(
    protocol, hits, misses, with_trailing_restore
):
    # The cache exists because tree-protocol members recompute each
    # other's exponentiations; the counts are a pure function of the
    # protocol, so they repeat exactly.
    engine = RealEngine(backend="python")
    run_scale_cell(
        {
            "protocol": protocol,
            "group_size": 16,
            "dh_group": "dh-test",
            "engine": engine,
        }
    )
    cache = engine.power_cache
    assert (cache.hits, cache.misses) == (hits, misses)
    assert cache.hits > cache.misses
    # Derivation: the cell is grow, join, restore, leave — and nothing
    # after.  Driving that by hand gives the same counts; the restore that
    # once followed the last leave brings them to what the cell counted
    # while it still ran one, so the difference is exactly its traffic.
    hand = RealEngine(backend="python")
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, dh_group="dh-test", engine=hand
    )
    driver = GroupDriver(framework, max_events=LARGE_RUN_MAX_EVENTS)
    driver.grow_batched(16)
    for step in (driver.join, driver.restore, driver.leave):
        driver.run(step())
    assert (hand.power_cache.hits, hand.power_cache.misses) == (hits, misses)
    driver.run(driver.restore())
    assert (
        hand.power_cache.hits, hand.power_cache.misses
    ) == with_trailing_restore


# -- discrete-log path --------------------------------------------------------

# e = k·q + r: negative exponents, exponents >= q and q itself all occur.
_EXPONENT = st.tuples(st.integers(-2, 2), st.integers(-2, 1 << 170))
# Steps pick operands counting back from the newest element.
_INDEX = st.integers(0, 7)
# Elements the engine never made: a power of g from an exponent it never
# saw, and an arbitrary residue (almost surely off the subgroup).
_FOREIGN = st.tuples(st.just("foreign"), _EXPONENT)
_RESIDUE = st.tuples(st.just("residue"), st.integers(min_value=2))
# An operand that may or may not have a known log.
_OPERAND = st.one_of(_INDEX, _FOREIGN, _RESIDUE)
_STEP = st.one_of(
    st.tuples(st.just("exp_g"), _EXPONENT),
    st.tuples(st.just("exp"), _INDEX, _EXPONENT),
    st.tuples(st.just("mul"), _INDEX, _INDEX),
    st.tuples(st.just("inv"), _OPERAND),
    # base^e · f_0^m ··· f_(m-1)^1, the base and factors mixing elements
    # with known logs and elements without.
    st.tuples(
        st.just("weighted"), _OPERAND, _EXPONENT, st.lists(_OPERAND, max_size=5)
    ),
    _FOREIGN,
    _RESIDUE,
    # One power of g reached three ways: (g^x)^y, (g^y)^x and g^(x·y).
    st.tuples(st.just("cross"), _EXPONENT, _EXPONENT),
)


_ONE_RULE_EACH = [  # a learned log, then an exponentiation that uses it
    [("exp_g", (1, 5)), ("exp", 0, (-1, 7))],
    [("exp", 0, (0, 3)), ("exp", 0, (2, -2))],
    [("exp_g", (0, 9)), ("mul", 0, 1), ("exp", 0, (0, 11))],
    [("exp_g", (0, 9)), ("inv", 0), ("exp", 0, (0, 11))],
    [("cross", (0, 6), (1, -4))],
    [("exp_g", (1, 5)), ("weighted", 1, (1, 7), [0, 1, 0]), ("exp", 0, (0, 3))],
]

_UNKNOWN_OPERAND = [  # no log known: the plain path, bit for bit
    [("inv", ("residue", 5))],
    [("weighted", ("foreign", (0, 13)), (1, 7), [0, 0])],
    [("exp_g", (1, 5)), ("weighted", 0, (0, 7), [0, ("residue", 5), 1])],
]


@settings(max_examples=100, deadline=None)
@given(
    group=st.sampled_from([GROUP_TEST, GROUP_512]),
    bound=st.sampled_from([engine_module.DLOG_MAP_SIZE] * 2 + [1, 3]),
    program=st.lists(_STEP, min_size=1, max_size=30),
)
def test_discrete_log_path_matches_plain_pow(group, bound, program):
    _check_against_plain_pow(group, bound, program)


@pytest.mark.parametrize(
    "program",
    _ONE_RULE_EACH,
    ids=[
        "exp_g",
        "exp",
        "mul",
        "inv_element",
        "one_power_three_ways",
        "weighted_product",
    ],
)
def test_each_learned_log_serves_an_exact_exponentiation(program):
    _check_against_plain_pow(GROUP_512, engine_module.DLOG_MAP_SIZE, program)


@pytest.mark.parametrize(
    "program",
    _UNKNOWN_OPERAND,
    ids=["inv_element", "weighted_base", "weighted_factor"],
)
def test_an_unknown_operand_takes_the_plain_path(program):
    _check_against_plain_pow(GROUP_512, engine_module.DLOG_MAP_SIZE, program)


def _check_against_plain_pow(group, bound, program):
    p, q = group.p, group.q
    ledger_fast, ledger_plain = OperationLedger(), OperationLedger()
    engine = RealEngine()
    with mock.patch.object(engine_module, "DLOG_MAP_SIZE", bound):
        fast = engine.context(group, ledger_fast)
        plain = RealEngine(precompute=False, power_cache_size=0).context(
            group, ledger_plain
        )
        pool = [group.g]

        def pick(index):
            return pool[-1 - index % len(pool)]

        def operand(spec):
            if isinstance(spec, int):
                return pick(spec)
            kind, arg = spec
            if kind == "foreign":
                k, r = arg
                return pow(group.g, k * q + r, p)
            return 2 + arg % (p - 3)

        def check(values):
            assert values[0] == values[1]
            assert type(values[0]) is int
            pool.append(values[0])
            return values[0]

        for step in program:
            op, args = step[0], step[1:]
            if op == "cross":
                x, y = (k * q + r for k, r in args)
                gx = check((fast.exp_g(x), plain.exp_g(x)))
                gy = check((fast.exp_g(y), plain.exp_g(y)))
                check((fast.exp(gx, y), plain.exp(gx, y)))
                check((fast.exp(gy, x), plain.exp(gy, x)))
                values = fast.exp_g(x * y), plain.exp_g(x * y)
            elif op == "exp_g":
                k, r = args[0]
                values = fast.exp_g(k * q + r), plain.exp_g(k * q + r)
            elif op == "exp":
                k, r = args[1]
                base, e = pick(args[0]), k * q + r
                values = fast.exp(base, e), plain.exp(base, e)
            elif op == "mul":
                a, b = pick(args[0]), pick(args[1])
                values = fast.mul(a, b), plain.mul(a, b)
            elif op == "inv":
                a = operand(args[0])
                values = fast.inv_element(a), plain.inv_element(a)
            elif op == "weighted":
                (k, r), base = args[1], operand(args[0])
                factors = [operand(spec) for spec in args[2]]
                values = (
                    fast.weighted_product(base, k * q + r, factors),
                    plain.weighted_product(base, k * q + r, factors),
                )
            else:  # foreign, residue
                pool.append(operand(step))
                continue
            check(values)
        dlogs, powers = engine._dlog_maps[(p, group.g)]
        assert len(dlogs) <= bound and len(powers) <= bound
    # Every pair either map holds is exact: element == g^dlog mod p.
    assert all(pow(group.g, d, p) == element for element, d in dlogs.items())
    assert all(pow(group.g, d, p) == element for d, element in powers.items())
    assert ledger_fast.snapshot() == ledger_plain.snapshot()


@pytest.mark.parametrize("protocol", available())
def test_every_power_cache_miss_takes_the_table(protocol, monkeypatch):
    # One process holds every member, so every base a member exponentiates
    # was made here: no exponentiation reaches the backend's ``powmod``.
    engine = RealEngine(backend="python")
    calls = []
    powmod = engine.backend.powmod
    monkeypatch.setattr(
        engine.backend,
        "powmod",
        lambda *args: calls.append(args) or powmod(*args),
    )
    run_scale_cell(
        {
            "protocol": protocol,
            "group_size": 16,
            "dh_group": "dh-test",
            "engine": engine,
        }
    )
    assert engine.power_cache.misses > 0
    assert calls == []


@pytest.mark.parametrize(
    "protocol, table_pows",
    [("BD", 196), ("CKD", 97), ("GDH", 109), ("STR", 77), ("TGDH", 70)],
    ids=["BD", "CKD", "GDH", "STR", "TGDH"],
)
def test_each_distinct_power_of_g_is_computed_once(protocol, table_pows, monkeypatch):
    # Members reach one power of g through different (base, exponent)
    # pairs — both children of a TGDH node, CKD's controller and member —
    # which PowerCache cannot match but the log → element map can.  Only
    # a log no member has reached yet costs a table exponentiation.
    engine = RealEngine(backend="python")
    calls = []
    table_pow = FixedBaseTable.pow
    monkeypatch.setattr(
        FixedBaseTable,
        "pow",
        lambda table, e: calls.append(e) or table_pow(table, e),
    )
    run_scale_cell(
        {
            "protocol": protocol,
            "group_size": 16,
            "dh_group": "dh-test",
            "engine": engine,
        }
    )
    assert len(calls) == table_pows
    assert len(set(calls)) == len(calls)


def test_bd_keys_in_the_exponent(monkeypatch):
    # One BD join keys m = 9 members.  Each member's z_i = g^r_i, the
    # inverse of its predecessor's z and its X_i are new powers of g
    # (3m table exponentiations); the key is one more, which the first
    # member computes and the other m - 1 find in the log -> element map.
    # No element is inverted, and the only products are the m ratios
    # z_{i+1} / z_{i-1}.
    engine = RealEngine(backend="python")
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol="BD", dh_group="dh-512", engine=engine
    )
    driver = GroupDriver(framework, max_events=LARGE_RUN_MAX_EVENTS)
    driver.grow_batched(8)
    calls = {"table": 0, "invmod": 0, "mulmod": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(FixedBaseTable, "pow", counted("table", FixedBaseTable.pow))
    for name in ("invmod", "mulmod"):
        monkeypatch.setattr(
            engine.backend, name, counted(name, getattr(engine.backend, name))
        )
    driver.run(driver.join())
    m = 9
    assert len(driver.members) == m
    assert calls == {"table": 3 * m + 1, "invmod": 0, "mulmod": m}


# -- engine dispatch ----------------------------------------------------------


def test_get_engine_dispatch():
    assert get_engine(None) is REAL_ENGINE
    assert get_engine("real") is REAL_ENGINE
    assert get_engine("symbolic") is SYMBOLIC_ENGINE
    custom = SymbolicEngine()
    assert get_engine(custom) is custom
    with pytest.raises(ValueError):
        get_engine("homomorphic")


def test_engine_names():
    assert REAL_ENGINE.name == "real"
    assert SYMBOLIC_ENGINE.name == "symbolic"


# -- symbolic algebra ---------------------------------------------------------


def test_symbolic_identities_mirror_the_real_group():
    ctx = SYMBOLIC_ENGINE.context(GROUP_TEST, OperationLedger())
    rng = DeterministicRandom(11)
    a = ctx.random_exponent(rng)
    b = ctx.random_exponent(rng)
    ga, gb = ctx.exp_g(a), ctx.exp_g(b)
    # (g^a)^b == (g^b)^a == g^(ab)
    assert ctx.exp(ga, b) == ctx.exp(gb, a)
    assert ctx.exp(ga, b) == ctx.exp_g(ctx.exponent_product(a, b))
    # g^a * g^b == g^(a+b)
    assert ctx.mul(ga, gb) == ctx.exp_g((a + b) % GROUP_TEST.q)
    # element * inverse == identity (g^0)
    assert ctx.mul(ga, ctx.inv_element(ga)) == ctx.exp_g(0)
    # blinding then unblinding via the inverse exponent round-trips
    k = ctx.random_exponent(rng)
    assert ctx.exp(ctx.exp(ga, k), ctx.inv_exponent(k)) == ga


def test_symbolic_and_real_charge_identical_ledgers():
    counts = {}
    for which in ("real", "symbolic"):
        ledger = OperationLedger()
        ctx = get_engine(which).context(GROUP_TEST, ledger)
        rng = DeterministicRandom(5)
        a, b = ctx.random_exponent(rng), ctx.random_exponent(rng)
        ga = ctx.exp_g(a)
        ctx.exp(ga, b)
        ctx.mul(ga, ctx.exp_g(b))
        ctx.inv_element(ga)
        ctx.weighted_product(ga, b, [ga, ctx.exp_g(b), ga])
        counts[which] = ledger.snapshot()
    assert counts["real"] == counts["symbolic"]


def test_diffie_hellman_agrees_under_both_engines():
    for which in ("real", "symbolic"):
        ctx_a = get_engine(which).context(GROUP_TEST, OperationLedger())
        ctx_b = get_engine(which).context(GROUP_TEST, OperationLedger())
        a = ctx_a.random_exponent(DeterministicRandom(1))
        b = ctx_b.random_exponent(DeterministicRandom(2))
        assert ctx_a.exp(ctx_b.exp_g(b), a) == ctx_b.exp(ctx_a.exp_g(a), b)
