"""Pluggable crypto engines: real bignum math or symbolic fast-path.

A :class:`CryptoEngine` is a factory for the
:class:`~repro.crypto.modmath.GroupElementContext` a protocol instance
does all its arithmetic through.  Two implementations exist:

:class:`RealEngine`
    Today's from-scratch big-integer path, unchanged semantics, plus
    fixed-base windowed precomputation for ``g^e`` (bit-identical values,
    measurably faster wall-clock).  Because the simulator runs every
    member in one process, the engine also remembers the discrete log of
    each element it made: an exponentiation of such a base is then one
    more fixed-base lookup, ``b^e = g^(x·e mod q)`` for ``x = dlog(b)``,
    instead of a full square-and-multiply ladder — and it remembers the
    element of each log, so a power another member already reached
    through a different ``(base, exponent)`` pair costs no ladder at all.

:class:`SymbolicEngine`
    Group elements are represented by their *discrete logarithms* modulo
    the subgroup order ``q``.  The order-``q`` subgroup of ``Z_p^*`` is
    isomorphic to the additive group ``(Z_q, +)`` via ``g^x ↦ x``, so
    every algebraic identity the protocols rely on — BD's cyclic
    sum-of-products, GDH's accumulated products, the TGDH/STR tree folds,
    CKD's pairwise-secret symmetry — holds *exactly*: members still agree
    on a common group key, only each "element" is now a ``q``-sized token
    instead of a ``p``-sized bignum.  Exponentiation collapses to one
    word-sized multiplication, which is what unlocks 1000-member groups.

Why symbolic timings are bit-identical: all ledger accounting lives in
the recorded wrappers of :class:`GroupElementContext`, which the symbolic
context inherits unchanged — it only overrides the raw arithmetic hooks
underneath.  Simulated time is computed purely from the ledger via the
:class:`~repro.crypto.costmodel.CostModel`; the numeric values flowing
through the protocol never enter the cost computation, and control flow
depends only on membership views, message arrival and the (untouched)
deterministic RNG streams.  Same operations recorded, same costs charged,
same event schedule — the same simulated milliseconds, by construction.

Why the real engine's discrete-log path is exact: ``g`` has prime order
``q``, so ``g^a = g^b`` exactly when ``a ≡ b (mod q)``.  For a base
``b = g^x``, ``pow(b, e, p) = g^(x·e) = g^(x·e mod q)`` for every integer
``e`` — negative exponents and exponents ``≥ q`` included — and the
fixed-base table returns that value bit for bit.  The reverse map
stores the same pairs keyed the other way, so each of its entries is
``g^d mod p`` for its key ``d`` exactly, and returning it for a
requested ``g^d`` is the same value the table would compute.  The same
rule makes the other map-served requests exact: ``g^x · g^(-x) = g^0 = 1``,
so the inverse of ``g^x`` is ``g^(-x mod q)``; and for ``b = g^x`` and
factors ``f_j = g^(y_j)``, ``b^e · ∏ f_j^(w_j) = g^(x·e + Σ w_j·y_j mod q)``.
The trust boundary is what goes into the maps: only pairs this process
computed itself (``g ↔ 1``, ``exp_g``, and table-served ``exp``,
``mul``, ``inv_element`` and ``weighted_product`` results).  An element
from anywhere else — a peer in another process, a value built outside
the engine, an entry a bounded map has evicted — is simply unknown: as
an operand it takes the plain path, and as a result it is recomputed
by the table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple, Union

from repro.crypto.bignum import BackendSpec, BignumBackend, get_backend
from repro.crypto.fixedbase import FixedBaseTable
from repro.crypto.groups import SchnorrGroup
from repro.crypto.ledger import OperationLedger
from repro.crypto.modmath import GroupElementContext


class CryptoEngine(ABC):
    """Factory for the arithmetic contexts the protocols compute with."""

    #: engine identifier, as accepted by :func:`get_engine` and recorded
    #: in benchmark artifacts.
    name: str = "?"

    @abstractmethod
    def context(
        self, group: SchnorrGroup, ledger: Optional[OperationLedger] = None
    ) -> GroupElementContext:
        """A fresh arithmetic context over ``group`` charging ``ledger``."""


#: Window width, in bits, of a real engine's fixed-base tables.
FIXED_BASE_WINDOW = 6

#: Shared fixed-base tables, keyed by (modulus, generator, backend
#: name) — the tables are immutable and expensive enough to build once
#: per process.
_TABLE_CACHE: Dict[Tuple[int, int, str], FixedBaseTable] = {}

#: Bound on each of a real engine's two per-group discrete-log maps,
#: with FIFO eviction like :class:`PowerCache`.  An evicted entry is just
#: unknown again: its element's next exponentiation takes the ``pow``
#: path, and its log's next power is computed by the table.
DLOG_MAP_SIZE = 1 << 16


class PowerCache:
    """A bounded FIFO cache of ``pow(base, exponent, p)`` results.

    The tree protocols recompute identical full exponentiations many
    times per epoch: every TGDH member on a node's co-path derives the
    same blinded key, and STR members re-lift the same chain links
    (measured on an n=64 real sweep: 87% of TGDH's and 95% of STR's
    ``exp`` calls repeat an earlier (base, exponent) pair — mostly
    *across* members, which is why the cache lives on the engine and is
    shared by every context it creates, not held per member).  A cached
    power is a pure function of its key, so hits are bit-identical to
    recomputation, and the ledger wrapper above the raw hook still
    charges every call — only wall-clock changes.

    Insertion-ordered dict + FIFO eviction keeps the footprint bounded
    without per-hit bookkeeping (an LRU would reorder on every hit).

    The cache is consulted before the real context's discrete-log path:
    a hit is one dict lookup, which no table beats.  ``miss`` computes
    what the cache lacks (the backend's ``powmod`` when omitted); the
    real context passes its table-or-``pow`` routine, so the lookups,
    hits and misses are the same whichever way a miss is computed.
    """

    def __init__(self, capacity: int = 8192, backend: BackendSpec = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.backend: BignumBackend = get_backend(backend)
        self._values: Dict[Tuple[int, int, int], int] = {}
        self.hits = 0
        self.misses = 0

    def pow(
        self,
        base: int,
        exponent: int,
        modulus: int,
        miss: Optional[Callable[[int, int], int]] = None,
    ) -> int:
        key = (modulus, base, exponent)
        result = self._values.get(key)
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        if miss is None:
            backend = self.backend
            result = backend.unwrap(backend.powmod(base, exponent, modulus))
        else:
            result = miss(base, exponent)
        values = self._values
        if len(values) >= self.capacity:
            del values[next(iter(values))]
        values[key] = result
        return result


class RealElementContext(GroupElementContext):
    """Real arithmetic, with repeated exponentiations served from a
    :class:`PowerCache` and the rest, where possible, from the engine's
    discrete-log maps and the generator's fixed-base table.

    ``dlogs`` (element → discrete log mod ``q``) and ``powers`` (discrete
    log → element) are the engine's two shared maps for this group
    (``None`` without a fixed-base table).  Every request whose operands
    all have known logs is answered as some ``g^d``: ``d = e mod q`` for
    ``exp_g(e)``, ``x·e mod q`` for a ``PowerCache`` miss on ``g^x``,
    ``-x mod q`` for ``inv_element(g^x)``, and ``x·e + Σ w_j·y_j mod q``
    for ``weighted_product`` (BD's key, which all members of an epoch
    share).  An element already made for that ``d`` — by any member,
    through any request — is returned as is, and only a new ``d`` takes a
    table exponentiation, whose result is recorded in both maps; so is
    the product of two known factors.  An operand with an unknown log
    takes the base context's arithmetic as before.  Accounting in the
    inherited wrappers is untouched — neither the cache nor the maps can
    change a charged cost.
    """

    def __init__(
        self,
        group: SchnorrGroup,
        ledger: Optional[OperationLedger] = None,
        fixed_base: Optional[FixedBaseTable] = None,
        power_cache: Optional[PowerCache] = None,
        backend: BackendSpec = None,
        dlogs: Optional[Dict[int, int]] = None,
        powers: Optional[Dict[int, int]] = None,
    ):
        super().__init__(group, ledger, fixed_base=fixed_base, backend=backend)
        self._power_cache = power_cache
        self._dlogs = dlogs
        self._powers = powers

    def _learn(self, element: int, dlog: int) -> None:
        dlogs, powers = self._dlogs, self._powers
        dlogs.setdefault(element, dlog)
        powers.setdefault(dlog, element)
        if len(dlogs) > DLOG_MAP_SIZE:
            del dlogs[next(iter(dlogs))]
        if len(powers) > DLOG_MAP_SIZE:
            del powers[next(iter(powers))]

    def _power_of_g(self, dlog: int) -> int:
        """``g^dlog`` for a reduced ``dlog``: a known element, else the table."""
        result = self._powers.get(dlog)
        if result is None:
            result = self._fixed_base.pow(dlog)
            self._learn(result, dlog)
        return result

    def _raw_exp(self, base: int, exponent: int) -> int:
        cache = self._power_cache
        if cache is None:
            return self._exp_miss(base, exponent)
        return cache.pow(base, exponent, self.group.p, self._exp_miss)

    def _exp_miss(self, base: int, exponent: int) -> int:
        dlogs = self._dlogs
        if dlogs is not None:
            x = dlogs.get(base)
            if x is not None:
                return self._power_of_g(x * exponent % self.group.q)
        backend = self._backend
        return backend.unwrap(backend.powmod(base, exponent, self.group.p))

    def _raw_exp_g(self, exponent: int) -> int:
        if self._powers is None:
            return super()._raw_exp_g(exponent)
        return self._power_of_g(exponent % self.group.q)

    def _raw_mul(self, a: int, b: int) -> int:
        result = super()._raw_mul(a, b)
        dlogs = self._dlogs
        if dlogs is not None:
            x, y = dlogs.get(a), dlogs.get(b)
            if x is not None and y is not None:
                self._learn(result, (x + y) % self.group.q)
        return result

    def _raw_inv_element(self, a: int) -> int:
        dlogs = self._dlogs
        if dlogs is not None:
            x = dlogs.get(a)
            if x is not None:
                return self._power_of_g(-x % self.group.q)
        return super()._raw_inv_element(a)

    def _raw_weighted_product(self, base, exponent, factors):
        dlogs = self._dlogs
        if dlogs is not None:
            total = dlogs.get(base)
            if total is not None:
                total *= exponent
                weight = len(factors)
                for factor in factors:
                    y = dlogs.get(factor)
                    if y is None:
                        break
                    total += weight * y
                    weight -= 1
                else:
                    return self._power_of_g(total % self.group.q)
        return super()._raw_weighted_product(base, exponent, factors)


class RealEngine(CryptoEngine):
    """The real big-integer path, with fixed-base precomputation.

    With a fixed-base table (the default), the engine also keeps two
    bounded maps per group, shared by every context it creates: element
    → discrete log mod ``q`` (seeded ``g → 1``), so a member can
    exponentiate another member's element through the table, and
    discrete log → element (seeded ``1 → g``), so an element any member
    already made is never exponentiated again.  The maps hold only pairs
    this process computed (see the module docstring for why they stay
    exact); at most :data:`DLOG_MAP_SIZE` entries each, oldest evicted
    first.

    ``precompute=False`` disables the windowed tables and the maps (plain
    ``pow`` everywhere); ``power_cache_size=0`` disables the shared
    exponentiation cache.  ``backend`` selects the bignum arithmetic
    (``None`` → the ``REPRO_BIGNUM`` env var, default ``auto``; see
    :mod:`repro.crypto.bignum`).  Results are bit-identical in every
    combination — :attr:`name` stays ``"real"`` whatever the backend,
    so benchmark artifacts never depend on which arithmetic ran.
    """

    name = "real"

    def __init__(
        self,
        precompute: bool = True,
        power_cache_size: int = 8192,
        backend: BackendSpec = None,
    ):
        self.precompute = precompute
        self.backend: BignumBackend = get_backend(backend)
        self.power_cache: Optional[PowerCache] = (
            PowerCache(power_cache_size, backend=self.backend)
            if power_cache_size
            else None
        )
        #: per group: (element → dlog, dlog → element)
        self._dlog_maps: Dict[Tuple[int, int], Tuple[dict, dict]] = {}

    def context(
        self, group: SchnorrGroup, ledger: Optional[OperationLedger] = None
    ) -> GroupElementContext:
        fixed_base = dlogs = powers = None
        if self.precompute:
            fixed_base = self._table_for(group)
            dlogs, powers = self._dlog_maps.setdefault(
                (group.p, group.g), ({group.g: 1}, {1: group.g})
            )
        return RealElementContext(
            group,
            ledger,
            fixed_base=fixed_base,
            power_cache=self.power_cache,
            backend=self.backend,
            dlogs=dlogs,
            powers=powers,
        )

    def _table_for(self, group: SchnorrGroup) -> FixedBaseTable:
        key = (group.p, group.g, self.backend.name)
        table = _TABLE_CACHE.get(key)
        if table is None:
            table = FixedBaseTable(
                group.p,
                group.g,
                group.q_bits,
                window=FIXED_BASE_WINDOW,
                backend=self.backend,
            )
            _TABLE_CACHE[key] = table
        return table


class SymbolicElementContext(GroupElementContext):
    """Arithmetic on discrete-log tokens: ``g^x`` is represented by ``x``.

    Only the raw hooks differ from the real context; every recorded
    wrapper — and hence every ledger entry and simulated cost — is
    inherited unchanged.  Under the isomorphism ``g^x ↦ x (mod q)``:
    exponentiation becomes multiplication, multiplication becomes
    addition, inversion becomes negation.
    """

    def _raw_exp(self, base: int, exponent: int) -> int:
        return (base * exponent) % self.group.q

    def _raw_exp_g(self, exponent: int) -> int:
        return exponent % self.group.q

    def _raw_mul(self, a: int, b: int) -> int:
        return (a + b) % self.group.q

    def _raw_inv_element(self, a: int) -> int:
        return (-a) % self.group.q

    def _raw_weighted_product(self, base, exponent, factors):
        # Under the isomorphism a weighted product is a weighted *sum*
        # of tokens; the prefix-product shortcut would treat tokens as
        # group elements, so override it whole.
        total = base * exponent
        weight = len(factors)
        for factor in factors:
            total += weight * factor
            weight -= 1
        return total % self.group.q


class SymbolicEngine(CryptoEngine):
    """Symbolic fast path: dlog tokens instead of bignum group elements."""

    name = "symbolic"

    def context(
        self, group: SchnorrGroup, ledger: Optional[OperationLedger] = None
    ) -> GroupElementContext:
        return SymbolicElementContext(group, ledger)


#: Process-wide default instances — engines are stateless apart from the
#: (already shared) table cache, so reusing them is always safe.
REAL_ENGINE = RealEngine()
SYMBOLIC_ENGINE = SymbolicEngine()

_ENGINES: Dict[str, CryptoEngine] = {
    RealEngine.name: REAL_ENGINE,
    SymbolicEngine.name: SYMBOLIC_ENGINE,
}

EngineSpec = Union[None, str, CryptoEngine]


def get_engine(which: EngineSpec = None) -> CryptoEngine:
    """Resolve an engine spec: ``None`` (real), a name, or an instance.

    Name specs may pin the real engine's bignum backend with a suffix —
    ``"real:gmpy2"`` / ``"real:python"`` / ``"real:auto"`` — resolved
    through :func:`repro.crypto.bignum.get_backend` and cached per spec.
    The resolved engine still reports :attr:`~CryptoEngine.name` as
    ``"real"``: the backend changes wall-clock only, so artifacts must
    not record it.
    """
    if which is None:
        return REAL_ENGINE
    if isinstance(which, CryptoEngine):
        return which
    try:
        return _ENGINES[which]
    except TypeError:
        pass
    except KeyError:
        if isinstance(which, str) and which.startswith(RealEngine.name + ":"):
            backend_name = which.split(":", 1)[1]
            engine = RealEngine(backend=get_backend(backend_name or None))
            _ENGINES[which] = engine
            return engine
    raise ValueError(
        f"unknown crypto engine {which!r}; expected one of "
        f"{sorted(_ENGINES)}, 'real:<backend>' or a CryptoEngine instance"
    ) from None
