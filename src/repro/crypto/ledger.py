"""Operation accounting for cryptographic work.

The paper's entire conceptual analysis (Table 1) is phrased in numbers of
modular exponentiations, signatures and verifications.  Every cryptographic
primitive in :mod:`repro.crypto` is therefore executed against an
:class:`OperationLedger` that records what was done.  The simulator later
converts ledger deltas into virtual CPU time through a
:class:`~repro.crypto.costmodel.CostModel`, and the test-suite checks the
recorded counts against the closed-form Table 1 formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class OpCounts:
    """Immutable snapshot of operation counts.

    Attributes
    ----------
    exponentiations:
        Full modular exponentiations with a cryptographically sized
        (subgroup-order sized, e.g. 160-bit) exponent, keyed by modulus bits.
    small_exp_multiplications:
        Modular multiplications spent on *small-exponent* exponentiations
        (the "hidden cost" of BD's key derivation, paper §5), keyed by
        modulus bits.  A small exponentiation with exponent ``e`` costs about
        ``floor(log2 e) + popcount(e)`` multiplications via
        square-and-multiply; we record that multiplication count.
    multiplications:
        Plain modular multiplications / inversions, keyed by modulus bits.
    signatures:
        Number of digital signatures produced.
    verifications:
        Number of signature verifications performed.
    """

    exponentiations: Tuple[Tuple[int, int], ...] = ()
    small_exp_multiplications: Tuple[Tuple[int, int], ...] = ()
    multiplications: Tuple[Tuple[int, int], ...] = ()
    signatures: int = 0
    verifications: int = 0

    def exp_count(self, bits: int = 0) -> int:
        """Total full exponentiations, optionally restricted to a modulus size."""
        return sum(n for b, n in self.exponentiations if bits in (0, b))

    def small_mult_count(self, bits: int = 0) -> int:
        """Total small-exponent multiplications, optionally by modulus size."""
        return sum(n for b, n in self.small_exp_multiplications if bits in (0, b))

    def mult_count(self, bits: int = 0) -> int:
        """Total plain multiplications, optionally by modulus size."""
        return sum(n for b, n in self.multiplications if bits in (0, b))

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            exponentiations=_merge(self.exponentiations, other.exponentiations, 1),
            small_exp_multiplications=_merge(
                self.small_exp_multiplications, other.small_exp_multiplications, 1
            ),
            multiplications=_merge(self.multiplications, other.multiplications, 1),
            signatures=self.signatures + other.signatures,
            verifications=self.verifications + other.verifications,
        )

    def __sub__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            exponentiations=_merge(self.exponentiations, other.exponentiations, -1),
            small_exp_multiplications=_merge(
                self.small_exp_multiplications, other.small_exp_multiplications, -1
            ),
            multiplications=_merge(self.multiplications, other.multiplications, -1),
            signatures=self.signatures - other.signatures,
            verifications=self.verifications - other.verifications,
        )


def _merge(
    a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...], sign: int
) -> Tuple[Tuple[int, int], ...]:
    merged: Dict[int, int] = dict(a)
    for bits, count in b:
        merged[bits] = merged.get(bits, 0) + sign * count
    return tuple(sorted((bits, n) for bits, n in merged.items() if n))


def _fold(pending, totals, cost_of, price, total: float) -> float:
    """Fold one kind's pending counts into ``totals`` and add their cost
    to ``total``, term by term in ascending modulus bits (``cost_of``
    memoizes ``price`` per bits)."""
    for bits in sorted(pending) if len(pending) > 1 else pending:
        n = pending[bits]
        totals[bits] = totals.get(bits, 0) + n
        if n:
            cost = cost_of.get(bits)
            if cost is None:
                cost = cost_of[bits] = price(bits)
            total += n * cost
    pending.clear()
    return total


#: square-and-multiply multiplication counts per small exponent — a pure
#: function of the exponent, shared by every ledger (BD alone asks for
#: weights 1..n−1 once per member per rekey).
_SMALL_EXP_MULTS: Dict[int, int] = {}


class OperationLedger:
    """Mutable counter of cryptographic operations.

    One ledger belongs to one *principal* (a group member process); the
    simulator charges that principal's CPU for the delta between two
    snapshots.
    """

    def __init__(self) -> None:
        self._exps: Dict[int, int] = {}
        self._small_mults: Dict[int, int] = {}
        self._mults: Dict[int, int] = {}
        self._signatures = 0
        self._verifications = 0
        # Pending (not yet folded) records.  ``record_*`` writes land here
        # — one dict update, exactly as cheap as writing the main counters
        # directly — and :meth:`_flush` folds them into the main counters
        # whenever a reader needs totals.  The point: a charge window
        # (``begin_charge``/``charge_pending``) prices *only* the pending
        # dicts, which hold the handful of ops of one protocol step,
        # instead of diffing full-history counters per message.
        self._p_exps: Dict[int, int] = {}
        self._p_small_mults: Dict[int, int] = {}
        self._p_mults: Dict[int, int] = {}
        self._p_signatures = 0
        self._p_verifications = 0
        # per-bits cost memo for the last cost model seen (costs are pure
        # functions of bits).
        self._cost_cache: Tuple = (None, {}, {})

    def record_exponentiation(self, modulus_bits: int, count: int = 1) -> None:
        """Record ``count`` full (crypto-sized exponent) exponentiations."""
        self._p_exps[modulus_bits] = self._p_exps.get(modulus_bits, 0) + count

    def record_small_exponentiation(self, modulus_bits: int, exponent: int) -> None:
        """Record one small-exponent exponentiation as its multiplication cost."""
        if exponent <= 1:
            return
        mults = _SMALL_EXP_MULTS.get(exponent)
        if mults is None:
            mults = exponent.bit_length() - 1 + bin(exponent).count("1") - 1
            if exponent < 4096:  # the weights protocols use; keep it bounded
                _SMALL_EXP_MULTS[exponent] = mults
        self._p_small_mults[modulus_bits] = (
            self._p_small_mults.get(modulus_bits, 0) + mults
        )

    def record_multiplication(self, modulus_bits: int, count: int = 1) -> None:
        """Record ``count`` plain modular multiplications (or inversions)."""
        self._p_mults[modulus_bits] = self._p_mults.get(modulus_bits, 0) + count

    def record_signature(self, count: int = 1) -> None:
        """Record ``count`` digital signatures produced."""
        self._p_signatures += count

    def record_verification(self, count: int = 1) -> None:
        """Record ``count`` signature verifications."""
        self._p_verifications += count

    def _flush(self) -> None:
        """Fold pending records into the cumulative counters."""
        if self._p_exps:
            exps = self._exps
            for bits, n in self._p_exps.items():
                exps[bits] = exps.get(bits, 0) + n
            self._p_exps.clear()
        if self._p_small_mults:
            small = self._small_mults
            for bits, n in self._p_small_mults.items():
                small[bits] = small.get(bits, 0) + n
            self._p_small_mults.clear()
        if self._p_mults:
            mults = self._mults
            for bits, n in self._p_mults.items():
                mults[bits] = mults.get(bits, 0) + n
            self._p_mults.clear()
        if self._p_signatures:
            self._signatures += self._p_signatures
            self._p_signatures = 0
        if self._p_verifications:
            self._verifications += self._p_verifications
            self._p_verifications = 0

    def begin_charge(self) -> None:
        """Open a charge window: whatever is recorded until the matching
        :meth:`charge_pending` call is priced by it.

        Folds any records made outside a window so they cannot leak into
        this window's bill.  A member's ledger has none: every protocol
        step and every signature it makes is recorded inside one window
        of ``SecureGroupMember._charged``.  Windows do not nest — each
        runs one synchronous step, and nothing inside a step re-enters
        the charging layer.
        """
        if (
            self._p_exps or self._p_small_mults or self._p_mults
            or self._p_signatures or self._p_verifications
        ):
            self._flush()

    def charge_pending(self, cost_model) -> float:
        """Close the window: price, fold, and return the pending work.

        Bit-identical to ``cost_model.time_of(self.delta_since(snap))``
        for a snapshot taken at :meth:`begin_charge`: terms accumulate in the
        exact order ``CostModel.time_of`` uses (exponentiations, then
        small-exponent multiplications, then multiplications — each
        ascending by modulus bits — then signatures, then verifications),
        and zero counts are skipped just as ``OpCounts`` merging drops
        them, so the floating-point sums agree to the last bit.  A
        hypothesis test over mixed programs and every cost model holds
        it to that.
        """
        model, exp_cost_of, mult_cost_of = self._cost_cache
        if model is not cost_model:
            exp_cost_of, mult_cost_of = {}, {}
            self._cost_cache = (cost_model, exp_cost_of, mult_cost_of)
        total = 0.0
        if self._p_exps:
            total = _fold(
                self._p_exps, self._exps, exp_cost_of, cost_model.exp_cost, total
            )
        if self._p_small_mults:
            total = _fold(
                self._p_small_mults, self._small_mults, mult_cost_of,
                cost_model.mult_cost, total,
            )
        if self._p_mults:
            total = _fold(
                self._p_mults, self._mults, mult_cost_of, cost_model.mult_cost,
                total,
            )
        if self._p_signatures:
            total += self._p_signatures * cost_model.sign_ms
            self._signatures += self._p_signatures
            self._p_signatures = 0
        if self._p_verifications:
            total += self._p_verifications * cost_model.verify_ms
            self._verifications += self._p_verifications
            self._p_verifications = 0
        return total

    def snapshot(self) -> OpCounts:
        """Immutable snapshot of all counts so far."""
        self._flush()
        return OpCounts(
            exponentiations=tuple(sorted(self._exps.items())),
            small_exp_multiplications=tuple(sorted(self._small_mults.items())),
            multiplications=tuple(sorted(self._mults.items())),
            signatures=self._signatures,
            verifications=self._verifications,
        )

    def delta_since(self, earlier: OpCounts) -> OpCounts:
        """Work recorded since ``earlier`` was snapshotted."""
        return self.snapshot() - earlier
