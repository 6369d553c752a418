"""The paper's reception physics as a :class:`ReceptionModel`.

Audibility is binary — within range ``R`` and inside the transmit
beam — and any overlap of audible signals corrupts everything unless
an explicit SNR capture threshold is configured (GloMoSim's
RADIO-ACCNOISE behaviour, threaded from
:attr:`~repro.phy.frames.PhyParameters.capture_threshold`).

This module is a *relocation*, not a reinterpretation: the receiver
logic is the decision tree that used to live inline in
``Radio.on_signal_start``/``on_signal_end``, and the received-power
law is the ``d**-alpha`` free-space form that used to live on
:class:`~repro.phy.propagation.UnitDiskPropagation`.  The equivalence
suite (``tests/integration/test_reception_equivalence.py``) pins this
path bit-identical to the pre-subsystem channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..propagation import Position, UnitDiskPropagation
from .base import Receiver, ReceptionModel, RxOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..channel import Transmission

__all__ = ["UnitDiskReception", "UnitDiskReceiver"]


@dataclass(slots=True)
class _SignalRecord:
    """Book-keeping for one signal currently impinging on this radio."""

    tx: "Transmission"
    power: float = 1.0
    corrupted: bool = False
    missed: bool = False  # preamble lost (we were deaf when it started)


# Hoisted enum members: signal_end sits on the per-signal hot path and
# the class-attribute lookups measurably cost there.
_DELIVERED = RxOutcome.DELIVERED
_FAILED = RxOutcome.FAILED
_SILENT = RxOutcome.SILENT


class UnitDiskReceiver(Receiver):
    """Collision-if-overlap reception, with optional SNR capture."""

    __slots__ = ("capture_threshold", "_rx_current")

    def __init__(self, capture_threshold: float | None) -> None:
        super().__init__()
        self.capture_threshold = capture_threshold
        self._rx_current: int | None = None

    def signal_start(self, tx: "Transmission", power: float, deaf: bool) -> bool:
        record = _SignalRecord(tx, power)
        threshold = self.capture_threshold
        records = self.records
        if deaf:
            # Deaf: the preamble is lost forever.
            record.missed = True
        elif records:
            if threshold is None:
                # No capture: everything in the air here is garbage.
                record.corrupted = True
                for other in records.values():
                    other.corrupted = True
                self._rx_current = None
            elif self._rx_current is not None:
                # SNR check for the ongoing reception; the newcomer's
                # preamble overlapped it either way.
                current = records[self._rx_current]
                interference = (
                    sum(s.power for s in records.values())
                    - current.power
                    + power
                )
                if current.power < threshold * interference:
                    current.corrupted = True
                    self._rx_current = None
                record.missed = True
            else:
                # Background garbage only: capture the newcomer if it
                # dominates the sum of everything else.
                interference = sum(s.power for s in records.values())
                if power >= threshold * interference:
                    self._rx_current = tx.tx_id
                else:
                    record.missed = True
        else:
            # Clean start on an idle medium: begin decoding.
            self._rx_current = tx.tx_id
        records[tx.tx_id] = record
        return self._rx_current == tx.tx_id

    def signal_end(self, tx: "Transmission", transmitting: bool) -> RxOutcome | None:
        record = self.records.pop(tx.tx_id, None)
        if record is None:  # pragma: no cover - channel never double-ends
            return None
        decoded = self._rx_current == tx.tx_id
        if decoded:
            self._rx_current = None
        if decoded and not record.corrupted and not record.missed:
            return _DELIVERED
        if record.corrupted and not record.missed and not transmitting:
            return _FAILED
        return _SILENT

    def abandon(self) -> None:
        # The energy stays tracked; the frames can no longer deliver.
        for record in self.records.values():
            record.missed = True
        self._rx_current = None


class UnitDiskReception(ReceptionModel):
    """Binary range-``R`` audibility with relative ``d**-alpha`` powers."""

    name = "unitdisk"

    def __init__(
        self,
        propagation: UnitDiskPropagation,
        capture_threshold: float | None = None,
        pathloss_exponent: float = 2.0,
    ) -> None:
        super().__init__(propagation)
        if not pathloss_exponent > 0:
            raise ValueError(
                f"pathloss exponent must be positive, got {pathloss_exponent!r}"
            )
        self.capture_threshold = capture_threshold
        self.pathloss_exponent = pathloss_exponent

    def link_budget(
        self, src_id: int, dst_id: int, src: Position, dst: Position
    ) -> tuple[bool, float]:
        """Audible iff within range; power is the relative path-loss law.

        Power is normalized so a receiver 1 m away sees 1.0; distances
        below 1 m are clamped to avoid singularities.
        """
        return (
            self.propagation.reaches(src, dst),
            max(src.distance_to(dst), 1.0) ** -self.pathloss_exponent,
        )

    def audible_candidates(
        self, src_id: int, dst_ids: Sequence[int], distances: np.ndarray
    ) -> np.ndarray:
        """Pairs within range, widened by 1e-9 relative for the ulp slack."""
        return distances <= self.propagation.range_m * (1.0 + 1e-9)

    def make_receiver(self) -> UnitDiskReceiver:
        return UnitDiskReceiver(self.capture_threshold)
