"""Control-information sizing for the broadcast protocols (Sec. 4.1).

The protocols differ in how many control bits accompany the data in each
broadcast cycle:

* **F-Matrix** — column ``j`` of the ``n × n`` matrix rides with object
  ``j``: ``n × TS`` bits per object slot, ``n² × TS`` bits per cycle.
  Appendix D (Theorem 8) shows this is worst-case incompressible:
  quadratically many distinct matrices arise, so we charge the full size.
* **R-Matrix / Datacycle** — one vector entry per object: ``TS`` bits per
  slot, ``n × TS`` per cycle.
* **Group matrix** — each group's length-``n`` column is broadcast once
  per cycle: ``g × n × TS`` bits per cycle, amortised evenly over slots.
* **F-Matrix-No** — the ideal baseline: zero control bits.

The paper's overhead fractions follow directly:
``n·TS / (n·TS + OBJ)`` for F-Matrix (≈23% at n=300, TS=8, OBJ=8 Kibit)
and ``TS / (TS + OBJ)`` (≈0.1%) for the vector schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ControlInfoScheme",
    "scheme_for_protocol",
]


@dataclass(frozen=True)
class ControlInfoScheme:
    """Per-slot and per-cycle control-bit accounting."""

    name: str
    #: control bits broadcast alongside each object slot
    bits_per_slot: int
    #: control bits broadcast once per cycle (not attached to a slot)
    bits_per_cycle_extra: int = 0

    def cycle_control_bits(self, num_objects: int) -> int:
        return self.bits_per_slot * num_objects + self.bits_per_cycle_extra

    def cycle_bits(self, num_objects: int, object_bits: int) -> int:
        """Total broadcast cycle length in bits (data + control)."""
        return num_objects * object_bits + self.cycle_control_bits(num_objects)

    def overhead_fraction(self, num_objects: int, object_bits: int) -> float:
        """Fraction of the cycle spent on control information (Sec. 4.1)."""
        total = self.cycle_bits(num_objects, object_bits)
        return self.cycle_control_bits(num_objects) / total


def scheme_for_protocol(
    protocol: str,
    *,
    num_objects: int,
    timestamp_bits: int,
    num_groups: int = 1,
) -> ControlInfoScheme:
    """The control-information scheme a protocol mandates.

    ``num_groups`` only matters for ``group-matrix``.
    """
    if protocol == "f-matrix":
        return ControlInfoScheme("f-matrix", num_objects * timestamp_bits)
    if protocol == "f-matrix-no":
        return ControlInfoScheme("f-matrix-no", 0)
    if protocol in ("r-matrix", "datacycle"):
        return ControlInfoScheme(protocol, timestamp_bits)
    if protocol == "group-matrix":
        total = num_groups * num_objects * timestamp_bits
        per_slot, remainder = divmod(total, num_objects)
        return ControlInfoScheme("group-matrix", per_slot, remainder)
    raise ValueError(f"unknown protocol {protocol!r}")
