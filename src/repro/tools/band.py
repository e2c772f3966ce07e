"""Calibration bands: the check both calibration bridges share.

A bridge accepts the ratio of a cheap model's result to the packet
level's inside a band ``[1/b, b]``.  A leaf: imports nothing from
``repro``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol

__all__ = ["Banded", "band_cell", "verdict", "within_band"]


class Banded(Protocol):
    @property
    def within_band(self) -> bool: ...


def within_band(ratio: float, band: float) -> bool:
    return 1.0 / band <= ratio <= band


def band_cell(ratio: float, band: float) -> str:
    """The report's ``[1/b, b]`` band and ``ok``/``OUT OF BAND`` status."""
    status = "ok" if within_band(ratio, band) else "OUT OF BAND"
    return f"[{1 / band:.2f}x, {band:.2f}x] {status}"


def verdict(report: str, records: Mapping[str, Banded], noun: str,
            werror: bool, out: Optional[str] = None) -> int:
    """Print ``report`` and a line naming the out-of-band records (also
    to the file ``out``); the exit status is 1 only under ``werror``."""
    out_of_band = [name for name, record in records.items()
                   if not record.within_band]
    if out_of_band:
        report += f"\n\nout of band: {', '.join(out_of_band)}"
    else:
        report += f"\n\nall {noun} within the calibration band"
    print(report)
    if out:
        with open(out, "w") as handle:
            handle.write(report + "\n")
    return 1 if out_of_band and werror else 0
