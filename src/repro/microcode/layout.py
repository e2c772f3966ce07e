"""Bitfield struct layout and bit-granular memory access.

Microcode header definitions list fields with bit widths (the format "is
similar to that of P4", §3.2): fields pack most-significant-bit first in
network byte order, and unnamed fields are alignment padding.  ALU
operands in Trio can be bit-fields of arbitrary length and offset (§2.2),
so :func:`read_bits` / :func:`write_bits` operate at single-bit
granularity over any buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["FieldLayout", "StructLayout", "read_bits", "write_bits"]


def read_bits(buf: Sequence[int], bit_offset: int, width: int) -> int:
    """Read ``width`` bits starting ``bit_offset`` bits into ``buf``.

    Bits are numbered MSB-first within each byte (network order).
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    end_bit = bit_offset + width
    if bit_offset < 0 or end_bit > len(buf) * 8:
        raise ValueError(
            f"bit range [{bit_offset}, {end_bit}) outside buffer of "
            f"{len(buf)} bytes"
        )
    first_byte = bit_offset >> 3
    last_byte = (end_bit - 1) >> 3
    window = int.from_bytes(buf[first_byte:last_byte + 1], "big")
    window_bits = (last_byte - first_byte + 1) * 8
    shift = window_bits - (bit_offset - first_byte * 8) - width
    return (window >> shift) & ((1 << width) - 1)


def write_bits(buf: bytearray, bit_offset: int, width: int, value: int) -> None:
    """Write ``width`` bits of ``value`` at ``bit_offset`` (MSB-first)."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    end_bit = bit_offset + width
    if bit_offset < 0 or end_bit > len(buf) * 8:
        raise ValueError(
            f"bit range [{bit_offset}, {end_bit}) outside buffer of "
            f"{len(buf)} bytes"
        )
    value &= (1 << width) - 1
    first_byte = bit_offset >> 3
    last_byte = (end_bit - 1) >> 3
    window = int.from_bytes(buf[first_byte:last_byte + 1], "big")
    window_bits = (last_byte - first_byte + 1) * 8
    shift = window_bits - (bit_offset - first_byte * 8) - width
    mask = ((1 << width) - 1) << shift
    window = (window & ~mask) | (value << shift)
    buf[first_byte:last_byte + 1] = window.to_bytes(window_bits // 8, "big")


@dataclass(frozen=True)
class FieldLayout:
    """One named field: its bit offset from the struct start and width."""

    name: str
    bit_offset: int
    width: int


class StructLayout:
    """Layout of one Microcode struct: ordered bitfields, MSB-first.

    Unnamed fields (padding, written ``: 4;`` in source) consume bits but
    are not addressable.
    """

    def __init__(self, name: str, fields: List[Tuple[Optional[str], int]]):
        """``fields`` is an ordered list of (name_or_None, bit_width)."""
        self.name = name
        self.fields: Dict[str, FieldLayout] = {}
        offset = 0
        for field_name, width in fields:
            if width <= 0:
                raise ValueError(
                    f"struct {name}: field {field_name or '<pad>'} has "
                    f"non-positive width {width}"
                )
            if field_name is not None:
                if field_name in self.fields:
                    raise ValueError(
                        f"struct {name}: duplicate field {field_name!r}"
                    )
                self.fields[field_name] = FieldLayout(field_name, offset, width)
            offset += width
        if offset % 8 != 0:
            raise ValueError(
                f"struct {name}: total width {offset} bits is not "
                "byte-aligned (add padding fields)"
            )
        self.total_bits = offset
        #: Precompiled (shift, mask) per field against one big-endian
        #: integer holding the whole struct — lets pack/unpack run as a
        #: single int conversion instead of per-field window arithmetic.
        self._extract: Dict[str, Tuple[int, int]] = {
            f.name: (offset - f.bit_offset - f.width, (1 << f.width) - 1)
            for f in self.fields.values()
        }

    @property
    def size_bytes(self) -> int:
        """sizeof(struct) in bytes."""
        return self.total_bits // 8

    def field(self, name: str) -> FieldLayout:
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(
                f"struct {self.name} has no field {name!r} "
                f"(has: {sorted(self.fields)})"
            ) from None

    def shift_mask(self, name: str) -> Tuple[int, int]:
        """(shift, mask) of field ``name`` within an instance read as one
        big-endian integer: the field is ``(window >> shift) & mask``."""
        self.field(name)  # raises the descriptive KeyError
        return self._extract[name]

    def read(self, buf: Sequence[int], base_byte: int, field_name: str) -> int:
        """Read field ``field_name`` of an instance at ``base_byte``."""
        layout = self.field(field_name)
        return read_bits(buf, base_byte * 8 + layout.bit_offset, layout.width)

    def write(self, buf: bytearray, base_byte: int, field_name: str,
              value: int) -> None:
        """Write field ``field_name`` of an instance at ``base_byte``."""
        layout = self.field(field_name)
        write_bits(buf, base_byte * 8 + layout.bit_offset, layout.width, value)

    def pack(self, **values: int) -> bytes:
        """Build an instance from field values (padding stays zero)."""
        extract = self._extract
        window = 0
        for name, value in values.items():
            try:
                shift, mask = extract[name]
            except KeyError:
                self.field(name)  # raises the descriptive KeyError
                raise
            window |= (value & mask) << shift
        return window.to_bytes(self.total_bits // 8, "big")

    def unpack(self, data: Sequence[int], base_byte: int = 0) -> Dict[str, int]:
        """Read every named field of an instance at ``base_byte``."""
        size = self.total_bits // 8
        if isinstance(data, (bytes, bytearray, memoryview)):
            chunk = data[base_byte:base_byte + size]
        else:
            chunk = bytes(data[base_byte:base_byte + size])
        if len(chunk) != size:
            raise ValueError(
                f"struct {self.name}: need {size} bytes at offset "
                f"{base_byte}, buffer has {len(chunk)}"
            )
        window = int.from_bytes(chunk, "big")
        return {
            name: (window >> shift) & mask
            for name, (shift, mask) in self._extract.items()
        }

    def __repr__(self) -> str:
        return f"<StructLayout {self.name} {self.size_bytes}B>"
