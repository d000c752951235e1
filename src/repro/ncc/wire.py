"""Envelope helpers for the service wire format and journal framing.

``repro.service.api`` ships requests and responses as fixed-width
tuples keyed by ``_WIRE_KEYS``, with one *optional* trailing element
past that width.  Outbound it carries the compact trace context
``(trace_id, parent_span_id)``; inbound it carries the worker's span
tree flattened into columns (``repro.obs.trace.encode_span_columns``).
Peers that predate tracing, and requests with tracing disabled, ship the
bare tuple; :func:`wire_body` and :func:`wire_trailer` make decoding
agnostic.

:func:`crc32c` is kept only to read journal frames written before
``repro.service.journal`` switched to ``zlib.crc32``: those frames carry
a CRC-32C, and recovery still verifies them.  Nothing writes it any
more.
"""

from __future__ import annotations


def attach_trailer(wire: tuple, trailer) -> tuple:
    """Append one observability trailer element to a wire envelope."""
    return wire + (trailer,)


# --------------------------------------------------------------------- #
# Record integrity (CRC-32C)                                            #
# --------------------------------------------------------------------- #
# Castagnoli, the iSCSI/ext4 polynomial.  The stdlib only ships the zlib
# polynomial, hence the table-driven form, a Python loop over every byte;
# that cost is why new journal frames carry zlib.crc32 instead.

_CRC32C_POLY = 0x82F63B78  # reflected Castagnoli polynomial


def _crc32c_table() -> tuple:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _crc32c_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data`` (chainable via ``crc`` for streaming use).

    Kept only to read journal frames written before the journal framed
    records with ``zlib.crc32``: recovery verifies a frame whose length
    word has bit 31 clear with this checksum.
    """
    crc ^= 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def wire_body(wire: tuple, width: int) -> tuple:
    """The fixed-width envelope, with any trailer sliced off."""
    return wire[:width] if len(wire) > width else wire


def wire_trailer(wire: tuple, width: int):
    """The trailer element, or ``None`` when the envelope is bare."""
    return wire[width] if len(wire) > width else None
