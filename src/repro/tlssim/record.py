"""TLS record framing.

Records use the real TLS layout — ``type(1) | version(2) | length(2) | body``
— so that segmentation across the simulated TCP stream behaves like the
real protocol (a 3 kB certificate flight spans multiple records/segments).
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

from repro.errors import TlsError

CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23
CONTENT_ALERT = 21

#: Wire version field (TLS 1.2 value is used on the wire even by TLS 1.3).
WIRE_VERSION = 0x0303

#: Maximum record body size (RFC 8446 §5.1).
MAX_RECORD_BODY = 16384

_HEADER = struct.Struct("!BHH")


def wrap_record(content_type: int, body: bytes) -> bytes:
    """Frame ``body`` into one or more TLS records."""
    if len(body) <= MAX_RECORD_BODY:  # one record, the empty one included
        return _HEADER.pack(content_type, WIRE_VERSION, len(body)) + body
    out = bytearray()
    for offset in range(0, len(body), MAX_RECORD_BODY):
        chunk = body[offset : offset + MAX_RECORD_BODY]
        out += _HEADER.pack(content_type, WIRE_VERSION, len(chunk))
        out += chunk
    return bytes(out)


class RecordStream:
    """Incremental record parser over a TCP byte stream.

    Feed raw bytes in; iterate complete ``(content_type, body)`` records out.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Add bytes and return all newly completed records.

        With nothing buffered, which is how nearly every feed arrives, the
        records are cut straight out of ``data`` and only an incomplete
        tail is copied into the buffer.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            source = buffer
        else:
            source = data
        records = []
        offset = 0
        available = len(source)
        header_size = _HEADER.size
        try:
            while available - offset >= header_size:
                content_type, version, length = _HEADER.unpack_from(source, offset)
                if version != WIRE_VERSION:
                    raise TlsError(f"unexpected record version 0x{version:04x}")
                if length > MAX_RECORD_BODY:
                    raise TlsError(f"record body {length} exceeds maximum")
                end = offset + header_size + length
                if end > available:
                    break
                records.append((content_type, bytes(source[offset + header_size : end])))
                offset = end
        finally:
            # Also on error: what was consumed stays consumed.
            if source is buffer:
                del buffer[:offset]
            elif offset < available:
                buffer += source[offset:]
        return records

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:  # pragma: no cover
        raise TlsError("RecordStream is fed incrementally; use feed()")
