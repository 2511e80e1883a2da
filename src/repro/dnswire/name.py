"""Domain names and their wire codec, including RFC 1035 §4.1.4 compression.

A :class:`Name` is an immutable tuple of labels (``bytes``), always stored
fully qualified (the empty root label is implicit, not stored).  Parsing
enforces the RFC limits — 63 bytes per label, 255 bytes total — and the
decompressor rejects pointer loops and forward pointers.  The case-folded
labels that comparison, hashing and compression work on are computed once
per name.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import CompressionError, MessageTruncated
from repro.errors import NameError_ as DnsNameError

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_POINTER_MASK = 0xC0

#: Bounds of the two intern tables below; a full table is emptied.  A
#: campaign names a handful of domains plus the zones above them (5
#: distinct names among the 62,312 built by one ``session_matrix`` pass,
#: 5 among 41,190 on ``ec2_doh_cold``); the bound only keeps a process
#: that decodes hostile or random wires from growing.
_INTERNED_MAX = 4096
_FROM_TEXT_MAX = 4096
#: label tuple -> the shared :class:`Name`.  Case is part of the key:
#: ``ExAmPlE.com`` and ``example.com`` are two entries that compare equal.
_INTERNED: Dict[Tuple[bytes, ...], "Name"] = {}
#: text as given to :meth:`Name.from_text` -> the shared :class:`Name`.
_FROM_TEXT: Dict[str, "Name"] = {}


class Name:
    """An immutable, case-preserving (but case-insensitively comparing)
    fully-qualified domain name."""

    __slots__ = ("_labels", "_key", "_hash")

    def __init__(self, labels: Iterable[bytes]) -> None:
        labels = tuple(labels)
        total = 0
        for label in labels:
            if not isinstance(label, bytes):
                raise DnsNameError(f"label {label!r} is not bytes")
            if not label:
                raise DnsNameError("empty interior label")
            if len(label) > MAX_LABEL_LENGTH:
                raise DnsNameError(f"label {label!r} exceeds {MAX_LABEL_LENGTH} bytes")
            total += len(label) + 1
        if total + 1 > MAX_NAME_LENGTH:
            raise DnsNameError(f"name exceeds {MAX_NAME_LENGTH} bytes on the wire")
        self._labels = labels
        #: Case-folded labels: the identity of the name (RFC 1035 §2.3.3).
        key = tuple(map(bytes.lower, labels))
        self._key = labels if key == labels else key
        self._hash: Optional[int] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def _intern(cls, labels: Tuple[bytes, ...]) -> "Name":
        """Validate ``labels``, which :data:`_INTERNED` does not hold, and
        make the name built from them the shared one."""
        name = cls(labels)
        if len(_INTERNED) >= _INTERNED_MAX:
            _INTERNED.clear()
        _INTERNED[labels] = name
        return name

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a textual name; trailing dot optional; ``"."`` is the root."""
        name = _FROM_TEXT.get(text)
        if name is not None:
            return name
        stripped = text.strip()
        if stripped in (".", ""):
            name = _ROOT
        else:
            if stripped.endswith("."):
                stripped = stripped[:-1]
            labels = []
            for part in stripped.split("."):
                if not part:
                    raise DnsNameError(f"empty label in {stripped!r}")
                labels.append(part.encode("ascii"))
            labels = tuple(labels)
            name = _INTERNED.get(labels) or cls._intern(labels)
        if len(_FROM_TEXT) >= _FROM_TEXT_MAX:
            _FROM_TEXT.clear()
        _FROM_TEXT[text] = name
        return name

    @classmethod
    def root(cls) -> "Name":
        return _ROOT

    # -- attributes ----------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def to_text(self) -> str:
        """Textual form; always ends with a trailing dot."""
        if not self._labels:
            return "."
        return ".".join(label.decode("ascii") for label in self._labels) + "."

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    # -- comparisons (case-insensitive per RFC 1035 §2.3.3) -------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    # -- structure -------------------------------------------------------------

    def parent(self) -> "Name":
        """The name with the leftmost label removed; root's parent is root."""
        if not self._labels:
            return self
        labels = self._labels[1:]
        return _INTERNED.get(labels) or Name._intern(labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or is beneath it."""
        if len(other._labels) > len(self._labels):
            return False
        if not other._labels:
            return True
        return self._key[-len(other._labels):] == other._key

    def relativize(self, origin: "Name") -> Tuple[bytes, ...]:
        """Labels of ``self`` below ``origin`` (requires subdomain)."""
        if not self.is_subdomain_of(origin):
            raise DnsNameError(f"{self} is not under {origin}")
        count = len(self._labels) - len(origin._labels)
        return self._labels[:count]

    def concatenated(self, suffix: "Name") -> "Name":
        """``self`` + ``suffix`` (self becomes the leading labels)."""
        return Name(self._labels + suffix._labels)

    @property
    def wire_length(self) -> int:
        """Uncompressed wire length in bytes."""
        return sum(len(label) + 1 for label in self._labels) + 1

    # -- wire codec ------------------------------------------------------------

    def encode(self, buffer: bytearray, compress: Optional[Dict[Tuple[bytes, ...], int]] = None) -> None:
        """Append the wire form to ``buffer``.

        If ``compress`` is given it maps lowercase label-suffix tuples to
        message offsets; suffixes already present are replaced by a pointer
        and new suffixes at pointer-encodable offsets are registered.
        """
        key = self._key
        for index, label in enumerate(self._labels):
            if compress is not None:
                suffix = key[index:]
                offset = compress.get(suffix)
                if offset is not None:
                    buffer += bytes(((_POINTER_MASK | (offset >> 8)) & 0xFF, offset & 0xFF))
                    return
                here = len(buffer)
                if here < 0x4000:
                    compress[suffix] = here
            buffer.append(len(label))
            buffer += label
        buffer.append(0)

    def to_wire(self) -> bytes:
        """Uncompressed wire form as standalone bytes."""
        out = bytearray()
        self.encode(out)
        return bytes(out)

    @classmethod
    def decode(cls, wire: bytes, offset: int) -> Tuple["Name", int]:
        """Parse a (possibly compressed) name at ``offset``.

        Returns ``(name, next_offset)`` where ``next_offset`` is the first
        byte after the name *in the original stream* (i.e. after the pointer
        if the name was compressed).  Rejects forward pointers and loops.
        """
        labels = []
        cursor = offset
        end_of_name: Optional[int] = None
        seen_offsets: Optional[set] = None  # allocated at the first pointer
        total = 0
        while True:
            if cursor >= len(wire):
                raise MessageTruncated(f"name at {offset} runs past end of message")
            length = wire[cursor]
            if length & _POINTER_MASK == _POINTER_MASK:
                if cursor + 1 >= len(wire):
                    raise MessageTruncated("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | wire[cursor + 1]
                if end_of_name is None:
                    end_of_name = cursor + 2
                if pointer >= cursor:
                    raise CompressionError(
                        f"forward compression pointer {pointer} at offset {cursor}"
                    )
                if seen_offsets is None:
                    seen_offsets = set()
                if pointer in seen_offsets:
                    raise CompressionError(f"compression pointer loop via {pointer}")
                seen_offsets.add(pointer)
                cursor = pointer
                continue
            if length & _POINTER_MASK:
                raise CompressionError(f"reserved label type 0x{length:02x}")
            if length == 0:
                if end_of_name is None:
                    end_of_name = cursor + 1
                break
            if cursor + 1 + length > len(wire):
                raise MessageTruncated("label runs past end of message")
            total += length + 1
            if total + 1 > MAX_NAME_LENGTH:
                raise DnsNameError("decoded name exceeds 255 bytes")
            labels.append(wire[cursor + 1 : cursor + 1 + length])
            cursor += 1 + length
        labels = tuple(labels)
        return _INTERNED.get(labels) or cls._intern(labels), end_of_name


_ROOT = Name(())
