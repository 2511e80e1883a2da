"""Tests for domain names and the compression-aware wire codec."""

import pytest
from hypothesis import given, strategies as st

import repro.dnswire.name as name_module
from repro.dnswire.name import MAX_LABEL_LENGTH, MAX_NAME_LENGTH, Name
from repro.errors import CompressionError, MessageTruncated
from repro.errors import NameError_ as DnsNameError


class TestConstruction:
    def test_from_text_basic(self):
        name = Name.from_text("google.com")
        assert name.labels == (b"google", b"com")

    def test_trailing_dot_optional(self):
        assert Name.from_text("google.com.") == Name.from_text("google.com")

    def test_root_forms(self):
        assert Name.from_text(".").is_root
        assert Name.from_text("").is_root
        assert Name.root().is_root

    def test_to_text_always_fqdn(self):
        assert Name.from_text("a.b").to_text() == "a.b."
        assert Name.root().to_text() == "."

    def test_empty_interior_label_rejected(self):
        with pytest.raises(DnsNameError):
            Name.from_text("a..b")

    def test_long_label_rejected(self):
        with pytest.raises(DnsNameError):
            Name([b"x" * (MAX_LABEL_LENGTH + 1)])

    def test_max_label_accepted(self):
        Name([b"x" * MAX_LABEL_LENGTH])

    def test_total_length_limit(self):
        labels = [b"x" * 63] * 4  # 4*64 + 1 = 257 > 255
        with pytest.raises(DnsNameError):
            Name(labels)

    def test_non_bytes_label_rejected(self):
        with pytest.raises(DnsNameError):
            Name(["text"])  # type: ignore[list-item]


class TestComparison:
    def test_case_insensitive_equality(self):
        assert Name.from_text("GOOGLE.Com") == Name.from_text("google.com")

    def test_case_insensitive_hash(self):
        assert hash(Name.from_text("A.B")) == hash(Name.from_text("a.b"))

    def test_case_preserved_in_text(self):
        assert Name.from_text("WwW.Example.COM").to_text() == "WwW.Example.COM."

    def test_inequality(self):
        assert Name.from_text("a.com") != Name.from_text("b.com")


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.google.com").parent() == Name.from_text("google.com")
        assert Name.root().parent().is_root

    def test_is_subdomain_of(self):
        child = Name.from_text("mail.google.com")
        assert child.is_subdomain_of(Name.from_text("google.com"))
        assert child.is_subdomain_of(Name.from_text("com"))
        assert child.is_subdomain_of(Name.root())
        assert child.is_subdomain_of(child)
        assert not child.is_subdomain_of(Name.from_text("yahoo.com"))
        assert not Name.from_text("com").is_subdomain_of(child)

    def test_subdomain_check_case_insensitive(self):
        assert Name.from_text("a.GOOGLE.com").is_subdomain_of(Name.from_text("google.COM"))

    def test_relativize(self):
        name = Name.from_text("a.b.example.com")
        assert name.relativize(Name.from_text("example.com")) == (b"a", b"b")
        with pytest.raises(DnsNameError):
            name.relativize(Name.from_text("other.com"))

    def test_concatenated(self):
        prefix = Name.from_text("www")
        suffix = Name.from_text("example.com")
        assert prefix.concatenated(suffix) == Name.from_text("www.example.com")

    def test_wire_length(self):
        assert Name.from_text("google.com").wire_length == 1 + 6 + 1 + 3 + 1
        assert Name.root().wire_length == 1


class TestWireCodec:
    def test_uncompressed_round_trip(self):
        name = Name.from_text("www.example.com")
        wire = name.to_wire()
        decoded, end = Name.decode(wire, 0)
        assert decoded == name
        assert end == len(wire)

    def test_root_wire_form(self):
        assert Name.root().to_wire() == b"\x00"

    def test_compression_shares_suffixes(self):
        compress = {}
        buffer = bytearray()
        Name.from_text("www.example.com").encode(buffer, compress)
        first_len = len(buffer)
        Name.from_text("mail.example.com").encode(buffer, compress)
        second_len = len(buffer) - first_len
        # "mail" (5) + pointer (2) = 7 bytes, vs 18 uncompressed.
        assert second_len == 7

    def test_compressed_names_decode_correctly(self):
        compress = {}
        buffer = bytearray()
        first = Name.from_text("www.example.com")
        second = Name.from_text("mail.example.com")
        first.encode(buffer, compress)
        offset2 = len(buffer)
        second.encode(buffer, compress)
        wire = bytes(buffer)
        decoded1, end1 = Name.decode(wire, 0)
        decoded2, end2 = Name.decode(wire, offset2)
        assert decoded1 == first
        assert decoded2 == second
        assert end2 == len(wire)

    def test_pointer_to_identical_name_is_two_bytes(self):
        compress = {}
        buffer = bytearray()
        name = Name.from_text("example.com")
        name.encode(buffer, compress)
        before = len(buffer)
        name.encode(buffer, compress)
        assert len(buffer) - before == 2

    def test_forward_pointer_rejected(self):
        # Pointer at offset 0 pointing to offset 10 (forward).
        wire = bytes([0xC0, 10]) + b"\x00" * 20
        with pytest.raises(CompressionError):
            Name.decode(wire, 0)

    def test_pointer_loop_rejected(self):
        # offset 0: label "a" then pointer to 4; offset 4: pointer back to 0.
        wire = bytes([1, ord("a"), 0xC0, 4, 0xC0, 0])
        with pytest.raises(CompressionError):
            Name.decode(wire, 4)

    def test_truncated_name_rejected(self):
        wire = bytes([5, ord("a"), ord("b")])  # label claims 5 bytes, has 2
        with pytest.raises(MessageTruncated):
            Name.decode(wire, 0)

    def test_truncated_pointer_rejected(self):
        with pytest.raises(MessageTruncated):
            Name.decode(bytes([0xC0]), 0)

    def test_missing_terminator_rejected(self):
        wire = bytes([1, ord("a")])  # no trailing 0
        with pytest.raises(MessageTruncated):
            Name.decode(wire, 0)

    def test_reserved_label_type_rejected(self):
        with pytest.raises(CompressionError):
            Name.decode(bytes([0x80, 0x00]), 0)


_label = st.binary(min_size=1, max_size=15).filter(lambda b: True)


@st.composite
def names(draw):
    count = draw(st.integers(min_value=0, max_value=6))
    labels = [draw(_label) for _ in range(count)]
    return Name(labels)


@given(name=names())
def test_property_wire_round_trip(name):
    wire = name.to_wire()
    decoded, end = Name.decode(wire, 0)
    assert decoded == name
    assert end == len(wire)
    assert len(wire) == name.wire_length


@given(first=names(), second=names())
def test_property_compressed_pair_round_trips(first, second):
    compress = {}
    buffer = bytearray()
    first.encode(buffer, compress)
    offset = len(buffer)
    second.encode(buffer, compress)
    wire = bytes(buffer)
    got_first, _ = Name.decode(wire, 0)
    got_second, end = Name.decode(wire, offset)
    assert got_first == first
    assert got_second == second
    assert end == len(wire)


@given(name=names())
def test_property_parent_chain_reaches_root(name):
    current = name
    for _ in range(len(name.labels) + 1):
        current = current.parent()
    assert current.is_root


# ---------------------------------------------------------------------------
# Interning: decode / from_text / parent hand out one shared Name per
# distinct label tuple.  Case is part of that identity, never folded away.
# ---------------------------------------------------------------------------


def _mixed_case(labels, mask):
    """``labels`` with the letters picked by the bits of ``mask`` upper-cased."""
    out, bit = [], 0
    for label in labels:
        chars = bytearray(label)
        for index, char in enumerate(chars):
            if 97 <= char <= 122:
                if mask >> bit & 1:
                    chars[index] = char - 32
                bit += 1
        out.append(bytes(chars))
    return tuple(out)


_lower_label = st.binary(min_size=1, max_size=8).map(bytes.lower)


class TestInterning:
    @pytest.fixture(autouse=True)
    def _empty_tables(self):
        name_module._INTERNED.clear()
        name_module._FROM_TEXT.clear()

    @given(
        labels=st.lists(_lower_label, min_size=1, max_size=4),
        mask=st.integers(1, 2**32 - 1),
        folded_first=st.booleans(),
    )
    def test_property_case_survives_in_either_arrival_order(self, labels, mask, folded_first):
        spellings = [tuple(labels), _mixed_case(labels, mask)]
        if not folded_first:
            spellings.reverse()
        decoded = [Name.decode(Name(spelling).to_wire(), 0)[0] for spelling in spellings]
        assert [name.labels for name in decoded] == spellings
        assert decoded[0] == decoded[1]
        assert hash(decoded[0]) == hash(decoded[1])

    def test_from_text_keeps_case_in_either_arrival_order(self):
        for texts in (["ExAmPlE.com", "example.com"], ["example.org", "EXAMPLE.org."]):
            first, second = map(Name.from_text, texts)
            assert first.to_text() == texts[0].rstrip(".") + "."
            assert second.to_text() == texts[1].rstrip(".") + "."
            assert first == second and hash(first) == hash(second)

    def test_one_instance_per_name(self):
        name = Name.from_text("www.example.com")
        assert Name.from_text("www.example.com") is name
        assert Name.from_text("www.example.com.") is name
        assert Name.decode(name.to_wire(), 0)[0] is name
        assert Name.from_text("x.www.example.com").parent() is name
        assert Name([b"x", b"www", b"example", b"com"]).parent() is name
        assert Name.root() is Name.from_text(".") is Name.from_text("")
        assert Name.root() == Name.decode(b"\x00", 0)[0]

    def test_an_invalid_name_is_rejected_every_time(self):
        for _ in range(2):
            with pytest.raises(DnsNameError):
                Name.from_text("a..b")
            with pytest.raises(DnsNameError):
                Name.from_text("x" * 64 + ".com")
        assert not name_module._FROM_TEXT

    def test_tables_are_emptied_at_their_bounds(self, monkeypatch):
        monkeypatch.setattr(name_module, "_INTERNED_MAX", 2)
        monkeypatch.setattr(name_module, "_FROM_TEXT_MAX", 2)
        names = [Name.from_text(f"host{index}.example") for index in range(5)]
        assert len(name_module._INTERNED) <= 2
        assert len(name_module._FROM_TEXT) <= 2
        # Evicted names still compare by value with their replacements.
        assert Name.from_text("host0.example") == names[0]
        assert Name.from_text("host0.example").parent() == names[4].parent()
