"""Tests for the DNS message codec (header, question, RRs, full messages)."""

import pytest
from hypothesis import given, strategies as st

import repro.dnswire.message as message_module
from repro.faults import ANSWER_KINDS, mutate_response
from repro.dnswire.builder import make_query, make_query_wire, make_response
from repro.dnswire.message import Header, Message, Question, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import (
    AaaaRdata,
    ARdata,
    CnameRdata,
    GenericRdata,
    MxRdata,
    NsRdata,
    PtrRdata,
    SoaRdata,
    TxtRdata,
    decode_rdata,
)
from repro.dnswire.types import (
    CLASS_IN,
    RCODE_NXDOMAIN,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NS,
    TYPE_SOA,
    TYPE_TXT,
    rcode_name,
    type_name,
)
from repro.errors import DnsWireError, MessageMalformed, MessageTruncated


def rr(owner, rdtype, rdata, ttl=300):
    return ResourceRecord(Name.from_text(owner), rdtype, CLASS_IN, ttl, rdata)


class TestHeader:
    def test_flags_round_trip(self):
        header = Header(msg_id=77, qr=True, aa=True, rd=True, ra=True, rcode=3)
        buffer = bytearray()
        header.encode(buffer)
        decoded = Header.from_words(
            int.from_bytes(buffer[0:2], "big"),
            int.from_bytes(buffer[2:4], "big"),
            0, 0, 0, 0,
        )
        assert decoded.qr and decoded.aa and decoded.rd and decoded.ra
        assert not decoded.tc and not decoded.ad and not decoded.cd
        assert decoded.rcode == 3
        assert decoded.msg_id == 77

    def test_opcode_round_trip(self):
        header = Header(opcode=5)
        buffer = bytearray()
        header.encode(buffer)
        flags = int.from_bytes(buffer[2:4], "big")
        assert Header.from_words(0, flags, 0, 0, 0, 0).opcode == 5

    def test_out_of_range_id_rejected(self):
        header = Header(msg_id=70000)
        with pytest.raises(MessageMalformed):
            header.encode(bytearray())

    def test_describe_mentions_flags(self):
        text = Header(msg_id=1, qr=True, rd=True).describe()
        assert "qr" in text and "rd" in text


class TestRdataCodecs:
    @pytest.mark.parametrize(
        "rdata",
        [
            ARdata("192.0.2.1"),
            AaaaRdata("2001:db8::1"),
            CnameRdata(Name.from_text("target.example.")),
            NsRdata(Name.from_text("ns1.example.")),
            MxRdata(10, Name.from_text("mx.example.")),
            TxtRdata([b"hello", b"world"]),
            SoaRdata(
                Name.from_text("ns1.example."), Name.from_text("admin.example."),
                1, 2, 3, 4, 5,
            ),
            GenericRdata(250, b"\x01\x02\x03"),
        ],
    )
    def test_round_trip_through_message(self, rdata):
        rdtype = rdata.rdtype
        record = rr("example.com", rdtype, rdata)
        message = Message(header=Header(msg_id=1, qr=True), answers=[record])
        decoded = Message.from_wire(message.to_wire())
        assert decoded.answers[0].rdata == rdata
        assert decoded.answers[0].rdtype == rdtype

    def test_a_rdata_validates_address(self):
        with pytest.raises(ValueError):
            ARdata("not-an-ip")

    def test_a_rdata_wrong_length_rejected(self):
        with pytest.raises(MessageMalformed):
            decode_rdata(TYPE_A, b"\x01\x02", 0, 2)

    def test_aaaa_wrong_length_rejected(self):
        with pytest.raises(MessageMalformed):
            decode_rdata(TYPE_AAAA, b"\x01" * 8, 0, 8)

    def test_txt_empty_rejected(self):
        with pytest.raises(MessageMalformed):
            TxtRdata([])

    def test_txt_oversized_string_rejected(self):
        with pytest.raises(MessageMalformed):
            TxtRdata([b"x" * 256])

    def test_txt_to_text(self):
        assert TxtRdata([b"a b"]).to_text() == '"a b"'

    def test_unknown_type_round_trips_as_generic(self):
        data = b"\xde\xad\xbe\xef"
        decoded = decode_rdata(999, data, 0, 4)
        assert isinstance(decoded, GenericRdata)
        assert decoded.data == data

    def test_rdata_past_end_rejected(self):
        with pytest.raises(MessageTruncated):
            decode_rdata(TYPE_A, b"\x01\x02", 0, 4)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize(
        "rdata",
        [
            CnameRdata(Name.from_text("target.example.")),
            NsRdata(Name.from_text("ns1.example.")),
            PtrRdata(Name.from_text("host.example.")),
            MxRdata(10, Name.from_text("mx.example.")),
            SoaRdata(
                Name.from_text("ns1.example."), Name.from_text("admin.example."),
                1, 2, 3, 4, 5,
            ),
        ],
        ids=lambda rdata: type(rdata).__name__,
    )
    def test_name_rdata_rdlength_must_match_bytes_consumed(self, rdata, delta):
        """Names delimit themselves; an RDLENGTH that disagrees is malformed,
        not a licence to skip or re-read bytes."""
        buffer = bytearray()
        rdata.encode(buffer, None)
        wire = bytes(buffer) + b"\x00"  # room for the long case
        assert decode_rdata(rdata.rdtype, wire, 0, len(buffer)) == rdata
        with pytest.raises(MessageMalformed):
            decode_rdata(rdata.rdtype, wire, 0, len(buffer) + delta)

    def test_address_rdata_keeps_canonical_text_and_packed_form(self):
        assert AaaaRdata("2001:db8::0") == AaaaRdata("2001:db8::")
        assert AaaaRdata("2001:DB8:0::1").address == "2001:db8::1"
        assert AaaaRdata("2001:db8::1").packed == bytes.fromhex("20010db8" + "00" * 11 + "01")
        assert ARdata("192.0.2.1").packed == b"\xc0\x00\x02\x01"
        assert decode_rdata(TYPE_A, b"\xc0\x00\x02\x01", 0, 4) == ARdata("192.0.2.1")


class TestMessageCodec:
    def _full_message(self):
        query = make_query("www.example.com", msg_id=42)
        return make_response(
            query,
            answers=[
                rr("www.example.com", TYPE_CNAME, CnameRdata(Name.from_text("example.com"))),
                rr("example.com", TYPE_A, ARdata("192.0.2.10")),
            ],
            authorities=[rr("example.com", TYPE_NS, NsRdata(Name.from_text("ns1.example.com")))],
            additionals=[rr("ns1.example.com", TYPE_A, ARdata("192.0.2.53"))],
        )

    def test_full_message_round_trip(self):
        message = self._full_message()
        wire = message.to_wire()
        decoded = Message.from_wire(wire)
        assert decoded.header.msg_id == 42
        assert decoded.question == message.question
        assert len(decoded.answers) == 2
        assert len(decoded.authorities) == 1
        assert len(decoded.additionals) == 1
        assert decoded.answer_addresses() == ["192.0.2.10"]

    def test_counts_written_to_header(self):
        message = self._full_message()
        message.to_wire()
        assert message.header.ancount == 2
        assert message.header.nscount == 1

    def test_compression_reduces_size(self):
        message = self._full_message()
        assert len(message.to_wire(compress=True)) < len(message.to_wire(compress=False))

    def test_uncompressed_form_also_decodes(self):
        message = self._full_message()
        decoded = Message.from_wire(message.to_wire(compress=False))
        assert decoded.answers == Message.from_wire(message.to_wire()).answers

    def test_trailing_garbage_rejected(self):
        wire = self._full_message().to_wire() + b"\x00"
        with pytest.raises(MessageMalformed):
            Message.from_wire(wire)

    def test_truncated_header_rejected(self):
        with pytest.raises(MessageTruncated):
            Message.from_wire(b"\x00" * 5)

    def test_truncated_body_rejected(self):
        wire = self._full_message().to_wire()
        with pytest.raises((MessageTruncated, MessageMalformed)):
            Message.from_wire(wire[:20])

    def test_describe_is_dig_like(self):
        text = self._full_message().describe()
        assert ";; QUESTION" in text
        assert ";; ANSWER" in text
        assert "192.0.2.10" in text

    def test_with_ttl(self):
        record = rr("a.example", TYPE_A, ARdata("192.0.2.1"), ttl=300)
        assert record.with_ttl(5) == rr("a.example", TYPE_A, ARdata("192.0.2.1"), ttl=5)
        assert record.ttl == 300  # original untouched
        assert record.with_ttl(300) is record


class TestBuilders:
    def test_make_query_defaults(self):
        query = make_query("example.com")
        assert query.header.rd
        assert not query.header.qr
        assert query.question.qtype == TYPE_A
        assert query.opt_record() is not None  # EDNS attached

    def test_make_query_without_edns(self):
        assert make_query("example.com", edns=False).opt_record() is None

    def test_make_query_random_id_uses_rng(self):
        import random

        a = make_query("example.com", rng=random.Random(1))
        b = make_query("example.com", rng=random.Random(1))
        assert a.header.msg_id == b.header.msg_id

    def test_make_response_echoes_id_and_question(self):
        query = make_query("example.com", msg_id=7)
        response = make_response(query, rcode=RCODE_NXDOMAIN)
        assert response.header.msg_id == 7
        assert response.header.qr
        assert response.rcode == RCODE_NXDOMAIN
        assert response.questions == query.questions

    def test_type_and_rcode_names(self):
        assert type_name(TYPE_A) == "A"
        assert type_name(12345) == "TYPE12345"
        assert rcode_name(3) == "NXDOMAIN"


@st.composite
def messages(draw):
    msg_id = draw(st.integers(min_value=0, max_value=0xFFFF))
    qname = Name([bytes([draw(st.integers(97, 122))]) for _ in range(draw(st.integers(1, 4)))])
    answer_count = draw(st.integers(min_value=0, max_value=4))
    answers = []
    for i in range(answer_count):
        answers.append(
            ResourceRecord(
                qname, TYPE_A, CLASS_IN,
                draw(st.integers(min_value=0, max_value=86400)),
                ARdata(f"10.0.{i}.{draw(st.integers(0, 255))}"),
            )
        )
    return Message(
        header=Header(msg_id=msg_id, qr=bool(answers), rd=True),
        questions=[Question(qname, TYPE_A, CLASS_IN)],
        answers=answers,
    )


@given(message=messages())
def test_property_message_round_trip(message):
    decoded = Message.from_wire(message.to_wire())
    assert decoded.header.msg_id == message.header.msg_id
    assert decoded.questions == message.questions
    assert decoded.answers == message.answers


@given(message=messages())
def test_property_double_encode_is_stable(message):
    once = message.to_wire()
    again = Message.from_wire(once).to_wire()
    assert once == again


class TestMultiRecordRoundTrips:
    """Regressions for the shapes the answer differ feeds through the codec:
    multi-record answer sections and CNAME chains must survive the wire
    bit-exactly, compressed or not."""

    def _decode_both_ways(self, message):
        compressed = Message.from_wire(message.to_wire(compress=True))
        plain = Message.from_wire(message.to_wire(compress=False))
        assert compressed.answers == plain.answers
        return compressed

    def test_multi_a_record_answer_section_round_trips(self):
        owner = "balanced.example.com."
        message = make_response(
            make_query("balanced.example.com", msg_id=7),
            answers=[rr(owner, TYPE_A, ARdata(f"192.0.2.{i}"), ttl=300 + i)
                     for i in range(6)],
        )
        decoded = self._decode_both_ways(message)
        assert len(decoded.answers) == 6
        assert decoded.answers == message.answers
        assert decoded.answer_addresses() == [f"192.0.2.{i}" for i in range(6)]
        assert [record.ttl for record in decoded.answers] == [300 + i for i in range(6)]

    def test_mixed_type_answer_section_round_trips(self):
        owner = "mixed.example.com."
        message = make_response(
            make_query("mixed.example.com", msg_id=8),
            answers=[
                rr(owner, TYPE_A, ARdata("192.0.2.10")),
                rr(owner, TYPE_AAAA, AaaaRdata("2001:db8::10")),
                rr(owner, TYPE_MX, MxRdata(10, Name.from_text("mail.example.com"))),
                rr(owner, TYPE_TXT, TxtRdata([b"v=spf1 -all"])),
            ],
        )
        decoded = self._decode_both_ways(message)
        assert decoded.answers == message.answers

    def test_cname_chain_round_trips_in_order(self):
        """A 3-link CNAME chain terminating in an A record: section order
        carries the chain semantics, so decode must preserve it exactly."""
        chain = [
            rr("www.example.com.", TYPE_CNAME, CnameRdata(Name.from_text("cdn.example.net"))),
            rr("cdn.example.net.", TYPE_CNAME, CnameRdata(Name.from_text("edge.example.org"))),
            rr("edge.example.org.", TYPE_A, ARdata("198.51.100.7")),
        ]
        message = make_response(make_query("www.example.com", msg_id=9), answers=chain)
        decoded = self._decode_both_ways(message)
        assert decoded.answers == chain
        assert [record.name.to_text() for record in decoded.answers] == [
            "www.example.com.", "cdn.example.net.", "edge.example.org.",
        ]
        targets = [record.rdata.target.to_text()
                   for record in decoded.answers if record.rdtype == TYPE_CNAME]
        assert targets == ["cdn.example.net.", "edge.example.org."]

    def test_cname_chain_compression_points_across_records(self):
        """Chain targets repeat owner names; compression must shrink the wire
        while decoding to the identical section."""
        chain = [
            rr("a.deep.example.com.", TYPE_CNAME, CnameRdata(Name.from_text("b.deep.example.com"))),
            rr("b.deep.example.com.", TYPE_CNAME, CnameRdata(Name.from_text("c.deep.example.com"))),
            rr("c.deep.example.com.", TYPE_A, ARdata("203.0.113.30")),
        ]
        message = make_response(make_query("a.deep.example.com", msg_id=10), answers=chain)
        compressed = message.to_wire(compress=True)
        plain = message.to_wire(compress=False)
        assert len(compressed) < len(plain)
        assert Message.from_wire(compressed).answers == chain

    def test_counts_reflect_multi_record_sections(self):
        message = make_response(
            make_query("counts.example.com", msg_id=11),
            answers=[rr("counts.example.com.", TYPE_A, ARdata(f"192.0.2.{i}"))
                     for i in range(3)],
        )
        decoded = Message.from_wire(message.to_wire())
        assert decoded.header.ancount == 3
        assert len(decoded.answers) == 3


# ---------------------------------------------------------------------------
# The parse memo is invisible: Message.from_wire keeps the sections of a
# body (the bytes after the id) it decoded before.  Nothing a caller can do
# with one decoded message may show in the next, and an error is never
# answered from the table.
# ---------------------------------------------------------------------------


def _response_wire(msg_id=42):
    query = make_query("www.example.com", msg_id=msg_id)
    return make_response(
        query,
        answers=[
            rr("www.example.com", TYPE_CNAME, CnameRdata(Name.from_text("example.com"))),
            rr("example.com", TYPE_A, ARdata("192.0.2.10")),
            rr("example.com", TYPE_TXT, TxtRdata([b"v=spf1 -all"])),
        ],
        authorities=[rr("example.com", TYPE_NS, NsRdata(Name.from_text("ns1.example.com")))],
        additionals=[rr("ns1.example.com", TYPE_A, ARdata("192.0.2.53"))],
    ).to_wire()


@st.composite
def hostile_wires(draw):
    """Arbitrary bytes, or a valid response cut short and with bytes flipped
    (which reaches the record and rdata decoders far more often)."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    wire = bytearray(_response_wire(draw(st.integers(0, 0xFFFF))))
    for _ in range(draw(st.integers(0, 4))):
        wire[draw(st.integers(0, len(wire) - 1))] = draw(st.integers(0, 255))
    return bytes(wire[: draw(st.integers(0, len(wire)))] + draw(st.binary(max_size=3)))


class TestParseMemo:
    @given(wire=hostile_wires())
    def test_property_arbitrary_bytes_decode_or_raise_a_wire_error_twice(self, wire):
        try:
            first = Message.from_wire(wire)
        except DnsWireError as exc:
            # Raised again, by the decoder: the same type on the second call.
            with pytest.raises(DnsWireError) as again:
                Message.from_wire(wire)
            assert type(again.value) is type(exc)
        else:
            assert Message.from_wire(wire) == first

    def test_two_decodes_share_no_header_and_no_list(self):
        wire = _response_wire()
        first, second = Message.from_wire(wire), Message.from_wire(wire)
        assert first == second
        assert first.header is not second.header
        for section in ("questions", "answers", "authorities", "additionals"):
            assert getattr(first, section) is not getattr(second, section)
        reference = second.to_wire()
        first.header.msg_id = 7
        first.header.rcode = RCODE_NXDOMAIN
        first.header.tc = True
        first.questions.clear()
        first.answers.reverse()
        first.answers.pop()
        first.authorities.append(first.answers[0])
        first.additionals *= 2
        third = Message.from_wire(wire)
        assert third == second
        assert third.to_wire() == reference == wire

    @given(ids=st.lists(st.integers(0, 0xFFFF), min_size=2, max_size=2, unique=True))
    def test_property_wires_differing_only_in_id(self, ids):
        a, b = (Message.from_wire(_response_wire(msg_id)) for msg_id in ids)
        assert [a.header.msg_id, b.header.msg_id] == ids
        a.header.msg_id = b.header.msg_id
        assert a == b

    def test_decoded_rdata_is_immutable(self):
        decoded = Message.from_wire(_response_wire())
        with pytest.raises(AttributeError):
            decoded.answers[0].rdata.target = Name.root()
        with pytest.raises(AttributeError):
            decoded.answers[2].rdata.strings = ()
        assert isinstance(decoded.answers[2].rdata.strings, tuple)
        opt = make_query("example.com").additionals[0]
        with pytest.raises(AttributeError):
            opt.rdata.data = b"\x00"
        with pytest.raises(AttributeError):
            decoded.answers[1].ttl = 1
        with pytest.raises(AttributeError):
            decoded.questions[0].qtype = TYPE_AAAA

    @pytest.mark.parametrize("kind", ANSWER_KINDS)
    def test_answer_fault_mutators_cannot_reach_the_table(self, kind):
        wire = _response_wire()
        reference = Message.from_wire(wire)
        mutated = mutate_response(Message.from_wire(wire), kind)
        assert mutated != reference
        assert Message.from_wire(wire) == reference
        assert Message.from_wire(wire).to_wire() == wire

    def test_an_error_is_not_stored(self):
        wire = _response_wire() + b"\x00"
        for _ in range(2):
            with pytest.raises(MessageMalformed):
                Message.from_wire(wire)
        assert wire[2:] not in message_module._PARSED

    def test_table_is_emptied_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(message_module, "_PARSED_MAX", 2)
        for msg_id in range(3):
            Message.from_wire(make_query(f"n{msg_id}.example", msg_id=0).to_wire())
            assert len(message_module._PARSED) <= 2


class TestQueryWireTemplate:
    @given(
        domain=st.sampled_from(["example.com", "ExAmPlE.com", "a.b.example.org.", "."]),
        qtype=st.sampled_from([TYPE_A, TYPE_AAAA, TYPE_TXT]),
        msg_id=st.integers(0, 0xFFFF),
    )
    def test_property_equals_the_encoded_query(self, domain, qtype, msg_id):
        assert make_query_wire(domain, qtype, msg_id) == (
            make_query(domain, qtype, msg_id=msg_id).to_wire()
        )

    def test_out_of_range_id_rejected(self):
        with pytest.raises(MessageMalformed):
            make_query_wire("example.com", TYPE_A, 0x10000)
