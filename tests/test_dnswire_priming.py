"""The encoder fills the decoder's table, and patches the wire it sent before.

``Message.to_wire`` leaves in ``_PARSED`` what ``from_wire`` would build from
the bytes it returns, and encodes a message made of names and rdata it has
encoded before by packing the id and the TTLs into that wire (``DESIGN.md``,
"What is memoised").  Both rest on one invariant, pinned here: *what the
encoder stores is what the decoder builds, value for value and type for
type* -- and a message for which that does not hold is encoded and decoded
as ever.  Bytes that changed in flight are another key: they run every
check of the full decoder.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.dnswire.message as message_module
from repro.dnswire import memo_stats
from repro.dnswire.builder import make_query, make_response
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
)
from repro.dnswire.types import CLASS_IN, TYPE_A, TYPE_OPT, TYPE_TXT
from repro.errors import DnsWireError, MessageMalformed, MessageTruncated
from repro.experiments.campaigns import SESSION_TARGET_HOSTNAMES, sessions_campaign_config
from repro.session import policy_from_name
from repro.transports import TRANSPORT_NAMES
from tests.test_dnswire_message import messages, rr


def _empty_tables() -> None:
    message_module._PARSED.clear()
    message_module._ENCODED.clear()


def identical(a, b) -> bool:
    """``==`` that also tells classes, containers and name spellings apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, Name):
        return a.labels == b.labels
    if dataclasses.is_dataclass(a):
        return all(
            identical(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b


def sections(message: Message) -> tuple:
    return (
        tuple(message.questions),
        tuple(message.answers),
        tuple(message.authorities),
        tuple(message.additionals),
    )


def full_decode(wire: bytes):
    """What the decoder itself makes of ``wire``: its four tuples, or the
    type of the named error it raises."""
    message_module._PARSED.clear()
    try:
        Message.from_wire(wire)
    except DnsWireError as exc:
        return type(exc)
    return message_module._PARSED[wire[2:]]


# -- strategies ---------------------------------------------------------------

#: Two spellings of some labels: a compression pointer decodes to the
#: spelling it points at, not to the one the encoder was given.
names = st.lists(
    st.sampled_from([b"example", b"Example", b"com", b"COM", b"www", b"ns1", b"a"]),
    max_size=4,
).map(Name)
u32 = st.integers(0, 0xFFFFFFFF)
rdatas = st.one_of(
    st.integers(0, 255).map(lambda n: ARdata(f"10.0.{n}.{255 - n}")),
    st.integers(0, 0xFFFF).map(lambda n: AaaaRdata(f"2001:db8::{n:x}")),
    names.map(CnameRdata),
    names.map(NsRdata),
    names.map(PtrRdata),
    st.builds(MxRdata, st.integers(0, 0xFFFF), names),
    st.builds(SoaRdata, names, names, u32, u32, u32, u32, u32),
    st.lists(st.binary(max_size=12), min_size=1, max_size=3).map(TxtRdata),
    st.builds(GenericRdata, st.just(999), st.binary(max_size=8)),
    st.builds(GenericRdata, st.just(TYPE_OPT), st.binary(max_size=8)),
    # Bytes the decoder gives to a typed codec: another class, or an error.
    st.builds(GenericRdata, st.sampled_from([TYPE_A, TYPE_TXT]), st.binary(min_size=3, max_size=4)),
)


@st.composite
def records(draw):
    rdata = draw(rdatas)
    # Now and then a type that is not the rdata's own.
    rdtype = draw(st.sampled_from([rdata.rdtype] * 27 + [TYPE_A, TYPE_TXT, 999]))
    rdclass = draw(st.sampled_from([CLASS_IN, 1232]))
    return ResourceRecord(draw(names), rdtype, rdclass, draw(u32), rdata)


@st.composite
def shapes(draw):
    """A message of any shape, and a second one made of the same names and
    rdata under another id and other TTLs."""
    header = Header(
        msg_id=draw(st.integers(0, 0xFFFF)),
        qr=draw(st.booleans()),
        aa=draw(st.booleans()),
        rd=draw(st.booleans()),
        ra=draw(st.booleans()),
        rcode=draw(st.integers(0, 15)),
    )
    message = Message(
        header=header,
        questions=[
            Question(draw(names), draw(st.sampled_from([TYPE_A, TYPE_TXT])), CLASS_IN)
            for _ in range(draw(st.integers(0, 2)))
        ],
        answers=draw(st.lists(records(), max_size=3)),
        authorities=draw(st.lists(records(), max_size=2)),
        additionals=draw(st.lists(records(), max_size=2)),
    )
    again = Message(
        header=dataclasses.replace(header, msg_id=draw(st.integers(0, 0xFFFF))),
        questions=list(message.questions),
        answers=[r.with_ttl(draw(u32)) for r in message.answers],
        authorities=[r.with_ttl(draw(u32)) for r in message.authorities],
        additionals=[r.with_ttl(draw(u32)) for r in message.additionals],
    )
    return message, again


# -- the invariant ---------------------------------------------------------------


def _assert_stored_is_what_the_decoder_builds(message: Message) -> None:
    wire = message.to_wire()
    stored = message_module._PARSED.get(wire[2:])
    decoded = full_decode(wire)
    if isinstance(decoded, type):
        assert stored is None  # an encoding the decoder refuses is not stored
    else:
        assert identical(stored, decoded)


@given(message=messages())
def test_property_simple_messages_are_stored_as_decoded(message):
    _empty_tables()
    _assert_stored_is_what_the_decoder_builds(message)  # the decoder's own entry
    assert message_module._ENCODED  # these all decode to themselves
    _assert_stored_is_what_the_decoder_builds(message)  # the encoder's entry
    assert identical(message_module._PARSED[message.to_wire()[2:]], sections(message))


@settings(max_examples=300)
@given(pair=shapes())
def test_property_any_shape_is_stored_as_decoded_and_patched_as_encoded(pair):
    message, again = pair
    _empty_tables()
    expected = again.to_wire()  # tables empty: the encoder
    _empty_tables()
    _assert_stored_is_what_the_decoder_builds(message)
    before = memo_stats()["to_wire"]["hits"]
    assert again.to_wire() == expected
    patched = memo_stats()["to_wire"]["hits"] - before
    # Patched iff the first message decoded to itself; either way what is
    # stored for the second one is what the decoder builds from it.
    assert patched == len(message_module._ENCODED)
    if patched:
        assert identical(full_decode(message.to_wire()), sections(message))
    _assert_stored_is_what_the_decoder_builds(again)


#: Shapes that do not decode to themselves: never patched, never stored by
#: the encoder; the decoder's own entry is the only one.
_LOWER, _MIXED = Name([b"example", b"com"]), Name([b"ExAmPlE", b"com"])
NOT_ROUND_TRIPPING = {
    "a pointer to another spelling": Message(
        header=Header(msg_id=1, qr=True),
        questions=[Question(_LOWER, TYPE_A)],
        answers=[ResourceRecord(_MIXED, TYPE_A, CLASS_IN, 60, ARdata("192.0.2.1"))],
    ),
    "generic rdata of a typed record": Message(
        header=Header(msg_id=1, qr=True),
        answers=[ResourceRecord(_LOWER, TYPE_A, CLASS_IN, 60, GenericRdata(TYPE_A, b"\x01\x02\x03\x04"))],
    ),
    "rdata of another type": Message(
        header=Header(msg_id=1, qr=True),
        answers=[ResourceRecord(_LOWER, 999, CLASS_IN, 60, ARdata("192.0.2.1"))],
    ),
    "rdata its codec refuses": Message(
        header=Header(msg_id=1, qr=True),
        answers=[ResourceRecord(_LOWER, TYPE_A, CLASS_IN, 60, GenericRdata(TYPE_A, b"\x01\x02"))],
    ),
}


@pytest.mark.parametrize("shape", NOT_ROUND_TRIPPING)
def test_a_shape_that_does_not_decode_to_itself_is_never_patched(shape):
    message = NOT_ROUND_TRIPPING[shape]
    _empty_tables()
    before = memo_stats()["to_wire"]
    wires = {message.to_wire() for _ in range(3)}
    after = memo_stats()["to_wire"]
    assert len(wires) == 1 and not message_module._ENCODED
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (0, 3)
    _assert_stored_is_what_the_decoder_builds(message)
    decoded = full_decode(message.to_wire())
    assert isinstance(decoded, type) or not identical(decoded, sections(message))


def test_a_mixed_case_name_alone_round_trips_with_its_spelling():
    message = make_response(make_query(_MIXED, msg_id=3),
                            answers=[ResourceRecord(_MIXED, TYPE_A, CLASS_IN, 60, ARdata("192.0.2.1"))])
    _empty_tables()
    wire = message.to_wire()
    assert message_module._ENCODED
    assert message.to_wire() == wire
    assert Message.from_wire(wire).question.qname.labels == _MIXED.labels
    assert Message.from_wire(wire).answers[0].name.labels == _MIXED.labels


def test_a_cached_answer_is_patched_and_its_reader_hits():
    """The campaign's case: one answer, aged by the cache, under the id of
    each query in turn."""
    _empty_tables()
    record = rr("example.com", TYPE_A, ARdata("192.0.2.10"), ttl=300)
    start = memo_stats()
    for age, msg_id in enumerate([7, 0, 0xFFFF, 7]):
        query = make_query("example.com", msg_id=msg_id)
        response = make_response(query, answers=[record.with_ttl(300 - age)],
                                 additionals=query.additionals)
        wire = response.to_wire()
        decoded = Message.from_wire(wire)
        assert decoded.header.msg_id == msg_id
        assert [r.ttl for r in decoded.answers] == [300 - age]
        assert decoded.answers == response.answers and decoded.questions == query.questions
        assert wire == _encoded_like_the_parent(response)
    end = memo_stats()
    # Encoded once and patched three times; the decoder ran once (the
    # encoder's own check of the first wire) and every reader hit.
    assert end["to_wire"]["misses"] - start["to_wire"]["misses"] == 1
    assert end["to_wire"]["hits"] - start["to_wire"]["hits"] == 3
    assert end["from_wire"]["misses"] - start["from_wire"]["misses"] == 1
    assert end["from_wire"]["hits"] - start["from_wire"]["hits"] == 4


def _encoded_like_the_parent(message: Message) -> bytes:
    """``to_wire`` as it was before it remembered anything: header, then
    every question and record through one compression map."""
    buffer = bytearray()
    message.header.encode(buffer)
    compress = {}
    for question in message.questions:
        question.encode(buffer, compress)
    for record in [*message.answers, *message.authorities, *message.additionals]:
        record.encode(buffer, compress)
    return bytes(buffer)


def test_an_id_out_of_range_is_refused_on_the_patched_path_too():
    _empty_tables()
    message = make_query("example.com", msg_id=5)
    message.to_wire()
    message.header.msg_id = 0x10000
    with pytest.raises(MessageMalformed):
        message.to_wire()


def test_uncompressed_encoding_stores_nothing():
    _empty_tables()
    before = memo_stats()
    message = make_response(make_query("www.example.com", msg_id=42),
                            answers=[rr("www.example.com", TYPE_A, ARdata("192.0.2.10"))])
    for _ in range(2):
        message.to_wire(compress=False)
    assert not message_module._PARSED and not message_module._ENCODED
    assert memo_stats() == before


# -- bytes that changed in flight ---------------------------------------------------


def _primed_response() -> bytes:
    """A response stored by the encoder, not by the decoder (second pass)."""
    _empty_tables()
    query = make_query("www.example.com", msg_id=42)
    response = make_response(
        query,
        answers=[
            rr("www.example.com", 5, CnameRdata(Name.from_text("example.com"))),
            rr("example.com", TYPE_A, ARdata("192.0.2.10")),
            rr("example.com", TYPE_TXT, TxtRdata([b"v=spf1 -all"])),
        ],
        authorities=[rr("example.com", 2, NsRdata(Name.from_text("ns1.example.com")))],
        additionals=query.additionals,
    )
    response.to_wire()
    hits = memo_stats()["to_wire"]["hits"]
    wire = response.to_wire()
    assert memo_stats()["to_wire"]["hits"] == hits + 1
    return wire


def _mutations(wire: bytes):
    for at in range(2, len(wire)):  # the id is not part of the key
        for mask in (0x01, 0x20, 0x80, 0xFF):
            flipped = bytearray(wire)
            flipped[at] ^= mask
            yield bytes(flipped)
        yield wire[:at] + wire[at + 1:]
    for extra in (b"\x00", b"\xc0", b"\xff"):
        yield wire + extra


def test_one_byte_changed_in_flight_reaches_the_full_decoder():
    wire = _primed_response()
    primed = dict(message_module._PARSED)
    assert wire[2:] in primed
    outcomes = set()
    for mutated in _mutations(wire):
        assert mutated[2:] not in primed
        message_module._PARSED.clear()
        message_module._PARSED.update(primed)
        misses = memo_stats()["from_wire"]["misses"]
        try:
            warm = sections(Message.from_wire(mutated))
        except DnsWireError as exc:
            warm = type(exc)
        assert memo_stats()["from_wire"]["misses"] == misses + 1
        cold = full_decode(mutated)
        assert identical(warm, cold) if isinstance(cold, tuple) else warm is cold
        outcomes.add(cold if isinstance(cold, type) else tuple)
    # Every one of the decoder's named refusals was exercised, and so was
    # "still a message, another one".
    assert {MessageMalformed, MessageTruncated, tuple} <= outcomes
    assert all(o is tuple or issubclass(o, DnsWireError) for o in outcomes)
    assert full_decode(wire + b"\x00") is MessageMalformed  # trailing byte
    assert full_decode(wire[:-1]) is MessageTruncated  # rdata past the end


# -- every message a campaign puts on the wire -----------------------------------


def test_every_message_of_a_campaign_is_stored_as_decoded(monkeypatch):
    """One round, the five resolvers that serve every transport, cold
    resolver caches (so the recursive walk's referrals are on the wire
    too): each distinct message any ``to_wire`` returned decodes, with the
    table empty, to exactly the sections its encoder held."""
    from repro.catalog.resolvers import CATALOG
    from repro.core.runner import Campaign
    from repro.experiments.world import build_world

    sent = {}
    encode = Message.to_wire

    def spy(self, compress=True):
        wire = encode(self, compress)
        if compress:
            sent.setdefault(wire[2:], (wire, sections(self)))
        return wire

    monkeypatch.setattr(Message, "to_wire", spy)
    _empty_tables()
    catalog = [e for e in CATALOG if e.hostname in SESSION_TARGET_HOSTNAMES]
    world = build_world(seed=4, catalog=catalog, warm_caches=False)
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage("ec2-ohio"), world.vantage("ec2-seoul")],
        targets=world.targets(list(SESSION_TARGET_HOSTNAMES)),
        config=sessions_campaign_config(
            policy_from_name("cold"), rounds=1, seed=9, transports=TRANSPORT_NAMES
        ),
    )
    stats = memo_stats()
    store = campaign.run()
    answered = {r.transport for r in store.records if r.success}
    assert answered == set(TRANSPORT_NAMES)
    assert memo_stats()["to_wire"]["hits"] > stats["to_wire"]["hits"]
    assert len(sent) >= 20  # queries, referrals, glue, answers per transport
    for wire, held in sent.values():
        decoded = full_decode(wire)
        assert isinstance(decoded, tuple), wire
        assert identical(decoded, held), Message.from_wire(wire).describe()
