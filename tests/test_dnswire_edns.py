"""Tests for EDNS(0) handling and query padding."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.dnswire.builder import make_query
from repro.dnswire.edns import (
    OPTION_PADDING,
    EdnsOption,
    EdnsOptions,
    add_edns,
    get_edns,
    pad_query,
)
from repro.dnswire.message import Message
from repro.dnswire.types import TYPE_OPT
from repro.errors import MessageMalformed


class TestEdnsRecord:
    def test_round_trip_via_record(self):
        options = EdnsOptions(
            payload_size=4096,
            dnssec_ok=True,
            options=[EdnsOption(10, b"cookie")],
        )
        record = options.to_record()
        decoded = EdnsOptions.from_record(record)
        assert decoded.payload_size == 4096
        assert decoded.dnssec_ok
        assert decoded.options == [EdnsOption(10, b"cookie")]

    def test_round_trip_through_wire(self):
        query = make_query("example.com", msg_id=0)
        add_edns(query, EdnsOptions(payload_size=1400, dnssec_ok=True))
        decoded = Message.from_wire(query.to_wire())
        edns = get_edns(decoded)
        assert edns is not None
        assert edns.payload_size == 1400
        assert edns.dnssec_ok

    def test_add_edns_replaces_existing(self):
        query = make_query("example.com", msg_id=0)
        add_edns(query, EdnsOptions(payload_size=512))
        add_edns(query, EdnsOptions(payload_size=4096))
        opts = [r for r in query.additionals if r.rdtype == TYPE_OPT]
        assert len(opts) == 1
        assert get_edns(query).payload_size == 4096

    def test_get_edns_none_when_absent(self):
        assert get_edns(make_query("example.com", edns=False)) is None

    def test_wrong_record_type_rejected(self):
        query = make_query("example.com", msg_id=0)
        # A copy: the default OPT record is frozen and shared by every query.
        record = dataclasses.replace(query.additionals[0], rdtype=1)
        with pytest.raises(MessageMalformed):
            EdnsOptions.from_record(record)

    def test_nonzero_version_rejected_on_encode(self):
        with pytest.raises(MessageMalformed):
            EdnsOptions(version=1).to_record()

    def test_extended_rcode_packing(self):
        options = EdnsOptions(extended_rcode=0xAB)
        assert EdnsOptions.from_record(options.to_record()).extended_rcode == 0xAB


class TestPadding:
    def test_padded_query_is_block_multiple(self):
        query = pad_query(make_query("a.example", msg_id=0))
        assert len(query.to_wire()) % 128 == 0

    def test_padding_option_present(self):
        query = pad_query(make_query("a.example", msg_id=0))
        edns = get_edns(query)
        assert any(option.code == OPTION_PADDING for option in edns.options)

    def test_padding_is_idempotent_in_size(self):
        once = pad_query(make_query("a.example", msg_id=0))
        twice = pad_query(once)
        assert len(twice.to_wire()) == len(once.to_wire())

    def test_custom_block_size(self):
        query = pad_query(make_query("a.example", msg_id=0), block_size=64)
        assert len(query.to_wire()) % 64 == 0

    @given(label=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=40))
    def test_property_padded_sizes_hide_name_length(self, label):
        query = pad_query(make_query(f"{label}.example", msg_id=0))
        assert len(query.to_wire()) % 128 == 0
