"""Tests for the DNS stamp codec."""

import pytest
from hypothesis import given, strategies as st

from repro.catalog.stamps import (
    PROP_DNSSEC,
    PROP_NO_FILTER,
    PROP_NO_LOGS,
    PROTOCOL_DOH,
    PROTOCOL_DOT,
    PROTOCOL_PLAIN,
    Stamp,
    StampError,
    decode_stamp,
    doh_stamp,
    encode_stamp,
)


class TestStampCodec:
    def test_doh_round_trip(self):
        stamp = Stamp(
            protocol=PROTOCOL_DOH,
            props=PROP_DNSSEC | PROP_NO_LOGS,
            address="9.9.9.9",
            hostname="dns.quad9.net",
            path="/dns-query",
            hashes=(bytes(range(32)),),
        )
        decoded = decode_stamp(encode_stamp(stamp))
        assert decoded == stamp
        assert decoded.dnssec and decoded.no_logs and not decoded.no_filter

    def test_plain_round_trip(self):
        stamp = Stamp(protocol=PROTOCOL_PLAIN, props=0, address="8.8.8.8:53")
        assert decode_stamp(encode_stamp(stamp)) == stamp

    def test_dot_round_trip(self):
        stamp = Stamp(
            protocol=PROTOCOL_DOT, props=PROP_NO_FILTER,
            address="", hostname="dot.example",
        )
        decoded = decode_stamp(encode_stamp(stamp))
        assert decoded.hostname == "dot.example"
        assert decoded.protocol_name == "dot"

    def test_uri_shape(self):
        uri = encode_stamp(doh_stamp("dns.example"))
        assert uri.startswith("sdns://")
        assert "=" not in uri  # unpadded base64url

    def test_multiple_hashes(self):
        stamp = Stamp(
            protocol=PROTOCOL_DOH, props=0, address="",
            hostname="h.example", path="/q",
            hashes=(b"\x01" * 32, b"\x02" * 32),
        )
        assert decode_stamp(encode_stamp(stamp)).hashes == stamp.hashes

    def test_not_a_stamp_rejected(self):
        with pytest.raises(StampError):
            decode_stamp("https://example.com")

    def test_bad_base64_rejected(self):
        with pytest.raises(StampError):
            decode_stamp("sdns://!!!")

    def test_truncated_payload_rejected(self):
        with pytest.raises(StampError):
            decode_stamp("sdns://AAAA")  # protocol byte + 2 bytes of props

    def test_unsupported_protocol_rejected(self):
        with pytest.raises(StampError):
            decode_stamp("sdns://cnViYmlzaA")

    def test_trailing_bytes_rejected(self):
        import base64

        good = encode_stamp(doh_stamp("dns.example"))
        raw = base64.urlsafe_b64decode(good[len("sdns://"):] + "==")
        padded = base64.urlsafe_b64encode(raw + b"\x00").rstrip(b"=").decode()
        with pytest.raises(StampError):
            decode_stamp(f"sdns://{padded}")

    def test_doh_stamp_default_props(self):
        stamp = doh_stamp("dns.example")
        assert stamp.dnssec and stamp.no_logs and stamp.no_filter
        assert stamp.path == "/dns-query"

    @given(
        hostname=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz.-", min_size=1, max_size=40
        ),
        path=st.text(alphabet="abcdefghijklmnopqrstuvwxyz/-", min_size=1, max_size=30),
        props=st.integers(min_value=0, max_value=7),
        address=st.text(alphabet="0123456789.:[]", max_size=20),
    )
    def test_property_doh_round_trip(self, hostname, path, props, address):
        stamp = Stamp(
            protocol=PROTOCOL_DOH, props=props, address=address,
            hostname=hostname, path=path,
        )
        assert decode_stamp(encode_stamp(stamp)) == stamp

    def test_non_utf8_field_rejected(self):
        # A DoH stamp whose address field is not UTF-8 text.
        with pytest.raises(StampError, match="not UTF-8"):
            decode_stamp("sdns://3QHkiHU0og8LDQTDbtgOceD9d7B2cOuU")

    def test_cli_decode_of_a_non_utf8_field_is_one_line(self, capsys):
        from repro.cli import main

        assert main(["stamp", "--decode", "sdns://3QHkiHU0og8LDQTDbtgOceD9d7B2cOuU"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-dns stamp: ") and "Traceback" not in err

    @given(
        payload=st.one_of(
            st.binary(max_size=300),
            # Framed like a real stamp up to the first length-prefixed
            # field, so the field decoders see arbitrary bytes too.
            st.builds(
                lambda protocol, props, field, rest: (
                    bytes([protocol]) + props + bytes([len(field)]) + field + rest
                ),
                st.sampled_from([PROTOCOL_PLAIN, PROTOCOL_DOH, PROTOCOL_DOT, 0x7F]),
                st.binary(min_size=8, max_size=8),
                st.binary(max_size=60),
                st.binary(max_size=200),
            ),
        )
    )
    def test_property_arbitrary_payload_raises_only_stamp_error(self, payload):
        """Any payload bytes: the decoder terminates, raises nothing but
        StampError, and raises the same type again on a second call."""
        import base64

        uri = "sdns://" + base64.urlsafe_b64encode(payload).rstrip(b"=").decode()
        try:
            decode_stamp(uri)
        except StampError as first:
            with pytest.raises(type(first)):
                decode_stamp(uri)

