"""Property-based tests for the error taxonomy and DNS wire round-trips.

``classify_error`` must map every library exception to the most specific
:class:`~repro.core.errors_taxonomy.ErrorClass` available — a new
exception type silently falling through to OTHER would skew the paper's
error breakdown — and the wire codec must round-trip any well-formed
name or query message byte-identically in meaning.
"""

import inspect
import random
import string

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.errors as errors_module
from repro.core.errors_taxonomy import (
    CONNECTION_ESTABLISHMENT_CLASSES,
    ErrorClass,
    classify_error,
)
from repro.dnswire.builder import make_query
from repro.dnswire.message import Message
from repro.dnswire.name import MAX_NAME_LENGTH, Name
from repro.dnswire.types import TYPE_A, TYPE_AAAA, TYPE_CNAME, TYPE_NS, TYPE_TXT
from repro.errors import (
    ConnectionRefused,
    ConnectionReset,
    ConnectTimeout,
    DnsWireError,
    HttpError,
    HttpStatusError,
    ProbeTimeout,
    ReproError,
    TlsError,
)

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# classify_error covers the whole exception hierarchy
# ---------------------------------------------------------------------------

#: Mirror of the taxonomy's specificity order: the first matching base
#: determines the expected class; anything else must classify as OTHER.
_EXPECTED_ORDER = (
    (ConnectionRefused, ErrorClass.CONNECT_REFUSED),
    (ConnectTimeout, ErrorClass.CONNECT_TIMEOUT),
    (ConnectionReset, ErrorClass.CONNECTION_RESET),
    (TlsError, ErrorClass.TLS_HANDSHAKE),
    (HttpError, ErrorClass.HTTP_ERROR),
    (DnsWireError, ErrorClass.DNS_MALFORMED),
    (ProbeTimeout, ErrorClass.TIMEOUT),
)


def _expected_class(exc_type: type) -> ErrorClass:
    for base, error_class in _EXPECTED_ORDER:
        if issubclass(exc_type, base):
            return error_class
    return ErrorClass.OTHER


def _all_library_exceptions():
    return sorted(
        (
            obj
            for _name, obj in inspect.getmembers(errors_module, inspect.isclass)
            if issubclass(obj, ReproError)
        ),
        key=lambda cls: cls.__name__,
    )


def _instantiate(exc_type: type) -> BaseException:
    if exc_type is HttpStatusError:
        return exc_type(503)
    return exc_type("boom")


@given(exc_type=st.sampled_from(_all_library_exceptions()))
def test_property_every_library_exception_classifies_as_expected(exc_type):
    """No library exception falls through to OTHER when a class exists."""
    result = classify_error(_instantiate(exc_type))
    assert isinstance(result, ErrorClass)
    assert result == _expected_class(exc_type)


@given(
    exc=st.sampled_from(
        [ValueError("x"), KeyError("x"), RuntimeError("x"), OSError("x"), Exception("x")]
    )
)
def test_property_foreign_exceptions_classify_as_other(exc):
    assert classify_error(exc) is ErrorClass.OTHER


def test_connection_establishment_covers_exactly_three_classes():
    expected = {
        ErrorClass.CONNECT_REFUSED,
        ErrorClass.CONNECT_TIMEOUT,
        ErrorClass.TLS_HANDSHAKE,
    }
    assert CONNECTION_ESTABLISHMENT_CLASSES == frozenset(expected)
    for member in ErrorClass:
        assert member.is_connection_establishment == (member in expected)


# ---------------------------------------------------------------------------
# DNS wire round-trips
# ---------------------------------------------------------------------------

_label = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-",
    min_size=1,
    max_size=20,
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))

_name_text = st.lists(_label, min_size=1, max_size=6).map(".".join).filter(
    lambda text: len(text) + 2 <= MAX_NAME_LENGTH
)


@_slow
@given(text=_name_text)
def test_property_name_wire_round_trip(text):
    name = Name.from_text(text)
    wire = name.to_wire()
    decoded, consumed = Name.decode(wire, 0)
    assert decoded == name
    assert consumed == len(wire)
    assert decoded.to_text() == name.to_text()


@_slow
@given(
    qname=_name_text,
    qtype=st.sampled_from([TYPE_A, TYPE_AAAA, TYPE_NS, TYPE_CNAME, TYPE_TXT]),
    msg_id=st.integers(min_value=0, max_value=0xFFFF),
    recursion=st.booleans(),
    edns=st.booleans(),
    compress=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_query_message_round_trip(
    qname, qtype, msg_id, recursion, edns, compress, seed
):
    query = make_query(
        qname,
        qtype=qtype,
        msg_id=msg_id,
        recursion_desired=recursion,
        edns=edns,
        rng=random.Random(seed),
    )
    decoded = Message.from_wire(query.to_wire(compress=compress))

    assert decoded.header.msg_id == msg_id
    assert decoded.header.rd == recursion
    assert not decoded.header.qr
    question = decoded.question
    assert question is not None
    assert question.qname == Name.from_text(qname)
    assert question.qtype == qtype
    assert (decoded.opt_record() is not None) == edns
    # Re-encoding the decoded message without compression is stable.
    assert Message.from_wire(decoded.to_wire(compress=False)).to_wire(
        compress=False
    ) == decoded.to_wire(compress=False)
