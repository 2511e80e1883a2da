"""Per-layer table: direct calls into each layer's public functions.

Every ``*_us`` metric is the median host microseconds per operation over
``batches`` batches, each sized (by doubling) to last at least
``batch_seconds``.  Fixtures are a two-host quiet ``Network`` (no jitter,
no loss, so every operation does the same work) or a world restricted to
``SESSION_TARGET_HOSTNAMES``; the probes query ``dns.adguard.com`` from
``ec2-frankfurt``.  Tracing (``repro.obs``) is off except where a metric
says otherwise.  Every batch is taken at reference host speed (see
:mod:`benchmarks.perf.hostspeed`).  The table does not depend on the
workload: it is the same code in every traced run.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List

from repro.core.probes import (
    Do53Probe,
    Doh3Probe,
    DohProbe,
    DohProbeConfig,
    DoqProbe,
    DotProbe,
    PingProbe,
)
from repro.core.results import MeasurementRecord, ResultStore
from repro.dnswire.builder import make_query, make_response
from repro.dnswire.canonical import canonical_form_from_wire
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import ARdata
from repro.dnswire.types import CLASS_IN, TYPE_A
from repro.experiments.world import World, build_world
from repro.httpsim.doh import (
    decode_doh_request,
    decode_doh_response,
    encode_doh_request,
    encode_doh_response,
)
from repro.httpsim.h1 import (
    H1RequestParser,
    H1ResponseParser,
    encode_request,
    encode_response,
)
from repro.httpsim.h2 import H2ClientSession, H2ServerSession
from repro.httpsim.h3 import (
    decode_h3_request,
    decode_h3_response,
    encode_h3_request,
    encode_h3_response,
)
from repro.monitor import Monitor, default_policy
from repro.netsim.clock import EventLoop
from repro.netsim.geo import Coordinates
from repro.netsim.host import Host
from repro.netsim.icmp import ping
from repro.netsim.latency import AccessProfile, LatencyModel
from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.netsim.sockets import SimTcpConnection, SimUdpSocket
from repro.obs import NULL_RECORDER, MetricsRegistry, SpanCollector, tracing
from repro.observers import ObserverFleet
from repro.quicsim.connection import (
    QuicClientConnection,
    QuicConfig,
    QuicServerListener,
)
from repro.store import AggregateBook, StoreSink, Warehouse, iter_segment
from repro.store.segment import SegmentWriter
from repro.tlssim.handshake import (
    TlsClientConfig,
    TlsClientConnection,
    TlsServerConfig,
    TlsServerConnection,
)
from repro.tlssim.session import SessionCache

from benchmarks.perf.hostspeed import ReferenceKernel, Stopwatch, scaled
from benchmarks.perf.workloads import (
    SEGMENT_RECORDS,
    LappingStore,
    ec2_campaign,
    session_world,
)

PROBE_RESOLVER = "dns.adguard.com"
PROBE_VANTAGE = "ec2-frankfurt"
TRACING_RATIO_ROUNDS = 2

Batch = Callable[[int], None]


class per_record:
    """A batch whose one call handles ``count`` records (a whole copy)."""

    def __init__(self, batch: Batch, count: int) -> None:
        self.batch = batch
        self.count = count

    def __call__(self, copies: int) -> None:
        self.batch(copies)


# -- timing ----------------------------------------------------------------------


def per_op_us(
    kernel: ReferenceKernel, batch: Batch, batch_seconds: float, batches: int
) -> float:
    """Median microseconds per operation of ``batch(n)``, at reference speed."""
    n = 1
    while True:
        started = time.perf_counter()
        batch(n)
        elapsed = time.perf_counter() - started
        if elapsed >= batch_seconds / 2 or n >= 1 << 22:
            break
        n *= 2
    n = max(1, int(n * batch_seconds / max(elapsed, 1e-9)))
    samples = []
    for _ in range(batches):
        _raw, at_reference, _ = scaled(kernel, lambda: batch(n))
        samples.append(at_reference / n * 1e6)
    return median(samples)


# -- fixtures --------------------------------------------------------------------

_QUIET = AccessProfile("quiet", delay_ms=0.0, jitter_ms=0.0, loss_rate=0.0)


def two_hosts():
    """A quiet network with a client in Chicago and a server in Columbus."""
    model = LatencyModel.internet_default()
    model.core_jitter_ms = 0.0
    model.core_loss_rate = 0.0
    net = Network(loop=EventLoop(), latency_model=model, seed=0)
    client = net.attach(
        Host("client", "10.0.0.1", Coordinates(41.88, -87.63), "NA", _QUIET)
    )
    server = net.attach(
        Host("server", "10.0.0.2", Coordinates(39.96, -83.00), "NA", _QUIET)
    )
    return net, client, server


def sample_records(world: World, seed: int, rounds: int = 4) -> List[MeasurementRecord]:
    """A few hundred real records (DoH + ping) from the session-target world."""
    return ec2_campaign(world, rounds, seed).run().records


def _noop(*_args) -> None:
    return None


# -- netsim ------------------------------------------------------------------------


def netsim_ops() -> Dict[str, Batch]:
    loop = EventLoop()

    def dispatch(n: int) -> None:
        for _ in range(n):
            loop.call_later(1.0, _noop)
        loop.run()

    net, client, server = two_hosts()
    server.bind_udp(9, _noop)

    def transmit(n: int) -> None:
        for _ in range(n):
            net.transmit(client, Datagram(client.ip, 4000, server.ip, 9, b"x" * 64))
        net.run()

    echo = SimUdpSocket(server, 7)
    echo.on_datagram = lambda d: echo.sendto(d.payload, d.src_ip, d.src_port)
    sock = SimUdpSocket(client)
    sock.on_datagram = _noop

    def udp_echo(n: int) -> None:
        for _ in range(n):
            sock.sendto(b"x" * 64, server.ip, 7)
        net.run()

    def accept(conn: SimTcpConnection) -> None:
        conn.on_data = conn.send
        conn.on_close = conn.close

    server.listen_tcp(80, accept)

    def tcp_connect_close(n: int) -> None:
        for _ in range(n):
            SimTcpConnection.connect(client, server.ip, 80, lambda c: c.close())
            net.run()

    live: List[SimTcpConnection] = []
    SimTcpConnection.connect(client, server.ip, 80, live.append)
    net.run()
    live[0].on_data = _noop

    def tcp_echo(n: int) -> None:
        for _ in range(n):
            live[0].send(b"x" * 100)
            net.run()

    def icmp_ping(n: int) -> None:
        for _ in range(n):
            ping(client, server.ip, _noop)
            net.run()

    return {
        "netsim.clock.dispatch_us": dispatch,
        "netsim.network.transmit_us": transmit,
        "netsim.sockets.udp_echo_us": udp_echo,
        "netsim.sockets.tcp_connect_close_us": tcp_connect_close,
        "netsim.sockets.tcp_echo_us": tcp_echo,
        "netsim.icmp.ping_us": icmp_ping,
    }


# -- tlssim / quicsim ----------------------------------------------------------------


def tlssim_ops() -> Dict[str, Batch]:
    net, client, server = two_hosts()
    server_config = TlsServerConfig()

    def accept(tcp: SimTcpConnection) -> None:
        tls = TlsServerConnection(tcp, server_config)
        tls.on_application_data = tls.send_application

    server.listen_tcp(443, accept)

    def connect(config: TlsClientConfig, sink: List[TlsClientConnection]) -> None:
        def on_tcp(tcp: SimTcpConnection) -> None:
            TlsClientConnection(
                tcp, "bench.example", config, on_established=sink.append
            )

        SimTcpConnection.connect(client, server.ip, 443, on_tcp)
        net.run()

    def handshakes(config: TlsClientConfig) -> Batch:
        def batch(n: int) -> None:
            for _ in range(n):
                done: List[TlsClientConnection] = []
                connect(config, done)
                done[0].close()
                net.run()

        return batch

    cache = SessionCache()
    resumed = TlsClientConfig(session_cache=cache, enable_early_data=False)
    handshakes(resumed)(1)  # stores the ticket the batches resume from

    live: List[TlsClientConnection] = []
    connect(TlsClientConfig(), live)
    live[0].on_application_data = _noop

    def app_record(n: int) -> None:
        for _ in range(n):
            live[0].send_application(b"x" * 100)
            net.run()

    return {
        "tlssim.full_handshake_us": handshakes(TlsClientConfig()),
        "tlssim.resumed_handshake_us": handshakes(resumed),
        "tlssim.app_record_us": app_record,
    }


def quicsim_ops() -> Dict[str, Batch]:
    net, client, server = two_hosts()
    QuicServerListener(
        server, 853, lambda conn, sid, data: conn.respond_stream(sid, data), QuicConfig()
    )

    def exchanges(config: QuicConfig) -> Batch:
        def batch(n: int) -> None:
            for _ in range(n):
                conn = QuicClientConnection(
                    client, server.ip, 853, "bench.example", config=config
                )
                conn.open_stream(b"x" * 64, _noop)
                net.run()
                conn.close()
                net.run()

        return batch

    early = QuicConfig(session_cache=SessionCache())
    exchanges(early)(1)  # stores the ticket the 0-RTT batches resume from

    live = QuicClientConnection(client, server.ip, 853, "bench.example")
    live.open_stream(b"warm", _noop)
    net.run()

    def stream(n: int) -> None:
        for _ in range(n):
            live.open_stream(b"x" * 64, _noop)
            net.run()

    return {
        "quicsim.handshake_us": exchanges(QuicConfig()),
        "quicsim.zero_rtt_us": exchanges(early),
        "quicsim.stream_us": stream,
    }


# -- httpsim / dnswire ----------------------------------------------------------------


def _response_message() -> Message:
    query = make_query("google.com", TYPE_A, msg_id=0)
    qname = query.questions[0].qname
    answers = [
        ResourceRecord(qname, TYPE_A, CLASS_IN, 300, ARdata(f"142.250.0.{i}"))
        for i in range(1, 5)
    ]
    return make_response(query, answers=answers, additionals=query.additionals)


def httpsim_ops() -> Dict[str, Batch]:
    query_wire = make_query("google.com", TYPE_A, msg_id=0).to_wire()
    answer_wire = _response_message().to_wire()
    request = encode_doh_request(query_wire)
    response = encode_doh_response(answer_wire)

    def h1(n: int) -> None:
        for _ in range(n):
            (got,) = H1RequestParser().feed(encode_request(request, "bench.example"))
            H1ResponseParser().feed(encode_response(response))
            assert got.body == query_wire

    # One h2 connection, one stream per operation, wired back to back in memory.
    to_server: List[bytes] = []
    to_client: List[bytes] = []
    h2_client = H2ClientSession(to_server.append, "bench.example")
    h2_server = H2ServerSession(
        to_client.append, lambda _req, stream_id: h2_server.respond(stream_id, response)
    )

    def h2_pump() -> None:
        while to_server or to_client:
            while to_server:
                h2_server.feed(to_server.pop(0))
            while to_client:
                h2_client.feed(to_client.pop(0))

    h2_pump()

    def h2(n: int) -> None:
        for _ in range(n):
            h2_client.request(request, _noop)
            h2_pump()

    def h3(n: int) -> None:
        for _ in range(n):
            decode_h3_request(encode_h3_request(request, "bench.example"))
            decode_h3_response(encode_h3_response(response))

    def doh_codec(n: int) -> None:
        for _ in range(n):
            decode_doh_request(encode_doh_request(query_wire))
            decode_doh_response(encode_doh_response(answer_wire))

    return {
        "httpsim.h1.exchange_us": h1,
        "httpsim.h2.exchange_us": h2,
        "httpsim.h3.exchange_us": h3,
        "httpsim.doh.codec_us": doh_codec,
    }


def dnswire_ops() -> Dict[str, Batch]:
    name = Name.from_text("www.wikipedia.com")
    name_wire = name.to_wire()
    message = _response_message()
    wire = message.to_wire()
    rng = random.Random(0)

    def each(fn: Callable[[], object]) -> Batch:
        def batch(n: int) -> None:
            for _ in range(n):
                fn()

        return batch

    return {
        "dnswire.name.encode_us": each(name.to_wire),
        "dnswire.name.decode_us": each(lambda: Name.decode(name_wire, 0)),
        "dnswire.message.to_wire_us": each(message.to_wire),
        "dnswire.message.from_wire_us": each(lambda: Message.from_wire(wire)),
        "dnswire.builder.make_query_us": each(
            lambda: make_query("google.com", TYPE_A, rng=rng)
        ),
        "dnswire.canonical.from_wire_us": each(lambda: canonical_form_from_wire(wire)),
    }


# -- resolver / probes ------------------------------------------------------------------


def resolver_ops(world: World) -> Dict[str, Batch]:
    site = world.deployment(PROBE_RESOLVER).sites[0]
    engine, cache, net = site.engine, site.cache, world.network
    qname = Name.from_text("google.com")
    key = (qname, TYPE_A, CLASS_IN)
    assert cache.get(key, net.now) is not None, "warm-up left no cached answer"

    def cache_hit(n: int) -> None:
        now = net.now
        for _ in range(n):
            cache.get(key, now)

    def resolve_hit(n: int) -> None:
        for _ in range(n):
            engine.resolve_question(qname, TYPE_A, _noop)

    def resolve_miss(n: int) -> None:
        for _ in range(n):
            cache.flush()
            engine.resolve_question(qname, TYPE_A, _noop)
            net.run()

    # The miss batches leave the cache warm again (each ends on a resolve).
    return {
        "resolver.cache.get_hit_us": cache_hit,
        "resolver.recursive.resolve_hit_us": resolve_hit,
        "resolver.recursive.resolve_miss_us": resolve_miss,
    }


def probe_ops(world: World) -> Dict[str, Batch]:
    host = world.vantage(PROBE_VANTAGE).host
    ip = world.deployment(PROBE_RESOLVER).service_ip
    net = world.network

    def queries(make_probe: Callable[[], object], keep: bool = False) -> Batch:
        kept = make_probe() if keep else None

        def batch(n: int) -> None:
            for _ in range(n):
                probe = kept if kept is not None else make_probe()
                probe.query("google.com", _noop)
                net.run()
                if kept is None:
                    probe.close()
                    net.run()

        return batch

    def pings(n: int) -> None:
        for _ in range(n):
            PingProbe(host, ip).send(_noop)
            net.run()

    reuse = DohProbeConfig(reuse_connections=True)
    return {
        "core.probes.doh_cold_us": queries(lambda: DohProbe(host, ip, PROBE_RESOLVER)),
        "core.probes.doh_reuse_us": queries(
            lambda: DohProbe(host, ip, PROBE_RESOLVER, reuse), keep=True
        ),
        "core.probes.dot_cold_us": queries(lambda: DotProbe(host, ip, PROBE_RESOLVER)),
        "core.probes.doq_cold_us": queries(lambda: DoqProbe(host, ip, PROBE_RESOLVER)),
        "core.probes.doh3_cold_us": queries(lambda: Doh3Probe(host, ip, PROBE_RESOLVER)),
        "core.probes.do53_us": queries(lambda: Do53Probe(host, ip)),
        "core.probes.ping_us": pings,
    }


# -- records, store, consumers ------------------------------------------------------------


def results_ops(records: List[MeasurementRecord]) -> Dict[str, Batch]:
    lines = [record.to_json() for record in records]
    shuffled = list(records)
    random.Random(0).shuffle(shuffled)

    def over_records(fn: Callable[[MeasurementRecord], object]) -> Batch:
        def batch(n: int) -> None:
            for index in range(n):
                fn(records[index % len(records)])

        return batch

    def from_json(n: int) -> None:
        for index in range(n):
            MeasurementRecord.from_json(lines[index % len(lines)])

    def canonical_sort(copies: int) -> None:
        for _ in range(copies):
            sorted(shuffled, key=ResultStore.canonical_key)

    return {
        "core.results.to_json_us": over_records(MeasurementRecord.to_json),
        "core.results.from_json_us": from_json,
        "core.results.canonical_sort_us": per_record(canonical_sort, len(records)),
    }


def store_ops(records: List[MeasurementRecord], workdir: Path) -> Dict[str, Batch]:
    """Per-record store costs, measured on whole copies of ``records``."""
    counter = [0]
    count = len(records)

    def fresh(prefix: str) -> Path:
        counter[0] += 1
        return workdir / f"{prefix}-{counter[0]}"

    def sink_add(copies: int) -> None:
        for _ in range(copies):
            root = fresh("sink")
            sink = StoreSink(Warehouse(root), segment_records=SEGMENT_RECORDS)
            sink.extend(records)
            sink.close()
            shutil.rmtree(root)

    def segment_append(copies: int) -> None:
        for _ in range(copies):
            root = fresh("segment")
            writer = SegmentWriter(root, "seg-000000")
            for record in records:
                writer.append(record)
            writer.close()
            shutil.rmtree(root)

    staged = StoreSink(Warehouse(fresh("staged")), segment_records=SEGMENT_RECORDS)
    staged.extend(records)
    staging = staged.close()
    canonical = Warehouse.build_canonical([staging], fresh("canonical"), SEGMENT_RECORDS)
    segment_path = canonical.segments_dir / canonical.manifest()["segments"][0]

    def segment_iter(copies: int) -> None:
        for _ in range(copies):
            for _record in iter_segment(segment_path):
                pass

    def aggregates_observe(n: int) -> None:
        book = AggregateBook()
        for index in range(n):
            book.observe(records[index % len(records)])

    def build_canonical(copies: int) -> None:
        for _ in range(copies):
            root = fresh("rebuild")
            Warehouse.build_canonical([staging], root, SEGMENT_RECORDS)
            shutil.rmtree(root)

    def iter_sorted(copies: int) -> None:
        for _ in range(copies):
            for _record in canonical.iter_sorted():
                pass

    def aggregates_load(n: int) -> None:
        for _ in range(n):
            canonical.aggregates()

    return {
        "store.sink.add_us": per_record(sink_add, count),
        "store.segment.append_us": per_record(segment_append, count),
        "store.segment.iter_us": per_record(segment_iter, count),
        "store.aggregates.observe_us": aggregates_observe,
        "store.aggregates.load_ms": aggregates_load,
        "store.warehouse.build_canonical_us": per_record(build_canonical, count),
        "store.warehouse.iter_sorted_us": per_record(iter_sorted, count),
    }


def consumer_ops(records: List[MeasurementRecord]) -> Dict[str, Batch]:
    ordered = sorted(records, key=ResultStore.canonical_key)

    def monitor_observe(n: int) -> None:
        monitor = Monitor(default_policy())
        for index in range(n):
            monitor.observe(ordered[index % len(ordered)])

    def observers_observe(n: int) -> None:
        fleet = ObserverFleet()
        for index in range(n):
            fleet.observe(ordered[index % len(ordered)])

    registry = MetricsRegistry(enabled=True)

    def metrics_observe(n: int) -> None:
        for index in range(n):
            registry.observe("bench.query_ms", float(index % 500), transport="doh")

    def noop_span(n: int) -> None:
        for _ in range(n):
            NULL_RECORDER.end(NULL_RECORDER.begin("probe", 0.0), 1.0)

    return {
        "monitor.observe_us": monitor_observe,
        "observers.observe_us": observers_observe,
        "obs.metrics.observe_us": metrics_observe,
        "obs.noop_span_us": noop_span,
    }


def finalize_metrics(
    kernel: ReferenceKernel, records: List[MeasurementRecord], batches: int
) -> Dict[str, float]:
    """Host milliseconds of ``finalize()`` alone, after a replay of ``records``."""
    ordered = sorted(records, key=ResultStore.canonical_key)

    def finalize_ms(make: Callable[[], object]) -> float:
        samples = []
        for _ in range(batches):
            consumer = make()
            consumer.replay(ordered)
            samples.append(scaled(kernel, consumer.finalize)[1])
        return median(samples) * 1e3

    return {
        "monitor.finalize_ms": finalize_ms(lambda: Monitor(default_policy())),
        "observers.finalize_ms": finalize_ms(ObserverFleet),
    }


# -- world build and tracing ratio ---------------------------------------------------------


def world_metrics(kernel: ReferenceKernel, seed: int, batches: int) -> Dict[str, float]:
    builds, warms, events = [], [], set()
    for _ in range(batches):
        _raw, build_s, world = scaled(
            kernel, lambda: build_world(seed=seed, warm_caches=False)
        )
        warms.append(scaled(kernel, world.warm_resolver_caches)[1])
        builds.append(build_s)
        events.add(world.network.loop.events_processed)
    assert len(events) == 1, f"warm-up event count varies: {sorted(events)}"
    return {
        "experiments.world.build_s": median(builds),
        "experiments.world.warm_s": median(warms),
        "experiments.world.warm_events": float(events.pop()),
    }


def tracing_ratio(kernel: ReferenceKernel, seed: int, rounds: int) -> float:
    """Host time of a traced campaign over the same campaign untraced."""

    def campaign_seconds(traced: bool) -> float:
        watch = Stopwatch(kernel)
        campaign = ec2_campaign(
            build_world(seed=seed), rounds, seed, LappingStore(watch)
        )
        watch.start()
        if traced:
            with tracing(SpanCollector(), MetricsRegistry(enabled=True)):
                campaign.run()
        else:
            campaign.run()
        return watch.stop()[1]

    return campaign_seconds(True) / campaign_seconds(False)


# -- the table -----------------------------------------------------------------------


def measure_layers(
    seed: int, workdir: Path, batch_seconds: float, batches: int, quick: bool
) -> Dict[str, float]:
    """Every direct-call layer metric, by name."""
    workdir.mkdir(parents=True, exist_ok=True)
    kernel = ReferenceKernel()
    world = session_world(seed)
    records = sample_records(world, seed)
    ops: Dict[str, Batch] = {}
    ops.update(netsim_ops())
    ops.update(tlssim_ops())
    ops.update(quicsim_ops())
    ops.update(httpsim_ops())
    ops.update(dnswire_ops())
    ops.update(resolver_ops(world))
    ops.update(probe_ops(world))
    ops.update(results_ops(records))
    ops.update(store_ops(records, workdir))
    ops.update(consumer_ops(records))

    out: Dict[str, float] = {}
    for name, batch in ops.items():
        out[name] = per_op_us(kernel, batch, batch_seconds, batches)
        if isinstance(batch, per_record):
            out[name] /= batch.count
        if name.endswith("_ms"):
            out[name] /= 1e3
    out.update(finalize_metrics(kernel, records, batches))
    out.update(world_metrics(kernel, seed, batches))
    out["obs.tracing_ratio"] = tracing_ratio(
        kernel, seed, 1 if quick else TRACING_RATIO_ROUNDS
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return out
