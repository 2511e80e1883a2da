"""Memo transparency, campaign level.

The codecs above the packet remember what they decoded or encoded
(``DESIGN.md``, "What is memoised").  A campaign's records must not depend
on what those tables hold: the same digest with every table empty, with
every table warm from a previous run in the process, with every bound at
1, where each new entry evicts the one before it, and with a parse table
that forgets every store, so that nothing the encoder leaves there for its
peer is ever read.  Nor on the interpreter's hash seed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.dnswire.builder as builder
import repro.dnswire.message as message
import repro.dnswire.name as name
import repro.httpsim.h2 as h2
import repro.httpsim.h3 as h3
from repro.catalog.resolvers import CATALOG
from repro.core.runner import Campaign
from repro.experiments.campaigns import ec2_campaign_config, sessions_campaign_config
from repro.experiments.world import build_world
from repro.session import policy_from_name

#: Every memo: (module, table, the module constant bounding it).
MEMOS = (
    (name, "_INTERNED", "_INTERNED_MAX"),
    (name, "_FROM_TEXT", "_FROM_TEXT_MAX"),
    (message, "_PARSED", "_PARSED_MAX"),
    (message, "_ENCODED", "_ENCODED_MAX"),
    (builder, "_QUERY_TEMPLATES", "_QUERY_TEMPLATES_MAX"),
    (h2, "_ENCODED_BLOCKS", "_ENCODED_BLOCKS_MAX"),
    (h2, "_DECODED_BLOCKS", "_DECODED_BLOCKS_MAX"),
    (h3, "_HEADERS_FRAMES", "_HEADERS_FRAMES_MAX"),
    (h3, "_FIELD_MAPS", "_FIELD_MAPS_MAX"),
)

EC2_VANTAGES = ("ec2-ohio", "ec2-frankfurt", "ec2-seoul")
#: Mainstream anycast, two unicast long-tail, a flaky one, a TLS 1.2 /
#: HTTP/1.1-only one.
EC2_TARGETS = (
    "dns.google",
    "dns.brahma.world",
    "dns.twnic.tw",
    "doh.ffmuc.net",
    "ibksturm.synology.me",
)
SESSION_TARGETS = ("dns.adguard.com", "anycast.dns.nextdns.io")


def _digest(campaign: Campaign) -> str:
    lines = "".join(record.to_json() + "\n" for record in campaign.run().records)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _ec2_campaign() -> Campaign:
    # Cold resolver caches: the recursive walk (referral parses,
    # Name.parent) runs inside the campaign, not before it.
    catalog = [entry for entry in CATALOG if entry.hostname in EC2_TARGETS]
    world = build_world(seed=3, catalog=catalog, warm_caches=False)
    return Campaign(
        network=world.network,
        vantages=[world.vantage(v) for v in EC2_VANTAGES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=2, seed=11),
    )


def _session_campaign() -> Campaign:
    catalog = [entry for entry in CATALOG if entry.hostname in SESSION_TARGETS]
    world = build_world(seed=3, catalog=catalog)
    return Campaign(
        network=world.network,
        vantages=[world.vantage(v) for v in EC2_VANTAGES[:2]],
        targets=world.targets(list(SESSION_TARGETS)),
        config=sessions_campaign_config(policy_from_name("zero-rtt"), rounds=3, seed=12),
    )


def _empty_every_memo() -> None:
    for module, table, _bound in MEMOS:
        getattr(module, table).clear()


def _assert_within_bounds() -> None:
    for module, table, bound in MEMOS:
        assert len(getattr(module, table)) <= getattr(module, bound), table


@pytest.mark.parametrize("make_campaign", [_ec2_campaign, _session_campaign])
def test_records_do_not_depend_on_what_the_memos_hold(make_campaign, monkeypatch):
    _empty_every_memo()
    cold = _digest(make_campaign())
    _assert_within_bounds()
    used = {table for module, table, _bound in MEMOS if getattr(module, table)}
    assert {"_INTERNED", "_PARSED", "_ENCODED", "_QUERY_TEMPLATES"} <= used
    if make_campaign is _session_campaign:
        assert len(used) == len(MEMOS)  # every memo saw traffic

    warm = _digest(make_campaign())
    _assert_within_bounds()
    assert warm == cold

    # What ``to_wire`` stores for its peer is never there to be read:
    # every ``from_wire`` is the full decoder's.
    with monkeypatch.context() as patch:
        patch.setattr(message, "_PARSED", _Forgetful())
        stats = message.memo_stats()
        unread = _digest(make_campaign())
        after = message.memo_stats()
        assert not message._PARSED
    assert unread == cold
    assert after["from_wire"]["hits"] == stats["from_wire"]["hits"]
    assert after["to_wire"]["hits"] > stats["to_wire"]["hits"]

    for module, _table, bound in MEMOS:
        monkeypatch.setattr(module, bound, 1)
    _empty_every_memo()
    evicting = _digest(make_campaign())
    _assert_within_bounds()
    assert evicting == cold


class _Forgetful(dict):
    def __setitem__(self, key, value) -> None:
        pass


def test_records_do_not_depend_on_the_hash_seed(tmp_path):
    """The same small cold campaign in two interpreters whose ``str`` and
    ``bytes`` hashes differ exports the same bytes."""
    root = Path(__file__).resolve().parent.parent
    exports = []
    for hash_seed in ("0", "12345"):
        output = tmp_path / f"seed-{hash_seed}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "measure", "--vantage", "ec2-ohio",
             "--rounds", "2", "--seed", "7", "--resolver", *EC2_TARGETS,
             "--output", str(output)],
            check=True,
            capture_output=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": hash_seed},
        )
        exports.append(output.read_bytes())
    assert exports[0] == exports[1]
    assert exports[0].count(b"\n") == 2 * len(EC2_TARGETS) * 4  # 3 domains + ping
