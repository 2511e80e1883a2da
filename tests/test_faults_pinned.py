"""The output of fault-injected runs, pinned by SHA-256.

Answer faults (``diff --faults``) and network faults (``measure
--faults``) are armed in every shard from a plan shipped as JSON.  These
digests hold the bytes those runs print and write: the differencing
report and its cells, with and without the ``--verify`` re-query pass,
and the records of a faulted ``measure`` campaign, under the identity
plan and the eight-cohort plan.  A change to how a plan is generated,
serialized, restricted to a shard or armed cannot move a byte without
failing here.  Every digest is the same for any worker count and any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

STABLE = (
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",
    "dns.alidns.com",
)
DIFF = ["diff", "--resolver", *STABLE, "--rounds", "2", "--seed", "5", "--faults"]
MEASURE = ["measure", "--rounds", "5", "--seed", "7", "--faults", "--fault-fraction", "0.25"]

#: (stdout, cells JSONL) of ``diff --faults`` and ``diff --faults --verify 3``.
DIFF_SHA256 = {
    (): (
        "0390694f341c0f732da03066432d4c7182175e5f1c0b222c074a87b1e8f8280f",
        "18bc7f2d53adcdd05608e1856687283a61d175e8efcd688a4a8e2880266b38ab",
    ),
    ("--verify", "3"): (
        "ee17be5a8b2bd979bfe1795b4513aebba82716719f9eb5fc454b3ab98ca33a1a",
        "b95e642388fa869c8de1ac398230bb36d146b2cfcd9f09300703b970f57e1dec",
    ),
}
#: Records of ``measure --faults``: the identity plan, and the eight-cohort
#: plan any ``--workers`` count runs.
MEASURE_SHA256 = {
    (): "c46e3af9d623b6694818d42c71812a6d3b7bdc3031a8f191f6d5cf1724dd5435",
    ("--workers", "1"): "ab053809502ab8b29cb02378d383fcc2e3e45b094c3fe3c77659cefa54eb376b",
    ("--workers", "4"): "ab053809502ab8b29cb02378d383fcc2e3e45b094c3fe3c77659cefa54eb376b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", ["1", "4"])
@pytest.mark.parametrize("extra", sorted(DIFF_SHA256))
def test_faulted_diff_is_pinned(extra, workers, tmp_path, capsys):
    cells = tmp_path / "cells.jsonl"
    argv = DIFF + list(extra) + ["--workers", workers, "--output", str(cells)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (sha256(stdout), sha256(cells.read_bytes())) == DIFF_SHA256[extra]


@pytest.mark.parametrize("extra", sorted(MEASURE_SHA256))
def test_faulted_measure_is_pinned(extra, tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    assert main(MEASURE + list(extra) + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == MEASURE_SHA256[extra]


@pytest.mark.parametrize("hash_seed", ["1", "7"])
def test_pinned_under_another_hash_seed(hash_seed, tmp_path):
    cells = tmp_path / "cells.jsonl"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *DIFF, "--verify", "3", "--output", str(cells)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert (sha256(done.stdout), sha256(cells.read_bytes())) == DIFF_SHA256[
        ("--verify", "3")
    ]
