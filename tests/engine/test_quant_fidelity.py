"""Quantized tiers on every registry domain: footprint, recall and match fidelity.

Each domain (scale 6, so tables are large enough for per-chunk archive
overhead and codec params to amortise) is resolved three times through the
delta executor — ``raw``, ``int8`` and trained ``pq`` — against separate
persistent caches, then warm-loaded by a fresh store.  Pinned per domain:

* the warm load encodes nothing, and a ``pq`` warm load serves the exact
  uint8 codes and params the cold run wrote (quantize-once);
* blocking recall of each quantized candidate set against the raw one is
  at least :data:`MIN_RECALL`;
* the gold F1 of each codec's top-``|gold|`` scored pairs is within
  :data:`MAX_F1_DELTA` of raw.

Pinned over all nine domains together: bytes on disk and warm-resident
bytes shrink by :data:`MIN_INT8_COMPRESSION` (int8) and
:data:`MIN_PQ_DISK_COMPRESSION` / :data:`MIN_PQ_WARM_COMPRESSION` (pq).
The scale is part of the contract: at scales 1-3 pq recall on ``beer`` is
0.935-0.942, and at scale 4 the pq disk ratio is 12.00x exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.config import BlockingConfig, VAEConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import DOMAIN_NAMES, load_domain
from repro.engine import EncodingStore, PersistentEncodingCache, merge_scored_batches, resolve
from repro.eval.timing import EngineCounters

SCALE = 6.0
CHUNK_ROWS = 256
CODECS = ("raw", "int8", "pq")

MIN_RECALL = 0.95
MAX_F1_DELTA = 0.05
MIN_INT8_COMPRESSION = 4.0
#: Codes are ~1 byte per 4 float dims; codebooks and archive overhead eat the rest.
MIN_PQ_DISK_COMPRESSION = 12.0
MIN_PQ_WARM_COMPRESSION = 8.0


class _DistanceMatcher:
    """Elementwise matcher: probabilities independent of batch composition."""

    def predict_proba(self, left_irs, right_irs, rows=None):
        if rows is not None:  # whole-table IRs and each pair's row indices
            left_irs, right_irs = left_irs[rows[0]], right_irs[rows[1]]
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


def _store(representation, domain, codec: str, cache_dir: Path) -> EncodingStore:
    return EncodingStore(
        representation, domain.task, counters=EngineCounters(),
        persistent=PersistentEncodingCache(cache_dir, chunk_rows=CHUNK_ROWS), codec=codec,
    )


def _top_keys(scored, count: int) -> set:
    """The ``count`` highest-probability pair keys, ties broken by key."""
    ranked = sorted(zip(scored.pairs, scored.probabilities), key=lambda item: (-item[1], item[0].key()))
    return {pair.key() for pair, _ in ranked[:count]}


def _f1(predicted: set, truth: set) -> float:
    hits = len(predicted & truth)
    return 0.0 if hits == 0 else 2 * hits / (len(predicted) + len(truth))


def _measure(name: str, root: Path) -> dict:
    """Disk bytes, warm bytes, recall vs raw and gold F1 per codec of one domain."""
    domain = load_domain(name, scale=SCALE)
    representation = EntityRepresentationModel(
        VAEConfig(ir_dim=24, hidden_dim=32, latent_dim=12, epochs=2, seed=7), ir_method="lsa"
    ).fit(domain.task)
    gold = set(domain.duplicate_map.items())
    row = {}
    for codec in CODECS:
        cache_dir = root / name / codec
        cold = _store(representation, domain, codec, cache_dir)
        scored = merge_scored_batches(resolve(
            cold, _DistanceMatcher(), capture=True, blocking=BlockingConfig(seed=19), k=8, batch_size=512,
        ).run())
        warm = _store(representation, domain, codec, cache_dir)
        warm.table_encodings("left")
        warm_right = warm.table_encodings("right").mu
        assert warm.counters.tables_encoded == 0, f"{name}/{codec}: warm load re-encoded"
        if codec == "pq":
            cold_right = cold.table_encodings("right").mu
            assert np.array_equal(warm_right.codes, cold_right.codes), f"{name}: warm pq codes diverge"
            assert warm_right.params == cold_right.params
        row[codec] = {
            "disk": sum(path.stat().st_size for path in cache_dir.rglob("*") if path.is_file()),
            "warm": warm.resident_bytes(),
            "pairs": {pair.key() for pair in scored.pairs},
            "f1": _f1(_top_keys(scored, len(gold)), gold),
        }
    raw_pairs = row["raw"]["pairs"]
    for codec in CODECS:
        row[codec]["recall"] = len(raw_pairs & row[codec]["pairs"]) / max(len(raw_pairs), 1)
        del row[codec]["pairs"]
    return row


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """``measured(name)`` -> that domain's per-codec row, computed once."""
    root = tmp_path_factory.mktemp("quant-fidelity")
    rows = {}

    def get(name: str) -> dict:
        if name not in rows:
            rows[name] = _measure(name, root)
        return rows[name]

    return get


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_quantized_recall_and_f1_per_domain(measured, name):
    row = measured(name)
    for codec in ("int8", "pq"):
        assert row[codec]["recall"] >= MIN_RECALL, f"{name}: {codec} recall {row[codec]['recall']:.3f}"
        delta = row["raw"]["f1"] - row[codec]["f1"]
        assert delta <= MAX_F1_DELTA, f"{name}: {codec} gold-F1 delta {delta:.3f}"


def test_aggregate_compression(measured):
    rows = [measured(name) for name in DOMAIN_NAMES]

    def ratio(codec: str, kind: str) -> float:
        return sum(row["raw"][kind] for row in rows) / sum(row[codec][kind] for row in rows)

    assert ratio("int8", "disk") >= MIN_INT8_COMPRESSION
    assert ratio("int8", "warm") >= MIN_INT8_COMPRESSION
    assert ratio("pq", "disk") >= MIN_PQ_DISK_COMPRESSION
    assert ratio("pq", "warm") >= MIN_PQ_WARM_COMPRESSION
