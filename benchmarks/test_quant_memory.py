"""Quantized-tier memory benchmark — footprint, recall, and match fidelity.

Resolves every registry domain three times through the delta engine — with
the ``raw`` float codec, the ``int8`` scalar-quantized codec and the ``pq``
trained product-quantization codec — against separate persistent caches,
then measures what each quantized tier actually buys and what it costs:

* **bytes on disk** — total cache directory size per codec;
* **warm-load bytes** — resident store bytes after a cold-process warm load
  (quantized stores stay compressed in memory; floats are rehydrated only
  for surviving pairs);
* **peak RSS** — process resident set size at the end of the sweep;
* **blocking recall vs exact** — fraction of the exact (raw) candidate set
  the quantized blocking pass recovers (for ``pq`` the shortlist is
  deliberately expanded, so coverage — not set equality — is the contract);
* **gold F1 delta** — each codec's top-``|gold|`` scored pairs are scored
  against the generator's planted duplicate map (R-precision-style F1),
  and the quantized runs must land within :data:`MAX_F1_DELTA` of raw;
* **warm-path byte identity** — a ``pq`` warm load must serve the *same
  uint8 codes* the cold run wrote, without re-encoding anything
  (quantize-once, observable at the byte level).

Emits ``BENCH_quant.json`` and fails if compression falls below
:data:`MIN_COMPRESSION` (int8) / :data:`MIN_PQ_COMPRESSION` (pq), recall
below :data:`MIN_RECALL`, or the F1 delta above :data:`MAX_F1_DELTA` on
any domain.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from benchmarks.conftest import bench_scale
from repro.config import BlockingConfig, VAEConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import DOMAIN_NAMES, load_domain
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    merge_scored_batches,
    resolve_delta,
)
from repro.eval.timing import EngineCounters
from repro.serve.session import process_rss_bytes

#: Required on-disk and warm-resident advantage of int8 over raw floats.
MIN_COMPRESSION = 4.0
#: Required on-disk advantage of pq over raw floats (codes are ~1 byte per
#: 4 float dims; codebooks and per-chunk archive overhead eat the rest).
MIN_PQ_COMPRESSION = 12.0
#: Required warm-resident advantage of pq over raw floats.
MIN_PQ_WARM_COMPRESSION = 8.0
#: Pinned blocking recall of quantized candidates against the exact set.
MIN_RECALL = 0.95
#: Pinned bound on the gold-F1 drop of a quantized run vs the raw run.
MAX_F1_DELTA = 0.05

#: Tables are large enough here that per-chunk archive overhead and the
#: per-chunk codec params must amortise — the regime the pq tier targets.
CHUNK_ROWS = 256

QUANT_CODECS = ("int8", "pq")


class _DistanceMatcher:
    """Deterministic stand-in matcher: probability decays with IR distance,
    computed elementwise per pair so output is batch-composition independent."""

    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray) -> np.ndarray:
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


def _dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _resolve_with_codec(representation, domain, codec, cache_dir):
    cache = PersistentEncodingCache(cache_dir, chunk_rows=CHUNK_ROWS)
    store = EncodingStore(
        representation, domain.task, counters=EngineCounters(),
        shard_rows=256, persistent=cache, codec=codec,
    )
    executor = resolve_delta(
        store, _DistanceMatcher(), baseline=None,
        blocking=BlockingConfig(seed=19), k=8, batch_size=512,
    )
    scored = merge_scored_batches(executor.run())
    return store, scored


def _warm_store(representation, domain, codec, cache_dir):
    """A fresh store after warm-loading both sides from the cache."""
    cache = PersistentEncodingCache(cache_dir, chunk_rows=CHUNK_ROWS)
    store = EncodingStore(
        representation, domain.task, counters=EngineCounters(),
        shard_rows=256, persistent=cache, codec=codec,
    )
    store.table_encodings("left")
    store.table_encodings("right")
    assert store.counters.tables_encoded == 0, "warm load must not re-encode"
    return store


def _gold_pairs(domain):
    return {pair for pair in domain.duplicate_map.items()}


def _top_matches(scored, count):
    """The ``count`` highest-probability pairs, deterministically ordered."""
    ranked = sorted(
        zip(scored.pairs, scored.probabilities),
        key=lambda item: (-item[1], item[0].key()),
    )
    return {pair.key() for pair, _ in ranked[:count]}


def _f1(predicted, truth) -> float:
    if not predicted or not truth:
        return 1.0 if predicted == truth else 0.0
    tp = len(predicted & truth)
    precision = tp / len(predicted)
    recall = tp / len(truth)
    return 0.0 if tp == 0 else 2 * precision * recall / (precision + recall)


def test_quant_memory_footprint(tmp_path):
    scale = 6.0 * bench_scale()
    config = VAEConfig(ir_dim=24, hidden_dim=32, latent_dim=12, epochs=2, seed=7)

    per_domain = {}
    for name in DOMAIN_NAMES:
        domain = load_domain(name, scale=scale)
        representation = EntityRepresentationModel(config, ir_method="lsa").fit(domain.task)
        gold = _gold_pairs(domain)

        stores, scoreds, disk = {}, {}, {}
        for codec in ("raw",) + QUANT_CODECS:
            cache_dir = tmp_path / name / codec
            stores[codec], scoreds[codec] = _resolve_with_codec(
                representation, domain, codec, cache_dir
            )
            disk[codec] = _dir_bytes(cache_dir)

        raw_pairs = set(scoreds["raw"].pairs)
        f1 = {
            codec: _f1(_top_matches(scoreds[codec], len(gold)), gold)
            for codec in ("raw",) + QUANT_CODECS
        }

        warm = {}
        for codec in ("raw",) + QUANT_CODECS:
            store = _warm_store(representation, domain, codec, tmp_path / name / codec)
            warm[codec] = store.resident_bytes()
            if codec == "pq":
                # Quantize-once at the byte level: the warm store serves the
                # exact uint8 codes the cold run wrote.
                cold_mu = stores["pq"].table_encodings("right").mu
                warm_mu = store.table_encodings("right").mu
                assert np.array_equal(warm_mu.codes, cold_mu.codes), (
                    f"{name}: warm pq codes diverge from the cold encode"
                )
                assert warm_mu.params == cold_mu.params

        row = {
            "rows": len(domain.task.left) + len(domain.task.right),
            "gold_pairs": len(gold),
            "candidate_pairs_exact": len(raw_pairs),
            "raw_disk_bytes": disk["raw"],
            "raw_warm_bytes": warm["raw"],
            "raw_gold_f1": f1["raw"],
        }
        for codec in QUANT_CODECS:
            codec_pairs = set(scoreds[codec].pairs)
            row.update({
                f"{codec}_disk_bytes": disk[codec],
                f"{codec}_disk_compression": disk["raw"] / max(disk[codec], 1),
                f"{codec}_warm_bytes": warm[codec],
                f"{codec}_warm_compression": warm["raw"] / max(warm[codec], 1),
                f"candidate_pairs_{codec}": len(codec_pairs),
                f"{codec}_blocking_recall_vs_exact": (
                    len(raw_pairs & codec_pairs) / max(len(raw_pairs), 1)
                ),
                f"{codec}_gold_f1": f1[codec],
                f"{codec}_f1_delta": max(0.0, f1["raw"] - f1[codec]),
                f"{codec}_bytes_decoded": stores[codec].counters.bytes_decoded,
            })
        per_domain[name] = row

    totals = {
        f"total_{codec}_{kind}_bytes": sum(
            row[f"{codec}_{kind}_bytes"] for row in per_domain.values()
        )
        for codec in ("raw",) + QUANT_CODECS
        for kind in ("disk", "warm")
    }
    payload = {
        "scale": scale,
        "domains": per_domain,
        **totals,
        "peak_rss_bytes": process_rss_bytes(),
    }
    for codec in QUANT_CODECS:
        payload[f"{codec}_disk_compression"] = (
            totals["total_raw_disk_bytes"] / max(totals[f"total_{codec}_disk_bytes"], 1)
        )
        payload[f"{codec}_warm_compression"] = (
            totals["total_raw_warm_bytes"] / max(totals[f"total_{codec}_warm_bytes"], 1)
        )
        payload[f"{codec}_min_recall"] = min(
            row[f"{codec}_blocking_recall_vs_exact"] for row in per_domain.values()
        )
        payload[f"{codec}_max_f1_delta"] = max(
            row[f"{codec}_f1_delta"] for row in per_domain.values()
        )
    Path("BENCH_quant.json").write_text(json.dumps(payload, indent=2) + "\n")

    print("\n\nQuantized tier — memory footprint and fidelity (raw vs int8 vs pq)\n")
    header = (
        f"  {'domain':<12} {'disk raw':>10} {'int8 x':>6} {'pq x':>6} "
        f"{'warm int8':>9} {'warm pq':>7} {'rc int8':>7} {'rc pq':>7} "
        f"{'F1d i8':>6} {'F1d pq':>6}"
    )
    print(header)
    for name, row in per_domain.items():
        print(
            f"  {name:<12} {row['raw_disk_bytes']:>10} "
            f"{row['int8_disk_compression']:>6.1f} {row['pq_disk_compression']:>6.1f} "
            f"{row['int8_warm_compression']:>9.1f} {row['pq_warm_compression']:>7.1f} "
            f"{row['int8_blocking_recall_vs_exact']:>7.3f} "
            f"{row['pq_blocking_recall_vs_exact']:>7.3f} "
            f"{row['int8_f1_delta']:>6.3f} {row['pq_f1_delta']:>6.3f}"
        )
    print(
        f"\n  totals: disk int8 {payload['int8_disk_compression']:.1f}x / "
        f"pq {payload['pq_disk_compression']:.1f}x, "
        f"warm int8 {payload['int8_warm_compression']:.1f}x / "
        f"pq {payload['pq_warm_compression']:.1f}x, "
        f"min recall int8 {payload['int8_min_recall']:.3f} / "
        f"pq {payload['pq_min_recall']:.3f}, "
        f"max F1 delta int8 {payload['int8_max_f1_delta']:.3f} / "
        f"pq {payload['pq_max_f1_delta']:.3f}, "
        f"peak RSS {payload['peak_rss_bytes']}"
    )

    assert payload["int8_disk_compression"] >= MIN_COMPRESSION, (
        f"int8 disk compression {payload['int8_disk_compression']:.2f}x below {MIN_COMPRESSION}x"
    )
    assert payload["int8_warm_compression"] >= MIN_COMPRESSION, (
        f"int8 warm-load compression {payload['int8_warm_compression']:.2f}x below {MIN_COMPRESSION}x"
    )
    assert payload["pq_disk_compression"] >= MIN_PQ_COMPRESSION, (
        f"pq disk compression {payload['pq_disk_compression']:.2f}x below {MIN_PQ_COMPRESSION}x"
    )
    assert payload["pq_warm_compression"] >= MIN_PQ_WARM_COMPRESSION, (
        f"pq warm-load compression {payload['pq_warm_compression']:.2f}x "
        f"below {MIN_PQ_WARM_COMPRESSION}x"
    )
    for name, row in per_domain.items():
        for codec in QUANT_CODECS:
            assert row[f"{codec}_blocking_recall_vs_exact"] >= MIN_RECALL, (
                f"{name}: {codec} blocking recall "
                f"{row[f'{codec}_blocking_recall_vs_exact']:.3f} below pinned {MIN_RECALL}"
            )
            assert row[f"{codec}_f1_delta"] <= MAX_F1_DELTA, (
                f"{name}: {codec} gold-F1 delta {row[f'{codec}_f1_delta']:.3f} "
                f"above pinned {MAX_F1_DELTA}"
            )
