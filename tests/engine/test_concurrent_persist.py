"""Reader/writer isolation across real processes.

A reader iterating ``load_reused`` / ``load_range`` while a *second
process* runs ``patch()`` + ``prune()`` on the same entry must never see a
torn manifest or crash on a vanished chunk: the write-then-rename manifest
swap plus immutable per-generation chunk archives mean every read either
serves data fully consistent with one manifest, or degrades to a clean
``None`` miss.

The writer rewrites the middle chunk (rows 8..16) every generation and
stamps all its encoding values with the generation number, so a torn read
is detectable: a successful load whose middle-chunk values are not all the
same integer would mix generations.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.engine import PersistentEncodingCache

# Shared by the parent reader and the writer subprocess via exec/embedding,
# so the fingerprint dicts both sides compute are byte-identical.
HELPER_SRC = '''
import numpy as np
from repro.data.schema import Record, Table
from repro.engine import TableEncodings, rows_crc, table_row_crcs

TASK = "sync"
N = 32
CHUNK = 8
EDIT_LO, EDIT_HI = 8, 16


def build_table(gen):
    records = []
    for i in range(N):
        tag = gen if EDIT_LO <= i < EDIT_HI else 0
        records.append(Record(f"r{i}", (f"alpha-{i}-g{tag}", f"beta-{i}")))
    return Table(TASK, ("a", "b"), records)


def build_encodings(gen):
    keys = tuple(f"r{i}" for i in range(N))
    data = np.zeros((N, 2, 3))
    data[EDIT_LO:EDIT_HI] = float(gen)
    return TableEncodings(
        keys=keys, irs=data.copy(), mu=data.copy(), sigma=data.copy(),
        row_index={key: row for row, key in enumerate(keys)},
    )


def build_fingerprint(table):
    return {
        "model": {
            "ir_method": "lsa", "ir_dim": 3, "hidden_dim": 4, "latent_dim": 3,
            "seed": 1, "weights_crc": 1234,
        },
        "n_records": len(table),
        "content_crc": rows_crc(table_row_crcs(table)),
    }
'''

WRITER_SRC = HELPER_SRC + '''
import os
import sys
import time

from repro.engine import PersistentEncodingCache


def publish(gen_file, gen):
    tmp = gen_file + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(str(gen))
    os.replace(tmp, gen_file)


cache_dir, gen_file, iterations = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = PersistentEncodingCache(cache_dir, chunk_rows=CHUNK)
table = build_table(0)
cache.save(TASK, "right", 1, build_fingerprint(table), build_encodings(0), table=table)
publish(gen_file, 0)
for gen in range(1, iterations + 1):
    new_table = build_table(gen)
    fingerprint = build_fingerprint(new_table)
    delta = cache.delta(TASK, "right", 1, fingerprint, new_table)
    assert delta is not None, f"writer probe missed at generation {gen}"
    cache.patch(TASK, "right", 1, fingerprint, new_table, delta, build_encodings(gen))
    cache.prune()
    publish(gen_file, gen)
    time.sleep(0.005)
'''

_ns = {}
exec(HELPER_SRC, _ns)
build_table = _ns["build_table"]
build_fingerprint = _ns["build_fingerprint"]
TASK, N, EDIT_LO, EDIT_HI, CHUNK = (
    _ns["TASK"], _ns["N"], _ns["EDIT_LO"], _ns["EDIT_HI"], _ns["CHUNK"]
)

ITERATIONS = 25


def _middle_generation(encodings, iterations=ITERATIONS):
    """The single generation a consistent read's middle chunk carries."""
    mu = np.asarray(encodings.mu)
    assert np.all(mu[:EDIT_LO] == 0.0), "never-edited rows changed"
    assert np.all(mu[EDIT_HI:] == 0.0), "never-edited rows changed"
    middle = mu[EDIT_LO:EDIT_HI]
    value = middle.flat[0]
    assert np.all(middle == value), "torn read: middle chunk mixes generations"
    assert float(value).is_integer() and 0 <= value <= iterations
    return int(value)


def test_reader_survives_concurrent_patch_and_prune(tmp_path):
    cache_dir = tmp_path / "cache"
    gen_file = tmp_path / "generation.txt"
    writer = subprocess.Popen(
        [sys.executable, "-c", WRITER_SRC, str(cache_dir), str(gen_file), str(ITERATIONS)],
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1]), "PATH": "/usr/bin:/bin"},
        stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not gen_file.exists():
            assert writer.poll() is None, f"writer died early: {writer.stderr.read()}"
            assert time.monotonic() < deadline, "writer never published generation 0"
            time.sleep(0.01)

        cache = PersistentEncodingCache(cache_dir, chunk_rows=CHUNK)
        reference = build_table(0)
        reference_fp = build_fingerprint(reference)
        reused_hits = range_hits = misses = 0

        while writer.poll() is None:
            assert time.monotonic() < deadline, "writer stuck"
            # The delta path: probe with the stale generation-0 table.  Rows
            # the writer has rewritten are classified dirty, so any served
            # reuse must carry only untouched (all-zero) rows.
            delta = cache.delta(TASK, "right", 1, reference_fp, reference)
            reused = (
                cache.load_reused(TASK, "right", 1, delta)
                if delta is not None else None
            )
            if reused is None:
                misses += 1
            else:
                positions, encodings = reused
                mu = np.asarray(encodings.mu)
                assert len(positions) == len(mu)
                clean = [p for p in positions if not (EDIT_LO <= p < EDIT_HI)]
                clean_rows = [row for p, row in zip(positions, mu) if not (EDIT_LO <= p < EDIT_HI)]
                assert len(clean) >= N - (EDIT_HI - EDIT_LO)
                assert np.all(np.asarray(clean_rows) == 0.0), "reader saw torn clean rows"
                reused_hits += 1
            # The range path: chase the writer's published generation.  The
            # fingerprint only matches while that manifest is still current,
            # so the read either hits consistently or misses cleanly.
            generation = int(gen_file.read_text())
            chased = build_table(generation)
            loaded = cache.load_range(
                TASK, "right", 1, build_fingerprint(chased), 0, N
            )
            if loaded is None:
                misses += 1
            else:
                assert _middle_generation(loaded) == generation
                range_hits += 1

        assert writer.wait() == 0, f"writer crashed: {writer.stderr.read()}"
        # Quiesced: the final generation is stable and must load in full.
        final = int(gen_file.read_text())
        assert final == ITERATIONS
        final_table = build_table(final)
        loaded = cache.load_range(TASK, "right", 1, build_fingerprint(final_table), 0, N)
        assert loaded is not None, "final stable read missed"
        assert _middle_generation(loaded) == ITERATIONS
        # The reader genuinely overlapped the writer and was served data.
        assert reused_hits > 0
        assert reused_hits + range_hits + misses > ITERATIONS / 2
    finally:
        if writer.poll() is None:
            writer.kill()
            writer.wait(timeout=30)
