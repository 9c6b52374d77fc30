"""End-to-end VAER API (the decoupled process of Figure 1).

:class:`VAER` wires the three stages of the paper together behind one object:

1. ``fit_representation`` — unsupervised representation learning (step 1 of
   Figure 1), or ``use_representation`` to plug in a transferred model;
2. ``fit_matcher`` — supervised Siamese matching on labeled pairs (step 2);
3. ``active_learning`` — the labeling-assist loop (step 3), which trains the
   matcher with an oracle in the loop instead of a given training set.

The object also exposes blocking-based candidate generation and evaluation
helpers so the examples and benchmarks read like a user's workflow.

Data flow (the engine layer)
----------------------------
All encodings flow through one shared :class:`repro.engine.EncodingStore`
(:attr:`VAER.store`), created lazily once a representation is available and
replaced whenever a new representation is fitted or adopted:

* the store computes each table's IR arrays and latent Gaussians ``(mu,
  sigma)`` in a single batched pass and caches them, invalidating itself
  automatically when the representation model is refit or transferred (it
  watches ``EntityRepresentationModel.encoding_version``);
* blocking (:meth:`candidate_pairs`), matcher training and inference
  (:meth:`fit_matcher`, :meth:`predict_pairs`), resolution (:meth:`resolve`,
  :meth:`resolve_stream`) and the active-learning loop all *gather* from the
  store — candidate pairs are index arrays into its row-major encodings, so
  no stage ever re-tokenizes or re-encodes a record the store already holds;
* :meth:`resolve_stream` chunks the same flow so candidate scoring runs in
  bounded-memory batches for inputs too large to score at once; with
  ``workers > 1`` the batches are scored in parallel across the cached
  worker pool with byte-identical results;
* a ``cache_dir`` attaches a :class:`repro.engine.PersistentEncodingCache`
  to the store, so repeated runs on the same task and representation load
  table encodings from disk instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.blocking.neighbours import NearestNeighbourSearch
from repro.config import VAERConfig
from repro.core.active.loop import ActiveLearningLoop, ALResult
from repro.core.active.oracle import LabelingOracle
from repro.core.matcher import SiameseMatcher, fit_matcher_with_threshold
from repro.core.representation import EntityRepresentationModel
from repro.core.transfer import transfer_representation
from repro.data.pairs import PairSet, RecordPair
from repro.data.schema import ERTask
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    ResolutionBaseline,
    ResolutionBatch,
    ResolutionPlan,
    ResolutionPlanner,
    ScoredPairs,
    resolve,
)
from repro.engine.quant import resolve_codec_name
from repro.eval.metrics import PRF, precision_recall_f1
from repro.eval.timing import StageTimings
from repro.exceptions import NotFittedError


@dataclass
class ResolutionResult(ScoredPairs):
    """Output of :meth:`VAER.resolve`: scored candidate pairs."""


class VAER:
    """Variational Active Entity Resolution, end to end."""

    def __init__(
        self,
        config: Optional[VAERConfig] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        codec: Optional[str] = None,
    ) -> None:
        self.config = config or VAERConfig()
        self.representation: Optional[EntityRepresentationModel] = None
        self.matcher: Optional[SiameseMatcher] = None
        self.task: Optional[ERTask] = None
        self.threshold: float = 0.5
        self.cache_dir: Optional[Path] = Path(cache_dir) if cache_dir is not None else None
        # Validated eagerly so an unknown codec fails at construction, not
        # mid-resolve.
        self.codec = resolve_codec_name(codec)
        self._store: Optional[EncodingStore] = None
        self._baseline: Optional[ResolutionBaseline] = None

    def use_cache_dir(self, cache_dir: Optional[Union[str, Path]]) -> "VAER":
        """Attach (or detach, with ``None``) a persistent encoding cache.

        The store is rebuilt on next access so the new cache takes effect;
        in-memory encodings already computed are recomputed or — when the
        cache directory holds a matching entry — loaded from disk.
        """
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._store = None
        return self

    # ------------------------------------------------------------------
    # Step 1: representation learning
    # ------------------------------------------------------------------
    def fit_representation(self, task: ERTask, epochs: Optional[int] = None) -> "VAER":
        """Unsupervised training of the entity representation model."""
        self.task = task
        self.representation = EntityRepresentationModel(
            config=self.config.vae, ir_method=self.config.ir_method
        ).fit(task, epochs=epochs)
        self._store = None
        self._baseline = None
        return self

    def use_representation(self, representation: EntityRepresentationModel, task: ERTask) -> "VAER":
        """Adopt an existing (typically transferred) representation model."""
        self.task = task
        self.representation = transfer_representation(representation, task)
        self._store = None
        self._baseline = None
        return self

    def _require_representation(self) -> EntityRepresentationModel:
        if self.representation is None or self.task is None:
            raise NotFittedError("call fit_representation() or use_representation() first")
        return self.representation

    @property
    def store(self) -> EncodingStore:
        """The shared encoding store every pipeline stage gathers from.

        Created lazily from the current representation and task; replaced
        when a new representation is fitted or adopted.  The store itself
        additionally invalidates its cache if the representation is refit in
        place.
        """
        representation = self._require_representation()
        assert self.task is not None
        if self._store is None:
            persistent = (
                PersistentEncodingCache(self.cache_dir) if self.cache_dir is not None else None
            )
            self._store = EncodingStore(
                representation,
                self.task,
                persistent=persistent,
                codec=self.codec,
            )
        return self._store

    # ------------------------------------------------------------------
    # Step 2: supervised matching
    # ------------------------------------------------------------------
    def fit_matcher(
        self,
        training_pairs: PairSet,
        validation_pairs: Optional[PairSet] = None,
        epochs: Optional[int] = None,
    ) -> "VAER":
        """Train the Siamese matcher on labeled pairs.

        When validation pairs are supplied, the decision threshold is tuned on
        them (F1-maximising), mirroring how the baselines select their
        operating point.
        """
        representation = self._require_representation()
        assert self.task is not None
        self.matcher, self.threshold = fit_matcher_with_threshold(
            representation,
            self.task,
            training_pairs,
            validation_pairs,
            config=self.config.matcher,
            store=self.store,
            epochs=epochs,
        )
        # Baseline scores belong to the previous matcher; drop them (the
        # encodings and index would still be valid, but an incremental
        # resolve re-derives those cheaply from the store on the next cold
        # capture).
        self._baseline = None
        return self

    # ------------------------------------------------------------------
    # Step 3: active learning
    # ------------------------------------------------------------------
    def active_learning(
        self,
        oracle: LabelingOracle,
        iterations: Optional[int] = None,
        label_budget: Optional[int] = None,
        strategy: str = "vaer",
        test_pairs: Optional[PairSet] = None,
        verify_bootstrap_positives: bool = True,
    ) -> ALResult:
        """Train the matcher through the active-learning loop.

        The resulting matcher is adopted by this pipeline (so ``predict`` and
        ``evaluate`` use it afterwards) and the full AL result is returned for
        inspection of the labeling-cost trace.
        """
        representation = self._require_representation()
        assert self.task is not None
        loop = ActiveLearningLoop(
            task=self.task,
            representation=representation,
            oracle=oracle,
            config=self.config.active_learning,
            matcher_config=self.config.matcher,
            blocking=self.config.blocking,
            strategy=strategy,
            test_pairs=test_pairs,
            verify_bootstrap_positives=verify_bootstrap_positives,
            store=self.store,
        )
        result = loop.run(iterations=iterations, label_budget=label_budget)
        self.matcher = result.matcher
        self.threshold = 0.5
        self._baseline = None
        return result

    # ------------------------------------------------------------------
    # Inference and evaluation
    # ------------------------------------------------------------------
    def _require_matcher(self) -> SiameseMatcher:
        if self.matcher is None:
            raise NotFittedError("call fit_matcher() or active_learning() first")
        return self.matcher

    def predict_pairs(self, pairs: PairSet) -> np.ndarray:
        """Match probabilities for labeled or unlabeled pairs."""
        self._require_representation()
        return self.store.score_pairs(self._require_matcher(), pairs)

    def evaluate(self, test_pairs: PairSet) -> PRF:
        """Precision/recall/F1 on a labeled test pair set."""
        probabilities = self.predict_pairs(test_pairs)
        predictions = (probabilities > self.threshold).astype(int)
        return precision_recall_f1(test_pairs.labels(), predictions)

    # ------------------------------------------------------------------
    # Blocking + end-to-end resolution
    # ------------------------------------------------------------------
    def candidate_pairs(self, k: Optional[int] = None) -> List[RecordPair]:
        """Blocking step: LSH top-K candidates over entity representations."""
        self._require_representation()
        k = k or self.config.active_learning.top_neighbours
        store = self.store
        search = NearestNeighbourSearch.from_store(store, config=self.config.blocking)
        left = store.table_encodings("left")
        return search.candidate_pairs(left.flat_mu(), left.keys, k=k)

    def resolve(self, k: Optional[int] = None) -> ResolutionResult:
        """Full ER pass: blocking then matching of every candidate pair."""
        matcher = self._require_matcher()
        candidates = self.candidate_pairs(k=k)
        probabilities = self.store.score_pairs(matcher, candidates)
        return ResolutionResult(pairs=candidates, probabilities=probabilities, threshold=self.threshold)

    def resolve_stream(
        self,
        k: Optional[int] = None,
        batch_size: int = 2048,
        workers: int = 1,
        stage_timings: Optional[StageTimings] = None,
        incremental: bool = False,
    ) -> Iterator[ResolutionBatch]:
        """Chunked ER pass: score candidates in bounded-memory batches.

        Equivalent to :meth:`resolve` — the concatenation of all yielded
        batches covers the same candidate pairs with the same probabilities —
        but featurisation and scoring never hold more than ``batch_size``
        pairs at once, so arbitrarily large candidate sets resolve in bounded
        memory.

        With ``workers > 1`` the batches are scored concurrently on the
        cached local worker pool through the plan/execute engine
        (:func:`repro.engine.resolve`) and merge back in order, while the
        LSH blocking queries run in this process; the yielded sequence is
        byte-identical to the single-process stream.  ``stage_timings``
        collects per-stage (encode/block/score) compute seconds.  A pool
        the caller builds goes to :func:`repro.engine.resolve`, the one
        entry point that takes one.

        With ``incremental=True`` the same executor resolves against the
        baseline captured by the previous incremental run: the first such
        call is a cold resolve that captures one, every later call pays only
        for the rows added, edited or deleted since — see
        :meth:`resolve_delta` for the contract.
        """
        matcher = self._require_matcher()
        k = k or self.config.active_learning.top_neighbours
        options = dict(
            blocking=self.config.blocking,
            k=k,
            batch_size=batch_size,
            threshold=self.threshold,
            workers=workers,
            stage_timings=stage_timings,
        )
        if not incremental:
            return resolve(self.store, matcher, **options).run()
        executor = resolve(
            self.store, matcher, baseline=self._baseline, capture=True, **options
        )

        def stream() -> Iterator[ResolutionBatch]:
            yield from executor.run()
            if executor.baseline_out is not None:
                self._baseline = executor.baseline_out

        return stream()

    def resolve_delta(
        self,
        k: Optional[int] = None,
        batch_size: int = 2048,
        stage_timings: Optional[StageTimings] = None,
    ) -> Iterator[ResolutionBatch]:
        """Incremental ER pass: pay only for rows mutated since the last one.

        The first call performs a cold resolve and records a
        :class:`repro.engine.ResolutionBaseline` (per-pair probabilities,
        the LSH index and a row-identity snapshot of both tables) on this
        pipeline.  After the task's tables mutate — rows appended via
        :func:`repro.data.generators.append_rows` or ``Table.add``, edited
        in place via :func:`repro.data.generators.mutate_rows` or
        ``Table.replace``, deleted via
        :func:`repro.data.generators.delete_rows` or ``Table.remove`` — the
        next call:

        * re-encodes only the edited and appended rows (the mutation-aware
          store and the content-addressed chunk cache recognise everything
          else by record id); deleted rows are dropped for free;
        * mutates the baseline LSH index in place — tombstones deleted right
          rows, rebuckets edited ones, hashes in appended ones — instead of
          rebuilding it;
        * drops baseline probabilities for pairs touching deleted or edited
          rows and runs the matcher only on candidate pairs the surviving
          baseline does not cover.

        The yielded stream matches a cold :meth:`resolve_stream` on the
        mutated tables: identical candidate enumeration and match set, with
        probabilities byte-identical for reused pairs and equal up to float
        round-off for rescored ones — the equivalence the delta tests pin.  The
        baseline is refreshed when the stream is fully drained (an abandoned
        stream keeps the previous baseline).  Refitting the representation
        or matcher invalidates the affected parts automatically.  It runs
        serially; ``resolve_stream(incremental=True, workers=N)`` scores
        the same rounds on the cached worker pool.
        """
        return self.resolve_stream(
            k=k, batch_size=batch_size, stage_timings=stage_timings, incremental=True,
        )

    @property
    def baseline(self) -> Optional[ResolutionBaseline]:
        """The delta baseline captured by the last fully drained delta run.

        ``None`` until a :meth:`resolve_delta` (or incremental
        :meth:`resolve_stream`) stream has been drained, and reset whenever
        the representation or matcher is refit.  Read-only: the serving
        layer uses it to reach the live LSH index and the row-identity
        snapshot for ad-hoc point queries between mutations.
        """
        return self._baseline

    def plan_resolution(
        self,
        k: Optional[int] = None,
        batch_size: int = 2048,
        workers: int = 1,
    ) -> ResolutionPlan:
        """The deterministic stage graph a resolve run with these knobs executes.

        Pure metadata — computed from table sizes alone, no encoding or
        matcher required — so the plan can be inspected before committing to
        the run (the CLI ``plan`` subcommand prints it).
        """
        self._require_representation()
        assert self.task is not None
        k = k or self.config.active_learning.top_neighbours
        return ResolutionPlanner(
            self.task,
            blocking=self.config.blocking,
            k=k,
            batch_size=batch_size,
            workers=workers,
        ).plan()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Human-readable description of the pipeline state."""
        info: Dict[str, object] = {
            "ir_method": self.config.ir_method,
            "task": self.task.name if self.task else None,
            "representation_fitted": self.representation is not None,
            "matcher_fitted": self.matcher is not None,
            "threshold": self.threshold,
            "cache_dir": str(self.cache_dir) if self.cache_dir is not None else None,
            "codec": self.codec,
        }
        if self.representation is not None:
            info["vae_parameters"] = self.representation.vae.num_parameters()
        if self.matcher is not None:
            info["matcher_parameters"] = self.matcher.num_parameters()
        return info
