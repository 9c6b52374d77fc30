"""Experiment harness reproducing the paper's tables and figures.

Each function regenerates one experiment of Section VI on a given synthetic
domain and returns plain dictionaries/rows that the benchmark suite prints in
the same layout as the paper.  The harness is deliberately configuration-
driven (a :class:`HarnessConfig` holding reduced model sizes) so the full
sweep completes on CPU in minutes rather than hours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import BASELINES, BaselineMatcher
from repro.blocking.neighbours import NearestNeighbourSearch
from repro.config import (
    ActiveLearningConfig,
    BlockingConfig,
    MatcherConfig,
    VAEConfig,
    VAERConfig,
)
from repro.core.active import ActiveLearningLoop, GroundTruthOracle
from repro.core.matcher import fit_matcher_with_threshold
from repro.core.representation import EntityRepresentationModel
from repro.core.transfer import adapt_task_arity, transfer_representation
from repro.data.generators import GeneratedDomain, load_domain
from repro.data.pairs import PairSet
from repro.engine import EncodingStore
from repro.eval.metrics import PRF, neighbour_prf_at_k, precision_recall_f1, recall_at_k
from repro.text.ir import IRGenerator


@dataclass
class HarnessConfig:
    """Model sizes and schedules used by the experiment harness.

    The defaults are intentionally small so that regenerating every table on
    CPU stays fast; they keep the Table III ratios (hidden twice the latent
    dimension, Adam at 0.001) while shrinking absolute sizes.
    """

    ir_dim: int = 32
    hidden_dim: int = 64
    latent_dim: int = 24
    vae_epochs: int = 10
    matcher_epochs: int = 40
    al_retrain_epochs: int = 12
    top_k: int = 10
    scale: float = 1.0
    seed: int = 7

    def vae_config(self) -> VAEConfig:
        return VAEConfig(
            ir_dim=self.ir_dim,
            hidden_dim=self.hidden_dim,
            latent_dim=self.latent_dim,
            epochs=self.vae_epochs,
            seed=self.seed,
        )

    def matcher_config(self) -> MatcherConfig:
        return MatcherConfig(epochs=self.matcher_epochs, seed=self.seed + 1)

    def al_config(self, iterations: int = 25) -> ActiveLearningConfig:
        return ActiveLearningConfig(
            iterations=iterations,
            retrain_epochs=self.al_retrain_epochs,
            kde_samples_per_pair=50,
            top_neighbours=self.top_k,
            seed=self.seed + 2,
        )

    def vaer_config(self, ir_method: str = "lsa") -> VAERConfig:
        return VAERConfig(
            vae=self.vae_config(),
            matcher=self.matcher_config(),
            active_learning=self.al_config(),
            blocking=BlockingConfig(),
            ir_method=ir_method,
        )


def fit_representation(
    domain: GeneratedDomain,
    config: HarnessConfig,
    ir_method: str = "lsa",
) -> Tuple[EntityRepresentationModel, float]:
    """Fit a representation model on a domain; return it with wall-clock time."""
    start = time.perf_counter()
    model = EntityRepresentationModel(config.vae_config(), ir_method=ir_method).fit(domain.task)
    return model, time.perf_counter() - start


def _store_for(
    representation: EntityRepresentationModel,
    domain: GeneratedDomain,
    store: Optional[EncodingStore],
) -> EncodingStore:
    """Adopt or create the encoding store for an experiment.

    A caller-supplied store must be bound to the exact representation and
    task the experiment uses — silently gathering features from a different
    model would produce metrics for mismatched encoder/feature pairs.
    """
    if store is None:
        return EncodingStore(representation, domain.task)
    if store.representation is not representation:
        raise ValueError("supplied store is bound to a different representation model")
    if store.task is not domain.task:
        raise ValueError("supplied store is bound to a different task")
    return store


# ----------------------------------------------------------------------
# Table IV / Figure 4: representation learning
# ----------------------------------------------------------------------
def _neighbour_map_from_vectors(
    left_vectors: np.ndarray,
    left_keys: Sequence[str],
    right_vectors: np.ndarray,
    right_keys: Sequence[str],
    k: int,
) -> Dict[str, List[str]]:
    search = NearestNeighbourSearch().build(right_vectors, right_keys)
    return {
        str(key): [str(n) for n in neighbours]
        for key, neighbours in search.neighbour_map(left_vectors, left_keys, k=k).items()
    }


def raw_ir_neighbour_map(domain: GeneratedDomain, ir_method: str, config: HarnessConfig, k: Optional[int] = None) -> Dict[str, List[str]]:
    """Top-K neighbour map using raw IR record vectors (the Table IV baseline)."""
    k = k or config.top_k
    generator = IRGenerator(method=ir_method, dim=config.ir_dim).fit(domain.task)
    left = generator.transform_table(domain.task.left).reshape(len(domain.task.left), -1)
    right = generator.transform_table(domain.task.right).reshape(len(domain.task.right), -1)
    return _neighbour_map_from_vectors(left, domain.task.left.record_ids(), right, domain.task.right.record_ids(), k)


def vaer_neighbour_map(
    domain: GeneratedDomain,
    representation: EntityRepresentationModel,
    config: HarnessConfig,
    k: Optional[int] = None,
    store: Optional[EncodingStore] = None,
) -> Dict[str, List[str]]:
    """Top-K neighbour map using VAER encodings (search on means, Table IV)."""
    k = k or config.top_k
    store = _store_for(representation, domain, store)
    left, right = store.table_encodings("left"), store.table_encodings("right")
    return _neighbour_map_from_vectors(
        left.flat_mu(), list(left.keys), right.flat_mu(), list(right.keys), k
    )


def representation_experiment(
    domain: GeneratedDomain,
    config: Optional[HarnessConfig] = None,
    ir_methods: Sequence[str] = ("lsa", "w2v", "bert", "embdi"),
    k: Optional[int] = None,
) -> Dict[str, Dict[str, PRF]]:
    """Table IV: raw-IR vs VAER nearest-neighbour P/R/F1 @ K per IR type.

    Returns ``{ir_method: {"raw": PRF, "vaer": PRF}}``.
    """
    config = config or HarnessConfig()
    k = k or config.top_k
    test_positives = domain.splits.test.positives().pairs()
    results: Dict[str, Dict[str, PRF]] = {}
    for method in ir_methods:
        raw_map = raw_ir_neighbour_map(domain, method, config, k=k)
        representation, _ = fit_representation(domain, config, ir_method=method)
        vaer_map = vaer_neighbour_map(domain, representation, config, k=k)
        results[method] = {
            "raw": neighbour_prf_at_k(raw_map, test_positives, k),
            "vaer": neighbour_prf_at_k(vaer_map, test_positives, k),
        }
    return results


def recall_at_k_experiment(
    domain: GeneratedDomain,
    config: Optional[HarnessConfig] = None,
    ks: Sequence[int] = (10, 20, 30, 50),
    ir_method: str = "lsa",
    representation: Optional[EntityRepresentationModel] = None,
    store: Optional[EncodingStore] = None,
) -> Dict[int, float]:
    """Figure 4: VAER-LSA recall@K against the generator's duplicate map."""
    config = config or HarnessConfig()
    if representation is None and store is not None:
        representation = store.representation
    elif representation is None:
        representation, _ = fit_representation(domain, config, ir_method=ir_method)
    max_k = max(ks)
    neighbour_map = vaer_neighbour_map(domain, representation, config, k=max_k, store=store)
    return {k: recall_at_k(neighbour_map, domain.duplicate_map, k) for k in ks}


# ----------------------------------------------------------------------
# Table V / Table VI: supervised matching effectiveness and training time
# ----------------------------------------------------------------------
@dataclass
class MatchingRow:
    """One system's result on one domain (a cell group of Tables V and VI)."""

    system: str
    metrics: PRF
    representation_seconds: float = 0.0
    matching_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.representation_seconds + self.matching_seconds


def run_vaer_matching(
    domain: GeneratedDomain,
    config: Optional[HarnessConfig] = None,
    ir_method: str = "lsa",
    representation: Optional[EntityRepresentationModel] = None,
    distance: str = "wasserstein",
    contrastive_weight: Optional[float] = None,
    store: Optional[EncodingStore] = None,
) -> MatchingRow:
    """Train and evaluate the VAER matcher on a domain's given splits."""
    config = config or HarnessConfig()
    representation_seconds = 0.0
    if representation is None and store is not None:
        representation = store.representation
    elif representation is None:
        representation, representation_seconds = fit_representation(domain, config, ir_method=ir_method)
    store = _store_for(representation, domain, store)

    matcher_config = config.matcher_config()
    if contrastive_weight is not None:
        matcher_config.contrastive_weight = contrastive_weight
    start = time.perf_counter()
    matcher, threshold = fit_matcher_with_threshold(
        representation,
        domain.task,
        domain.splits.train,
        domain.splits.validation,
        config=matcher_config,
        distance=distance,
        store=store,
    )
    matching_seconds = time.perf_counter() - start

    predictions = (store.score_pairs(matcher, domain.splits.test) > threshold).astype(int)
    metrics = precision_recall_f1(domain.splits.test.labels(), predictions)
    return MatchingRow(
        system="vaer",
        metrics=metrics,
        representation_seconds=representation_seconds,
        matching_seconds=matching_seconds,
    )


def run_baseline_matching(domain: GeneratedDomain, system: str, **kwargs) -> MatchingRow:
    """Train and evaluate one baseline matcher on a domain's given splits."""
    matcher_cls = BASELINES[system]
    matcher: BaselineMatcher = matcher_cls(**kwargs)
    start = time.perf_counter()
    matcher.fit(domain.task, domain.splits.train, domain.splits.validation)
    seconds = time.perf_counter() - start
    metrics = matcher.evaluate(domain.task, domain.splits.test)
    return MatchingRow(system=system, metrics=metrics, matching_seconds=seconds)


def matching_experiment(
    domain: GeneratedDomain,
    config: Optional[HarnessConfig] = None,
    systems: Sequence[str] = ("deeper", "deepmatcher", "ditto"),
    ir_method: str = "lsa",
) -> List[MatchingRow]:
    """Tables V and VI: VAER vs baselines, effectiveness and training time."""
    config = config or HarnessConfig()
    rows = [run_vaer_matching(domain, config, ir_method=ir_method)]
    for system in systems:
        rows.append(run_baseline_matching(domain, system))
    return rows


# ----------------------------------------------------------------------
# Table VII: transferability
# ----------------------------------------------------------------------
@dataclass
class TransferRow:
    """Local vs transferred representation quality on one target domain."""

    domain: str
    local_recall: float
    transferred_recall: float
    local_f1: float
    transferred_f1: float

    @property
    def recall_delta(self) -> float:
        return self.transferred_recall - self.local_recall

    @property
    def f1_delta(self) -> float:
        return self.transferred_f1 - self.local_f1


def transfer_experiment(
    source_domain: GeneratedDomain,
    target_domains: Iterable[GeneratedDomain],
    config: Optional[HarnessConfig] = None,
    ir_method: str = "lsa",
) -> List[TransferRow]:
    """Table VII: recall@K and matching F1 with local vs transferred models.

    The source representation model is trained once (on the source domain);
    each target domain is arity-adapted to the source arity, encoded with the
    transferred model and with a locally trained model, and evaluated on both
    the unsupervised recall@K protocol and the supervised matching protocol.
    """
    config = config or HarnessConfig()
    source_model, _ = fit_representation(source_domain, config, ir_method=ir_method)
    source_arity = source_domain.task.arity

    rows: List[TransferRow] = []
    for target in target_domains:
        adapted_task = adapt_task_arity(target.task, source_arity)
        adapted_domain = GeneratedDomain(
            task=adapted_task, splits=target.splits, spec=target.spec, duplicate_map=target.duplicate_map
        )

        local_model, _ = fit_representation(adapted_domain, config, ir_method=ir_method)
        transferred_model = transfer_representation(source_model, adapted_task)

        # One store per model: the recall@K and matching protocols below then
        # share a single encoding pass of the adapted tables.
        local_store = EncodingStore(local_model, adapted_domain.task)
        transferred_store = EncodingStore(transferred_model, adapted_domain.task)

        local_recall = recall_at_k_experiment(
            adapted_domain, config, ks=(config.top_k,), representation=local_model, store=local_store
        )[config.top_k]
        transferred_recall = recall_at_k_experiment(
            adapted_domain, config, ks=(config.top_k,),
            representation=transferred_model, store=transferred_store,
        )[config.top_k]

        local_f1 = run_vaer_matching(
            adapted_domain, config, representation=local_model, store=local_store
        ).metrics.f1
        transferred_f1 = run_vaer_matching(
            adapted_domain, config, representation=transferred_model, store=transferred_store
        ).metrics.f1

        rows.append(
            TransferRow(
                domain=target.name,
                local_recall=local_recall,
                transferred_recall=transferred_recall,
                local_f1=local_f1,
                transferred_f1=transferred_f1,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table VIII / Figure 5: active learning
# ----------------------------------------------------------------------
@dataclass
class ActiveLearningRow:
    """One domain's Bootstrap / A-budget / Full comparison (Table VIII)."""

    domain: str
    bootstrap: PRF
    active: PRF
    full: PRF
    labels_used: int
    full_training_size: int
    f1_trace: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def f1_percentage(self) -> float:
        """Share of the Full model's F1 achieved by the actively trained model."""
        return self.active.f1 / self.full.f1 if self.full.f1 > 0 else 0.0

    @property
    def training_percentage(self) -> float:
        """Share of the full training set the active labels represent."""
        return self.labels_used / self.full_training_size if self.full_training_size else 0.0


def active_learning_experiment(
    domain: GeneratedDomain,
    config: Optional[HarnessConfig] = None,
    label_budget: int = 100,
    iterations: int = 20,
    strategy: str = "vaer",
    ir_method: str = "lsa",
    representation: Optional[EntityRepresentationModel] = None,
) -> ActiveLearningRow:
    """Table VIII row: Bootstrap vs actively-labeled vs Full-data matcher.

    ``label_budget`` plays the role of the paper's 250 actively labeled
    samples (scaled to the reduced synthetic training sets).
    """
    config = config or HarnessConfig()
    if representation is None:
        representation, _ = fit_representation(domain, config, ir_method=ir_method)

    # One store serves the AL loop and the full-data reference matcher alike.
    store = EncodingStore(representation, domain.task)
    oracle = GroundTruthOracle(domain.task)
    loop = ActiveLearningLoop(
        task=domain.task,
        representation=representation,
        oracle=oracle,
        config=config.al_config(iterations=iterations),
        matcher_config=config.matcher_config(),
        strategy=strategy,
        test_pairs=domain.splits.test,
        store=store,
    )
    result = loop.run(iterations=iterations, label_budget=label_budget)

    bootstrap_metrics = result.history[0].test_metrics or PRF(0.0, 0.0, 0.0)
    active_metrics = result.history[-1].test_metrics or PRF(0.0, 0.0, 0.0)
    full_metrics = run_vaer_matching(domain, config, representation=representation, store=store).metrics

    return ActiveLearningRow(
        domain=domain.name,
        bootstrap=bootstrap_metrics,
        active=active_metrics,
        full=full_metrics,
        labels_used=oracle.labels_provided,
        full_training_size=len(domain.splits.train),
        f1_trace=result.f1_trace(),
    )


# ----------------------------------------------------------------------
# Convenience loader
# ----------------------------------------------------------------------
def load_domains(names: Iterable[str], scale: float = 1.0) -> Dict[str, GeneratedDomain]:
    """Generate the requested benchmark domains keyed by name."""
    return {name: load_domain(name, scale=scale) for name in names}
