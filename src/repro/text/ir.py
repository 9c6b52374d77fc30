"""Intermediate Representation (IR) generation facade (Section III-B).

The paper converts each attribute value into an IR vector using one of four
methods — LSA, word2vec (W2V), BERT, or EmbDI — before any VAE training.
:class:`IRGenerator` exposes those four methods behind a single interface so
the representation model, the matcher and the experiments can switch IR types
with a string argument, exactly as Table IV of the paper varies them.

Substitutions relative to the paper (documented in DESIGN.md):

* ``"w2v"`` uses character n-gram hashing embeddings instead of downloadable
  pre-trained word vectors;
* ``"bert"`` uses a deterministic contextual composition of hashing
  embeddings instead of a pre-trained transformer;
* ``"lsa"`` and ``"embdi"`` are full implementations of the respective
  methods (corpus topic model / relational random-walk embeddings).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.data.schema import ERTask, Record, Table
from repro.exceptions import ConfigurationError, NotFittedError
from repro.text.embdi import EmbDIModel
from repro.text.hash_embedding import ContextualHashEmbedding, HashEmbedding
from repro.text.lsa import LSAModel

IR_METHODS = ("lsa", "w2v", "bert", "embdi")


def _corpus_of(tables: Sequence[Table]) -> List[str]:
    """Every attribute value of every record, construed as a sentence."""
    corpus: List[str] = []
    for table in tables:
        for record in table:
            corpus.extend(record.values)
    return corpus


class IRGenerator:
    """Maps attribute values to dense IR vectors with a chosen method.

    Parameters
    ----------
    method:
        One of ``"lsa"``, ``"w2v"``, ``"bert"``, ``"embdi"``.
    dim:
        Dimensionality of the produced IRs.
    seed:
        Seed for the trainable methods (EmbDI).
    """

    def __init__(self, method: str = "lsa", dim: int = 64, seed: int = 23) -> None:
        method = method.lower()
        if method not in IR_METHODS:
            raise ConfigurationError(
                f"unknown IR method {method!r}; expected one of {IR_METHODS}"
            )
        if dim <= 0:
            raise ConfigurationError("IR dimensionality must be positive")
        self.method = method
        self.dim = dim
        self.seed = seed
        self._lsa: Optional[LSAModel] = None
        self._hash: Optional[HashEmbedding] = None
        self._contextual: Optional[ContextualHashEmbedding] = None
        self._embdi: Optional[EmbDIModel] = None
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, task_or_tables) -> "IRGenerator":
        """Fit the IR model on the corpus of an ER task (or list of tables).

        The hashing-based methods (``w2v``, ``bert``) need no fitting but the
        call is still required so every method shares the same lifecycle.
        """
        tables = self._tables_of(task_or_tables)
        if self.method == "lsa":
            self._lsa = LSAModel(dim=self.dim).fit(_corpus_of(tables))
        elif self.method == "w2v":
            self._hash = HashEmbedding(dim=self.dim)
        elif self.method == "bert":
            self._contextual = ContextualHashEmbedding(dim=self.dim)
        elif self.method == "embdi":
            self._embdi = EmbDIModel(dim=self.dim, seed=self.seed).fit(tables)
        self._fitted = True
        return self

    @staticmethod
    def _tables_of(task_or_tables) -> List[Table]:
        if isinstance(task_or_tables, ERTask):
            return [task_or_tables.left, task_or_tables.right]
        if isinstance(task_or_tables, Table):
            return [task_or_tables]
        return list(task_or_tables)

    # ------------------------------------------------------------------
    def transform_values(self, values: Iterable[str]) -> np.ndarray:
        """IR vectors for a list of attribute-value sentences, shape (n, dim).

        Every method is a pure function of the single value, so each distinct
        value is embedded once and its row gathered back to every position it
        occupies: a row's bytes never depend on the batch around it.
        """
        if not self._fitted:
            raise NotFittedError("IRGenerator.transform_values called before fit")
        index: Dict[str, int] = {}
        inverse = [index.setdefault(value, len(index)) for value in values]
        if not inverse:
            return np.zeros((0, self.dim))
        distinct = list(index)
        if self.method == "lsa":
            assert self._lsa is not None
            irs = self._lsa.transform(distinct)
        elif self.method == "w2v":
            assert self._hash is not None
            irs = self._hash.embed_sentences(distinct)
        elif self.method == "bert":
            assert self._contextual is not None
            irs = self._contextual.embed_sentences(distinct)
        else:
            assert self._embdi is not None
            irs = self._embdi.embed_sentences(distinct)
        return irs[inverse]

    def transform_record(self, record: Record) -> np.ndarray:
        """Per-attribute IRs of one record, shape (arity, dim)."""
        return self.transform_values(list(record.values))

    def transform_table(self, table: Table) -> np.ndarray:
        """Per-attribute IRs of every record of a table, shape (n, arity, dim).

        Values are transformed in one flat batch (one weights pass and one
        sparse product for LSA, over the table's distinct values) and reshaped
        back to records.
        """
        records = table.records()
        if not records:
            return np.zeros((0, table.arity, self.dim))
        flat_values: List[str] = []
        for record in records:
            flat_values.extend(record.values)
        flat = self.transform_values(flat_values)
        return flat.reshape(len(records), table.arity, self.dim)

    def transform_task(self, task: ERTask) -> Dict[str, np.ndarray]:
        """IR tensors for both sides of a task, keyed ``"left"``/``"right"``."""
        return {
            "left": self.transform_table(task.left),
            "right": self.transform_table(task.right),
        }
