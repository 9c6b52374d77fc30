"""EmbDI-style relational embeddings (Cappuzzo et al., SIGMOD 2020).

EmbDI builds a heterogeneous graph connecting tokens, cells (record/attribute
values) and structural nodes (rows and columns), generates random walks over
that graph, and trains a skip-gram model on the walks so tokens appearing in
related structural contexts obtain similar embeddings.  This module is a
compact but faithful implementation of that recipe over the repo's
:class:`~repro.data.schema.Table` objects, using networkx for the graph and
:class:`~repro.text.word2vec.Word2Vec` for the embedding training.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx
import numpy as np

from repro.data.schema import MISSING, Table
from repro.exceptions import NotFittedError
from repro.text.tokenize import tokenize
from repro.text.word2vec import Word2Vec


class EmbDIModel:
    """Tripartite-graph random-walk embeddings for relational data.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    walks_per_node:
        Number of random walks started from every token node.
    walk_length:
        Length (in nodes) of each random walk.
    window, negative, epochs:
        Passed to the underlying skip-gram trainer.
    seed:
        Random seed controlling walk generation and training.
    """

    def __init__(
        self,
        dim: int = 64,
        walks_per_node: int = 3,
        walk_length: int = 8,
        window: int = 3,
        negative: int = 4,
        epochs: int = 2,
        seed: int = 17,
    ) -> None:
        self.dim = dim
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.seed = seed
        self._word2vec = Word2Vec(
            dim=dim, window=window, negative=negative, epochs=epochs, seed=seed
        )
        self._graph: Optional[nx.Graph] = None
        self._fitted = False

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _token_node(token: str) -> str:
        return f"tok::{token}"

    @staticmethod
    def _row_node(table: str, record_id: str) -> str:
        return f"row::{table}::{record_id}"

    @staticmethod
    def _column_node(attribute: str) -> str:
        return f"col::{attribute}"

    def build_graph(self, tables: Sequence[Table]) -> nx.Graph:
        """Construct the token–row–column graph over the given tables."""
        graph = nx.Graph()
        for table in tables:
            for record in table:
                row = self._row_node(table.name, record.record_id)
                graph.add_node(row, kind="row")
                for attribute, value in zip(table.attributes, record.values):
                    if value == MISSING:
                        continue
                    column = self._column_node(attribute)
                    graph.add_node(column, kind="column")
                    for token in tokenize(value):
                        token_node = self._token_node(token)
                        graph.add_node(token_node, kind="token")
                        graph.add_edge(token_node, row)
                        graph.add_edge(token_node, column)
        return graph

    # ------------------------------------------------------------------
    # Walks + training
    # ------------------------------------------------------------------
    def _random_walks(self, graph: nx.Graph, rng: np.random.Generator) -> List[List[str]]:
        walks: List[List[str]] = []
        token_nodes = [n for n, data in graph.nodes(data=True) if data.get("kind") == "token"]
        for start in token_nodes:
            for _ in range(self.walks_per_node):
                walk = [start]
                current = start
                for _ in range(self.walk_length - 1):
                    neighbours = list(graph.neighbors(current))
                    if not neighbours:
                        break
                    current = neighbours[int(rng.integers(0, len(neighbours)))]
                    walk.append(current)
                # Only token nodes carry embeddings we use downstream, but
                # keeping structural nodes in the walk lets them act as
                # context bridges, exactly as in EmbDI.
                walks.append(walk)
        return walks

    def fit(self, tables: Sequence[Table]) -> "EmbDIModel":
        """Build the graph, generate walks and train the skip-gram model."""
        rng = np.random.default_rng(self.seed)
        self._graph = self.build_graph(tables)
        walks = self._random_walks(self._graph, rng)
        self._word2vec.fit(walks)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Embedding lookup
    # ------------------------------------------------------------------
    def embed_sentence(self, sentence: str) -> np.ndarray:
        """Mean embedding of the tokens of an attribute-value sentence."""
        if not self._fitted:
            raise NotFittedError("EmbDIModel.embed_sentence called before fit")
        tokens = [self._token_node(t) for t in tokenize(sentence)]
        return self._word2vec.embed_tokens(tokens)

    def embed_sentences(self, sentences: Iterable[str]) -> np.ndarray:
        """Stack of sentence embeddings, shape (n, dim)."""
        sentences = list(sentences)
        if not sentences:
            return np.zeros((0, self.dim))
        return np.vstack([self.embed_sentence(s) for s in sentences])

    def token_embeddings(self) -> Dict[str, np.ndarray]:
        """Token → vector mapping restricted to token nodes."""
        if not self._fitted:
            raise NotFittedError("EmbDIModel.token_embeddings called before fit")
        prefix = "tok::"
        return {
            name[len(prefix):]: vector
            for name, vector in self._word2vec.embeddings().items()
            if name.startswith(prefix)
        }

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            raise NotFittedError("EmbDIModel.graph accessed before fit")
        return self._graph
