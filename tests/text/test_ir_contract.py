"""The IR contract of the sparse transform, pinned against the dense loop.

``reference_tfidf`` / ``reference_lsa`` are the per-row dense implementation
this repository shipped before the transform went sparse.  Two different
guarantees hang off them:

* the matrix ``fit`` hands to the SVD — and so ``_components`` — is
  **byte-identical** to the reference (the SVD turns a 1e-15 change in that
  matrix into a different basis and measurably different recall);
* ``LSAModel.transform`` is within 1e-12 of the reference (its row norm and
  projection accumulate in another order), and each IR row is a pure function
  of its value, whatever batch it rides in.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from repro.config import MatcherConfig, VAEConfig, VAERConfig
from repro.core.pipeline import VAER
from repro.data.generators import available_domains, load_domain
from repro.data.schema import Record, Table
from repro.engine import EncodingStore, merge_scored_batches, resolve
from repro.eval.timing import EngineCounters
from repro.text import EmbDIModel, HashEmbedding, IRGenerator, LSAModel, Vocabulary
from repro.text.ir import IR_METHODS, _corpus_of
from repro.text.tokenize import character_ngrams, tokenize

DOMAINS = available_domains()
SCALE = 0.3


# ----------------------------------------------------------------------
# Reference: the per-row dense loop
# ----------------------------------------------------------------------
def reference_analyze(vectorizer, sentence):
    tokens = tokenize(sentence)
    features = list(tokens)
    if vectorizer.include_char_ngrams:
        for token in tokens:
            features.extend(character_ngrams(token, *vectorizer.char_ngram_range))
    return features


def reference_tfidf(vectorizer, sentences):
    vocabulary, idf = vectorizer.vocabulary, vectorizer._idf
    matrix = np.zeros((len(sentences), len(vocabulary)), dtype=np.float64)
    for row, sentence in enumerate(sentences):
        ids = vocabulary.encode(reference_analyze(vectorizer, sentence))
        if not ids:
            continue
        counts = np.bincount(ids, minlength=len(vocabulary)).astype(np.float64)
        if vectorizer.sublinear_tf:
            nonzero = counts > 0
            counts[nonzero] = 1.0 + np.log(counts[nonzero])
        matrix[row] = counts * idf
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.divide(matrix, norms, out=matrix, where=norms > 0)
    return matrix


def reference_lsa(model, sentences):
    projected = reference_tfidf(model.vectorizer, list(sentences)) @ model._components.T
    padding = np.zeros((projected.shape[0], model.dim - projected.shape[1]))
    return np.hstack([projected, padding])


@pytest.fixture(scope="module", params=DOMAINS)
def fitted(request):
    """(corpus, fitted LSAModel) of one registry domain."""
    task = load_domain(request.param, scale=SCALE).task
    corpus = _corpus_of([task.left, task.right])
    return corpus, LSAModel(dim=64).fit(corpus)


def test_all_nine_registry_domains_are_covered():
    assert len(DOMAINS) == 9


class TestFitSideIsByteIdentical:
    def test_vocabulary_matches_the_reference_analysis(self, fitted):
        corpus, model = fitted
        vectorizer = model.vectorizer
        reference = Vocabulary(min_count=vectorizer.min_count, max_size=vectorizer.max_features).fit(
            [reference_analyze(vectorizer, sentence) for sentence in corpus]
        )
        assert vectorizer.vocabulary.tokens() == reference.tokens()
        np.testing.assert_array_equal(vectorizer._idf, reference.idf())

    def test_tfidf_matrix_and_components(self, fitted):
        corpus, model = fitted
        reference = reference_tfidf(model.vectorizer, corpus)
        np.testing.assert_array_equal(model.vectorizer.transform(corpus), reference)
        _, singular_values, vt = linalg.svd(reference, full_matrices=False)
        np.testing.assert_array_equal(model._components, vt[: model.explained_dim])
        np.testing.assert_array_equal(model._singular_values, singular_values[: model.explained_dim])


class TestTransformSide:
    def test_within_1e_12_of_the_reference(self, fitted):
        corpus, model = fitted
        out_of_vocabulary = next(
            candidate for candidate in ("qxzjv wvkqz", "jjqqx xxqjj", "vvwwq qwwvv")
            if not model.vectorizer.vocabulary.encode(reference_analyze(model.vectorizer, candidate))
        )
        batch = ["", out_of_vocabulary, "?! --"] + corpus + corpus[:7] + [""]
        got = model.transform(batch)
        assert got.shape == (len(batch), 64)
        np.testing.assert_allclose(got, reference_lsa(model, batch), rtol=0.0, atol=1e-12)
        assert not got[:3].any() and not got[-1].any()


# ----------------------------------------------------------------------
# Batch independence, all four IR methods
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", IR_METHODS)
def test_each_ir_row_is_a_pure_function_of_its_value(tiny_domain, method):
    task = tiny_domain.task
    generator = IRGenerator(method=method, dim=16).fit(task)
    values = _corpus_of([task.left])[:45] + ["", "never seen before"]
    expected = [row.tobytes() for row in generator.transform_values(values)]

    def rows_of(gen, batch):
        return [row.tobytes() for row in gen.transform_values(batch)]

    assert [rows_of(generator, [value])[0] for value in values] == expected
    order = np.random.default_rng(5).permutation(len(values))
    assert rows_of(generator, [values[i] for i in order]) == [expected[i] for i in order]
    assert rows_of(generator, values + values[::2]) == expected + expected[::2]
    assert rows_of(generator, values[:13]) + rows_of(generator, values[13:]) == expected
    assert rows_of(pickle.loads(pickle.dumps(generator)), values) == expected


# ----------------------------------------------------------------------
# End to end: same candidates and matches as under the dense reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", DOMAINS)
def test_resolve_stream_agrees_with_the_dense_reference(name, monkeypatch):
    domain = load_domain(name, scale=SCALE)
    config = VAERConfig(
        vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=3, seed=11),
        matcher=MatcherConfig(epochs=10, mlp_hidden=(24, 12), seed=13),
    )
    model = VAER(config).fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)

    def drained():
        store = EncodingStore(model.representation, domain.task, counters=EngineCounters())
        return merge_scored_batches(list(resolve(
            store, model.matcher, blocking=config.blocking, k=5, batch_size=64, threshold=model.threshold
        ).run()))

    sparse_run = drained()
    monkeypatch.setattr(LSAModel, "transform", reference_lsa)
    dense_run = drained()

    assert len(sparse_run.pairs) > 0
    assert [p.key() for p in sparse_run.pairs] == [p.key() for p in dense_run.pairs]
    assert {p.key() for p in sparse_run.matches()} == {p.key() for p in dense_run.matches()}
    np.testing.assert_allclose(sparse_run.probabilities, dense_run.probabilities, rtol=0.0, atol=1e-9)


# ----------------------------------------------------------------------
# Memory: O(non-zeros), not O(values x vocabulary)
# ----------------------------------------------------------------------
def test_transform_table_of_20000_rows_stays_under_100_mb():
    task = load_domain("software", scale=SCALE).task
    generator = IRGenerator("lsa", dim=64).fit(task)
    base = task.left.records()
    tiled = Table("tiled", task.left.attributes, [
        Record(f"t{i}", base[i % len(base)].values) for i in range(20_000)
    ])
    tracemalloc.start()
    try:
        irs = generator.transform_table(tiled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert irs.shape == (20_000, task.arity, 64)
    np.testing.assert_array_equal(irs[: len(base)], generator.transform_table(task.left))
    # The dense document-term matrix alone was 20000 * arity * 1500 * 8 B = 720 MB.
    assert peak < 100 * 2**20


# ----------------------------------------------------------------------
# Sentence embedders: empty inputs and pickle size
# ----------------------------------------------------------------------
class TestEmbedSentences:
    @pytest.fixture(scope="class", params=["hash", "embdi"])
    def embedder(self, request):
        if request.param == "hash":
            return HashEmbedding(dim=8)
        table = Table("t", ("name",), [Record("a", ("golden dragon",)), Record("b", ("river cafe",))])
        return EmbDIModel(dim=8, walks_per_node=1, walk_length=4, epochs=1, seed=3).fit([table])

    def test_accepts_any_iterable(self, embedder):
        for empty in ([], iter(()), np.array([], dtype=str)):
            assert embedder.embed_sentences(empty).shape == (0, 8)
        sentences = ["golden dragon", "river cafe"]
        expected = embedder.embed_sentences(sentences)
        np.testing.assert_array_equal(embedder.embed_sentences(np.array(sentences)), expected)
        np.testing.assert_array_equal(embedder.embed_sentences(s for s in sentences), expected)

    @pytest.mark.parametrize("method", ["w2v", "bert"])
    def test_hash_generators_do_not_pickle_their_vector_cache(self, method):
        task = load_domain("software", scale=SCALE).task
        generator = IRGenerator(method, dim=64).fit(task)
        before = len(pickle.dumps(generator))
        irs = generator.transform_table(task.left)
        assert len(pickle.dumps(generator)) == before < 1024
        copy = pickle.loads(pickle.dumps(generator))
        np.testing.assert_array_equal(copy.transform_table(task.left), irs)
