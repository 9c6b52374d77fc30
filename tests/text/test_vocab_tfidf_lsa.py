"""Vocabulary, TF-IDF and LSA behaviour."""

import pickle

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.text import LSAModel, TfidfVectorizer, Vocabulary
from repro.text.tokenize import tokenize

CORPUS = [
    "deep learning for entity resolution",
    "entity resolution with variational autoencoders",
    "deep generative models",
    "relational data integration and cleaning",
    "record matching and data cleaning",
]


class TestVocabulary:
    def test_fit_assigns_ids(self):
        vocab = Vocabulary().fit([tokenize(s) for s in CORPUS])
        assert len(vocab) > 0
        assert vocab.id_of("entity") is not None

    def test_min_count_filters(self):
        vocab = Vocabulary(min_count=2).fit([tokenize(s) for s in CORPUS])
        assert "entity" in vocab       # appears twice
        assert "variational" not in vocab  # appears once

    def test_max_size_caps(self):
        vocab = Vocabulary(max_size=3).fit([tokenize(s) for s in CORPUS])
        assert len(vocab) == 3

    def test_encode_drops_oov(self):
        vocab = Vocabulary().fit([tokenize(s) for s in CORPUS])
        assert vocab.encode(["entity", "unknowntoken"]) == [vocab.id_of("entity")]

    def test_idf_higher_for_rare_tokens(self):
        vocab = Vocabulary().fit([tokenize(s) for s in CORPUS])
        idf = vocab.idf()
        common = idf[vocab.id_of("entity")]
        rare = idf[vocab.id_of("variational")]
        assert rare > common

    def test_unigram_distribution_sums_to_one(self):
        vocab = Vocabulary().fit([tokenize(s) for s in CORPUS])
        assert np.isclose(vocab.unigram_distribution().sum(), 1.0)

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)


class TestTfidf:
    def test_shape(self):
        matrix = TfidfVectorizer().fit_transform(CORPUS)
        assert matrix.shape[0] == len(CORPUS)

    def test_rows_are_unit_norm(self):
        matrix = TfidfVectorizer().fit_transform(CORPUS)
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_similar_sentences_have_higher_cosine(self):
        vectorizer = TfidfVectorizer()
        matrix = vectorizer.fit_transform(CORPUS)
        sim_related = matrix[0] @ matrix[1]     # share "entity resolution"
        sim_unrelated = matrix[0] @ matrix[3]
        assert sim_related > sim_unrelated

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().transform(CORPUS)

    def test_empty_sentence_is_zero_vector(self):
        vectorizer = TfidfVectorizer().fit(CORPUS)
        assert np.allclose(vectorizer.transform([""])[0], 0.0)

    def test_char_ngrams_make_typos_similar(self):
        plain = TfidfVectorizer(include_char_ngrams=False).fit(CORPUS + ["variational"])
        chargrams = TfidfVectorizer(include_char_ngrams=True).fit(CORPUS + ["variational"])
        a_plain, b_plain = plain.transform(["variational", "variatonal"])
        a_char, b_char = chargrams.transform(["variational", "variatonal"])
        assert a_char @ b_char > a_plain @ b_plain

    def test_num_features_property(self):
        vectorizer = TfidfVectorizer().fit(CORPUS)
        assert vectorizer.num_features == len(vectorizer.vocabulary)


class TestLSA:
    def test_output_dim(self):
        model = LSAModel(dim=4).fit(CORPUS)
        assert model.transform(CORPUS).shape == (len(CORPUS), 4)

    def test_dim_padded_when_corpus_small(self):
        model = LSAModel(dim=50).fit(CORPUS)
        assert model.transform(["deep learning"]).shape == (1, 50)

    def test_similar_sentences_close(self):
        model = LSAModel(dim=4, include_char_ngrams=False).fit(CORPUS)
        vectors = model.transform(CORPUS)
        d_related = np.linalg.norm(vectors[0] - vectors[1])
        d_unrelated = np.linalg.norm(vectors[0] - vectors[3])
        assert d_related < d_unrelated

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LSAModel(dim=4).transform(CORPUS)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            LSAModel(dim=4).fit([])

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            LSAModel(dim=0)

    def test_explained_dim_at_most_requested(self):
        model = LSAModel(dim=4).fit(CORPUS)
        assert model.explained_dim <= 4

    def test_pickled_model_transforms_to_the_same_bytes(self):
        """Pool workers encode with an unpickled copy of the model: the copy
        must keep the memory layout BLAS sees, or every IR moves by an ulp."""
        words = [w for sentence in CORPUS for w in sentence.split()]
        corpus = [" ".join(words[i % len(words)] for i in range(n, n + 6)) for n in range(60)]
        model = LSAModel(dim=12).fit(corpus)
        copy = pickle.loads(pickle.dumps(model))
        for rows in (1, 3, 8, 23, 60):
            np.testing.assert_array_equal(copy.transform(corpus[:rows]), model.transform(corpus[:rows]))

    def test_fit_retries_with_gesvd_when_gesdd_fails(self, monkeypatch):
        """gesdd can fail to converge on a matrix gesvd factors: fit retries
        with gesvd, only then, and lands on the same singular values."""
        from repro.text import lsa

        reference = LSAModel(dim=4).fit(CORPUS)
        real_svd = lsa.linalg.svd
        drivers = []

        def svd(matrix, full_matrices=True, lapack_driver="gesdd", **kwargs):
            drivers.append(lapack_driver)
            if lapack_driver == "gesdd":
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(matrix, full_matrices=full_matrices, lapack_driver=lapack_driver, **kwargs)

        monkeypatch.setattr(lsa.linalg, "svd", svd)
        model = LSAModel(dim=4).fit(CORPUS)
        assert drivers == ["gesdd", "gesvd"]
        np.testing.assert_allclose(model._singular_values, reference._singular_values, rtol=1e-10)
        assert model.transform(CORPUS).shape == (len(CORPUS), 4)

    def test_citations2_at_scale_4_fits(self):
        """``citations2`` at scale 4 is an 8320x1500 tf-idf matrix on which
        gesdd fails to converge with some LAPACK builds."""
        from repro.data.generators import load_domain
        from repro.text.ir import IRGenerator

        generator = IRGenerator(method="lsa", dim=64).fit(load_domain("citations2", scale=4.0).task)
        assert np.isfinite(generator.transform_values(["deep learning"])).all()
