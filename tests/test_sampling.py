import collections

import numpy as np
import pytest

from xlembed import corpus as corpus_module
from xlembed.corpus import (
    EncodedCorpus,
    ParallelCorpus,
    sample_bilingual_pairs,
    sample_phrase_triples,
)
from xlembed.errors import SamplingError


def span_probability(length, start, end):
    """Exact probability of an (start, end) span under the two-stage scheme:
    start uniform in [0, L-3], then end uniform in [start+3, L]."""
    n_starts = length - 2
    n_ends = length - start - 2
    return 1.0 / (n_starts * n_ends)


def firsts(span_set):
    """The first id of every span."""
    return span_set.ids[np.cumsum(span_set.lengths) - span_set.lengths]


def positional_corpus(lengths):
    """Sentence s holds the ids 1000 * s + position, so every sampled id
    tells its sentence and position."""
    return EncodedCorpus([1000 * s + np.arange(n) for s, n in enumerate(lengths)], "en")


@pytest.mark.parametrize("seed, n_spans", [(0, 0), (1, 1), (2, 500)])
def test_gather_spans_returns_each_span_slice_as_int64(seed, n_spans):
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, 2**31 - 1, size=3000, dtype=np.int32)
    starts = rng.integers(0, flat.size, size=n_spans)
    lengths = rng.integers(1, np.minimum(flat.size - starts, 40) + 1)
    ids = corpus_module._gather_spans(flat, starts, lengths)
    expected = [flat[a : a + n] for a, n in zip(starts.tolist(), lengths.tolist())]
    assert ids.dtype == np.int64
    assert ids.tolist() == (np.concatenate(expected).tolist() if expected else [])


class TestPhraseTripleSampling:
    def test_single_short_sentence_forces_whole_spans(self):
        corpus = EncodedCorpus([np.array([7, 8, 9])], "en")
        batch = sample_phrase_triples(corpus, np.random.default_rng(0), 50)
        # the only eligible sentence is also every noise sentence
        for span in (batch.outer, batch.inner, batch.noise):
            assert span.ids.tolist() == [7, 8, 9] * 50

    def test_no_eligible_sentence_raises(self):
        corpus = EncodedCorpus([np.array([1]), np.array([2, 3])], "en")
        with pytest.raises(SamplingError):
            sample_phrase_triples(corpus, np.random.default_rng(0), 5)

    def test_outer_span_distribution_matches_product_of_uniforms(self):
        length = 6
        corpus = EncodedCorpus([np.arange(length) + 1], "en")
        n = 100_000
        outer = sample_phrase_triples(corpus, np.random.default_rng(42), n).outer
        starts = firsts(outer) - 1
        counts = collections.Counter(zip(starts.tolist(), (starts + outer.lengths).tolist()))
        legal = {
            (s, e): span_probability(length, s, e)
            for s in range(length - 2)
            for e in range(s + 3, length + 1)
        }
        assert abs(sum(legal.values()) - 1.0) < 1e-12
        assert set(counts) == set(legal)
        for span, p in legal.items():
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(counts[span] / n - p) <= 3 * sigma + 1e-12, span

    def test_bulk_outer_span_distribution_matches_scalar_scheme(self):
        length = 6
        corpus = EncodedCorpus([np.arange(length) + 1], "en")
        rng = np.random.default_rng(44)
        n = 100_000
        batch = sample_phrase_triples(corpus, rng, n)
        # recover spans from flat lengths; outer spans of a single sentence
        # are identified by (length, first id) pairs
        starts = firsts(batch.outer) - 1
        counts = collections.Counter(zip(starts.tolist(), (starts + batch.outer.lengths).tolist()))
        legal = {
            (s, s + l): span_probability(length, s, s + l)
            for s in range(length - 2)
            for l in range(3, length - s + 1)
        }
        for span, p in legal.items():
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(counts[span] / n - p) <= 3 * sigma + 1e-12, span

    def test_invariants_hold_over_many_samples(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(1, 12, size=40)
        batch = sample_phrase_triples(positional_corpus(lengths), rng, 100_000)
        for span in (batch.outer, batch.inner, batch.noise):
            # consecutive positions of one sentence, all inside it
            sent, pos = np.divmod(span.ids, 1000)
            starts = np.cumsum(span.lengths) - span.lengths
            offset = np.arange(span.ids.size) - np.repeat(starts, span.lengths)
            assert (sent == np.repeat(sent[starts], span.lengths)).all()
            assert (pos == np.repeat(pos[starts], span.lengths) + offset).all()
            assert (pos < lengths[sent]).all()
        o_sent, o_start = np.divmod(firsts(batch.outer), 1000)
        i_sent, i_start = np.divmod(firsts(batch.inner), 1000)
        assert (i_sent == o_sent).all()
        assert (i_start >= o_start).all()
        assert (i_start + batch.inner.lengths <= o_start + batch.outer.lengths).all()

    def test_bulk_invariants_hold(self):
        rng = np.random.default_rng(2)
        sentences = [np.arange(rng.integers(1, 12)) for _ in range(40)]
        corpus = EncodedCorpus(sentences, "en")
        batch = sample_phrase_triples(corpus, rng, 100_000)
        assert (batch.outer.lengths >= 3).all()
        assert (batch.inner.lengths >= 3).all()
        assert (batch.noise.lengths >= 3).all()
        assert (batch.inner.lengths <= batch.outer.lengths).all()

    def test_noise_usually_differs_from_outer(self):
        # the one-resample rule: over k eligible sentences the noise sentence
        # equals the outer one with probability 1/k^2, not 1/k
        rng = np.random.default_rng(3)
        k, n = 5, 40_000
        batch = sample_phrase_triples(positional_corpus([5] * k), rng, n)
        same = (firsts(batch.noise) // 1000 == firsts(batch.outer) // 1000).mean()
        p = 1 / k**2
        assert abs(same - p) <= 4 * (p * (1 - p) / n) ** 0.5


class TestBilingualSampling:
    def _corpus(self, n):
        a = EncodedCorpus([np.array([i + 1, i + 2, i + 3]) for i in range(n)], "en")
        b = EncodedCorpus([np.array([i + 1, i + 2]) for i in range(n)], "de")
        return ParallelCorpus(a, b)

    def test_single_pair_corpus_always_that_pair(self):
        batch = sample_bilingual_pairs(self._corpus(1), np.random.default_rng(0), 10)
        assert batch.side_l1.ids.tolist() == [1, 2, 3] * 10
        assert batch.side_l2.ids.tolist() == [1, 2] * 10

    def test_uniform_over_pairs(self):
        n = 100_000
        batch = sample_bilingual_pairs(self._corpus(4), np.random.default_rng(5), n)
        assert (firsts(batch.side_l2) == firsts(batch.side_l1)).all()  # sides stay aligned
        counts = collections.Counter(firsts(batch.side_l1).tolist())
        p = 0.25
        sigma = (p * (1 - p) / n) ** 0.5
        for first_id in (1, 2, 3, 4):
            assert abs(counts[first_id] / n - p) <= 3 * sigma + 1e-12

    def test_bulk_uniform_over_pairs(self):
        corpus = self._corpus(4)
        rng = np.random.default_rng(6)
        n = 100_000
        batch = sample_bilingual_pairs(corpus, rng, n)
        counts = collections.Counter(firsts(batch.side_l1).tolist())
        p = 0.25
        sigma = (p * (1 - p) / n) ** 0.5
        for first_id in (1, 2, 3, 4):
            assert abs(counts[first_id] / n - p) <= 3 * sigma + 1e-12

    def test_whole_sentences_no_subspans(self):
        corpus = self._corpus(3)
        rng = np.random.default_rng(7)
        batch = sample_bilingual_pairs(corpus, rng, 500)
        assert set(batch.side_l1.lengths.tolist()) == {3}
        assert set(batch.side_l2.lengths.tolist()) == {2}

    def test_ids_within_vocab_range(self):
        corpus = self._corpus(4)
        rng = np.random.default_rng(8)
        batch = sample_bilingual_pairs(corpus, rng, 1000)
        assert batch.side_l1.ids.max() <= 6
        assert batch.side_l1.ids.min() >= 0

    def test_empty_corpus_raises(self):
        a = EncodedCorpus([], "en")
        b = EncodedCorpus([], "de")
        with pytest.raises(SamplingError):
            sample_bilingual_pairs(ParallelCorpus(a, b), np.random.default_rng(0), 5)
