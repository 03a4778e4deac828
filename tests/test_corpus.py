import re

import numpy as np
import pytest

from xlembed import corpus as corpus_module
from xlembed.corpus import (
    EncodedCorpus,
    ParallelCorpus,
    Vocabulary,
    build_vocabulary,
    encode,
    filter_mono,
    filter_parallel,
    iter_tokens,
    lowercase_ratio,
    merge_vocabularies,
    read_lines,
    read_parallel,
)
from xlembed.embeddings import load_embeddings_text
from xlembed.errors import AlignmentError, ConfigError, DataError
from xlembed.evaluate import read_labeled_documents
from xlembed.trainer import parse_config_file


def char_class_ratio(text):
    # independent oracle: classify characters by explicit ASCII ranges
    lower = sum(1 for c in text if "a" <= c <= "z")
    nonspace = sum(1 for c in text if c not in " \t\n")
    other = nonspace - lower
    return float("inf") if other == 0 else lower / other


class TestLowercaseRatio:
    def test_all_lowercase_is_infinite(self):
        assert lowercase_ratio("the cat sat") == float("inf")

    def test_no_lowercase_is_zero(self):
        assert lowercase_ratio("REPORT 1234") == 0.0

    def test_mixed_line_matches_character_class_oracle(self):
        text = "Prices Rose 3%"
        assert lowercase_ratio(text) == char_class_ratio(text)
        assert lowercase_ratio(text) == 8 / 4

    def test_empty_string_kept(self):
        assert lowercase_ratio("") == float("inf")

    @pytest.mark.parametrize(
        "text",
        ["Headline IN CAPS", "1999 report 12%", "gemischte Worte mit Zahlen 7", "a B c D"],
    )
    def test_agrees_with_oracle_on_ascii(self, text):
        assert lowercase_ratio(text) == char_class_ratio(text)


class TestFilterParallel:
    def test_pair_above_both_cutoffs_kept(self):
        pairs = [("the cat sat here", "die katze sass hier")]
        assert filter_parallel(pairs, 0.9, 0.7) == pairs

    def test_failing_side_removes_whole_pair(self):
        pairs = [("REPORT 99 11 23", "die katze sass hier")]
        assert filter_parallel(pairs, 0.9, 0.7) == []

    def test_short_side_removes_whole_pair(self):
        pairs = [("two tokens", "drei kleine worte")]
        assert filter_parallel(pairs, 0.9, 0.7) == []

    def test_order_preserved_and_counts_match_oracle(self):
        good = [(f"good pair number {i}", f"gutes paar nummer {i}") for i in range(7)]
        bad = [("BAD 123 456 789", "schlecht aber ok hier")] * 3
        pairs = good[:3] + bad[:1] + good[3:5] + bad[1:] + good[5:]
        kept = filter_parallel(pairs, 0.9, 0.7)
        # oracle: enumerate and filter by the character-class ratio directly
        expected = [
            p
            for p in pairs
            if char_class_ratio(p[0]) >= 0.9
            and char_class_ratio(p[1]) >= 0.7
            and len(p[0].split()) >= 3
            and len(p[1].split()) >= 3
        ]
        assert kept == expected == good

    def test_idempotent(self):
        pairs = [
            ("the cat sat here", "die katze sass hier"),
            ("REPORT 99 11 23", "die katze sass hier"),
            ("one more good line", "noch eine gute zeile"),
        ]
        once = filter_parallel(pairs, 0.9, 0.7)
        assert filter_parallel(once, 0.9, 0.7) == once

    def test_sides_stay_equal_length(self):
        pairs = [("ok line here", "OK 123 999"), ("all good here", "alles gut hier")]
        kept = filter_parallel(pairs, 0.9, 0.7)
        assert all(len(p) == 2 for p in kept)

    def test_mono_filter(self):
        lines = ["keep this line", "DROP 123 456", "xy", "another keeper here"]
        assert filter_mono(lines, 0.9) == ["keep this line", "another keeper here"]


def test_read_parallel_mismatch_raises(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("one line\n")
    b.write_text("zwei\nzeilen\n")
    with pytest.raises(AlignmentError):
        read_parallel(a, b)


class TestVocabulary:
    def test_threshold_boundary(self):
        vocab = build_vocabulary(["a"] * 5 + ["b"] * 2 + ["c"], 2)
        assert vocab.id_to_token == ["<unk>", "a", "b"]
        assert vocab.id_for("c") == 0
        assert int(vocab.counts[0]) == 1  # dropped mass

    def test_threshold_one_retains_everything(self):
        vocab = build_vocabulary("b a c a b a".split(), 1)
        assert set(vocab.id_to_token) == {"<unk>", "a", "b", "c"}
        assert int(vocab.counts[0]) == 0

    def test_frequency_equal_to_threshold_retained(self):
        vocab = build_vocabulary(["x"] * 3 + ["y"] * 2, 3)
        assert "x" in vocab
        assert vocab.id_for("y") == 0

    def test_ids_descending_frequency_ties_lexicographic(self):
        vocab = build_vocabulary("b b a a c".split(), 1)
        assert vocab.id_to_token == ["<unk>", "a", "b", "c"]

    def test_deterministic_across_runs(self):
        stream = list("the quick brown fox jumps over the lazy dog the fox".split())
        v1 = build_vocabulary(list(stream), 1)
        v2 = build_vocabulary(list(stream), 1)
        assert v1.id_to_token == v2.id_to_token
        assert (v1.counts == v2.counts).all()

    def test_empty_stream_gives_unk_only(self):
        vocab = build_vocabulary([], 1)
        assert vocab.id_to_token == ["<unk>"]

    def test_bad_threshold_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary(["a"], 0)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary("a a b c c c".split(), 1, "en")
        path = tmp_path / "v.vocab"
        vocab.save(path)
        loaded = Vocabulary.load(path, "en")
        assert loaded.id_to_token == vocab.id_to_token
        assert (loaded.counts == vocab.counts).all()
        assert path.read_text().splitlines()[0] == "<unk>\t0"

    def test_load_rejects_missing_unk_line(self, tmp_path):
        path = tmp_path / "bad.vocab"
        path.write_text("word\t3\n")
        with pytest.raises(DataError):
            Vocabulary.load(path)

    def test_load_rejects_non_integer_count(self, tmp_path):
        path = tmp_path / "bad.vocab"
        path.write_text("<unk>\t0\nfoo\tabc\n")
        with pytest.raises(DataError, match=r"bad\.vocab:2:"):
            Vocabulary.load(path)

    # integer forms int() takes but save never writes
    @pytest.mark.parametrize("count", ["1_0", "+2", "-3", " 4", "5 ", "\u0663", "\uff17"])
    def test_load_rejects_count_that_is_no_plain_ascii_digits(self, tmp_path, count):
        path = tmp_path / "bad.vocab"
        path.write_text(f"<unk>\t0\nfoo\t{count}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.vocab:2: expected 'token<TAB>count' with an integer count"):
            Vocabulary.load(path)

    # tokens that save never writes and that no .vec row could hold
    @pytest.mark.parametrize("token", ["th e", "", " ", "a\u00a0b", "a\x0bb"])
    def test_load_rejects_token_that_is_no_one_field(self, tmp_path, token):
        path = tmp_path / "bad.vocab"
        path.write_text(f"<unk>\t0\nfoo\t5\n{token}\t3\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"bad\.vocab:3: token {re.escape(repr(token))} "
                                            "is empty or holds whitespace$"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("tokens", [["a", "b", "a"], ["a", "<unk>"]])
    def test_repeated_token_rejected(self, tokens):
        with pytest.raises(DataError, match="duplicate tokens"):
            Vocabulary(tokens, [1] * len(tokens))

    @pytest.mark.parametrize("counts, unk_count, token, count", [
        ([-3, 2], 0, "'a'", -3), ([3, -2], 0, "'b'", -2), ([3, 2], -1, "'<unk>'", -1),
    ])
    def test_negative_count_rejected(self, counts, unk_count, token, count):
        with pytest.raises(DataError, match=f"token {token} has a negative count {count}$"):
            Vocabulary(["a", "b"], counts, unk_count=unk_count)

    def test_merge_of_no_vocabulary_rejected(self):
        with pytest.raises(DataError, match="at least one vocabulary"):
            merge_vocabularies([])

    def test_merge_sums_counts_and_reassigns_ids(self):
        v1 = build_vocabulary(["a"] * 3 + ["b"] * 2, 1, "en")
        v2 = build_vocabulary(["b"] * 4 + ["c"] * 2 + ["d"], 2, "en")
        merged = merge_vocabularies([v1, v2], "en")
        # b: 2 + 4 = 6, a: 3, c: 2; d dropped in v2 so absent here
        assert merged.id_to_token == ["<unk>", "b", "a", "c"]
        assert merged.counts.tolist() == [1, 6, 3, 2]


class TestEncode:
    def test_basic(self):
        vocab = build_vocabulary("a a b".split(), 1)
        ids = encode("a b", vocab)
        assert ids.dtype == np.int32 and ids.tolist() == [1, 2]

    def test_oov_maps_to_unk(self):
        vocab = build_vocabulary("a a b".split(), 1)
        assert encode("a zzz", vocab).tolist() == [1, 0]

    def test_lowercase_flag(self):
        vocab = build_vocabulary("a a b".split(), 1)
        assert encode("A B", vocab, lowercase=True).tolist() == [1, 2]

    def test_corpus_vocab_masks_tokens(self):
        lang = build_vocabulary("a a b b c c".split(), 1, "en")
        corpus_only = build_vocabulary("a a".split(), 1, "en")
        ids = encode("a b c", lang, corpus_vocab=corpus_only)
        assert ids.tolist() == [lang.id_for("a"), 0, 0]

    def test_round_trip_replaces_oov_with_unk_surface(self):
        rng = np.random.default_rng(11)
        alphabet = [f"t{i}" for i in range(30)]
        for _ in range(50):
            stream = [alphabet[rng.integers(0, len(alphabet))] for _ in range(60)]
            vocab = build_vocabulary(stream, 2)
            raw = " ".join(alphabet[rng.integers(0, len(alphabet))] for _ in range(8))
            ids = encode(raw, vocab)
            assert len(ids) == len(raw.split())
            expected = [t if t in vocab else "<unk>" for t in raw.split()]
            assert [vocab.token_for(int(i)) for i in ids] == expected


class TestEncodedCorpus:
    def test_flat_layout(self):
        corpus = EncodedCorpus([np.array([1, 2, 3]), np.array([4, 5])], "en")
        assert len(corpus) == 2
        assert corpus.n_tokens == 5
        assert corpus.sentence_ids(1).tolist() == [4, 5]
        assert corpus.eligible.tolist() == [0]

    def test_ids_file_round_trip(self, tmp_path):
        corpus = EncodedCorpus([np.array([1, 2, 3]), np.array([0, 5, 1, 2])], "en")
        path = tmp_path / "c.ids"
        corpus.save_ids(path)
        loaded = EncodedCorpus.load_ids(path, "en")
        assert (loaded.flat == corpus.flat).all()
        assert (loaded.lengths == corpus.lengths).all()

    @pytest.mark.parametrize("sentences, message", [
        ([[1, 2], [], [3]], "'en' corpus sentence 1 holds no words"),
        ([[]], "'en' corpus sentence 0 holds no words"),
        ([[1, 2], [3, -1, -4]], "'en' corpus holds the negative id -4"),
    ])
    def test_empty_sentence_or_negative_id_refused(self, sentences, message):
        with pytest.raises(DataError, match=message):
            EncodedCorpus(sentences, "en")

    def test_negative_id_in_ids_file_refused(self, tmp_path):
        path = tmp_path / "c.ids"
        path.write_text("1 2 3\n4 -1\n")
        with pytest.raises(DataError, match="negative id -1"):
            EncodedCorpus.load_ids(path, "en")

    def test_parallel_mismatch_raises(self):
        a = EncodedCorpus([np.array([1, 2, 3])], "en")
        b = EncodedCorpus([np.array([1]), np.array([2])], "de")
        with pytest.raises(AlignmentError):
            ParallelCorpus(a, b)

    def test_pair_tags_must_differ(self):
        a = EncodedCorpus([np.array([1, 2, 3])], "en")
        b = EncodedCorpus([np.array([1, 2])], "en")
        with pytest.raises(DataError):
            ParallelCorpus(a, b)

    def test_limited_keeps_first_pairs(self):
        a = EncodedCorpus([np.array([i, i, i]) for i in range(5)], "en")
        b = EncodedCorpus([np.array([i, i]) for i in range(5)], "de")
        par = ParallelCorpus(a, b).limited(2)
        assert len(par) == 2
        assert par.l1.sentence_ids(1).tolist() == [1, 1, 1]

    def test_negative_limit_rejected(self):
        par = ParallelCorpus(EncodedCorpus([[1, 2]], "en"), EncodedCorpus([[3]], "de"))
        with pytest.raises(ConfigError, match="pair limit must be >= 0, got -5"):
            par.limited(-5)

    SENTENCES = [[4, 1, 2, 3], [5], [6, 6], [1, 2, 3], [7, 8, 9, 1, 2], [3, 3, 3]]

    @staticmethod
    def assert_same_layout(got, expected):
        for name in ("flat", "lengths", "offsets", "eligible"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        assert got.language_tag == expected.language_tag

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    def test_limited_matches_sentence_construction(self, n):
        sides = [[np.array(s, dtype=np.int32) for s in self.SENTENCES] for _ in range(2)]
        par = ParallelCorpus(EncodedCorpus(sides[0], "en"), EncodedCorpus(sides[1][::-1], "de"))
        limited = par.limited(n)
        self.assert_same_layout(limited.l1, EncodedCorpus(sides[0][:n], "en"))
        self.assert_same_layout(limited.l2, EncodedCorpus(sides[1][::-1][:n], "de"))

    @pytest.mark.parametrize("split", [0, 2, 7])
    def test_concat_matches_sentence_construction(self, split):
        first, second = self.SENTENCES[:split], self.SENTENCES[split:]
        joined = EncodedCorpus(first, "en").concat(EncodedCorpus(second, "en"))
        self.assert_same_layout(joined, EncodedCorpus(self.SENTENCES, "en"))

    def test_concat_across_languages_rejected(self):
        with pytest.raises(DataError, match="different languages"):
            EncodedCorpus([[1]], "en").concat(EncodedCorpus([[1]], "de"))

    def test_iter_tokens_lowercase(self):
        assert list(iter_tokens(["A b", "C"], lowercase=True)) == ["a", "b", "c"]


def reference_layout(sentences):
    """flat, lengths, offsets and eligible of a corpus, one sentence at a
    time with Python ints: the layout every constructor must reproduce."""
    flat = [int(v) for ids in sentences for v in ids]
    lengths = [len(ids) for ids in sentences]
    offsets = [0]
    for n in lengths:
        offsets.append(offsets[-1] + n)
    return {
        "flat": np.array(flat, dtype=np.int32),
        "lengths": np.array(lengths, dtype=np.int64),
        "offsets": np.array(offsets, dtype=np.int64),
        "eligible": np.array([i for i, n in enumerate(lengths) if n >= 3], dtype=np.int64),
    }


def assert_reference_layout(corpus, sentences):
    for name, expected in reference_layout(sentences).items():
        got = getattr(corpus, name)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), name


def random_sentences(seed, n):
    """n sentences of 1-7 ids, int64 views of one buffer; one id is 2**31 - 1,
    the top of the int32 range."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 8, size=n)
    ids = rng.integers(0, 1000, size=int(lengths.sum()))
    if ids.size:
        ids[rng.integers(0, ids.size)] = 2**31 - 1
    ends = np.cumsum(lengths).tolist()
    return [ids[a:b] for a, b in zip([0] + ends[:-1], ends)]


def reference_ids_text(sentences) -> bytes:
    return "".join(" ".join(str(int(v)) for v in ids) + "\n" for ids in sentences).encode()


def int32_views(sentences):
    flat = np.array([int(v) for ids in sentences for v in ids], dtype=np.int32)
    ends = np.cumsum([len(ids) for ids in sentences]).tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


# the forms that EncodedCorpus(sentences) takes, made from random_sentences
SENTENCE_FORMS = {
    "int32 views of one buffer": int32_views,
    "int64 arrays": lambda sentences: [ids.copy() for ids in sentences],
    "python lists": lambda sentences: [ids.tolist() for ids in sentences],
    "generator": lambda sentences: (ids.tolist() for ids in sentences),
}


# ids file text -> what load_ids' data error says
MALFORMED_IDS = {
    "1 2 3\n\n4 5\n": "bad.ids:2: empty sentence line",
    "1 2 3\n \t \n": "bad.ids:2: empty sentence line",
    "1 2 3\n4 x 6\n": "bad.ids:2: non-integer token id",
    "1 2.0 3\n": "bad.ids:1: non-integer token id",
    "1 2 3\n4 2147483648\n": "bad.ids:2: token id outside the int32 range",
    "-2147483649 1\n": "bad.ids:1: token id outside the int32 range",
    "1 2 3\n4 -1\n": "'en' corpus holds the negative id -1",
    "1 2 3\n4 -2147483648 -5\n": "'en' corpus holds the negative id -2147483648",
    "1 2 3\n4 \xff 6\n": "bad.ids:2: not UTF-8 text",
    # integer forms int() takes but save_ids never writes
    "1 2 3\n4 1_0 6\n": "bad.ids:2: non-integer token id",
    "1 2 3\n4 +2 6\n": "bad.ids:2: non-integer token id",
}


class TestFlatConstruction:
    @pytest.mark.parametrize("form", list(SENTENCE_FORMS))
    @pytest.mark.parametrize("seed, n", [(0, 0), (1, 1), (2, 5), (3, 200)])
    def test_sentences_match_reference_layout(self, form, seed, n):
        sentences = random_sentences(seed, n)
        corpus = EncodedCorpus(SENTENCE_FORMS[form](sentences), "en")
        assert_reference_layout(corpus, sentences)
        assert corpus.language_tag == "en" and len(corpus) == n

    @pytest.mark.parametrize("seed, n", [(0, 0), (4, 1), (5, 300)])
    def test_from_flat_matches_reference_layout_and_keeps_int32_ids(self, seed, n):
        sentences = random_sentences(seed, n)
        flat = np.array([int(v) for ids in sentences for v in ids], dtype=np.int32)
        lengths = np.array([len(ids) for ids in sentences], dtype=np.int64)
        corpus = EncodedCorpus.from_flat(flat, lengths, "en")
        assert_reference_layout(corpus, sentences)
        assert corpus.flat is flat
        # ids and lengths of any integer dtype give the same layout
        wide = EncodedCorpus.from_flat(flat.astype(np.uint64), lengths.astype(np.int32), "en")
        assert_reference_layout(wide, sentences)

    @pytest.mark.parametrize("lowercase", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_from_raw_matches_encode_of_each_line(self, lowercase, masked):
        rng = np.random.default_rng(8)
        words = ["Cat", "cat", "dog", "Sat", "ran", "the", "a", "here"]
        lines = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(300)]
        vocab = build_vocabulary(iter_tokens(lines[:200], lowercase), 2, "en")
        corpus_vocab = build_vocabulary(iter_tokens(lines[:50], lowercase), 3, "en") if masked else None
        corpus = EncodedCorpus.from_raw(iter(lines), vocab, lowercase, corpus_vocab)
        assert_reference_layout(corpus, [encode(ln, vocab, lowercase, corpus_vocab) for ln in lines])
        assert corpus.language_tag == "en"

    def test_from_raw_of_no_line_and_of_an_empty_line(self):
        vocab = build_vocabulary(["a"], 1, "en")
        assert_reference_layout(EncodedCorpus.from_raw([], vocab), [])
        with pytest.raises(DataError, match="'en' corpus sentence 1 holds no words"):
            EncodedCorpus.from_raw(["a a", " ", "a"], vocab)

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    @pytest.mark.parametrize("n", [0, 1, 7, 9])
    def test_ids_file_bytes_match_reference_writer(self, tmp_path, monkeypatch, block, n):
        monkeypatch.setattr(corpus_module, "IDS_WRITE_BLOCK", block)
        sentences = random_sentences(n + 11, n)
        path = tmp_path / "c.ids"
        EncodedCorpus(sentences, "en").save_ids(path)
        assert path.read_bytes() == reference_ids_text(sentences)
        assert_reference_layout(EncodedCorpus.load_ids(path, "en"), sentences)

    @pytest.mark.parametrize("text", list(MALFORMED_IDS))
    def test_malformed_ids_file_names_its_fault(self, tmp_path, text):
        path = tmp_path / "bad.ids"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError, match=MALFORMED_IDS[text]):
            EncodedCorpus.load_ids(path, "en")

    # int() reads both as digits; the file is UTF-8, which latin-1 cannot write
    @pytest.mark.parametrize("digit", ["\u0663", "\uff17"])  # Arabic-Indic three, fullwidth seven
    def test_non_ascii_digit_in_ids_file_refused(self, tmp_path, digit):
        path = tmp_path / "bad.ids"
        path.write_text(f"1 2 3\n4 {digit} 6\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad.ids:2: non-integer token id"):
            EncodedCorpus.load_ids(path, "en")

    @pytest.mark.parametrize("sentences, message", [
        ([np.array([1, 2**32 + 5])], "'en' corpus holds the id 4294967301, outside the int32 range"),
        ([[1, 2**31]], "'en' corpus holds the id 2147483648, outside the int32 range"),
        ([[1, 2], [3, 2**64]], "'en' corpus holds the id 18446744073709551616, outside the int32 range"),
        ([np.array([1, 2**40], dtype=np.uint64)], "'en' corpus holds the id 1099511627776, outside"),
        ([[1, -(2**40)]], "'en' corpus holds the negative id -1099511627776"),
        ([np.array([1.0, 2.0])], "'en' corpus sentence 0 holds the non-integer id 1.0"),
        ([[1, 2], [3, 0.5]], "'en' corpus sentence 1 holds the non-integer id 0.5"),
        ([[1, 2], [3, "a"]], "'en' corpus sentence 1 holds the non-integer id a"),
        ([np.zeros((2, 3), dtype=np.int32)], "'en' corpus sentence 0 is not a 1-D sequence of ids"),
        ([[1, 2], 7], "'en' corpus sentence 1 is not a 1-D sequence of ids"),
        ([[1, 2], "abc"], "'en' corpus sentence 1 is not a 1-D sequence of ids"),
        ([[4, [2, 3]]], "'en' corpus sentence 0 is not a 1-D sequence of ids"),
    ])
    def test_sentence_that_is_no_row_of_int32_ids_refused(self, sentences, message):
        with pytest.raises(DataError, match=message):
            EncodedCorpus(sentences, "en")

    def test_largest_int32_id_accepted(self):
        corpus = EncodedCorpus([np.array([2**31 - 1, 0], dtype=np.int64)], "en")
        assert corpus.flat.dtype == np.int32 and corpus.flat.tolist() == [2**31 - 1, 0]

    @pytest.mark.parametrize("flat, lengths, message", [
        (np.arange(4), [2, 3], "'en' corpus lengths add up to 5 ids, but it holds 4"),
        (np.arange(4.0), [2, 2], r"'en' corpus ids are not one 1-D integer array \(float64, shape \(4,\)\)"),
        (np.arange(4).reshape(2, 2), [2, 2], "'en' corpus ids are not one 1-D integer array"),
        (np.arange(4), [2.0, 2.0], "'en' corpus lengths are not one 1-D integer array"),
        (np.arange(4), [4, 0], "'en' corpus sentence 1 holds no words"),
        (np.array([1, 2**31]), [2], "'en' corpus holds the id 2147483648, outside the int32 range"),
    ])
    def test_from_flat_refuses_inconsistent_buffers(self, flat, lengths, message):
        with pytest.raises(DataError, match=message):
            EncodedCorpus.from_flat(flat, np.asarray(lengths), "en")


# each reader's well-formed first line, and a second line holding one byte
# that is not UTF-8
BAD_BYTE_FILES = {
    read_lines: b"the cat sat\nthe d\xf6g ran\n",
    Vocabulary.load: b"<unk>\t0\nd\xf6g\t3\n",
    EncodedCorpus.load_ids: b"1 2 3\n4 \xff 6\n",
    load_embeddings_text: b"1 2\n<unk>\xa0 0.0 0.0\n",
    read_labeled_documents: b"x\td1\tthe cat\ny\td2\tthe d\xc3g\n",
    parse_config_file: b"dim = 4\n# caf\xe9\n",
}


class TestTextReaders:
    @pytest.mark.parametrize("reader", list(BAD_BYTE_FILES), ids=lambda r: r.__qualname__)
    def test_bad_byte_names_its_line(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(BAD_BYTE_FILES[reader])
        # a config file's errors are usage errors, every other file's data errors
        error = ConfigError if reader is parse_config_file else DataError
        with pytest.raises(error, match="bad.txt:2: not UTF-8 text"):
            reader(path, *([{"dim"}] if reader is parse_config_file else []))

    def test_crlf_and_utf8_lines_read_as_text(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes("the cat\r\ndie Kätze\r\n\r\nend".encode("utf-8"))
        assert read_lines(path) == ["the cat", "die Kätze", "", "end"]
