import hashlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from helpers import with_mrnf_dim, write_mrnf
from mrnn.corpus import (END_INDEX, START_INDEX, UNK_INDEX, FeatureFileError,
                         ImageFeatureStore, SynthSpec, Vocabulary,
                         build_dataset, build_vocabulary,
                         generate_synthetic_corpus, load_captions,
                         load_features, load_split_map, load_vocab,
                         make_example, save_captions, save_features,
                         save_features_tsv, save_split_map, save_vocab,
                         tokenize)
from mrnn.numerics import Rng


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("A man, at a TREE.") == ["a", "man", ",", "at", "a", "tree", "."]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []


class TestVocabulary:
    def test_reserved_indices(self):
        v = build_vocabulary(["a b", "a c"])
        assert v.index_to_token[START_INDEX] == "##START##"
        assert v.index_to_token[END_INDEX] == "##END##"
        assert v.index_to_token[UNK_INDEX] == "##UNK##"

    def test_size_counts_reserved_plus_unique_tokens(self):
        # 3 reserved + {a, b, c}
        assert build_vocabulary(["a b", "a c"], min_count=1).size == 6

    def test_min_count_keeps_frequent(self):
        v = build_vocabulary(["a a a"], min_count=2)
        assert v.size == 4 and "a" in v

    def test_min_count_drops_rare(self):
        v = build_vocabulary(["a a b"], min_count=2)
        assert "a" in v and "b" not in v

    def test_empty_captions_error(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_bijection(self):
        v = build_vocabulary(["the tram hums", "the tram glows bright"])
        for i in range(v.size):
            assert v.token_to_index[v.index_to_token[i]] == i

    def test_encode_round_trip(self):
        v = build_vocabulary(["a man at a tree"])
        ids = v.encode("a man at a tree")
        assert v.decode(ids) == ["a", "man", "at", "a", "tree"]

    def test_encode_empty(self):
        v = build_vocabulary(["a"])
        assert v.encode("") == []

    def test_oov_maps_to_unk(self):
        v = build_vocabulary(["a man"])
        ids = v.encode("a zebra")
        assert ids[0] != UNK_INDEX and ids[1] == UNK_INDEX
        assert v.decode(ids) == ["a", "##UNK##"]

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["x", "x"])

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocabulary(["waves roll", "waves crash"])
        save_vocab(v, tmp_path / "vocab.txt")
        again = load_vocab(tmp_path / "vocab.txt")
        assert again.index_to_token == v.index_to_token

    def test_load_rejects_missing_reserved(self, tmp_path):
        (tmp_path / "bad.txt").write_text("foo\nbar\n")
        with pytest.raises(ValueError, match="reserved"):
            load_vocab(tmp_path / "bad.txt")


def small_store():
    return ImageFeatureStore([f"im{i}" for i in range(5)],
                             Rng(3).uniform(-1, 1, 20).reshape(5, 4).astype(np.float32))


class TestFeatureStore:
    def test_dim_check(self):
        with pytest.raises(ValueError, match="dim"):
            ImageFeatureStore(["x"], np.zeros(3))

    def test_missing_id(self):
        with pytest.raises(KeyError, match="imX"):
            small_store().get("imX")
        with pytest.raises(KeyError, match="imX"):
            small_store().matrix(["im0", "imX"])

    def test_rows_in_id_order_whatever_the_input_order(self):
        store = ImageFeatureStore(["c", "a", "b"], [[3.0, 30.0], [1.0, 10.0], [2.0, 20.0]])
        assert store.ids() == ["a", "b", "c"]
        assert_array_equal(store.matrix(), [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert_array_equal(store.get("c"), [3.0, 30.0])
        assert store.feature_dim == 2 and len(store) == 3

    def test_matrix_follows_requested_order(self):
        store = small_store()
        ids = ["im3", "im0", "im3", "im1"]
        assert_array_equal(store.matrix(ids), [store.get(i) for i in ids])
        assert store.matrix([]).shape == (0, 4)

    @pytest.mark.parametrize("ids, rows, match", [
        (["b", "a", "b", "a"], np.zeros((4, 2)), "duplicate image id 'a'"),
        (["a", "b"], [[0.0, 0.0], [0.0, np.nan]], "'b' has NaN or infinite"),
        (["a", "b"], [[0.0, 0.0], [np.inf, 0.0]], "'b' has NaN or infinite"),
        (["a", "b"], [[0.0, 0.0], [-np.inf, 0.0]], "'b' has NaN or infinite"),
        (["a", "b"], [1.0, 2.0], "2-D"),
        (["a"], np.zeros((1, 0)), "2-D"),
        (["a", "b"], [[1.0, 2.0], [3.0]], "sequence"),  # numpy's message
        (["a", "b", "c"], np.zeros((2, 2)), "3 image ids for 2 feature rows"),
        (["a"], np.zeros((2, 2)), "1 image ids for 2 feature rows"),
    ])
    def test_constructor_rejects(self, ids, rows, match):
        with pytest.raises(ValueError, match=match):
            ImageFeatureStore(ids, rows)

    def test_empty_store_is_legal(self):
        store = ImageFeatureStore([], np.zeros((0, 3)))
        assert len(store) == 0 and store.feature_dim == 3 and store.ids() == []

    def test_rows_are_read_only_and_owned(self):
        rows = np.ones((2, 3))
        store = ImageFeatureStore(["a", "b"], rows)
        row = store.get("a")
        assert not row.flags.writeable and not store.matrix().flags.writeable
        with pytest.raises(ValueError):
            row[0] = 5.0
        rows[0, 0] = 5.0  # the caller's array stays writeable and is not shared
        assert_array_equal(store.get("a"), [1.0, 1.0, 1.0])

    def test_binary_repeated_id(self, tmp_path):
        write_mrnf(tmp_path / "f.mrnf", [("a", [1, 2]), ("b", [3, 4]), ("a", [5, 6])], 2)
        with pytest.raises(FeatureFileError, match="duplicate image id 'a'"):
            load_features(tmp_path / "f.mrnf")

    def test_binary_non_finite_value(self, tmp_path):
        write_mrnf(tmp_path / "f.mrnf", [("a", [1, 2]), ("b", [np.nan, 4])], 2)
        with pytest.raises(FeatureFileError, match="'b' has NaN"):
            load_features(tmp_path / "f.mrnf")

    def test_binary_empty_file_is_an_empty_store(self, tmp_path):
        write_mrnf(tmp_path / "f.mrnf", [], 3)
        store = load_features(tmp_path / "f.mrnf")
        assert len(store) == 0 and store.feature_dim == 3

    def test_binary_trailing_bytes(self, tmp_path):
        write_mrnf(tmp_path / "f.mrnf", [("a", [1, 2])], 2)
        with open(tmp_path / "f.mrnf", "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FeatureFileError, match="trailing"):
            load_features(tmp_path / "f.mrnf")

    def test_binary_round_trip_bit_exact(self, tmp_path):
        store = small_store()
        path = tmp_path / "f.mrnf"
        save_features(store, path)
        loaded = load_features(path)
        assert loaded.feature_dim == store.feature_dim
        assert len(loaded) == len(store)
        for image_id in store.ids():
            assert_array_equal(loaded.get(image_id), store.get(image_id))
        # and file-level: save(load(f)) == f byte for byte
        save_features(loaded, tmp_path / "g.mrnf")
        assert (tmp_path / "f.mrnf").read_bytes() == (tmp_path / "g.mrnf").read_bytes()

    def test_tsv_round_trip(self, tmp_path):
        store = small_store()
        save_features_tsv(store, tmp_path / "f.tsv")
        loaded = load_features(tmp_path / "f.tsv")
        for image_id in store.ids():
            assert_array_equal(loaded.get(image_id), store.get(image_id))
        save_features_tsv(loaded, tmp_path / "g.tsv")
        assert (tmp_path / "f.tsv").read_bytes() == (tmp_path / "g.tsv").read_bytes()

    def test_tsv_non_finite_value(self, tmp_path):
        (tmp_path / "f.tsv").write_text("a\t1.0\t2.0\nb\tinf\t4.0\n")
        with pytest.raises(FeatureFileError, match="'b' has NaN or infinite"):
            load_features(tmp_path / "f.tsv")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"\x00\x01\x02\x03garbage\xff\xfe")
        with pytest.raises(FeatureFileError, match="magic"):
            load_features(tmp_path / "junk")

    def test_truncated(self, tmp_path):
        store = small_store()
        path = tmp_path / "f.mrnf"
        save_features(store, path)
        blob = path.read_bytes()
        (tmp_path / "cut.mrnf").write_bytes(blob[:-7])
        with pytest.raises(FeatureFileError, match="truncated"):
            load_features(tmp_path / "cut.mrnf")

    def test_oversized_dimension_is_named_error(self, tmp_path):
        # 5 declared vectors of 2**32 - 16 floats: refused before any allocation
        save_features(small_store(), tmp_path / "f.mrnf")
        (tmp_path / "big.mrnf").write_bytes(
            with_mrnf_dim((tmp_path / "f.mrnf").read_bytes(), 0xFFFFFFF0))
        with pytest.raises(FeatureFileError,
                           match=r"big\.mrnf: truncated: 5 vectors of dimension 4294967280"):
            load_features(tmp_path / "big.mrnf")

    def test_tsv_dimension_mismatch(self, tmp_path):
        (tmp_path / "f.tsv").write_text("a\t1.0\t2.0\nb\t1.0\n")
        with pytest.raises(FeatureFileError, match="dimension"):
            load_features(tmp_path / "f.tsv")

    def test_tsv_duplicate_id(self, tmp_path):
        # the binary reader rejects repeats too; a later row must not replace an earlier one
        (tmp_path / "f.tsv").write_text("a\t1.0\t2.0\nb\t3.0\t4.0\na\t5.0\t6.0\n")
        with pytest.raises(FeatureFileError, match=r"f.tsv:3: duplicate image id 'a'"):
            load_features(tmp_path / "f.tsv")


class TestCaptionAndSplitFiles:
    def test_caption_round_trip(self, tmp_path):
        pairs = [("im0", "a man at a tree"), ("im1", "waves on sand")]
        save_captions(pairs, tmp_path / "c.tsv")
        assert load_captions(tmp_path / "c.tsv") == pairs

    def test_caption_missing_tab(self, tmp_path):
        (tmp_path / "c.tsv").write_text("no tab here\n")
        with pytest.raises(ValueError, match="TAB"):
            load_captions(tmp_path / "c.tsv")

    def test_split_round_trip(self, tmp_path):
        split = {"im0": "train", "im1": "val", "im2": "test"}
        save_split_map(split, tmp_path / "s.tsv")
        assert load_split_map(tmp_path / "s.tsv") == split

    def test_split_conflicting_labels(self, tmp_path):
        (tmp_path / "s.tsv").write_text("im0\ttrain\nim0\ttest\n")
        with pytest.raises(ValueError, match="two splits"):
            load_split_map(tmp_path / "s.tsv")

    def test_split_unknown_label(self, tmp_path):
        (tmp_path / "s.tsv").write_text("im0\tdev\n")
        with pytest.raises(ValueError):
            load_split_map(tmp_path / "s.tsv")

    @pytest.mark.parametrize("load, blob, reason", [
        (load_captions, b"im0\ta man\nim1\ta caf\xe9 by the sea\n", "invalid continuation byte"),
        (load_split_map, b"im0\ttrain\nim\xff1\ttest\n", "invalid start byte"),
        (load_vocab, b"##START##\n##END##\n##UNK##\ncaf\xe9\n", "invalid continuation byte"),
    ], ids=["captions", "split", "vocab"])
    def test_non_utf8_file_is_a_value_error_that_names_it(self, tmp_path, load, blob, reason):
        path = tmp_path / "latin1.txt"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as exc_info:
            load(path)
        assert not isinstance(exc_info.value, UnicodeError)
        assert str(exc_info.value) == f"{path}: not UTF-8 text ({reason})"

    def test_build_dataset_partitions(self):
        vocab = build_vocabulary(["a b", "c d"])
        pairs = [("i0", "a b"), ("i1", "c d"), ("i0", "a b b")]
        split = {"i0": "train", "i1": "test"}
        ds = build_dataset(pairs, split, vocab)
        assert len(ds.train) == 2 and len(ds.test) == 1 and not ds.validation
        train_ids = {ex.image_id for ex in ds.train}
        test_ids = {ex.image_id for ex in ds.test}
        assert not train_ids & test_ids

    def test_build_dataset_missing_id(self):
        vocab = build_vocabulary(["a"])
        with pytest.raises(ValueError, match="missing from split"):
            build_dataset([("ghost", "a")], {}, vocab)

    def test_make_example_empty_tokens(self):
        vocab = build_vocabulary(["a"])
        with pytest.raises(ValueError, match="nothing"):
            make_example(vocab, "i0", "   ")


class TestSyntheticCorpus:
    def test_same_seed_identical(self):
        a_split, a_store, a_vocab = generate_synthetic_corpus(Rng(5), 12)
        b_split, b_store, b_vocab = generate_synthetic_corpus(Rng(5), 12)
        assert [ex.raw_text for ex in a_split.train] == [ex.raw_text for ex in b_split.train]
        assert a_vocab.index_to_token == b_vocab.index_to_token
        for image_id in a_store.ids():
            assert_array_equal(a_store.get(image_id), b_store.get(image_id))

    def test_corpus_is_pinned(self):
        # the sha256 of a corpus drawn with one randint per caption word, in
        # the order noun, noun2, template, adj, verb: the stream may not move
        split, store, _ = generate_synthetic_corpus(Rng(5), 30,
                                                    SynthSpec(n_topics=7, captions_per_image=3))
        h = hashlib.sha256()
        for part in (split.train, split.validation, split.test):
            h.update("".join(f"{ex.image_id}\t{ex.raw_text}\n" for ex in part).encode() + b"\n")
        h.update(store.matrix(store.ids()).tobytes())
        assert h.hexdigest() == "90e3b588f65dfd6a76c8a9ba5e8a2eaec84b8b788febca6d0012f7b39587f159"

    def test_minimum_images(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(Rng(0), 1)

    @pytest.mark.parametrize("field, value", [
        ("n_topics", 0), ("n_topics", -2), ("captions_per_image", 0), ("noise_dim", -1),
        ("train_frac", 1.5), ("train_frac", -0.1), ("val_frac", -0.1),
        ("val_frac", float("nan")),
    ])
    def test_spec_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthSpec(**{field: value})

    def test_spec_fractions_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="sum to at most 1"):
            SynthSpec(train_frac=0.8, val_frac=0.3)

    @pytest.mark.parametrize("train_frac, val_frac", [
        (0.7, 0.3), (0.1, 0.2), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0),
        (0.7 + 2e-16, 0.3),  # sums to 1.0000000000000002: float rounding, not a bad spec
    ])
    def test_spec_accepts_fractions_in_range(self, train_frac, val_frac):
        spec = SynthSpec(train_frac=train_frac, val_frac=val_frac)
        split, _, _ = generate_synthetic_corpus(Rng(4), 10, spec)
        assert len(split.train) >= 1

    def test_two_images_distinct_features(self):
        _, store, _ = generate_synthetic_corpus(Rng(1), 2, SynthSpec(n_topics=2))
        a, b = (store.get(i) for i in store.ids())
        assert not np.array_equal(a, b)

    def test_no_image_crosses_splits(self):
        split, _, _ = generate_synthetic_corpus(Rng(2), 30)
        ids = [{ex.image_id for ex in bucket}
               for bucket in (split.train, split.validation, split.test)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_captions_depend_on_topic_feature(self):
        # count-based oracle: topic nouns appear far more often in captions of
        # images whose feature one-hot block matches that topic
        spec = SynthSpec(n_topics=4, captions_per_image=2, train_frac=1.0, val_frac=0.0)
        split, store, vocab = generate_synthetic_corpus(Rng(7), 60, spec)
        from mrnn.corpus import _topic_bank
        matching, other = 0, 0
        for ex in split.train:
            feat = store.get(ex.image_id)
            topic = int(np.argmax(feat[:4]))
            words = set(tokenize(ex.raw_text))
            for k in range(4):
                bank_words = set(_topic_bank(k)[1])
                hits = len(words & bank_words)
                if k == topic:
                    matching += hits
                else:
                    other += hits
        assert matching > 10 * max(other, 1)

    def test_examples_wrap_with_start_end(self):
        # framing invariant: inputs begin with START, targets end with END
        from mrnn.model import ModelConfig, ModelParams, frame
        split, _, vocab = generate_synthetic_corpus(Rng(3), 6)
        params = ModelParams.initialize(ModelConfig(vocab_size=vocab.size, d_i=2, d_e1=2,
                                                    d_e2=2, d_r=2, d_m=2), Rng(0))
        for ex in split.train:
            _, inputs, targets = frame(params, [ex.tokens])
            assert_array_equal(inputs, [START_INDEX, *ex.tokens])
            assert_array_equal(targets, [*ex.tokens, END_INDEX])
