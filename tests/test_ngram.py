"""Kneser-Ney training, trie queries, rank-r fallback enumeration, cache."""

import math

import numpy as np
import pytest

from fntfuse.core import NEG_INF, Vocabulary
from fntfuse.arpa import load_arpa
from fntfuse.ngram import NgramModel, train_kneser_ney

from helpers import random_corpus, random_history
from oracles import OracleKn


def tiny_model(lines, order, tokens, eos=True):
    vocab = Vocabulary(tokens)
    sentences = [vocab.ids_of(line.split()) for line in lines]
    model = train_kneser_ney(sentences, order, vocab=vocab, eos=eos)
    return vocab, sentences, model


def all_symbol_mass(model, history):
    return sum(
        math.exp(model.logprob(w, history))
        for w in range(len(model.vocab) + 2)
    )


class TestTrainKneserNey:
    def test_frequency_ordering_forced(self):
        vocab, _, model = tiny_model(["a b", "a b", "a c"], 2, ["a", "b", "c"])
        a, b, c = vocab.ids_of(["a", "b", "c"])
        assert model.logprob(b, (a,)) > model.logprob(c, (a,))

    def test_normalization_root_and_seen_context(self):
        vocab, _, model = tiny_model(["a b", "a b", "a c"], 2, ["a", "b", "c"])
        assert all_symbol_mass(model, ()) == pytest.approx(1.0, abs=1e-6)
        assert all_symbol_mass(model, (vocab.id_of("a"),)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_matches_count_table_oracle_on_three_sentences(self):
        vocab, sentences, model = tiny_model(
            ["a b c", "a b d", "e b c"], 3, ["a", "b", "c", "d", "e"]
        )
        oracle = OracleKn(sentences, 3, model.bos_id, model.eos_id)
        a, b = vocab.ids_of(["a", "b"])
        histories = [(), (a,), (b,), (a, b), (b, a), (model.bos_id,), (a, a)]
        for h in histories:
            for w in range(len(vocab) + 2):
                got = model.logprob(w, h)
                want = oracle.logprob(w, h)
                if want == NEG_INF:
                    assert got == NEG_INF
                else:
                    np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            vocab, sentences = random_corpus(rng)
            order = int(rng.integers(2, 5))
            model = train_kneser_ney(sentences, order, vocab=vocab)
            oracle = OracleKn(sentences, order, model.bos_id, model.eos_id)
            for _ in range(40):
                h = random_history(rng, len(vocab), model.bos_id)
                w = int(rng.integers(0, len(vocab) + 2))
                got = model.logprob(w, h)
                want = oracle.logprob(w, h)
                if want == NEG_INF:
                    assert got == NEG_INF
                else:
                    np.testing.assert_allclose(
                        math.exp(got), math.exp(want), atol=1e-9
                    )

    def test_start_symbol_never_predicted(self):
        vocab, _, model = tiny_model(["a b"], 2, ["a", "b"])
        assert model.logprob(model.bos_id, ()) == NEG_INF
        assert model.logprob(model.bos_id, (vocab.id_of("a"),)) == NEG_INF

    def test_empty_corpus_faults(self):
        with pytest.raises(ValueError):
            train_kneser_ney([], 2, vocab=Vocabulary(["a"]))

    def test_no_eos_mode_normalizes_over_plain_tokens(self):
        vocab, _, model = tiny_model(["a b", "b a"], 2, ["a", "b"], eos=False)
        assert model.logprob(model.eos_id, ()) == NEG_INF
        assert all_symbol_mass(model, ()) == pytest.approx(1.0, abs=1e-6)
        assert all_symbol_mass(model, (vocab.id_of("a"),)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_normalization_at_random_contexts(self):
        rng = np.random.default_rng(3)
        vocab, sentences = random_corpus(rng, n_types=8, n_sentences=15)
        model = train_kneser_ney(sentences, 3, vocab=vocab)
        for _ in range(30):
            h = random_history(rng, len(vocab), model.bos_id)
            assert all_symbol_mass(model, h) == pytest.approx(1.0, abs=1e-6)


class TestTrieLayout:
    def test_nodes_sorted_descending_with_id_ties(self):
        rng = np.random.default_rng(11)
        vocab, sentences = random_corpus(rng, n_types=9, n_sentences=18)
        model = train_kneser_ney(sentences, 3, vocab=vocab)
        for k in range(1, model.order + 1):
            probs = model._probs[k]
            words = model._words[k]
            starts = {0, probs.size}
            if k > 1:
                starts.update(int(x) for x in model._child_lo[k - 1])
                starts.update(int(x) for x in model._child_hi[k - 1])
            bounds = sorted(b for b in starts if 0 <= b <= probs.size)
            for lo, hi in zip(bounds, bounds[1:]):
                for i in range(lo + 1, hi):
                    assert probs[i] <= probs[i - 1]
                    if probs[i] == probs[i - 1]:
                        assert words[i] > words[i - 1]


class TestLogprob:
    def test_stored_bigram_exact_hit(self):
        vocab, _, model = tiny_model(["a b", "a b", "a c"], 2, ["a", "b", "c"])
        a, b = vocab.ids_of(["a", "b"])
        stored = {g: p for g, p, _ in model.iter_ngrams(2)}
        assert model.logprob(b, (a,)) == stored[(a, b)]

    def test_unseen_context_backs_off_to_unigram(self):
        vocab, _, model = tiny_model(["a b", "a b", "a c"], 2, ["a", "b", "c"])
        c = vocab.id_of("c")
        # (eos) exists as a unigram but has no continuations: backoff
        # weight 1 means the conditional equals the unigram exactly
        assert model.logprob(c, (model.eos_id,)) == model.logprob(c, ())

    def test_backoff_weight_is_context_constant(self):
        vocab, _, model = tiny_model(
            ["a b c", "a b d", "e b c"], 3, ["a", "b", "c", "d", "e"]
        )
        a, e = vocab.ids_of(["a", "e"])
        # neither e nor eos follows "a": both back off through bow(a)
        gap1 = model.logprob(e, (a,)) - model.logprob(e, ())
        gap2 = model.logprob(model.eos_id, (a,)) - model.logprob(model.eos_id, ())
        np.testing.assert_allclose(gap1, gap2, atol=1e-12)

    def test_history_truncated_to_order(self):
        vocab, _, model = tiny_model(["a b", "a b", "a c"], 2, ["a", "b", "c"])
        a, b = vocab.ids_of(["a", "b"])
        assert model.logprob(b, (b, b, b, a)) == model.logprob(b, (a,))

    def test_out_of_range_word_faults(self):
        _, _, model = tiny_model(["a b"], 2, ["a", "b"])
        with pytest.raises(ValueError):
            model.logprob(9, ())
        with pytest.raises(ValueError):
            model.logprob(-1, ())


class TestTopR:
    def test_exhaustive_equals_brute_force_set(self):
        rng = np.random.default_rng(5)
        vocab, sentences = random_corpus(rng, n_types=10, n_sentences=16)
        model = train_kneser_ney(sentences, 3, vocab=vocab)
        n_sym = len(vocab) + 2
        for _ in range(25):
            h = random_history(rng, len(vocab), model.bos_id)
            res = model.top_r(h, n_sym)
            brute = {
                w: model.logprob(w, h)
                for w in range(n_sym)
                if model.logprob(w, h) > NEG_INF
            }
            assert dict(res.pairs()) == brute

    def test_every_entry_equals_logprob_exactly(self):
        rng = np.random.default_rng(6)
        vocab, sentences = random_corpus(rng, n_types=11, n_sentences=18)
        model = train_kneser_ney(sentences, 4, vocab=vocab)
        for _ in range(25):
            h = random_history(rng, len(vocab), model.bos_id)
            res = model.top_r(h, int(rng.integers(1, 14)))
            for w, p in res.pairs():
                assert p == model.logprob(w, h)

    def test_matched_node_prefix_when_wide_enough(self):
        vocab, _, model = tiny_model(
            ["a b", "a b", "a c", "a d", "a e"], 2, ["a", "b", "c", "d", "e"]
        )
        a = vocab.id_of("a")
        res = model.top_r((a,), 2)
        assert list(res.origins) == [1, 1]
        assert res.word_ids[0] == vocab.id_of("b")  # most frequent continuation
        full = model.top_r((a,), 4)
        assert res.pairs() == full.pairs()[:2]

    def test_backoff_fills_after_explicit_arcs(self):
        vocab, _, model = tiny_model(["a b", "a c"], 2, ["a", "b", "c"])
        a, b, c = vocab.ids_of(["a", "b", "c"])
        res = model.top_r((a,), 4)
        assert len(res) == 4
        assert set(res.word_ids[:2]) == {b, c}
        assert list(res.origins) == [1, 1, 0, 0]
        for w, p in res.pairs():
            assert p == model.logprob(w, (a,))

    def test_shrinking_r_is_a_prefix(self):
        rng = np.random.default_rng(7)
        vocab, sentences = random_corpus(rng, n_types=9, n_sentences=14)
        model = train_kneser_ney(sentences, 3, vocab=vocab)
        for _ in range(10):
            h = random_history(rng, len(vocab), model.bos_id)
            big = model.top_r(h, 8)
            small = model.top_r(h, 3)
            assert small.pairs() == big.pairs()[: len(small)]

    def test_invalid_r_faults(self):
        _, _, model = tiny_model(["a b"], 2, ["a", "b"])
        with pytest.raises(ValueError):
            model.top_r((), 0)


def scattered_top_r(model, chain):
    """The dense row built the old way: the exhaustive rank query
    scattered into an all -inf row."""
    res = model.top_r_chain(chain, len(model.vocab) + 2)
    row = np.full(len(model.vocab) + 2, NEG_INF)
    row[res.word_ids] = res.logprobs
    return row


class TestDenseRow:
    @pytest.mark.parametrize("eos", [True, False])
    def test_equals_scattered_rank_query_on_random_histories(self, eos):
        rng = np.random.default_rng(11)
        for _ in range(8):
            vocab, sentences = random_corpus(rng)
            model = train_kneser_ney(
                sentences, int(rng.integers(1, 5)), vocab=vocab, eos=eos
            )
            for _ in range(30):
                chain = model.suffix_chain(
                    random_history(rng, len(vocab), model.bos_id)
                )
                assert np.array_equal(
                    model.dense_row(chain), scattered_top_r(model, chain)
                )

    def test_zero_probability_arc_falls_through_to_shorter_context(self, tmp_path):
        vocab = Vocabulary(["a", "b", "c"])
        path = tmp_path / "zero.arpa"
        path.write_text(
            "\\data\\\n"
            "ngram 1=5\nngram 2=4\nngram 3=1\n"
            "\n\\1-grams:\n"
            "-0.5\ta\t-0.25\n"
            "-0.75\tb\t-0.1\n"
            "-1\tc\n"
            "-0.9\t</s>\n"
            "-99\t<s>\t-0.3\n"
            "\n\\2-grams:\n"
            "-0.2\ta b\t-0.05\n"
            "-99\ta c\n"
            "-0.4\t<s> a\t-0.15\n"
            "-99\tb a\n"
            "\n\\3-grams:\n"
            "-99\t<s> a b\n"
            "\n\\end\\\n",
            encoding="utf-8",
        )
        model = load_arpa(path, vocab)
        a, c = vocab.ids_of(["a", "c"])
        symbols = range(len(vocab) + 2)
        histories = [()] + [(x,) for x in symbols] + [
            (x, y) for x in symbols for y in symbols
        ]
        for h in histories:
            chain = model.suffix_chain(h)
            row = model.dense_row(chain)
            assert np.array_equal(row, scattered_top_r(model, chain))
            for w in symbols:
                assert model.logprob(w, h) == row[w]
        # the -inf arc for c after a is skipped: bow(a) times P(c) shows through
        ln10 = math.log(10.0)
        assert model.dense_row(model.suffix_chain((a,)))[c] == (-0.25 * ln10) + (-1.0 * ln10)
