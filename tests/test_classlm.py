"""Prefix trees, tagged n-gram training, transition enumeration, state
advancement, and path-mass equivalence against the automaton oracle."""

import math
import re

import numpy as np
import pytest

from fntfuse.classlm import (
    CAT1,
    CAT2,
    CAT3,
    ClmState,
    Transitions,
    advance,
    build_prefix_tree,
    encoder_rank_pass,
    enumerate_transitions,
    load_class_model,
    parse_class_file,
    save_class_model,
    train_tagged_clm,
    write_class_file,
)
from fntfuse.core import NEG_INF, Vocabulary

from helpers import PIECES, child_table, toy_class_model, tree_nodes
from oracles import clm_prefix_masses, prefix_weight_ratios


class TestBuildPrefixTree:
    def test_uniform_split_no_exit(self):
        root = build_prefix_tree([((1, 2), 1.0), ((1, 3), 1.0)])
        assert math.exp(child_table(root)[1]) == pytest.approx(1.0)
        assert root.exit_logprob == NEG_INF
        node = root.children[1]
        assert math.exp(child_table(node)[2]) == pytest.approx(0.5)
        assert math.exp(child_table(node)[3]) == pytest.approx(0.5)
        assert node.exit_logprob == NEG_INF

    def test_half_mass_exits(self):
        node = build_prefix_tree([((5, 6), 1.0), ((5,), 1.0)]).children[5]
        assert math.exp(child_table(node)[6]) == pytest.approx(0.5)
        assert math.exp(node.exit_logprob) == pytest.approx(0.5)

    def test_weighted_entries_match_counting_oracle(self):
        entries = [
            ((1, 2, 3), 2.0),
            ((1, 2), 1.0),
            ((1, 4), 3.0),
            ((5,), 1.5),
            ((1, 2, 6), 0.5),
        ]
        root = build_prefix_tree(entries)
        want = prefix_weight_ratios(entries)

        def walk(node, prefix):
            children, exit_p = want[prefix]
            got_exit = math.exp(node.exit_logprob) if node.exit_logprob > NEG_INF else 0.0
            assert got_exit == pytest.approx(exit_p, abs=1e-12)
            assert set(node.children) == set(children)
            for w, child in node.children.items():
                assert math.exp(child_table(node)[w]) == pytest.approx(
                    children[w], abs=1e-12
                )
                walk(child, prefix + (w,))

        walk(root, ())

    def test_every_node_normalizes(self):
        rng = np.random.default_rng(21)
        seqs = set()
        while len(seqs) < 60:
            seqs.add(tuple(rng.integers(0, 9, size=rng.integers(1, 4)).tolist()))
        entries = [(s, float(rng.uniform(0.5, 3.0))) for s in seqs]
        for node in tree_nodes(build_prefix_tree(entries)):
            mass = sum(math.exp(p) for p in node.child_logprobs.tolist())
            if node.exit_logprob > NEG_INF:
                mass += math.exp(node.exit_logprob)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_duplicates_sum_weights(self):
        t1 = build_prefix_tree([((1, 2), 1.0), ((1, 2), 1.0), ((1,), 2.0)])
        t2 = build_prefix_tree([((1, 2), 2.0), ((1,), 2.0)])
        n1, n2 = t1.children[1], t2.children[1]
        assert child_table(n1)[2] == child_table(n2)[2]
        assert n1.exit_logprob == n2.exit_logprob

    def test_bad_entries_fault(self):
        with pytest.raises(ValueError):
            build_prefix_tree([])
        with pytest.raises(ValueError):
            build_prefix_tree([((), 1.0)])
        with pytest.raises(ValueError):
            build_prefix_tree([((1,), 0.0)])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_faults(self, weight):
        with pytest.raises(ValueError, match="finite and positive"):
            build_prefix_tree([((1,), 1.0), ((2,), weight)])

    def test_weight_sum_overflow_faults(self):
        # each weight is finite; their sum at the root is not
        with pytest.raises(ValueError, match="float64 range"):
            build_prefix_tree([((1,), 1e308), ((2,), 1e308)])

    def test_root_never_exits(self):
        root = build_prefix_tree([((1,), 1.0), ((2, 3), 4.0)])
        assert root.exit_logprob == NEG_INF


class TestTrainTaggedClm:
    def test_single_continuation_dominates(self):
        vocab, model = toy_class_model()
        name = model.vocab.id_of("⟨NAME⟩")
        call = vocab.id_of("▁call")
        p_name = model.ngram.logprob(name, (call,))
        for w in range(len(model.vocab) + 2):
            if w != name:
                assert model.ngram.logprob(w, (call,)) < p_name

    def test_vocabulary_layout(self):
        vocab, model = toy_class_model()
        assert len(model.vocab) == len(vocab) + 2
        assert model.n_words == len(vocab)
        assert model.vocab.token_of(model.n_words) in ("⟨NAME⟩", "⟨TYPE⟩")

    def test_words_plus_tags_normalize_with_no_end_event(self):
        _, model = toy_class_model()
        total = sum(
            math.exp(model.ngram.logprob(w, ()))
            for w in range(len(model.vocab) + 2)
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        assert model.ngram.logprob(model.ngram.eos_id, ()) == NEG_INF

    def test_missing_class_definition_faults(self):
        vocab = Vocabulary(PIECES)
        with pytest.raises(ValueError, match="⟨WHO⟩"):
            train_tagged_clm(
                [["▁call", "⟨WHO⟩"]],
                {"⟨NAME⟩": [(("▁john",), 1.0)]},
                2,
                vocab,
            )

    def test_nested_tag_faults(self):
        vocab = Vocabulary(PIECES)
        with pytest.raises(ValueError, match="nested"):
            train_tagged_clm(
                [["▁call"]],
                {"⟨NAME⟩": [(("⟨TYPE⟩",), 1.0)]},
                2,
                vocab,
            )

    def test_large_class_inventory_builds(self):
        rng = np.random.default_rng(33)
        pieces = [f"p{i}" for i in range(40)]
        vocab = Vocabulary(pieces)
        sizes = [1212, 121, 8, 8, 7, 4]
        tags = ["⟨A⟩", "⟨B⟩", "⟨C⟩", "⟨D⟩", "⟨E⟩", "⟨F⟩"]
        entries = {}
        for tag, size in zip(tags, sizes):
            seqs = set()
            while len(seqs) < size:
                seqs.add(
                    tuple(
                        pieces[i]
                        for i in rng.integers(0, 40, size=rng.integers(1, 4))
                    )
                )
            entries[tag] = [(s, 1.0) for s in sorted(seqs)]
        corpus = []
        for _ in range(35):
            sent = [pieces[i] for i in rng.integers(0, 40, size=3)]
            sent.insert(int(rng.integers(0, 3)), str(rng.choice(tags)))
            corpus.append(sent)
        model = train_tagged_clm(corpus, entries, 3, vocab)
        for tag_id in model.tag_ids:
            for node in tree_nodes(model.trees[tag_id]):
                mass = sum(math.exp(p) for p in node.child_logprobs.tolist())
                if node.exit_logprob > NEG_INF:
                    mass += math.exp(node.exit_logprob)
                assert mass == pytest.approx(1.0, abs=1e-9)
        trans = enumerate_transitions(model, model.initial_state())
        total = sum(math.exp(lp) for lp in trans.logprob.tolist())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestEncoderRankPass:
    def test_ties_break_by_ascending_id(self):
        scores = np.array([0.5, 0.5, 0.1])
        assert list(encoder_rank_pass(scores, 1)) == [True, False, False]
        assert list(encoder_rank_pass(scores, 2)) == [True, True, False]
        assert list(encoder_rank_pass(scores, 3)) == [True, True, True]


def indices(trans, category, word=None, tag=None):
    """Bundle indices of one category, optionally one word and one tag."""
    mask = trans.category == category
    if word is not None:
        mask &= trans.word == word
    if tag is not None:
        mask &= trans.tag == tag
    return np.flatnonzero(mask).tolist()


class TestEnumerateTransitions:
    def state_inside_type(self, model, vocab):
        h = (
            model.ngram.bos_id,
            vocab.id_of("▁call"),
            model.vocab.id_of("⟨NAME⟩"),
            vocab.id_of("▁on"),
        )
        node = model.trees[model.vocab.id_of("⟨TYPE⟩")].children[
            vocab.id_of("▁his")
        ]
        return ClmState(model.truncate(h), model.vocab.id_of("⟨TYPE⟩"), node)

    def test_in_class_state_continues_and_exits(self):
        vocab, model = toy_class_model(order=5)
        state = self.state_inside_type(model, vocab)
        trans = enumerate_transitions(model, state)
        words3 = {int(trans.word[i]): trans.logprob[i] for i in indices(trans, CAT3)}
        mobile = vocab.id_of("▁mobile")
        assert mobile in words3 and vocab.id_of("▁home") in words3
        assert words3[mobile] == child_table(state.node)[mobile]
        # "▁his" alone is a complete entry, so exit mass is positive
        # and CAT1 covers the whole word space
        assert len(indices(trans, CAT1)) == model.n_words

    def test_no_class_state_is_plain_ngram(self):
        vocab, model = toy_class_model()
        state = model.initial_state()
        trans = enumerate_transitions(model, state)
        assert indices(trans, CAT3) == []
        s1 = indices(trans, CAT1)
        assert len(s1) == model.n_words
        for i in s1:
            assert trans.logprob[i] == model.ngram.logprob(int(trans.word[i]), state.history)
            assert trans.successor(state, i).class_tag is None

    def test_transition_mass_conserved_at_random_states(self):
        _, model = toy_class_model(order=2)
        rng = np.random.default_rng(4)
        state = model.initial_state()
        for _ in range(120):
            trans = enumerate_transitions(model, state)
            candidates = [i for i in range(len(trans)) if trans.logprob[i] > NEG_INF]
            total = sum(math.exp(trans.logprob[i]) for i in candidates)
            assert total == pytest.approx(1.0, abs=1e-9)
            probs = np.array([math.exp(trans.logprob[i]) for i in candidates])
            pick = candidates[rng.choice(len(candidates), p=probs / probs.sum())]
            state = trans.successor(state, pick)

    def test_words_never_tag_ids(self):
        _, model = toy_class_model()
        state = model.initial_state()
        trans = enumerate_transitions(model, state)
        for w in trans.word.tolist():
            assert 0 <= w < model.n_words

    def test_gating_monotone(self):
        vocab, model = toy_class_model(order=5)
        state = self.state_inside_type(model, vocab)
        rng = np.random.default_rng(17)
        scores = rng.normal(size=model.n_words)
        seen = set()
        prev: set = set()
        trans = enumerate_transitions(model, state)
        for rprime in (1, 2, 4, len(PIECES)):
            view = trans.gated(encoder_rank_pass(scores, rprime))
            s23 = range(view.cat2.start, len(view))  # a view's CAT2/CAT3 blocks
            cur = {
                (int(trans.category[j]), int(view.word[i]), view.successor(state, i))
                for i, j in zip(s23, view.index[s23].tolist())
            }
            assert all(cat in (CAT2, CAT3) for cat, _, _ in cur)
            assert prev <= cur
            seen = {int(view.word[i]) for i in s23}
            assert all(
                bool(encoder_rank_pass(scores, rprime)[w]) for w in seen
            )
            prev = cur

    def test_repeated_word_kept_in_separate_lists(self):
        vocab, model = toy_class_model()
        state = model.initial_state()
        trans = enumerate_transitions(model, state)
        john = vocab.id_of("▁john")
        in_s1 = indices(trans, CAT1, john)
        in_s2 = indices(trans, CAT2, john)
        assert in_s1 and in_s2
        assert trans.successor(state, in_s1[0]) != trans.successor(state, in_s2[0])
        assert trans.successor(state, in_s2[0]).class_tag is not None
        assert trans.successor(state, in_s2[0]).class_tag == trans.tag[in_s2[0]]

    def test_cat2_masses_equal_the_tag_logprob(self, tmp_path):
        vocab, model = toy_class_model()
        save_class_model(model, tmp_path / "clm")
        arpa = tmp_path / "clm" / "ngram.arpa"
        # zero the longest-context arc of ⟨NAME⟩ after "<s> ▁dial", so
        # the bigram "▁dial ⟨NAME⟩" decides its mass there
        text, n = re.subn(
            r"^[^\t]+\t(<s> ▁dial ⟨NAME⟩)$", r"-99\t\1",
            arpa.read_text(encoding="utf-8"), flags=re.M,
        )
        assert n == 1
        arpa.write_text(text, encoding="utf-8")
        clm = load_class_model(tmp_path / "clm", vocab)
        bos, dial = clm.ngram.bos_id, vocab.id_of("▁dial")
        name = clm.vocab.id_of("⟨NAME⟩")
        trigrams = {g: p for g, p, _ in clm.ngram.iter_ngrams(3)}
        assert trigrams[bos, dial, name] == NEG_INF
        assert clm.ngram.logprob(name, (bos, dial)) > NEG_INF

        rng = np.random.default_rng(9)
        states = [ClmState((bos, dial), None, None), clm.initial_state()]
        while len(states) < 40:
            trans = enumerate_transitions(clm, states[-1])
            live = np.flatnonzero(trans.logprob > NEG_INF)
            states.append(trans.successor(states[-1], int(rng.choice(live))))
        for state in states:
            trans = enumerate_transitions(clm, state)
            exit_lp = clm.exit_logmass(state)
            for tag in clm.tag_ids:
                got = indices(trans, CAT2, tag=tag)
                p_tag = clm.ngram.logprob(tag, clm.exit_history(state))
                if exit_lp == NEG_INF or p_tag == NEG_INF:
                    assert got == []
                    continue
                root = clm.trees[tag]
                assert trans.word[got].tolist() == root.child_words.tolist()
                want = exit_lp + p_tag + root.child_logprobs
                assert trans.logprob[got].tolist() == want.tolist()


class TestCat1Gate:
    """``cat1_gate`` against the stable argsort of the CAT1 block: its
    ``r`` most probable finite entries, ties to the lower word, returned
    in ascending order."""

    @staticmethod
    def check(trans):
        lp = trans.logprob[: trans.cat2.start]
        ranked = np.argsort(-lp, kind="stable")
        ranked = ranked[lp[ranked] > NEG_INF]
        n1 = lp.size
        for r in sorted({1, 3, max(n1 - 1, 1), max(n1, 1), n1 + 5}):
            assert trans.cat1_gate(r).tolist() == sorted(ranked[:r].tolist())

    def test_class_states_of_a_trained_model(self):
        _, model = toy_class_model(order=3)
        seen, frontier = set(), [model.initial_state()]
        while frontier and len(seen) < 80:
            state = frontier.pop(0)
            if state in seen:
                continue
            seen.add(state)
            trans = enumerate_transitions(model, state)
            self.check(trans)
            live = np.flatnonzero(trans.logprob > NEG_INF).tolist()
            frontier.extend(trans.successor(state, i) for i in live)
        assert len(seen) == 80
        assert any(s.class_tag is not None for s in seen)

    def test_rows_with_ties_and_zero_mass(self):
        _, model = toy_class_model()
        n1 = model.n_words
        rng = np.random.default_rng(5)
        for _ in range(200):
            lp = rng.choice([NEG_INF, -3.0, -2.0, -1.5], size=n1)
            self.check(
                Transitions(
                    model, np.full(n1, CAT1, np.int8),
                    np.arange(n1), lp, np.full(n1, -1, np.int32),
                )
            )


class TestAdvance:
    def test_cat2_enters_class_with_pending_tag(self):
        vocab, model = toy_class_model()
        state = model.initial_state()
        trans = enumerate_transitions(model, state)
        i = indices(trans, CAT2, tag=model.vocab.id_of("⟨NAME⟩"))[0]
        succ = trans.successor(state, i)
        assert succ.class_tag == model.vocab.id_of("⟨NAME⟩")
        assert succ.history == state.history  # tag not yet in history
        assert succ.node is model.trees[succ.class_tag].children[int(trans.word[i])]

    def test_exit_appends_tag_then_word(self):
        vocab, model = toy_class_model(order=5)
        state = model.initial_state()
        trans = enumerate_transitions(model, state)
        i2 = indices(trans, CAT2, vocab.id_of("▁john"), model.vocab.id_of("⟨NAME⟩"))[0]
        inside = trans.successor(state, i2)
        assert inside.node.exit_logprob > NEG_INF  # "▁john" is a full entry
        on = vocab.id_of("▁on")
        trans = enumerate_transitions(model, inside)
        after = trans.successor(inside, indices(trans, CAT1, on)[0])
        assert after.history == model.truncate(
            state.history + (model.vocab.id_of("⟨NAME⟩"), on)
        )
        assert after.class_tag is None and after.node is None

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_cat1_successors_match_advance(self, order):
        # a bundle builds a CAT1 successor from its exit history
        _, model = toy_class_model(order=order)
        seen, frontier = set(), [model.initial_state()]
        inside = outside = 0
        while frontier and len(seen) < 60:
            state = frontier.pop(0)
            if state in seen:
                continue
            seen.add(state)
            trans = enumerate_transitions(model, state)
            for i in range(trans.cat2.start):
                assert trans.successor(state, i) == advance(model, state, CAT1, i)
            if len(trans):  # a negative index counts from the end
                assert trans.successor(state, -1) == trans.successor(state, len(trans) - 1)
            inside += state.class_tag is not None and trans.cat2.start > 0
            outside += state.class_tag is None
            live = np.flatnonzero(trans.logprob > NEG_INF).tolist()
            frontier.extend(trans.successor(state, i) for i in live)
        assert inside and outside

    def test_same_prefix_two_distinct_states(self):
        vocab, model = toy_class_model()
        state = model.initial_state()
        trans = enumerate_transitions(model, state)
        john = vocab.id_of("▁john")
        via_word = trans.successor(state, indices(trans, CAT1, john)[0])
        via_class = trans.successor(state, indices(trans, CAT2, john)[0])
        assert via_word != via_class

    def test_mismatched_transition_faults(self):
        vocab, model = toy_class_model()
        state = model.initial_state()
        assert indices(enumerate_transitions(model, state), CAT3) == []
        john = vocab.id_of("▁john")
        with pytest.raises(ValueError, match="outside of a class"):
            advance(model, state, CAT3, john)
        # a CAT3 transition replayed at a node it does not leave faults
        name, kind = model.vocab.id_of("⟨NAME⟩"), model.vocab.id_of("⟨TYPE⟩")
        at_his = ClmState(
            state.history, kind, model.trees[kind].children[vocab.id_of("▁his")]
        )
        at_john = ClmState(state.history, name, model.trees[name].children[john])
        trans = enumerate_transitions(model, at_his)
        i3 = indices(trans, CAT3)[0]
        assert trans.successor(at_his, i3).node is not model.trees[kind]
        with pytest.raises(ValueError, match="not under the current node"):
            advance(model, at_john, CAT3, int(trans.word[i3]))
        with pytest.raises(ValueError, match="does not start"):
            advance(model, state, CAT2, vocab.id_of("▁on"), name)
        with pytest.raises(ValueError, match="unknown class"):
            advance(model, state, CAT2, john, vocab.id_of("▁on"))
        with pytest.raises(ValueError, match="unknown transition category"):
            advance(model, state, 4, john)


class TestPathMassEquivalence:
    def test_engine_masses_match_flattened_automaton(self):
        _, model = toy_class_model(order=2)
        want = clm_prefix_masses(model, 4)

        frontier = {((), model.initial_state()): (model.initial_state(), 1.0)}
        got: dict = {}
        for _ in range(4):
            nxt: dict = {}
            for (words, _), (state, mass) in frontier.items():
                trans = enumerate_transitions(model, state)
                for i in range(len(trans)):
                    if trans.logprob[i] == NEG_INF:
                        continue
                    succ = trans.successor(state, i)
                    key = (words + (int(trans.word[i]),), succ)
                    old = nxt.get(key)
                    add = mass * math.exp(trans.logprob[i])
                    nxt[key] = (succ, add if old is None else old[1] + add)
            frontier = nxt
            for (words, _), (_, mass) in frontier.items():
                got[words] = got.get(words, 0.0) + mass

        assert set(got) == set(want)
        for words, mass in want.items():
            assert got[words] == pytest.approx(mass, abs=1e-9)

    def test_length_mass_sums_to_one(self):
        _, model = toy_class_model(order=2)
        masses = clm_prefix_masses(model, 3)
        for length in (1, 2, 3):
            total = sum(m for words, m in masses.items() if len(words) == length)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestClassFileIO:
    def test_round_trip(self, tmp_path):
        entries = {
            "⟨NAME⟩": [(("▁john", "▁smith"), 1.0), (("▁john",), 2.5)],
            "⟨TYPE⟩": [(("▁his",), 1.0)],
        }
        path = tmp_path / "classes.tsv"
        write_class_file(entries, path)
        assert parse_class_file(path) == entries

    def test_bad_tag_faults(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("NAME\t▁john\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            parse_class_file(path)

    def test_bad_weight_faults(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("⟨NAME⟩\t▁john\t-1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="positive"):
            parse_class_file(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "Infinity", "heavy", ""])
    def test_non_finite_or_non_numeric_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "c.tsv"
        path.write_text(f"⟨NAME⟩\t▁john\t2.0\n⟨NAME⟩\t▁ada\t{weight}\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=f"line 2: weight must be a finite positive number, got '{weight}'"
        ):
            parse_class_file(path)

    def test_model_save_load_round_trip(self, tmp_path):
        vocab, model = toy_class_model()
        save_class_model(model, tmp_path / "clm")
        loaded = load_class_model(tmp_path / "clm", vocab)
        state_a, state_b = model.initial_state(), loaded.initial_state()
        for _ in range(3):
            got = enumerate_transitions(loaded, state_b)
            want = enumerate_transitions(model, state_a)
            for field in ("category", "word", "tag"):
                assert getattr(got, field).tolist() == getattr(want, field).tolist()
            for lg, lw in zip(got.logprob.tolist(), want.logprob.tolist()):
                if lw == NEG_INF:
                    assert lg == NEG_INF
                else:
                    np.testing.assert_allclose(lg, lw, atol=1e-9)
            pick = indices(want, CAT2)[0]
            state_a = want.successor(state_a, pick)
            state_b = got.successor(state_b, pick)
