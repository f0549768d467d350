"""Fusion operator algebra: identities, replacement, normalization
preservation, gate agreement, and the class-model augmentation stage."""

import math

import numpy as np
import pytest

from fntfuse.classlm import (
    CAT1,
    CAT2,
    CAT3,
    ClmState,
    enumerate_transitions,
    train_tagged_clm,
)
from fntfuse.core import NEG_INF, Vocabulary, log_softmax, log_sum_exp
from fntfuse.fusion import (
    FusionConfig,
    cli_scores,
    clm_predictor_interp,
    li_scores,
    mix_scores,
    three_way,
)
from fntfuse.ngram import SparseLmQueryResult

from helpers import PIECES, toy_class_model

ALPHAS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.9)


def sparse(pairs):
    ids = np.array([w for w, _ in pairs], dtype=np.int64)
    lps = np.array([lp for _, lp in pairs])
    return SparseLmQueryResult(ids, lps, np.ones(len(pairs), dtype=np.int64))


def random_pair(rng, n):
    z = log_softmax(rng.normal(size=n))
    p = log_softmax(rng.normal(size=n))
    return z, p


def cli(z, sp, alpha):
    return cli_scores(z, sp.word_ids, sp.logprobs, alpha)


class TestShallowFuse:
    """sf: ``mix_scores`` on the joint row."""

    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(0)
        z, p = random_pair(rng, 6)
        np.testing.assert_array_equal(mix_scores(z, p, 0.0), z)

    def test_alpha_one_replacement(self):
        rng = np.random.default_rng(1)
        z, p = random_pair(rng, 6)
        np.testing.assert_array_equal(mix_scores(z, p, 1.0), p)

    def test_quarter_mix_scalar(self):
        z = np.array([-2.0, -3.0])
        p = np.array([math.log(0.1), math.log(0.9)])
        out = mix_scores(z, p, 0.25)
        assert out[0] == pytest.approx(-2.0756462732485113, abs=1e-12)

    def test_zero_lm_prob_with_alpha_zero_keeps_score(self):
        z = np.array([-1.0, -2.0])
        p = np.array([0.0, NEG_INF])
        out = mix_scores(z, p, 0.0)
        assert out[1] == -2.0  # no NaN from 0 * -inf


class TestLinearInterp:
    """li: ``li_scores`` on the predictor row."""

    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(2)
        z, p = random_pair(rng, 5)
        np.testing.assert_array_equal(li_scores(z, p, 0.0), z)

    def test_symmetric_mix(self):
        z = log_softmax(np.log([0.8, 0.2]))
        p = log_softmax(np.log([0.2, 0.8]))
        out = li_scores(z, p, 0.5)
        np.testing.assert_allclose(np.exp(out), [0.5, 0.5], atol=1e-12)

    def test_point_mass_mix(self):
        z = np.array([0.0, NEG_INF])
        p = np.array([NEG_INF, 0.0])
        out = li_scores(z, p, 0.25)
        np.testing.assert_allclose(np.exp(out), [0.75, 0.25], atol=1e-12)

    def test_preserves_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            z, p = random_pair(rng, n)
            alpha = float(rng.uniform())
            out = li_scores(z, p, alpha)
            assert np.exp(log_sum_exp(out)) == pytest.approx(1.0, abs=1e-9)


class TestLogLinearInterp:
    """lli: ``mix_scores`` on the predictor row."""

    def test_alpha_zero_identity(self):
        z = np.array([-0.3, -4.0, -1.2])
        p = log_softmax([1.0, 0.0, 2.0])
        np.testing.assert_array_equal(mix_scores(z, p, 0.0), z)

    def test_alpha_one_replacement(self):
        z = np.array([-0.3, -4.0, -1.2])
        p = log_softmax([1.0, 0.0, 2.0])
        np.testing.assert_array_equal(mix_scores(z, p, 1.0), p)

    def test_fixed_point(self):
        p = log_softmax([0.5, -0.5, 1.5])
        for alpha in ALPHAS:
            np.testing.assert_allclose(mix_scores(p, p, alpha), p, atol=1e-12)

    def test_geometric_mean(self):
        z = np.array([math.log(0.04), -5.0])
        p = np.array([math.log(0.25), -0.1])
        out = mix_scores(z, p, 0.5)
        assert out[0] == pytest.approx(math.log(0.1), abs=1e-12)


class TestConditionalLinearInterp:
    """cli: ``cli_scores`` with a rank-r query's ids and log-probs."""

    def test_empty_sparse_unchanged(self):
        z = log_softmax([0.1, 0.2, 0.3])
        out = cli(z, sparse([]), 0.5)
        np.testing.assert_array_equal(out, z)
        assert out is not z

    def test_saturated_gate_equals_linear(self):
        rng = np.random.default_rng(4)
        z, p = random_pair(rng, 8)
        sp = sparse(list(zip(range(8), p.tolist())))
        for alpha in ALPHAS:
            np.testing.assert_array_equal(cli(z, sp, alpha), li_scores(z, p, alpha))

    def test_four_word_gate(self):
        z = log_softmax(np.log([0.4, 0.3, 0.2, 0.1]))
        sp = sparse([(0, math.log(0.1)), (2, math.log(0.7))])
        out = cli(z, sp, 0.5)
        want = [math.log(0.25), math.log(0.3), math.log(0.45), math.log(0.1)]
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert np.exp(log_sum_exp(out)) == pytest.approx(1.1, abs=1e-12)

    def test_gated_entries_match_linear_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            z, p = random_pair(rng, n)
            k = int(rng.integers(1, n))
            ids = rng.choice(n, size=k, replace=False)
            sp = sparse([(int(i), float(p[i])) for i in ids])
            alpha = float(rng.uniform())
            got = cli(z, sp, alpha)
            np.testing.assert_array_equal(got[ids], li_scores(z, p, alpha)[ids])


class TestOperatorProperties:
    def test_alpha_continuity_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            z, p = random_pair(rng, n)
            a1, a2 = sorted(rng.uniform(size=2).tolist())
            bound = (a2 - a1) * float(np.max(np.abs(p - z)))
            delta = np.max(np.abs(mix_scores(z, p, a2) - mix_scores(z, p, a1)))
            assert delta <= bound + 1e-12

    def test_argmax_dominance(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 30:
            z, p = random_pair(rng, int(rng.integers(2, 12)))
            best = int(np.argmax(z))
            if int(np.argmax(p)) != best:
                continue
            found += 1
            sp = sparse([(best, float(p[best]))])
            for alpha in ALPHAS:
                assert int(np.argmax(mix_scores(z, p, alpha))) == best
                assert int(np.argmax(li_scores(z, p, alpha))) == best
                assert int(np.argmax(cli(z, sp, alpha))) == best


class TestFusionConfig:
    def test_valid_configs(self):
        FusionConfig()
        FusionConfig("sf", 0.25)
        FusionConfig("cli", 0.1, rank_r=200)
        FusionConfig("li", 0.05, second_method="clm", second_alpha=0.9)

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="method"):
            FusionConfig("deep")
        with pytest.raises(ValueError, match="alpha"):
            FusionConfig("li", 1.5)
        with pytest.raises(ValueError, match="second"):
            FusionConfig("li", 0.1, second_method="sf")
        for first in ("sf", "lli", "cli", "clm", "none"):
            with pytest.raises(ValueError, match="first stage"):
                FusionConfig(first, 0.1, second_method="clm")
        with pytest.raises(ValueError, match="rank_r"):
            FusionConfig("cli", 0.1, rank_r=0)

    def test_second_alpha_needs_a_second_stage(self):
        # without a second stage the weight would be ignored, plain li
        with pytest.raises(ValueError, match="second_alpha 0.9 needs a second stage"):
            FusionConfig("li", 0.5, second_alpha=0.9)
        FusionConfig("li", 0.5, second_alpha=0.0)


def exit_state(model, vocab):
    # inside ⟨TYPE⟩ at "▁his": children plus exit mass, so all three
    # category blocks are populated
    h = (model.ngram.bos_id, vocab.id_of("▁call"))
    node = model.trees[model.vocab.id_of("⟨TYPE⟩")].children[vocab.id_of("▁his")]
    return ClmState(model.truncate(h), model.vocab.id_of("⟨TYPE⟩"), node)


class TestClmPredictorInterp:
    def setup_method(self):
        self.vocab, self.model = toy_class_model(order=3)
        rng = np.random.default_rng(8)
        self.z_u = log_softmax(rng.normal(size=self.model.n_words))

    def test_block_order_and_alignment(self):
        state = self.model.initial_state()
        trans = enumerate_transitions(self.model, state)
        scores = clm_predictor_interp(self.z_u, trans, 0.5, 200)
        assert len(trans) == len(scores)
        cats = trans.category.tolist()
        assert cats == sorted(cats)  # CAT1 block, then CAT2, then CAT3
        assert cats.count(CAT1) == trans.cat2.start
        assert cats.count(CAT2) == trans.cat2.stop - trans.cat2.start
        assert cats.count(CAT3) == trans.cat3.stop - trans.cat3.start == 0

    def test_cat3_scores_raw(self):
        state = exit_state(self.model, self.vocab)
        trans = enumerate_transitions(self.model, state)
        scores = clm_predictor_interp(self.z_u, trans, 0.5, 200)
        assert CAT3 in trans.category
        for cat, lp, sc in zip(trans.category, trans.logprob, scores):
            if cat == CAT3:
                assert sc == lp

    def test_cat2_scores_full_interpolation(self):
        state = self.model.initial_state()
        trans = enumerate_transitions(self.model, state)
        scores = clm_predictor_interp(self.z_u, trans, 0.25, 200)
        for cat, w, lp, sc in zip(trans.category, trans.word, trans.logprob, scores):
            if cat == CAT2:
                want = math.log(
                    0.25 * math.exp(lp)
                    + 0.75 * math.exp(self.z_u[w])
                )
                assert sc == pytest.approx(want, abs=1e-12)

    def test_cat1_rank_gate(self):
        state = self.model.initial_state()
        trans = enumerate_transitions(self.model, state)
        s1 = [
            (lp, w) for cat, w, lp in zip(trans.category, trans.word, trans.logprob)
            if cat == CAT1
        ]
        by_prob = sorted(s1, key=lambda t: (-t[0], t[1]))
        gated_words = {w for _, w in by_prob[:2]}
        scores = clm_predictor_interp(self.z_u, trans, 0.5, 2)
        for cat, w, lp, sc in zip(trans.category, trans.word, trans.logprob, scores):
            if cat != CAT1:
                continue
            if w in gated_words:
                want = math.log(
                    0.5 * math.exp(lp)
                    + 0.5 * math.exp(self.z_u[w])
                )
                assert sc == pytest.approx(want, abs=1e-12)
            else:
                assert sc == self.z_u[w]

    def test_zero_prob_cat1_words_never_gated(self):
        state = self.model.initial_state()
        trans = enumerate_transitions(self.model, state)
        dead = (trans.category == CAT1) & (trans.logprob == NEG_INF)
        assert dead.any()  # closed vocabulary leaves unseen words at zero
        scores = clm_predictor_interp(self.z_u, trans, 0.5, 10_000)
        np.testing.assert_array_equal(scores[dead], self.z_u[trans.word[dead]])

    def test_no_exit_drops_cat1_and_cat2(self):
        pieces = ["▁a", "▁b", "▁c"]
        vocab = Vocabulary(pieces)
        model = train_tagged_clm(
            [["▁c", "⟨X⟩"], ["▁c", "▁a"]],
            {"⟨X⟩": [(("▁a", "▁b"), 1.0)]},
            2,
            vocab,
        )
        tag = model.vocab.id_of("⟨X⟩")
        inner = ClmState(
            (vocab.id_of("▁c"),), tag, model.trees[tag].children[vocab.id_of("▁a")]
        )
        trans = enumerate_transitions(model, inner)
        assert CAT1 not in trans.category and CAT2 not in trans.category
        rng = np.random.default_rng(9)
        z_u = log_softmax(rng.normal(size=3))
        scores = clm_predictor_interp(z_u, trans, 0.5, 200)
        assert trans.category.tolist() == [CAT3]
        assert scores[0] == 0.0  # single forced continuation

    def test_repeated_words_keep_separate_rows(self):
        state = self.model.initial_state()
        trans = enumerate_transitions(self.model, state)
        scores = clm_predictor_interp(self.z_u, trans, 0.5, 200)
        assert len(scores) == len(trans)
        john = self.vocab.id_of("▁john")
        hits = np.flatnonzero(trans.word == john).tolist()
        assert len(hits) >= 2
        assert len({trans.successor(state, i) for i in hits}) == len(hits)


class TestThreeWay:
    def setup_method(self):
        self.vocab, self.model = toy_class_model(order=3)
        rng = np.random.default_rng(10)
        self.z_u = log_softmax(rng.normal(size=self.model.n_words))
        self.dense = log_softmax(rng.normal(size=self.model.n_words))
        self.trans = enumerate_transitions(self.model, self.model.initial_state())

    def test_second_alpha_zero_is_dense_only(self):
        scores = three_way(self.z_u, self.dense, self.trans, 0.3, 0.0, 200)
        stage1 = li_scores(self.z_u, self.dense, 0.3)
        for cat, w, sc in zip(self.trans.category, self.trans.word, scores):
            if cat in (CAT1, CAT2):
                assert sc == stage1[w]

    def test_first_alpha_zero_is_clm_only(self):
        scores = three_way(self.z_u, self.dense, self.trans, 0.0, 0.9, 200)
        scores2 = clm_predictor_interp(self.z_u, self.trans, 0.9, 200)
        np.testing.assert_array_equal(scores, scores2)

    def test_consecutive_differs_from_joint_mixing(self):
        a1, a2 = 0.3, 0.4
        scores = three_way(self.z_u, self.dense, self.trans, a1, a2, 200)
        n1 = self.trans.cat2.start
        joint = np.array(
            [
                math.log(
                    a2 * math.exp(lp)
                    + a1 * math.exp(self.dense[w])
                    + (1 - a1 - a2) * math.exp(self.z_u[w])
                )
                if lp > NEG_INF
                else NEG_INF
                for w, lp in zip(self.trans.word[:n1], self.trans.logprob[:n1])
            ]
        )
        finite = np.isfinite(joint)
        assert np.max(np.abs(scores[:n1][finite] - joint[finite])) > 1e-6
