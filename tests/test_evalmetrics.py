"""Scoring and sweep machinery: detokenization, edit-distance counts
against the exhaustive alignment oracle, report aggregation, grid
sweeps, and the rank-query benchmark."""

from collections import Counter

import numpy as np
import pytest

from fntfuse import evalmetrics
from fntfuse.classlm import train_tagged_clm
from fntfuse.decoder import DecodeStats, DecoderConfig, beam_search
from fntfuse.evalmetrics import (
    ALPHA_GRID,
    EditCounts,
    EvalReport,
    align,
    bench_corpus,
    bench_topr,
    build_bench_model,
    detokenize,
    evaluate,
    ngram_count,
    sweep,
    wer_counts,
)
from fntfuse.fusion import FusionConfig
from fntfuse.ngram import train_kneser_ney
from fntfuse.simulate import (
    FntScorer,
    NgramPredictor,
    ScenarioSpec,
    pieces_of,
    synthesize_scenario,
)

from oracles import brute_force_edit_counts

TEMPLATES = (
    "call ⟨NAME⟩ now",
    "dial ⟨NAME⟩ on ⟨TYPE⟩ please",
    "check the weather",
)
CLASSES = {
    "⟨NAME⟩": (("ada lin", 1.0), ("bo chen", 1.0), ("mira sol", 2.0), ("kit", 1.0)),
    "⟨TYPE⟩": (("mobile", 1.0), ("landline", 1.0)),
}


def scenario_setup(tau=0.0, seed=3, n_test=8, classes=CLASSES, floor=0.05):
    spec = ScenarioSpec(
        templates=TEMPLATES,
        classes=classes,
        n_train=40,
        n_adapt=30,
        n_test=n_test,
        tau=tau,
        scale=4.0,
        blank_offset=2.5,
        seed=seed,
    )
    scn = synthesize_scenario(spec)
    train_ids = [scn.vocab.ids_of(t.split()) for t in scn.train_texts]
    predictor = NgramPredictor(
        train_kneser_ney(train_ids, 3, vocab=scn.vocab, eos=False), floor=floor
    )
    adapt_ids = [scn.vocab.ids_of(t.split()) for t in scn.adapt_texts]
    external = NgramPredictor(
        train_kneser_ney(adapt_ids, 3, vocab=scn.vocab, eos=False)
    )
    return scn, FntScorer(predictor, gamma=6.0), external


class TestDetokenize:
    def test_hand_cases(self):
        assert detokenize(["▁call", "▁john"]) == ["call", "john"]
        assert detokenize(["▁land", "line"]) == ["landline"]
        assert detokenize(["▁dial", "▁land", "line", "▁now"]) == [
            "dial",
            "landline",
            "now",
        ]
        assert detokenize([]) == []

    def test_leading_continuation_opens_word(self):
        assert detokenize(["ing", "▁go"]) == ["ing", "go"]

    def test_round_trip_with_piece_splitter(self):
        words = ["call", "landline", "kit", "weather", "mira", "telephone"]
        assert detokenize(pieces_of(words)) == words


class TestWerCounts:
    def test_identity(self):
        assert wer_counts("a b c".split(), "a b c".split()) == (0, 0, 0, 3)
        assert wer_counts("a b c".split(), "a b c".split()).wer == 0.0

    def test_single_substitution(self):
        got = wer_counts("a b c".split(), "a x c".split())
        assert got == (1, 0, 0, 3)
        assert got.wer == pytest.approx(1 / 3)

    def test_empty_hypothesis_is_all_deletions(self):
        assert wer_counts("a b".split(), []) == (0, 0, 2, 2)

    def test_empty_reference_faults(self):
        with pytest.raises(ValueError, match="empty reference"):
            wer_counts([], ["a"])

    def test_substitutions_beat_ins_del_pairs(self):
        assert wer_counts("a b".split(), "b a".split()) == (2, 0, 0, 2)

    def test_crossing_six_word_example(self):
        ref = "a b c d e f".split()
        hyp = "a c b x e f".split()
        s, i, d = brute_force_edit_counts(ref, hyp)
        assert wer_counts(ref, hyp) == (s, i, d, 6)

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(30)
        alphabet = ["a", "b", "c"]
        for _ in range(60):
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 8))]
            hyp = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 8))]
            s, i, d = brute_force_edit_counts(ref, hyp)
            assert wer_counts(ref, hyp) == (s, i, d, len(ref))

    def test_swap_exchanges_ins_and_del(self):
        rng = np.random.default_rng(31)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(40):
            x = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            y = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            fwd = wer_counts(x, y)
            rev = wer_counts(y, x)
            assert (fwd.subs, fwd.ins, fwd.dels) == (rev.subs, rev.dels, rev.ins)


class TestAlign:
    def test_ops_reconstruct_hypothesis(self):
        rng = np.random.default_rng(32)
        alphabet = ["a", "b", "c"]
        for _ in range(40):
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
            hyp = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
            built = []
            ri = 0
            for op, i, j in align(ref, hyp):
                if op in ("match", "sub"):
                    assert i == ri
                    built.append(hyp[j])
                    ri += 1
                elif op == "del":
                    assert i == ri
                    ri += 1
                else:
                    built.append(hyp[j])
            assert ri == len(ref)
            assert built == hyp

    def test_match_positions_agree(self):
        ops = align("a b c".split(), "a x c".split())
        assert [op for op, _, _ in ops] == ["match", "sub", "match"]


class TestEvalReport:
    def make(self, **overrides):
        base = dict(
            name="t",
            per_utt=(("u0", 1, 0, 1, 5), ("u1", 0, 1, 0, 5)),
            entity_tokens=4,
            entity_errors=1,
            stats=DecodeStats(
                n_frames=20, n_expansions=50, total_width=600, wall_time=0.25
            ),
        )
        base.update(overrides)
        return EvalReport(**base)

    def test_ratios(self):
        rep = self.make()
        assert rep.edits == EditCounts(1, 1, 1, 10)
        assert rep.wer == pytest.approx(0.3)
        assert rep.entity_error_rate == pytest.approx(0.25)
        assert rep.n_utts == 2
        assert rep.mean_decode_time == pytest.approx(0.125)
        assert rep.stats.mean_width == pytest.approx(12.0)
        assert rep.expansions_per_frame == pytest.approx(2.5)

    def test_no_entities_rate_is_zero(self):
        rep = self.make(entity_tokens=0, entity_errors=0)
        assert rep.entity_error_rate == 0.0

    def test_werr(self):
        base = self.make(per_utt=(("u0", 4, 0, 0, 5), ("u1", 0, 0, 0, 5)))  # wer 0.4
        adapted = self.make(per_utt=(("u0", 0, 0, 0, 5), ("u1", 1, 0, 0, 5)))  # wer 0.1
        assert adapted.werr_vs(base) == pytest.approx(0.75)
        perfect = self.make(per_utt=(("u0", 0, 0, 0, 5), ("u1", 0, 0, 0, 5)))
        with pytest.raises(ValueError, match="zero error rate"):
            base.werr_vs(perfect)

    def test_line_is_parseable(self):
        fields = dict(
            kv.split("=") for kv in self.make().line().split()[1:]
        )
        assert fields["name"] == "t"
        assert int(fields["utts"]) == 2
        assert float(fields["wer"]) == pytest.approx(0.3)
        assert float(fields["entity_rate"]) == pytest.approx(0.25)
        assert float(fields["time_ms"]) == pytest.approx(125.0)
        assert float(fields["width"]) == pytest.approx(12.0)
        assert float(fields["expf"]) == pytest.approx(2.5)
        assert int(fields["warnings"]) == 0
        warned = self.make(warning_kinds=(("a", 1), ("b", 2)))
        assert warned.n_warnings == 3
        assert warned.line().endswith(" warnings=3")


class TestEvaluate:
    def test_perfect_when_predictor_knows_entities(self):
        # singleton inventories land in both pools, so the predictor's
        # training text covers every test entity
        singles = {"⟨NAME⟩": (("ada lin", 1.0),), "⟨TYPE⟩": (("mobile", 1.0),)}
        scn, scorer, _ = scenario_setup(classes=singles)
        rep = evaluate(
            "base", scn.tests, scn.vocab, scorer, DecoderConfig(beam=4)
        )
        assert rep.wer == 0.0
        assert rep.entity_errors == 0
        assert rep.n_utts == len(scn.tests)
        assert rep.stats.wall_time > 0.0

    def test_baseline_misses_unseen_entities_and_fusion_recovers(self):
        scn, scorer, external = scenario_setup()
        base = evaluate(
            "base", scn.tests, scn.vocab, scorer, DecoderConfig(beam=4)
        )
        assert base.wer > 0.0
        assert base.entity_error_rate == 1.0
        fused = evaluate(
            "li",
            scn.tests,
            scn.vocab,
            scorer,
            DecoderConfig(beam=4, fusion=FusionConfig("li", 0.5)),
            external_lm=external,
        )
        assert fused.wer == 0.0
        assert fused.entity_error_rate == 0.0
        assert fused.werr_vs(base) == pytest.approx(1.0)

    def test_aggregation_matches_per_utt_rows(self):
        scn, scorer, _ = scenario_setup(tau=1.5)
        rep = evaluate(
            "base", scn.tests, scn.vocab, scorer, DecoderConfig(beam=4)
        )
        assert rep.edits == tuple(sum(r[k] for r in rep.per_utt) for k in range(1, 5))
        assert rep.edits.n_ref == sum(len(u.ref_words) for u in scn.tests)
        assert rep.edits.subs + rep.edits.ins + rep.edits.dels > 0
        assert [r[0] for r in rep.per_utt] == [u.utt_id for u in scn.tests]

    def test_counters_sum_the_per_utterance_stats(self):
        scn, scorer, _ = scenario_setup(tau=1.5, n_test=12)
        # enumerations count class-memo misses, so each side gets a fresh model
        build = lambda: train_tagged_clm(scn.clm_texts, scn.class_entries, 3, scn.vocab)
        config = DecoderConfig(
            beam=1,
            fusion=FusionConfig("clm", 0.9, rank_r=2),
            rank_rprime=3,
            exit_rule="require-cat1",
        )
        rep = evaluate("clm", scn.tests, scn.vocab, scorer, config, class_model=build())
        clm = build()
        each = [
            beam_search(u.encoder, scorer, config, class_model=clm)[1] for u in scn.tests
        ]
        for name in (
            "n_frames", "n_expansions", "n_extra_expansions", "total_width",
            "n_children", "n_ranked_children", "n_popped_children", "n_enumerations",
            "n_shared_bundles", "n_fused_rows",
        ):
            assert getattr(rep.stats, name) == sum(getattr(s, name) for s in each), name
        assert rep.stats.n_enumerations > rep.stats.n_shared_bundles > 0
        assert rep.stats.n_fused_rows > 0
        warned = [s.warning for s in each if s.warning is not None]
        assert warned, "no decode exhausted its require-cat1 budget"
        assert rep.warning_kinds == tuple(sorted(Counter(warned).items()))
        assert rep.n_warnings == len(warned)

    def test_no_utterances_is_refused(self):
        scn, scorer, _ = scenario_setup()
        with pytest.raises(ValueError, match="base: no test utterances"):
            evaluate("base", [], scn.vocab, scorer, DecoderConfig(beam=4))


class TestSweep:
    def run_sweep(self, methods=("li",), grid=(0.0, 0.5), **kw):
        scn, scorer, external = scenario_setup()
        report = sweep(
            {"dev": scn.tests},
            scn.vocab,
            scorer,
            external_lm=external,
            methods=methods,
            grid=grid,
            beam=4,
            **kw,
        )
        return report

    def test_zero_weight_equals_baseline_exactly(self):
        report = self.run_sweep()
        base = report.baselines["dev"]
        zero = [c for c in report.cells if c.alpha == 0.0][0]
        assert zero.report.wer == base.wer
        assert zero.report.per_utt == base.per_utt
        assert zero.werr == 0.0

    def test_best_alpha_selection(self):
        report = self.run_sweep()
        a_star, werr_star = report.alpha_star("li", "dev")
        assert a_star == 0.5
        assert werr_star == pytest.approx(1.0)
        # single split: the best fixed weight coincides
        assert report.alpha_fixed("li") == (a_star, pytest.approx(werr_star))

    @pytest.mark.parametrize(
        "methods,grid", [(("li", "clm"), (0.5,)), (("none",), (0.5,)), (("li",), (0.0, 1.01))]
    )
    def test_bad_methods_or_weights_fault_before_decoding(self, methods, grid, monkeypatch):
        monkeypatch.setattr(evalmetrics, "evaluate", lambda *a, **k: pytest.fail("decoded"))
        with pytest.raises(ValueError, match="^sweep (method|weight) must be"):
            self.run_sweep(methods=methods, grid=grid)

    def test_unknown_method_faults(self):
        report = self.run_sweep()
        with pytest.raises(ValueError, match="no sweep cells"):
            report.alpha_star("sf", "dev")

    def test_sf_grid_is_restricted(self):
        report = self.run_sweep(methods=("sf", "li"), grid=ALPHA_GRID)
        sf_alphas = sorted({c.alpha for c in report.cells if c.method == "sf"})
        li_alphas = sorted({c.alpha for c in report.cells if c.method == "li"})
        assert sf_alphas == [0.01, 0.05, 0.1, 0.25]
        assert li_alphas == list(ALPHA_GRID)

    def test_lines_and_table(self):
        report = self.run_sweep()
        lines = report.lines()
        assert sum(1 for l in lines if l.startswith("SWEEP method=")) == 2
        assert sum(1 for l in lines if l.startswith("SWEEP-STAR")) == 1
        assert sum(1 for l in lines if l.startswith("SWEEP-FIXED")) == 1
        star = [l for l in lines if l.startswith("SWEEP-STAR")][0]
        fields = dict(kv.split("=") for kv in star.split()[1:])
        assert fields["method"] == "li"
        assert float(fields["alpha"]) == 0.5
        table = report.table()
        assert "li/dev" in table
        assert "0.5" in table.splitlines()[0]

    def test_deterministic_scoring(self):
        a = self.run_sweep()
        b = self.run_sweep()
        scoring = lambda rep: [
            l for l in rep.lines() if not l.startswith("EVAL")
        ]
        assert scoring(a) == scoring(b)
        assert a.table() == b.table()


class TestBench:
    def test_build_bench_model_sizes(self):
        small = build_bench_model(800, seed=2)
        big = build_bench_model(8000, seed=2)
        ns, nb = ngram_count(small), ngram_count(big)
        assert 0.3 * 800 <= ns <= 3 * 800
        assert 0.3 * 8000 <= nb <= 3 * 8000
        assert nb > 3 * ns

    @pytest.mark.parametrize("n_target,seed", [(100, 0), (900, 3), (5000, 1), (24000, 7)])
    def test_corpus_draws_match_rng_choice(self, n_target, seed):
        # the performance gate's data: the once-built cdf must draw exactly
        # what one Generator.choice(p=...) call per sentence draws
        vocab, got = bench_corpus(n_target, seed)
        n_types = len(vocab)
        weights = 1.0 / np.arange(1, n_types + 1) ** 1.05
        weights /= weights.sum()
        rng = np.random.default_rng(seed)
        want = []
        drawn = 0
        while drawn < max(n_target // 2, 60):
            length = int(rng.integers(8, 17))
            want.append([int(w) for w in rng.choice(n_types, size=length, p=weights)])
            drawn += length
        assert got == want
        assert all(type(w) is int for w in got[0])

    def test_build_too_small_faults(self):
        with pytest.raises(ValueError, match="target"):
            build_bench_model(50)

    def test_ngram_count_matches_enumeration(self):
        model = build_bench_model(500, seed=4)
        total = sum(
            sum(1 for _ in model.iter_ngrams(k)) for k in range(1, model.order + 1)
        )
        assert ngram_count(model) == total

    def test_bench_points(self):
        models = {
            "small": build_bench_model(600, seed=5),
            "big": build_bench_model(4000, seed=5),
        }
        points = bench_topr(models, r=20, n_queries=40, seed=0)
        assert [p.label for p in points] == ["small", "big"]
        assert all(p.mean_latency > 0 for p in points)
        assert all(p.n_queries == 40 and p.r == 20 for p in points)
        assert points[0].n_ngrams == ngram_count(models["small"])
        line = points[0].line()
        fields = dict(kv.split("=") for kv in line.split()[1:])
        assert fields["label"] == "small"
        assert float(fields["us_per_query"]) > 0
