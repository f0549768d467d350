"""Beam search against the exhaustive path-enumeration oracle, plus the
joint softmax, blank fallback, merge, and exit-rule mechanics."""

import heapq
import itertools
import math

import numpy as np
import pytest

from fntfuse import classlm, decoder, simulate
from fntfuse.classlm import enumerate_transitions, train_tagged_clm
from fntfuse.core import NEG_INF, ExternalLm, Vocabulary, log_softmax, log_sum_exp, top_ids
from fntfuse.decoder import EXIT_RULES, DecoderConfig, beam_search, blank_fallback
from fntfuse.evalmetrics import evaluate
from fntfuse.fusion import FusionConfig, clm_predictor_interp, three_way
from fntfuse.ngram import train_kneser_ney
from fntfuse.simulate import EncoderOutput, FntScorer, NgramPredictor

from helpers import decoder_joint
from oracles import exhaustive_decode, full_expansion_beam_search, mask_gated

SATURATE = 4096


def make_vocab(n):
    return Vocabulary([f"p{i}" for i in range(n)])


def make_ngram(rng, vocab, order=2, n_sentences=12):
    n = len(vocab)
    sentences = [
        [int(w) for w in rng.integers(0, n, size=rng.integers(1, 5))]
        for _ in range(n_sentences)
    ]
    return train_kneser_ney(sentences, order, vocab=vocab, eos=False)


def make_clm(rng, vocab, order=2):
    n = len(vocab)
    tokens = [vocab.token_of(i) for i in range(n)]
    entries = {
        "⟨X⟩": [
            ((tokens[0], tokens[1 % n]), 1.0),
            ((tokens[0],), 1.0),
        ]
    }
    if n >= 3:
        entries["⟨Y⟩"] = [((tokens[2],), 2.0), ((tokens[2], tokens[0]), 1.0)]
    corpus = []
    for _ in range(10):
        sent = [tokens[int(i)] for i in rng.integers(0, n, size=3)]
        sent[int(rng.integers(0, 3))] = "⟨X⟩" if rng.random() < 0.7 else tokens[0]
        corpus.append(sent)
    corpus.append(["⟨Y⟩"] if n >= 3 else ["⟨X⟩"])
    return train_tagged_clm(corpus, entries, order, vocab)


def make_encoder(rng, n_frames, n_vocab, peak=None):
    rows = []
    for t in range(n_frames):
        logits = rng.normal(size=n_vocab) * 1.5
        if peak is not None:
            logits[peak[t]] += 3.0
        rows.append(log_softmax(logits))
    blanks = rng.normal(size=n_frames) * 0.5
    return EncoderOutput(np.array(rows), blanks)


def make_instance(rng, n_vocab, n_frames, floor=0.05):
    vocab = make_vocab(n_vocab)
    predictor = NgramPredictor(make_ngram(rng, vocab), floor=floor)
    scorer = FntScorer(predictor, gamma=float(rng.choice([0.0, 0.5])))
    encoder = make_encoder(rng, n_frames, n_vocab)
    return vocab, scorer, encoder


def assert_matches_oracle(encoder, scorer, config, lm=None, clm=None, nbest=3):
    results, _ = beam_search(encoder, scorer, config, lm, clm)
    totals = exhaustive_decode(encoder, scorer, config, lm, clm)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    assert results[0].tokens == ranked[0][0]
    assert results[0].logscore == pytest.approx(ranked[0][1], abs=1e-9)
    for got, want in zip(results[:nbest], ranked[:nbest]):
        assert got.logscore == pytest.approx(want[1], abs=1e-9)
    return results, totals


class TestBlankFallback:
    def test_uniform(self):
        v = 5
        half = np.full(v, -math.log(v) / 2)
        got = blank_fallback(half, half, -math.log(v))
        assert got == pytest.approx(-math.log(v + 1), abs=1e-12)

    def test_strictly_below_one(self):
        got = blank_fallback(np.array([-2.0, NEG_INF]), np.zeros(2), 1.0)
        assert got < 0.0
        assert got == pytest.approx(1.0 - math.log(math.exp(-2.0) + math.e), abs=1e-12)

    def test_zero_mass_words_make_blank_certain(self):
        assert blank_fallback(np.full(2, NEG_INF), np.zeros(2), -3.0) == 0.0

    def test_three_word_numeric(self):
        z_t = np.array([math.log(0.5), math.log(0.3), math.log(0.2)])
        z_u = np.array([math.log(0.2), math.log(0.2), math.log(0.6)])
        raw = [0.5 * 0.2, 0.3 * 0.2, 0.2 * 0.6, 0.4]
        want = math.log(0.4 / sum(raw))
        got = blank_fallback(z_t, z_u, math.log(0.4))
        assert got == pytest.approx(want, abs=1e-12)

    def test_equals_append_then_log_sum_exp(self):
        rng = np.random.default_rng(55)
        for n in (1, 7, 300):
            z_t, z_u, b = rng.normal(size=n), rng.normal(size=n), float(rng.normal())
            z_u[::5] = NEG_INF
            want = b - log_sum_exp(np.append(z_t + z_u, b))
            assert blank_fallback(z_t, z_u, b) == want


class TestBeamVsExhaustive:
    def test_no_external_lm(self):
        rng = np.random.default_rng(12)
        config = DecoderConfig(beam=SATURATE, max_emit=2)
        for _ in range(8):
            n_vocab = int(rng.integers(2, 5))
            n_frames = int(rng.integers(1, 4))
            _, scorer, encoder = make_instance(rng, n_vocab, n_frames)
            assert_matches_oracle(encoder, scorer, config)

    def test_sparse_predictor_rows(self):
        rng = np.random.default_rng(13)
        config = DecoderConfig(beam=SATURATE, max_emit=2)
        for _ in range(4):
            _, scorer, encoder = make_instance(rng, 3, 3, floor=0.0)
            assert_matches_oracle(encoder, scorer, config)

    def test_dense_fusion_methods(self):
        rng = np.random.default_rng(14)
        for method in ("sf", "li", "lli", "cli"):
            vocab, scorer, encoder = make_instance(rng, 3, 2)
            lm = NgramPredictor(make_ngram(rng, vocab, order=2))
            config = DecoderConfig(
                beam=SATURATE,
                fusion=FusionConfig(method, 0.25, rank_r=2),
                max_emit=2,
            )
            assert_matches_oracle(encoder, scorer, config, lm=lm)

    def test_clm_fusion(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            n_vocab = int(rng.integers(2, 4))
            vocab, scorer, encoder = make_instance(rng, n_vocab, 2)
            clm = make_clm(rng, vocab)
            config = DecoderConfig(
                beam=SATURATE,
                fusion=FusionConfig("clm", 0.5, rank_r=2),
                max_emit=2,
            )
            assert_matches_oracle(encoder, scorer, config, clm=clm)

    def test_three_way_fusion(self):
        rng = np.random.default_rng(16)
        vocab, scorer, encoder = make_instance(rng, 3, 2)
        lm = NgramPredictor(make_ngram(rng, vocab))
        clm = make_clm(rng, vocab)
        config = DecoderConfig(
            beam=SATURATE,
            fusion=FusionConfig(
                "li", 0.1, rank_r=2, second_method="clm", second_alpha=0.5
            ),
            max_emit=2,
        )
        assert_matches_oracle(encoder, scorer, config, lm=lm, clm=clm)

    def test_gated_clm_fusion(self):
        # the r' gate makes transitions and fused rows depend on the frame
        rng = np.random.default_rng(18)
        for fusion in (
            FusionConfig("clm", 0.5, rank_r=2),
            FusionConfig("li", 0.1, rank_r=2, second_method="clm", second_alpha=0.5),
        ):
            for rprime in (1, 2):
                vocab, scorer, encoder = make_instance(rng, 3, 2)
                lm = NgramPredictor(make_ngram(rng, vocab))
                clm = make_clm(rng, vocab)
                config = DecoderConfig(
                    beam=SATURATE, fusion=fusion, rank_rprime=rprime, max_emit=2
                )
                assert_matches_oracle(encoder, scorer, config, lm=lm, clm=clm)

    def test_max_emit_three(self):
        rng = np.random.default_rng(17)
        config = DecoderConfig(beam=SATURATE, max_emit=3)
        _, scorer, encoder = make_instance(rng, 2, 3)
        results, totals = assert_matches_oracle(encoder, scorer, config)
        cap = config.max_emit * encoder.n_frames
        assert all(len(tokens) <= cap for tokens in totals)
        assert any(len(tokens) == cap for tokens in totals)
        assert all(len(r.tokens) <= cap for r in results)


def make_tie_instance(rng, n_vocab, n_frames):
    """Scorer, external LM and encoder whose children tie often.

    Encoder rows take two logit levels and both LMs are bigram models of
    one sentence holding every word once, so most words share a
    predictor score. Blank is cheap only after an emission.
    """
    vocab = make_vocab(n_vocab)

    def permutation_lm():
        sentence = [int(w) for w in rng.permutation(n_vocab)]
        return train_kneser_ney([sentence], 2, vocab=vocab, eos=False)

    scorer = FntScorer(NgramPredictor(permutation_lm(), floor=0.05), gamma=3.0)
    rows = [log_softmax(rng.integers(0, 2, size=n_vocab) * 3.0) for _ in range(n_frames)]
    encoder = EncoderOutput(np.array(rows), rng.integers(-6, -3, size=n_frames) * 1.0)
    return vocab, scorer, NgramPredictor(permutation_lm()), encoder


class _UniformLm(ExternalLm):
    """A predictor that gives every word the same log-probability."""

    def __init__(self, n_words):
        self.row = np.full(n_words, -math.log(n_words))
        self.row.setflags(write=False)

    def initial_state(self):
        return ()

    def advance(self, state, token_id):
        return state + (token_id,)

    def full_dist(self, state):
        return self.row

    def top_r(self, state, r):
        raise NotImplementedError


def make_mirrored_instance(rng, n_vocab, n_frames):
    """Scorer, external LM, class model and encoder that are the same
    under swapping two words and the two classes.

    A random tagged corpus is joined by its image under that swap, both
    classes hold one single-word entry, the scorer and LM are uniform,
    and the encoder scores the two words alike. So a word entered
    through one class and its twin through the other score alike, and
    children of the two parents merge with their operands swapped and
    tie exactly. The instance is built so that such twin merges happen
    at a wide enough beam:
    - the swapped words are channels 0 and 1, the first two terms of
      every sum, so the two parents' rows normalize to the same floats;
    - no two tags are adjacent, so a class goes to either class at one
      probability;
    - the corpus gains "⟨X⟩ p1" six times and "⟨X⟩ p0" three times, so
      the swapped operands differ and the twin merges' winners differ;
    - the first frame favours the entry word and the swapped words.
    """
    vocab = make_vocab(n_vocab)
    tokens = list(vocab)
    a, b = 0, 1
    swap = {tokens[a]: tokens[b], tokens[b]: tokens[a], "⟨X⟩": "⟨Y⟩", "⟨Y⟩": "⟨X⟩"}
    tags = {"⟨X⟩", "⟨Y⟩"}
    pieces = tokens + sorted(tags)
    w = int(rng.integers(n_vocab))
    entry = [((tokens[w],), 1.0)]
    corpus = []
    for _ in range(int(rng.integers(3, 7))):
        sent = [pieces[int(i)] for i in rng.integers(0, len(pieces), size=rng.integers(1, 4))]
        corpus.append([p for q, p in zip([None, *sent], sent) if {q, p} - tags])
    corpus += [["⟨X⟩", tokens[b]], ["⟨X⟩", tokens[b]], ["⟨X⟩", tokens[a]]] * 3
    corpus += [[swap.get(p, p) for p in sent] for sent in corpus]
    clm = train_tagged_clm(corpus, {"⟨X⟩": entry, "⟨Y⟩": entry}, 2, vocab)
    scorer = FntScorer(_UniformLm(n_vocab), gamma=float(rng.choice([0.0, 3.0])))
    rows = rng.integers(0, 2, size=(n_frames, n_vocab)) * 3.0
    rows[0, [w, a]] = 3.0
    rows[:, b] = rows[:, a]
    encoder = EncoderOutput(
        np.array([log_softmax(r) for r in rows]), rng.integers(-6, -3, size=n_frames) * 1.0
    )
    return scorer, _UniformLm(n_vocab), clm, encoder


PRUNING_CASES = {
    "none": FusionConfig(),
    "sf": FusionConfig("sf", 0.25),
    "li": FusionConfig("li", 0.25),
    "lli": FusionConfig("lli", 0.25),
    "cli": FusionConfig("cli", 0.25, rank_r=2),
    "clm": FusionConfig("clm", 0.5, rank_r=2),
    "three-way": FusionConfig("li", 0.1, rank_r=2, second_method="clm", second_alpha=0.5),
}


# (V, T) of the tie instances the class-model cases also merge on
SIZES = [(5, 4)] * 5 + [(3, 6), (8, 3), (6, 5)]


def count_merges(monkeypatch) -> dict:
    """Counts, over the decodes that follow, the expansions that found a
    merge target in A, the children that merged into a target, the
    merge-path sorts of A that leave two neighbours at exactly one score
    with different ``seq``, an order only the creation number decides,
    and the twin merges: those whose two scores another merge of the
    same expansion met swapped."""
    counts = {"targets": 0, "merged": 0, "seq_ties": 0, "twins": 0}
    find, merge, merge_children = decoder._merge_targets, decoder._merge, decoder._merge_children
    met = set()  # (held, child) scores of the expansion's merges

    def targets(A, best):
        out = find(A, best)
        counts["targets"] += bool(out)
        return out

    def merged(held, entry):
        counts["merged"] += type(entry) is decoder._Pending
        scores = (held.logscore, entry.logscore)
        counts["twins"] += scores[0] != scores[1] and scores[::-1] in met
        met.add(scores)
        return merge(held, entry)

    def sorted_merge(A, *args):
        met.clear()
        out = merge_children(A, *args)
        counts["seq_ties"] += any(
            a.logscore == b.logscore and a.seq != b.seq for a, b in zip(A, A[1:])
        )
        return out

    monkeypatch.setattr(decoder, "_merge_targets", targets)
    monkeypatch.setattr(decoder, "_merge", merged)
    monkeypatch.setattr(decoder, "_merge_children", sorted_merge)
    return counts


class TestPruningVsFullExpansion:
    """Unsaturated beams against the build-every-child reference loop:
    building only the children that can survive must not change a bit
    of the result."""

    @pytest.mark.parametrize("name", list(PRUNING_CASES))
    def test_identical_to_full_expansion(self, name, monkeypatch):
        fusion = PRUNING_CASES[name]
        # require-cat1 and the r' gate are refused without a class model
        rules = ("standard", "require-cat1") if fusion.uses_clm else ("standard",)
        rprimes = (None, 1, 2, 3) if fusion.uses_clm else (None,)
        merges = count_merges(monkeypatch)
        rng = np.random.default_rng(30)
        ties = pop_ties = 0
        width = dict.fromkeys(rprimes, 0)
        for n_vocab, n_frames in SIZES:
            vocab, scorer, lm, encoder = make_tie_instance(rng, n_vocab, n_frames)
            clm = make_clm(rng, vocab)
            for beam in (1, 2, 3, 4):
                for rule in rules:
                    for rprime in rprimes:
                        config = DecoderConfig(
                            beam=beam, fusion=fusion, exit_rule=rule, max_emit=2,
                            rank_rprime=rprime,
                        )
                        got, got_stats = beam_search(encoder, scorer, config, lm, clm)
                        stats = {}
                        want = full_expansion_beam_search(
                            encoder, scorer, config, lm, clm, stats
                        )
                        ties += stats["edge_ties"]
                        pop_ties += stats["pop_ties"]
                        width[rprime] += got_stats.total_width
                        assert [
                            (r.tokens, r.logscore, r.steps, r.merged) for r in got
                        ] == want
                        assert got_stats.n_expansions == stats["expansions"]
        assert ties > 0  # the cases reach ties at the beam edge
        if not fusion.uses_clm:
            assert pop_ties > 0  # and ties for the top of A at a pop
        else:
            assert width[1] < width[None]  # gated views drop transitions
            # children of a parent whose prefix id and k an earlier
            # expansion had find merge targets in A and merge into them
            assert merges["targets"] > 0 and merges["merged"] > 0

    def test_identical_to_full_expansion_with_class_model_pop_ties(self):
        # class-model children tie for the top of A and merge into it; a
        # pop must still take the first top entry, the one max returns
        rng = np.random.default_rng(31)
        pop_ties = merged = 0
        for _ in range(3):
            vocab, scorer, lm, encoder = make_tie_instance(rng, 8, 6)
            clm = make_clm(rng, vocab)
            for beam in (1, 2, 3, 4):
                for rule in ("standard", "require-cat1"):
                    config = DecoderConfig(
                        beam=beam, fusion=FusionConfig("clm", 0.5, rank_r=1),
                        exit_rule=rule, max_emit=2,
                    )
                    got, _ = beam_search(encoder, scorer, config, lm, clm)
                    stats = {}
                    want = full_expansion_beam_search(
                        encoder, scorer, config, lm, clm, stats
                    )
                    pop_ties += stats["pop_ties"]
                    merged += sum(r.merged for r in got)
                    assert [
                        (r.tokens, r.logscore, r.steps, r.merged) for r in got
                    ] == want
        assert pop_ties > 0 and merged > 0

    @pytest.mark.parametrize("name", ["none", "li", "clm", "three-way"])
    def test_identical_to_full_expansion_when_merges_reorder_a(self, name, monkeypatch):
        # three words under beams wider than an expansion's children: A
        # holds children of several expansions uncut, a merge raises an
        # entry past others, and with clm some leave two entries tied
        # exactly, which only their creation numbers order (three-way's
        # LM scores leave no such tie here)
        fusion = PRUNING_CASES[name]
        merges = count_merges(monkeypatch)
        rng = np.random.default_rng(32)
        for _ in range(4):
            vocab, scorer, lm, encoder = make_tie_instance(rng, 3, 5)
            clm = make_clm(rng, vocab)
            for beam in (4, 6, 8, 12):
                config = DecoderConfig(beam=beam, fusion=fusion, max_emit=2)
                got, _ = beam_search(encoder, scorer, config, lm, clm)
                want = full_expansion_beam_search(encoder, scorer, config, lm, clm)
                assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
        if fusion.uses_clm:
            assert merges["merged"] > 0
        if name == "clm":
            assert merges["seq_ties"] > 0

    @pytest.mark.parametrize("beam", [32, 40])
    def test_identical_to_full_expansion_when_symmetric_merges_tie(self, beam, monkeypatch):
        # four classes, two over each word, in a symmetric corpus: the
        # frame's children tie, pairs of them share a prefix id and k,
        # and their merges raise entries in turn until two tie exactly,
        # which only their creation numbers order; the reference also
        # cuts A between equal scores, which the same key decides
        merges = count_merges(monkeypatch)
        vocab = make_vocab(2)
        entries = {
            "⟨A⟩": [(("p0",), 1.0)], "⟨B⟩": [(("p1",), 1.0)],
            "⟨C⟩": [(("p1",), 1.0)], "⟨D⟩": [(("p0",), 1.0)],
        }
        tokens = ["p0", "p1", *entries]
        corpus = [[a, b] for a in tokens for b in tokens]
        clm = train_tagged_clm(corpus, entries, 2, vocab)
        scorer = FntScorer(_UniformLm(2))
        encoder = EncoderOutput(np.full((2, 2), -math.log(2)), np.full(2, -8.0))
        expanded = []
        expand = decoder._FrameScorer.expand

        def recorded(self, hyp, t, z_t_row, blank_logit):
            expanded.append((t, hyp.pred_state, hyp.clm_state, hyp.k))
            return expand(self, hyp, t, z_t_row, blank_logit)

        monkeypatch.setattr(decoder._FrameScorer, "expand", recorded)
        for max_emit in (2, 3):
            config = DecoderConfig(
                beam=beam, fusion=FusionConfig("clm", 0.5, rank_r=2), max_emit=max_emit
            )
            got, _ = beam_search(encoder, scorer, config, None, clm)
            pops, expanded[:] = expanded[:], []
            stats = {}
            want = full_expansion_beam_search(encoder, scorer, config, None, clm, stats)
            assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
            assert pops == expanded  # every pop takes the reference's entry
            assert stats["edge_ties"] > 0
            expanded.clear()
        assert merges["seq_ties"] > 0

    # at beam 26 a child that merged and won keeps the held entry's
    # number into a later merge-path sort of the frame
    @pytest.mark.parametrize(
        "n_frames, gamma, beam, max_emit",
        [(1, 0.0, 8, 3), (2, 3.0, 7, 2), (2, 3.0, 8, 2), (2, 3.0, 26, 2)],
    )
    def test_identical_to_full_expansion_when_mirrored_merges_tie(
        self, n_frames, gamma, beam, max_emit, monkeypatch
    ):
        # p0 enters class A or D at one score, and the corpus is the same
        # under swapping p0 with p1 and A with D. The two parents' rows
        # differ by swapping their first two entries, so they normalize
        # alike, and the second parent's children merge into the first
        # one's p0 and p1 children with the operands swapped: the two
        # then tie exactly, p1 ahead before the merge. Only the held
        # entry's seq, one per channel, puts p0 first, as the reference
        # ranks it
        merges = count_merges(monkeypatch)
        vocab = make_vocab(2)
        entries = {"⟨A⟩": [(("p0",), 1.0)], "⟨D⟩": [(("p0",), 1.0)]}
        corpus = [
            ["⟨A⟩", "p1"], ["⟨A⟩", "p1"], ["⟨A⟩", "p0"],
            ["⟨D⟩", "p0"], ["⟨D⟩", "p0"], ["⟨D⟩", "p1"],
            ["p0", "p0", "p1"], ["p1", "p1", "p0"],
        ]
        clm = train_tagged_clm(corpus, entries, 2, vocab)
        scorer = FntScorer(_UniformLm(2), gamma=gamma)
        encoder = EncoderOutput(np.full((n_frames, 2), -math.log(2)), np.full(n_frames, -8.0))
        config = DecoderConfig(
            beam=beam, fusion=FusionConfig("clm", 0.9, rank_r=2), max_emit=max_emit
        )
        got, _ = beam_search(encoder, scorer, config, None, clm)
        want = full_expansion_beam_search(encoder, scorer, config, None, clm)
        assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
        assert merges["seq_ties"] > 0

    @pytest.mark.parametrize("name", list(PRUNING_CASES))
    def test_identical_to_full_expansion_on_wider_beams(self, name):
        # eight words, six frames and three emissions per frame: a
        # merge of ranked children cut at beams 2-6 meets ties at the
        # edge and at the top of A
        fusion = PRUNING_CASES[name]
        rng = np.random.default_rng(33)
        ties = pop_ties = 0
        for _ in range(2):
            vocab, scorer, lm, encoder = make_tie_instance(rng, 8, 6)
            clm = make_clm(rng, vocab)
            for beam in range(2, 7):
                config = DecoderConfig(beam=beam, fusion=fusion, max_emit=3)
                got, got_stats = beam_search(encoder, scorer, config, lm, clm)
                stats = {}
                want = full_expansion_beam_search(encoder, scorer, config, lm, clm, stats)
                ties += stats["edge_ties"]
                pop_ties += stats["pop_ties"]
                assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
                assert got_stats.n_expansions == stats["expansions"]
        assert ties > 0 and pop_ties > 0

    @pytest.mark.parametrize("beam", [1, 2, 3, 5])
    def test_identical_to_full_expansion_when_every_score_ties(self, beam):
        # every word and blank has one posterior at every step: each pop
        # and each cut ties, and B's beam-th best ties with the top of A
        n = 3
        scorer = FntScorer(_UniformLm(n))
        encoder = EncoderOutput(np.full((4, n), -math.log(n)), np.full(4, -2.0 * math.log(n)))
        config = DecoderConfig(beam=beam, max_emit=2)
        got, got_stats = beam_search(encoder, scorer, config)
        stats = {}
        want = full_expansion_beam_search(encoder, scorer, config, stats=stats)
        assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
        assert got_stats.n_expansions == stats["expansions"]
        if beam > 1:  # at beam 1, A holds one entry at a pop
            assert stats["pop_ties"] > 0

    @pytest.mark.parametrize("name", ["none", "cli", "clm", "three-way"])
    def test_identical_to_full_expansion_on_long_utterances(self, name):
        # T~150-200: the prefix ids and step back-pointers must rebuild
        # long token and step sequences exactly
        fusion = PRUNING_CASES[name]
        rng = np.random.default_rng(61)
        vocab, scorer, _ = make_instance(rng, 6, 1)
        lm = NgramPredictor(make_ngram(rng, vocab))
        clm = make_clm(rng, vocab)
        parts = [
            make_encoder(rng, n, 6, peak=rng.integers(0, 6, size=n))
            for n in rng.integers(4, 9, size=28).tolist()
        ]
        encoder = EncoderOutput(
            np.concatenate([e.scores for e in parts]),
            np.concatenate([e.blank_logits for e in parts]) - 6.0,  # emissions win often
        )
        assert 150 <= encoder.n_frames <= 200
        config = DecoderConfig(beam=4, fusion=fusion, max_emit=2)
        got, _ = beam_search(encoder, scorer, config, lm, clm)
        want = full_expansion_beam_search(encoder, scorer, config, lm, clm)
        assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
        assert min(len(r.tokens) for r in got) > 25
        assert min(len(r.steps) for r in got) >= encoder.n_frames

    def test_identical_to_full_expansion_on_seeded_tie_fuzz(self, monkeypatch):
        # random tie instances, V 3-8 and T 3-6, each decoded at three
        # beams drawn from 1-16 with and without class models: merges
        # occur, and some leave ties that only creation numbers order
        merges = count_merges(monkeypatch)
        cases = [("none", "standard")] + [
            (name, rule) for name in ("clm", "three-way") for rule in EXIT_RULES
        ]
        rng = np.random.default_rng(70)
        for _ in range(32):
            n_vocab, n_frames = int(rng.integers(3, 9)), int(rng.integers(3, 7))
            vocab, scorer, lm, encoder = make_tie_instance(rng, n_vocab, n_frames)
            clm = make_clm(rng, vocab)
            for name, rule in cases:
                for beam in rng.integers(1, 17, size=3).tolist():
                    config = DecoderConfig(
                        beam=beam, fusion=PRUNING_CASES[name], exit_rule=rule,
                        max_emit=int(rng.integers(2, 4)),
                    )
                    got, got_stats = beam_search(encoder, scorer, config, lm, clm)
                    stats = {}
                    want = full_expansion_beam_search(encoder, scorer, config, lm, clm, stats)
                    assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
                    assert got_stats.n_expansions == stats["expansions"]
        assert merges["merged"] > 0 and merges["seq_ties"] > 0
        # mirrored instances, V 2-5 and T 1-3, at beams drawn from 1-40:
        # twin children merge and tie exactly, so A's order on those ties
        # is the creation number's and the ranked children's alone
        seq_ties = merges["seq_ties"]
        rng = np.random.default_rng(73)
        for _ in range(16):
            twins = merges["twins"]
            n_vocab, n_frames = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            scorer, lm, clm, encoder = make_mirrored_instance(rng, n_vocab, n_frames)
            for name, rule in cases[1:]:
                for beam in rng.integers(1, 41, size=3).tolist():
                    config = DecoderConfig(
                        beam=beam, fusion=PRUNING_CASES[name], exit_rule=rule,
                        max_emit=int(rng.integers(2, 4)),
                    )
                    got, _ = beam_search(encoder, scorer, config, lm, clm)
                    want = full_expansion_beam_search(encoder, scorer, config, lm, clm)
                    assert [(r.tokens, r.logscore, r.steps, r.merged) for r in got] == want
            assert merges["twins"] > twins  # every instance merges twins
        assert merges["seq_ties"] > seq_ties

    @pytest.mark.parametrize("name", list(PRUNING_CASES))
    def test_popped_children_are_a_share_of_those_recorded(self, name):
        rng = np.random.default_rng(62)
        vocab, scorer, lm, encoder = make_tie_instance(rng, 8, 5)
        clm = make_clm(rng, vocab)
        config = DecoderConfig(beam=3, fusion=PRUNING_CASES[name], max_emit=2)
        _, stats = beam_search(encoder, scorer, config, lm, clm)
        assert 0 < stats.n_popped_children <= stats.n_children
        # a popped child was read by the merge that entered it into A
        assert stats.n_popped_children <= stats.n_ranked_children <= stats.n_children

    @pytest.mark.parametrize("method", ["none", "cli"])
    def test_dense_decode_builds_at_most_beam_children(self, method):
        rng = np.random.default_rng(31)
        vocab, scorer, encoder = make_instance(rng, 12, 4)
        lm = NgramPredictor(make_ngram(rng, vocab))
        config = DecoderConfig(
            beam=3, fusion=FusionConfig(method, 0.25, rank_r=4), max_emit=2
        )
        _, stats = beam_search(encoder, scorer, config, lm)
        assert stats.total_width == 12 * stats.n_expansions
        assert 0 < stats.n_children <= config.beam * stats.n_expansions

    @pytest.mark.parametrize("name", ["clm", "three-way"])
    def test_clm_decode_builds_few_children(self, name, monkeypatch):
        rng = np.random.default_rng(37)
        vocab, scorer, lm, encoder = make_tie_instance(rng, 8, 5)
        clm = make_clm(rng, vocab)
        merging = []
        siblings = decoder._merge_siblings

        def counted(*args):
            out = siblings(*args)
            merging.append(out.size)
            return out

        monkeypatch.setattr(decoder, "_merge_siblings", counted)
        config = DecoderConfig(beam=3, fusion=PRUNING_CASES[name], max_emit=2)
        _, stats = beam_search(encoder, scorer, config, lm, clm)
        assert sum(merging) > 0  # some children are built only to merge
        assert 0 < stats.n_children < stats.total_width
        assert stats.n_children <= config.beam * stats.n_expansions + sum(merging)


# (n_expansions, n_children, n_popped_children, n_extra_expansions,
# total_width) of one seeded decode per method: how A is kept may not
# change which entries are popped, selected or built
GOLDEN_COUNTERS = {
    "none": (34, 96, 18, 0, 272),
    "sf": (37, 102, 22, 0, 296),
    "li": (35, 99, 19, 0, 280),
    "lli": (35, 99, 19, 0, 280),
    "cli": (35, 96, 20, 0, 280),
    "clm": (37, 99, 21, 0, 374),
    "three-way": (37, 99, 21, 0, 375),
}


@pytest.mark.parametrize("name", list(PRUNING_CASES))
def test_golden_counters(name):
    rng = np.random.default_rng(64)
    vocab, scorer, lm, encoder = make_tie_instance(rng, 8, 6)
    clm = make_clm(rng, vocab)
    fusion = PRUNING_CASES[name]
    rule = "require-cat1" if fusion.uses_clm else "standard"
    config = DecoderConfig(beam=3, fusion=fusion, max_emit=2, exit_rule=rule)
    _, stats = beam_search(encoder, scorer, config, lm, clm)
    got = (
        stats.n_expansions, stats.n_children, stats.n_popped_children,
        stats.n_extra_expansions, stats.total_width,
    )
    assert got == GOLDEN_COUNTERS[name]


class TestChildSelection:
    """``top_ids`` against ``heapq.nlargest`` over the finite indices,
    and the decoder's ranked children against ``top_ids``, exactly, on
    rows with ties at the cut and -inf entries scattered through them."""

    @staticmethod
    def rows(beam):
        """(scores, finite ids) of three-level rows: n finite entries
        below, at and above ``beam``, and none, among 0, 1 or 9 -inf."""
        rng = np.random.default_rng(51)
        for n_finite in sorted({max(beam - 1, 0), beam, beam + 1, 8 * beam + 5, 0}):
            for n_dead in (0, 1, 9):
                for _ in range(40):
                    scores = np.full(n_finite + n_dead, NEG_INF)
                    live = rng.permutation(scores.size)[:n_finite]
                    # three levels: ties at the cut are common
                    scores[live] = rng.integers(0, 3, size=n_finite) * 0.5 - 7.0
                    yield scores, np.flatnonzero(scores > NEG_INF).tolist()

    @pytest.mark.parametrize("beam", [1, 2, 4, 7])
    def test_matches_nlargest_over_finite_indices(self, beam):
        tied_cuts = 0
        for scores, finite in self.rows(beam):
            want = sorted(heapq.nlargest(beam, finite, key=lambda i: scores[i]))
            keep = top_ids(scores, beam)
            assert keep.dtype.kind == "i"
            assert keep.tolist() == want
            ranked = sorted(scores[finite], reverse=True)
            if len(finite) > beam and ranked[beam - 1] == ranked[beam]:
                tied_cuts += 1
        assert tied_cuts > 0  # the rows reach ties at the cut

    @pytest.mark.parametrize("beam", [1, 2, 4, 7])
    def test_ranked_children_are_top_ids_by_score_then_channel(self, beam):
        # each prefix the merge can stop at: the top_ids children ranked
        # by (-score, channel), their posteriors, and -inf written over
        # exactly the channels read
        tied = 0
        for scores, _ in self.rows(beam):
            if not scores.size:  # an expansion with no channel ranks nothing
                continue
            posts = scores - 1.5
            keep = top_ids(scores, beam).tolist()
            want = sorted(((scores[i], i, posts[i]) for i in keep), key=lambda c: (-c[0], c[1]))
            tied += any(a[0] == b[0] for a, b in zip(want, want[1:]))
            for n in range(len(want) + 1):
                row = scores.copy()
                got = list(itertools.islice(decoder._ranked_children(row, posts, beam), n))
                assert got == want[:n]
                assert all(type(x) is t for c in got for x, t in zip(c, (float, int, float)))
                read = [i for _, i, _ in got]
                assert np.all(row[read] == NEG_INF)
                rest = np.setdiff1d(np.arange(row.size), read)
                assert np.array_equal(row[rest], scores[rest])
            assert list(decoder._ranked_children(scores.copy(), posts, beam)) == want
        # ties among the ranked children, which channel orders
        assert tied > 0 or beam == 1


def _joint_cases():
    """(z_t, z_u, blank) inputs of a bare joint: no fusion, the
    predictor row as given."""
    v = 4
    cases = {
        "joint-uniform": (np.full(v, -math.log(v)), np.full(v, -math.log(v)), -2.0 * math.log(v)),
        "joint-three-word": (
            np.array([math.log(0.5), math.log(0.3), math.log(0.2)]),
            np.array([math.log(0.1), math.log(0.6), math.log(0.3)]),
            math.log(0.25),
        ),
    }
    rng = np.random.default_rng(11)
    cases["joint-random-5"] = (rng.normal(size=5), rng.normal(size=5), -1.0)
    rng = np.random.default_rng(54)
    for n in (1, 7, 300):
        z_t, z_u, b = rng.normal(size=n), rng.normal(size=n), float(rng.normal())
        z_u[::5] = NEG_INF
        cases[f"joint-dead-{n}"] = (z_t, z_u, b)
    return cases


JOINT_CASES = _joint_cases()


class TestExpand:
    """``_FrameScorer.expand`` against the construction it replaced: the
    joint row with blank appended, normalized by one log-softmax. The
    fused rows are written out here as formulas, so a fault in the
    fusion operators the decoder calls shows as a mismatch. The
    ``joint-*`` cases feed the bare joint chosen rows and check it in
    the probability domain too."""

    @staticmethod
    def check_bare_joint(z_t, z_u, b):
        posts, blank_post = decoder_joint(z_t, z_u, b)
        got = np.append(posts, blank_post)
        assert np.array_equal(got, log_softmax(np.append(z_t + z_u, b)))
        raw = np.exp(np.append(z_t + z_u, b))
        np.testing.assert_allclose(np.exp(got), raw / raw.sum(), rtol=0, atol=1e-12)
        # a common shift of the encoder row and blank cancels; the
        # encoder row shifted alone moves blank, unless no word is live
        shifted = np.append(*decoder_joint(z_t + 0.7, z_u, b + 0.7))
        np.testing.assert_allclose(shifted, got, atol=1e-12)
        moved = decoder_joint(z_t + 0.7, z_u, b)[1]
        assert (abs(moved - blank_post) > 1e-6) == bool(np.isfinite(z_u).any())

    @staticmethod
    def reference(fusion, scorer, lm, clm, hyp, z_t, blank_logit):
        def li(z, logp, a):  # log(a * exp(logp) + (1 - a) * exp(z)), 0 < a < 1
            return np.logaddexp(math.log(a) + logp, math.log1p(-a) + z)

        z_u = scorer.predictor.full_dist(hyp.pred_state)
        b = scorer.blank_score(blank_logit, hyp.k)
        lm_row = lm.full_dist(hyp.lm_state)
        method, a = fusion.method, fusion.alpha
        if method == "clm" or fusion.second_method == "clm":
            trans = enumerate_transitions(clm, hyp.clm_state)
            if method == "clm":
                row = z_u[trans.word]
            else:
                row, a = li(z_u, lm_row, a)[trans.word], fusion.second_alpha
            for block in (trans.cat1_gate(fusion.rank_r), trans.cat2):
                row[block] = li(row[block], trans.logprob[block], a)
            row[trans.cat3] = trans.logprob[trans.cat3]
            words, joint = trans.word, z_t[trans.word] + row
        else:
            words = np.arange(z_u.size)
            if method == "none":
                joint = z_t + z_u
            elif method == "sf":
                joint = a * lm_row + (1.0 - a) * (z_t + z_u)
            elif method == "li":
                joint = z_t + li(z_u, lm_row, a)
            elif method == "lli":
                joint = z_t + (a * lm_row + (1.0 - a) * z_u)
            else:
                ids = lm.top_r(hyp.lm_state, fusion.rank_r)
                row = z_u.copy()
                row[ids] = li(z_u[ids], lm_row[ids], a)
                joint = z_t + row
        posts = log_softmax(np.append(joint, b))
        return words, posts[:-1], float(posts[-1])

    @pytest.mark.parametrize("name", list(PRUNING_CASES) + list(JOINT_CASES))
    def test_matches_append_then_softmax(self, name):
        if name in JOINT_CASES:
            self.check_bare_joint(*JOINT_CASES[name])
            return
        fusion = PRUNING_CASES[name]
        rng = np.random.default_rng(52)
        vocab, scorer, encoder = make_instance(rng, 6, 3)
        lm = NgramPredictor(make_ngram(rng, vocab))
        clm = make_clm(rng, vocab)
        config = DecoderConfig(fusion=fusion)
        use_clm = fusion.method == "clm" or fusion.second_method == "clm"
        fs = decoder._FrameScorer(scorer, config, lm, clm if use_clm else None)
        got, want = [], []
        for _ in range(6):
            pred, lms, clms = scorer.predictor.initial_state(), lm.initial_state(), clm.initial_state()
            for depth in range(3):
                for t in range(encoder.n_frames):
                    hyp = _Stub(pred, lms, clms if use_clm else None, depth % 2)
                    z_t, blank_logit = encoder.scores[t], float(encoder.blank_logits[t])
                    words, _, posts, blank_post = fs.expand(hyp, t, z_t, blank_logit)
                    if got:  # the previous result survives this expansion
                        assert np.array_equal(got[-1][1], got[-1][3])
                    got.append((words, posts, blank_post, posts.copy()))
                    want.append(self.reference(fusion, scorer, lm, clm, hyp, z_t, blank_logit))
                trans = enumerate_transitions(clm, clms)
                i = int(rng.integers(len(trans)))
                word = int(trans.word[i])
                pred, lms = scorer.predictor.advance(pred, word), lm.advance(lms, word)
                clms = trans.successor(clms, i)
        for (words, posts, blank_post, snapshot), (w_words, w_posts, w_blank) in zip(got, want):
            assert np.array_equal(words, w_words)
            assert np.array_equal(posts, w_posts)
            assert np.array_equal(posts, snapshot)  # no later expand wrote over it
            assert blank_post == w_blank

    @pytest.mark.parametrize("name", ["none", "sf", "cli"])
    def test_dense_word_index_is_shared_and_read_only(self, name):
        rng = np.random.default_rng(56)
        vocab, scorer, encoder = make_instance(rng, 5, 2)
        lm = NgramPredictor(make_ngram(rng, vocab))
        fs = decoder._FrameScorer(scorer, DecoderConfig(fusion=PRUNING_CASES[name]), lm, None)
        pred, lms = scorer.predictor.initial_state(), lm.initial_state()
        first = fs.expand(_Stub(pred, lms, None, 0), 0, encoder.scores[0], 0.0)[0]
        pred, lms = scorer.predictor.advance(pred, 3), lm.advance(lms, 3)
        second = fs.expand(_Stub(pred, lms, None, 1), 1, encoder.scores[1], 0.0)[0]
        assert second is first
        assert first.tolist() == list(range(5))
        with pytest.raises(ValueError, match="read-only"):
            first[:1] = 0

    def test_dead_end_prices_blank_like_blank_fallback(self):
        vocab = make_vocab(4)
        model = train_tagged_clm(
            [["⟨X⟩", "p3"], ["p3", "⟨X⟩"], ["p3"]],
            {"⟨X⟩": [(("p0", "p1", "p2"), 1.0)]},
            2,
            vocab,
        )
        rng = np.random.default_rng(57)
        scorer = FntScorer(NgramPredictor(make_ngram(rng, vocab), floor=0.3), gamma=0.5)
        config = DecoderConfig(fusion=FusionConfig("clm", 0.9, rank_r=4), rank_rprime=1)
        trans = enumerate_transitions(model, model.initial_state())
        enter = [
            i for i in range(len(trans))
            if trans.category[i] == classlm.CAT2 and trans.word[i] == 0
        ]
        # after p0: only p1 continues, no exit
        inside = trans.successor(model.initial_state(), enter[0])
        z_t = log_softmax(np.array([0.0, -6.0, -6.0, -6.0]))  # the r' gate drops p1
        pred = scorer.predictor.initial_state()
        fs = decoder._FrameScorer(scorer, config, None, model)
        _, got, posts, blank_post = fs.expand(_Stub(pred, None, inside, 1), 0, z_t, -2.0)
        assert len(got) == 0 and posts.size == 0
        z_u = scorer.predictor.full_dist(pred)
        assert blank_post == blank_fallback(z_t, z_u, scorer.blank_score(-2.0, 1))


class TestBeamProperties:
    def test_monotone_in_beam_width(self):
        rng = np.random.default_rng(18)
        _, scorer, encoder = make_instance(rng, 4, 3)
        config = lambda b: DecoderConfig(beam=b, max_emit=2)
        scores = [
            beam_search(encoder, scorer, config(b))[0][0].logscore
            for b in (1, 2, 4, 8, 64)
        ]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 1e-12

    def test_alpha_zero_matches_no_lm(self):
        rng = np.random.default_rng(19)
        vocab, scorer, encoder = make_instance(rng, 4, 3)
        lm = NgramPredictor(make_ngram(rng, vocab))
        plain, _ = beam_search(encoder, scorer, DecoderConfig(beam=8, max_emit=2))
        for method in ("sf", "li", "lli", "cli"):
            fused, _ = beam_search(
                encoder,
                scorer,
                DecoderConfig(beam=8, fusion=FusionConfig(method, 0.0, rank_r=2), max_emit=2),
                external_lm=lm,
            )
            assert [r.tokens for r in fused[:3]] == [r.tokens for r in plain[:3]]
            for a, b in zip(fused[:3], plain[:3]):
                assert a.logscore == pytest.approx(b.logscore, abs=1e-12)

    def test_blank_only_frames_freeze_states(self):
        rng = np.random.default_rng(20)
        vocab, scorer, _ = make_instance(rng, 3, 1)
        rows = np.tile(log_softmax(np.zeros(3)), (2, 1))
        encoder = EncoderOutput(rows, np.array([4.0, 4.0]))  # blank dominates
        results, _ = beam_search(
            encoder, scorer, DecoderConfig(beam=4, max_emit=2)
        )
        assert results[0].tokens == ()
        # the winning path is two blanks scored at k=0 each
        assert [s[2] for s in results[0].steps] == [None, None]

    def test_deterministic_scorer_recovers_reference(self):
        vocab = make_vocab(3)
        ref = [0, 2, 1]
        rows = []
        for w in ref:
            logits = np.full(3, -12.0)
            logits[w] = 0.0
            rows.append(log_softmax(logits))
        encoder = EncoderOutput(np.array(rows), np.full(3, -6.0))
        rng = np.random.default_rng(21)
        predictor = NgramPredictor(make_ngram(rng, vocab), floor=0.2)
        # gamma makes blank cheap once a symbol has been emitted, so the
        # peaked frame is consumed exactly once instead of being milked
        results, _ = beam_search(
            encoder, FntScorer(predictor, gamma=8.0), DecoderConfig(beam=4)
        )
        assert results[0].tokens == tuple(ref)


class TestReplayConsistency:
    def replay(self, encoder, scorer, config, lm, clm, hyp):
        from fntfuse.decoder import _FrameScorer

        fs = _FrameScorer(scorer, config, lm, clm)
        use_lm = lm is not None
        pred = scorer.predictor.initial_state()
        lms = lm.initial_state() if use_lm else None
        clms = clm.initial_state() if clm is not None else None
        total = 0.0
        for t, k, word, post in hyp.steps:
            words, transitions, posts, blank_post = fs.expand(
                _Stub(pred, lms, clms, k), t, encoder.scores[t],
                float(encoder.blank_logits[t]),
            )
            if word is None:
                assert blank_post == pytest.approx(post, abs=1e-9)
            else:
                diffs = [
                    (abs(posts[i] - post), i)
                    for i in np.flatnonzero(words == word)
                ]
                err, i = min(diffs)
                assert err < 1e-9
                pred = scorer.predictor.advance(pred, word)
                if use_lm:
                    lms = lm.advance(lms, word)
                if transitions is not None:
                    clms = transitions.successor(clms, i)
            total += post
        return total

    def test_replay_reproduces_components(self):
        rng = np.random.default_rng(22)
        vocab, scorer, encoder = make_instance(rng, 4, 3)
        lm = NgramPredictor(make_ngram(rng, vocab))
        clm = make_clm(rng, vocab)
        for config, use_lm, use_clm in (
            (DecoderConfig(beam=6, max_emit=2), False, False),
            (
                DecoderConfig(beam=6, fusion=FusionConfig("cli", 0.25, rank_r=2), max_emit=2),
                True,
                False,
            ),
            (
                DecoderConfig(beam=6, fusion=FusionConfig("clm", 0.5, rank_r=2), max_emit=2),
                False,
                True,
            ),
        ):
            results, _ = beam_search(
                encoder,
                scorer,
                config,
                external_lm=lm if use_lm else None,
                class_model=clm if use_clm else None,
            )
            for hyp in results[:2]:
                total = self.replay(
                    encoder, scorer, config,
                    lm if use_lm else None, clm if use_clm else None, hyp,
                )
                if not hyp.merged:
                    assert total == pytest.approx(hyp.logscore, abs=1e-9)


class _Stub:
    def __init__(self, pred_state, lm_state, clm_state, k):
        self.pred_state = pred_state
        self.lm_state = lm_state
        self.clm_state = clm_state
        self.k = k


class TestExitRule:
    def build_entity_trap(self):
        vocab = make_vocab(3)
        model = train_tagged_clm(
            [["⟨X⟩", "p2"], ["⟨X⟩", "p2"], ["p2"]],
            {"⟨X⟩": [(("p0", "p1"), 1.0)]},
            2,
            vocab,
        )
        rows = []
        for w in (0, 1):
            logits = np.full(3, -8.0)
            logits[w] = 0.0
            rows.append(log_softmax(logits))
        encoder = EncoderOutput(np.array(rows), np.full(2, -3.0))
        rng = np.random.default_rng(23)
        predictor = NgramPredictor(make_ngram(rng, vocab), floor=0.3)
        return encoder, FntScorer(predictor), model

    def test_extra_expansions_engage(self):
        encoder, scorer, clm = self.build_entity_trap()
        fusion = FusionConfig("clm", 0.9, rank_r=3)
        _, plain = beam_search(
            encoder, scorer,
            DecoderConfig(beam=1, fusion=fusion), class_model=clm,
        )
        _, strict = beam_search(
            encoder, scorer,
            DecoderConfig(beam=1, fusion=fusion, exit_rule="require-cat1"),
            class_model=clm,
        )
        assert plain.n_extra_expansions == 0
        assert strict.n_extra_expansions > 0
        assert strict.n_expansions >= plain.n_expansions

    def test_results_stay_valid(self):
        encoder, scorer, clm = self.build_entity_trap()
        fusion = FusionConfig("clm", 0.9, rank_r=3)
        results, stats = beam_search(
            encoder, scorer,
            DecoderConfig(beam=2, fusion=fusion, exit_rule="require-cat1"),
            class_model=clm,
        )
        assert results and all(np.isfinite(r.logscore) for r in results[:2])
        assert stats.mean_width > 0

    def test_evaluate_counts_exhausted_budgets(self):
        encoder, scorer, clm = self.build_entity_trap()
        utts = [
            simulate.TestUtterance(f"u{i}", ("p0p1",), ("p0", "p1"), (), encoder) for i in range(2)
        ]
        fusion = FusionConfig("clm", 0.9, rank_r=3)
        for rule, warned in (("standard", 0), ("require-cat1", len(utts))):
            config = DecoderConfig(beam=1, fusion=fusion, exit_rule=rule)
            rep = evaluate(rule, utts, clm.base_vocab, scorer, config, class_model=clm)
            assert rep.n_warnings == warned
            assert rep.line().endswith(f" warnings={warned}")
            kinds = (("require-cat1 budget exhausted", warned),) if warned else ()
            assert rep.warning_kinds == kinds


class TestGatedDeadEnd:
    def test_blank_fallback_keeps_hypothesis_alive(self):
        vocab = make_vocab(4)
        model = train_tagged_clm(
            [["⟨X⟩", "p3"], ["p3", "⟨X⟩"], ["p3"]],
            {"⟨X⟩": [(("p0", "p1", "p2"), 1.0)]},
            2,
            vocab,
        )
        rows = []
        for w in (0, 3, 3):
            logits = np.full(4, -6.0)
            logits[w] = 0.0
            rows.append(log_softmax(logits))
        encoder = EncoderOutput(np.array(rows), np.full(3, -2.0))
        rng = np.random.default_rng(24)
        predictor = NgramPredictor(make_ngram(rng, vocab), floor=0.3)
        config = DecoderConfig(
            beam=4,
            fusion=FusionConfig("clm", 0.9, rank_r=4),
            rank_rprime=1,  # gates the within-class continuation away
        )
        results, _ = beam_search(encoder, FntScorer(predictor), config, class_model=model)
        assert results and all(np.isfinite(r.logscore) for r in results[:2])


class TestGatedTransitions:
    def test_frame_gate_matches_enumeration(self):
        from fntfuse.decoder import _FrameScorer

        rng = np.random.default_rng(27)
        vocab, scorer, encoder = make_instance(rng, 5, 3)
        clm = make_clm(rng, vocab)
        states = {clm.initial_state()}
        for _ in range(2):
            for state in list(states):
                trans = enumerate_transitions(clm, state)
                states.update(trans.successor(state, i) for i in range(len(trans)))
        config = DecoderConfig(fusion=FusionConfig("clm", 0.5, rank_r=2), rank_rprime=2)
        fs = _FrameScorer(scorer, config, None, clm)
        dropped = 0
        for t in range(encoder.n_frames):
            for state in states:
                got = fs._transitions(state, t, encoder.scores[t])
                full = enumerate_transitions(clm, state)
                want = mask_gated(full, classlm.encoder_rank_pass(encoder.scores[t], 2))
                np.testing.assert_array_equal(got.word, want.word)
                for name in ("category", "word", "logprob", "tag"):
                    got_arr = getattr(full, name)[got.index]
                    np.testing.assert_array_equal(got_arr, getattr(want, name))
                dropped += len(full) - len(got)
        assert any(s.class_tag is not None for s in states)
        assert dropped > 0  # the r' gate removes CAT2/CAT3 transitions


class TestGatedViews:
    """An r'-gated view of the memoized transitions must select the
    arrays of the mask-built copy, read the memoized object's
    successors, and give the fused rows the copy gives, byte for byte."""

    V = 6  # make_clm's classes hold words 0-2 only

    def rows(self, rng):
        # every other frame ranks words 3-5 first, so a gate of r' <= 3
        # drops every CAT2/CAT3 transition there
        rows = []
        for t in range(6):
            logits = rng.normal(size=self.V) * 1.5
            if t % 2:
                logits[3:] += 10.0
            rows.append(log_softmax(logits))
        return rows

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_views_match_mask_built_bundles(self, seed):
        rng = np.random.default_rng(seed)
        vocab, scorer, _ = make_instance(rng, self.V, 1)
        lm = NgramPredictor(make_ngram(rng, vocab))
        clm = make_clm(rng, vocab)
        rows = self.rows(rng)
        states = {clm.initial_state()}
        for _ in range(2):
            for state in list(states):
                trans = enumerate_transitions(clm, state)
                states.update(trans.successor(state, i) for i in range(len(trans)))
        predictor = scorer.predictor
        contexts = [  # (predictor state, LM state) pairs
            (predictor.advance(predictor.initial_state(), w), lm.advance(lm.initial_state(), w))
            for w in range(3)
        ]
        emptied = 0
        for rprime in (1, 2, 3, self.V):
            for fusion in (
                FusionConfig("clm", 0.5, rank_r=2),
                FusionConfig("li", 0.3, rank_r=2, second_method="clm", second_alpha=0.6),
            ):
                config = DecoderConfig(fusion=fusion, rank_rprime=rprime)
                fs = decoder._FrameScorer(scorer, config, lm, clm)
                for t, row in enumerate(rows):
                    gate = classlm.encoder_rank_pass(row, rprime)
                    for state in states:
                        view = fs._transitions(state, t, row)
                        parent = clm.cached_transitions(state)
                        assert view.parent is parent and parent.parent is None
                        want = mask_gated(parent, gate)
                        for name in ("category", "word", "logprob", "tag"):
                            got_arr = getattr(parent, name)[view.index]
                            want_arr = getattr(want, name)
                            assert got_arr.dtype == want_arr.dtype
                            assert got_arr.tobytes() == want_arr.tobytes()
                        assert view.word.tobytes() == want.word.tobytes()
                        assert not view.word.flags.writeable
                        assert (view.cat2, view.cat3) == (want.cat2, want.cat3)
                        assert (np.diff(view.index) > 0).all()
                        assert view.cat2.start == parent.cat2.start  # the CAT1 prefix
                        emptied += view.cat2.start == len(view) < len(parent)
                        for i in range(len(view)):
                            succ = view.successor(state, i)
                            assert succ is parent.successor(state, int(view.index[i]))
                            cat, word, tag = (
                                int(want.category[i]), int(want.word[i]), int(want.tag[i])
                            )
                            assert succ == classlm.advance(clm, state, cat, word, tag)
                        for pred_state, lm_state in contexts:
                            hyp = decoder.Hypothesis(
                                0, 0.0, pred_state, lm_state, state, 0, (), False
                            )
                            z_u = predictor.full_dist(pred_state)
                            got = fs._fused_row(hyp, z_u, view)
                            if fusion.second_method is None:
                                ref = clm_predictor_interp(z_u, want, 0.5, 2)
                            else:
                                ref = three_way(z_u, lm.full_dist(lm_state), want, 0.3, 0.6, 2)
                            assert got.tobytes() == ref.tobytes()
                # rows are kept once, on the memoized objects, under the
                # configuration's fields
                assert not fs._rows
                for state in states:
                    keys = clm.cached_transitions(state).rows
                    assert fs._row_fields in {key[0] for key in keys}
        assert emptied  # some gates left nothing but CAT1
        assert any(s.class_tag is not None for s in states)


def memo_entries(clm) -> int:
    """What the memo counts toward its cap: each object it holds, once,
    with its transitions plus the values of its kept rows."""
    held = {id(t): t for t in clm._memo.values()}
    return sum(len(t) + sum(row.size for row in t.rows.values()) for t in held.values())


MEMO_CASES = {
    "clm": DecoderConfig(beam=3, fusion=FusionConfig("clm", 0.5, rank_r=2)),
    "clm-gated": DecoderConfig(
        beam=3, fusion=FusionConfig("clm", 0.5, rank_r=2),
        exit_rule="require-cat1", rank_rprime=8,
    ),
    "three-way": DecoderConfig(
        beam=3,
        fusion=FusionConfig("li", 0.25, rank_r=2, second_method="clm", second_alpha=0.5),
    ),
}


class TestTransitionMemo:
    """The class model's transition memo outlives a decode; sharing it,
    filling it from other configurations, or emptying it must not change
    any result."""

    def instance(self):
        rng = np.random.default_rng(41)
        vocab, scorer, _ = make_instance(rng, 12, 1)
        lm = NgramPredictor(make_ngram(rng, vocab))
        encoders = [make_encoder(rng, 5, 12) for _ in range(4)]
        return vocab, scorer, lm, encoders

    def fresh_clm(self, vocab):
        return make_clm(np.random.default_rng(42), vocab)

    def decode(self, encoder, scorer, config, lm, clm):
        results, stats = beam_search(encoder, scorer, config, lm, clm)
        return [(r.tokens, r.logscore, r.steps, r.merged) for r in results], stats

    def test_shared_model_matches_fresh_model(self):
        # a second predictor and a second LM whose states are equal
        # tuples but whose rows differ, and a second clm weight, all
        # interleaved on one class model: no decode reads another's rows
        vocab, scorer, lm, encoders = self.instance()
        rng = np.random.default_rng(44)
        other_scorer = FntScorer(NgramPredictor(make_ngram(rng, vocab), floor=0.05))
        other_lm = NgramPredictor(make_ngram(rng, vocab))
        for a, b in ((scorer.predictor, other_scorer.predictor), (lm, other_lm)):
            state = a.initial_state()
            assert state == b.initial_state()
            assert not np.array_equal(a.full_dist(state), b.full_dist(state))
        clm_alt = DecoderConfig(beam=3, fusion=FusionConfig("clm", 0.9, rank_r=2))
        shared = self.fresh_clm(vocab)
        for encoder in encoders:
            for config in [*MEMO_CASES.values(), clm_alt]:
                for sc, ext in ((scorer, lm), (other_scorer, lm), (scorer, other_lm)):
                    got, _ = self.decode(encoder, sc, config, ext, shared)
                    want, _ = self.decode(encoder, sc, config, ext, self.fresh_clm(vocab))
                    assert got == want
        assert shared.n_memo_entries > 0

    def test_repeat_decode_enumerates_nothing(self):
        vocab, scorer, lm, encoders = self.instance()
        clm = self.fresh_clm(vocab)
        for name, config in MEMO_CASES.items():
            for encoder in encoders:
                first, _ = self.decode(encoder, scorer, config, lm, clm)
                again, repeat = self.decode(encoder, scorer, config, lm, clm)
                fresh, cold = self.decode(encoder, scorer, config, lm, self.fresh_clm(vocab))
                assert again == first == fresh
                # the second decode reads the bundles and rows the first kept
                assert repeat.n_enumerations == repeat.n_fused_rows == 0, name
                assert cold.n_enumerations > 0 and cold.n_fused_rows > 0, name

    @pytest.mark.parametrize("cap", [5, 40])
    def test_tiny_cap_changes_nothing(self, cap, monkeypatch):
        vocab, scorer, lm, encoders = self.instance()
        want = [
            self.decode(encoder, scorer, config, lm, self.fresh_clm(vocab))[0]
            for encoder in encoders
            for config in MEMO_CASES.values()
        ]
        monkeypatch.setattr(classlm, "TRANSITION_MEMO_CAP", cap)
        clm = self.fresh_clm(vocab)
        held = []
        cache = clm.cache_transitions

        def recorded(key, trans):
            shared = cache(key, trans)
            held.append(clm.n_memo_entries)
            return shared

        monkeypatch.setattr(clm, "cache_transitions", recorded)
        got = [
            self.decode(encoder, scorer, config, lm, clm)[0]
            for encoder in encoders
            for config in MEMO_CASES.values()
        ]
        assert got == want
        assert held and max(held) <= cap
        assert memo_entries(clm) == clm.n_memo_entries

    def test_memo_clear_drops_rows(self, monkeypatch):
        cap = 120
        monkeypatch.setattr(classlm, "TRANSITION_MEMO_CAP", cap)
        vocab, scorer, lm, encoders = self.instance()
        clm = self.fresh_clm(vocab)
        kept = clm.cache_row
        row_clears = []

        def checked(trans, key, row):
            held = list(clm._memo.values())
            before = clm.n_memo_entries
            kept(trans, key, row)
            if clm.n_memo_entries < before:  # the row cleared the memo
                row_clears.append(len(held))
                assert not clm._memo and not any(t.rows for t in held)
                assert not trans.rows
            assert memo_entries(clm) == clm.n_memo_entries
            assert clm.n_memo_entries <= cap

        monkeypatch.setattr(clm, "cache_row", checked)
        for encoder in encoders:
            for config in MEMO_CASES.values():
                self.decode(encoder, scorer, config, lm, clm)
        assert row_clears and max(row_clears) > 1
        # enumerating a key the memo holds returns the held object
        state = clm.initial_state()
        if clm.cached_transitions(state) is None:
            clm.cache_transitions(state, enumerate_transitions(clm, state))
        memoized = clm.cached_transitions(state)
        assert enumerate_transitions(clm, state) is memoized
        # an object the memo does not hold keeps no row
        arrays = (memoized.category, memoized.word, memoized.logprob, memoized.tag)
        own = classlm.Transitions(clm, *(a.copy() for a in arrays))
        before = clm.n_memo_entries
        kept(own, "key", np.zeros(len(own)))
        assert not own.rows and clm.n_memo_entries == before

    @pytest.mark.parametrize("rprime", [None, 2])
    def test_successors_are_built_once_and_match_enumeration(self, rprime):
        rng = np.random.default_rng(43)
        vocab, scorer, encoder = make_instance(rng, 5, 3)
        clm = make_clm(rng, vocab)
        config = DecoderConfig(fusion=FusionConfig("clm", 0.5, rank_r=2), rank_rprime=rprime)
        fs = decoder._FrameScorer(scorer, config, None, clm)
        states = [clm.initial_state()]
        for t in range(encoder.n_frames):
            row = encoder.scores[t]
            for state in list(states):
                got = fs._transitions(state, t, row)
                want = enumerate_transitions(clm, state)
                if rprime is not None:
                    want = mask_gated(want, classlm.encoder_rank_pass(row, rprime))
                for i in range(len(got)):
                    succ = got.successor(state, i)
                    assert succ == want.successor(state, i)
                    assert got.successor(state, i) is succ
                    states.append(succ)
        assert any(s.class_tag is not None for s in states)

    def test_cached_bundles_and_rows_are_read_only(self, monkeypatch):
        vocab, scorer, lm, encoders = self.instance()
        clm = self.fresh_clm(vocab)
        scorers = []

        class Recording(decoder._FrameScorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        monkeypatch.setattr(decoder, "_FrameScorer", Recording)
        dense = DecoderConfig(beam=3, fusion=FusionConfig("cli", 0.25, rank_r=2))
        for config in [*MEMO_CASES.values(), dense]:
            beam_search(encoders[0], scorer, config, lm, clm)
        arrays = [
            getattr(t, name)
            for t in clm._memo.values()
            for name in ("category", "word", "logprob", "tag")
        ]
        bundle_rows = [row for t in clm._memo.values() for row in t.rows.values()]
        dense_rows = [row for fs in scorers for row in fs._rows.values()]
        assert arrays and bundle_rows and dense_rows
        rows = bundle_rows + dense_rows
        for arr in arrays + rows:
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 0


class TestSharedCores:
    """Class states with one ``core_key`` share one ``Transitions``
    object: the arrays, CAT1 gates and fused rows are built once and are
    bit-equal to a fresh model's, while each state reaches its own
    successors."""

    FUSIONS = {
        "clm": FusionConfig("clm", 0.5, rank_r=2),
        "three-way": FusionConfig("li", 0.3, rank_r=2, second_method="clm", second_alpha=0.6),
    }

    def instance(self):
        rng = np.random.default_rng(71)
        vocab, scorer, _ = make_instance(rng, 8, 1)
        lm = NgramPredictor(make_ngram(rng, vocab))
        return vocab, scorer, lm

    def clm(self, vocab):
        # order 3: a two-token exit history may minimize to a shorter one
        return make_clm(np.random.default_rng(72), vocab, order=3)

    def shared_groups(self, clm) -> list:
        """Out-of-class states within three transitions of the initial
        state, grouped by core key, where a group holds more than one
        exit history."""
        states = {clm.initial_state()}
        for _ in range(3):
            for state in list(states):
                trans = enumerate_transitions(clm, state)
                states.update(trans.successor(state, i) for i in range(len(trans)))
        groups: dict = {}
        for state in sorted(states, key=lambda s: s.history):
            if state.class_tag is None:
                groups.setdefault(clm.core_key(state), []).append(state)
        return [g for g in groups.values() if len({clm.exit_history(s) for s in g}) > 1]

    @pytest.mark.parametrize("name", list(FUSIONS))
    def test_one_minimal_context_one_core(self, name):
        vocab, scorer, lm = self.instance()
        predictor, fusion = scorer.predictor, self.FUSIONS[name]
        contexts = [  # (predictor state, LM state) pairs
            (predictor.advance(predictor.initial_state(), w), lm.advance(lm.initial_state(), w))
            for w in range(3)
        ]
        clm, fresh = self.clm(vocab), self.clm(vocab)
        groups = self.shared_groups(self.clm(vocab))
        assert groups
        fs = decoder._FrameScorer(scorer, DecoderConfig(fusion=fusion), lm, clm)
        for group in groups:
            rows_before = fs.n_fused_rows
            shared = [fs._transitions(state, 0, None) for state in group]
            assert all(t is shared[0] for t in shared)
            for state, trans in zip(group, shared):
                want = enumerate_transitions(fresh, state)  # fresh's memo is empty
                assert want is not trans
                for attr in ("category", "word", "logprob", "tag"):
                    got_arr, want_arr = getattr(trans, attr), getattr(want, attr)
                    assert got_arr.dtype == want_arr.dtype
                    assert got_arr.tobytes() == want_arr.tobytes()
                assert (trans.cat2, trans.cat3) == (want.cat2, want.cat3)
                for r in (1, 2, 3):
                    assert trans.cat1_gate(r).tobytes() == want.cat1_gate(r).tobytes()
                for i in range(len(trans)):
                    cat, word, tag = (int(want.category[i]), int(want.word[i]), int(want.tag[i]))
                    assert trans.successor(state, i) == classlm.advance(clm, state, cat, word, tag)
                for pred_state, lm_state in contexts:
                    hyp = decoder.Hypothesis(0, 0.0, pred_state, lm_state, state, 0, (), False)
                    z_u = predictor.full_dist(pred_state)
                    got = fs._fused_row(hyp, z_u, trans)
                    if fusion.second_method is None:
                        ref = clm_predictor_interp(z_u, want, 0.5, 2)
                    else:
                        ref = three_way(z_u, lm.full_dist(lm_state), want, 0.3, 0.6, 2)
                    assert got.tobytes() == ref.tobytes()
            # the rows are built once per object, for the group's first state
            assert fs.n_fused_rows - rows_before == len(contexts)
            # each state leaves the class from its own exit history
            cat2 = shared[0].cat2.start
            assert len({shared[0].successor(s, cat2) for s in group}) == len(group)
        assert fs.n_shared_bundles == sum(len(g) - 1 for g in groups)
        assert fs.n_enumerations == sum(len(g) for g in groups)

    def test_states_of_one_key_get_one_object(self):
        vocab, _, _ = self.instance()
        clm = self.clm(vocab)
        for group in self.shared_groups(self.clm(vocab)):
            first = enumerate_transitions(clm, group[0])
            assert not clm.cache_transitions(group[0], first)
            for state in group[1:]:
                trans = enumerate_transitions(clm, state)
                assert trans is first
                assert clm.cache_transitions(state, trans)  # memoized onto a held object
            arrays = zip(first.category.tolist(), first.word.tolist(), first.tag.tolist())
            moves = list(enumerate(arrays))
            succs = [tuple(first.successor(state, i) for i, _ in moves) for state in group]
            for state, got in zip(group, succs):
                assert got == tuple(classlm.advance(clm, state, *move) for _, move in moves)
            assert len(set(succs)) == len(group)  # each state leaves from its own history
            assert all(clm.cached_transitions(state) is first for state in group)

    def test_one_gated_view_per_object_and_frame(self, monkeypatch):
        vocab, scorer, lm = self.instance()
        encoder = make_encoder(np.random.default_rng(77), 8, 8)
        config = DecoderConfig(beam=8, fusion=self.FUSIONS["clm"], rank_rprime=3)
        want, _ = beam_search(encoder, scorer, config, lm, self.clm(vocab))
        asked, views, frame = set(), [], [None]
        transitions, gated = decoder._FrameScorer._transitions, classlm.Transitions.gated

        def recording_transitions(fs, clm_state, t, z_t_row):
            asked.add((clm_state, t))
            frame[0] = t
            return transitions(fs, clm_state, t, z_t_row)

        def recording_gated(trans, word_gate):
            views.append((trans, frame[0]))
            return gated(trans, word_gate)

        monkeypatch.setattr(decoder._FrameScorer, "_transitions", recording_transitions)
        monkeypatch.setattr(classlm.Transitions, "gated", recording_gated)
        got, _ = beam_search(encoder, scorer, config, lm, self.clm(vocab))
        assert [(r.tokens, r.logscore, r.steps) for r in got] == [
            (r.tokens, r.logscore, r.steps) for r in want
        ]
        assert len(set(views)) == len(views)
        assert len(views) < len(asked)  # states of one key share a view

    def test_decodes_share_cores_and_count_each_once(self):
        vocab, scorer, lm = self.instance()
        rng = np.random.default_rng(73)
        encoders = [make_encoder(rng, 6, 8) for _ in range(3)]
        clm = self.clm(vocab)
        shared = 0
        for encoder in encoders:
            for config in MEMO_CASES.values():
                got, stats = beam_search(encoder, scorer, config, lm, clm)
                want, _ = beam_search(encoder, scorer, config, lm, self.clm(vocab))
                assert [(r.tokens, r.logscore, r.steps) for r in got] == [
                    (r.tokens, r.logscore, r.steps) for r in want
                ]
                assert stats.n_shared_bundles <= stats.n_enumerations
                shared += stats.n_shared_bundles
        assert shared > 0
        assert len({id(t) for t in clm._memo.values()}) < len(clm._memo)
        assert memo_entries(clm) == clm.n_memo_entries


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError, match="beam"):
            DecoderConfig(beam=0)
        with pytest.raises(ValueError, match="exit rule"):
            DecoderConfig(exit_rule="loose")
        with pytest.raises(ValueError, match="max_emit"):
            DecoderConfig(max_emit=0)

    def test_rank_rprime_needs_a_class_model(self):
        for fusion in [FusionConfig()] + [PRUNING_CASES[m] for m in ("sf", "li", "lli", "cli")]:
            with pytest.raises(ValueError, match="rank_rprime needs class-model fusion"):
                DecoderConfig(fusion=fusion, rank_rprime=2)
            # without a class state every hypothesis can leave its class
            with pytest.raises(ValueError, match="require-cat1 needs class-model fusion"):
                DecoderConfig(fusion=fusion, exit_rule="require-cat1")
        for method in ("clm", "three-way"):
            DecoderConfig(fusion=PRUNING_CASES[method], rank_rprime=2, exit_rule="require-cat1")

    def test_missing_models_fault(self):
        rng = np.random.default_rng(25)
        _, scorer, encoder = make_instance(rng, 3, 1)
        with pytest.raises(ValueError, match="external"):
            beam_search(
                encoder, scorer,
                DecoderConfig(fusion=FusionConfig("li", 0.5)),
            )
        with pytest.raises(ValueError, match="class model"):
            beam_search(
                encoder, scorer,
                DecoderConfig(fusion=FusionConfig("clm", 0.5)),
            )

    def test_vocab_mismatch_faults(self):
        rng = np.random.default_rng(26)
        _, scorer, _ = make_instance(rng, 3, 1)
        encoder = make_encoder(rng, 1, 5)
        with pytest.raises(ValueError, match="covers"):
            beam_search(encoder, scorer, DecoderConfig())

    @pytest.mark.parametrize("method", ["sf", "li", "lli", "cli", "three-way"])
    def test_short_external_lm_faults(self, method):
        rng = np.random.default_rng(27)
        vocab, scorer, encoder = make_instance(rng, 8, 2)
        short_lm = NgramPredictor(make_ngram(rng, make_vocab(5)))
        config = DecoderConfig(fusion=PRUNING_CASES[method])
        with pytest.raises(ValueError, match="external LM covers 5 tokens, encoder 8"):
            beam_search(encoder, scorer, config, short_lm, make_clm(rng, vocab))

    @pytest.mark.parametrize("method", ["clm", "three-way"])
    def test_short_class_model_faults(self, method):
        rng = np.random.default_rng(28)
        vocab, scorer, encoder = make_instance(rng, 8, 2)
        lm = NgramPredictor(make_ngram(rng, vocab))
        config = DecoderConfig(fusion=PRUNING_CASES[method])
        with pytest.raises(ValueError, match="class model covers 5 tokens, encoder 8"):
            beam_search(encoder, scorer, config, lm, make_clm(rng, make_vocab(5)))
