"""Simulator pieces: encoder score files, the n-gram predictor adapter,
and synthetic scenario generation."""

import math

import numpy as np
import pytest

from fntfuse import simulate
from fntfuse.arpa import load_arpa
from fntfuse.core import NEG_INF, Vocabulary, log_softmax
from fntfuse.ngram import train_kneser_ney
from fntfuse.simulate import (
    EncoderOutput,
    FntScorer,
    NgramPredictor,
    Scenario,
    ScenarioSpec,
    load_scores,
    pieces_of,
    read_scenario,
    save_scores,
    synthesize_scenario,
    word_pieces,
    write_scenario,
)

from helpers import random_corpus


NOT_SUFFIX_CLOSED = """\\data\\
ngram 1=6
ngram 2=3
ngram 3=1

\\1-grams:
-99\t<s>\t-0.3
-0.6\ta\t-0.2
-0.6\tb\t-0.25
-0.7\tc
-0.8\td
-99\t</s>

\\2-grams:
-0.3\t<s> a\t-0.1
-0.2\ta b\t-0.15
-0.4\tb d

\\3-grams:
-0.1\ta b c

\\end\\
"""

# </s> carries no mass alone, only after "a"
EOS_AFTER_A = """\\data\\
ngram 1=4
ngram 2=1

\\1-grams:
-99\t<s>\t0
-0.3\ta\t-0.2
-0.3\tb
-99\t</s>

\\2-grams:
-0.5\ta </s>

\\end\\
"""


def small_encoder(rng, n_frames=3, n_vocab=4):
    rows = np.array([log_softmax(rng.normal(size=n_vocab)) for _ in range(n_frames)])
    return EncoderOutput(rows, rng.normal(size=n_frames))


def small_spec(**overrides):
    base = dict(
        templates=(
            "call ⟨NAME⟩ now",
            "dial ⟨NAME⟩ on ⟨TYPE⟩ please",
            "check the weather",
        ),
        classes={
            "⟨NAME⟩": (
                ("ada lin", 1.0),
                ("bo chen", 1.0),
                ("mira sol", 2.0),
                ("kit", 1.0),
            ),
            "⟨TYPE⟩": (("mobile", 1.0), ("landline", 1.0)),
        },
        n_train=30,
        n_adapt=20,
        n_test=15,
        tau=0.0,
        scale=6.0,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestEncoderOutput:
    def test_shape_faults(self):
        row = log_softmax(np.zeros(3))
        with pytest.raises(ValueError, match="T x V"):
            EncoderOutput(row, np.zeros(1))
        with pytest.raises(ValueError, match="frame count"):
            EncoderOutput(np.array([row, row]), np.zeros(3))

    def test_nan_fault(self):
        row = log_softmax(np.zeros(3))
        bad = np.array([row, row])
        bad[1, 0] = float("nan")
        with pytest.raises(ValueError, match="frame 1: NaN"):
            EncoderOutput(bad, np.zeros(2))
        with pytest.raises(ValueError, match="frame 0: NaN"):
            EncoderOutput(np.array([row]), np.array([float("nan")]))

    def test_normalization_fault_names_frame(self):
        good = log_softmax(np.zeros(3))
        with pytest.raises(ValueError, match="frame 1"):
            EncoderOutput(np.array([good, good - 0.5]), np.zeros(2))

    def test_inf_blank_fault_names_frame(self):
        # -inf is a legal blank logit (blank gets no mass); +inf has no softmax
        good = log_softmax(np.zeros(3))
        EncoderOutput(np.array([good, good]), np.array([0.0, NEG_INF]))
        with pytest.raises(ValueError, match=r"frame 1: blank logit is \+inf"):
            EncoderOutput(np.array([good, good]), np.array([0.0, np.inf]))

    def test_nan_outranks_earlier_faults(self):
        # the fused first check fails on all three frames; the ordered
        # diagnostics still name the NaN first, then +inf, then the mass
        good = log_softmax(np.zeros(3))
        scores = np.array([good - 0.5, good, good, good])
        scores[2, 1] = np.nan
        blanks = np.array([0.0, np.inf, 0.0, 0.0])
        with pytest.raises(ValueError, match="^frame 2: NaN in encoder output$"):
            EncoderOutput(scores, blanks)
        with pytest.raises(ValueError, match=r"^frame 1: blank logit is \+inf$"):
            EncoderOutput(scores[[0, 1, 3]], blanks[[0, 1, 3]])
        scores[2, 1] = np.inf  # an infinite score is a mass fault
        with pytest.raises(ValueError, match="^frame 0 not normalized"):
            EncoderOutput(scores[[0, 2]], blanks[[0, 2]])

    def test_properties(self):
        enc = small_encoder(np.random.default_rng(0), n_frames=5, n_vocab=7)
        assert enc.n_frames == 5
        assert enc.n_vocab == 7


def header_len(path):
    return path.read_bytes().index(b"\n") + 1


class TestScoreFileIO:
    def test_bitwise_round_trip(self, tmp_path):
        enc = small_encoder(np.random.default_rng(1), n_frames=4, n_vocab=6)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        back = load_scores(path)
        assert np.array_equal(back.scores, enc.scores)
        assert np.array_equal(back.blank_logits, enc.blank_logits)
        assert back.scores.tobytes() == enc.scores.tobytes()
        assert back.blank_logits.tobytes() == enc.blank_logits.tobytes()
        for arr in (back.scores, back.blank_logits):
            assert arr.dtype == np.float64
            assert arr.flags.owndata and arr.flags.aligned and arr.flags.c_contiguous
            assert arr.flags.writeable

    def test_layout(self, tmp_path):
        # header line, then T rows of V scores and the blank, little-endian float64
        enc = small_encoder(np.random.default_rng(6), n_frames=3, n_vocab=5)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        data = path.read_bytes()
        head = b"FNTSCORES v2 T=3 V=5\n"
        assert data.startswith(head)
        body = np.frombuffer(data[len(head) :], dtype="<f8").reshape(3, 6)
        assert np.array_equal(body[:, :5], enc.scores)
        assert np.array_equal(body[:, 5], enc.blank_logits)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.fnt"
        path.write_text("NOTSCORES T=1 V=2\n0.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="byte 0: bad header"):
            load_scores(path)
        for header in ("FNTSCORES v2 T=x V=2\n", "FNTSCORES v2 T=1\n", "FNTSCORES v2 T=1 V=-2\n"):
            path.write_text(header)
            with pytest.raises(ValueError, match="byte 0: malformed header"):
                load_scores(path)
        path.write_bytes(b"FNTSCORES v2 T=0 V=2")  # no end of header line
        with pytest.raises(ValueError, match="byte 0: malformed header"):
            load_scores(path)

    def test_text_v1_file_refused(self, tmp_path):
        enc = small_encoder(np.random.default_rng(7), n_frames=2, n_vocab=3)
        path = tmp_path / "utt.fnt"
        rows = [" ".join(repr(v) for v in [*enc.scores[t], enc.blank_logits[t]]) for t in range(2)]
        path.write_text("FNTSCORES v1 T=2 V=3\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="byte 0: bad header 'FNTSCORES v1"):
            load_scores(path)

    def test_vocab_mismatch(self, tmp_path):
        enc = small_encoder(np.random.default_rng(2), n_vocab=4)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        with pytest.raises(ValueError, match="byte 0: header V=4 disagrees with vocabulary size 6"):
            load_scores(path, expect_vocab=6)
        assert load_scores(path, expect_vocab=4).n_vocab == 4

    def test_truncation_reports_offset(self, tmp_path):
        enc = small_encoder(np.random.default_rng(3), n_frames=3, n_vocab=2)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        head = header_len(path)
        path.write_bytes(path.read_bytes()[: head + 24])  # exactly one frame left
        with pytest.raises(
            ValueError, match=f"byte {head + 24}: truncated, expected 3 frames but found 1"
        ):
            load_scores(path)

    def test_partial_last_frame_reports_its_start(self, tmp_path):
        enc = small_encoder(np.random.default_rng(4), n_frames=2, n_vocab=3)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        head = header_len(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(
            ValueError, match=f"byte {head + 32}: truncated, expected 2 frames but found 1"
        ):
            load_scores(path)

    def test_trailing_bytes_fault(self, tmp_path):
        enc = small_encoder(np.random.default_rng(5), n_frames=2, n_vocab=3)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        head = header_len(path)
        with open(path, "ab") as f:
            f.write(b"\n")
        with pytest.raises(ValueError, match=f"byte {head + 64}: trailing bytes after 2 frames"):
            load_scores(path)

    def test_inf_blank_names_frame(self, tmp_path):
        enc = small_encoder(np.random.default_rng(5), n_frames=3, n_vocab=2)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        data = bytearray(path.read_bytes())
        at = header_len(path) + 24 * 1 + 16  # frame 1, the blank column
        data[at : at + 8] = np.array(np.inf, dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"frame 1: blank logit is \+inf"):
            load_scores(path)


class TestScoreFileFuzz:
    """Seeded damage to a valid file: every case fails naming its byte or
    frame, and none loads."""

    N_FRAMES, N_VOCAB = 5, 4
    ROW = 8 * (N_VOCAB + 1)

    @pytest.fixture
    def written(self, tmp_path):
        enc = small_encoder(np.random.default_rng(11), self.N_FRAMES, self.N_VOCAB)
        path = tmp_path / "utt.fnt"
        save_scores(enc, path)
        return path, path.read_bytes(), header_len(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_truncation_at_random_lengths(self, written, seed):
        path, data, head = written
        rng = np.random.default_rng(seed)
        for cut in rng.integers(0, len(data), size=16):
            path.write_bytes(data[:cut])
            if cut < head:
                with pytest.raises(ValueError, match="byte 0: (bad|malformed) header"):
                    load_scores(path)
                continue
            found = (cut - head) // self.ROW
            with pytest.raises(
                ValueError,
                match=f"byte {head + found * self.ROW}: truncated, "
                f"expected {self.N_FRAMES} frames but found {found}",
            ):
                load_scores(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_appended_bytes(self, written, seed):
        path, data, head = written
        extra = np.random.default_rng(seed).integers(0, 256, size=1 + seed * 13, dtype=np.uint8)
        path.write_bytes(data + extra.tobytes())
        with pytest.raises(
            ValueError,
            match=f"byte {len(data)}: trailing bytes after {self.N_FRAMES} frames",
        ):
            load_scores(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_wrong_header_vocab(self, written, seed):
        path, data, head = written
        wrong = int(np.random.default_rng(seed).choice([1, 2, 3, 5, 6, 9]))
        path.write_bytes(data.replace(b"V=4", b"V=%d" % wrong, 1))
        with pytest.raises(
            ValueError, match=f"byte 0: header V={wrong} disagrees with vocabulary size 4"
        ):
            load_scores(path, expect_vocab=self.N_VOCAB)
        # without the vocabulary to check against, the size check catches it
        with pytest.raises(ValueError, match="truncated|trailing bytes"):
            load_scores(path)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_in_body_names_frame(self, written, seed, value):
        path, data, head = written
        rng = np.random.default_rng(seed)
        frame, col = int(rng.integers(self.N_FRAMES)), int(rng.integers(self.N_VOCAB + 1))
        at = head + frame * self.ROW + 8 * col
        damaged = bytearray(data)
        damaged[at : at + 8] = np.array(value, dtype="<f8").tobytes()
        path.write_bytes(bytes(damaged))
        with pytest.raises(ValueError, match=f"frame {frame}"):
            load_scores(path)


class TestNgramPredictor:
    def make(self, floor, order=3, n_words=8, seed=6):
        rng = np.random.default_rng(seed)
        vocab, corpus = random_corpus(rng, n_types=n_words, n_sentences=40)
        model = train_kneser_ney(corpus, order, vocab=vocab, eos=False)
        return NgramPredictor(model, floor=floor), vocab

    def walk(self, pred, rng, n, tokens=()):
        """(history, state) from the start and after each of ``tokens``,
        then of n random tokens; a history is every token, start first."""
        history, state = (pred.model.bos_id,), pred.initial_state()
        out = [(history, state)]
        for tok in [*tokens, *(int(rng.integers(pred.n_words)) for _ in range(n))]:
            history, state = history + (tok,), pred.advance(state, tok)
            out.append((history, state))
        return out

    def random_states(self, pred, rng, n):
        return [state for _, state in self.walk(pred, rng, n)]

    def test_floor_validation(self):
        pred, _ = self.make(0.0)
        with pytest.raises(ValueError, match="floor"):
            NgramPredictor(pred.model, floor=1.0)
        with pytest.raises(ValueError, match="floor"):
            NgramPredictor(pred.model, floor=-0.1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_model_with_eos_mass_faults(self, order):
        # its rows would sum below 1 over the vocabulary (~0.8 at the start
        # of an order-3 model), and fusion would hand the rest to blank
        rng = np.random.default_rng(6)
        vocab, corpus = random_corpus(rng, n_types=8, n_sentences=40)
        model = train_kneser_ney(corpus, order, vocab=vocab, eos=True)
        with pytest.raises(ValueError, match="train the LM without </s>"):
            NgramPredictor(model)

    def test_eos_mass_in_a_longer_context_faults(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text(EOS_AFTER_A, encoding="utf-8")
        model = load_arpa(path, Vocabulary(["a", "b"]))
        assert model.logprob(model.eos_id, ()) == NEG_INF
        assert model.logprob(model.eos_id, (0,)) > NEG_INF
        with pytest.raises(ValueError, match="</s> has nonzero probability"):
            NgramPredictor(model)

    @pytest.mark.parametrize("floor", [0.0, 0.05, 0.3])
    def test_full_dist_normalized(self, floor):
        pred, _ = self.make(floor)
        rng = np.random.default_rng(8)
        for state in self.random_states(pred, rng, 50):
            dist = pred.full_dist(state)
            assert dist.shape == (pred.n_words,)
            assert math.exp(
                np.logaddexp.reduce(dist)
            ) == pytest.approx(1.0, abs=1e-9)
            if floor > 0.0:
                assert np.all(dist >= math.log(floor / pred.n_words) - 1e-12)

    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_top_r_agrees_with_dense(self, floor):
        pred, _ = self.make(floor)
        rng = np.random.default_rng(9)
        for state in self.random_states(pred, rng, 25):
            dense = pred.full_dist(state)
            for r in (1, 3, pred.n_words):
                ids = pred.top_r(state, r)
                assert len(ids) <= r
                assert np.all(np.diff(ids) > 0)  # distinct, ascending
                finite = int(np.sum(dense > NEG_INF))
                want = min(r, finite) if floor == 0.0 else min(r, pred.n_words)
                assert len(ids) == want
                # nothing outside the returned set may beat what is inside
                if len(ids) < pred.n_words:
                    outside = np.setdiff1d(np.arange(pred.n_words), ids)
                    assert np.max(dense[outside]) <= np.min(dense[ids]) + 1e-12

    @pytest.mark.parametrize("n_words", [120, 301, 1100, 4000])
    def test_top_r_is_the_full_argsort(self, n_words, monkeypatch):
        # the cut must pick the ids a stable argsort of the whole row
        # picks, ascending: ties to the lower id, -inf never ranks
        pred, _ = self.make(0.0)
        rng = np.random.default_rng(n_words)
        rows = {}
        for i in range(12):
            row = rng.integers(0, 6, size=n_words) * -0.5  # six levels: heavy ties
            row[rng.random(n_words) < 0.05] = NEG_INF
            if i == 0:
                row[5:] = NEG_INF  # fewer finite words than most r
            rows[(i,)] = row
        for floor in (0.0, 0.05):  # KN rows: unseen words share backoff values
            kn, _ = self.make(floor, n_words=n_words, seed=n_words)
            for state in self.random_states(kn, rng, 6):
                row = np.array(kn.full_dist(state))
                assert np.unique(row).size < n_words / 2
                rows[(len(rows),)] = row
        monkeypatch.setattr(pred, "full_dist", rows.__getitem__)
        for state, row in rows.items():
            order = np.argsort(-row, kind="stable")
            for r in (1, 5, 200, n_words):
                want = np.sort(order[row[order] > NEG_INF][:r])
                ids = pred.top_r(state, r)
                assert ids.tobytes() == want.astype(np.int64).tobytes()
                assert pred.full_dist(state)[ids].tobytes() == row[want].tobytes()

    def test_top_r_result_is_shared_and_read_only(self):
        pred, _ = self.make(0.05)
        state = pred.initial_state()
        ids = pred.top_r(state, 3)
        assert pred.top_r(state, 3) is ids
        assert pred.top_r(state, 2) is not ids
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 0

    def test_advance_truncates_history(self):
        # a state is the longest suffix of the last order - 1 tokens that
        # is a trie node with children or a nonzero backoff weight: the
        # first such node of their suffix chain, else the root
        pred, _ = self.make(0.0, order=3)
        model = pred.model
        rng = np.random.default_rng(12)

        def kept(node):
            lo, hi = model.node_span(node)
            return hi > lo or model.node_bow(node) != 0.0

        shorter = dropped = 0
        for history, state in self.walk(pred, rng, 200):
            last = history[-2:]
            chain = [node for node, _ in model.suffix_chain(last)]
            length = next((node[0] for node in chain[:-1] if kept(node)), 0)
            assert state == last[len(last) - length :]
            row = model.dense_row(model.suffix_chain(last))
            assert pred.full_dist(state).tobytes() == row[: pred.n_words].tobytes()
            shorter += len(state) < len(last)
            dropped += length < chain[0][0]
        assert shorter  # some histories match fewer than order - 1 tokens
        assert dropped  # some longest matches are childless with a zero weight

    def test_unigram_state_is_empty(self):
        pred, _ = self.make(0.0, order=1)
        state = pred.advance(pred.initial_state(), 3)
        assert state == ()
        assert pred.advance(state, 5) == ()

    def test_dense_rows_are_cached(self):
        pred, _ = self.make(0.1)
        a = pred.full_dist(pred.initial_state())
        b = pred.full_dist(pred.initial_state())
        assert a is b

    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_row_caches_hold_the_cap_and_refill_identically(self, floor, monkeypatch):
        pred, _ = self.make(floor)
        walk = self.walk(pred, np.random.default_rng(10), 300)
        first = {}
        for _, state in walk:  # uncapped: each state's row and top-3 once
            first.setdefault(state, (pred.full_dist(state), pred.top_r(state, 3)))
        monkeypatch.setattr(simulate, "ROW_CACHE_VALUES", 5 * pred.n_words)
        monkeypatch.setattr(simulate, "TOP_CACHE_ENTRIES", 7)
        capped, _ = self.make(floor)
        held = []
        for _ in range(2):
            state = capped.initial_state()
            for history, want_state in walk:
                if len(history) > 1:
                    state = capped.advance(state, history[-1])
                assert state == want_state
                row, top = capped.full_dist(state), capped.top_r(state, 3)
                want_row, want_top = first[state]
                assert row.tobytes() == want_row.tobytes()
                assert top.tolist() == want_top.tolist()
                held.append((len(capped._dense), len(capped._top), len(capped._next)))
        assert len(first) > 7  # more states than either cache holds
        rows, tops, nexts = zip(*held)
        assert max(rows) == 5 and max(tops) == max(nexts) == 7
        assert min(rows[1:]) == min(tops[1:]) == min(nexts[1:]) == 1  # all were emptied

    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_states_with_one_suffix_chain_share_one_row(self, floor):
        pred, _ = self.make(floor)
        rng = np.random.default_rng(13)
        groups = {}  # chain head -> {last order - 1 tokens: state}
        for history, state in self.walk(pred, rng, 300):
            head = pred.model.suffix_chain(history)[0][0]
            groups.setdefault(head, {})[history[-2:]] = state
        assert len(groups) > 1
        assert any(len(g) > 1 for g in groups.values())
        rows = {}  # state -> its row's id
        for group in groups.values():
            (state,) = set(group.values())  # one head, one state
            row = pred.full_dist(state)
            assert not row.flags.writeable
            rows[state] = id(row)
            for last in group:
                # the row a predictor builds from these tokens alone
                own = NgramPredictor(pred.model, floor=floor).full_dist(last)
                assert row.tobytes() == own.tobytes()
        assert len(set(rows.values())) == len(rows)  # one row per state
        assert len(rows) < len(groups)  # childless zero-weight heads share their suffix's

    @pytest.mark.parametrize("floor", [0.0, 0.05])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, "arpa"])
    def test_rows_and_ranks_match_the_whole_history(self, order, floor, tmp_path):
        # reference: the row of every token so far, floor-mixed, and its
        # stable argsort cut; the state may keep fewer tokens, not change it
        tokens = ()
        if order == "arpa":  # a b c is a trigram, b c no bigram: not suffix-closed
            path = tmp_path / "m.arpa"
            path.write_text(NOT_SUFFIX_CLOSED, encoding="utf-8")
            pred = NgramPredictor(load_arpa(path, Vocabulary(["a", "b", "c", "d"])), floor)
            tokens = (0, 1, 2, 0, 1, 3)
            assert pred.advance(pred.advance(pred.initial_state(), 0), 1) == (0, 1)
            assert pred.advance((0, 1), 2) == ()  # c: no children, no backoff weight
        else:
            pred, _ = self.make(floor, order=order)
        model, n = pred.model, pred.n_words
        for history, state in self.walk(pred, np.random.default_rng(15), 150, tokens):
            row = model.dense_row(model.suffix_chain(history))[:n]
            if floor:
                row = np.logaddexp(math.log1p(-floor) + row, math.log(floor / n))
            assert pred.full_dist(state).tobytes() == row.tobytes()
            ranked = np.argsort(-row, kind="stable")
            for r in (1, 3, n):
                want = np.sort(ranked[row[ranked] > NEG_INF][:r])
                got = pred.top_r(state, r)
                assert got.tobytes() == want.astype(np.int64).tobytes()
                assert pred.full_dist(state)[got].tobytes() == row[want].tobytes()

    @pytest.mark.parametrize("floor", [0.0, 0.1])
    def test_shared_dense_row_is_read_only(self, floor):
        pred, _ = self.make(floor)
        row = pred.full_dist(pred.initial_state())
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


class TestFntScorer:
    def test_blank_history_penalty(self):
        pred, _ = TestNgramPredictor().make(0.0)
        scorer = FntScorer(pred, gamma=1.5)
        assert scorer.blank_score(-2.0, 0) == -2.0
        assert scorer.blank_score(-2.0, 3) == pytest.approx(-2.0 + 4.5)
        with pytest.raises(ValueError, match="gamma"):
            FntScorer(pred, gamma=-0.5)


class TestWordPieces:
    def test_short_word_single_piece(self):
        assert word_pieces("call") == ("▁call",)
        assert word_pieces("mobile") == ("▁mobile",)

    def test_long_word_splits(self):
        assert word_pieces("landline") == ("▁land", "line")
        assert pieces_of(["call", "landline"]) == ["▁call", "▁land", "line"]


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="undefined classes"):
            small_spec(templates=("call ⟨WHO⟩",))
        with pytest.raises(ValueError, match="empty inventory"):
            small_spec(classes={"⟨NAME⟩": ()}, templates=("hi ⟨NAME⟩",))
        with pytest.raises(ValueError, match="coverage"):
            small_spec(coverage=1.5)
        with pytest.raises(ValueError, match="scale"):
            small_spec(scale=0.0)
        with pytest.raises(ValueError, match="split sizes"):
            small_spec(n_test=0)


class TestSynthesizeScenario:
    def test_deterministic(self):
        a = synthesize_scenario(small_spec())
        b = synthesize_scenario(small_spec())
        assert a.train_texts == b.train_texts
        assert a.adapt_texts == b.adapt_texts
        assert a.clm_texts == b.clm_texts
        assert a.class_entries == b.class_entries
        assert [u.ref_pieces for u in a.tests] == [u.ref_pieces for u in b.tests]
        for ua, ub in zip(a.tests, b.tests):
            assert np.array_equal(ua.encoder.scores, ub.encoder.scores)
            assert np.array_equal(ua.encoder.blank_logits, ub.encoder.blank_logits)

    def test_seed_changes_output(self):
        a = synthesize_scenario(small_spec())
        b = synthesize_scenario(small_spec(seed=8))
        assert a.train_texts != b.train_texts

    def test_vocab_covers_all_texts(self):
        scn = synthesize_scenario(small_spec())
        for text in scn.train_texts + scn.adapt_texts:
            for piece in text.split():
                assert piece in scn.vocab
        tags = set()
        for sent in scn.clm_texts:
            for tok in sent:
                if tok.startswith("⟨"):
                    tags.add(tok)
                else:
                    assert tok in scn.vocab
        assert tags <= {"⟨NAME⟩", "⟨TYPE⟩"}

    def test_noiseless_frames_peak_at_reference(self):
        scn = synthesize_scenario(small_spec(tau=0.0, scale=6.0))
        vocab = scn.vocab
        for utt in scn.tests:
            ids = vocab.ids_of(utt.ref_pieces)
            assert utt.encoder.n_frames == len(ids)
            n = len(vocab)
            want_peak = 6.0 - math.log(math.exp(6.0) + n - 1)
            for t, ref_id in enumerate(ids):
                row = utt.encoder.scores[t]
                assert int(np.argmax(row)) == ref_id
                assert row[ref_id] == pytest.approx(want_peak, abs=1e-12)
                want_blank = math.log1p(-math.exp(row[ref_id]))
                assert utt.encoder.blank_logits[t] == pytest.approx(
                    want_blank, abs=1e-12
                )

    def test_blank_offset_shifts_blank_logits(self):
        plain = synthesize_scenario(small_spec())
        shifted = synthesize_scenario(small_spec(blank_offset=0.8))
        np.testing.assert_allclose(
            shifted.tests[0].encoder.blank_logits,
            plain.tests[0].encoder.blank_logits - 0.8,
            atol=1e-12,
        )

    def test_blank_frames_inserted(self):
        padded = synthesize_scenario(small_spec(blank_frames=2))
        for utt in padded.tests:
            assert utt.encoder.n_frames == len(utt.ref_pieces) + 2
        # padding draws extra random numbers, so only the first utterance
        # is comparable across the two runs
        plain = synthesize_scenario(small_spec())
        assert padded.tests[0].ref_pieces == plain.tests[0].ref_pieces

    def test_substitution_noise_plants_confusers(self):
        scn = synthesize_scenario(small_spec(sub_rate=1.0, scale=6.0))
        vocab = scn.vocab
        utt = scn.tests[0]
        ids = vocab.ids_of(utt.ref_pieces)
        for t, ref_id in enumerate(ids):
            row = utt.encoder.scores[t]
            order = np.argsort(-row)
            assert order[0] == ref_id
            # runner-up carries 0.95 of the peak logit, nowhere near the floor
            assert row[order[1]] - row[order[2]] > 1.0

    def test_entity_word_indices_mark_entities(self):
        scn = synthesize_scenario(small_spec())
        fillers = {"call", "dial", "now", "on", "please", "check", "the", "weather"}
        saw_entity = False
        for utt in scn.tests:
            for i, word in enumerate(utt.ref_words):
                if i in utt.entity_word_indices:
                    assert word not in fillers
                    saw_entity = True
                else:
                    assert word in fillers
        assert saw_entity

    def test_train_and_test_entity_pools_are_disjoint(self):
        scn = synthesize_scenario(small_spec())
        train_blob = " " + " ".join(scn.train_texts) + " "
        test_phrases = set()
        for utt in scn.tests:
            for i in utt.entity_word_indices:
                test_phrases.add(utt.ref_words[i])
        assert test_phrases
        for word in test_phrases:
            marked = " ".join(pieces_of([word]))
            assert f" {marked} " not in train_blob

    @staticmethod
    def mentioned_phrases(tests):
        """Entity phrases of the test set, as piece tuples, one per
        consecutive run of entity word indices."""
        phrases = set()
        for utt in tests:
            run = []
            for i in sorted(utt.entity_word_indices) + [-2]:
                if run and i != run[-1] + 1:
                    phrases.add(tuple(pieces_of([utt.ref_words[j] for j in run])))
                    run = []
                run.append(i)
        return phrases

    def test_full_coverage_includes_all_mentioned(self):
        scn = synthesize_scenario(small_spec(coverage=1.0))
        entries = {
            pieces for lst in scn.class_entries.values() for pieces, _ in lst
        }
        mentioned = self.mentioned_phrases(scn.tests)
        assert mentioned
        assert mentioned <= entries

    def test_zero_coverage_drops_every_mentioned_entity(self):
        full = synthesize_scenario(small_spec(coverage=1.0))
        none = synthesize_scenario(small_spec(coverage=0.0))
        full_entries = {
            pieces for lst in full.class_entries.values() for pieces, _ in lst
        }
        none_entries = {
            pieces for lst in none.class_entries.values() for pieces, _ in lst
        }
        assert none_entries < full_entries
        mentioned = self.mentioned_phrases(none.tests)
        assert mentioned
        assert not (mentioned & none_entries)
        assert mentioned <= full_entries - none_entries

    def test_adapt_texts_align_with_clm_texts(self):
        scn = synthesize_scenario(small_spec())
        assert len(scn.clm_texts) == len(scn.adapt_texts)
        for text, tagged in zip(scn.adapt_texts, scn.clm_texts):
            # tag expansion can only shorten or keep the piece count
            assert len(tagged) <= len(text.split())


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=5))
        write_scenario(scn, tmp_path / "scn")
        back = read_scenario(tmp_path / "scn")
        assert list(back.vocab) == list(scn.vocab)
        assert back.train_texts == scn.train_texts
        assert back.adapt_texts == scn.adapt_texts
        assert back.clm_texts == scn.clm_texts
        assert back.class_entries == scn.class_entries
        assert len(back.tests) == len(scn.tests)
        for a, b in zip(scn.tests, back.tests):
            assert a.utt_id == b.utt_id
            assert a.ref_words == b.ref_words
            assert a.ref_pieces == b.ref_pieces
            assert a.entity_word_indices == b.entity_word_indices
            assert np.array_equal(a.encoder.scores, b.encoder.scores)
            assert np.array_equal(a.encoder.blank_logits, b.encoder.blank_logits)

    def test_round_trip_with_empty_entity_indices(self, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=12))
        plain = [u for u in scn.tests if not u.entity_word_indices]
        assert plain, "expected at least one entity-free test sentence"
        write_scenario(scn, tmp_path / "scn")
        back = read_scenario(tmp_path / "scn")
        for a, b in zip(scn.tests, back.tests):
            assert a.entity_word_indices == b.entity_word_indices

    def test_bad_score_file_named(self, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=3))
        write_scenario(scn, tmp_path / "scn")
        utt = scn.tests[1].utt_id
        path = tmp_path / "scn" / "scores" / f"{utt}.fnt"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=rf"^scores/{utt}\.fnt: byte \d+: truncated"):
            read_scenario(tmp_path / "scn")

    def test_refs_field_count_names_line(self, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=3))
        write_scenario(scn, tmp_path / "scn")
        refs = tmp_path / "scn" / "refs.tsv"
        lines = refs.read_text(encoding="utf-8").splitlines()
        lines[1] = "\t".join(lines[1].split("\t")[:3])
        refs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match="refs.tsv line 2: expected 4 tab-separated fields, got 3"
        ):
            read_scenario(tmp_path / "scn")

    @staticmethod
    def write_refs_field(directory, lineno, column, value):
        refs = directory / "refs.tsv"
        lines = refs.read_text(encoding="utf-8").splitlines()
        fields = lines[lineno - 1].split("\t")
        fields[column] = value
        lines[lineno - 1] = "\t".join(fields)
        refs.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_refs_row_without_words_names_line(self, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=3))
        write_scenario(scn, tmp_path / "scn")
        self.write_refs_field(tmp_path / "scn", 2, 1, " ")
        with pytest.raises(ValueError, match="refs.tsv line 2: no reference words"):
            read_scenario(tmp_path / "scn")

    @pytest.mark.parametrize("index", ["-1", "n"])
    def test_refs_entity_index_out_of_range_names_line(self, index, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=3))
        write_scenario(scn, tmp_path / "scn")
        n = len(scn.tests[2].ref_words)
        index = str(n) if index == "n" else index
        self.write_refs_field(tmp_path / "scn", 3, 2, f"0,{index}")
        with pytest.raises(
            ValueError,
            match=rf"refs.tsv line 3: entity word index {index} outside \[0, {n}\)",
        ):
            read_scenario(tmp_path / "scn")

    def test_refs_bad_entity_index_names_line(self, tmp_path):
        scn = synthesize_scenario(small_spec(n_test=3))
        write_scenario(scn, tmp_path / "scn")
        refs = tmp_path / "scn" / "refs.tsv"
        lines = refs.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[2] = "1,x"
        lines[2] = "\t".join(fields)
        refs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match="refs.tsv line 3: entity word indices must be integers, got '1,x'"
        ):
            read_scenario(tmp_path / "scn")
