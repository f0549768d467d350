"""Numeric primitives: stability, normalization, and vocabulary plumbing."""

import math
import re

import numpy as np
import pytest

from fntfuse.core import NEG_INF, Vocabulary, log_softmax, log_sum_exp


class TestLogSumExp:
    def test_halves_sum_to_one(self):
        assert log_sum_exp([math.log(0.5), math.log(0.5)]) == pytest.approx(0.0, abs=1e-12)

    def test_all_neg_inf_is_neg_inf(self):
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    def test_direct_evaluation(self):
        # log(1 + e^-1 + e^-2), evaluated in extended precision
        np.testing.assert_allclose(
            log_sum_exp([0.0, -1.0, -2.0]), 0.4076059644443804, atol=1e-12
        )

    def test_neg_inf_entries_carry_no_mass(self):
        assert log_sum_exp([0.3, NEG_INF]) == pytest.approx(0.3, abs=1e-12)

    def test_large_magnitudes_stable(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))
        assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2.0))

    def test_nan_faults(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, float("nan")])

    def test_pos_inf_faults(self):
        with pytest.raises(ValueError, match=r"\+inf"):
            log_sum_exp([0.0, math.inf])


class TestSoftmax:
    def test_symmetry(self):
        out = log_softmax([0.0, 0.0])
        np.testing.assert_allclose(out, [math.log(0.5)] * 2, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        for c in rng.normal(scale=50.0, size=5):
            out = log_softmax([c, c + math.log(3.0)])
            np.testing.assert_allclose(
                out, [math.log(0.25), math.log(0.75)], atol=1e-9
            )

    def test_direct_evaluation(self):
        out = log_softmax([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            np.exp(out),
            [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
            atol=1e-12,
        )

    def test_sums_to_one_and_keeps_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=rng.integers(2, 40))
            out = log_softmax(x)
            assert abs(np.exp(out).sum() - 1.0) <= 1e-9
            assert np.argmax(out) == np.argmax(x)

    def test_matches_the_plain_expression_and_leaves_input_alone(self):
        rng = np.random.default_rng(8)
        for n in (1, 5, 121, 1101):
            x = rng.normal(scale=5.0, size=n)
            x[1::7] = NEG_INF
            before = x.copy()
            m = x.max()
            want = x - (m + float(np.log(np.sum(np.exp(x - m)))))
            assert np.array_equal(log_softmax(x), want)
            assert np.array_equal(x, before)

    def test_all_neg_inf_faults(self):
        with pytest.raises(ValueError):
            log_softmax([NEG_INF, NEG_INF])

    def test_pos_inf_faults(self):
        # unchecked, this would come back as NaN without a word
        with pytest.raises(ValueError, match=r"\+inf"):
            log_softmax([0.0, math.inf])

    def test_neg_inf_entry_gets_zero_mass(self):
        out = log_softmax([0.0, NEG_INF])
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == NEG_INF


class TestMaxEntry:
    """``log_sum_exp`` and ``log_softmax`` take the max as the entry
    ``argmax`` picks. They must stay bitwise equal to the formulas over
    ``np.maximum.reduce``, which may pick the other of two tied zeros:
    the max's sign drops out, since a tie makes the sum at least 2."""

    ROWS = [
        [-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0, 0.0], [-0.0, -1.0, 0.0, -0.0],
        [0.0], [-0.0], [NEG_INF, -0.0, NEG_INF, 0.0], [3.0, NEG_INF, 3.0],
        [NEG_INF], [NEG_INF, NEG_INF],
    ]

    @staticmethod
    def reduced(x):
        """(max, log-sum-exp) by the ``np.maximum.reduce`` formula."""
        m = float(np.maximum.reduce(x))
        if m == NEG_INF:
            return m, m
        return m, m + float(np.log(np.add.reduce(np.exp(x - m))))

    def rows(self):
        rng = np.random.default_rng(9)
        yield from (np.array(r) for r in self.ROWS)
        for n in (1, 5, 121, 1101):
            x = rng.normal(scale=5.0, size=n)
            x[1::7] = NEG_INF
            yield x

    def test_bitwise_equal_to_the_reduce_formula(self):
        signs = 0
        for x in self.rows():
            m, lse = self.reduced(x)
            signs += math.copysign(1.0, m) != math.copysign(1.0, x[x.argmax()])
            assert np.float64(log_sum_exp(x)).tobytes() == np.float64(lse).tobytes()
            if lse == NEG_INF:
                with pytest.raises(ValueError, match="zero-mass"):
                    log_softmax(x)
            else:
                assert log_softmax(x).tobytes() == (x - lse).tobytes()
        assert signs > 0  # the two maxima differ in sign on some rows

    @pytest.mark.parametrize(
        "row",
        [[0.0, math.nan], [math.inf, math.nan], [math.nan, math.inf],
         [NEG_INF, math.inf, 0.0], [math.inf, math.inf]],
    )
    def test_nan_or_pos_inf_faults_as_the_max(self, row):
        assert not float(np.maximum.reduce(np.array(row))) < math.inf
        for fn in (log_sum_exp, log_softmax):
            with pytest.raises(ValueError, match=r"NaN or \+inf"):
                fn(row)


class TestVocabulary:
    def test_bijection(self):
        vocab = Vocabulary(["▁a", "▁b", "c"])
        for i in range(len(vocab)):
            assert vocab.id_of(vocab.token_of(i)) == i

    def test_unknown_token_faults(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(ValueError):
            vocab.id_of("zz")
        with pytest.raises(ValueError):
            vocab.token_of(5)

    def test_duplicate_faults(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "a"])

    @pytest.mark.parametrize("token", ["", " a", "a ", "a b", "a\tb", "x\xa0y"])
    def test_token_holding_whitespace_faults(self, token):
        # every reader splits on whitespace: such a token could never be read
        with pytest.raises(ValueError, match=re.escape(f"token at line 2: {token!r}")):
            Vocabulary(["z", token])

    def test_file_round_trip(self, tmp_path):
        vocab = Vocabulary(["▁call", "▁jo", "hn", "▁on"])
        path = tmp_path / "vocab.txt"
        vocab.to_file(path)
        loaded = Vocabulary.from_file(path)
        assert list(loaded) == list(vocab)

    def test_extended_keeps_ids(self):
        vocab = Vocabulary(["a", "b"])
        ext = vocab.extended(["⟨NAME⟩"])
        assert ext.id_of("a") == vocab.id_of("a")
        assert ext.id_of("⟨NAME⟩") == 2
        assert len(vocab) == 2
