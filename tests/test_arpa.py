"""ARPA save/load: base conversion, round trips, malformed input faults."""

import hashlib
import math
import re

import numpy as np
import pytest

from fntfuse.arpa import ArpaParseError, load_arpa, save_arpa
from fntfuse.core import NEG_INF, Vocabulary
from fntfuse.ngram import train_kneser_ney

from helpers import random_corpus, random_history, toy_class_model
from oracles import load_arpa_per_line
from test_ngram import TRIE_ARRAYS


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestRoundTrip:
    def test_all_queries_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        vocab, sentences = random_corpus(rng, n_types=9, n_sentences=16)
        model = train_kneser_ney(sentences, 3, vocab=vocab)
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        loaded = load_arpa(path, vocab)
        for _ in range(60):
            h = random_history(rng, len(vocab), model.bos_id)
            for w in range(len(vocab) + 2):
                a, b = model.logprob(w, h), loaded.logprob(w, h)
                if a == NEG_INF or b == NEG_INF:
                    assert a == b
                else:
                    np.testing.assert_allclose(a, b, atol=1e-9)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(14)
        vocab, sentences = random_corpus(rng, n_types=7, n_sentences=12)
        model = train_kneser_ney(sentences, 2, vocab=vocab)
        p1, p2 = tmp_path / "a.arpa", tmp_path / "b.arpa"
        save_arpa(model, p1)
        save_arpa(load_arpa(p1, vocab), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_start_symbol_written_as_zero_sentinel(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        model = train_kneser_ney([vocab.ids_of(["a", "b"])], 2, vocab=vocab)
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        sos_lines = [
            l
            for l in path.read_text().splitlines()
            if l.split("\t")[1:2] == ["<s>"]
        ]
        assert sos_lines and all(l.startswith("-99\t") for l in sos_lines)
        assert load_arpa(path, vocab).logprob(model.bos_id, ()) == NEG_INF


class TestLoadValues:
    def test_base_conversion(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        path = write(
            tmp_path / "m.arpa",
            "\\data\\\n"
            "ngram 1=2\n"
            "ngram 2=1\n"
            "\n\\1-grams:\n"
            "-0.4\ta\t-0.2\n"
            "-0.6\tb\n"
            "\n\\2-grams:\n"
            "-0.30103\ta b\n"
            "\n\\end\\\n",
        )
        model = load_arpa(path, vocab)
        np.testing.assert_allclose(
            model.logprob(vocab.id_of("b"), (vocab.id_of("a"),)),
            math.log(0.5),
            atol=1e-7,
        )

    def test_handwritten_unigram_values_exact(self, tmp_path):
        vocab = Vocabulary(["a", "b", "c"])
        path = write(
            tmp_path / "u.arpa",
            "\\data\\\n"
            "ngram 1=4\n"
            "\n\\1-grams:\n"
            "-0.5\ta\n"
            "-0.75\tb\n"
            "-1\tc\n"
            "-99\t<s>\n"
            "\n\\end\\\n",
        )
        model = load_arpa(path, vocab)
        ln10 = math.log(10.0)
        assert model.logprob(vocab.id_of("a"), ()) == -0.5 * ln10
        assert model.logprob(vocab.id_of("b"), ()) == -0.75 * ln10
        assert model.logprob(vocab.id_of("c"), ()) == -1.0 * ln10
        assert model.logprob(model.bos_id, ()) == NEG_INF

    def test_backoff_applied_from_file(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        path = write(
            tmp_path / "m.arpa",
            "\\data\\\n"
            "ngram 1=2\n"
            "ngram 2=1\n"
            "\n\\1-grams:\n"
            "-0.4\ta\t-0.2\n"
            "-0.6\tb\n"
            "\n\\2-grams:\n"
            "-0.3\ta a\n"
            "\n\\end\\\n",
        )
        model = load_arpa(path, vocab)
        a, b = vocab.ids_of(["a", "b"])
        ln10 = math.log(10.0)
        # b unseen after a: unigram times bow(a)
        assert model.logprob(b, (a,)) == (-0.2 * ln10) + (-0.6 * ln10)


class TestMalformedInput:
    def base(self):
        return (
            "\\data\\\n"
            "ngram 1=2\n"
            "\n\\1-grams:\n"
            "-0.5\ta\n"
            "-0.5\tb\n"
            "\n\\end\\\n"
        )

    def test_missing_data_header(self, tmp_path):
        path = write(tmp_path / "m.arpa", self.base().replace("\\data\\\n", ""))
        with pytest.raises(ValueError, match="data"):
            load_arpa(path, Vocabulary(["a", "b"]))

    def test_wrong_entry_count(self, tmp_path):
        path = write(tmp_path / "m.arpa", self.base().replace("ngram 1=2", "ngram 1=3"))
        with pytest.raises(ValueError, match="fewer entries"):
            load_arpa(path, Vocabulary(["a", "b"]))

    def test_unknown_token(self, tmp_path):
        path = write(tmp_path / "m.arpa", self.base())
        with pytest.raises(ValueError, match="line 6.*vocabulary"):
            load_arpa(path, Vocabulary(["a", "x"]))

    def test_out_of_order_sections(self, tmp_path):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "ngram 2=1\n"
            "\n\\2-grams:\n"
            "-0.3\ta a\n"
            "\n\\1-grams:\n"
            "-0.5\ta\n"
            "\n\\end\\\n"
        )
        path = write(tmp_path / "m.arpa", text)
        with pytest.raises(ValueError, match="out of order"):
            load_arpa(path, Vocabulary(["a"]))

    def test_missing_end_marker(self, tmp_path):
        path = write(tmp_path / "m.arpa", self.base().replace("\\end\\\n", ""))
        with pytest.raises(ValueError, match="end"):
            load_arpa(path, Vocabulary(["a", "b"]))

    def test_context_free_bigram_faults(self, tmp_path):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "ngram 2=1\n"
            "\n\\1-grams:\n"
            "-0.2\ta\t-0.1\n"
            "\n\\2-grams:\n"
            "-0.3\tb a\n"
            "\n\\end\\\n"
        )
        path = write(tmp_path / "m.arpa", text)
        with pytest.raises(ValueError, match="context"):
            load_arpa(path, Vocabulary(["a", "b"]))

    def test_bad_float_faults(self, tmp_path):
        path = write(tmp_path / "m.arpa", self.base().replace("-0.5\ta", "oops\ta"))
        with pytest.raises(ValueError, match="numeric"):
            load_arpa(path, Vocabulary(["a", "b"]))


def fuzzed_file(kind, rng, tmp_path):
    """A trained model's ARPA file with one seeded fault of ``kind``,
    and the 1-based line the fault must be reported at."""
    vocab, sentences = random_corpus(rng, n_types=8, n_sentences=14)
    model = train_kneser_ney(sentences, 3, vocab=vocab)
    path = tmp_path / "m.arpa"
    save_arpa(model, path)
    lines = path.read_text(encoding="utf-8").splitlines()

    def section(k):
        start = lines.index(f"\\{k}-grams:") + 1
        return start, lines.index("", start)

    def gram(i):
        return lines[i].split("\t")[1]

    def recount(k, delta):
        head = lines.index(f"ngram {k}={model.level_size(k)}")
        lines[head] = f"ngram {k}={model.level_size(k) + delta}"

    k = int(rng.integers(2 if kind == "context" else 1, model.order + 1))
    start, end = section(k)
    i = int(rng.integers(start, end))
    fields = lines[i].split("\t")
    if kind == "truncated":  # the section stops early; the next marker is met
        del lines[i:end]
        bad = i + 1
    elif kind == "unknown":
        toks = fields[1].split()
        toks[int(rng.integers(len(toks)))] = "▁unseen"
        fields[1] = " ".join(toks)
        lines[i] = "\t".join(fields)
        bad = i
    elif kind in ("nan", "inf"):
        spell = ["nan", "NaN"] if kind == "nan" else ["inf", "+inf", "Infinity", "1e400"]
        fields[int(rng.choice([0, 2] if len(fields) == 3 else [0]))] = str(rng.choice(spell))
        lines[i] = "\t".join(fields)
        bad = i
    elif kind == "duplicate":
        bad = int(rng.integers(i + 1, end + 1))
        lines.insert(bad, lines[i])
        recount(k, 1)
    else:  # context: delete the (k-1)-gram that grams[i] extends
        prefix = gram(i).rsplit(" ", 1)[0]
        lo, hi = section(k - 1)
        del lines[next(j for j in range(lo, hi) if gram(j) == prefix)]
        recount(k - 1, -1)
        start, end = section(k)
        bad = next(j for j in range(start, end) if gram(j).rsplit(" ", 1)[0] == prefix)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, vocab, bad + 1


class TestFuzzedFiles:
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("truncated", "fewer entries"),
            ("unknown", "not in vocabulary"),
            ("context", "lacks its [12]-gram context"),
            ("duplicate", "duplicate"),
            ("nan", "NaN or \\+inf value: '(nan|NaN)'"),
            ("inf", "NaN or \\+inf value: '(inf|\\+inf|Infinity|1e400)'"),
        ],
    )
    def test_fault_named_at_its_line(self, kind, message, tmp_path):
        rng = np.random.default_rng(500)
        for _ in range(8):
            path, vocab, lineno = fuzzed_file(kind, rng, tmp_path)
            with pytest.raises(ArpaParseError, match=message) as err:
                load_arpa(path, vocab)
            assert err.value.lineno == lineno
            assert str(err.value).startswith(f"line {lineno}: ")

    def test_finite_positive_values_still_load(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        path = write(
            tmp_path / "m.arpa",
            "\\data\\\nngram 1=2\n\n\\1-grams:\n0.25\ta\n-0.5\tb\n\n\\end\\\n",
        )
        model = load_arpa(path, vocab)
        assert model.logprob(vocab.id_of("a"), ()) == 0.25 * math.log(10.0)


class TestVocabularyRefused:
    @pytest.mark.parametrize("token", ["a b", "a\tb", "x\xa0y", "<s>", "</s>"])
    def test_save_refuses_a_token_it_cannot_write(self, token, tmp_path):
        # such a model used to save, then fail to load (or load shadowed)
        vocab = Vocabulary(["a", token])
        model = train_kneser_ney([[0, 1], [1, 0]], 2, vocab=vocab)
        path = tmp_path / "m.arpa"
        with pytest.raises(ValueError, match=re.escape(f"vocabulary token {token!r}")):
            save_arpa(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("token", ["<s>", "</s>"])
    def test_load_refuses_a_token_spelled_as_a_sentinel(self, token, tmp_path):
        path = write(
            tmp_path / "m.arpa",
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n-0.5\t</s>\n\n\\end\\\n",
        )
        with pytest.raises(ValueError, match=re.escape(f"vocabulary token {token!r}")):
            load_arpa(path, Vocabulary(["a", token]))


class TestHeaderCounts:
    def header(self, counts):
        return "\\data\\\n" + "".join(f"ngram {c}\n" for c in counts) + (
            "\n\\1-grams:\n-0.5\ta\t-0.1\n-0.5\tb\n"
            "\n\\2-grams:\n-0.3\ta b\n"
            "\n\\end\\\n"
        )

    @pytest.mark.parametrize(
        "counts, lineno, message",
        [
            (["1=2", "2=-1"], 3, "negative ngram count: 'ngram 2=-1'"),
            (["1=2", "1=3", "2=1"], 3, "repeated ngram 1 count: 'ngram 1=3'"),
            (["1=0", "2=1"], 2, "no 1-grams declared: 'ngram 1=0'"),
        ],
    )
    def test_bad_count_names_its_line(self, counts, lineno, message, tmp_path):
        path = write(tmp_path / "m.arpa", self.header(counts))
        with pytest.raises(ArpaParseError) as err:
            load_arpa(path, Vocabulary(["a", "b"]))
        assert (err.value.lineno, str(err.value)) == (lineno, f"line {lineno}: {message}")

    def test_good_counts_load(self, tmp_path):
        path = write(tmp_path / "m.arpa", self.header(["1=2", "2=1"]))
        assert load_arpa(path, Vocabulary(["a", "b"])).level_size(2) == 1


def reference_models(tmp_path):
    """ARPA files of seeded random models (orders 1-4, with and without
    the end sentinel) and of a class-tagged model, with vocabularies."""
    rng = np.random.default_rng(2305)
    files = []
    for order in (1, 2, 3, 4):
        for eos in (True, False):
            vocab, sentences = random_corpus(rng, n_types=9, n_sentences=18)
            path = tmp_path / f"o{order}-eos{int(eos)}.arpa"
            save_arpa(train_kneser_ney(sentences, order, vocab=vocab, eos=eos), path)
            files.append((path, vocab))
    clm = toy_class_model(order=3)[1].ngram
    save_arpa(clm, tmp_path / "clm.arpa")
    files.append((tmp_path / "clm.arpa", clm.vocab))
    return files


def respaced(text, rng, variant):
    """``text`` in a spelling both loaders accept: CRLF line ends, runs
    of spaces and tabs between fields, blanks around lines, or blank
    lines inside sections."""
    lines = text.split("\n")
    if variant == "crlf":
        return "\r\n".join(lines)
    if variant == "spaces":
        return "\n".join(
            "".join(" " * int(rng.integers(1, 4)) if c in " \t" else c for c in line)
            for line in lines
        )
    if variant == "blanks":
        return "\n".join(
            " " * int(rng.integers(0, 3)) + line + " \t"[: int(rng.integers(0, 3))]
            for line in lines
        )
    out = []  # blank lines, some of them whitespace only
    for line in lines:
        out.append(line)
        if rng.random() < 0.2:
            out.append(" \t"[: int(rng.integers(0, 3))])
    return "\n".join(out)


def corrupt(text, rng):
    """``text`` with one to three seeded faults of the kinds both
    loaders check; counts in the header stay positive."""
    lines = text.split("\n")
    for _ in range(int(rng.integers(1, 4))):
        entries = [
            i for i, line in enumerate(lines)
            if "\t" in line and not line.startswith(("\\", "ngram"))
        ]
        i = int(rng.choice(entries))
        fields = lines[i].split("\t")
        kind = rng.choice(
            ["number", "nan", "inf", "token", "context", "fields", "extra",
             "duplicate", "drop", "stray", "marker", "end"]
        )
        if kind == "number":
            fields[int(rng.integers(0, len(fields))) if len(fields) == 3 else 0] = "0.5x"
        elif kind in ("nan", "inf"):
            fields[2 if len(fields) == 3 and rng.random() < 0.5 else 0] = (
                "nan" if kind == "nan" else str(rng.choice(["inf", "+Infinity", "1e999"]))
            )
        elif kind in ("token", "context"):  # unknown, or maybe without its context
            toks = fields[1].split()
            known = sorted({t for j in entries for t in lines[j].split("\t")[1].split()})
            toks[int(rng.integers(len(toks)))] = "unseen" if kind == "token" else rng.choice(known)
            fields[1] = " ".join(toks)
        elif kind == "fields":  # a probability alone, or one field past a backoff
            fields = fields[:1] if rng.random() < 0.5 else fields + ["-0.1", "-0.2"]
        elif kind == "extra":  # a backoff weight, at the maximum order a fault
            fields = fields[:2] + ["-0.25"]
        elif kind == "duplicate":  # also past the declared count
            lines.insert(int(rng.integers(i + 1, i + 4)), lines[i])
        elif kind == "drop":  # a short section, or a k-gram without its context
            del lines[i]
        elif kind == "stray":
            lines.insert(i, "\\stray")
        elif kind == "marker":
            markers = [j for j, line in enumerate(lines) if line.endswith("-grams:")]
            if markers:
                j = int(rng.choice(markers))
                lines[j] = lines[j].replace("-grams:", "-gram:")
        elif kind == "end":
            lines = [line for line in lines if line != "\\end\\"]
        if kind in ("number", "nan", "inf", "token", "context", "fields", "extra"):
            lines[i] = "\t".join(fields)
    return "\n".join(lines)


def outcome(loader, path, vocab):
    """The model's trie arrays, or the fault's line and message."""
    try:
        model = loader(path, vocab)
    except ArpaParseError as err:
        return "fault", err.lineno, str(err)
    except ValueError as err:
        return "error", str(err)
    return "model", [
        (name, k, getattr(model, name)[k].dtype.str, getattr(model, name)[k].tobytes())
        for name in TRIE_ARRAYS
        for k in range(1, model.order + 1)
    ]


class TestAgainstPerLineReference:
    @pytest.mark.parametrize("variant", ["as-saved", "crlf", "spaces", "blanks", "blank-lines"])
    def test_same_trie(self, variant, tmp_path):
        rng = np.random.default_rng(17)
        for path, vocab in reference_models(tmp_path):
            if variant != "as-saved":
                text = path.read_text(encoding="utf-8")
                path.write_bytes(respaced(text, rng, variant).encode("utf-8"))
            expected = outcome(load_arpa_per_line, path, vocab)
            assert expected[0] == "model"
            assert outcome(load_arpa, path, vocab) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_same_first_fault(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        faults = 0
        for path, vocab in reference_models(tmp_path):
            text = path.read_text(encoding="utf-8")
            for _ in range(4):
                path.write_text(corrupt(text, rng), encoding="utf-8")
                expected = outcome(load_arpa_per_line, path, vocab)
                assert outcome(load_arpa, path, vocab) == expected
                faults += expected[0] == "fault"
        assert faults >= 30  # of 36 corrupted files

    def test_saved_bytes_pinned(self, tmp_path):
        # seeded log10 values over a trained model's grams, so the bytes
        # do not depend on the float64 log in use
        rng = np.random.default_rng(31)
        vocab, sentences = random_corpus(rng, n_types=12, n_sentences=30)
        path = tmp_path / "m.arpa"
        save_arpa(train_kneser_ney(sentences, 3, vocab=vocab), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        for i, line in enumerate(lines):
            fields = line.split("\t")
            if len(fields) > 1:
                fields[0] = "-99" if rng.random() < 0.1 else repr(rng.uniform(-6.0, 0.0))
                fields[2:] = [repr(rng.uniform(-3.0, 1.0)) for _ in fields[2:]]
                lines[i] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        save_arpa(load_arpa(path, vocab), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ceaf7b951b4cbf37ef0599a021e24cb2944cd05bd3ac6c18ea049d954961d32b"
