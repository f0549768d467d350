"""ARPA text I/O for backoff n-gram models.

Disk values are log10 per the format; everything in memory is natural
log. Zero probability is written as -99; on load, any value <= -99 is
taken as the zero sentinel and becomes -inf, so save->load round-trips
are exact. Sentence sentinels appear in files under their conventional
spellings ``<s>`` and ``</s>``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NEG_INF, Vocabulary
from .ngram import NgramModel, gram_ids

SOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
_LN10 = math.log(10.0)
_ZERO_LOG10 = -99.0


def _to_log10(ln_value: float) -> str:
    if ln_value == NEG_INF:
        return "-99"
    return repr(ln_value / _LN10)


def save_arpa(model: NgramModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\\data\\\n")
        for k in range(1, model.order + 1):
            f.write(f"ngram {k}={model.level_size(k)}\n")
        for k in range(1, model.order + 1):
            f.write(f"\n\\{k}-grams:\n")
            for gram, prob, bow in model.iter_ngrams(k):
                toks = " ".join(_spell(model, t) for t in gram)
                line = f"{_to_log10(prob)}\t{toks}"
                if bow is not None:
                    line += f"\t{_to_log10(bow)}"
                f.write(line + "\n")
        f.write("\n\\end\\\n")


def _spell(model: NgramModel, token_id: int) -> str:
    if token_id == model.bos_id:
        return SOS_TOKEN
    if token_id == model.eos_id:
        return EOS_TOKEN
    return model.vocab.token_of(token_id)


class ArpaParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def load_arpa(path, vocab: Vocabulary) -> NgramModel:
    """Parse an ARPA file into a model over ``vocab`` plus sentinels.

    Tokens must resolve through the vocabulary (or be the two sentinel
    spellings); anything else is a fault, as are header/section
    mismatches, non-numeric, NaN or +inf values, duplicate k-grams and
    a k-gram whose (k-1)-gram context is absent. Each fault names its
    line. Each section becomes one sorted array of gram ids.
    """
    index = {tok: i for i, tok in enumerate(vocab)}
    index.update({SOS_TOKEN: len(vocab), EOS_TOKEN: len(vocab) + 1})

    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    it = iter(enumerate(lines, start=1))

    def next_content():
        for lineno, text in it:
            if text.strip():
                return lineno, text.strip()
        return None, None

    lineno, text = next_content()
    if text != "\\data\\":
        raise ArpaParseError(lineno or 0, "expected \\data\\ header")

    counts: dict[int, int] = {}
    while True:
        lineno, text = next_content()
        if text is None:
            raise ArpaParseError(len(lines), "unexpected end of file in header")
        if text.startswith("\\") and text.endswith("-grams:"):
            break
        if not text.startswith("ngram "):
            raise ArpaParseError(lineno, f"unexpected header line: {text!r}")
        body = text[len("ngram "):]
        k_str, _, n_str = body.partition("=")
        try:
            k, n = int(k_str), int(n_str)
        except ValueError:
            raise ArpaParseError(lineno, f"bad ngram count line: {text!r}") from None
        counts[k] = n
    order = len(counts)
    if order == 0 or sorted(counts) != list(range(1, order + 1)):
        raise ArpaParseError(lineno, f"non-contiguous ngram orders: {sorted(counts)}")

    def parse_value(raw: str, lineno: int) -> float:
        try:
            v = float(raw)
        except ValueError:
            raise ArpaParseError(lineno, f"bad numeric field: {raw!r}") from None
        if math.isnan(v) or v == math.inf:
            raise ArpaParseError(lineno, f"NaN or +inf value: {raw!r}")
        return NEG_INF if v <= _ZERO_LOG10 else v * _LN10

    keys, logprobs, bows = [], [], []
    expected_k = 1
    while True:
        if text is None:
            raise ArpaParseError(len(lines), "missing \\end\\ marker")
        if text == "\\end\\":
            break
        if not (text.startswith("\\") and text.endswith("-grams:")):
            raise ArpaParseError(lineno, f"expected a section marker, got {text!r}")
        try:
            k = int(text[1 : -len("-grams:")])
        except ValueError:
            raise ArpaParseError(lineno, f"bad section marker: {text!r}") from None
        if k != expected_k:
            raise ArpaParseError(
                lineno, f"section {k} out of order, expected {expected_k}"
            )
        if k > order:
            raise ArpaParseError(lineno, f"section {k} beyond header order {order}")
        tokens, probs, bow_col, linenos = [], [], [], []
        for _ in range(counts[k]):
            lineno, text = next_content()
            if text is None or text.startswith("\\"):
                raise ArpaParseError(
                    lineno or len(lines),
                    f"section {k} has fewer entries than declared ({counts[k]})",
                )
            fields = text.split()
            if len(fields) not in (k + 1, k + 2):
                raise ArpaParseError(lineno, f"expected {k}-gram entry, got {text!r}")
            probs.append(parse_value(fields[0], lineno))
            for tok in fields[1 : k + 1]:
                if tok not in index:
                    raise ArpaParseError(lineno, f"token not in vocabulary: {tok!r}")
                tokens.append(index[tok])
            has_bow = len(fields) == k + 2
            if has_bow and k == order:
                raise ArpaParseError(lineno, "backoff weight at maximum order")
            bow_col.append(parse_value(fields[k + 1], lineno) if has_bow else 0.0)
            linenos.append(lineno)

        rows = np.array(tokens, dtype=np.int64).reshape(-1, k)
        ids, missing = gram_ids(rows, keys, len(vocab) + 2)
        if missing >= 0:
            bad = linenos[missing]
            raise ArpaParseError(
                bad, f"{k}-gram lacks its {k - 1}-gram context: {lines[bad - 1].strip()!r}"
            )
        sort = np.argsort(ids, kind="stable")
        ids = ids[sort]
        repeats = sort[1:][ids[1:] == ids[:-1]]
        if repeats.size:
            bad = linenos[int(repeats.min())]
            raise ArpaParseError(bad, f"duplicate {k}-gram: {lines[bad - 1].strip()!r}")
        keys.append(ids)
        logprobs.append(np.array(probs)[sort])
        bows.append(np.array(bow_col)[sort])
        lineno, text = next_content()
        expected_k += 1
    if expected_k != order + 1:
        raise ArpaParseError(lineno or len(lines), "missing n-gram sections")

    try:
        return NgramModel(vocab, order, keys, logprobs, bows)
    except ValueError as err:
        raise ValueError(f"inconsistent ARPA model: {err}") from None
