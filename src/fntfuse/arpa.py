"""ARPA text I/O for backoff n-gram models.

Disk values are log10 per the format; everything in memory is natural
log. Zero probability is written as -99; on load, any value <= -99 is
taken as the zero sentinel and becomes -inf, so save->load round-trips
are exact. Sentence sentinels appear in files under their conventional
spellings ``<s>`` and ``</s>``, so no vocabulary token may be spelled
that way (``Vocabulary`` refuses a token holding whitespace).

Both directions work a section at a time in array passes, after
KenLM's bulk ARPA reader: a save formats a level's columns, each
distinct value once, and writes the file once; a load splits a
section's text into fields once, counts each line's fields, converts
the value columns with ``float`` into arrays and looks each token up,
then runs every check over whole columns.
"""

from __future__ import annotations

import math
import re
from itertools import repeat

import numpy as np

from .core import NEG_INF, Vocabulary
from .ngram import NgramModel, gram_ids

SOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
_LN10 = math.log(10.0)
_ZERO_LOG10 = -99.0
# ``str.splitlines``' line boundaries, by which faults name their line
_EOLS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_EOL = re.compile("\r\n|[" + _EOLS + "]")


def _check_sentinels(vocab: Vocabulary) -> None:
    for tok in (SOS_TOKEN, EOS_TOKEN):
        if tok in vocab:
            raise ValueError(f"vocabulary token {tok!r} is spelled as an ARPA sentence sentinel")


def _log10_text(ln_values: np.ndarray, before: str, after: str) -> np.ndarray:
    """The log10 ``repr`` of each value (``-99`` for -inf) between
    ``before`` and ``after``, as an object array. Each distinct value (by
    its bits, so -0.0 stays apart from 0.0) is formatted once: n-gram
    models repeat most of their values."""
    bits, inverse = np.unique((ln_values / _LN10).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(values == NEG_INF).tolist():
        text[i] = "-99"
    return np.array([before + t + after for t in text], dtype=object)[inverse]


def save_arpa(model: NgramModel, path) -> None:
    """Write ``model`` as ARPA text, each level formatted from its
    columns and the file written once.

    A vocabulary token that could not be read back (one spelled as a
    sentinel) is a ``ValueError``, raised before the file is created.
    """
    _check_sentinels(model.vocab)
    spelling = np.array([*model.vocab, SOS_TOKEN, EOS_TOKEN], dtype=object)
    spaced = spelling + " "
    parts = ["\\data\\\n"]
    parts += [f"ngram {k}={model.level_size(k)}\n" for k in range(1, model.order + 1)]
    for k in range(1, model.order + 1):
        grams, probs, bows, has_bow = model.level_columns(k)
        # a line's pieces: "prob\t", "w1 ", ..., "wk", then "\tbow\n" or "\n"
        pieces = np.empty((grams.shape[0], k + 2), dtype=object)
        pieces[:, 0] = _log10_text(probs, "", "\t")
        pieces[:, 1:k] = spaced[grams[:, :-1]]
        pieces[:, k] = spelling[grams[:, -1]]
        pieces[:, k + 1] = "\n"
        pieces[has_bow, k + 1] = _log10_text(bows[has_bow], "\t", "\n")
        parts += [f"\n\\{k}-grams:\n", "".join(pieces.ravel().tolist())]
    parts.append("\n\\end\\\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(parts))


class ArpaParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class _Lines:
    """An ARPA text read line by line in the header and at section
    markers, and a section at a time in between. ``lineno`` counts the
    lines consumed, as ``str.splitlines`` numbers them."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.lineno = 0

    def next_content(self):
        """(line number, stripped text) of the next non-blank line, or
        (None, None) when the text ends; ``lineno`` is then the number
        of lines in the file."""
        text = self.text
        while self.pos < len(text):
            eol = _EOL.search(text, self.pos)
            stop, nxt = eol.span() if eol else (len(text), len(text))
            line = text[self.pos : stop].strip()
            self.pos = nxt
            self.lineno += 1
            if line:
                return self.lineno, line
        return None, None

    def section(self):
        """The number of the next line, and the text and the lines up to
        the next line whose text starts with a backslash (a section
        marker, or what stands where one must) or up to the end."""
        text, start = self.text, self.pos
        end = text.find("\\", start)
        while end >= 0:
            head = end
            while head > start and text[head - 1] not in _EOLS and text[head - 1].isspace():
                head -= 1
            if head == start or text[head - 1] in _EOLS:
                end = head
                break
            end = text.find("\\", end + 1)
        if end < 0:
            end = len(text)
        chunk = text[start:end]
        lines = chunk.splitlines()
        first = self.lineno + 1
        self.pos, self.lineno = end, self.lineno + len(lines)
        return first, chunk, lines

    def next_lineno(self) -> int:
        """The line a section ended at: the backslash line, or the last
        line of the file."""
        return self.lineno + (self.pos < len(self.text))


def _values(raw: np.ndarray):
    """Natural-log values of log10 fields (-inf at or below -99), and
    the mask of fields that are not numbers or are NaN or +inf. A run of
    equal fields is converted once: a context's probabilities are listed
    in order, and many are equal."""
    head = np.ones(raw.size, dtype=bool)
    head[1:] = raw[1:] != raw[:-1]
    heads = raw[head]
    try:
        v = np.fromiter(map(float, heads), np.float64, heads.size)
    except ValueError:
        v = np.fromiter(map(_float_or_nan, heads), np.float64, heads.size)
    v = v[np.cumsum(head) - 1]
    return np.where(v <= _ZERO_LOG10, NEG_INF, v * _LN10), np.isnan(v) | (v == math.inf)


def _float_or_nan(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _value_fault(raw: str) -> str:
    try:
        float(raw)
    except ValueError:
        return f"bad numeric field: {raw!r}"
    return f"NaN or +inf value: {raw!r}"


def _read_section(k, n, order, reader, index, lower_keys):
    """Ascending gram ids, log-probs and backoffs of the ``n`` k-grams
    of the section that ``reader`` stands at, in id order.

    The section's text is split into fields once and each line's fields
    are counted; every check then runs over whole columns. A fault is
    the one a reader going line by line meets first: the earliest
    faulty entry, and in it a bad field count, then a bad probability,
    an unknown token, a backoff weight at the maximum order, a bad
    backoff weight. Then come a short section, a k-gram without its
    context, a duplicate and an entry past the declared count.
    """
    first, chunk, lines = reader.section()
    width = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    del lines  # a fault's line is found again in ``chunk``
    content = np.flatnonzero(width)
    entries = content[:n]
    width = width[entries]
    bad_width = (width != k + 1) & (width != k + 2)
    m = int(np.argmax(bad_width)) if bad_width.any() else entries.size
    width = width[:m]

    def text_of(i):
        return chunk.splitlines()[entries[i]].strip()

    flat = np.fromiter(chunk.split(), object, int(width.sum()))
    starts = np.cumsum(width) - width
    has_bow = width == k + 2
    words = flat[(starts[:, None] + np.arange(1, k + 1)).ravel()]
    try:
        ids = np.fromiter(map(index.__getitem__, words), np.int64, words.size)
    except KeyError:
        ids = np.fromiter(map(index.get, words, repeat(-1)), np.int64, words.size)
    del words
    ids = ids.reshape(m, k)
    unknown = (ids < 0).any(axis=1)
    logprobs, bad_prob = _values(flat[starts])
    bows, bad_bows = np.zeros(m), np.zeros(m, dtype=bool)
    bows[has_bow], bad_bows[has_bow] = _values(flat[starts[has_bow] + k + 1])
    del flat
    over = has_bow & (k == order)

    faulty = bad_prob | unknown | over | bad_bows
    if faulty.any():
        e = int(np.argmax(faulty))
        fields = text_of(e).split()
        if bad_prob[e]:
            message = _value_fault(fields[0])
        elif unknown[e]:
            token = next(t for t in fields[1 : k + 1] if t not in index)
            message = f"token not in vocabulary: {token!r}"
        elif over[e]:
            message = "backoff weight at maximum order"
        else:
            message = _value_fault(fields[k + 1])
        raise ArpaParseError(first + int(entries[e]), message)
    if m < entries.size:
        raise ArpaParseError(
            first + int(entries[m]), f"expected {k}-gram entry, got {text_of(m)!r}"
        )
    if m < n:
        raise ArpaParseError(
            reader.next_lineno(), f"section {k} has fewer entries than declared ({n})"
        )

    ids, missing = gram_ids(ids, lower_keys, len(index))
    if missing >= 0:
        raise ArpaParseError(
            first + int(entries[missing]),
            f"{k}-gram lacks its {k - 1}-gram context: {text_of(missing)!r}",
        )
    sort = np.argsort(ids, kind="stable")
    ids = ids[sort]
    repeats = sort[1:][ids[1:] == ids[:-1]]
    if repeats.size:
        bad = int(repeats.min())
        raise ArpaParseError(first + int(entries[bad]), f"duplicate {k}-gram: {text_of(bad)!r}")
    if content.size > n:
        extra = chunk.splitlines()[content[n]].strip()
        raise ArpaParseError(first + int(content[n]), f"expected a section marker, got {extra!r}")
    return ids, logprobs[sort], bows[sort]


def load_arpa(path, vocab: Vocabulary) -> NgramModel:
    """Parse an ARPA file into a model over ``vocab`` plus sentinels.

    Tokens must resolve through the vocabulary (or be the two sentinel
    spellings, which no vocabulary token may take); anything else is a
    fault, as are header/section mismatches, a repeated, negative or
    zero-unigram count, non-numeric, NaN or +inf values, duplicate
    k-grams and a k-gram whose (k-1)-gram context is absent. Each fault
    names its line. Each section becomes one sorted array of gram ids.
    """
    _check_sentinels(vocab)
    index = {tok: i for i, tok in enumerate(vocab)}
    index.update({SOS_TOKEN: len(vocab), EOS_TOKEN: len(vocab) + 1})

    with open(path, encoding="utf-8") as f:
        reader = _Lines(f.read())

    lineno, text = reader.next_content()
    if text != "\\data\\":
        raise ArpaParseError(lineno or 0, "expected \\data\\ header")

    counts: dict[int, int] = {}
    while True:
        lineno, text = reader.next_content()
        if text is None:
            raise ArpaParseError(reader.lineno, "unexpected end of file in header")
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
        if k in counts:
            raise ArpaParseError(lineno, f"repeated ngram {k} count: {text!r}")
        if n < 0:
            raise ArpaParseError(lineno, f"negative ngram count: {text!r}")
        if n == 0 and k == 1:
            raise ArpaParseError(lineno, f"no 1-grams declared: {text!r}")
        counts[k] = n
    order = len(counts)
    if order == 0 or sorted(counts) != list(range(1, order + 1)):
        raise ArpaParseError(lineno, f"non-contiguous ngram orders: {sorted(counts)}")

    keys, logprobs, bows = [], [], []
    expected_k = 1
    while True:
        if text is None:
            raise ArpaParseError(reader.lineno, "missing \\end\\ marker")
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
        ids, probs, bow = _read_section(k, counts[k], order, reader, index, keys)
        keys.append(ids)
        logprobs.append(probs)
        bows.append(bow)
        lineno, text = reader.next_content()
        expected_k += 1
    if expected_k != order + 1:
        raise ArpaParseError(lineno or reader.lineno, "missing n-gram sections")

    try:
        return NgramModel(vocab, order, keys, logprobs, bows)
    except ValueError as err:
        raise ValueError(f"inconsistent ARPA model: {err}") from None
