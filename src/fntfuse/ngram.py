"""Backoff n-gram language model with Kneser-Ney training.

The model is stored as a trie of sorted arrays: each context node owns a
contiguous block of child arcs sorted by descending log-probability
(ties by ascending word-id), found through one offsets array per level,
plus a word-sorted secondary index for context lookups. That layout
makes rank-r continuation queries a cheap array scan with iterative
fallback to shorter contexts, independent of total model size. A
context's first word is found by a direct word-id index into the
unigram arcs, the rest by binary search. Dense rows start from the
unigram row, scattered once per model, and scatter each longer node's
finite arcs shortest context first, so a word's longest finite arc
decides, as in rank-r queries. A node's finite arcs are one span of its
block, since -inf arcs sort last. A row is the unigram row plus one
backoff weight, overwritten at the chain's arcs (KenLM's backoff
layout), so an elementwise map of a row, such as a predictor's floor,
is taken over the unigram row's few distinct values and those arcs
alone. A point score is its word's entry of the dense row, and a global
top-r is ``core.top_ids`` of it.

Training (array passes after the sort-based estimation of KenLM's
``lmplz``) and the ARPA loader hand ``NgramModel`` the same input: per
order, the ascending array of gram ids (see ``gram_ids``).

Sentence boundaries use two reserved ids appended after the vocabulary:
``bos_id = len(vocab)`` and ``eos_id = len(vocab) + 1``. The start
symbol is context-only: it is never predicted, carries -inf probability,
and is excluded from the uniform base distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import NEG_INF, Vocabulary

ROOT = (0, -1)  # trie handle of the empty context


def _estimate_discounts(adjusted_counts: np.ndarray) -> tuple[float, float, float]:
    """Per-order discounts (D1, D2, D3+) from counts-of-counts.

    Degenerate statistics (any of n1..n4 zero, or a discount outside
    (0, bin]) fall back to a flat 0.75 for all three bins.
    """
    small = adjusted_counts[adjusted_counts <= 4]
    n1, n2, n3, n4 = (int(n) for n in np.bincount(small, minlength=5)[1:5])
    if min(n1, n2, n3, n4) == 0:
        return (0.75, 0.75, 0.75)
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    for j, d in enumerate((d1, d2, d3), start=1):
        if not (0.0 < d <= j):
            return (0.75, 0.75, 0.75)
    return (d1, d2, d3)


@dataclass(frozen=True)
class SparseLmQueryResult:
    """Continuations returned by a rank-r query, in emission order.

    ``origins[i]`` is the matched-context length that supplied entry i.
    Probabilities are the exact backoff-model values for the queried
    history, bit-identical to ``logprob``.
    """

    word_ids: np.ndarray
    logprobs: np.ndarray
    origins: np.ndarray

    def __len__(self) -> int:
        return self.word_ids.size

    def pairs(self):
        return list(zip(self.word_ids.tolist(), self.logprobs.tolist()))


def gram_ids(tokens: np.ndarray, lower_keys, n_symbols: int) -> tuple[np.ndarray, int]:
    """Ids of the k-grams in the rows of ``tokens`` given the ascending
    ids of orders 1..k-1, and the first row whose context is absent (-1
    if none). A k-gram's id is its last token plus ``n_symbols`` times
    the rank of its (k-1)-gram prefix among the (k-1)-gram ids, so
    ascending ids are grams in lexicographic order, contexts in blocks."""
    ids = tokens[:, 0]
    found = np.ones(ids.size, dtype=bool)
    for j in range(1, tokens.shape[1]):
        known = np.append(lower_keys[j - 1], -1)  # -1 matches no id
        rank = np.searchsorted(known[:-1], ids)
        found &= known[rank] == ids
        ids = rank * n_symbols + tokens[:, j]
    return ids, (-1 if found.all() else int(np.argmin(found)))


class NgramModel:
    """Immutable backoff n-gram model over a vocabulary plus sentinels."""

    def __init__(self, vocab: Vocabulary, order: int, keys, logprobs, bows):
        """Lay out the trie from per-order arrays of gram ids.

        ``keys[k-1]`` holds the k-gram ids (see ``gram_ids``), strictly
        ascending; ``logprobs[k-1]`` and ``bows[k-1]`` are aligned float64
        arrays, bow 0.0 where a gram has none. Not meant to be called
        directly; use train_kneser_ney or load_arpa.
        """
        self.vocab = vocab
        self.order = order
        self.bos_id = len(vocab)
        self.eos_id = len(vocab) + 1
        n_symbols = len(vocab) + 2

        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(keys) != order or keys[0].size == 0:
            raise ValueError("model tables empty or order mismatch")

        self._words = [None] * (order + 1)      # arc word ids, prob-sorted
        self._probs = [None] * (order + 1)
        self._bows = [None] * (order + 1)
        self._children = [None] * (order + 1)   # node i's child arcs: [off[i], off[i+1])
        self._parents = [None] * (order + 1)    # arc -> parent arc index
        self._wsorted = [None] * (order + 1)    # arc words, word-sorted per node
        self._worder = [None] * (order + 1)     # absolute arc index for _wsorted

        arc_of_rank = np.full(1, -1, dtype=np.int64)  # the root
        for k in range(1, order + 1):
            key = keys[k - 1]
            n = key.size
            words = (key % n_symbols).astype(np.int32)
            parents = arc_of_rank[key // n_symbols]
            # each node's arcs contiguous, by descending prob, ties by word
            layout = np.lexsort((words, -logprobs[k - 1], parents))
            words = words[layout]
            parents = parents[layout]
            self._words[k] = words
            self._probs[k] = logprobs[k - 1][layout]
            self._bows[k] = bows[k - 1][layout]
            self._parents[k] = parents
            if k > 1:  # parents sort first, so each node's children are contiguous
                nodes = np.arange(self._words[k - 1].size + 1)
                self._children[k - 1] = np.searchsorted(parents, nodes)
            self._worder[k] = np.lexsort((words, parents))
            self._wsorted[k] = words[self._worder[k]]
            arc_of_rank = np.empty(n, dtype=np.int64)
            arc_of_rank[layout] = np.arange(n)
        self._children[order] = np.zeros(n + 1, dtype=np.int64)
        # node i of level k's finite arcs are [_children[k][i],
        # _finite_end[k][i]), since -inf arcs sort last in a block; on a
        # level with no -inf arc, the spans end at the block ends
        self._finite_end = [None] * (order + 1)
        for k in range(1, order):
            off = self._children[k]
            finite = self._probs[k + 1] > NEG_INF
            if finite.all():
                self._finite_end[k] = off[1:]
            else:
                seen = np.concatenate(([0], np.cumsum(finite)))
                self._finite_end[k] = off[:-1] + (seen[off[1:]] - seen[off[:-1]])
        # the empty context's row and arc per word, for every query to share
        unigrams = np.full(n_symbols, -1, dtype=np.int64)
        unigrams[self._words[1]] = np.arange(self._words[1].size)
        self._unigram_arc = unigrams.tolist()
        finite = self._probs[1] > NEG_INF
        self._root_row = np.full(n_symbols, NEG_INF)
        self._root_row[self._words[1][finite]] = self._probs[1][finite]
        # its few distinct values (17 of 1,102 on dense-1k), so a map of a
        # row runs over them, not over every word
        self._root_values, self._root_inverse = np.unique(self._root_row, return_inverse=True)

    # -- structure access ------------------------------------------------

    def level_size(self, k: int) -> int:
        return self._words[k].size

    def node_span(self, node) -> tuple[int, int]:
        """Child arc range [lo, hi) at level node[0]+1."""
        if node == ROOT:
            return 0, self._words[1].size
        level, idx = node
        off = self._children[level]
        return int(off[idx]), int(off[idx + 1])

    def predicts(self, word_id: int) -> bool:
        """Whether some context, at any order, gives ``word_id`` finite
        probability: one scan of each level's arc words."""
        levels = zip(self._words[1:], self._probs[1:])
        return any((probs[words == word_id] > NEG_INF).any() for words, probs in levels)

    def node_bow(self, node) -> float:
        if node == ROOT:
            return 0.0
        return float(self._bows[node[0]][node[1]])

    def _find_arc(self, node, word_id: int) -> int:
        """Absolute arc index of ``word_id`` under ``node``, or -1. Under
        the root it is looked up by word id, not searched; an id outside
        [0, V+2) matches nothing."""
        if node == ROOT:
            arcs = self._unigram_arc
            return arcs[word_id] if 0 <= word_id < len(arcs) else -1
        level = node[0] + 1
        lo, hi = self.node_span(node)
        if lo == hi:
            return -1
        ws = self._wsorted[level]
        pos = lo + int(ws[lo:hi].searchsorted(word_id))
        if pos < hi and ws[pos] == word_id:
            return int(self._worder[level][pos])
        return -1

    def node_of(self, context: tuple) -> tuple | None:
        """Trie handle for an exact context path, or None if absent."""
        node = ROOT
        for tok in context:
            arc = self._find_arc(node, tok)
            if arc < 0:
                return None
            node = (node[0] + 1, arc)
        return node

    def minimal_context(self, context: tuple) -> tuple:
        """The longest suffix of ``context`` that is a trie node with
        children or a nonzero backoff weight (KenLM's state
        minimization). Its ``suffix_chain`` yields the same ``dense_row``,
        bit for bit: a longer matched node is childless, so it scatters
        nothing, and its weight adds 0.0 to every shorter node's."""
        while context:  # () is the root
            node = self.node_of(context)
            if node is not None:
                lo, hi = self.node_span(node)
                if hi > lo or self.node_bow(node) != 0.0:
                    break
            context = context[1:]
        return context

    def suffix_chain(self, history) -> list[tuple]:
        """Matched suffix nodes of ``history``, longest first.

        Each element is (node, accumulated backoff weight of all longer
        matched suffixes). ``dense_row`` (and so ``logprob``) and
        ``top_r_chain`` consume this chain, which is what makes their
        values bit-identical. Every later node's context is a suffix of
        the first's, so the first node alone determines the chain.
        """
        h = tuple(history)[max(0, len(history) - (self.order - 1)):]
        chain = []
        acc = 0.0
        for m in range(len(h), -1, -1):
            node = self.node_of(h[len(h) - m:])
            if node is None:
                continue
            chain.append((node, acc))
            acc += self.node_bow(node)
        return chain

    # -- queries -----------------------------------------------------------

    def logprob(self, word_id: int, history=()) -> float:
        """log P(word | history) under full backoff recursion: the entry
        of the history's ``dense_row``."""
        if not 0 <= word_id < len(self.vocab) + 2:
            raise ValueError(f"word id out of range: {word_id}")
        return float(self.dense_row(self.suffix_chain(history))[word_id])

    def top_r(self, history, r: int) -> SparseLmQueryResult:
        """Up to r continuations of ``history`` by fallback enumeration.

        Emits the longest matched context's arcs in descending stored
        probability, then backs off to shorter contexts (scaling by the
        accumulated backoff weights, skipping already-emitted words)
        until r entries are collected or the unigram level is exhausted.
        The guarantee is per-node rank order, not global top-r
        optimality.
        """
        return self.top_r_chain(self.suffix_chain(history), r)

    def top_r_chain(self, chain, r: int) -> SparseLmQueryResult:
        """``top_r`` over ``chain``, a ``suffix_chain``: each node's
        finite arcs in stored order, longest context first, a word
        emitted once, until r are emitted."""
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        seen = set()
        out_w, out_p, out_m = [], [], []
        for node, acc in chain:
            level = node[0] + 1
            lo, hi = self.node_span(node)
            words = self._words[level]
            probs = self._probs[level]
            for pos in range(lo, hi):
                w = int(words[pos])
                p = probs[pos]
                if p == NEG_INF:
                    break  # zero-prob arcs sort last; nothing real follows
                if w in seen:
                    continue
                seen.add(w)
                out_w.append(w)
                out_p.append(acc + float(p))
                out_m.append(node[0])
                if len(out_w) == r:
                    break
            if len(out_w) == r:
                break
        return SparseLmQueryResult(
            np.asarray(out_w, dtype=np.int64),
            np.asarray(out_p, dtype=np.float64),
            np.asarray(out_m, dtype=np.int32),
        )

    def dense_row(self, chain, fn=None) -> np.ndarray:
        """All ``len(vocab) + 2`` log-probabilities over ``chain``, a
        ``suffix_chain`` (it ends at the root): the model's unigram row,
        scattered once at construction, plus the root's backoff weight,
        then one scatter per longer node, shortest context first, of its
        finite arcs (one span of its block), so a longer context
        overwrites a shorter one and -inf arcs never write. Bit-identical
        to scattering ``top_r_chain(chain, len(vocab) + 2)``, where the
        longest context claims a word first and -inf arcs are skipped:
        IEEE addition commutes, and -inf plus a weight stays -inf.
        ``logprob`` reads one entry of it.

        ``fn``, an elementwise map of float64 arrays, gives ``fn`` of
        that row, bit for bit: it maps the unigram row's distinct values
        plus the root's weight, then gathers them per word, and maps each
        longer node's arcs before they are written. ``np.unique`` merges
        -0.0 with 0.0, which is harmless: the weight starts at +0.0, so
        it is never -0.0, and then -0.0 and 0.0 plus it are one float."""
        *longer, (_, acc) = chain
        if fn is None:
            row = self._root_row + acc
        else:
            row = fn(self._root_values + acc)[self._root_inverse]
        for (level, i), acc in reversed(longer):
            lo, end = self._children[level][i], self._finite_end[level][i]
            arcs = acc + self._probs[level + 1][lo:end]
            row[self._words[level + 1][lo:end]] = arcs if fn is None else fn(arcs)
        return row

    def level_columns(self, k: int):
        """The order-k grams in trie order: an (n, k) array of their
        token ids, their log-probabilities and backoff weights, and
        whether each has a backoff weight (is some (k+1)-gram's context)."""
        arcs, columns = np.arange(self.level_size(k)), []
        for level in range(k, 0, -1):
            columns.append(self._words[level][arcs])
            arcs = self._parents[level][arcs]
        grams = np.column_stack(columns[::-1])
        has_bow = np.diff(self._children[k]) > 0
        return grams, self._probs[k], self._bows[k], has_bow

    def iter_ngrams(self, k: int):
        """Yield (gram tuple, logprob, logbow-or-None) at order k, trie order."""
        grams, probs, bows, has_bow = self.level_columns(k)
        rows = zip(grams.tolist(), probs.tolist(), bows.tolist(), has_bow.tolist())
        for gram, prob, bow, has in rows:
            yield tuple(gram), prob, bow if has else None


def train_kneser_ney(
    sentences, order: int = 5, *, vocab: Vocabulary, eos: bool = True
) -> NgramModel:
    """Interpolated modified Kneser-Ney over id-tokenized sentences.

    No count cutoffs, no pruning. Each sentence is wrapped in a start
    sentinel and, when ``eos`` is set, an end sentinel; disabling ``eos``
    makes the model normalize over the plain token space, which the
    class-tagged model requires. Lower-order distributions use
    continuation counts except for start-initial n-grams, which keep
    their raw counts.

    Each order is counted with one ``np.unique`` over its gram ids, and
    each context's discounted mass is one ``reduceat`` over its block.
    The float64 operations are the per-gram formulas' own, in their
    order, so the model is bit-identical to one estimated gram by gram.
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("empty corpus")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n_vocab = len(vocab)
    bos, eid, n_symbols = n_vocab, n_vocab + 1, n_vocab + 2

    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    tokens = np.fromiter(chain.from_iterable(sentences), dtype=np.int64, count=lengths.sum())
    bad = (tokens < 0) | (tokens >= n_vocab)
    if bad.any():
        raise ValueError(f"corpus token id out of range: {tokens[bad.argmax()]}")

    # the corpus as one stream, each sentence between its sentinels
    padded = lengths + 1 + eos
    ends = np.cumsum(padded)
    stream = np.full(ends[-1], eid)
    body = np.ones(stream.size, dtype=bool)
    body[ends - padded] = False
    stream[ends - padded] = bos
    if eos:
        body[ends - 1] = False
    stream[body] = tokens
    ends = np.repeat(ends, padded)  # ends[i]: the end of position i's sentence

    # per order: ascending gram ids, adjusted counts (raw ones where a
    # gram is of the highest order or starts with bos, else continuation
    # counts) and, for k > 1, each gram's suffix rank one order down
    keys, adjusted, suffix, initial = [], [], [], None
    pos = np.arange(stream.size)
    rank_at = np.zeros(stream.size, dtype=np.int64)  # empty prefix: rank 0
    for k in range(1, order + 1):
        if k > 1:
            pos = pos[pos + k - 1 < ends[pos]]
        ids = rank_at[pos] * n_symbols + stream[pos + k - 1]
        uniq, at, inverse, counts = np.unique(
            ids, return_index=True, return_inverse=True, return_counts=True
        )
        if k > 1:
            suffix.append(rank_at[pos[at] + 1])
            cont = np.bincount(suffix[-1], minlength=keys[-1].size)
            adjusted[-1] = np.where(initial, adjusted[-1], cont)
        initial = stream[pos[at]] == bos
        rank_at = np.empty(stream.size, dtype=np.int64)
        rank_at[pos] = inverse
        keys.append(uniq)
        adjusted.append(counts)

    predictable = keys[0] != bos
    vpred = int(predictable.sum())
    if vpred == 0:
        raise ValueError("corpus has no predictable tokens")
    base = 1.0 / vpred

    # probabilities bottom-up, each order interpolating with the final
    # lower-order values; each context's gamma becomes its backoff weight
    logprobs, bows, prob_prev = [], [], None
    for k in range(1, order + 1):
        n = keys[k - 1].size
        kept = predictable if k == 1 else slice(None)  # <s> is never predicted
        c = adjusted[k - 1][kept]
        d1, d2, d3 = _estimate_discounts(c)
        ctx = np.zeros(c.size, dtype=np.int64) if k == 1 else keys[k - 1] // n_symbols
        heads = np.flatnonzero(np.diff(ctx, prepend=-1))
        total = np.add.reduceat(c, heads)
        bins = (c == 1, c == 2, c >= 3)
        n1, n2, n3 = (np.add.reduceat(b.astype(np.int64), heads) for b in bins)
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / total
        span = np.diff(heads, append=c.size)
        d = np.where(c == 1, d1, np.where(c == 2, d2, d3))
        lower = base if k == 1 else prob_prev[suffix[k - 2]]
        p = np.maximum(c - d, 0.0) / np.repeat(total, span) + np.repeat(gamma, span) * lower
        prob_prev = np.zeros(n)
        prob_prev[kept] = p
        logprobs.append(np.full(n, NEG_INF))
        logprobs[-1][kept] = np.log(p)
        if k > 1:
            bows[-1][ctx[heads]] = np.log(gamma)
        bows.append(np.zeros(n))

    return NgramModel(vocab, order, keys, logprobs, bows)
