"""Backoff n-gram language model with Kneser-Ney training.

The model is stored as a trie of sorted arrays: each context node owns a
contiguous block of child arcs sorted by descending log-probability
(ties by ascending word-id), plus a word-sorted secondary index for
point lookups. That layout makes rank-r continuation queries a cheap
array scan with iterative fallback to shorter contexts, independent of
total model size. Dense rows scatter each node's finite arcs shortest
context first, so a word's longest finite arc decides, as in rank-r
queries and point lookups.

Sentence boundaries use two reserved ids appended after the vocabulary:
``bos_id = len(vocab)`` and ``eos_id = len(vocab) + 1``. The start
symbol is context-only: it is never predicted, carries -inf probability,
and is excluded from the uniform base distribution.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, Vocabulary

ROOT = (0, -1)  # trie handle of the empty context


def _estimate_discounts(adjusted_counts) -> tuple[float, float, float]:
    """Per-order discounts (D1, D2, D3+) from counts-of-counts.

    Degenerate statistics (any of n1..n4 zero, or a discount outside
    (0, bin]) fall back to a flat 0.75 for all three bins.
    """
    n = Counter(c for c in adjusted_counts if 1 <= c <= 4)
    n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
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


class NgramModel:
    """Immutable backoff n-gram model over a vocabulary plus sentinels."""

    def __init__(self, vocab: Vocabulary, order: int, tables):
        """Assemble the trie from per-order {ngram-tuple: (logprob, logbow)}.

        ``tables[k-1]`` maps k-gram tuples over token ids (vocabulary ids
        plus the two sentinels) to (log-prob, log-backoff-or-None). Not
        meant to be called directly; use train_kneser_ney or load_arpa.
        """
        self.vocab = vocab
        self.order = order
        self.bos_id = len(vocab)
        self.eos_id = len(vocab) + 1
        n_symbols = len(vocab) + 2

        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(tables) != order or not tables[0]:
            raise ValueError("model tables empty or order mismatch")

        self._words = [None] * (order + 1)      # arc word ids, prob-sorted
        self._probs = [None] * (order + 1)
        self._bows = [None] * (order + 1)
        self._child_lo = [None] * (order + 1)   # arc -> child span at next level
        self._child_hi = [None] * (order + 1)
        self._parents = [None] * (order + 1)    # arc -> parent arc index
        self._wsorted = [None] * (order + 1)    # arc words, word-sorted per node
        self._worder = [None] * (order + 1)     # absolute arc index for _wsorted

        index_prev: dict = {}
        for k in range(1, order + 1):
            table = tables[k - 1]
            if k == 1:
                grouped = {ROOT[1]: sorted(table.keys())}
            else:
                grouped = defaultdict(list)
                for gram in table:
                    ctx = gram[:-1]
                    parent = index_prev.get(ctx)
                    if parent is None:
                        raise ValueError(
                            f"{k}-gram {gram} lacks its ({k - 1})-gram context"
                        )
                    grouped[parent].append(gram)

            n = len(table)
            words = np.empty(n, dtype=np.int32)
            probs = np.empty(n, dtype=np.float64)
            bows = np.zeros(n, dtype=np.float64)
            parents = np.empty(n, dtype=np.int64)
            lo = np.zeros(n, dtype=np.int64)
            hi = np.zeros(n, dtype=np.int64)
            index_cur: dict = {}
            pos = 0
            for parent in sorted(grouped):
                grams = grouped[parent]
                grams.sort(key=lambda g, t=table: (-t[g][0], g[-1]))
                start = pos
                for gram in grams:
                    prob, bow = table[gram]
                    w = gram[-1]
                    if not 0 <= w < n_symbols:
                        raise ValueError(f"token id out of range in {gram}")
                    words[pos] = w
                    probs[pos] = prob
                    bows[pos] = 0.0 if bow is None else bow
                    parents[pos] = parent
                    index_cur[gram] = pos
                    pos += 1
                if k > 1:
                    self._child_lo[k - 1][parent] = start
                    self._child_hi[k - 1][parent] = pos
            assert pos == n

            order_idx = np.empty(n, dtype=np.int64)
            spans = (
                [(0, n)]
                if k == 1
                else [
                    (int(self._child_lo[k - 1][p]), int(self._child_hi[k - 1][p]))
                    for p in sorted(grouped)
                ]
            )
            for s, e in spans:
                order_idx[s:e] = s + np.argsort(words[s:e], kind="stable")
            self._words[k] = words
            self._probs[k] = probs
            self._bows[k] = bows
            self._parents[k] = parents
            self._child_lo[k] = lo
            self._child_hi[k] = hi
            self._worder[k] = order_idx
            self._wsorted[k] = words[order_idx]
            index_prev = index_cur

    # -- structure access ------------------------------------------------

    def level_size(self, k: int) -> int:
        return self._words[k].size

    def node_span(self, node) -> tuple[int, int]:
        """Child arc range [lo, hi) at level node[0]+1."""
        level, idx = node
        if node == ROOT:
            return 0, self._words[1].size
        if level >= self.order:
            return 0, 0
        return int(self._child_lo[level][idx]), int(self._child_hi[level][idx])

    def node_bow(self, node) -> float:
        if node == ROOT:
            return 0.0
        return float(self._bows[node[0]][node[1]])

    def _find_arc(self, node, word_id: int) -> int:
        """Absolute arc index of ``word_id`` under ``node``, or -1."""
        level = node[0] + 1
        lo, hi = self.node_span(node)
        if lo == hi:
            return -1
        ws = self._wsorted[level]
        pos = lo + int(np.searchsorted(ws[lo:hi], word_id))
        if pos < hi and ws[pos] == word_id:
            return int(self._worder[level][pos])
        return -1

    def _node_of(self, context: tuple) -> tuple | None:
        """Trie handle for an exact context path, or None if absent."""
        node = ROOT
        for tok in context:
            arc = self._find_arc(node, tok)
            if arc < 0:
                return None
            node = (node[0] + 1, arc)
        return node

    def suffix_chain(self, history) -> list[tuple]:
        """Matched suffix nodes of ``history``, longest first.

        Each element is (node, accumulated backoff weight of all longer
        matched suffixes). Both logprob and top_r consume this chain in
        order, which is what makes their values bit-identical.
        """
        h = tuple(history)[max(0, len(history) - (self.order - 1)):]
        chain = []
        acc = 0.0
        for m in range(len(h), -1, -1):
            node = self._node_of(h[len(h) - m:])
            if node is None:
                continue
            chain.append((node, acc))
            acc += self.node_bow(node)
        return chain

    # -- queries -----------------------------------------------------------

    def logprob(self, word_id: int, history=()) -> float:
        """log P(word | history) under full backoff recursion."""
        return self.logprob_chain(word_id, self.suffix_chain(history))

    def logprob_chain(self, word_id: int, chain) -> float:
        """The longest context's finite arc for ``word_id``; a -inf arc
        is skipped and the shorter context decides, as in ``top_r_chain``
        and ``dense_row``."""
        if not 0 <= word_id < len(self.vocab) + 2:
            raise ValueError(f"word id out of range: {word_id}")
        for node, acc in chain:
            arc = self._find_arc(node, word_id)
            if arc >= 0:
                p = self._probs[node[0] + 1][arc]
                if p > NEG_INF:
                    return acc + float(p)
        return NEG_INF

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

    def dense_row(self, chain) -> np.ndarray:
        """All ``len(vocab) + 2`` log-probabilities over ``chain``: one
        scatter per node, shortest context first, so a longer context
        overwrites a shorter one and -inf arcs never write. Bit-identical
        to scattering ``top_r_chain(chain, len(vocab) + 2)``, where the
        longest context claims a word first and -inf arcs are skipped."""
        row = np.full(len(self.vocab) + 2, NEG_INF)
        for node, acc in reversed(chain):
            lo, hi = self.node_span(node)
            probs = self._probs[node[0] + 1][lo:hi]
            finite = probs > NEG_INF
            row[self._words[node[0] + 1][lo:hi][finite]] = acc + probs[finite]
        return row

    def iter_ngrams(self, k: int):
        """Yield (gram tuple, logprob, logbow-or-None) at order k, trie order."""
        words = self._words
        parents = self._parents

        def gram_of(level, idx):
            toks = []
            while level >= 1:
                toks.append(int(words[level][idx]))
                idx = int(parents[level][idx])
                level -= 1
            return tuple(reversed(toks))

        has_children = (
            None
            if k >= self.order
            else self._child_hi[k] > self._child_lo[k]
        )
        for i in range(self.level_size(k)):
            bow = None
            if has_children is not None and has_children[i]:
                bow = float(self._bows[k][i])
            yield gram_of(k, i), float(self._probs[k][i]), bow


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
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("empty corpus")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n_vocab = len(vocab)
    bos, eid = n_vocab, n_vocab + 1

    raw = [None] + [Counter() for _ in range(order)]
    for sent in sentences:
        padded = [bos] + list(sent) + ([eid] if eos else [])
        for tok in sent:
            if not 0 <= tok < n_vocab:
                raise ValueError(f"corpus token id out of range: {tok}")
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][tuple(padded[i : i + k])] += 1

    adjusted = [None] + [None] * order
    adjusted[order] = dict(raw[order])
    for k in range(order - 1, 0, -1):
        cont = Counter()
        for gram in raw[k + 1]:
            cont[gram[1:]] += 1
        adjusted[k] = {
            g: (raw[k][g] if g[0] == bos else cont[g]) for g in raw[k]
        }

    discounts = []
    for k in range(1, order + 1):
        vals = [c for g, c in adjusted[k].items() if not (k == 1 and g == (bos,))]
        discounts.append(_estimate_discounts(vals))

    vpred = sum(1 for g in adjusted[1] if g != (bos,))
    if vpred == 0:
        raise ValueError("corpus has no predictable tokens")
    base = 1.0 / vpred

    # contexts grouped per order; probabilities built bottom-up so each
    # level interpolates with the already-final lower-order values
    tables = []
    prob_prev: dict = {}
    for k in range(1, order + 1):
        d1, d2, d3 = discounts[k - 1]
        nodes = defaultdict(dict)
        for g, c in adjusted[k].items():
            if k == 1 and g == (bos,):
                continue
            nodes[g[:-1]][g[-1]] = c
        table: dict = {}
        prob_cur: dict = {}
        gammas: dict = {}
        for ctx, conts in nodes.items():
            total = sum(conts.values())
            n1 = sum(1 for c in conts.values() if c == 1)
            n2 = sum(1 for c in conts.values() if c == 2)
            n3 = sum(1 for c in conts.values() if c >= 3)
            gamma = (d1 * n1 + d2 * n2 + d3 * n3) / total
            gammas[ctx] = gamma
            for w, c in conts.items():
                d = d1 if c == 1 else d2 if c == 2 else d3
                lower = base if k == 1 else prob_prev[ctx[1:] + (w,)]
                p = max(c - d, 0.0) / total + gamma * lower
                prob_cur[ctx + (w,)] = p
                table[ctx + (w,)] = (float(np.log(p)), None)
        if k == 1:
            table[(bos,)] = (NEG_INF, None)
        else:
            # hang each context's backoff weight on its own entry
            prev = tables[k - 2]
            for ctx, gamma in gammas.items():
                prob, _ = prev[ctx]
                prev[ctx] = (prob, float(np.log(gamma)))
        tables.append(table)
        prob_prev = prob_cur

    return NgramModel(vocab, order, tables)

