"""Class-based LM: tagged n-gram over words and class tags, plus
per-class prefix trees with cumulative posteriors.

A decode-time state is (h, c, p): bounded tagged history, active class,
and position inside that class's prefix tree. A class is its tree's
root node, and a node keeps one table, its children's words and
log-probabilities as arrays. Nodes compare by identity, so within one
model a state is its own key. Three transition kinds move between
states:

- CAT1: leave the active class (consuming its exit mass), emit a word
  from the n-gram part; the class tag, not its member words, enters h.
- CAT2: leave the active class, then enter some class c' with the first
  word of one of its entries.
- CAT3: advance one word deeper inside the active class; within-class
  probabilities come from the prefix tree alone.

The tagged n-gram is trained without an end-of-sentence event, so its
outcome space is exactly words plus tags and the three categories'
masses sum to one at every state.

The transitions leaving a state are one ``Transitions`` object of
arrays, not one object per transition. They depend on the state only
through its ``core_key`` (the minimized exit context, as in KenLM's
state minimization, and the tree node), so every state with one key
shares one object: ``enumerate_transitions`` returns the one the
model's memo holds. A successor state is built when a caller takes a
transition, from the state it leaves, and kept on the object.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

import numpy as np

from .arpa import load_arpa, save_arpa
from .core import NEG_INF, Vocabulary, top_ids
from .ngram import NgramModel, train_kneser_ney

CAT1, CAT2, CAT3 = 1, 2, 3

# Array entries a ClassModel's memo may hold over all its objects: a
# transition is 21 bytes of arrays and a fused-row value 8, so ~22 MB
# when full. Decoding 120 utterances of a V~120 entity-rich scenario
# touches ~64k transitions.
TRANSITION_MEMO_CAP = 1 << 20

_TAG_RE = re.compile(r"^⟨[A-Z]+⟩$")


def is_class_tag(token: str) -> bool:
    return bool(_TAG_RE.match(token))


class PrefixNode:
    """One prefix-tree position; compared by identity. Once the tree is
    built, ``child_words`` (ascending) and ``child_logprobs`` are its
    children's log-probabilities, as read-only arrays."""

    __slots__ = ("children", "exit_logprob", "child_words", "child_logprobs")

    def __init__(self):
        self.children: dict[int, PrefixNode] = {}
        self.exit_logprob: float = NEG_INF


def build_prefix_tree(entries) -> PrefixNode:
    """The root of a tree over (word-id sequence, weight) entries.

    Node probabilities are weight ratios: a child's probability is the
    weight passing through it over the weight through its parent, and
    the exit probability is the weight of entries ending right there.
    Duplicate entries sum their weights.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("class has no entries")
    root = PrefixNode()
    through: dict[PrefixNode, float] = {root: 0.0}  # every node, once built
    ending: dict[PrefixNode, float] = {}
    for seq, weight in entries:
        seq = tuple(seq)
        if not seq:
            raise ValueError("empty class entry")
        if not 0.0 < weight < math.inf:
            raise ValueError(f"class entry weight must be finite and positive, got {weight}")
        node = root
        through[root] += weight
        for w in seq:
            child = node.children.get(w)
            if child is None:
                child = node.children[w] = PrefixNode()
                through[child] = 0.0
            through[child] += weight
            node = child
        ending[node] = ending.get(node, 0.0) + weight
    if through[root] == math.inf:
        raise ValueError("class entry weights sum past the float64 range")

    for node, total in through.items():
        words = sorted(node.children)
        logprobs = [math.log(through[node.children[w]] / total) for w in words]
        end = ending.get(node, 0.0)
        if end > 0.0:
            node.exit_logprob = math.log(end / total)
        node.child_words = np.array(words, dtype=np.int64)
        node.child_logprobs = np.array(logprobs, dtype=np.float64)
        node.child_words.setflags(write=False)
        node.child_logprobs.setflags(write=False)
    return root


class ClmState(NamedTuple):
    """A decode-time class state; it is its own merge and memo key
    (tree nodes compare by identity)."""

    history: tuple
    class_tag: Optional[int]
    node: Optional[PrefixNode]


class ClassModel:
    """Tagged n-gram plus class prefix trees, immutable after build
    apart from a memo of ``Transitions`` objects.

    The memo maps a class state to the object of its ``core_key``, a
    pure function of the model and the key, so decodes run one after
    another may share it, with the successors and fused rows kept on
    each object. It is not locked: one decode at a time. It holds at
    most ``TRANSITION_MEMO_CAP`` entries, each held object's transitions
    plus its rows' values, counted once however many states share it
    (``n_memo_entries``), and is emptied whole, rows included, when the
    next object or row would pass that.

    ``trees`` maps each class's tag id to the root of its prefix tree.
    """

    def __init__(
        self,
        ngram: NgramModel,
        trees: dict[int, PrefixNode],
        base_vocab: Vocabulary,
        entries=None,
    ):
        self.ngram = ngram
        self.trees = trees
        self.base_vocab = base_vocab
        self.vocab = ngram.vocab
        self.n_words = len(base_vocab)
        self.tag_ids = sorted(trees)
        self.entries = entries  # tag -> [(piece strings, weight)], for persistence
        self._memo: dict = {}  # class state -> held object
        self._held: dict = {}  # core key -> held object
        self.n_memo_entries = 0
        for tag_id in range(self.n_words, len(self.vocab)):
            token = self.vocab.token_of(tag_id)
            if not is_class_tag(token):
                raise ValueError(f"non-tag token beyond word space: {token!r}")
            if (
                ngram.logprob(tag_id, ()) > NEG_INF
                and tag_id not in trees
            ):
                raise ValueError(f"class tag {token!r} has n-gram mass but no tree")
        for tag_id in self.tag_ids:
            if not (self.n_words <= tag_id < len(self.vocab)):
                raise ValueError(f"tree tag id {tag_id} outside tag space")

    def initial_state(self) -> ClmState:
        return ClmState((self.ngram.bos_id,), None, None)

    def truncate(self, history) -> tuple:
        keep = self.ngram.order - 1
        return tuple(history)[-keep:] if keep > 0 else ()

    def exit_history(self, state: ClmState) -> tuple:
        """Tagged history after consuming the active class's exit."""
        if state.class_tag is None:
            return self.truncate(state.history)
        return self.truncate(state.history + (state.class_tag,))

    def exit_logmass(self, state: ClmState) -> float:
        return 0.0 if state.class_tag is None else state.node.exit_logprob

    def core_key(self, state: ClmState) -> tuple:
        """What the transition arrays of ``state`` depend on: the
        ``minimal_context`` of its exit history (None without exit mass)
        and its tree node (None outside a class). States with one key
        have bit-identical arrays, CAT1 gates and fused rows."""
        if self.exit_logmass(state) == NEG_INF:
            return None, state.node
        return self.ngram.minimal_context(self.exit_history(state)), state.node

    def cached_transitions(self, state: ClmState) -> "Transitions | None":
        """The memoized object of ``state``, if any."""
        return self._memo.get(state)

    def cache_transitions(self, state: ClmState, trans: "Transitions") -> bool:
        """Memoize ``trans`` for ``state``. An object counts toward the
        cap once, when first memoized, and one larger than the cap is
        not kept. Returns whether the memo held ``trans`` already."""
        if state in self._memo:
            return False
        shared = trans.held
        if not shared:
            n = len(trans)
            if n > TRANSITION_MEMO_CAP:
                return False
            if self.n_memo_entries + n > TRANSITION_MEMO_CAP:
                self._clear_memo()
            trans.held = True
            self._held[trans.key] = trans
            self.n_memo_entries += n
        self._memo[state] = trans
        return shared

    def cache_row(self, trans: "Transitions", key, row: np.ndarray) -> None:
        """Keep the read-only fused ``row`` on ``trans`` under ``key``
        while the memo holds ``trans``; a row that would pass the cap
        clears the memo instead."""
        if not trans.held:
            return
        if self.n_memo_entries + row.size > TRANSITION_MEMO_CAP:
            self._clear_memo()
            return
        trans.rows[key] = row
        self.n_memo_entries += row.size

    def _clear_memo(self) -> None:
        # a decode may still hold an object it took from the memo: its
        # rows go now, and it keeps no new ones
        for trans in self._memo.values():
            trans.held = False
            trans.rows.clear()
        self._memo.clear()
        self._held.clear()
        self.n_memo_entries = 0


def encoder_rank_pass(encoder_scores, rprime: int) -> np.ndarray:
    """Boolean gate: True where the 0-based encoder rank is < rprime.

    Rank order is descending score with ties broken by ascending id.
    """
    scores = np.asarray(encoder_scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(scores.size)
    return ranks < rprime


class Transitions:
    """The transitions leaving every class state of one ``core_key``,
    as aligned read-only arrays in S1‖S2‖S3 order: ``category`` (int8),
    ``word`` (int64), ``logprob``, and ``tag`` (int32), the class a CAT2
    transition enters (-1 elsewhere). ``cat2`` and ``cat3`` slice out
    those blocks; CAT1 is everything before them, and its transition i
    emits word i (CAT1 is never gated), so a CAT1 rank cut is
    ``top_ids`` of its scores.

    ``key`` is None on an object built from given arrays, which is never
    shared; ``held`` is True while the model's memo counts it. ``gates``
    keeps the CAT1 rank cuts, ``rows`` the fused predictor rows the
    decoder builds (``ClassModel.cache_row``), and successors are kept
    per (state, transition).

    A ``gated`` object is a view: ``parent`` is the object it gates
    (None on a full one) and ``index`` the ascending positions it keeps
    there. It holds only those, its ``word`` ids and its block bounds;
    the parent serves its CAT1 gates, successors and rows.
    """

    __slots__ = (
        "model", "key", "category", "word", "logprob", "tag", "cat2", "cat3",
        "gates", "rows", "held", "parent", "index", "_successors",
    )

    def __init__(self, model, category, word, logprob, tag, key=None):
        self.model, self.key = model, key
        self.category, self.word, self.logprob, self.tag = category, word, logprob, tag
        for arr in (category, word, logprob, tag):
            arr.setflags(write=False)
        n1, n12 = np.searchsorted(category, (CAT2, CAT3)).tolist()
        self.cat2, self.cat3 = slice(n1, n12), slice(n12, word.size)
        self.gates: dict = {}
        self.rows: dict = {}
        self.held = False
        self.parent = self.index = None
        self._successors: dict = {}

    def __len__(self) -> int:
        return self.word.size

    def successor(self, state: ClmState, i: int) -> ClmState:
        """The state transition ``i`` reaches from ``state``, built once
        per pair on the full object; CAT1 transition i reaches the exit
        history plus word i."""
        if self.parent is not None:
            return self.parent.successor(state, int(self.index[i]))
        succ = self._successors.get((state, i))
        if succ is None:
            if 0 <= i < self.cat2.start:
                history = self.model.exit_history(state) + (int(i),)
                succ = ClmState(self.model.truncate(history), None, None)
            else:
                cat, word, tag = int(self.category[i]), int(self.word[i]), int(self.tag[i])
                succ = advance(self.model, state, cat, word, tag)
            self._successors[state, i] = succ
        return succ

    def gated(self, word_gate: np.ndarray) -> "Transitions":
        """A view of these transitions without the CAT2/CAT3 ones whose
        word is False in ``word_gate``."""
        n1 = self.cat2.start
        keep = word_gate[self.word]
        keep[:n1] = True
        view = Transitions.__new__(Transitions)
        view.parent, view.index = self, keep.nonzero()[0]
        view.word = self.word[view.index]
        view.word.setflags(write=False)
        n12 = n1 + int(np.count_nonzero(keep[self.cat2]))
        view.cat2, view.cat3 = slice(n1, n12), slice(n12, view.index.size)
        return view

    def cat1_gate(self, rank_r: int) -> np.ndarray:
        """Ascending indices of the ``rank_r`` most probable CAT1
        transitions, computed once per ``rank_r``: the ``top_ids`` cut
        (descending probability, ties to the lower word id);
        zero-probability words are never gated.
        """
        if self.parent is not None:  # a view shares its parent's CAT1 block
            return self.parent.cat1_gate(rank_r)
        gate = self.gates.get(rank_r)
        if gate is None:  # CAT1 transition i emits word i
            gate = self.gates[rank_r] = top_ids(self.logprob[: self.cat2.start], rank_r)
        return gate


def enumerate_transitions(model: ClassModel, state: ClmState) -> Transitions:
    """The transitions leaving ``state``: the object the model's memo
    holds for its ``core_key``, else a new one.

    Repetitions of the same word across blocks are preserved; each
    leads to its own successor. An empty result is legal and signals
    blank fallback to the caller.
    """
    key = model.core_key(state)
    trans = model._held.get(key)
    if trans is not None:
        return trans
    context, node = key
    blocks = []
    if context is not None:
        exit_lp = model.exit_logmass(state)
        dense = model.ngram.dense_row(model.ngram.suffix_chain(context))
        # CAT1 ranges over word-pieces only: drop the tags, bos and eos
        blocks.append((CAT1, np.arange(model.n_words), exit_lp + dense[: model.n_words], -1))
        for tag in model.tag_ids:
            p_tag = float(dense[tag])  # the same value as ngram.logprob(tag, history)
            if p_tag > NEG_INF:
                root = model.trees[tag]
                blocks.append(
                    (CAT2, root.child_words, (exit_lp + p_tag) + root.child_logprobs, tag)
                )
    if node is not None:
        blocks.append((CAT3, node.child_words, node.child_logprobs, -1))

    cats, words, logprobs, tags = zip(*blocks)
    sizes = [w.size for w in words]
    return Transitions(
        model, np.repeat(np.array(cats, np.int8), sizes), np.concatenate(words),
        np.concatenate(logprobs), np.repeat(np.array(tags, np.int32), sizes), key,
    )


def advance(
    model: ClassModel, state: ClmState, category: int, word: int, tag: int = -1
) -> ClmState:
    """Successor of ``state`` under one transition, with consistency
    checks; ``tag`` names the class a CAT2 transition enters."""
    if category in (CAT1, CAT2) and model.exit_logmass(state) == NEG_INF:
        raise ValueError(f"CAT{category} from a node with no exit mass")
    if category == CAT1:
        return ClmState(model.truncate(model.exit_history(state) + (word,)), None, None)
    if category == CAT2:
        if tag not in model.trees:
            raise ValueError(f"CAT2 into unknown class id {tag}")
        node = model.trees[tag].children.get(word)
        if node is None:
            raise ValueError(f"CAT2 word {word} does not start class id {tag}")
        return ClmState(model.exit_history(state), tag, node)
    if category == CAT3:
        if state.class_tag is None:
            raise ValueError("CAT3 outside of a class")
        node = state.node.children.get(word)
        if node is None:
            raise ValueError(f"CAT3 word {word} not under the current node")
        return ClmState(state.history, state.class_tag, node)
    raise ValueError(f"unknown transition category {category}")


def train_tagged_clm(
    tagged_sentences, entries_by_tag, order: int, base_vocab: Vocabulary
) -> ClassModel:
    """Build a ClassModel from tagged token sentences and class entries.

    ``tagged_sentences``: token-string lists mixing word-pieces and
    class tags. ``entries_by_tag``: tag -> [(piece sequence, weight)].
    Every tag used in the corpus must have entries; entries must be
    plain word-pieces (no nesting).
    """
    tags = sorted(entries_by_tag)
    for tag in tags:
        if not is_class_tag(tag):
            raise ValueError(f"bad class tag: {tag!r}")
        for seq, _ in entries_by_tag[tag]:
            for piece in seq:
                if is_class_tag(piece):
                    raise ValueError(f"nested class tag {piece!r} in {tag!r} entry")
    clm_vocab = base_vocab.extended(tags)

    tagged_sentences = list(tagged_sentences)
    corpus_tokens = set().union(*tagged_sentences)  # checked once per distinct token
    undefined = [t for t in corpus_tokens if t not in entries_by_tag and is_class_tag(t)]
    if undefined:
        raise ValueError(f"corpus tag {min(undefined)!r} has no class definition")
    sentences = [clm_vocab.ids_of(sent) for sent in tagged_sentences]
    ngram = train_kneser_ney(sentences, order, vocab=clm_vocab, eos=False)
    entries = dict(entries_by_tag)
    return ClassModel(ngram, _class_trees(entries, clm_vocab, base_vocab), base_vocab, entries)


def _class_trees(entries_by_tag, clm_vocab: Vocabulary, base_vocab: Vocabulary) -> dict:
    """Tag id -> the prefix tree of the tag's entries."""
    return {
        clm_vocab.id_of(tag): build_prefix_tree(
            [(base_vocab.ids_of(seq), weight) for seq, weight in tag_entries]
        )
        for tag, tag_entries in entries_by_tag.items()
    }


def parse_class_file(path) -> dict[str, list[tuple[tuple[str, ...], float]]]:
    """TSV: class tag, space-separated entry pieces, optional weight. A
    fault names the file and the line."""
    entries: dict[str, list[tuple[tuple[str, ...], float]]] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) not in (2, 3):
                    raise ValueError(f"line {lineno}: expected 2 or 3 TSV fields")
                tag, entry = fields[0], tuple(fields[1].split())
                if not is_class_tag(tag):
                    raise ValueError(f"line {lineno}: bad class tag {tag!r}")
                if not entry:
                    raise ValueError(f"line {lineno}: empty entry")
                weight = 1.0
                if len(fields) == 3:
                    try:
                        weight = float(fields[2])
                    except ValueError:
                        weight = math.nan
                    if not 0.0 < weight < math.inf:
                        raise ValueError(
                            f"line {lineno}: weight must be a finite positive number, "
                            f"got {fields[2]!r}"
                        )
                entries.setdefault(tag, []).append((entry, weight))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if not entries:
        raise ValueError(f"no class entries in {path}")
    return entries


def write_class_file(entries_by_tag, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tag in sorted(entries_by_tag):
            for seq, weight in entries_by_tag[tag]:
                f.write(f"{tag}\t{' '.join(seq)}\t{weight}\n")


def save_class_model(model: ClassModel, dirpath) -> None:
    import os

    if model.entries is None:
        raise ValueError("model built without retained entries; cannot save")
    os.makedirs(dirpath, exist_ok=True)
    save_arpa(model.ngram, os.path.join(dirpath, "ngram.arpa"))
    write_class_file(model.entries, os.path.join(dirpath, "classes.tsv"))


def load_class_model(dirpath, base_vocab: Vocabulary) -> ClassModel:
    import os

    entries = parse_class_file(os.path.join(dirpath, "classes.tsv"))
    clm_vocab = base_vocab.extended(sorted(entries))
    path = os.path.join(dirpath, "ngram.arpa")
    try:
        ngram = load_arpa(path, clm_vocab)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return ClassModel(ngram, _class_trees(entries, clm_vocab, base_vocab), base_vocab, entries)
