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

``enumerate_transitions`` returns the transitions leaving a state as one
bundle of arrays (``Transitions``), not one object per transition: the
CAT1 block is the exit mass plus the dense tagged-n-gram row over
word-pieces, CAT2/CAT3 blocks are the tree nodes' tables, and a
successor state is built only for a transition a caller takes, and
kept on the bundle once built. A ``ClassModel`` memoizes
one bundle per class state for its lifetime (``cached_transitions``).

The arrays depend on a state only through its ``core_key``: the
minimal context of its exit history (KenLM's state minimization, as
``NgramModel.minimal_context`` computes it) and its tree node. So a
bundle is a state's view of a core, which holds the arrays, the CAT1
gates and the fused predictor rows the decoder builds for it
(``cache_row``), keyed by the predictor and LM objects, their states
and the fusion weights. States with one key share one core; each keeps
its own exit history and successors. The memo counts each core once
toward ``TRANSITION_MEMO_CAP`` array entries in all, transitions and
row values alike, and a clear frees the cores' rows with their bundles.
An r'-gated bundle is a view of the memoized one, whose successors and
core serve it.
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

# Array entries a ClassModel's memo may hold over all its bundles: a
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
    apart from a memo of ``Transitions`` bundles.

    The memo maps a class state to the bundle enumerated for it, which
    is a pure function of the model and the state, so decodes run one
    after another may share it, and with it the fused rows kept on each
    core. It also maps each core key to the core it holds, and
    ``enumerate_transitions`` builds a state's bundle on that core. It
    is not locked: one decode at a time. It holds at most
    ``TRANSITION_MEMO_CAP`` entries, each held core's transitions plus
    its rows' values, counted once however many bundles share the core
    (``n_memo_entries``), and is emptied whole, rows included, when the
    next core or row would pass that. The decoder keys it by the
    ``ClmState``.

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
        self._memo: dict = {}  # class state -> bundle
        self._cores: dict = {}  # core key -> held core
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

    def cached_transitions(self, key) -> "Transitions | None":
        """The memoized bundle of the class state with this key, if any."""
        return self._memo.get(key)

    def cache_transitions(self, key, trans: "Transitions") -> bool:
        """Memoize ``trans`` under ``key``. Its core counts toward the
        cap once, when the first bundle on it is memoized, and a core
        larger than the cap is not kept. Returns whether the memo held
        the core already, that is, whether ``trans`` is a shared bundle."""
        if key in self._memo:
            return False
        core = trans.core
        shared = core.held
        if not shared:
            n = len(trans)
            if n > TRANSITION_MEMO_CAP:
                return False
            if self.n_memo_entries + n > TRANSITION_MEMO_CAP:
                self._clear_memo()
            core.held = True
            self._cores[core.key] = core  # a None key is never looked up
            self.n_memo_entries += n
        self._memo[key] = trans
        return shared

    def cache_row(self, trans: "Transitions", key, row: np.ndarray) -> None:
        """Keep the read-only fused ``row`` on the core of the full
        bundle ``trans`` under ``key`` while the memo holds that core;
        its values count toward the cap, and a row that would pass it
        clears the memo instead of being kept."""
        if not trans.core.held:
            return
        if self.n_memo_entries + row.size > TRANSITION_MEMO_CAP:
            self._clear_memo()
            return
        trans.rows[key] = row
        self.n_memo_entries += row.size

    def _clear_memo(self) -> None:
        # a decode may still hold a bundle it took from the memo: its
        # core's rows go now, and it keeps no new ones
        for trans in self._memo.values():
            trans.core.held = False
            trans.rows.clear()
        self._memo.clear()
        self._cores.clear()
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


class _Core:
    """What every bundle of one ``ClassModel.core_key`` shares: the
    read-only arrays, their block bounds, the CAT1 gates and the fused
    rows. ``key`` is None on a core built from given arrays, which is
    never shared; ``held`` is True while the model's memo counts it."""

    __slots__ = (
        "key", "category", "word", "logprob", "tag", "cat2", "cat3", "gates", "rows", "held",
    )

    def __init__(self, key, category, word, logprob, tag):
        self.key = key
        self.category, self.word, self.logprob, self.tag = category, word, logprob, tag
        for arr in (category, word, logprob, tag):
            arr.setflags(write=False)
        n1, n12 = np.searchsorted(category, (CAT2, CAT3)).tolist()
        self.cat2, self.cat3 = slice(n1, n12), slice(n12, word.size)
        self.gates: dict = {}
        self.rows: dict = {}
        self.held = False


class Transitions:
    """All transitions leaving ``state``, as aligned read-only arrays in
    S1‖S2‖S3 order: ``category`` (int8), ``word`` (int64), ``logprob``,
    and ``tag`` (int32), the class a CAT2 transition enters (-1
    elsewhere). ``cat2`` and ``cat3`` slice out those blocks; CAT1 is
    everything before them, and its transition i emits word i (CAT1 is
    never gated), so a CAT1 rank cut is ``top_ids`` of its scores.

    A full bundle is its state's view of a core (``_Core``): the arrays,
    the CAT1 gates and ``rows``, the fused predictor rows aligned with
    them, are the core's, shared by every bundle on it. The decoder
    builds rows, and ``ClassModel.cache_row`` keeps them while the memo
    holds the core. The successors, and the exit history CAT1 and CAT2
    successors start from, are the bundle's own.

    A ``gated`` bundle is a view: ``parent`` is the bundle it gates (None
    on a full bundle) and ``index`` the ascending positions it keeps
    there. A view holds its gathered ``word`` ids and its block bounds;
    its ``category``, ``logprob`` and ``tag`` are gathered from the
    parent when first read. The parent's CAT1 gates, successors and
    rows serve it.
    """

    __slots__ = (
        "model", "state", "core", "category", "word", "logprob", "tag", "cat2", "cat3",
        "parent", "index", "rows", "_successors", "_exit_history",
    )

    def __init__(self, model, state, category, word, logprob, tag):
        """A bundle on a core of its own, built from the given arrays."""
        self._bind(model, state, _Core(None, category, word, logprob, tag))

    @classmethod
    def on_core(cls, model, state, core: _Core) -> "Transitions":
        trans = cls.__new__(cls)
        trans._bind(model, state, core)
        return trans

    def _bind(self, model, state, core):
        self.model, self.state, self.core = model, state, core
        self.category, self.word, self.logprob, self.tag = (
            core.category, core.word, core.logprob, core.tag,
        )
        self.cat2, self.cat3, self.rows = core.cat2, core.cat3, core.rows
        self.parent = self.index = None
        self._successors: dict = {}
        self._exit_history = model.exit_history(state) if core.cat2.start else None

    def __getattr__(self, name):
        # only an unset slot gets here: a view's arrays not yet read
        if name not in ("category", "logprob", "tag"):
            raise AttributeError(name)
        arr = getattr(self.parent, name)[self.index]
        arr.setflags(write=False)
        setattr(self, name, arr)
        return arr

    def __len__(self) -> int:
        return self.word.size

    def successor(self, i: int) -> ClmState:
        """The state reached by transition ``i``, built once on the full
        bundle; CAT1 transition i reaches the exit history plus word i."""
        if self.parent is not None:
            return self.parent.successor(int(self.index[i]))
        succ = self._successors.get(i)
        if succ is None:
            if 0 <= i < self.cat2.start:
                succ = ClmState(self.model.truncate(self._exit_history + (int(i),)), None, None)
            else:
                cat, word, tag = int(self.category[i]), int(self.word[i]), int(self.tag[i])
                succ = advance(self.model, self.state, cat, word, tag)
            self._successors[i] = succ
        return succ

    def gated(self, word_gate: np.ndarray) -> "Transitions":
        """A view of these transitions without the CAT2/CAT3 ones whose
        word is False in ``word_gate``."""
        n1 = self.cat2.start
        keep = word_gate[self.word]
        keep[:n1] = True
        view = Transitions.__new__(Transitions)
        view.model, view.state, view.parent = self.model, self.state, self
        view.index = keep.nonzero()[0]
        view.word = self.word[view.index]
        view.word.setflags(write=False)
        n12 = n1 + int(np.count_nonzero(keep[self.cat2]))
        view.cat2, view.cat3 = slice(n1, n12), slice(n12, view.index.size)
        return view

    def cat1_gate(self, rank_r: int) -> np.ndarray:
        """Ascending indices of the ``rank_r`` most probable CAT1
        transitions, computed once per ``rank_r`` on the core: the
        ``top_ids`` cut (descending probability, ties to the lower word
        id); zero-probability words are never gated.
        """
        if self.parent is not None:  # a view shares its parent's CAT1 block
            return self.parent.cat1_gate(rank_r)
        gates = self.core.gates
        gate = gates.get(rank_r)
        if gate is None:  # CAT1 transition i emits word i
            gate = gates[rank_r] = top_ids(self.logprob[: self.cat2.start], rank_r)
        return gate


def enumerate_transitions(model: ClassModel, state: ClmState) -> Transitions:
    """All transitions leaving ``state``, on the core the model's memo
    holds for its ``core_key`` if there is one, else on a new core.

    Repetitions of the same word across blocks are preserved; each
    leads to its own successor. An empty result is legal and signals
    blank fallback to the caller.
    """
    key = model.core_key(state)
    core = model._cores.get(key)
    if core is None:
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
        core = _Core(
            key, np.repeat(np.array(cats, np.int8), sizes), np.concatenate(words),
            np.concatenate(logprobs), np.repeat(np.array(tags, np.int32), sizes),
        )
    return Transitions.on_core(model, state, core)


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
