"""Time-synchronous transducer beam search with external-LM fusion.

Per frame, the frame-final set B of the previous frame is carried over
as the expansion set A; the most probable entry in A is repeatedly
popped and expanded until beam-many hypotheses in B outscore everything
left in A. Emissions advance the predictor and any attached external-LM
states; blanks never do. Hypotheses are merged by probability summation
only when token sequence, class state and (in A) the count k of symbols
emitted this frame agree, k because it feeds the blank history penalty;
the returned n-best additionally merges pure token duplicates.

With a class model attached, each expansion scores an augmented channel
list built from the CAT1/2/3 transitions instead of the plain
vocabulary row; when no transition is available at all, the hypothesis
can still take blank, priced from the original uninterpolated scores.
The "require-cat1" exit rule keeps expanding (within a bounded extra
budget) until the frame-final set contains some state that can leave
its class, so the beam is not spent entirely inside entity prefixes.
Without a class model every hypothesis can leave its class, so the rule
needs class-model fusion and ``DecoderConfig`` refuses it otherwise.

Bookkeeping is O(1) per child, whatever the utterance length:

- A decode interns token prefixes. A dict maps (parent prefix id,
  token) to a prefix id, so a prefix id names exactly one token
  sequence. A ``Hypothesis`` carries its prefix id and a back-pointer
  ``steps`` = (parent's steps, this step). Step tuples, and the tokens
  they record, are unwound only for the final set's hypotheses.
- The frame-final set B is a dict keyed by (prefix id, class state),
  the key blank extensions merge on. A blank extension enters B with
  k = 0 (its step records the k it was taken at), so B's values after
  its frame-end cut, a list in rank order, are the next frame's
  expansion set A as they are. The predictor and LM states are left
  out of keys, and that is exact: each is the initial state advanced
  token by token, a function of the token sequence, so two hypotheses
  with one prefix id hold equal states. The key merges exactly the
  pairs a key of (tokens, predictor state, LM state, class state)
  would.
- A is a list with no keys. A child enters it pending: its score,
  parent, channel, posterior, the expansion's class-model transitions
  (None when dense, where the channel is the word), merged flag and
  ``seq``. Only when it is popped does it read its word and class
  successor from them, advance the predictor and LM states and intern
  its prefix; most children never are. Its identity is (parent prefix
  id, word, successor, k), since parent id and word name its tokens.
  Carried entries have k = 0 and children k >= 1, so a child can share
  its identity only with another pending child. A popped child leaves A
  for good.

An expansion computes one scalar, no posterior array. The joint row
(word channels, blank last) is written into a buffer the scorer owns
for the decode, and its log-normalizer ``norm`` is taken by
``log_softmax``'s own float64 steps. A child on channel i with joint
value x has posterior ``x - norm`` and score ``(x - norm) + logscore``,
Python floats built only for the channels read: the operations numpy
would perform on the whole row, so every value is bit for bit the
same. ``_ranked_children`` reads the children off the raw word channels
best first: each step is one ``argmax``, which takes the first maximum,
and -inf is written over each channel read. The ``beam`` best finite
children, score descending, then channel ascending, ties at the cut to
the lower channel index as ``heapq.nlargest`` keeps them
(``core.top_ids``' set), are the most it yields, and the merge into A
stops it at the first child that misses A's cut. Only children it reads
are recorded in A, plus, with a class model, every child whose identity
matches a pending child already in A.

Reading by raw value is reading by score. ``x -> (x - norm) + logscore``
is monotone non-decreasing, so a higher raw value never scores lower,
and equal raw values come from ``argmax`` in channel order. Only where
distinct raw values round to one score could raw order and channel order
disagree. So for the channel read, of value x and score s: if the next
float below x, ``nextafter(x, -inf)``, scores below s, every unread
channel (raw value at most x) either equals x or scores below s, and the
child is yielded. Otherwise the reader reads ahead every channel of score
s, yields them in channel order, and keeps the first channel it read
with another score as the next child.

A is sorted by one key, (-score, ``seq``), where ``seq`` is an entry's
creation number: 0 for a carried entry, and for a child the expansion's
base number plus its channel, above every earlier entry's. A merge
keeps the held entry's number and a cut renumbers nothing, so a pop
takes A's head and a cut keeps A's first ``beam`` entries, as a search
that records every finite child and ranks by the same key would.
Carried entries are no merge target, so their scores never change and
they stay in B's cut order (a ``require-cat1`` survivor appended to it
scores no higher), ahead of every child of equal score.

1. Siblings never share a merge key (tokens, emission count, class
   state). With one word, a CAT1 successor is outside any class, CAT2
   and CAT3 successors differ in class tag or tree node (CAT2 at depth
   one, CAT3 deeper), and CAT2 successors differ by tag.
2. A child can merge only into a pending child of a parent with its own
   parent's prefix id and k: its tokens fix that prefix id, and its k
   the parent's. Pending children are this frame's, so when no earlier
   expansion of the frame had ``best``'s prefix id and k (always, with
   no class model) nothing in A is a merge target. The ranked children
   are then merged stably into A, A's entries first on equal scores,
   and the merge stops at ``beam``; a ``_Pending`` is built only for a
   child that makes the cut, and no child is ranked after the one that
   misses it. That keeps the key's order, since the children's numbers
   exceed A's, and makes that search's cut: a finite child outside the
   ``beam`` best is outranked by ``beam`` ranked siblings, each
   strictly higher, or equal and on a lower channel.
3. Otherwise, the merge path: ``core.top_ids`` selects the ``beam``
   best children, and each of them whose (word, successor) is a
   target's merges into it where it stands; A is re-sorted by the key:
   a merge raises an entry's score and may tie it with an entry that A
   ranked ahead of it, and ``seq`` orders the two. Merging channels are
   looked for whenever ``beam`` children were selected; when no finite
   channel is left out, any found is already among them. This path
   alone builds the posteriors and scores as arrays, for ``top_ids``
   and the merges. The other selected children are ranked for step 2's
   stable merge from the joint row, with -inf written over every word
   channel outside them, and any child left out is outranked by
   ``beam`` distinct entries, the best siblings or the entries they
   merged into, each strictly higher, or equal and ahead of it in the
   key. Only these expansions build successors for children that are
   not popped: those of their own children and of the pending children
   they search.

B's frame-end cut is ``sorted(..., reverse=True)[:beam]``, which the
``heapq`` docs define as equal to ``heapq.nlargest``, and which is
cheaper on a few entries. B settles the frame when ``beam`` of its
entries score at least the top of A. B's scores are kept negated in an
ascending list, updated as each blank extension enters or merges into
B, so the test reads B's ``beam``-th best score instead of counting
over B.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from math import nextafter
from dataclasses import dataclass, field, fields

import numpy as np

from .classlm import ClassModel, ClmState, Transitions, encoder_rank_pass, enumerate_transitions
from .core import NEG_INF, ExternalLm, log_softmax, log_sum_exp, top_ids
from .fusion import (
    FusionConfig,
    clm_predictor_interp,
    cli_scores,
    li_scores,
    mix_scores,
    three_way,
)

EXIT_RULES = ("standard", "require-cat1")


@dataclass(frozen=True)
class DecoderConfig:
    beam: int = 8
    fusion: FusionConfig = field(default_factory=FusionConfig)
    rank_rprime: int | None = None
    exit_rule: str = "standard"
    max_emit: int = 5

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError(f"beam must be >= 1, got {self.beam}")
        if self.exit_rule not in EXIT_RULES:
            raise ValueError(f"unknown exit rule: {self.exit_rule!r}")
        if self.max_emit < 1:
            raise ValueError(f"max_emit must be >= 1, got {self.max_emit}")
        if self.rank_rprime is not None and self.rank_rprime < 1:
            raise ValueError(f"rank_rprime must be >= 1, got {self.rank_rprime}")
        if self.rank_rprime is not None and not self.fusion.uses_clm:
            raise ValueError(f"rank_rprime needs class-model fusion, not {self.fusion.method!r}")
        if self.exit_rule == "require-cat1" and not self.fusion.uses_clm:
            raise ValueError(f"require-cat1 needs class-model fusion, not {self.fusion.method!r}")


@dataclass
class DecodeStats:
    """Per-utterance instrumentation for width and exit-rule accounting.

    ``total_width`` counts the channels scored over all expansions,
    ``n_children`` the children that could enter A (the ``beam`` best
    finite ones per expansion, plus, where children can merge, those
    searched for a merge target), whether or not the cut of A keeps
    them (outside the merge path, "finite" is read on the joint row's
    word channels: the count over scores is the same, since a finite
    joint value has a finite score unless the score leaves the float64
    range), ``n_ranked_children`` those of them the merge into A read
    (the ones it entered, plus the one that stopped it),
    ``n_popped_children`` the pending children popped and so built into
    hypotheses,
    ``n_enumerations`` the class states this decode had to enumerate
    because the class model's memo did not hold them,
    ``n_shared_bundles`` those of them memoized onto a transitions
    object the memo already held (one ``ClassModel.core_key``), and
    ``n_fused_rows`` the fused predictor rows it built because neither
    its own row cache nor the memoized object held them.
    Stats add field by field, so a sum counts over several decodes; a
    sum carries no ``warning``.
    """

    n_frames: int = 0
    n_expansions: int = 0
    n_extra_expansions: int = 0
    total_width: int = 0
    n_children: int = 0
    n_ranked_children: int = 0
    n_popped_children: int = 0
    n_enumerations: int = 0
    n_shared_bundles: int = 0
    n_fused_rows: int = 0
    wall_time: float = 0.0
    warning: str | None = None

    @property
    def mean_width(self) -> float:
        return self.total_width / max(self.n_expansions, 1)

    @property
    def expansions_per_frame(self) -> float:
        return self.n_expansions / max(self.n_frames, 1)

    def __add__(self, other: "DecodeStats") -> "DecodeStats":
        return DecodeStats(**{k: getattr(self, k) + getattr(other, k) for k in _COUNTERS})


_COUNTERS = tuple(f.name for f in fields(DecodeStats) if f.name != "warning")


@dataclass(frozen=True)
class DecodedHypothesis:
    """One n-best entry: tokens, total log-probability, and the per-step
    (frame, emitted-count, token-or-None, log-posterior) components of
    its representative alignment path."""

    tokens: tuple
    logscore: float
    steps: tuple
    merged: bool


@dataclass(slots=True)
class Hypothesis:
    """A carried or popped hypothesis. ``prefix`` is its interned token
    prefix; ``steps`` is () at the start, else (parent's steps, (frame,
    k, token-or-None, log-posterior)). ``seq`` stays 0, a carried
    entry's number in A (module docstring)."""

    prefix: int
    logscore: float
    pred_state: object
    lm_state: object
    clm_state: ClmState | None
    k: int
    steps: tuple
    merged: bool
    seq: int = 0


@dataclass(slots=True)
class _Pending:
    """A child recorded in A but not built: ``parent`` takes channel
    ``channel`` of its expansion with log-posterior ``post``.
    ``transitions`` is that expansion's class-model transitions, or None
    when dense, where the channel is the word. The word and the class
    successor are read from them only when the child is popped or
    looked up as a merge target (``_word_successor``). ``seq`` is its
    creation number (module docstring)."""

    logscore: float
    parent: Hypothesis
    channel: int
    post: float
    transitions: Transitions | None
    merged: bool
    seq: int


def _unwind(steps: tuple) -> tuple:
    """The step tuples a back-pointer chain stands for, oldest first."""
    out = []
    while steps:
        steps, step = steps
        out.append(step)
    return tuple(reversed(out))


def blank_fallback(z_t_row: np.ndarray, z_u: np.ndarray, blank: float) -> float:
    """Blank log-posterior priced from the ORIGINAL joint scores.

    Used when a class model leaves a hypothesis with no word channel at
    all: blank is then the only move, and it costs what it would have
    cost before any interpolation.
    """
    row = _fill_joint(np.empty(z_u.size + 1), z_t_row, z_u, blank)
    return blank - log_sum_exp(row)


def _fill_joint(row: np.ndarray, enc, pred, blank: float) -> np.ndarray:
    """Write the joint row into ``row``: ``enc + pred`` on the word
    channels, ``blank`` last."""
    np.add(enc, pred, out=row[:-1])
    row[-1] = blank
    return row


def _merge(held, entry):
    """The entry that represents ``held`` and ``entry``, two entries of
    one merge key: the higher-scoring one (``held`` on a tie), given their
    summed score and ``held``'s number. The caller puts it where ``held``
    was."""
    total = float(np.logaddexp(held.logscore, entry.logscore))
    if held.logscore >= entry.logscore:
        entry = held
    entry.logscore = total
    entry.merged = True
    entry.seq = held.seq
    return entry


def _cat1_possible(hyp: Hypothesis, clm: ClassModel) -> bool:
    # only require-cat1 asks, and it decodes with a class model
    return hyp.clm_state.class_tag is None or clm.exit_logmass(hyp.clm_state) > NEG_INF


def _word_successor(child: _Pending) -> tuple:
    """(word, class successor) of a pending child; the successor is
    None when dense."""
    trans, i = child.transitions, child.channel
    if trans is None:
        return i, None
    return int(trans.word[i]), trans.successor(child.parent.clm_state, i)


def _merge_targets(D: list, best: Hypothesis) -> dict:
    """(word, successor) -> position in ``D`` of each pending child of
    ``best``'s prefix and k: the entries a child of ``best`` can merge
    into, since they have its tokens and emission count."""
    return {
        _word_successor(e): j
        for j, e in enumerate(D)
        if type(e) is _Pending and e.parent.prefix == best.prefix and e.parent.k == best.k
    }


def _merge_siblings(targets: dict, words: np.ndarray, scores: np.ndarray):
    """The finite channels of ``scores`` whose word is the word of a
    merge target: the only children that can merge into A."""
    hits = np.isin(words, [word for word, _ in targets]).nonzero()[0]
    return hits[scores[hits] > NEG_INF]


def _merge_children(A, targets, best, transitions, words, row, norm, beam, seq):
    """Merge each child of ``best`` (the ``top_ids`` of its scores, plus
    ``_merge_siblings`` when finite channels may be left out; numbered
    ``seq`` plus channel) that finds its target in A into it where it
    stands, then sort A by (-score, seq). ``row`` is the expansion's
    joint word channels and ``norm`` their log-normalizer. Leaves
    ``row`` -inf outside the other children, which the stable merge
    ranks next, and returns the number of children searched."""
    posts = row - norm
    scores = posts + best.logscore
    keep = top_ids(scores, beam)
    if keep.size == beam:
        keep = np.union1d(keep, _merge_siblings(targets, words, scores))
    rest = []
    for i, score, post in zip(keep.tolist(), scores[keep].tolist(), posts[keep].tolist()):
        child = _Pending(score, best, i, post, transitions, best.merged, seq + i)
        j = targets.get(_word_successor(child))
        if j is None:
            rest.append(i)
        else:
            A[j] = _merge(A[j], child)
    A.sort(key=lambda e: (-e.logscore, e.seq))
    live = row[rest]
    row.fill(NEG_INF)
    row[rest] = live
    return keep.size


def _ranked_children(row, norm, logscore, beam):
    """(score, channel, posterior) of the ``beam`` best finite children
    of an expansion, score descending, then channel ascending: the
    ``top_ids`` children of its scores in the order the stable merge
    reads them. ``row`` is the joint word channels, not empty, ``norm``
    their log-normalizer and ``logscore`` the parent's score; a child's
    posterior is ``x - norm`` and its score that plus ``logscore``.
    Each read is one ``argmax`` on ``row`` and writes -inf over the
    channel read, so a merge that stops early ranks no further child;
    the module docstring has why reading by raw value, with the
    ``nextafter`` test, yields the score order."""
    n = 0
    i = int(row.argmax())
    x = row.item(i)
    while n < beam:
        score = (x - norm) + logscore
        if score == NEG_INF:
            return
        row[i] = NEG_INF
        if (nextafter(x, NEG_INF) - norm) + logscore != score:
            n += 1
            yield score, i, x - norm
            i = int(row.argmax())
            x = row.item(i)
            continue
        # distinct raw values may share this score: read them all ahead
        tied = [(i, x)]
        while True:
            i = int(row.argmax())
            x = row.item(i)
            if (x - norm) + logscore != score:
                break
            row[i] = NEG_INF
            tied.append((i, x))
        tied.sort()
        for j, y in tied[: beam - n]:
            yield score, j, y - norm
        n += len(tied)


def _score(entry) -> float:
    return entry.logscore


class _FrameScorer:
    """Builds (words, transitions, joint row, log-normalizer) for one
    expansion (``joint``), or its posteriors (``expand``).

    ``words`` is the word-id array aligned with the row's word channels:
    the class model's transition words, or one read-only ``arange``
    shared by every dense expansion of the decode. ``transitions`` is
    the aligned ``classlm.Transitions``, or None without a class model.
    They come from the class model's memo, so they outlive the decode
    and are shared by every class state of one core key; a miss
    enumerates the state and fills the memo. Only an r' encoder-rank
    gate makes transitions depend on the frame: the gate is ranked once
    per frame, and the gated view is cached for the decode per
    (transitions object, frame).

    The joint row is written into one buffer the scorer owns for the
    decode, grown to the widest row seen; the row ``joint`` hands out is
    that buffer, which the next expansion writes over. Its normalizer is
    taken through a second buffer of the same size, so normalizing
    allocates no array. ``expand``'s posteriors are a fresh array.

    Fused rows are read-only and built once per key. A clm or three-way
    row lives on the memoized transitions it is aligned with, across
    decodes, keyed by the predictor and LM objects, their states, and
    the fusion method and weights; a view reads its parent's row at its
    index. A dense method's row lives for the decode, keyed by
    (predictor state, LM state).
    """

    def __init__(self, scorer, config, external_lm, class_model):
        self.scorer = scorer
        self.config = config
        self.external = external_lm
        self.clm = class_model
        self.fusion = fu = config.fusion
        self.use_clm = fu.uses_clm
        # what a class-model row depends on besides the two states; equal
        # states of two models are not the same row
        self._row_fields = (
            scorer.predictor, external_lm if fu.uses_lm else None,
            fu.method, fu.alpha, fu.second_alpha, fu.rank_r,
        )
        self._gated: dict = {}
        self._gate_frame = self._word_gate = None
        self._rows: dict = {}
        self._buf = self._mass = np.empty(0)
        self._dense_words = None
        self.n_enumerations = self.n_shared_bundles = self.n_fused_rows = 0

    def _joint(self, n: int) -> np.ndarray:
        """The first n + 1 floats of the decode's joint buffer."""
        if self._buf.size <= n:
            self._buf, self._mass = np.empty(n + 1), np.empty(n + 1)
        return self._buf[: n + 1]

    def _norm(self, row) -> float:
        """``log_softmax(row)``'s log-normalizer, by its own steps and with
        its errors: the max as ``argmax`` picks it, the shifted row
        exponentiated in place, one ``np.add.reduce`` and ``np.log``."""
        m = row.item(row.argmax())
        if not m < np.inf:  # NaN compares False, as does +inf
            raise ValueError("NaN or +inf in score vector")
        if m == NEG_INF:
            raise ValueError("cannot normalize a zero-mass score vector")
        mass = np.subtract(row, m, out=self._mass[: row.size])
        np.exp(mass, out=mass)
        return m + float(np.log(np.add.reduce(mass)))

    def _transitions(self, clm_state, t, z_t_row):
        # the state itself is the memo key: equal states are equal keys
        trans = self.clm.cached_transitions(clm_state)
        if trans is None:
            self.n_enumerations += 1
            trans = enumerate_transitions(self.clm, clm_state)
            self.n_shared_bundles += self.clm.cache_transitions(clm_state, trans)
        if self.config.rank_rprime is None:
            return trans
        gated = self._gated.get((trans, t))
        if gated is None:
            if self._gate_frame != t:
                self._gate_frame = t
                self._word_gate = encoder_rank_pass(z_t_row, self.config.rank_rprime)
            gated = self._gated[trans, t] = trans.gated(self._word_gate)
        return gated

    def _fused_row(self, hyp: Hypothesis, z_u, trans):
        """The fused predictor row: li/lli/cli when ``trans`` is None,
        else the clm or three-way row aligned with ``trans``.

        A hypothesis carried into the next frame is expanded again with
        its states unchanged, and later decodes revisit the same class
        and n-gram states, so rows are kept (see the class docstring).
        An r'-gated view's row is its parent's row at its index, bit for
        bit: the fusions work entry by entry, and the view shares CAT1
        gates."""
        if trans is None:
            rows, key = self._rows, (hyp.pred_state, hyp.lm_state)
        elif trans.parent is not None:
            return self._fused_row(hyp, z_u, trans.parent)[trans.index]
        else:
            rows, key = trans.rows, (self._row_fields, hyp.pred_state, hyp.lm_state)
        row = rows.get(key)
        if row is None:
            fu = self.fusion
            if fu.method == "clm":
                row = clm_predictor_interp(z_u, trans, fu.alpha, fu.rank_r)
            elif fu.second_method is not None:
                row = three_way(
                    z_u, self.external.full_dist(hyp.lm_state), trans,
                    fu.alpha, fu.second_alpha, fu.rank_r,
                )
            elif fu.method == "li":
                row = li_scores(z_u, self.external.full_dist(hyp.lm_state), fu.alpha)
            elif fu.method == "lli":
                row = mix_scores(z_u, self.external.full_dist(hyp.lm_state), fu.alpha)
            else:  # cli
                ids = self.external.top_r(hyp.lm_state, fu.rank_r)
                row = cli_scores(z_u, ids, self.external.full_dist(hyp.lm_state)[ids], fu.alpha)
            row.setflags(write=False)
            self.n_fused_rows += 1
            if trans is None:
                rows[key] = row
            else:
                self.clm.cache_row(trans, key, row)
        return row

    def joint(self, hyp: Hypothesis, t: int, z_t_row, blank_logit):
        """(words, transitions, row, norm): ``row`` is the joint buffer,
        word channels then blank last, and ``norm`` its log-normalizer,
        so channel i's posterior is ``row[i] - norm``. A hypothesis the
        class model leaves no word channel has a row of blank alone,
        holding its ``blank_fallback`` posterior, and a ``norm`` of 0."""
        fu = self.fusion
        z_u = self.scorer.predictor.full_dist(hyp.pred_state)
        b = self.scorer.blank_score(blank_logit, hyp.k)

        if self.use_clm:
            trans = self._transitions(hyp.clm_state, t, z_t_row)
            if not len(trans):
                row = self._joint(0)
                row[0] = blank_fallback(z_t_row, z_u, b)
                return trans.word, trans, row, 0.0
            words = trans.word
            aug = self._fused_row(hyp, z_u, trans)
            row = _fill_joint(self._joint(words.size), z_t_row[words], aug, b)
        else:
            trans, words = None, self._dense_words
            if words is None:
                words = self._dense_words = np.arange(z_u.size)
                words.setflags(write=False)
            row = self._joint(z_u.size)
            if fu.method == "none":
                _fill_joint(row, z_t_row, z_u, b)
            elif fu.method == "sf":
                lm_row = self.external.full_dist(hyp.lm_state)
                row[:-1] = mix_scores(z_t_row + z_u, lm_row, fu.alpha)
                row[-1] = b
            else:
                fused = self._fused_row(hyp, z_u, None)
                _fill_joint(row, z_t_row, fused, b)
        return words, trans, row, self._norm(row)

    def expand(self, hyp: Hypothesis, t: int, z_t_row, blank_logit):
        """(words, transitions, word posteriors, blank posterior), the
        posteriors a fresh array: ``log_softmax`` of ``joint``'s row,
        equal to ``row - norm``. The reference searches read it."""
        words, trans, row, norm = self.joint(hyp, t, z_t_row, blank_logit)
        if not words.size:  # blank fallback
            return words, trans, np.empty(0), row.item(0) - norm
        posts = log_softmax(row)
        return words, trans, posts[:-1], float(posts[-1])


def beam_search(
    encoder,
    scorer,
    config: DecoderConfig,
    external_lm: ExternalLm | None = None,
    class_model: ClassModel | None = None,
):
    """Decode one utterance; returns (n-best, stats): one
    ``DecodedHypothesis`` per token sequence of the final beam, best
    first (score descending, then tokens). Callers slice it."""
    fu = config.fusion
    use_lm = fu.uses_lm
    if use_lm and external_lm is None:
        raise ValueError(f"fusion method {fu.method!r} needs an external LM")
    if fu.uses_clm and class_model is None:
        raise ValueError("class-model fusion needs a class model")

    t0 = time.perf_counter()
    stats = DecodeStats(n_frames=encoder.n_frames)
    frame_scorer = _FrameScorer(scorer, config, external_lm, class_model)
    predictor = scorer.predictor
    # every row the decode fuses is indexed by the encoder's token ids
    sizes = {"predictor": predictor.full_dist(predictor.initial_state()).size}
    if use_lm:
        sizes["external LM"] = external_lm.full_dist(external_lm.initial_state()).size
    if fu.uses_clm:
        sizes["class model"] = class_model.n_words
    for name, size in sizes.items():
        if size != encoder.n_vocab:
            raise ValueError(f"{name} covers {size} tokens, encoder {encoder.n_vocab}")

    prefix_ids: dict = {}  # (parent prefix id, token) -> prefix id; 0 is ()
    init = Hypothesis(
        0, 0.0, predictor.initial_state(),
        external_lm.initial_state() if use_lm else None,
        class_model.initial_state() if frame_scorer.use_clm else None,
        0, (), False,
    )
    beam = config.beam
    A = [init]  # the carried set: the previous frame's B after its cut
    next_seq = 1  # the next expansion's base number; carried entries have 0

    for t in range(encoder.n_frames):
        z_t_row = encoder.scores[t]
        blank_logit = float(encoder.blank_logits[t])
        B: dict = {}  # (prefix id, class state) -> blank extension
        b_scores: list = []  # B's scores, negated, ascending
        extra_used = 0
        # (prefix id, k) -> the frame's first class-model parent with a
        # channel; an expansion with none records no child
        expanded: dict = {}

        while A:
            best = A[0]
            # beam entries of B score at least best's: B settles the frame
            if len(b_scores) >= beam and b_scores[beam - 1] <= -best.logscore:
                if config.exit_rule != "require-cat1" or any(
                    _cat1_possible(h, class_model)
                    for h in sorted(B.values(), key=_score, reverse=True)[:beam]
                ):
                    break
                if extra_used >= 2 * beam:
                    stats.warning = "require-cat1 budget exhausted"
                    break
                extra_used += 1
                stats.n_extra_expansions += 1
            del A[0]
            if type(best) is _Pending:  # built now that it is popped
                parent = best.parent
                word, successor = _word_successor(best)
                best = Hypothesis(
                    prefix_ids.setdefault((parent.prefix, word), len(prefix_ids) + 1),
                    best.logscore,
                    predictor.advance(parent.pred_state, word),
                    external_lm.advance(parent.lm_state, word) if use_lm else None,
                    successor,
                    parent.k + 1,
                    (parent.steps, (t, parent.k, word, best.post)),
                    best.merged,
                )
                stats.n_popped_children += 1

            words, transitions, row, norm = frame_scorer.joint(best, t, z_t_row, blank_logit)
            n_words = words.size
            blank_post = row.item(n_words) - norm
            stats.n_expansions += 1
            stats.total_width += n_words

            took_blank = Hypothesis(
                best.prefix, best.logscore + blank_post, best.pred_state,
                best.lm_state, best.clm_state, 0,
                (best.steps, (t, best.k, None, blank_post)), best.merged,
            )
            b_key = (best.prefix, best.clm_state)
            held = B.get(b_key)
            if held is not None:  # its score rises: take the old one out
                del b_scores[bisect_left(b_scores, -held.logscore)]
                took_blank = B[b_key] = _merge(held, took_blank)
            else:
                B[b_key] = took_blank
            insort(b_scores, -took_blank.logscore)

            if best.k >= config.max_emit or not n_words:
                continue
            row = row[:n_words]
            if (
                transitions is not None
                and expanded.setdefault((best.prefix, best.k), best) is not best
                and (targets := _merge_targets(A, best))
            ):  # children may merge into A
                stats.n_children += _merge_children(
                    A, targets, best, transitions, words, row, norm, beam, next_seq
                )
            elif row.item(row.argmin()) > NEG_INF:
                stats.n_children += min(beam, n_words)
            else:
                stats.n_children += min(beam, int(np.count_nonzero(row > NEG_INF)))
            # score descending, channel ascending, merged after A's
            # entries of equal score and cut at the beam
            ranked, i = [], 0
            for score, channel, post in _ranked_children(row, norm, best.logscore, beam):
                while i < len(A) and A[i].logscore >= score and len(ranked) < beam:
                    ranked.append(A[i])
                    i += 1
                if len(ranked) == beam:
                    stats.n_ranked_children += 1  # read, and it stops the merge
                    break
                ranked.append(_Pending(
                    score, best, channel, post, transitions, best.merged, next_seq + channel
                ))
            stats.n_ranked_children += len(ranked) - i
            next_seq += n_words
            A = ranked + A[i : i + beam - len(ranked)]

        A = sorted(B.values(), key=_score, reverse=True)[:beam]
        if (
            config.exit_rule == "require-cat1"
            and not any(_cat1_possible(h, class_model) for h in A)
        ):
            capable = [h for h in B.values() if _cat1_possible(h, class_model)]
            if capable:
                A.append(max(capable, key=_score))

    by_prefix: dict = {}
    for h in A:
        by_prefix.setdefault(h.prefix, []).append(h)
    results = []
    for group in by_prefix.values():
        if len(group) == 1:  # log_sum_exp([x]) == x
            (best,) = group
            logscore, merged = best.logscore, best.merged
        else:
            best = max(group, key=_score)
            logscore, merged = float(log_sum_exp([h.logscore for h in group])), True
        steps = _unwind(best.steps)
        results.append(
            DecodedHypothesis(
                tuple(step[2] for step in steps if step[2] is not None),
                logscore, steps, merged,
            )
        )
    results.sort(key=lambda r: (-r.logscore, r.tokens))
    stats.n_enumerations = frame_scorer.n_enumerations
    stats.n_shared_bundles = frame_scorer.n_shared_bundles
    stats.n_fused_rows = frame_scorer.n_fused_rows
    stats.wall_time = time.perf_counter() - t0
    return results, stats
