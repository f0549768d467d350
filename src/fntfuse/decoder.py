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

Bookkeeping is O(1) per child, whatever the utterance length:

- A decode interns token prefixes. A dict maps (parent prefix id,
  token) to a prefix id, so a prefix id names exactly one token
  sequence. A ``Hypothesis`` carries its prefix id and a back-pointer
  ``steps`` = (parent's steps, this step). Step tuples, and the tokens
  they record, are unwound only for the final set's hypotheses.
- A carried hypothesis is keyed by (prefix id, class state). A blank
  extension enters B with k = 0 (its step records the k it was taken
  at), so B after its frame-end cut is the next frame's A as it is. The
  predictor and LM states are left out of keys, and that is exact:
  each is the initial state advanced token by token, a function of the
  token sequence, so two hypotheses with one prefix id hold equal
  states. The key merges exactly the pairs a key of (tokens, predictor
  state, LM state, class state) would.
- A child enters A pending: its score, parent, word, posterior, class
  successor (None when dense) and merged flag. Only when it is popped
  does it advance the predictor and LM states and intern its prefix;
  most children never are. Its key is (parent prefix id, word,
  successor, k), the same identity plus k, since parent id and word
  name the child's tokens. Pending keys are 4-tuples and carried keys
  2-tuples, so the two never meet. A popped child leaves A for good.

An expansion is one array pass. The joint row (word channels, blank
last) is written into a buffer the scorer owns for the decode and
normalized by one log-softmax. ``core.top_ids`` of the children's
scores (parent score plus posterior, -inf for a dead channel) selects
the ``beam`` best finite channels in ascending order, ties to the lower
channel index as ``heapq.nlargest`` keeps them. Only those children are
recorded in A, plus every child whose tokens and emission count match
a pending child already in A; A is then cut back to the beam whenever A
plus the unrecorded finite children exceeds it. The dead channels are
counted only when that sum depends on the count: when ``beam`` children
were selected, so finite ones may be left out, and A holds at most
``beam`` entries after recording. This merge-aware cut leaves A and B,
entries and dict order, exactly as recording every child would:

1. Siblings never share a merge key (tokens, emission count, class
   state). With one word, a CAT1 successor is outside any class, CAT2
   and CAT3 successors differ in class tag or tree node (CAT2 at depth
   one, CAT3 deeper), and CAT2 successors differ by tag.
2. So a child can only climb by merging into an A entry that already
   exists, which has the child's tokens and count: a pending child of
   an earlier-popped entry with ``best``'s prefix id and k. Those are
   recorded. They are looked for whenever ``beam`` children were
   selected; when no finite channel is left out, any found is already
   among them.
3. Any other child outside the ``beam`` best is outranked by ``beam``
   distinct A entries (the best siblings or the entries they merged
   into), each strictly higher, or equal and ahead of it in dict order,
   since children enter in channel order and a merge keeps the older
   place. A then exceeds the beam, and the stable ``nlargest`` cut
   drops that child and keeps the same survivors either way. With no
   child left out, both ways hold the same dict and cut alike.

Without a class model no child can merge into A at all: its only
possible parent has its tokens minus one and k minus one, and is popped
at most once per frame. So the dense methods skip the merge check and
record a child by plain assignment: its key is new, and channel i is
word i.

Pops and cuts read the rank order the search keeps instead of
rescanning A and B:

- Every beam cut (of A, and of B at the end of a frame) is
  ``sorted(..., reverse=True)[:beam]``, which the ``heapq`` docs define
  as equal to ``heapq.nlargest``, and which is cheaper on a few
  entries. The sort is stable, so after a cut A's dict order is its
  rank order, equal scores in their older dict order.
- A pop takes the first entry of A with the top score, the one ``max``
  returns. While A is in rank order, that is its head. A is in rank
  order at frame start, since the carried set is B after its cut (a
  ``require-cat1`` survivor appended to it scores no higher than the
  rest), and after every cut of A; a pop keeps the order. Recording
  children, or merging into A, without a cut leaves A out of order,
  and pops scan A with ``max`` until the next cut.
- B settles the frame when ``beam`` of its entries score at least the
  top of A. B's scores are kept negated in an ascending list, updated
  as each blank extension enters or merges into B, so the test reads
  B's ``beam``-th best score instead of counting over B.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields

import numpy as np

from .classlm import ClassModel, ClmState, encoder_rank_pass, enumerate_transitions
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


@dataclass
class DecodeStats:
    """Per-utterance instrumentation for width and exit-rule accounting.

    ``total_width`` counts the channels scored over all expansions,
    ``n_children`` the children recorded in A (pending) from them,
    ``n_popped_children`` the pending children popped and so built into
    hypotheses, and ``n_enumerations`` the class states this decode had
    to enumerate because the class model's memo did not hold them.
    Stats add field by field, so a sum counts over several decodes; a
    sum carries no ``warning``.
    """

    n_frames: int = 0
    n_expansions: int = 0
    n_extra_expansions: int = 0
    total_width: int = 0
    n_children: int = 0
    n_popped_children: int = 0
    n_enumerations: int = 0
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
    k, token-or-None, log-posterior))."""

    prefix: int
    logscore: float
    pred_state: object
    lm_state: object
    clm_state: ClmState | None
    k: int
    steps: tuple
    merged: bool


@dataclass(slots=True)
class _Pending:
    """A child recorded in A but not built: ``parent`` emits ``word``
    with log-posterior ``post``; ``successor`` is its class state."""

    logscore: float
    parent: Hypothesis
    word: int
    post: float
    successor: ClmState | None
    merged: bool


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


def _merge(pool: dict, key, entry):
    """Put a Hypothesis or _Pending into ``pool`` and return the entry
    that holds ``key``. On a key already held, the higher-scoring entry
    (the held one on a tie) represents both, with their summed score, in
    the held one's place. An entry belongs to the one pool it is in, so
    it is updated in place."""
    old = pool.get(key)
    if old is not None:
        total = float(np.logaddexp(old.logscore, entry.logscore))
        if old.logscore >= entry.logscore:
            entry = old
        entry.logscore = total
        entry.merged = True
    pool[key] = entry
    return entry


def _cat1_possible(hyp: Hypothesis, clm: ClassModel | None) -> bool:
    if clm is None or hyp.clm_state is None:
        return True
    return hyp.clm_state.class_tag is None or clm.exit_logmass(hyp.clm_state) > NEG_INF


def _n_finite(scores: np.ndarray) -> int:
    """The number of finite entries of ``scores``."""
    return scores.size - np.count_nonzero(scores == NEG_INF)


def _merge_siblings(A: dict, best: Hypothesis, words: np.ndarray, scores: np.ndarray):
    """The finite channels of ``scores`` whose child would have the
    token sequence and emission count of an entry already in A (a
    pending child of ``best``'s prefix and k): the only children of
    ``best`` that can merge into A."""
    targets = [
        e.word
        for e in A.values()
        if type(e) is _Pending and e.parent.prefix == best.prefix and e.parent.k == best.k
    ]
    if not targets:
        return np.empty(0, dtype=np.intp)
    hits = np.isin(words, targets).nonzero()[0]
    return hits[scores[hits] > NEG_INF]


class _FrameScorer:
    """Builds (words, transitions, posteriors, blank posterior) for one
    expansion.

    ``words`` is the word-id array aligned with the posterior vector:
    the class model's transition words, or one read-only ``arange``
    shared by every dense expansion of the decode. ``transitions`` is
    the aligned class-model ``Transitions`` bundle, or None without a
    class model. Transitions come from the class model's memo, keyed by
    the class state alone, so they outlive the decode: hypotheses of
    this frame, later frames and later decodes revisit the same states.
    A miss enumerates the state and fills the memo. Only an r'
    encoder-rank gate makes transitions depend on the frame; the gate is
    ranked once per frame, and the gated view of the memoized bundle is
    cached for the decode by (state, frame). Successors and fused rows
    belong to the memoized bundle; a view reads them through its index.

    The joint row is written into one buffer the scorer owns for the
    decode, grown to the widest row seen, and normalized by one
    ``log_softmax``, whose result is a fresh array: no posterior handed
    out aliases the buffer.

    Fused rows are cached for the decode as well, read-only, in one dict
    keyed by (predictor state, LM state, transitions bundle or None):
    histories with one longest matched context share n-gram states.
    """

    def __init__(self, scorer, config, external_lm, class_model):
        self.scorer = scorer
        self.config = config
        self.external = external_lm
        self.clm = class_model
        self.fusion = config.fusion
        self.use_clm = self.fusion.uses_clm
        self._gated: dict = {}
        self._gate_frame = self._word_gate = None
        self._rows: dict = {}
        self._buf = np.empty(0)
        self._dense_words = None
        self.n_enumerations = 0

    def _joint(self, n: int) -> np.ndarray:
        """The first n + 1 floats of the decode's joint buffer."""
        if self._buf.size <= n:
            self._buf = np.empty(n + 1)
        return self._buf[: n + 1]

    def _transitions(self, clm_state, t, z_t_row):
        # the state itself is the memo key: equal states are equal keys
        trans = self.clm.cached_transitions(clm_state)
        if trans is None:
            self.n_enumerations += 1
            trans = enumerate_transitions(self.clm, clm_state)
            self.clm.cache_transitions(clm_state, trans)
        if self.config.rank_rprime is None:
            return trans
        gated = self._gated.get((clm_state, t))
        if gated is None:
            if self._gate_frame != t:
                self._gate_frame = t
                self._word_gate = encoder_rank_pass(z_t_row, self.config.rank_rprime)
            gated = self._gated[clm_state, t] = trans.gated(self._word_gate)
        return gated

    def _fused_row(self, hyp: Hypothesis, z_u, trans):
        """The fused predictor row: li/lli/cli when ``trans`` is None,
        else the clm or three-way row aligned with ``trans``.

        Rows are kept for the decode: a hypothesis carried into the next
        frame is expanded again with its states unchanged, and
        hypotheses whose histories share a longest matched context share
        its states. A bundle in the key stands for the class state; the
        key holds it, so its identity is not reused within the decode. An
        r'-gated view's row is its parent's row at its index, bit for bit:
        the fusions work entry by entry, and the view shares CAT1 gates."""
        if trans is not None and trans.parent is not None:
            return self._fused_row(hyp, z_u, trans.parent)[trans.index]
        key = (hyp.pred_state, hyp.lm_state, trans)
        row = self._rows.get(key)
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
            self._rows[key] = row
        return row

    def expand(self, hyp: Hypothesis, t: int, z_t_row, blank_logit):
        fu = self.fusion
        z_u = self.scorer.predictor.full_dist(hyp.pred_state)
        b = self.scorer.blank_score(blank_logit, hyp.k)

        if self.use_clm:
            trans = self._transitions(hyp.clm_state, t, z_t_row)
            if not len(trans):
                return trans.word, trans, np.empty(0), blank_fallback(z_t_row, z_u, b)
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
    B = {(0, init.clm_state): init}

    for t in range(encoder.n_frames):
        z_t_row = encoder.scores[t]
        blank_logit = float(encoder.blank_logits[t])
        A, B = B, {}
        b_scores: list = []  # B's scores, negated, ascending
        extra_used = 0
        a_ranked = True  # A's scores never rise in dict order

        while A:
            if a_ranked:
                best_key = next(iter(A))
            else:
                best_key = max(A, key=lambda key: A[key].logscore)
            best = A[best_key]
            # beam entries of B score at least best's: B settles the frame
            if len(b_scores) >= config.beam and b_scores[config.beam - 1] <= -best.logscore:
                if config.exit_rule != "require-cat1" or any(
                    _cat1_possible(h, class_model)
                    for h in sorted(
                        B.values(), key=lambda h: h.logscore, reverse=True
                    )[: config.beam]
                ):
                    break
                if extra_used >= 2 * config.beam:
                    stats.warning = "require-cat1 budget exhausted"
                    break
                extra_used += 1
                stats.n_extra_expansions += 1
            del A[best_key]
            if type(best) is _Pending:  # built now that it is popped
                parent, word = best.parent, best.word
                best = Hypothesis(
                    prefix_ids.setdefault((parent.prefix, word), len(prefix_ids) + 1),
                    best.logscore,
                    predictor.advance(parent.pred_state, word),
                    external_lm.advance(parent.lm_state, word) if use_lm else None,
                    best.successor,
                    parent.k + 1,
                    (parent.steps, (t, parent.k, word, best.post)),
                    best.merged,
                )
                stats.n_popped_children += 1

            words, transitions, posts, blank_post = frame_scorer.expand(
                best, t, z_t_row, blank_logit
            )
            stats.n_expansions += 1
            stats.total_width += words.size

            took_blank = Hypothesis(
                best.prefix, best.logscore + blank_post, best.pred_state,
                best.lm_state, best.clm_state, 0,
                (best.steps, (t, best.k, None, blank_post)), best.merged,
            )
            b_key = (best.prefix, best.clm_state)
            held = B.get(b_key)
            if held is not None:  # its score rises: take the old one out
                del b_scores[bisect_left(b_scores, -held.logscore)]
            insort(b_scores, -_merge(B, b_key, took_blank).logscore)

            unrecorded = 0  # finite children left out, counted when the cut needs it
            if best.k < config.max_emit:
                scores = best.logscore + posts
                keep = top_ids(scores, config.beam)
                k = best.k + 1
                if transitions is None:
                    for i, post in zip(keep.tolist(), posts[keep].tolist()):
                        A[best.prefix, i, None, k] = _Pending(
                            best.logscore + post, best, i, post, None, best.merged
                        )
                else:
                    if keep.size == config.beam:  # finite channels may be left out
                        merging = _merge_siblings(A, best, words, scores)
                        if merging.size:
                            keep = np.union1d(keep, merging)
                    for i, word, post in zip(
                        keep.tolist(), words[keep].tolist(), posts[keep].tolist()
                    ):
                        succ = transitions.successor(i)
                        _merge(
                            A, (best.prefix, word, succ, k),
                            _Pending(best.logscore + post, best, word, post, succ, best.merged),
                        )
                if keep.size >= config.beam and len(A) <= config.beam:
                    unrecorded = _n_finite(scores) - keep.size
                stats.n_children += keep.size
                a_ranked = a_ranked and not keep.size
            if len(A) + unrecorded > config.beam:
                ranked = sorted(A.items(), key=lambda kv: kv[1].logscore, reverse=True)
                A = dict(ranked[: config.beam])
                a_ranked = True

        ranked = sorted(B.items(), key=lambda kv: kv[1].logscore, reverse=True)
        survivors = ranked[: config.beam]
        if (
            config.exit_rule == "require-cat1"
            and class_model is not None
            and not any(_cat1_possible(h, class_model) for _, h in survivors)
        ):
            capable = [
                kv for kv in B.items() if _cat1_possible(kv[1], class_model)
            ]
            if capable:
                survivors.append(
                    max(capable, key=lambda kv: kv[1].logscore)
                )
        B = dict(survivors)

    by_prefix: dict = {}
    for h in B.values():
        by_prefix.setdefault(h.prefix, []).append(h)
    results = []
    for group in by_prefix.values():
        steps = _unwind(max(group, key=lambda h: h.logscore).steps)
        results.append(
            DecodedHypothesis(
                tuple(step[2] for step in steps if step[2] is not None),
                float(log_sum_exp([h.logscore for h in group])),
                steps,
                len(group) > 1 or any(h.merged for h in group),
            )
        )
    results.sort(key=lambda r: (-r.logscore, r.tokens))
    stats.n_enumerations = frame_scorer.n_enumerations
    stats.wall_time = time.perf_counter() - t0
    return results, stats
