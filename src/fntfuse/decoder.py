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
  parent, word, posterior, class successor (None when dense) and merged
  flag. Only when it is popped does it advance the predictor and LM
  states and intern its prefix; most children never are. Its identity
  is (parent prefix id, word, successor, k), since parent id and word
  name its tokens. Carried entries have k = 0 and children k >= 1, so a
  child can share its identity only with another pending child. A
  popped child leaves A for good.

An expansion is one array pass. The joint row (word channels, blank
last) is written into a buffer the scorer owns for the decode and
normalized by one log-softmax. ``core.top_ids`` of the children's
scores (parent score plus posterior, -inf for a dead channel) selects
the ``beam`` best finite channels in ascending order, ties to the lower
channel index as ``heapq.nlargest`` keeps them. Only those children are
recorded in A, plus, with a class model, every child whose identity
matches a pending child already in A.

Pops and cuts read two things of A: which entries it holds, and the
relative order of entries with equal scores. The reference records
every finite child into a dict (insertion order; a merge keeps the
older place) and cuts it by a stable sort whenever it exceeds the beam;
a pop takes the first entry with the top score, the one ``max``
returns. A holds the same entries as that reference, and entries with
equal scores keep its relative order, so every pop takes the same entry
and every stable cut keeps the same survivors:

1. Siblings never share a merge key (tokens, emission count, class
   state). With one word, a CAT1 successor is outside any class, CAT2
   and CAT3 successors differ in class tag or tree node (CAT2 at depth
   one, CAT3 deeper), and CAT2 successors differ by tag.
2. Without a class model no child can merge into A at all: its only
   possible parent has its tokens minus one and k minus one, and is
   popped at most once per frame. So the dense methods keep A ranked
   at all times. The selected children, ordered by score descending
   and then channel ascending, are merged stably into A, A's entries
   first on equal scores, and the merge stops at ``beam``; a
   ``_Pending`` is built only for a child that makes the cut. That is
   the reference's cut: its children enter after A's entries in channel
   order, and a finite child outside the ``beam`` best is outranked by
   ``beam`` selected siblings, each strictly higher, or equal and on a
   lower channel. Where the reference skipped the cut, it held the same
   <= ``beam`` entries unranked, and its ``max`` took the first top
   entry in insertion order: the merged list's head.
3. With a class model a child can only climb by merging into an A entry
   that already exists: a pending child of an earlier-popped entry with
   ``best``'s prefix id and k. The child finds it by (word, successor)
   and updates it where it stands; a new child is appended, in channel
   order, so A lists its entries in the reference's dict order. Merging
   channels are looked for whenever ``beam`` children were selected;
   when no finite channel is left out, any found is already among them.
   Any other child outside the ``beam`` best is outranked by ``beam``
   distinct A entries (the best siblings or the entries they merged
   into), each strictly higher, or equal and ahead of it. A is cut by
   ``sorted(A, reverse=True)[:beam]`` whenever A plus the unrecorded
   finite children exceeds the beam, so that child falls to the cut
   either way. The dead channels are counted only when that sum depends
   on the count: when ``beam`` children were selected, so finite ones
   may be left out, and A holds at most ``beam`` entries after
   recording. A is in rank order at frame start (a ``require-cat1``
   survivor appended to B's cut scores no higher than the rest) and
   after a cut, and a pop keeps the order, so a pop takes A's head.
   Recording children without a cut leaves A out of order, and pops
   scan A with ``max`` until the next cut.

Every cut is ``sorted(..., reverse=True)[:beam]``, which the ``heapq``
docs define as equal to ``heapq.nlargest``, and which is cheaper on a
few entries. B settles the frame when ``beam`` of its entries score at
least the top of A. B's scores are kept negated in an ascending list,
updated as each blank extension enters or merges into B, so the test
reads B's ``beam``-th best score instead of counting over B.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields
from operator import itemgetter

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
        if self.exit_rule == "require-cat1" and not self.fusion.uses_clm:
            raise ValueError(f"require-cat1 needs class-model fusion, not {self.fusion.method!r}")


@dataclass
class DecodeStats:
    """Per-utterance instrumentation for width and exit-rule accounting.

    ``total_width`` counts the channels scored over all expansions,
    ``n_children`` the children selected from them (the ``beam`` best
    finite ones per expansion, plus any that merge into a pending child
    in A), whether or not the cut of A keeps them, ``n_popped_children``
    the pending children popped and so built into hypotheses, and
    ``n_enumerations`` the class states this decode had to enumerate
    because the class model's memo did not hold them.
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


def _merge(held, entry):
    """The entry that represents ``held`` and ``entry``, two entries of
    one merge key: the higher-scoring one (``held`` on a tie), updated in
    place to their summed score. The caller puts it where ``held`` was."""
    total = float(np.logaddexp(held.logscore, entry.logscore))
    if held.logscore >= entry.logscore:
        entry = held
    entry.logscore = total
    entry.merged = True
    return entry


def _cat1_possible(hyp: Hypothesis, clm: ClassModel) -> bool:
    # only require-cat1 asks, and it decodes with a class model
    return hyp.clm_state.class_tag is None or clm.exit_logmass(hyp.clm_state) > NEG_INF


def _n_finite(scores: np.ndarray) -> int:
    """The number of finite entries of ``scores``."""
    return scores.size - np.count_nonzero(scores == NEG_INF)


def _merge_targets(A: list, best: Hypothesis) -> dict:
    """(word, successor) -> position in A of each pending child of
    ``best``'s prefix and k: the entries a child of ``best`` can merge
    into, since they have its tokens and emission count."""
    return {
        (e.word, e.successor): j
        for j, e in enumerate(A)
        if type(e) is _Pending and e.parent.prefix == best.prefix and e.parent.k == best.k
    }


def _merge_siblings(targets: dict, words: np.ndarray, scores: np.ndarray):
    """The finite channels of ``scores`` whose word is the word of a
    merge target: the only children that can merge into A."""
    hits = np.isin(words, [word for word, _ in targets]).nonzero()[0]
    return hits[scores[hits] > NEG_INF]


def _score(entry) -> float:
    return entry.logscore


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
    beam = config.beam
    A = [init]  # the carried set: the previous frame's B after its cut

    for t in range(encoder.n_frames):
        z_t_row = encoder.scores[t]
        blank_logit = float(encoder.blank_logits[t])
        B: dict = {}  # (prefix id, class state) -> blank extension
        b_scores: list = []  # B's scores, negated, ascending
        extra_used = 0
        a_ranked = True  # A's scores never rise along the list

        while A:
            top = 0 if a_ranked else max(range(len(A)), key=lambda j: A[j].logscore)
            best = A[top]
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
            del A[top]
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
                took_blank = B[b_key] = _merge(held, took_blank)
            else:
                B[b_key] = took_blank
            insort(b_scores, -took_blank.logscore)

            if best.k >= config.max_emit:
                continue
            scores = best.logscore + posts
            keep = top_ids(scores, beam)
            if transitions is None:
                stats.n_children += keep.size
                # score descending, channel ascending, merged after A's
                # entries of equal score and cut at the beam
                ranked, i = [], 0
                for score, word, post in sorted(
                    zip(scores[keep].tolist(), keep.tolist(), posts[keep].tolist()),
                    key=itemgetter(0), reverse=True,
                ):
                    while i < len(A) and A[i].logscore >= score and len(ranked) < beam:
                        ranked.append(A[i])
                        i += 1
                    if len(ranked) == beam:
                        break
                    ranked.append(_Pending(score, best, word, post, None, best.merged))
                A = ranked + A[i : i + beam - len(ranked)]
                continue
            targets = _merge_targets(A, best)
            if targets and keep.size == beam:  # finite channels may be left out
                merging = _merge_siblings(targets, words, scores)
                if merging.size:
                    keep = np.union1d(keep, merging)
            stats.n_children += keep.size
            for i, word, post in zip(keep.tolist(), words[keep].tolist(), posts[keep].tolist()):
                succ = transitions.successor(i)
                child = _Pending(best.logscore + post, best, word, post, succ, best.merged)
                j = targets.get((word, succ))
                if j is None:
                    A.append(child)
                else:
                    A[j] = _merge(A[j], child)
            unrecorded = 0  # finite children left out, counted when the cut needs it
            if keep.size >= beam and len(A) <= beam:
                unrecorded = _n_finite(scores) - keep.size
            a_ranked = a_ranked and not keep.size
            if len(A) + unrecorded > beam:
                A = sorted(A, key=_score, reverse=True)[:beam]
                a_ranked = True

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
        steps = _unwind(max(group, key=_score).steps)
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
