"""Deterministic transducer stand-in and synthetic scenario generation.

The neural encoder/predictor pair is simulated so decoding behavior can
be verified end to end at desk scale. Encoder outputs are per-frame
log-softmax rows derived from a reference token sequence (one frame per
token) with seeded Gumbel confusion noise; the predictor is an n-gram
model exposed through the dense external-LM interface, which makes the
"predictor behaves like a language model" premise literally true in the
testbed. The blank logit per frame is log(1 - p_peak) shifted by a
configurable offset, and the scorer adds a history penalty per symbol
already emitted in the current frame so emission runs terminate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classlm import write_class_file, parse_class_file
from .core import ExternalLm, Vocabulary, log_softmax
from .ngram import NgramModel

SCORES_MAGIC = "FNTSCORES v2"
SCORES_DTYPE = np.dtype("<f8")

# Bounds of an NgramPredictor's caches, each emptied whole when full:
# dense rows for up to ROW_CACHE_VALUES // V states (16 MB of floats at
# most), top-r id arrays of up to ROW_CACHE_VALUES ids in all (16 MB of
# int64 at most, whatever r is), and up to SUCCESSOR_CACHE_ENTRIES
# successors. A decodebench pass holds at most ~450 states, ~450 id
# arrays and ~610 successors.
ROW_CACHE_VALUES = 1 << 21
SUCCESSOR_CACHE_ENTRIES = 1 << 15


@dataclass(frozen=True)
class EncoderOutput:
    """Per-frame encoder log-scores plus raw blank logits.

    ``scores`` is T x V with each row log-softmax normalized over the
    vocabulary; ``blank_logits`` is the length-T raw blank channel that
    only becomes a probability inside the final joint softmax.
    """

    scores: np.ndarray
    blank_logits: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        blanks = np.asarray(self.blank_logits, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(f"encoder scores must be T x V, got {scores.shape}")
        if blanks.shape != (scores.shape[0],):
            raise ValueError(
                f"blank logits shape {blanks.shape} != frame count {scores.shape[0]}"
            )
        # one pass accepts good output: a NaN or +inf score fails the mass
        # test, a NaN or +inf blank the bound; only a failure looks closer
        mass = np.exp(scores).sum(axis=1)
        if not ((np.abs(mass - 1.0) <= 1e-6).all() and (blanks < np.inf).all()):
            nan = np.flatnonzero(np.isnan(scores).any(axis=1) | np.isnan(blanks))
            if nan.size:
                raise ValueError(f"frame {nan[0]}: NaN in encoder output")
            hot = np.flatnonzero(blanks == np.inf)
            if hot.size:
                raise ValueError(f"frame {hot[0]}: blank logit is +inf")
            bad = np.flatnonzero(np.abs(mass - 1.0) > 1e-6)[0]
            raise ValueError(f"frame {bad} not normalized: mass {mass[bad]!r}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "blank_logits", blanks)

    @property
    def n_frames(self) -> int:
        return self.scores.shape[0]

    @property
    def n_vocab(self) -> int:
        return self.scores.shape[1]


def save_scores(enc: EncoderOutput, path) -> None:
    """Write an EncoderOutput as a binary score file (exact round trip).

    An ASCII header line ``FNTSCORES v2 T=<frames> V=<vocab>`` is
    followed by T rows, each the V scores and then the blank logit, as
    little-endian float64.
    """
    rows = np.column_stack([enc.scores, enc.blank_logits]).astype(SCORES_DTYPE, copy=False)
    with open(path, "wb") as f:
        f.write(f"{SCORES_MAGIC} T={enc.n_frames} V={enc.n_vocab}\n".encode("ascii"))
        f.write(rows.tobytes())


def load_scores(path, expect_vocab: int | None = None) -> EncoderOutput:
    """Read a score file; faults carry the byte offset of the problem."""
    with open(path, "rb") as f:
        data = f.read()
    end = data.find(b"\n")
    header = data[: end if end >= 0 else 64].decode("ascii", "replace")
    if not header.startswith(SCORES_MAGIC):
        raise ValueError(f"byte 0: bad header {header[:40]!r}")
    try:
        fields = dict(kv.split("=") for kv in header[len(SCORES_MAGIC) :].split())
        n_frames, n_vocab = int(fields["T"]), int(fields["V"])
    except (ValueError, KeyError):
        n_frames = n_vocab = -1
    if end < 0 or min(n_frames, n_vocab) < 0:
        raise ValueError(f"byte 0: malformed header {header!r}")
    if expect_vocab is not None and n_vocab != expect_vocab:
        raise ValueError(
            f"byte 0: header V={n_vocab} disagrees with vocabulary size {expect_vocab}"
        )
    offset = end + 1
    row_bytes = SCORES_DTYPE.itemsize * (n_vocab + 1)
    body = len(data) - offset
    found = body // row_bytes
    if found < n_frames:
        raise ValueError(
            f"byte {offset + found * row_bytes}: truncated, expected {n_frames} "
            f"frames but found {found}"
        )
    if body > n_frames * row_bytes:
        raise ValueError(
            f"byte {offset + n_frames * row_bytes}: trailing bytes after {n_frames} frames"
        )
    rows = np.frombuffer(
        data, SCORES_DTYPE, count=n_frames * (n_vocab + 1), offset=offset
    ).reshape(n_frames, n_vocab + 1)
    # copies: owned, aligned, C-contiguous native float64, not views of ``data``
    return EncoderOutput(
        rows[:, :-1].astype(np.float64, order="C"), rows[:, -1].astype(np.float64)
    )


class NgramPredictor(ExternalLm):
    """Dense external-LM adapter over a backoff n-gram model.

    A state is the history's longest matched context: the longest suffix
    of its last ``order - 1`` token ids (start-padded) that is a trie
    node with children or a nonzero backoff weight, as in KenLM's state
    minimization. A row, a rank list and the next state depend on a
    history only through it, so histories with one such context share
    one state and every cache keyed by it. With ``floor`` > 0 the
    distribution is mixed with uniform mass so every token keeps nonzero
    probability, the way a neural predictor's log-softmax would. A rank
    query is ``top_ids`` of the dense row (ties to the lower id)
    regardless of floor, unlike the raw trie query, which enumerates
    longest-context arcs first.

    Rows per state, top-r ids per (state, r) and successors per
    (state, token) are cached across decodes, bounded as the module's
    ``ROW_CACHE_VALUES`` comment says. ``rows_built``, ``tops_built``
    and ``successors_built`` count the cache misses, for inspection.
    """

    def __init__(self, model: NgramModel, floor: float = 0.0):
        if not 0.0 <= floor < 1.0:
            raise ValueError(f"floor must be in [0, 1), got {floor}")
        if model.predicts(model.eos_id):  # rows would not sum to 1 over the vocabulary
            raise ValueError(
                "</s> has nonzero probability, so rows do not sum to 1 over the "
                "vocabulary; train the LM without </s>"
            )
        self.model = model
        self.floor = floor
        self.n_words = len(model.vocab)
        self._dense: dict[tuple, np.ndarray] = {}
        self._top: dict[tuple, np.ndarray] = {}
        self._top_ids = 0  # ids held in _top
        self._next: dict[tuple, tuple] = {}
        self.rows_built = self.tops_built = self.successors_built = 0
        if floor > 0.0:  # the uniform mix, one float64 op sequence per entry
            scale, uniform = math.log1p(-floor), math.log(floor / self.n_words)
            self._floor_map = lambda row: np.logaddexp(scale + row, uniform)
        else:
            self._floor_map = None

    def initial_state(self):
        return self.advance((), self.model.bos_id)

    def advance(self, state, token_id: int):
        """The ``minimal_context`` of the last ``order - 1`` tokens of
        ``state`` + ``token_id``. Exact: if s'w is a node, s' is one with
        a child, a suffix of ``state``; a childless zero-weight node adds
        nothing to a row."""
        key = (state, token_id)
        nxt = self._next.get(key)
        if nxt is None:
            nxt = (*state, int(token_id))[max(0, len(state) + 2 - self.model.order) :]
            nxt = self.model.minimal_context(nxt)
            if len(self._next) >= SUCCESSOR_CACHE_ENTRIES:
                self._next.clear()
            self._next[key] = nxt
            self.successors_built += 1
        return nxt

    def full_dist(self, state) -> np.ndarray:
        """Cached per state, one dict lookup when warm; read-only. A
        floored row is ``dense_row`` with the floor as its map, which
        floors the unigram row's distinct values and the chain's arcs,
        not every word."""
        row = self._dense.get(state)
        if row is None:
            if len(self._dense) >= ROW_CACHE_VALUES // self.n_words:
                self._dense.clear()
            chain = self.model.suffix_chain(state)
            row = self.model.dense_row(chain, self._floor_map)[: self.n_words]
            row.flags.writeable = False
            self._dense[state] = row
            self.rows_built += 1
        return row

    def top_r(self, state, r: int) -> np.ndarray:
        """Cached per (state, r); the shared id array is read-only."""
        key = (state, r)
        hit = self._top.get(key)
        if hit is None:
            hit = super().top_r(state, r)
            hit.flags.writeable = False
            if self._top_ids + hit.size > ROW_CACHE_VALUES:
                self._top.clear()
                self._top_ids = 0
            self._top[key] = hit
            self._top_ids += hit.size
            self.tops_built += 1
        return hit


class FntScorer:
    """Bundles the predictor with the blank-channel history penalty."""

    def __init__(self, predictor: ExternalLm, gamma: float = 0.0):
        if gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        self.predictor = predictor
        self.gamma = gamma

    def blank_score(self, blank_logit: float, emitted_in_frame: int) -> float:
        return float(blank_logit) + self.gamma * emitted_in_frame


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of a synthetic entity-rich scenario.

    ``templates`` are word-level sentences whose slots name classes
    (for example "call ⟨NAME⟩ on ⟨TYPE⟩"); ``classes`` maps each tag to
    weighted word-level phrases. Entity inventories are split into a
    base half (seen by the predictor's training text) and a test half
    (seen only by adaptation text, class files, and the test set), so
    external-LM fusion has something real to recover.
    """

    templates: tuple
    classes: dict
    n_train: int = 200
    n_adapt: int = 200
    n_test: int = 100
    tau: float = 0.5
    sub_rate: float = 0.0
    scale: float = 4.0
    blank_offset: float = 0.0
    blank_frames: int = 0
    coverage: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.templates:
            raise ValueError("no sentence templates")
        if not self.classes:
            raise ValueError("no class inventories")
        for tag, entries in self.classes.items():
            if not entries:
                raise ValueError(f"class {tag} has an empty inventory")
        slots = {
            tok
            for tpl in self.templates
            for tok in tpl.split()
            if tok.startswith("⟨")
        }
        missing = slots - set(self.classes)
        if missing:
            raise ValueError(f"templates use undefined classes: {sorted(missing)}")
        if self.tau < 0 or self.scale <= 0:
            raise ValueError("tau must be >= 0 and scale > 0")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {self.coverage}")
        if not 0.0 <= self.sub_rate <= 1.0:
            raise ValueError(f"sub_rate must be in [0, 1], got {self.sub_rate}")
        if min(self.n_train, self.n_adapt, self.n_test) < 1:
            raise ValueError("split sizes must be >= 1")


@dataclass(frozen=True)
class TestUtterance:
    utt_id: str
    ref_words: tuple
    ref_pieces: tuple
    entity_word_indices: tuple
    encoder: EncoderOutput


@dataclass
class Scenario:
    """Generated artifacts: texts, class entries, and the test set."""

    vocab: Vocabulary
    train_texts: list
    adapt_texts: list
    clm_texts: list
    class_entries: dict
    tests: list


def word_pieces(word: str) -> tuple:
    """Word-piece split: start-marked, long words break into two pieces."""
    if len(word) > 6:
        return ("▁" + word[:4], word[4:])
    return ("▁" + word,)


def pieces_of(words) -> list:
    return [p for w in words for p in word_pieces(w)]


def _split_pool(entries, rng):
    """Half/half base-vs-test split of one class inventory."""
    entries = list(entries)
    if len(entries) == 1:
        return entries, entries
    order = rng.permutation(len(entries))
    cut = len(entries) // 2
    base = [entries[i] for i in order[:cut]]
    test = [entries[i] for i in order[cut:]]
    return base, test


def _sample_sentence(rng, templates, pools):
    """One realized sentence: (words, tagged tokens, entity word indices,
    sampled entity phrases)."""
    template = templates[int(rng.integers(len(templates)))]
    words, tagged, entity_idx, used = [], [], [], []
    for tok in template.split():
        if tok.startswith("⟨"):
            phrases, weights = pools[tok]
            phrase = phrases[int(rng.choice(len(phrases), p=weights))]
            used.append(phrase)
            for w in phrase.split():
                entity_idx.append(len(words))
                words.append(w)
            tagged.append(tok)
        else:
            words.append(tok)
            tagged.extend(word_pieces(tok))
    return words, tagged, entity_idx, used


def _frame(rng, spec, n_vocab, ref_id):
    logits = np.zeros(n_vocab)
    logits[ref_id] = spec.scale
    if spec.sub_rate > 0.0 and rng.random() < spec.sub_rate:
        conf = int(rng.integers(n_vocab - 1))
        if conf >= ref_id:
            conf += 1
        logits[conf] = spec.scale * 0.95
    z = log_softmax(logits + spec.tau * rng.gumbel(size=n_vocab))
    blank = math.log1p(-math.exp(float(np.max(z)))) - spec.blank_offset
    return z, blank


def _blank_frame(rng, spec, n_vocab):
    z = log_softmax(max(spec.tau, 0.1) * rng.gumbel(size=n_vocab))
    blank = math.log1p(-math.exp(float(np.max(z)))) - spec.blank_offset
    return z, blank


def synthesize_scenario(spec: ScenarioSpec) -> Scenario:
    """Generate texts, class entries, and encoder outputs from a spec.

    Bit-reproducible for a fixed seed. The ``coverage`` fraction keeps
    only that share of the distinct entities actually mentioned in the
    test set inside the emitted class entries.
    """
    rng = np.random.default_rng(spec.seed)

    pieces = set()
    for tpl in spec.templates:
        for tok in tpl.split():
            if not tok.startswith("⟨"):
                pieces.update(word_pieces(tok))
    for entries in spec.classes.values():
        for phrase, _ in entries:
            pieces.update(pieces_of(phrase.split()))
    vocab = Vocabulary(sorted(pieces))

    base_pools, test_pools = {}, {}
    for tag in sorted(spec.classes):
        base, test = _split_pool(spec.classes[tag], rng)
        for pool, dst in ((base, base_pools), (test, test_pools)):
            phrases = [p for p, _ in pool]
            weights = np.array([w for _, w in pool], dtype=np.float64)
            dst[tag] = (phrases, weights / weights.sum())

    def realize(n, pools):
        out = []
        for _ in range(n):
            out.append(_sample_sentence(rng, spec.templates, pools))
        return out

    train = realize(spec.n_train, base_pools)
    adapt = realize(spec.n_adapt, test_pools)
    train_texts = [" ".join(pieces_of(words)) for words, _, _, _ in train]
    adapt_texts = [" ".join(pieces_of(words)) for words, _, _, _ in adapt]
    clm_texts = [list(tagged) for _, tagged, _, _ in adapt]

    tests = []
    mentioned = set()
    for i in range(spec.n_test):
        words, _, entity_idx, used = _sample_sentence(rng, spec.templates, test_pools)
        mentioned.update(used)
        ref_pieces = pieces_of(words)
        ids = vocab.ids_of(ref_pieces)
        rows, blanks = [], []
        for ref_id in ids:
            z, b = _frame(rng, spec, len(vocab), ref_id)
            rows.append(z)
            blanks.append(b)
        for _ in range(spec.blank_frames):
            at = int(rng.integers(len(rows) + 1))
            z, b = _blank_frame(rng, spec, len(vocab))
            rows.insert(at, z)
            blanks.insert(at, b)
        enc = EncoderOutput(np.array(rows), np.array(blanks))
        tests.append(
            TestUtterance(
                f"utt-{i:04d}", tuple(words), tuple(ref_pieces), tuple(entity_idx), enc
            )
        )

    class_entries = {}
    for tag in sorted(spec.classes):
        phrases, _ = test_pools[tag]
        weight_of = dict(spec.classes[tag])
        used = sorted(p for p in set(phrases) if p in mentioned)
        n_keep = round(spec.coverage * len(used))
        keep_idx = rng.choice(len(used), size=n_keep, replace=False) if used else []
        kept = {used[i] for i in keep_idx}
        entries = [
            (tuple(pieces_of(p.split())), float(weight_of[p]))
            for p in sorted(set(phrases))
            if p not in mentioned or p in kept
        ]
        if entries:
            class_entries[tag] = entries
    return Scenario(vocab, train_texts, adapt_texts, clm_texts, class_entries, tests)


def write_scenario(scn: Scenario, directory) -> None:
    d = Path(directory)
    (d / "scores").mkdir(parents=True, exist_ok=True)
    scn.vocab.to_file(d / "vocab.txt")
    (d / "train.txt").write_text("\n".join(scn.train_texts) + "\n", encoding="utf-8")
    (d / "adapt.txt").write_text("\n".join(scn.adapt_texts) + "\n", encoding="utf-8")
    (d / "clm.txt").write_text(
        "\n".join(" ".join(t) for t in scn.clm_texts) + "\n", encoding="utf-8"
    )
    write_class_file(scn.class_entries, d / "classes.tsv")
    with open(d / "refs.tsv", "w", encoding="utf-8") as f:
        for utt in scn.tests:
            f.write(
                "\t".join(
                    [
                        utt.utt_id,
                        " ".join(utt.ref_words),
                        ",".join(str(i) for i in utt.entity_word_indices),
                        " ".join(utt.ref_pieces),
                    ]
                )
                + "\n"
            )
            save_scores(utt.encoder, d / "scores" / f"{utt.utt_id}.fnt")


def read_scenario(directory) -> Scenario:
    d = Path(directory)
    vocab = Vocabulary.from_file(d / "vocab.txt")
    train = (d / "train.txt").read_text(encoding="utf-8").splitlines()
    adapt = (d / "adapt.txt").read_text(encoding="utf-8").splitlines()
    clm = [
        line.split()
        for line in (d / "clm.txt").read_text(encoding="utf-8").splitlines()
    ]
    classes = parse_class_file(d / "classes.tsv")
    tests = []
    refs = (d / "refs.tsv").read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(refs, start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(
                f"refs.tsv line {lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        utt_id, words, idx, ref_pieces = fields
        words = tuple(words.split())
        if not words:
            raise ValueError(f"refs.tsv line {lineno}: no reference words")
        try:
            entities = tuple(int(i) for i in idx.split(",") if i)
        except ValueError:
            raise ValueError(
                f"refs.tsv line {lineno}: entity word indices must be integers, got {idx!r}"
            ) from None
        for i in entities:
            if not 0 <= i < len(words):
                raise ValueError(
                    f"refs.tsv line {lineno}: entity word index {i} outside [0, {len(words)})"
                )
        name = f"scores/{utt_id}.fnt"
        try:
            enc = load_scores(os.path.join(d, name), expect_vocab=len(vocab))
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
        tests.append(
            TestUtterance(utt_id, words, tuple(ref_pieces.split()), entities, enc)
        )
    if not tests:
        raise ValueError("refs.tsv: no test utterances")
    return Scenario(vocab, train, adapt, clm, classes, tests)
