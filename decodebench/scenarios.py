"""Seeded synthetic scenarios whose vocabulary size is a parameter.

``fntfuse.ScenarioSpec`` derives its vocabulary from the templates and
class inventories it is given, so this module invents them: pseudo-words
built from syllables, split into carrier words (used by the sentence
templates) and entity words (grouped into class inventories). Words
longer than six letters become two word-pieces, as in
``fntfuse.simulate.word_pieces``, so the size counted is in pieces.

The encoder scale rises with log V: at a fixed scale the reference
channel drowns in the noise of a larger vocabulary (scale 6 gives
baseline WER 1.0 at V=1117). Substitution noise, blank frames and
partial class coverage keep every decoded method away from WER 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fntfuse import simulate
from fntfuse.simulate import ScenarioSpec, word_pieces

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
SYLLABLES = tuple(c + v for c in _ONSETS for v in _VOWELS) + tuple(
    c + v + "n" for c in "klmst" for v in _VOWELS
)
N_FUNCTION_WORDS = 12  # frequent carrier words shared across templates

# the same on every workload
TAGS = ("⟨NAME⟩", "⟨PLACE⟩", "⟨APP⟩")
WORDS_PER_TEMPLATE = (2, 4)
TAU = 1.2
SUB_RATE = 0.8
BLANK_FRAMES = 1
BLANK_OFFSET = 5.0


@dataclass(frozen=True)
class Shape:
    """Size of one scenario and its class coverage; the seed comes separately."""

    target_v: int
    entity_share: float
    slot_rate: float
    n_train: int
    n_adapt: int
    n_test: int
    coverage: float
    min_templates: int = 0


def encoder_scale(n_vocab: int) -> float:
    """Reference-channel logit: 6 at V=100, +2 per e-fold of V."""
    return 6.0 + 2.0 * math.log(n_vocab / 100.0)


def _lexicon(rng, shape: Shape):
    """(carrier words, entity words) whose pieces number ~target_v."""
    pieces: set = set()
    seen: set = set()
    carrier, entity = [], []
    while len(pieces) < shape.target_v:
        n_syl = int(rng.integers(1, 4))
        word = "".join(SYLLABLES[i] for i in rng.integers(len(SYLLABLES), size=n_syl))
        if word in seen:
            continue
        seen.add(word)
        pieces.update(word_pieces(word))
        (entity if rng.random() < shape.entity_share else carrier).append(word)
    if len(carrier) <= N_FUNCTION_WORDS or len(entity) < 2 * len(TAGS):
        raise ValueError(f"target_v={shape.target_v} too small for this shape")
    return carrier, entity


def _classes(rng, shape: Shape, entity_words):
    """Entity words grouped into one- or two-word phrases per tag."""
    classes = {tag: [] for tag in TAGS}
    words = list(entity_words)
    i = n_phrases = 0
    while i < len(words):
        tag = TAGS[n_phrases % len(TAGS)]
        take = 2 if rng.random() < 0.5 and i + 1 < len(words) else 1
        phrase = " ".join(words[i : i + take])
        classes[tag].append((phrase, float(rng.choice((1.0, 2.0)))))
        i += take
        n_phrases += 1
    return {tag: tuple(entries) for tag, entries in classes.items() if entries}


def _templates(rng, shape: Shape, carrier_words, tags):
    """Carrier sentences using every carrier word at least once.

    Past one pass over the shuffled lexicon, further templates (up to
    ``min_templates``) draw their words at random, which loosens the
    grammar the n-gram models learn.
    """
    function_words = carrier_words[:N_FUNCTION_WORDS]
    content = list(carrier_words[N_FUNCTION_WORDS:])
    rng.shuffle(content)
    lo, hi = WORDS_PER_TEMPLATE
    templates = []
    i = 0
    while i < len(content) or len(templates) < shape.min_templates:
        k = int(rng.integers(lo, hi + 1))
        if i < len(content):
            words = content[i : i + k]
        else:
            words = [content[j] for j in rng.integers(len(content), size=k)]
        i += k
        if rng.random() < 0.5:
            at = int(rng.integers(len(words) + 1))
            words.insert(at, function_words[int(rng.integers(len(function_words)))])
        if rng.random() < shape.slot_rate:
            at = int(rng.integers(len(words) + 1))
            words.insert(at, tags[int(rng.integers(len(tags)))])
        templates.append(" ".join(words))
    # function words not drawn above still need a home in some template
    for w in function_words:
        if not any(w in t.split() for t in templates):
            templates[int(rng.integers(len(templates)))] += " " + w
    return tuple(templates)


def build_scenario(shape: Shape, seed: int):
    """Synthesize a scenario of ~``shape.target_v`` pieces from ``seed``.

    The lexicon, templates and class inventories depend on the shape
    alone, so every seed decodes the same language (same V, same
    grammar); the seed draws the texts, the entity split, the test
    sentences and the encoder noise. Returns (scenario, spec); the spec
    records the derived encoder scale.
    """
    if not shape.coverage < 1.0:
        # with SUB_RATE > 0 and BLANK_FRAMES >= 1, this keeps every method
        # off WER 0: some test entities are in no class inventory
        raise ValueError("a benchmark scenario needs coverage < 1")
    rng = np.random.default_rng(shape.target_v)  # the language's own seed
    carrier, entity = _lexicon(rng, shape)
    classes = _classes(rng, shape, entity)
    templates = _templates(rng, shape, carrier, tuple(sorted(classes)))
    n_vocab = len({p for w in carrier + entity for p in word_pieces(w)})
    spec = ScenarioSpec(
        templates=templates,
        classes=classes,
        n_train=shape.n_train,
        n_adapt=shape.n_adapt,
        n_test=shape.n_test,
        tau=TAU,
        sub_rate=SUB_RATE,
        scale=encoder_scale(n_vocab),
        blank_offset=BLANK_OFFSET,
        blank_frames=BLANK_FRAMES,
        coverage=shape.coverage,
        seed=seed,
    )
    return simulate.synthesize_scenario(spec), spec
