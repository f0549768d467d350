"""Small shared builders for randomized test fixtures."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from fntfuse import decoder
from fntfuse.classlm import train_tagged_clm
from fntfuse.core import Vocabulary

PIECES = ["▁call", "▁john", "▁smith", "▁doe", "▁on", "▁his", "▁mobile", "▁home", "▁dial"]


def toy_class_model(order=3):
    """A tiny two-class tagged model over the shared word-piece list."""
    vocab = Vocabulary(PIECES)
    corpus = [
        "▁call ⟨NAME⟩ ▁on ⟨TYPE⟩".split(),
        "▁call ⟨NAME⟩ ▁on ⟨TYPE⟩".split(),
        "▁call ⟨NAME⟩ ▁on ⟨TYPE⟩".split(),
        "▁dial ⟨NAME⟩".split(),
        "▁call ▁john".split(),
    ]
    entries = {
        "⟨NAME⟩": [
            (("▁john", "▁smith"), 1.0),
            (("▁john", "▁doe"), 1.0),
            (("▁john",), 1.0),
        ],
        "⟨TYPE⟩": [
            (("▁his", "▁mobile"), 1.0),
            (("▁his", "▁home"), 1.0),
            (("▁his",), 2.0),
        ],
    }
    return vocab, train_tagged_clm(corpus, entries, order, vocab)


def child_table(node) -> dict:
    """A prefix-tree node's children as {word: log-probability}, read
    from its arrays."""
    return dict(zip(node.child_words.tolist(), node.child_logprobs.tolist()))


def tree_nodes(root):
    """Every node of the prefix tree under ``root``, depth first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def random_corpus(rng, n_types=None, n_sentences=None, zipf=1.3):
    """A toy id-tokenized corpus plus its vocabulary.

    Token frequencies follow a rough Zipf shape so counts-of-counts
    exercise both estimated and fallback discounts.
    """
    if n_types is None:
        n_types = int(rng.integers(3, 13))
    if n_sentences is None:
        n_sentences = int(rng.integers(2, 21))
    vocab = Vocabulary([f"w{i}" for i in range(n_types)])
    weights = 1.0 / np.arange(1, n_types + 1) ** zipf
    weights /= weights.sum()
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(1, 9))
        sentences.append(list(rng.choice(n_types, size=length, p=weights)))
    return vocab, sentences


def random_history(rng, vocab_size, bos_id, max_len=4):
    """A random context, sometimes start-padded, sometimes gibberish."""
    length = int(rng.integers(0, max_len + 1))
    h = [int(t) for t in rng.integers(0, vocab_size, size=length)]
    if length and rng.random() < 0.3:
        h = [bos_id] + h[1:]
    return tuple(h)


class RowScorer:
    """A scorer whose predictor serves one fixed row ``z_u`` at every
    state and whose blank score is the raw blank logit."""

    def __init__(self, z_u):
        self.z_u = np.asarray(z_u, dtype=np.float64)
        self.predictor = self

    def full_dist(self, state):
        return self.z_u

    def blank_score(self, logit, k):
        return logit


def decoder_joint(z_t, z_u, blank):
    """(word posteriors, blank posterior) of one unfused expansion with
    encoder row ``z_t``, predictor row ``z_u`` and blank logit ``blank``,
    as ``decoder._FrameScorer.expand`` computes them in a decode."""
    fs = decoder._FrameScorer(RowScorer(z_u), decoder.DecoderConfig(), None, None)
    hyp = SimpleNamespace(pred_state=None, lm_state=None, clm_state=None, k=0)
    _, _, posts, blank_post = fs.expand(hyp, 0, np.asarray(z_t, dtype=np.float64), blank)
    return posts, blank_post
