"""Score-fusion operators for external-LM integration.

Every operator takes the bare log-domain arrays the decoder runs on: a
predictor or joint row ``z``, an external LM's dense ``full_dist`` row
``logp`` over the same vocabulary, and a weight ``alpha`` in [0, 1].
The inputs are checked where they enter, not per call: ``FusionConfig``
checks the weights and ``rank_r``, ``beam_search`` the vocabulary
sizes once per decode, and normalization is the ``ExternalLm`` and
predictor contract.

- ``mix_scores`` is the weighted log-score sum alpha*logp +
  (1-alpha)*z. Shallow fusion (sf) applies it to the JOINT scores,
  log-linear interpolation (lli) to the PREDICTOR row; either way the
  output is unnormalized and the joint softmax absorbs it.
- ``li_scores`` is linear interpolation (li), the probability-domain
  mix log(alpha*p + (1-alpha)*exp(z)) at the predictor. Convexity keeps
  two normalized rows normalized.
- ``cli_scores`` is conditional-linear interpolation (cli):
  ``li_scores`` on the words of a rank-r continuation query only, the
  rest of the predictor row untouched, so its output is left
  unnormalized for the final softmax to absorb.

The class-model stage (``clm_predictor_interp``) maps the CAT1/2/3
transition arrays of a class-based LM onto an augmented predictor row:
gated linear interpolation for CAT1, full linear interpolation for
CAT2, and raw class-tree log-probabilities for CAT3, preserving
enumeration order and word repetitions across the three blocks.
``three_way`` puts ``li_scores`` with the dense LM in front of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classlm import Transitions

DENSE_METHODS = ("sf", "li", "lli", "cli")
METHODS = ("none",) + DENSE_METHODS + ("clm",)


@dataclass(frozen=True)
class FusionConfig:
    """Declarative description of the fusion stage(s) for one decode.

    ``method`` selects the operator; "clm" requires a class model at
    decode time, everything else a dense external LM. A second stage
    (only "clm", weighted by ``second_alpha``, which is 0 without one)
    turns linear interpolation into the consecutive three-way
    combination: li with the dense LM first, the class model second.
    ``uses_lm`` and ``uses_clm`` say which models a decode
    reads; every other module asks them.
    """

    method: str = "none"
    alpha: float = 0.0
    rank_r: int = 200
    second_method: str | None = None
    second_alpha: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown fusion method: {self.method!r}")
        for name, a in (("alpha", self.alpha), ("second_alpha", self.second_alpha)):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {a}")
        if self.second_method is not None:
            if self.second_method != "clm":
                raise ValueError("only a class model can be the second stage")
            if self.method != "li":
                raise ValueError(
                    f"three-way fusion takes li as its first stage, got {self.method!r}"
                )
        elif self.second_alpha:
            raise ValueError(f"second_alpha {self.second_alpha} needs a second stage")
        needs_rank = self.method == "cli" or self.uses_clm
        if needs_rank and self.rank_r < 1:
            raise ValueError(f"rank_r must be >= 1, got {self.rank_r}")

    @property
    def uses_lm(self) -> bool:
        """Whether a decode reads the dense external LM."""
        return self.method in DENSE_METHODS or self.second_method == "clm"

    @property
    def uses_clm(self) -> bool:
        """Whether a decode reads the class model."""
        return self.method == "clm" or self.second_method == "clm"


def li_scores(z: np.ndarray, logp: np.ndarray, alpha: float) -> np.ndarray:
    """Linear interpolation: log(alpha*exp(logp) + (1-alpha)*exp(z)),
    a fresh array. cli and the class-model blocks call it too, so their
    interpolated entries are bit-identical to the full li row."""
    if alpha == 0.0:
        return z.copy()
    if alpha == 1.0:
        return logp.copy()
    return np.logaddexp(math.log(alpha) + logp, math.log1p(-alpha) + z)


def mix_scores(z: np.ndarray, logp: np.ndarray, alpha: float) -> np.ndarray:
    """Weighted log-score sum alpha*logp + (1-alpha)*z, a fresh array:
    sf on the joint row, lli on the predictor row. At alpha 0 or 1 it
    copies one input, so a -inf in the other never meets 0 * -inf."""
    if alpha == 0.0:
        return z.copy()
    if alpha == 1.0:
        return logp.copy()
    return alpha * logp + (1.0 - alpha) * z


def cli_scores(
    z: np.ndarray, word_ids: np.ndarray, logprobs: np.ndarray, alpha: float
) -> np.ndarray:
    """A copy of ``z`` with ``li_scores`` written at ``word_ids`` (a
    rank-r query's distinct ids, with their ``logprobs``): the
    conditional-linear row."""
    out = z.copy()
    if word_ids.size:
        out[word_ids] = li_scores(z[word_ids], logprobs, alpha)
    return out


def clm_predictor_interp(
    z_u, transitions: Transitions, alpha: float, rank_r: int
) -> np.ndarray:
    """The augmented predictor row for class-model transitions.

    Returns scores aligned with ``transitions`` (S1‖S2‖S3): CAT1 words
    inside the rank gate get linear interpolation of z_u with the
    class-model probability, CAT1 words outside it keep z_u unchanged,
    CAT2 words always interpolate, and CAT3 scores are the class-tree
    transition log-probabilities taken as-is. ``z_u`` is a predictor's
    ``full_dist`` row.
    """
    lp = transitions.logprob
    scores = z_u[transitions.word]
    for block in (transitions.cat1_gate(rank_r), transitions.cat2):
        scores[block] = li_scores(scores[block], lp[block], alpha)
    scores[transitions.cat3] = lp[transitions.cat3]
    return scores


def three_way(
    z_u, dense_lm, transitions: Transitions, alpha1: float, alpha2: float, rank_r: int
) -> np.ndarray:
    """Consecutive combination: dense-LM linear interpolation, then the
    class-model stage applied to the stage-one output. ``z_u`` and
    ``dense_lm`` are the predictor's and the LM's ``full_dist`` rows."""
    return clm_predictor_interp(li_scores(z_u, dense_lm, alpha1), transitions, alpha2, rank_r)
