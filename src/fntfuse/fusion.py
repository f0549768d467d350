"""Score-fusion operators for external-LM integration.

Four operators with deliberately distinct signatures: shallow fusion
mixes an external LM into the JOINT scores, while linear, log-linear,
and conditional-linear interpolation act on the PREDICTOR scores before
the join. Conditional-linear applies linear interpolation only to the
words returned by a rank-r continuation query and leaves the rest of
the predictor row untouched, so its output is deliberately left
unnormalized for the final softmax to absorb.

The class-model stage (``clm_predictor_interp``) maps the CAT1/2/3
transition arrays of a class-based LM onto an augmented predictor row:
gated linear interpolation for CAT1, full linear interpolation for
CAT2, and raw class-tree log-probabilities for CAT3, preserving
enumeration order and word repetitions across the three blocks. It and
``three_way`` are the decoder's own class-model fusion; they check
ScoreVector inputs and take the decoder's bare ``full_dist`` rows as
they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classlm import Transitions
from .core import ScoreVector
from .ngram import SparseLmQueryResult

DENSE_METHODS = ("sf", "li", "lli", "cli")
METHODS = ("none",) + DENSE_METHODS + ("clm",)


@dataclass(frozen=True)
class FusionConfig:
    """Declarative description of the fusion stage(s) for one decode.

    ``method`` selects the operator; "clm" requires a class model at
    decode time, everything else a dense external LM. A second stage
    (only "clm") turns linear interpolation into the consecutive
    three-way combination: li with the dense LM first, the class model
    second. ``uses_lm`` and ``uses_clm`` say which models a decode
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


def _require_aligned(z: ScoreVector, logp: ScoreVector):
    if len(logp) != len(z):
        raise ValueError(f"support mismatch: {len(logp)} vs {len(z)}")


def li_scores(z: np.ndarray, logp: np.ndarray, alpha: float) -> np.ndarray:
    # shared by linear_interp and the gated/CAT paths so that gated
    # entries are bit-identical to the full interpolation
    if alpha == 0.0:
        return z.copy()
    if alpha == 1.0:
        return logp.copy()
    return np.logaddexp(math.log(alpha) + logp, math.log1p(-alpha) + z)


def mix_scores(z: np.ndarray, logp: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return z.copy()
    if alpha == 1.0:
        return logp.copy()
    return alpha * logp + (1.0 - alpha) * z


def cli_scores(
    z: np.ndarray, word_ids: np.ndarray, logprobs: np.ndarray, alpha: float
) -> np.ndarray:
    """A copy of ``z`` with ``li_scores`` written at ``word_ids``: the
    conditional-linear row, for the decoder and the checked wrapper."""
    out = z.copy()
    if word_ids.size:
        out[word_ids] = li_scores(z[word_ids], logprobs, alpha)
    return out


def shallow_fuse(z: ScoreVector, logp: ScoreVector, alpha: float) -> ScoreVector:
    """Weighted log-score sum over JOINT scores: alpha*logp + (1-alpha)*z.

    ``logp`` must be a normalized external-LM distribution; the output
    is unnormalized and feeds the final softmax.
    """
    _require_aligned(z, logp)
    if not logp.normalized:
        raise ValueError("shallow fusion needs a normalized external LM")
    return ScoreVector(mix_scores(z.values, logp.values, alpha))


def linear_interp(z: ScoreVector, logp: ScoreVector, alpha: float) -> ScoreVector:
    """Probability-domain convex mix of predictor and external LM.

    out[w] = log(alpha*p[w] + (1-alpha)*exp(z[w])); both inputs must be
    normalized, and convexity keeps the output normalized.
    """
    _require_aligned(z, logp)
    if not (z.normalized and logp.normalized):
        raise ValueError("linear interpolation needs normalized inputs")
    return ScoreVector(li_scores(z.values, logp.values, alpha), normalized=True)


def loglinear_interp(z: ScoreVector, logp: ScoreVector, alpha: float) -> ScoreVector:
    """Weighted log-score sum over PREDICTOR scores; unnormalized output."""
    _require_aligned(z, logp)
    return ScoreVector(mix_scores(z.values, logp.values, alpha))


def conditional_linear_interp(
    z: ScoreVector, sparse: SparseLmQueryResult, alpha: float
) -> ScoreVector:
    """Linear interpolation restricted to the words of a rank-r query.

    Words outside ``sparse`` keep their predictor score unchanged, so
    the row no longer sums to one and is returned unnormalized.
    """
    if not z.normalized:
        raise ValueError("conditional linear interpolation needs a normalized z")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    ids = sparse.word_ids
    if ids.size and np.unique(ids).size != ids.size:
        raise ValueError("duplicate word ids in sparse LM query")
    if ids.size and (ids.min() < 0 or ids.max() >= len(z)):
        raise ValueError("sparse LM query ids outside the score vector")
    return ScoreVector(cli_scores(z.values, ids, sparse.logprobs, alpha))


def _normalized_row(z, what: str) -> np.ndarray:
    """Values of a dense normalized row. A ScoreVector is checked here;
    a bare array is a ``full_dist`` row, normalized under the
    ExternalLm contract, and is taken as it is."""
    if not isinstance(z, ScoreVector):
        return z
    if not z.normalized:
        raise ValueError(f"{what} needs a normalized input")
    return z.values


def clm_predictor_interp(
    z_u, transitions: Transitions, alpha: float, rank_r: int
) -> np.ndarray:
    """The augmented predictor row for class-model transitions.

    Returns scores aligned with ``transitions`` (S1‖S2‖S3): CAT1 words
    inside the rank gate get linear interpolation of z_u with the
    class-model probability, CAT1 words outside it keep z_u unchanged,
    CAT2 words always interpolate, and CAT3 scores are the class-tree
    transition log-probabilities taken as-is. ``z_u`` is a normalized
    ScoreVector or a predictor's ``full_dist`` row.
    """
    zv = _normalized_row(z_u, "class-model interpolation")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if rank_r < 1:
        raise ValueError(f"rank_r must be >= 1, got {rank_r}")
    lp = transitions.logprob
    scores = zv[transitions.word]
    for block in (transitions.cat1_gate(rank_r), transitions.cat2):
        scores[block] = li_scores(scores[block], lp[block], alpha)
    scores[transitions.cat3] = lp[transitions.cat3]
    return scores


def three_way(
    z_u, dense_lm, transitions: Transitions, alpha1: float, alpha2: float, rank_r: int
) -> np.ndarray:
    """Consecutive combination: dense-LM linear interpolation, then the
    class-model stage applied to the stage-one output. ``z_u`` and
    ``dense_lm`` are normalized ScoreVectors or ``full_dist`` rows."""
    zv = _normalized_row(z_u, "linear interpolation")
    lm = _normalized_row(dense_lm, "linear interpolation")
    if zv.size != lm.size:
        raise ValueError(f"support mismatch: {lm.size} vs {zv.size}")
    stage1 = li_scores(zv, lm, alpha1)
    return clm_predictor_interp(stage1, transitions, alpha2, rank_r)
