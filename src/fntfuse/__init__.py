"""Transducer decoding with external language models fused into the
predictor stream.

The package splits into small, separately testable layers:

- ``core``: vocabulary, log-space helpers, the top-r cut, and the
  ExternalLm interface.
- ``ngram``: Kneser-Ney training and a sorted-array backoff trie with
  rank-r continuation queries and dense rows.
- ``arpa``: text serialization of n-gram models.
- ``classlm``: class-tagged n-gram models, per-class prefix trees, and
  the tagged-state transition system.
- ``fusion``: the array operators the decoder runs: ``mix_scores``
  (shallow fusion and log-linear), ``li_scores``, ``cli_scores``,
  class-model and consecutive three-way interpolation.
- ``decoder``: frame-synchronous beam search over encoder score files,
  with per-frame emission caps, hypothesis merging, and exit rules.
- ``simulate``: a deterministic transducer simulator and scenario
  generator that stands in for a trained acoustic stack.
- ``evalmetrics``: word error rates, adaptation reports, weight sweeps,
  and latency benchmarks.
"""

from .arpa import ArpaParseError, load_arpa, save_arpa
from .classlm import (
    ClassModel,
    ClmState,
    Transitions,
    build_prefix_tree,
    enumerate_transitions,
    load_class_model,
    parse_class_file,
    save_class_model,
    train_tagged_clm,
    write_class_file,
)
from .core import NEG_INF, ExternalLm, Vocabulary, log_softmax, log_sum_exp
from .decoder import (
    DecodedHypothesis,
    DecoderConfig,
    DecodeStats,
    beam_search,
    blank_fallback,
)
from .evalmetrics import (
    ALPHA_GRID,
    EditCounts,
    EvalReport,
    SweepReport,
    align,
    bench_topr,
    build_bench_model,
    detokenize,
    evaluate,
    sweep,
    wer_counts,
)
from .fusion import (
    FusionConfig,
    cli_scores,
    clm_predictor_interp,
    li_scores,
    mix_scores,
    three_way,
)
from .ngram import (
    NgramModel,
    SparseLmQueryResult,
    train_kneser_ney,
)
from .simulate import (
    EncoderOutput,
    FntScorer,
    NgramPredictor,
    Scenario,
    ScenarioSpec,
    load_scores,
    read_scenario,
    save_scores,
    synthesize_scenario,
    word_pieces,
    write_scenario,
)

__version__ = "0.1.0"
