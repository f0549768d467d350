"""Word-level scoring, report aggregation, weight sweeps, and rank-query
benchmarks.

Scoring happens at word level: hypothesis word-pieces are glued back
into words at the "▁" boundary before alignment. The edit-distance DP
minimizes (total cost, -substitutions) lexicographically, so among all
minimum-cost alignments the one with the most substitutions is counted;
an off-by-one-word disagreement is therefore always a substitution, not
an insertion-plus-deletion pair. Sweeps follow the fixed weight grid,
with the top weights omitted for shallow fusion, and report both the
per-split best weight and the best single weight under utterance-count
aggregation.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Vocabulary
from .decoder import DecodeStats, DecoderConfig, beam_search
from .fusion import DENSE_METHODS, FusionConfig
from .ngram import NgramModel, train_kneser_ney

ALPHA_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 0.9)
SF_ALPHA_MAX = 0.25  # shallow fusion diverges above this; sweep omits it


class EditCounts(NamedTuple):
    subs: int
    ins: int
    dels: int
    n_ref: int

    @property
    def wer(self) -> float:
        return (self.subs + self.ins + self.dels) / self.n_ref


def detokenize(pieces) -> list:
    """Glue word-pieces into words at "▁" boundaries.

    A piece starting with the boundary marker opens a new word; any
    other piece extends the current one (or opens a word when there is
    nothing to extend).
    """
    words: list = []
    for piece in pieces:
        if piece.startswith("▁"):
            words.append(piece[1:])
        elif words:
            words[-1] = words[-1] + piece
        else:
            words.append(piece)
    return words


def align(ref, hyp) -> list:
    """Minimum-edit alignment as (op, ref_index, hyp_index) steps.

    op is "match", "sub", "del" (ref word dropped, hyp_index None), or
    "ins" (hyp word added, ref_index None). Ties prefer substitutions
    over ins+del pairs, then deletions, deterministically.
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    # cell = (cost, -subs); tuple sums keep lexicographic order additive
    table = [[(0, 0)] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        table[i][0] = (i, 0)
    for j in range(1, m + 1):
        table[0][j] = (j, 0)
    for i in range(1, n + 1):
        row = table[i]
        above = table[i - 1]
        r = ref[i - 1]
        for j in range(1, m + 1):
            if r == hyp[j - 1]:
                diag = above[j - 1]
            else:
                c, s = above[j - 1]
                diag = (c + 1, s - 1)
            dele = (above[j][0] + 1, above[j][1])
            ins = (row[j - 1][0] + 1, row[j - 1][1])
            row[j] = min(diag, dele, ins)

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        cell = table[i][j]
        if i > 0 and j > 0:
            if ref[i - 1] == hyp[j - 1] and table[i - 1][j - 1] == cell:
                ops.append(("match", i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
            c, s = table[i - 1][j - 1]
            if (c + 1, s - 1) == cell:
                ops.append(("sub", i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if i > 0 and (table[i - 1][j][0] + 1, table[i - 1][j][1]) == cell:
            ops.append(("del", i - 1, None))
            i -= 1
            continue
        ops.append(("ins", None, j - 1))
        j -= 1
    ops.reverse()
    return ops


def _edit_counts(ops, n_ref: int) -> EditCounts:
    """The sub/ins/del counts of an ``align`` result."""
    subs = ins = dels = 0
    for op, _, _ in ops:
        if op == "sub":
            subs += 1
        elif op == "ins":
            ins += 1
        elif op == "del":
            dels += 1
    return EditCounts(subs, ins, dels, n_ref)


def wer_counts(ref, hyp) -> EditCounts:
    """Per-pair edit counts; the reference must be non-empty."""
    ref = list(ref)
    if not ref:
        raise ValueError("empty reference: word error rate is undefined")
    return _edit_counts(align(ref, hyp), len(ref))


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level scoring of one decoding configuration."""

    name: str
    per_utt: tuple  # (utt_id, subs, ins, dels, n_ref) rows in input order
    entity_tokens: int
    entity_errors: int
    stats: DecodeStats  # the sum of the utterances' DecodeStats
    warning_kinds: tuple = ()  # sorted (DecodeStats.warning text, utterances) pairs

    @property
    def n_utts(self) -> int:
        return len(self.per_utt)

    @property
    def n_warnings(self) -> int:
        """Utterances whose decode set ``DecodeStats.warning``."""
        return sum(n for _, n in self.warning_kinds)

    @property
    def edits(self) -> EditCounts:
        """The ``per_utt`` rows' edit counts, pooled."""
        return EditCounts(*(sum(row[k] for row in self.per_utt) for k in range(1, 5)))

    @property
    def wer(self) -> float:
        return self.edits.wer

    @property
    def entity_error_rate(self) -> float:
        if self.entity_tokens == 0:
            return 0.0
        return self.entity_errors / self.entity_tokens

    @property
    def mean_decode_time(self) -> float:
        return self.stats.wall_time / max(self.n_utts, 1)

    @property
    def expansions_per_frame(self) -> float:
        return self.stats.expansions_per_frame

    def werr_vs(self, baseline: "EvalReport") -> float:
        """Relative error-rate reduction against ``baseline``."""
        if baseline.wer == 0.0:
            raise ValueError("baseline has zero error rate, WERR undefined")
        return (baseline.wer - self.wer) / baseline.wer

    def line(self) -> str:
        edits = self.edits
        return (
            f"EVAL name={self.name} utts={self.n_utts} words={edits.n_ref}"
            f" sub={edits.subs} ins={edits.ins} del={edits.dels}"
            f" wer={edits.wer:.6f} entity_rate={self.entity_error_rate:.6f}"
            f" time_ms={1000.0 * self.mean_decode_time:.3f}"
            f" width={self.stats.mean_width:.3f}"
            f" expf={self.expansions_per_frame:.3f}"
            f" warnings={self.n_warnings}"
        )


def evaluate(
    name: str,
    tests,
    vocab: Vocabulary,
    scorer,
    config: DecoderConfig,
    external_lm=None,
    class_model=None,
) -> EvalReport:
    """Decode and score every test utterance under one configuration.

    Utterances are decoded one after another and reported in input
    order; the decoded top hypothesis is detokenized to words before
    alignment. Entity errors count reference entity words whose
    alignment op is anything but a match.
    """
    rows = []
    entity_tokens = entity_errors = 0
    total = DecodeStats()
    warnings = Counter()
    for utt in tests:
        results, stats = beam_search(
            utt.encoder, scorer, config, external_lm, class_model
        )
        hyp_words = detokenize(vocab.tokens_of(results[0].tokens))
        ops = align(utt.ref_words, hyp_words)
        rows.append((utt.utt_id, *_edit_counts(ops, len(utt.ref_words))))
        entity = set(utt.entity_word_indices)
        entity_tokens += len(entity)
        entity_errors += sum(1 for op, ri, _ in ops if ri in entity and op != "match")
        total += stats
        if stats.warning is not None:
            warnings[stats.warning] += 1
    return EvalReport(
        name, tuple(rows), entity_tokens, entity_errors, total,
        tuple(sorted(warnings.items())),
    )


def _pooled_wer(reports) -> float:
    """WER of the reports' utterances together."""
    edits = [r.edits for r in reports]
    return sum(e.subs + e.ins + e.dels for e in edits) / sum(e.n_ref for e in edits)


@dataclass(frozen=True)
class SweepCell:
    method: str
    alpha: float
    split: str
    report: EvalReport
    werr: float


@dataclass(frozen=True)
class SweepReport:
    """Grid-sweep outcome: baselines per split plus one cell per
    (method, weight, split) evaluation."""

    baselines: dict
    cells: tuple

    def _method_cells(self, method: str):
        got = [c for c in self.cells if c.method == method]
        if not got:
            raise ValueError(f"no sweep cells for method {method!r}")
        return got

    def alpha_star(self, method: str, split: str):
        """(weight, WERR) of the per-split best weight."""
        cells = [c for c in self._method_cells(method) if c.split == split]
        if not cells:
            raise ValueError(f"no sweep cells for split {split!r}")
        best = max(cells, key=lambda c: (c.werr, -c.alpha))
        return best.alpha, best.werr

    def alpha_fixed(self, method: str):
        """(weight, WERR) of the best single weight, aggregating splits
        by utterance-count weighting (pooled edit counts)."""
        cells = self._method_cells(method)
        base_wer = _pooled_wer(self.baselines.values())
        best = None
        for alpha in sorted({c.alpha for c in cells}):
            wer = _pooled_wer(c.report for c in cells if c.alpha == alpha)
            werr = (base_wer - wer) / base_wer
            if best is None or werr > best[1] + 1e-15:
                best = (alpha, werr)
        return best

    def methods(self) -> tuple:
        seen: list = []
        for c in self.cells:
            if c.method not in seen:
                seen.append(c.method)
        return tuple(seen)

    def lines(self) -> list:
        out = [b.line() for _, b in sorted(self.baselines.items())]
        for c in self.cells:
            out.append(
                f"SWEEP method={c.method} alpha={c.alpha:g} split={c.split}"
                f" wer={c.report.wer:.6f} werr={c.werr:.6f}"
            )
        for method in self.methods():
            for split in sorted(self.baselines):
                a, w = self.alpha_star(method, split)
                out.append(
                    f"SWEEP-STAR method={method} split={split}"
                    f" alpha={a:g} werr={w:.6f}"
                )
            a0, w0 = self.alpha_fixed(method)
            out.append(f"SWEEP-FIXED method={method} alpha={a0:g} werr={w0:.6f}")
        return out

    def table(self) -> str:
        """Human-readable grid: methods down, weights across."""
        alphas = sorted({c.alpha for c in self.cells})
        head = "method/alpha" + "".join(f"{a:>9g}" for a in alphas)
        rows = [head]
        for method in self.methods():
            cells = {
                (c.alpha, c.split): c.werr
                for c in self.cells
                if c.method == method
            }
            for split in sorted(self.baselines):
                vals = []
                for a in alphas:
                    w = cells.get((a, split))
                    vals.append("        -" if w is None else f"{w:>9.4f}")
                rows.append(f"{method}/{split:<7s}" + "".join(vals))
        return "\n".join(rows)


def check_sweep_grid(methods=DENSE_METHODS, grid=ALPHA_GRID) -> None:
    """Raise ValueError unless every method is a dense one and every
    weight is in [0, 1]."""
    for method in methods:
        if method not in DENSE_METHODS:
            raise ValueError(
                f"sweep method must be one of {','.join(DENSE_METHODS)}, got {method!r}"
            )
    for alpha in grid:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"sweep weight must be in [0, 1], got {alpha}")


def sweep(
    splits: dict,
    vocab: Vocabulary,
    scorer,
    *,
    external_lm,
    methods=DENSE_METHODS,
    grid=ALPHA_GRID,
    beam: int = DecoderConfig.beam,
    rank_r: int = FusionConfig.rank_r,
    max_emit: int = DecoderConfig.max_emit,
) -> SweepReport:
    """Decode every (method, weight, split) combination on the grid.

    ``splits`` maps split names to test-utterance lists. Shallow fusion
    sweeps only the grid points up to ``SF_ALPHA_MAX``. Deterministic:
    fixed inputs give bit-identical reports. ``check_sweep_grid`` runs
    before the first decode.
    """
    check_sweep_grid(methods, grid)
    sf_grid = tuple(a for a in grid if a <= SF_ALPHA_MAX)

    def run(split, tests, method, alpha):
        fusion = (
            FusionConfig()
            if method == "none"
            else FusionConfig(method, alpha, rank_r=rank_r)
        )
        config = DecoderConfig(beam=beam, fusion=fusion, max_emit=max_emit)
        label = f"{method}@{alpha:g}/{split}" if method != "none" else f"base/{split}"
        return evaluate(label, tests, vocab, scorer, config, external_lm=external_lm)

    baselines = {
        split: run(split, tests, "none", 0.0) for split, tests in splits.items()
    }
    cells = []
    for method in methods:
        for alpha in (sf_grid if method == "sf" else grid):
            for split, tests in splits.items():
                rep = run(split, tests, method, alpha)
                cells.append(
                    SweepCell(
                        method, alpha, split, rep, rep.werr_vs(baselines[split])
                    )
                )
    return SweepReport(baselines, tuple(cells))


@dataclass(frozen=True)
class BenchPoint:
    label: str
    n_ngrams: int
    r: int
    n_queries: int
    mean_latency: float  # seconds per query

    def line(self) -> str:
        return (
            f"BENCH label={self.label} ngrams={self.n_ngrams} r={self.r}"
            f" queries={self.n_queries} us_per_query={1e6 * self.mean_latency:.2f}"
        )


def ngram_count(model: NgramModel) -> int:
    return sum(model.level_size(k) for k in range(1, model.order + 1))


def bench_corpus(n_target: int, seed: int = 0) -> tuple[Vocabulary, list]:
    """A vocabulary and Zipf-shaped random id sentences, with a token
    budget sized so that an order-3 model holds roughly ``n_target``
    distinct n-grams."""
    if n_target < 100:
        raise ValueError(f"target too small to shape: {n_target}")
    rng = np.random.default_rng(seed)
    n_types = max(50, min(8000, n_target // 40))
    weights = 1.0 / np.arange(1, n_types + 1) ** 1.05
    weights /= weights.sum()
    # the inverse-cdf draw of ``rng.choice(n_types, size=length, p=weights)``,
    # with the cdf built once instead of once per sentence
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    budget = max(n_target // 2, 60)
    sentences = []
    drawn = 0
    while drawn < budget:
        length = int(rng.integers(8, 17))
        sentences.append(cdf.searchsorted(rng.random(length), side="right").tolist())
        drawn += length
    return Vocabulary([f"w{i}" for i in range(n_types)]), sentences


def build_bench_model(n_target: int, order: int = 3, seed: int = 0) -> NgramModel:
    """A model of ``bench_corpus(n_target, seed)``: ~``n_target`` n-grams."""
    vocab, sentences = bench_corpus(n_target, seed)
    return train_kneser_ney(sentences, order, vocab=vocab, eos=False)


def bench_topr(models: dict, r: int = FusionConfig.rank_r, n_queries: int = 2000, seed: int = 0):
    """Per-query rank-query latency for each labeled model.

    Histories are Zipf-shaped random contexts of length order-1, drawn
    per model with a fixed seed; queries go to the raw trie (no cache)
    so the numbers reflect lookup work.
    """
    points = []
    for label, model in models.items():
        rng = np.random.default_rng(seed)
        n_words = len(model.vocab)
        hists = [
            tuple(
                int(min(x - 1, n_words - 1))
                for x in rng.zipf(1.3, size=model.order - 1)
            )
            for _ in range(n_queries)
        ]
        t0 = time.perf_counter()
        for h in hists:
            model.top_r(h, r)
        dt = time.perf_counter() - t0
        points.append(BenchPoint(label, ngram_count(model), r, n_queries, dt / n_queries))
    return points
