"""The decode workloads: inputs, set-up, warm-up, timed passes and checks.

Every workload is a closed loop in one thread: each decode starts when
the previous one ends. A workload decodes a fixed list of jobs per
pass: on dense-1k and entity-clm, (utterance, config) pairs; on
sweep-disk, one sweep. A run makes at least ``MIN_PASSES`` passes, and
more while ``seconds`` last; each pass starts from a fresh set-up and
warm-up, so every pass does the same work against caches in the same
state. Every decode of a later pass must give the answer it gave in
the first pass. The WER, the pooled edit counts and the output digests
come from the first pass, so they are a function of the seed alone,
and the peak RSS is read when it completes.

Each decode and set-up is timed, and its time rescaled to reference
seconds by a ``RefClock`` (see ``refclock.py``), whose calibration
kernel runs before each of them; a decode's time is its median over
the passes. Timed set-ups are spread between the decodes, and they and
the kernel runs are left out of the passes' times.

Entry points are looked up on their modules at call time
(``ngram.train_kneser_ney``, ``simulate.read_scenario``, ...), so that a
tracer can wrap them from outside.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fntfuse import arpa, classlm, decoder, evalmetrics, ngram, simulate
from fntfuse.decoder import DecoderConfig
from fntfuse.fusion import FusionConfig
from fntfuse.simulate import FntScorer, NgramPredictor

from refclock import WINDOW, RefClock
from scenarios import Shape, build_scenario

BEAM = 4
RANK_R = 200
ORDER = 3
FLOOR = 0.05  # predictor floor and blank bonus: the fntfuse CLI defaults
GAMMA = 6.0
WARMUP_UTTS = 2
MIN_PASSES = 3  # timed passes of a run, however short ``seconds`` is
MIN_SETUPS = 3  # timed set-ups before the first pass


def config_label(config: DecoderConfig) -> str:
    fu = config.fusion
    label = fu.method if fu.method == "none" else f"{fu.method}@{fu.alpha:g}"
    if fu.second_method is not None:
        label += f"+{fu.second_method}@{fu.second_alpha:g}"
    if config.exit_rule != "standard":
        label += f"/{config.exit_rule}"
    if config.rank_rprime is not None:
        label += f"/r'={config.rank_rprime}"
    return label


def method_of(config: DecoderConfig) -> str:
    return "three_way" if config.fusion.second_method else config.fusion.method


@dataclass
class Models:
    vocab: object
    scorer: FntScorer
    external: NgramPredictor
    clm: object = None


@dataclass(frozen=True)
class Decode:
    label: str
    method: str
    frames: int
    seconds: float  # reference seconds
    wall_s: float  # as measured
    tokens: tuple
    logscore: float
    expansions: int
    ok: bool


@dataclass
class RunResult:
    """The passes of one run: decodes, their times and check outcomes."""

    pass_decodes: int  # decodes per pass
    passes: int = 0
    decodes: list = field(default_factory=list)  # the first pass's
    times: list = field(default_factory=list)  # per decode, its time in each pass
    overheads: list = field(default_factory=list)  # per pass, time outside its decodes
    walls: list = field(default_factory=list)  # per pass, its time as measured
    edits: list = field(default_factory=list)  # EditCounts of the first pass
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    sweep_cells: int = 0
    rss_mb: float = 0.0  # peak RSS when the first pass completed

    @property
    def decode_s(self) -> list:
        """Per decode, its median time over the passes."""
        return [statistics.median(ts) for ts in self.times]

    @property
    def wall(self) -> float:
        """Reference seconds of one pass: median decodes plus median overhead."""
        return sum(self.decode_s) + statistics.median(self.overheads)

    def fail(self, kind: str, problem: str):
        self.failed[kind] += 1
        self.problems.append(problem)

    def add_pass(self, decodes: list, overhead: float, wall: float):
        """Fold in one pass; a later pass must repeat the first one's answers."""
        if len(decodes) != self.pass_decodes:
            self.problems.append(f"pass {self.passes} made {len(decodes)} of {self.pass_decodes} decodes")
        if self.passes == 0:
            self.decodes = decodes
            self.times = [[d.seconds] for d in decodes]
        else:
            for k, (first, d) in enumerate(zip(self.decodes, decodes)):
                self.attempted["repeats"] += 1
                if (d.tokens, d.logscore) != (first.tokens, first.logscore):
                    self.fail("repeats", f"pass {self.passes} decode {k} ({d.label}): differs from pass 0")
                self.times[k].append(d.seconds)
        self.overheads.append(overhead)
        self.walls.append(wall)
        self.passes += 1


class Recorder:
    """Times each decode of one pass and checks its n-best.

    ``beam_search`` has the signature of ``fntfuse.decoder.beam_search``,
    so it can stand in for it where ``evalmetrics`` looks it up. The
    pass's decodes collect in ``decodes``. Before each decode, the
    set-up sampler may take its turn and the reference clock ticks,
    both outside the sampler's clock.
    """

    def __init__(self, n_vocab: int, result: RunResult, sampler):
        self.n_vocab = n_vocab
        self.result = result
        self.sampler = sampler
        self.decodes: list = []

    def beam_search(self, encoder, scorer, config, external_lm=None, class_model=None):
        sampler = self.sampler
        sampler.maybe()
        sampler.paused += sampler.ref.tick()
        t0 = time.perf_counter()
        nbest, stats = decoder.beam_search(encoder, scorer, config, external_lm, class_model)
        seconds = time.perf_counter() - t0
        top = nbest[0] if nbest else None
        tokens = tuple(int(t) for t in top.tokens) if top else ()
        ok = top is not None and math.isfinite(top.logscore) and all(
            0 <= t < self.n_vocab for t in tokens
        )
        result = self.result
        result.attempted["decodes"] += 1
        if not ok:
            result.fail("decodes", f"decode {len(self.decodes)}: bad n-best {nbest!r:.200}")
        self.decodes.append(
            Decode(
                config_label(config),
                method_of(config),
                stats.n_frames,
                sampler.ref.scale(seconds),
                seconds,
                tokens,
                top.logscore if top else math.nan,
                stats.n_expansions,
                ok,
            )
        )
        return nbest, stats


ARPA_ATOL = 1e-9  # log10 text loses the last bits; tests/test_arpa.py allows the same


def _same_ngrams(got, want) -> bool:
    got, want = list(got), list(want)
    if [g for g, _, _ in got] != [g for g, _, _ in want]:
        return False
    def values(grams):
        return np.array([[p, math.nan if bow is None else bow] for _, p, bow in grams])

    return bool(np.allclose(values(got), values(want), rtol=0.0, atol=ARPA_ATOL, equal_nan=True))


def _ids(texts, vocab):
    return [vocab.ids_of(t.split()) for t in texts if t.split()]


class DirectWorkload:
    """Decodes (utterance, config) jobs through ``beam_search`` directly,
    the way ``fntfuse eval`` decodes one configuration after another.
    A pass decodes the first ``pass_utts`` test utterances, the configs
    interleaved per utterance; the utterances decoded in the warm-up are
    not among them."""

    def __init__(self, name, shape: Shape, configs, pass_utts: int):
        self.name = name
        self.shape = shape
        self.configs = configs
        self.pass_utts = pass_utts
        self.pass_decodes = pass_utts * len(configs)

    def make_inputs(self, seed, workdir):
        scn, spec = build_scenario(self.shape, seed)
        return {"scn": scn, "spec": spec}

    def setup(self, inputs):
        scn = inputs["scn"]
        vocab = scn.vocab
        pred = ngram.train_kneser_ney(_ids(scn.train_texts, vocab), ORDER, vocab=vocab, eos=False)
        ext = ngram.train_kneser_ney(_ids(scn.adapt_texts, vocab), ORDER, vocab=vocab, eos=False)
        clm = classlm.train_tagged_clm(scn.clm_texts, scn.class_entries, ORDER, vocab)
        models = Models(vocab, FntScorer(NgramPredictor(pred, floor=FLOOR), gamma=GAMMA), NgramPredictor(ext), clm)
        return models, scn

    def check_setup(self, inputs, models, scn, result):
        pass

    def warm_up(self, models, scn):
        for utt in scn.tests[-WARMUP_UTTS:]:
            for config in self.configs:
                decoder.beam_search(utt.encoder, models.scorer, config, models.external, models.clm)

    def timed_pass(self, models, scn, result, sampler):
        """Decode and score one pass; returns (decodes, seconds on the sampler's clock)."""
        rec = Recorder(len(models.vocab), result, sampler)
        t0 = sampler.clock()
        for utt in scn.tests[: self.pass_utts]:
            for config in self.configs:
                rec.beam_search(utt.encoder, models.scorer, config, models.external, models.clm)
                d = rec.decodes[-1]
                hyp = evalmetrics.detokenize(models.vocab.tokens_of(d.tokens)) if d.ok else []
                counts = evalmetrics.wer_counts(utt.ref_words, hyp)
                if result.passes == 0:
                    result.edits.append(counts)
        return rec.decodes, sampler.clock() - t0


class SweepWorkload:
    """Reads a scenario directory plus ARPA predictor/LM files the way
    ``fntfuse sweep --predictor --lm --utts N`` does, then repeats the
    sf/li/lli/cli x ALPHA_GRID sweep over the first N utterances."""

    def __init__(self, name, shape: Shape, dev_utts: int):
        self.name = name
        self.shape = shape
        self.dev_utts = dev_utts
        self.methods = ("sf", "li", "lli", "cli")
        per_utt = 1 + sum(
            len([a for a in evalmetrics.ALPHA_GRID if m != "sf" or a <= evalmetrics.SF_ALPHA_MAX])
            for m in self.methods
        )
        self.pass_decodes = dev_utts * per_utt
        self.configs = [DecoderConfig(beam=BEAM, fusion=FusionConfig("cli", 0.5, RANK_R))]

    def make_inputs(self, seed, workdir):
        scn, spec = build_scenario(self.shape, seed)
        d = Path(workdir) / "scenario"
        simulate.write_scenario(scn, d)
        vocab = scn.vocab
        models = {}
        for stem, texts in (("predictor", scn.train_texts), ("lm", scn.adapt_texts)):
            models[stem] = ngram.train_kneser_ney(_ids(texts, vocab), ORDER, vocab=vocab, eos=False)
            arpa.save_arpa(models[stem], d / f"{stem}.arpa")
        nbytes = sum(f.stat().st_size for f in d.rglob("*") if f.is_file() and f.suffix != ".arpa")
        return {"scn": scn, "spec": spec, "dir": d, "models": models, "scenario_bytes": nbytes}

    def setup(self, inputs):
        d = inputs["dir"]
        scn = simulate.read_scenario(d)
        pred = arpa.load_arpa(d / "predictor.arpa", scn.vocab)
        ext = arpa.load_arpa(d / "lm.arpa", scn.vocab)
        models = Models(scn.vocab, FntScorer(NgramPredictor(pred, floor=FLOOR), gamma=GAMMA), NgramPredictor(ext))
        return models, scn

    def check_setup(self, inputs, models, scn, result):
        """The read-back scenario and models must equal what was written."""
        orig = inputs["scn"]
        loaded = {"predictor": models.scorer.predictor.model, "lm": models.external.model}
        result.attempted["parses"] += 1
        if list(scn.vocab) != list(orig.vocab) or len(scn.tests) != len(orig.tests):
            result.fail("parses", "vocabulary or test list differs after the round trip")
        for a, b in zip(orig.tests, scn.tests):
            result.attempted["parses"] += 1
            same = (
                a.utt_id == b.utt_id
                and a.ref_words == b.ref_words
                and np.array_equal(a.encoder.scores, b.encoder.scores)
                and np.array_equal(a.encoder.blank_logits, b.encoder.blank_logits)
            )
            if not same:
                result.fail("parses", f"{a.utt_id}: score file does not round-trip")
        for stem, model in loaded.items():
            result.attempted["parses"] += 1
            written = inputs["models"][stem]
            if not all(
                _same_ngrams(model.iter_ngrams(k), written.iter_ngrams(k))
                for k in range(1, ORDER + 1)
            ):
                result.fail("parses", f"{stem}.arpa does not round-trip")

    def warm_up(self, models, scn):
        for utt in scn.tests[-WARMUP_UTTS:]:
            for config in self.configs:
                decoder.beam_search(utt.encoder, models.scorer, config, models.external)

    def timed_pass(self, models, scn, result, sampler):
        """Run one sweep over the dev slice; returns (decodes, seconds on the sampler's clock)."""
        rec = Recorder(len(models.vocab), result, sampler)
        saved = evalmetrics.beam_search
        evalmetrics.beam_search = rec.beam_search
        try:
            t0 = sampler.clock()
            report = evalmetrics.sweep(
                {"dev": scn.tests[: self.dev_utts]},
                models.vocab,
                models.scorer,
                external_lm=models.external,
                methods=self.methods,
                beam=BEAM,
                rank_r=RANK_R,
            )
            wall = sampler.clock() - t0
        finally:
            evalmetrics.beam_search = saved
        self._check_sweep(report, result)
        return rec.decodes, wall

    def _check_sweep(self, report, result):
        reports = [report.baselines["dev"]] + [c.report for c in report.cells]
        for cell in report.cells:
            result.attempted["sweep_cells"] += 1
            if cell.report.n_utts != self.dev_utts or not math.isfinite(cell.werr):
                result.fail("sweep_cells", f"sweep cell {cell.method}@{cell.alpha:g}: bad report")
        result.sweep_cells += len(report.cells)
        if result.passes == 0:
            result.edits = [
                evalmetrics.EditCounts(s, i, d, n) for r in reports for _, s, i, d, n in r.per_utt
            ]


WORKLOADS = {
    w.name: w
    for w in (
        # V~1.1k: per-child work is O(V); fresh utterances, so caches miss
        DirectWorkload(
            "dense-1k",
            Shape(
                target_v=1100, entity_share=0.3, slot_rate=0.7, coverage=0.7,
                n_train=1100, n_adapt=1100, n_test=300,
            ),
            [
                DecoderConfig(beam=BEAM, fusion=FusionConfig()),
                DecoderConfig(beam=BEAM, fusion=FusionConfig("cli", 0.5, RANK_R)),
            ],
            pass_utts=50,
        ),
        # small V, entity-rich: class transitions and clm fusion dominate
        DirectWorkload(
            "entity-clm",
            Shape(
                target_v=120, entity_share=0.5, slot_rate=1.0, coverage=0.5,
                n_train=1500, n_adapt=1500, n_test=500, min_templates=150,
            ),
            [
                DecoderConfig(beam=BEAM, fusion=FusionConfig("clm", 0.9, RANK_R)),
                DecoderConfig(
                    beam=BEAM, fusion=FusionConfig("clm", 0.9, RANK_R),
                    exit_rule="require-cat1", rank_rprime=8,
                ),
                DecoderConfig(beam=BEAM, fusion=FusionConfig("li", 0.5, RANK_R, "clm", 0.9)),
            ],
            pass_utts=40,
        ),
        # a few hundred V read from disk; 23 decodes per utterance hit caches
        SweepWorkload(
            "sweep-disk",
            Shape(
                target_v=300, entity_share=0.3, slot_rate=0.7, coverage=0.7,
                n_train=400, n_adapt=400, n_test=120,
            ),
            dev_utts=12,
        ),
    )
}


def peak_rss_mb() -> float:
    """VmHWM of this process, from its own /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class SetupSampler:
    """Times warm set-ups, in reference seconds: a few before the first
    pass, the one that starts each later pass, and one between two
    decodes whenever ``every`` seconds have passed since the last.

    The machine this runs on can change speed for seconds at a time, so
    set-ups spread over the whole run are a steadier sample than one
    block of them. ``clock()`` is ``perf_counter`` less the time spent
    on set-ups between decodes (collections included) and on reference
    clock ticks, so a pass's time leaves them out. With ``every`` 0 no
    set-up is timed.
    """

    def __init__(self, workload, inputs, every: float, ref: RefClock):
        self.workload = workload
        self.inputs = inputs
        self.every = every
        self.ref = ref
        self.times: list = []
        self.paused = 0.0
        self._last = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self):
        """Set up once, timed when ``every`` is set; returns (models, scn)."""
        gc.collect()
        self.ref.tick(3)
        t0 = time.perf_counter()
        built = self.workload.setup(self.inputs)
        if self.every:
            self.times.append(self.ref.scale(time.perf_counter() - t0))
        return built

    def maybe(self):
        start = time.perf_counter()
        if self.every and start - self._last >= self.every:
            self.sample()
            self._last = time.perf_counter()
            self.paused += self._last - start


def run(workload, inputs, seconds: float, setup_every: float, tracer=None, min_passes=MIN_PASSES):
    """Set up, then make timed passes: ``min_passes``, and more while
    one would end nearer to ``seconds`` than stopping does.

    The first set-up is checked and not timed: it is cold (first calls,
    first file reads). With ``setup_every`` > 0, ``MIN_SETUPS`` timed
    set-ups follow, each later pass's set-up is timed, and more are made
    during the passes (see ``SetupSampler``).

    With a tracer, pass ``min_passes=1``: the set-up, warm-up and pass
    run under it, the first set-up's models are instrumented, the
    tracer is cleared after the warm-up, and summaries are taken after
    the set-up (``setup_layers``) and after the pass (``pass_layers``).
    Returns (result, setup_times, setup_layers, pass_layers).
    """
    result = RunResult(workload.pass_decodes)
    models, scn = workload.setup(inputs)
    workload.check_setup(inputs, models, scn, result)
    ref = RefClock()
    ref.tick(WINDOW)
    sampler = SetupSampler(workload, inputs, setup_every, ref)
    for _ in range(MIN_SETUPS if setup_every else 0):
        sampler.sample()
    setup_layers = pass_layers = None
    if tracer is not None:
        setup_layers = tracer.summary()
        instrument(tracer, models)
    t0 = time.perf_counter()
    pass_s = 0.0
    while result.passes < min_passes or time.perf_counter() - t0 + pass_s / 2 < seconds:
        start = time.perf_counter()
        if result.passes:
            models, scn = sampler.sample()
        workload.warm_up(models, scn)
        if tracer is not None:
            tracer.clear()
        gc.collect()
        decodes, timed_s = workload.timed_pass(models, scn, result, sampler)
        result.add_pass(decodes, ref.scale(timed_s - sum(d.wall_s for d in decodes)), timed_s)
        if result.passes == 1:
            result.rss_mb = peak_rss_mb()
        pass_s = time.perf_counter() - start
    if tracer is not None:
        pass_layers = tracer.summary()
    return result, sampler.times, setup_layers, pass_layers


def instrument(tracer, models: Models):
    """Wrap the per-instance methods of the adapters and their tries."""
    adapters = [("predictor", models.scorer.predictor, "pred"), ("external", models.external, "ext")]
    for role, adapter, short in adapters:
        tracer.patch(adapter, "full_dist", f"simulate.{role}.full_dist")
        tracer.patch(adapter, "top_r", f"simulate.{role}.top_r")
        tracer.patch(adapter, "advance", f"simulate.{role}.advance", count_only=True)
        tracer.patch(adapter.model, "top_r_chain", f"ngram.top_r_chain.{short}")
    if models.clm is not None:
        tracer.patch(models.clm.ngram, "top_r_chain", "ngram.top_r_chain.clm")


MODULE_PATCHES = [
    (decoder, "beam_search", "decoder.beam_search"),
    (decoder, "enumerate_transitions", "classlm.enumerate_transitions"),
    (decoder, "li_scores", "fusion.li_scores"),
    (decoder, "mix_scores", "fusion.mix_scores"),
    (decoder, "clm_predictor_interp", "fusion.clm_predictor_interp"),
    (decoder, "three_way", "fusion.three_way"),
    (decoder, "log_softmax", "core.log_softmax"),
    (decoder, "blank_fallback", "decoder.blank_fallback"),
    (evalmetrics, "align", "evalmetrics.align"),
    (evalmetrics, "evaluate", "evalmetrics.evaluate"),
    (evalmetrics, "sweep", "evalmetrics.sweep"),
    (ngram, "train_kneser_ney", "ngram.train_kneser_ney"),
    (classlm, "train_kneser_ney", "ngram.train_kneser_ney"),
    (classlm, "train_tagged_clm", "classlm.train_tagged_clm"),
    (simulate, "synthesize_scenario", "simulate.synthesize_scenario"),
    (simulate, "write_scenario", "simulate.write_scenario"),
    (simulate, "read_scenario", "simulate.read_scenario"),
    (arpa, "save_arpa", "arpa.save_arpa"),
    (arpa, "load_arpa", "arpa.load_arpa"),
]
