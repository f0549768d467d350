"""Command-line entry points.

Thin wrappers over the library: each subcommand parses flags, loads or
trains the models involved, runs the corresponding operation, and
prints the machine-readable report lines the test suite and CI parse.
A YAML config file may supply any flag's value; explicit flags win, and
a key that names no flag of the subcommand is a usage error.

Subcommands: train-ngram, build-clm, synth, decode, eval, sweep, bench.
Exit code 0 on success, 1 with a diagnostic on stderr on any fault, 2
on a usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

import yaml

from .arpa import load_arpa, save_arpa
from .classlm import load_class_model, parse_class_file, save_class_model, train_tagged_clm
from .core import Vocabulary
from .decoder import EXIT_RULES, DecoderConfig, beam_search
from .evalmetrics import (
    ALPHA_GRID,
    bench_corpus,
    bench_topr,
    detokenize,
    evaluate,
    ngram_count,
    sweep,
)
from .fusion import METHODS, FusionConfig
from .ngram import train_kneser_ney
from .simulate import (
    FntScorer,
    NgramPredictor,
    ScenarioSpec,
    read_scenario,
    synthesize_scenario,
    write_scenario,
)


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        cfg = yaml.safe_load(f)
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a mapping, got {type(cfg).__name__}")
    return cfg


class _Opts:
    """Flag values merged over config-file values merged over defaults.
    A config key that names no flag of the subcommand (nor one of
    ``extra_keys``) is a usage error, as an unknown flag is."""

    def __init__(self, args, extra_keys=()):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))
        known = set(vars(args)).union(extra_keys) - {"command", "func", "config"}
        unknown = sorted(set(self.config) - known, key=str)
        if unknown:  # exit 2 with argparse's message format
            print(f"fntfuse: error: unknown config key {unknown[0]!r}", file=sys.stderr)
            raise SystemExit(2)

    def get(self, key, default=None):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            return self.config[key]
        return default

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return value


def _read_sentences(lines, vocab: Vocabulary, source: str):
    """Token-id sentences from text lines, skipping blank ones; errors
    carry a ``source:lineno:`` prefix."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            continue
        try:
            out.append(vocab.ids_of(toks))
        except ValueError as e:
            raise ValueError(f"{source}:{lineno}: {e}") from None
    if not out:
        raise ValueError(f"{source}: no sentences")
    return out


def _fusion_config(opts) -> FusionConfig:
    method = opts.get("method", "none")
    alpha = float(opts.get("alpha", 0.0))
    alpha2 = opts.get("alpha2")
    rank_r = int(opts.get("rank_r", 200))
    if alpha2 is not None:
        return FusionConfig(method, alpha, rank_r, "clm", float(alpha2))
    return FusionConfig(method, alpha, rank_r)


def _decoder_config(opts, fusion: FusionConfig) -> DecoderConfig:
    rprime = opts.get("rank_rprime")
    return DecoderConfig(
        beam=int(opts.get("beam", 8)),
        nbest=int(opts.get("nbest", 1)),
        fusion=fusion,
        rank_rprime=None if rprime is None else int(rprime),
        exit_rule=opts.get("exit_rule", "standard"),
        max_emit=int(opts.get("max_emit", 5)),
    )


def _scenario_setup(opts, fusion: FusionConfig):
    """Scenario plus the models the fusion configuration needs.

    Models default to being trained from the scenario's own text files;
    explicit ARPA / class-model paths override.
    """
    scn = read_scenario(opts.require("scenario"))
    order = int(opts.get("order", 3))
    floor = float(opts.get("floor", 0.05))
    gamma = float(opts.get("gamma", 6.0))

    def ngram(flag: str, texts, what: str):
        path = opts.get(flag)
        if path is not None:
            return load_arpa(path, scn.vocab)
        sentences = _read_sentences(texts, scn.vocab, f"scenario {what} text")
        return train_kneser_ney(sentences, order, vocab=scn.vocab, eos=False)

    predictor = NgramPredictor(ngram("predictor", scn.train_texts, "train"), floor=floor)
    scorer = FntScorer(predictor, gamma=gamma)
    need_lm = fusion.method in ("sf", "li", "lli", "cli")
    need_clm = fusion.method == "clm" or fusion.second_method == "clm"
    external = None
    if need_lm or fusion.second_method == "clm":
        external = NgramPredictor(ngram("lm", scn.adapt_texts, "adapt"))
    class_model = None
    if need_clm:
        clm_path = opts.get("clm")
        if clm_path is not None:
            class_model = load_class_model(clm_path, scn.vocab)
        else:
            class_model = train_tagged_clm(
                scn.clm_texts, scn.class_entries, order, scn.vocab
            )

    n_utts = opts.get("utts")
    tests = scn.tests if n_utts is None else scn.tests[: int(n_utts)]
    return scn, tests, scorer, external, class_model


def cmd_train_ngram(args) -> int:
    opts = _Opts(args)
    vocab = Vocabulary.from_file(opts.require("vocab"))
    path = opts.require("text")
    sentences = _read_sentences(
        Path(path).read_text(encoding="utf-8").splitlines(), vocab, path
    )
    model = train_kneser_ney(
        sentences,
        int(opts.get("order", 3)),
        vocab=vocab,
        eos=bool(opts.get("with_eos", False)),
    )
    out = opts.require("out")
    save_arpa(model, out)
    total = ngram_count(model)
    print(f"TRAIN-NGRAM order={model.order} sentences={len(sentences)} ngrams={total} out={out}")
    return 0


def cmd_build_clm(args) -> int:
    opts = _Opts(args)
    vocab = Vocabulary.from_file(opts.require("vocab"))
    entries = parse_class_file(opts.require("classes"))
    tagged = [
        line.split()
        for line in Path(opts.require("text")).read_text(encoding="utf-8").splitlines()
        if line.split()
    ]
    model = train_tagged_clm(tagged, entries, int(opts.get("order", 3)), vocab)
    out = opts.require("out")
    save_class_model(model, out)
    print(
        f"BUILD-CLM classes={len(entries)} sentences={len(tagged)}"
        f" words={model.n_words} out={out}"
    )
    return 0


def cmd_synth(args) -> int:
    opts = _Opts(args, [f.name for f in fields(ScenarioSpec)])
    cfg = {k: v for k, v in opts.config.items() if k != "out"}
    if "templates" not in cfg or "classes" not in cfg:
        raise ValueError("synth needs a config file with templates and classes")
    cfg["templates"] = tuple(cfg["templates"])
    cfg["classes"] = {
        tag: tuple((str(p), float(w)) for p, w in entries)
        for tag, entries in cfg["classes"].items()
    }
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    spec = ScenarioSpec(**cfg)
    scn = synthesize_scenario(spec)
    out = opts.require("out")
    write_scenario(scn, out)
    print(
        f"SYNTH vocab={len(scn.vocab)} train={len(scn.train_texts)}"
        f" adapt={len(scn.adapt_texts)} tests={len(scn.tests)}"
        f" classes={len(scn.class_entries)} out={out}"
    )
    return 0


def cmd_decode(args) -> int:
    opts = _Opts(args)
    fusion = _fusion_config(opts)
    config = _decoder_config(opts, fusion)
    scn, tests, scorer, external, class_model = _scenario_setup(opts, fusion)
    rows = []
    for utt in tests:
        results, _ = beam_search(utt.encoder, scorer, config, external, class_model)
        words = detokenize(scn.vocab.tokens_of(results[0].tokens))
        rows.append((utt.utt_id, " ".join(words), results[0].logscore))
    out = opts.get("out")
    lines = [f"{uid}\t{text}\t{score:.6f}" for uid, text, score in rows]
    if out is not None:
        Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)
    print(f"DECODE method={fusion.method} utts={len(rows)}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    opts = _Opts(args)
    fusion = _fusion_config(opts)
    config = _decoder_config(opts, fusion)
    scn, tests, scorer, external, class_model = _scenario_setup(opts, fusion)
    name = fusion.method if fusion.second_method is None else f"{fusion.method}+clm"
    rep = evaluate(name, tests, scn.vocab, scorer, config, external, class_model)
    if bool(opts.get("with_baseline", False)) and fusion.method != "none":
        base = evaluate(
            "none",
            tests,
            scn.vocab,
            scorer,
            _decoder_config(opts, FusionConfig()),
        )
        print(base.line())
        print(rep.line())
        print(f"WERR vs=none value={rep.werr_vs(base):.6f}")
    else:
        print(rep.line())
    if bool(opts.get("verbose", False)):
        for uid, s, i, d, n in rep.per_utt:
            print(f"UTT id={uid} sub={s} ins={i} del={d} words={n}")
    return 0


def cmd_sweep(args) -> int:
    opts = _Opts(args)
    # any dense method here; _scenario_setup only uses it to see what to load
    scn, tests, scorer, external, _ = _scenario_setup(opts, FusionConfig("li", 0.1))
    methods = tuple(str(opts.get("methods", "sf,li,lli,cli")).split(","))
    grid = tuple(
        float(a) for a in str(opts.get("grid", ",".join(map(str, ALPHA_GRID)))).split(",")
    )
    report = sweep(
        {"test": tests},
        scn.vocab,
        scorer,
        external_lm=external,
        methods=methods,
        grid=grid,
        beam=int(opts.get("beam", 8)),
        rank_r=int(opts.get("rank_r", 200)),
        max_emit=int(opts.get("max_emit", 5)),
    )
    print(report.table())
    for line in report.lines():
        print(line)
    return 0


def cmd_bench(args) -> int:
    opts = _Opts(args)
    sizes = [int(s) for s in str(opts.get("sizes", "10000,1000000")).split(",")]
    r = int(opts.get("rank_r", 200))
    n_queries = int(opts.get("queries", 2000))
    seed = int(opts.get("seed", 0))
    models = {}
    for size in sizes:
        vocab, sentences = bench_corpus(size, seed=seed)
        t0 = time.perf_counter()
        models[f"n{size}"] = model = train_kneser_ney(sentences, 3, vocab=vocab, eos=False)
        build_s = time.perf_counter() - t0
        print(f"BENCH-BUILD label=n{size} ngrams={ngram_count(model)} build_s={build_s:.3f}")
    points = bench_topr(models, r=r, n_queries=n_queries, seed=seed)
    for p in points:
        print(p.line())
    if len(points) >= 2:
        by_size = sorted(points, key=lambda p: p.n_ngrams)
        ratio = by_size[-1].mean_latency / by_size[0].mean_latency
        print(f"BENCH-RATIO large_over_small={ratio:.3f}")
    if opts.get("scenario") is not None:
        fusion = FusionConfig("cli", float(opts.get("alpha", 0.25)), r)
        config = _decoder_config(opts, fusion)
        scn, tests, scorer, external, _ = _scenario_setup(opts, fusion)
        base = evaluate(
            "none", tests, scn.vocab, scorer, _decoder_config(opts, FusionConfig())
        )
        fused = evaluate("cli", tests, scn.vocab, scorer, config, external)
        slow = fused.mean_decode_time / base.mean_decode_time - 1.0
        print(
            f"BENCH-DECODE base_ms={1000 * base.mean_decode_time:.3f}"
            f" cli_ms={1000 * fused.mean_decode_time:.3f}"
            f" slowdown={slow:.3f}"
        )
    return 0


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--scenario", help="scenario directory from `synth`")
    p.add_argument("--predictor", help="ARPA file for the predictor (default: train from scenario)")
    p.add_argument("--lm", help="ARPA file for the external LM (default: train from scenario)")
    p.add_argument("--clm", help="class-model directory (default: build from scenario)")
    p.add_argument("--order", type=int, help="n-gram order for trained models (default 3)")
    p.add_argument("--floor", type=float, help="predictor uniform floor (default 0.05)")
    p.add_argument("--gamma", type=float, help="per-emission blank bonus (default 6.0)")
    p.add_argument("--utts", type=int, help="only the first N test utterances")


def _add_fusion_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, help="fusion method (default none)")
    p.add_argument("--alpha", type=float, help="fusion weight (default 0)")
    p.add_argument("--alpha2", type=float, help="class-model weight; sets up three-way fusion")
    p.add_argument("--rank-r", type=int, dest="rank_r", help="interpolation rank (default 200)")
    p.add_argument("--rank-rprime", type=int, dest="rank_rprime", help="encoder rank gate")
    p.add_argument("--beam", type=int, help="beam width (default 8)")
    p.add_argument("--nbest", type=int, help="n-best size (default 1)")
    p.add_argument("--exit-rule", choices=EXIT_RULES, dest="exit_rule")
    p.add_argument("--max-emit", type=int, dest="max_emit", help="per-frame emission cap (default 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fntfuse",
        description="Transducer decoding with external-LM fusion: data synthesis, model training, decoding, scoring, sweeps, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ngram", help="train a Kneser-Ney n-gram model, write ARPA")
    p.add_argument("--config")
    p.add_argument("--text", help="one piece-tokenized sentence per line")
    p.add_argument("--vocab", help="one token per line")
    p.add_argument("--order", type=int)
    p.add_argument("--with-eos", action="store_const", const=True, dest="with_eos")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("build-clm", help="train a class-based LM from tagged text plus a class file")
    p.add_argument("--config")
    p.add_argument("--text", help="tagged sentences, one per line")
    p.add_argument("--classes", help="class definition TSV")
    p.add_argument("--vocab")
    p.add_argument("--order", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_build_clm)

    p = sub.add_parser("synth", help="generate a synthetic scenario from a YAML spec")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decode", help="decode a scenario's test set")
    p.add_argument("--config")
    _add_model_flags(p)
    _add_fusion_flags(p)
    p.add_argument("--out", help="hypothesis TSV (default: stdout)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="decode and score a scenario's test set")
    p.add_argument("--config")
    _add_model_flags(p)
    _add_fusion_flags(p)
    p.add_argument("--with-baseline", action="store_const", const=True, dest="with_baseline")
    p.add_argument("--verbose", "-v", action="store_const", const=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-sweep fusion weights per method")
    p.add_argument("--config")
    _add_model_flags(p)
    p.add_argument("--methods", help="comma-separated (default sf,li,lli,cli)")
    p.add_argument("--grid", help="comma-separated weights")
    p.add_argument("--rank-r", type=int, dest="rank_r")
    p.add_argument("--beam", type=int)
    p.add_argument("--max-emit", type=int, dest="max_emit")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="rank-query latency across model sizes; optional decode slowdown")
    p.add_argument("--config")
    _add_model_flags(p)
    p.add_argument("--sizes", help="comma-separated target n-gram counts")
    p.add_argument("--rank-r", type=int, dest="rank_r")
    p.add_argument("--queries", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beam", type=int)
    p.add_argument("--max-emit", type=int, dest="max_emit")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
