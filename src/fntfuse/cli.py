"""Command-line entry points.

Thin wrappers over the library: each subcommand parses flags, loads or
trains the models involved, runs the corresponding operation, and
prints the machine-readable report lines the test suite and CI parse.

A YAML config file (``--config``) may supply any flag's value. Flags
win over config values, which win over defaults. argparse does the
layering: the config's values become the subcommand's defaults and the
command line is parsed again, so a config value goes through its
flag's ``type`` as a command-line value would, and a bad one is a usage
error. A config key that names no flag of the subcommand is a usage
error too. Decoder and fusion flags default to None, and only the
values a flag or the config gave reach ``DecoderConfig`` and
``FusionConfig``, whose fields hold the defaults.

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
from .fusion import DENSE_METHODS, METHODS, FusionConfig
from .ngram import train_kneser_ney
from .simulate import (
    FntScorer,
    NgramPredictor,
    ScenarioSpec,
    read_scenario,
    synthesize_scenario,
    write_scenario,
)

SPEC_KEYS = tuple(f.name for f in fields(ScenarioSpec))  # synth's config keys


def _load_config(path):
    with open(path, encoding="utf-8") as f:
        cfg = yaml.safe_load(f)
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a mapping, got {type(cfg).__name__}")
    return cfg


def _layer_config(parser, sub, args, argv) -> argparse.Namespace:
    """``argv`` parsed again with the config file's values as the
    subcommand ``sub``'s defaults. A scalar given for a flag that takes
    a value is passed as the string the command line would give, so the
    flag's type parses it; a switch (default False) takes it as it is.
    argparse checks ``choices`` on command-line values only, so they
    are checked here."""
    config = _load_config(args.config)
    flags = set(vars(args)) - {"command", "func", "config"}
    known = flags.union(SPEC_KEYS) if args.command == "synth" else flags
    unknown = sorted(set(config) - known, key=str)
    if unknown:
        sub.error(f"unknown config key {unknown[0]!r}")
    valued = {k for k in flags if sub.get_default(k) is not False}
    config = {
        k: str(v) if k in valued and type(v) in (bool, int, float) else v
        for k, v in config.items()
    }
    for action in sub._actions:
        value = config.get(action.dest)
        if action.choices and value is not None and value not in action.choices:
            sub.error(
                f"argument {action.option_strings[0]}: invalid choice: {value!r}"
                f" (choose from {', '.join(map(repr, action.choices))})"
            )
    sub.set_defaults(**config)
    return parser.parse_args(argv)


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


def _require(args, key: str):
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _given(args, *keys) -> dict:
    """The options among ``keys`` that a flag or the config gave."""
    return {k: v for k in keys if (v := getattr(args, k, None)) is not None}


def _fusion_config(args) -> FusionConfig:
    given = _given(args, "method", "alpha", "rank_r")
    if args.alpha2 is not None:
        given.update(second_method="clm", second_alpha=args.alpha2)
    return FusionConfig(**given)


def _decoder_config(args, fusion: FusionConfig) -> DecoderConfig:
    given = _given(args, "beam", "rank_rprime", "exit_rule", "max_emit")
    return DecoderConfig(fusion=fusion, **given)


def _scenario_setup(args, use_lm: bool, use_clm: bool = False):
    """Scenario plus the models asked for: the predictor always, the
    dense external LM and the class model when ``use_lm``/``use_clm``.

    Models default to being trained from the scenario's own text files;
    explicit ARPA / class-model paths override.
    """
    if args.utts is not None and args.utts < 1:  # checked before anything is read
        raise ValueError(f"--utts must be >= 1, got {args.utts}")
    if not 0.0 <= args.floor < 1.0:  # a --predictor file's faults name the file
        raise ValueError(f"--floor must be in [0, 1), got {args.floor}")
    scn = read_scenario(_require(args, "scenario"))

    def lm(path, texts, what: str, floor: float = 0.0):
        if path is not None:
            try:
                return NgramPredictor(load_arpa(path, scn.vocab), floor)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
        sentences = _read_sentences(texts, scn.vocab, f"scenario {what} text")
        model = train_kneser_ney(sentences, args.order, vocab=scn.vocab, eos=False)
        return NgramPredictor(model, floor)

    scorer = FntScorer(lm(args.predictor, scn.train_texts, "train", args.floor), gamma=args.gamma)
    external = None
    if use_lm:
        external = lm(args.lm, scn.adapt_texts, "adapt")
    class_model = None
    if use_clm:
        if args.clm is not None:
            class_model = load_class_model(args.clm, scn.vocab)
        else:
            class_model = train_tagged_clm(
                scn.clm_texts, scn.class_entries, args.order, scn.vocab
            )
    tests = scn.tests if args.utts is None else scn.tests[: args.utts]
    return scn, tests, scorer, external, class_model


def cmd_train_ngram(args) -> int:
    vocab = Vocabulary.from_file(_require(args, "vocab"))
    path = _require(args, "text")
    sentences = _read_sentences(
        Path(path).read_text(encoding="utf-8").splitlines(), vocab, path
    )
    model = train_kneser_ney(sentences, args.order, vocab=vocab, eos=args.with_eos)
    out = _require(args, "out")
    save_arpa(model, out)
    total = ngram_count(model)
    print(f"TRAIN-NGRAM order={model.order} sentences={len(sentences)} ngrams={total} out={out}")
    return 0


def cmd_build_clm(args) -> int:
    vocab = Vocabulary.from_file(_require(args, "vocab"))
    entries = parse_class_file(_require(args, "classes"))
    tagged = [
        line.split()
        for line in Path(_require(args, "text")).read_text(encoding="utf-8").splitlines()
        if line.split()
    ]
    model = train_tagged_clm(tagged, entries, args.order, vocab)
    out = _require(args, "out")
    save_class_model(model, out)
    print(
        f"BUILD-CLM classes={len(entries)} sentences={len(tagged)}"
        f" words={model.n_words} out={out}"
    )
    return 0


def cmd_synth(args) -> int:
    cfg = _given(args, *SPEC_KEYS)
    if "templates" not in cfg or "classes" not in cfg:
        raise ValueError("synth needs a config file with templates and classes")
    cfg["templates"] = tuple(cfg["templates"])
    cfg["classes"] = {
        tag: tuple((str(p), float(w)) for p, w in entries)
        for tag, entries in cfg["classes"].items()
    }
    scn = synthesize_scenario(ScenarioSpec(**cfg))
    out = _require(args, "out")
    write_scenario(scn, out)
    print(
        f"SYNTH vocab={len(scn.vocab)} train={len(scn.train_texts)}"
        f" adapt={len(scn.adapt_texts)} tests={len(scn.tests)}"
        f" classes={len(scn.class_entries)} out={out}"
    )
    return 0


def cmd_decode(args) -> int:
    fusion = _fusion_config(args)
    config = _decoder_config(args, fusion)
    scn, tests, scorer, external, class_model = _scenario_setup(
        args, fusion.uses_lm, fusion.uses_clm
    )
    rows = []
    for utt in tests:
        results, _ = beam_search(utt.encoder, scorer, config, external, class_model)
        words = detokenize(scn.vocab.tokens_of(results[0].tokens))
        rows.append((utt.utt_id, " ".join(words), results[0].logscore))
    lines = [f"{uid}\t{text}\t{score:.6f}" for uid, text, score in rows]
    if args.out is not None:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)
    print(f"DECODE method={fusion.method} utts={len(rows)}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    fusion = _fusion_config(args)
    config = _decoder_config(args, fusion)
    scn, tests, scorer, external, class_model = _scenario_setup(
        args, fusion.uses_lm, fusion.uses_clm
    )
    name = fusion.method if fusion.second_method is None else f"{fusion.method}+clm"
    rep = evaluate(name, tests, scn.vocab, scorer, config, external, class_model)
    if args.with_baseline and fusion.method != "none":
        base = evaluate(
            "none", tests, scn.vocab, scorer, _decoder_config(args, FusionConfig())
        )
        print(base.line())
        print(rep.line())
        print(f"WERR vs=none value={rep.werr_vs(base):.6f}")
    else:
        print(rep.line())
    if args.verbose:
        for uid, s, i, d, n in rep.per_utt:
            print(f"UTT id={uid} sub={s} ins={i} del={d} words={n}")
    return 0


def cmd_sweep(args) -> int:
    scn, tests, scorer, external, _ = _scenario_setup(args, use_lm=True)
    report = sweep(
        {"test": tests},
        scn.vocab,
        scorer,
        external_lm=external,
        **_given(args, "methods", "grid", "beam", "rank_r", "max_emit"),
    )
    print(report.table())
    for line in report.lines():
        print(line)
    return 0


def cmd_bench(args) -> int:
    for flag, value in (("--rank-r", args.rank_r), ("--queries", args.queries)):
        if value < 1:  # checked before the models are built
            raise ValueError(f"{flag} must be >= 1, got {value}")
    models = {}
    for size in args.sizes:
        vocab, sentences = bench_corpus(size, seed=args.seed)
        t0 = time.perf_counter()
        models[f"n{size}"] = model = train_kneser_ney(sentences, 3, vocab=vocab, eos=False)
        build_s = time.perf_counter() - t0
        print(f"BENCH-BUILD label=n{size} ngrams={ngram_count(model)} build_s={build_s:.3f}")
    points = bench_topr(models, r=args.rank_r, n_queries=args.queries, seed=args.seed)
    for p in points:
        print(p.line())
    if len(points) >= 2:
        by_size = sorted(points, key=lambda p: p.n_ngrams)
        ratio = by_size[-1].mean_latency / by_size[0].mean_latency
        print(f"BENCH-RATIO large_over_small={ratio:.3f}")
    return 0


def _float_list(text: str) -> tuple:
    return tuple(float(a) for a in text.split(","))


def _int_list(text: str) -> list:
    return [int(a) for a in text.split(",")]


def _add_order_flag(p: argparse.ArgumentParser):
    p.add_argument("--order", type=int, default=3, help="n-gram order (default %(default)s)")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--scenario", help="scenario directory from `synth`")
    p.add_argument("--predictor", help="ARPA file for the predictor (default: train from scenario)")
    p.add_argument("--lm", help="ARPA file for the external LM (default: train from scenario)")
    _add_order_flag(p)
    p.add_argument("--floor", type=float, default=0.05, help="predictor uniform floor (default %(default)s)")
    p.add_argument("--gamma", type=float, default=6.0, help="per-emission blank bonus (default %(default)s)")
    p.add_argument("--utts", type=int, help="only the first N test utterances")
    p.add_argument(
        "--rank-r", type=int, dest="rank_r",
        help=f"interpolation rank (default {FusionConfig.rank_r})",
    )
    p.add_argument("--beam", type=int, help=f"beam width (default {DecoderConfig.beam})")
    p.add_argument(
        "--max-emit", type=int, dest="max_emit",
        help=f"per-frame emission cap (default {DecoderConfig.max_emit})",
    )


def _add_fusion_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, help=f"fusion method (default {FusionConfig.method})")
    p.add_argument("--alpha", type=float, help=f"fusion weight (default {FusionConfig.alpha:g})")
    p.add_argument("--alpha2", type=float, help="class-model weight; sets up three-way fusion after li")
    p.add_argument("--clm", help="class-model directory (default: build from scenario)")
    p.add_argument("--rank-rprime", type=int, dest="rank_rprime", help="encoder rank gate")
    p.add_argument("--exit-rule", choices=EXIT_RULES, dest="exit_rule")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fntfuse",
        description="Transducer decoding with external-LM fusion: data synthesis, model training, decoding, scoring, sweeps, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ngram", help="train a Kneser-Ney n-gram model, write ARPA")
    p.add_argument("--config")
    p.add_argument("--text", help="one piece-tokenized sentence per line")
    p.add_argument("--vocab", help="one token per line")
    _add_order_flag(p)
    p.add_argument(
        "--with-eos", action="store_true", dest="with_eos",
        help="model </s>; such a model cannot be a --predictor or --lm",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("build-clm", help="train a class-based LM from tagged text plus a class file")
    p.add_argument("--config")
    p.add_argument("--text", help="tagged sentences, one per line")
    p.add_argument("--classes", help="class definition TSV")
    p.add_argument("--vocab")
    _add_order_flag(p)
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
    p.add_argument("--with-baseline", action="store_true", dest="with_baseline")
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-sweep fusion weights per method")
    p.add_argument("--config")
    _add_model_flags(p)
    p.add_argument(
        "--methods", type=lambda text: tuple(text.split(",")),
        help=f"comma-separated (default {','.join(DENSE_METHODS)})",
    )
    p.add_argument(
        "--grid", type=_float_list,
        help=f"comma-separated weights (default {','.join(map(str, ALPHA_GRID))})",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="rank-query latency and build time across model sizes")
    p.add_argument("--config")
    p.add_argument(
        "--rank-r", type=int, dest="rank_r", default=FusionConfig.rank_r,
        help="entries per rank query (default %(default)s)",
    )
    p.add_argument(
        "--sizes", type=_int_list, default="10000,1000000",
        help="comma-separated target n-gram counts (default %(default)s)",
    )
    p.add_argument("--queries", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _layer_config(parser, subparsers[args.command], args, argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
