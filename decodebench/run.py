"""Decode benchmark for fntfuse, run from the repository root.

    python3 decodebench/run.py --workload dense-1k --seed 1 --seconds 30 --trace 0
    python3 decodebench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in a process of its own (``all`` starts one per
workload, one after another). ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` makes one pass of the
workload untraced and one traced, and prints the per-layer metrics and
``trace.overhead``. Metric names and units come from BENCHMARK.json;
times are in reference seconds (see refclock.py).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dense-1k", "entity-clm", "sweep-disk")
SETUP_EVERY = 3.0  # seconds between timed set-ups during the passes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def check_outputs(result, problems) -> None:
    """Every decoded method of the first pass must sit strictly between
    WER 0 and 1, or its WER could not show a change in decoding."""
    err = defaultdict(int)
    words = defaultdict(int)
    for d, e in zip(result.decodes, result.edits):
        for method in (d.method, "pooled"):
            err[method] += e.subs + e.ins + e.dels
            words[method] += e.n_ref
    for method in sorted(words):
        wer = err[method] / words[method]
        print(f"CHECK wer method={method} value={wer:.6f} words={words[method]}")
        if not 0.0 < wer < 1.0:
            problems.append(f"method {method} has WER {wer}: outside (0, 1)")
    if len(result.edits) != result.pass_decodes:
        problems.append(f"first pass scored {len(result.edits)} of {result.pass_decodes} decodes")


def end_to_end(result, setup_times) -> dict:
    """Throughput and per-frame latency from each decode's median time
    over the passes, in reference seconds (see ``refclock.py``)."""
    decodes = result.decodes
    frames = sum(d.frames for d in decodes)
    per_frame_ms = [1000.0 * s / d.frames for d, s in zip(decodes, result.decode_s)]
    decoded = f"{len(decodes)} decodes, each the median of {result.passes} passes"
    return {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} warm set-ups"),
        "frames_per_s": (
            frames / result.wall,
            f"{frames} frames in {result.wall:.3f} s, median of {result.passes} passes",
        ),
        "frame_ms_p50": (float(np.percentile(per_frame_ms, 50)), decoded),
        "frame_ms_p90": (float(np.percentile(per_frame_ms, 90)), decoded),
        "peak_rss_mb": (result.rss_mb, "VmHWM after the first pass"),
    }


def per_method(result) -> None:
    by: dict = {}
    for d, s in zip(result.decodes, result.decode_s):
        f, t, n = by.get(d.method, (0, 0.0, 0))
        by[d.method] = (f + d.frames, t + s, n + 1)
    for method, (f, t, n) in by.items():
        print(f"METHOD {method}.frames_per_s={f / t:.4f} frames/s n={n} decodes, {f} frames (decode time only)")
    frames = sum(d.frames for d in result.decodes)
    walls = ", ".join(f"{frames / w:.2f}" for w in result.walls)
    print(f"WALL frames_per_s per pass, as measured: {walls}")


# traced names reported as "<name>.calls" and "<name>.s" (self time)
TIMED_LAYERS = (
    "simulate.predictor.full_dist",
    "simulate.external.full_dist",
    "simulate.external.top_r",
    "ngram.top_r_chain.pred",
    "ngram.top_r_chain.ext",
    "ngram.top_r_chain.clm",
    "classlm.enumerate_transitions",
    "core.log_softmax",
)
COUNTED_LAYERS = ("simulate.predictor.advance", "simulate.external.advance")


def per_layer(traced, base, inputs, input_layers, setup_layers, layers) -> dict:
    def get(table, name, key="s"):
        return table.get(name, {}).get(key, 0)

    frames = sum(d.frames for d in traced.decodes)
    expansions = sum(d.expansions for d in traced.decodes)
    clm_expansions = sum(d.expansions for d in traced.decodes if d.method in ("clm", "three_way"))
    queries = sum(
        get(layers, f"simulate.{role}.{m}", "outer_calls")
        for role in ("predictor", "external")
        for m in ("full_dist", "top_r")
    )
    trie = get(layers, "ngram.top_r_chain.pred", "calls") + get(layers, "ngram.top_r_chain.ext", "calls")
    enum_calls = get(layers, "classlm.enumerate_transitions", "calls")
    fusion = [n for n in layers if n.startswith("fusion.")]
    read_s = get(setup_layers, "simulate.read_scenario", "total_s")
    base_frames = sum(d.frames for d in base.decodes)
    m = {}
    for name in TIMED_LAYERS:
        m[f"{name}.calls"] = get(layers, name, "calls")
        m[f"{name}.s"] = get(layers, name)
    for name in COUNTED_LAYERS:
        m[f"{name}.calls"] = get(layers, name, "calls")
    m.update(
        {
            "decoder.self_s": get(layers, "decoder.beam_search"),
            "decoder.expansions_per_frame": expansions / frames,
            "decoder.children_per_expansion": m["simulate.predictor.advance.calls"] / expansions,
            "ngram.cache_hit_ratio": 1.0 - trie / queries if queries else 0.0,
            "ngram.train_kneser_ney.s": get(setup_layers, "ngram.train_kneser_ney", "total_s"),
            "classlm.trans_cache_hit_ratio": 1.0 - enum_calls / clm_expansions if clm_expansions else 0.0,
            "classlm.train_tagged_clm.s": get(setup_layers, "classlm.train_tagged_clm", "total_s"),
            "fusion.calls": sum(get(layers, n, "calls") for n in fusion),
            "fusion.s": sum(get(layers, n) for n in fusion),
            "simulate.read_scenario.s": read_s,
            "simulate.parse_mb_per_s": inputs.get("scenario_bytes", 0) / 1e6 / read_s if read_s else 0.0,
            "arpa.load_arpa.s": get(setup_layers, "arpa.load_arpa", "total_s"),
            "arpa.save_arpa.s": get(input_layers, "arpa.save_arpa", "total_s"),
            "simulate.synthesize_scenario.s": get(input_layers, "simulate.synthesize_scenario", "total_s"),
            "evalmetrics.align.s": get(layers, "evalmetrics.align"),
            "evalmetrics.sweep.cells": traced.sweep_cells,
            "trace.overhead": (frames / traced.wall) / (base_frames / base.wall),
        }
    )
    return m


def digest(decodes) -> tuple:
    """sha256 of the top hypotheses' tokens, and of tokens plus scores."""
    tok = hashlib.sha256()
    full = hashlib.sha256()
    for d in decodes:
        line = f"{d.label}\t{' '.join(map(str, d.tokens))}"
        tok.update(line.encode() + b"\n")
        full.update(f"{line}\t{d.logscore!r}\n".encode())
    return tok.hexdigest()[:16], full.hexdigest()[:16]


def report_pass(result, problems) -> None:
    for kind in sorted(result.attempted):
        print(f"CHECK {kind} attempted={result.attempted[kind]} failed={result.failed[kind]}")
    edits = result.edits
    tok, full = digest(result.decodes)
    print(
        f"DIGEST decodes={len(edits)} tokens={tok} tokens+scores={full}"
        f" sub={sum(e.subs for e in edits)} ins={sum(e.ins for e in edits)}"
        f" del={sum(e.dels for e in edits)} words={sum(e.n_ref for e in edits)}"
    )
    check_outputs(result, problems)
    problems += result.problems


def run_one(args, metric_specs) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".decodebench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: list = []
    try:
        print("ENV " + json.dumps(environment()))
        tracer = Tracer() if args.trace else None
        with tracer.installed(workloads.MODULE_PATCHES) if tracer else nullcontext():
            inputs = wl.make_inputs(args.seed, workdir)
        spec = inputs["spec"]
        print(
            f"WORKLOAD {wl.name} seed={args.seed} V={len(inputs['scn'].vocab)}"
            f" scale={spec.scale:.4f} tests={len(inputs['scn'].tests)}"
            f" pass_decodes={wl.pass_decodes} beam={workloads.BEAM}"
        )
        if args.trace == 0:
            result, setup_times, _, _ = workloads.run(wl, inputs, args.seconds, SETUP_EVERY)
            report_pass(result, problems)
            per_method(result)
            values = end_to_end(result, setup_times)
            passes = [result]
        else:
            input_layers = tracer.summary()
            tracer.clear()
            base, _, _, _ = workloads.run(wl, inputs, 0.0, 0.0, min_passes=1)
            with tracer.installed(workloads.MODULE_PATCHES):
                traced, _, setup_layers, layers = workloads.run(wl, inputs, 0.0, 0.0, tracer, min_passes=1)
            for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["s"]):
                print(f"LAYER {name} calls={row['calls']} self_s={row['s']:.6f} total_s={row['total_s']:.6f}")
            report_pass(base, problems)
            report_pass(traced, problems)
            if digest(base.decodes) != digest(traced.decodes):
                problems.append("traced decodes differ from untraced ones")
            values = {
                k: (v, "one traced pass")
                for k, v in per_layer(traced, base, inputs, input_layers, setup_layers, layers).items()
            }
            passes = [base, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [name for name in metric_specs if name not in values]
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not produced: {missing}")
    metrics = {}
    for name, unit in metric_specs.items():
        value, basis = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"METRIC {name}={value!r} {unit} n={basis}")
    for p in problems:
        print(f"PROBLEM {p}")
    attempted = sum(sum(r.attempted.values()) for r in passes)
    failed = sum(sum(r.failed.values()) for r in passes)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fntfuse" / "__init__.py").is_file():
        print(f"error: no fntfuse sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    metric_specs = {m["name"]: m["unit"] for m in bench[kind]}
    try:
        return run_one(args, metric_specs)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
