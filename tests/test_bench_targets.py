"""The decode benchmark must run against the package as it stands.

``decodebench/workloads.py`` patches module functions and model
methods by name, and its workloads build, write and read models through
the package's API; a renamed name or a changed signature would fail
only a benchmark run. The names are checked, and each workload is set
up and warmed up on a tiny scenario. The module is imported as it
stands, without writing bytecode next to it.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fntfuse import decoder
from fntfuse.core import log_softmax
from fntfuse.decoder import DecoderConfig
from fntfuse.fusion import FusionConfig
from fntfuse.ngram import train_kneser_ney
from fntfuse.simulate import EncoderOutput, FntScorer, NgramPredictor

from helpers import toy_class_model

BENCH = Path(__file__).resolve().parents[1] / "decodebench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def test_module_patches_resolve_to_callables(monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert workloads.MODULE_PATCHES
    for module, name, label in workloads.MODULE_PATCHES:
        assert callable(getattr(module, name, None)), f"{label}: {module.__name__}.{name}"


@pytest.mark.parametrize(
    "fusion, label",
    [
        (FusionConfig("clm", 0.5, rank_r=2), "fusion.clm_predictor_interp"),
        (FusionConfig("li", 0.3, rank_r=2, second_method="clm", second_alpha=0.5),
         "fusion.three_way"),
    ],
)
def test_traced_decoder_names_see_every_class_row_build(monkeypatch, fusion, label):
    # the tracer wraps names on the package's modules; a class-model row
    # built without going through fntfuse.decoder would read 0 calls
    workloads = load_workloads(monkeypatch)
    calls = Counter()

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, patch_label in workloads.MODULE_PATCHES:
        assert module.__name__.startswith("fntfuse."), patch_label
        if module is decoder:
            monkeypatch.setattr(module, name, counted(getattr(module, name), patch_label))
    vocab, clm = toy_class_model()
    ngram = train_kneser_ney([[0, 1, 4], [8, 1], [0, 5, 6]], 2, vocab=vocab, eos=False)
    rng = np.random.default_rng(5)
    encoder = EncoderOutput(
        np.array([log_softmax(rng.normal(size=len(vocab)) * 2.0) for _ in range(6)]),
        np.full(6, -1.0),
    )
    config = DecoderConfig(beam=3, fusion=fusion, rank_rprime=4)
    scorer, lm = FntScorer(NgramPredictor(ngram)), NgramPredictor(ngram)
    for _ in range(2):  # the second decode reads the rows the first kept
        _, stats = decoder.beam_search(encoder, scorer, config, lm, clm)
        calls["rows"] += stats.n_fused_rows
        calls["enumerations"] += stats.n_enumerations
    assert calls[label] == calls["rows"] > 0
    assert calls["classlm.enumerate_transitions"] == calls["enumerations"] > 0
    assert calls["decoder.beam_search"] == 2


def test_instrumented_methods_exist(monkeypatch):
    workloads = load_workloads(monkeypatch)
    vocab, clm = toy_class_model()
    ngram = train_kneser_ney([[0, 1, 4], [8, 1]], 2, vocab=vocab, eos=False)
    models = workloads.Models(
        vocab, FntScorer(NgramPredictor(ngram)), NgramPredictor(ngram), clm
    )
    wrapped = []

    class Recorder:
        def patch(self, obj, name, label, count_only=False):
            wrapped.append((obj, name, label))

    workloads.instrument(Recorder(), models)
    names = {name for _, name, _ in wrapped}
    assert {"full_dist", "top_r", "advance"} <= names
    for obj, name, label in wrapped:
        assert callable(getattr(obj, name, None)), f"{label}: {type(obj).__name__}.{name}"


def tiny_shape(workloads):
    return workloads.Shape(
        target_v=40, entity_share=0.3, slot_rate=0.7, coverage=0.7,
        n_train=40, n_adapt=40, n_test=4,
    )


@pytest.mark.parametrize("name", ["dense-1k", "entity-clm"])
def test_direct_workload_sets_up_and_decodes(monkeypatch, name):
    # an API change the harness trips on shows here, not only as a failed run
    workloads = load_workloads(monkeypatch)
    workload = workloads.DirectWorkload(
        name, tiny_shape(workloads), workloads.WORKLOADS[name].configs, pass_utts=2
    )
    models, scn = workload.setup(workload.make_inputs(1, None))
    assert len(scn.tests) == 4
    workload.warm_up(models, scn)


def test_sweep_workload_reads_back_what_it_wrote(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    workload = workloads.SweepWorkload("sweep-disk", tiny_shape(workloads), dev_utts=2)
    inputs = workload.make_inputs(1, tmp_path)
    models, scn = workload.setup(inputs)
    result = workloads.RunResult(workload.pass_decodes)
    workload.check_setup(inputs, models, scn, result)
    assert result.attempted["parses"] > 0
    assert not result.failed, result.problems
