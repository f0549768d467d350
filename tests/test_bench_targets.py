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
from pathlib import Path

import pytest

from fntfuse.ngram import train_kneser_ney
from fntfuse.simulate import FntScorer, NgramPredictor

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
