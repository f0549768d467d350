"""The names the decode benchmark's tracer wraps must exist.

``decodebench/workloads.py`` patches module functions and model
methods by name; a renamed one would fail only a traced benchmark run.
The module is imported as it stands, without writing bytecode next to
it.
"""

import importlib
import sys
from pathlib import Path

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
