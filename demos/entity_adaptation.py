"""
Recovering unseen names with predictor-side adaptation
======================================================

The recurring field problem: a deployed recognizer meets contact names
and places that were not in its training text. The encoder hears them
fine; the predictor has never scored them, so beam search deletes or
mangles them. This script builds that situation synthetically, then
measures how much each adaptation method recovers.
"""

import time

from fntfuse import (
    DecoderConfig,
    FntScorer,
    FusionConfig,
    NgramPredictor,
    ScenarioSpec,
    evaluate,
    synthesize_scenario,
    train_kneser_ney,
    train_tagged_clm,
)

# ---------------------------------------------------------------------
# A scenario is a handful of command templates with class slots plus
# weighted inventories per class. Generation splits each inventory in
# half: the predictor's training text only ever sees the first half,
# while the test set and the adaptation text draw on all of it. The
# class files cover every test entity (coverage is the easy part; the
# hard part, scoring them, is what we are testing).
# ---------------------------------------------------------------------
spec = ScenarioSpec(
    templates=(
        "please call ⟨NAME⟩ right away",
        "send a note to ⟨NAME⟩ about the plan",
        "get me directions to ⟨PLACE⟩ right now",
        "open ⟨APP⟩ and show the latest items",
        "what does the forecast say for tomorrow",
    ),
    classes={
        "⟨NAME⟩": (
            ("ada lin", 1.0), ("bo chen", 1.0), ("mira sol", 2.0),
            ("kit", 1.0), ("rosa mendez", 1.0), ("tariq", 1.0),
            ("june park", 1.0), ("omar reyes", 1.0),
        ),
        "⟨PLACE⟩": (
            ("harbor point", 1.0), ("elm street", 1.0),
            ("north station", 1.0), ("city hall", 1.0),
        ),
        "⟨APP⟩": (("calendar", 1.0), ("mailbox", 1.0), ("notes", 1.0)),
    },
    n_train=250,
    n_adapt=250,
    n_test=80,
    tau=0.15,
    scale=6.0,
    blank_offset=5.0,
    seed=11,
)
scn = synthesize_scenario(spec)
print(f"vocab: {len(scn.vocab)} word pieces, test utterances: {len(scn.tests)}")

# The predictor is an n-gram LM over the pre-deployment text; the
# external LM sees the adaptation text (new entities included), and the
# class model gets the tagged text plus the full inventories.
to_ids = lambda lines: [scn.vocab.ids_of(line.split()) for line in lines]
predictor = NgramPredictor(
    train_kneser_ney(to_ids(scn.train_texts), 3, vocab=scn.vocab, eos=False),
    floor=0.05,
)
scorer = FntScorer(predictor, gamma=6.0)
external = NgramPredictor(
    train_kneser_ney(to_ids(scn.adapt_texts), 3, vocab=scn.vocab, eos=False)
)
clm = train_tagged_clm(scn.clm_texts, scn.class_entries, 3, scn.vocab)

# ---------------------------------------------------------------------
# Decode the same test set under each configuration. alpha values here
# are the winners a grid sweep picks on this kind of scenario; run
# `fntfuse sweep` on a saved scenario to reproduce the selection.
# ---------------------------------------------------------------------
runs = (
    ("baseline", FusionConfig(), None, None),
    ("shallow 0.05", FusionConfig("sf", 0.05), external, None),
    ("linear 0.5", FusionConfig("li", 0.5), external, None),
    ("conditional 0.5 r=200", FusionConfig("cli", 0.5, 200), external, None),
    ("class model 0.9", FusionConfig("clm", 0.9), None, clm),
    ("linear + class model", FusionConfig("li", 0.5, 200, "clm", 0.9), external, clm),
)

config = lambda fusion: DecoderConfig(beam=4, fusion=fusion)
base = None
print()
print(f"{'configuration':>22} {'wer':>7} {'werr':>7} {'entity err':>11}")
for name, fusion, lm, cm in runs:
    t0 = time.time()
    report = evaluate(name, scn.tests, scn.vocab, scorer, config(fusion), lm, cm)
    if base is None:
        base = report
    werr = report.werr_vs(base)
    print(
        f"{name:>22} {report.wer:7.3f} {werr:7.1%} {report.entity_error_rate:11.3f}"
        f"   ({time.time() - t0:.1f}s)"
    )

print()
print("deletion-heavy baseline errors sit on the unseen half of each")
print("inventory; the probability-domain methods claw them back, while")
print("joint-level shallow fusion at its safe weight recovers far less")

