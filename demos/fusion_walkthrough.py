"""
Fusing an external language model into a transducer predictor
=============================================================

A factorized transducer keeps a dedicated vocabulary predictor whose
output z_u behaves like a language model score. That gives us a clean
seam: swap or blend LMs at the predictor without touching the encoder.
This walkthrough builds two small n-gram models on different text and
shows what each fusion operator does to a single score row.
"""

import numpy as np

from fntfuse import (
    Vocabulary,
    cli_scores,
    li_scores,
    log_softmax,
    mix_scores,
    train_kneser_ney,
)

# ---------------------------------------------------------------------
# Two corpora over one vocabulary. The "source" text is what the
# predictor was trained on; the "target" text skews toward pie, the
# word the source barely mentions. Adaptation means closing that gap.
# ---------------------------------------------------------------------
vocab = Vocabulary(["we", "like", "tea", "pie", "today"])

source_text = [
    ["we", "like", "tea"],
    ["we", "like", "tea", "today"],
    ["tea", "today"],
    ["we", "like", "today"],
]
target_text = [
    ["we", "like", "pie"],
    ["pie", "today"],
    ["we", "like", "pie", "today"],
]

ids = lambda words: [vocab.id_of(w) for w in words]
source_lm = train_kneser_ney([ids(s) for s in source_text], 2, vocab=vocab, eos=False)
target_lm = train_kneser_ney([ids(s) for s in target_text], 2, vocab=vocab, eos=False)

history = tuple(ids(["we", "like"]))
print("history: 'we like'")
print(f"{'word':>8} {'source':>9} {'target':>9}")
for w in range(len(vocab)):
    print(
        f"{vocab.token_of(w):>8}"
        f" {np.exp(source_lm.logprob(w, history)):9.4f}"
        f" {np.exp(target_lm.logprob(w, history)):9.4f}"
    )

# ---------------------------------------------------------------------
# Score rows, as the decoder holds them: log-domain numpy arrays over
# the vocabulary. The predictor row stands in for z_u at this history; a
# fake encoder row z_t leans toward 'tea' and 'pie' acoustics equally,
# so whatever the fused predictor prefers decides the argmax.
# ---------------------------------------------------------------------
z_u = np.array([source_lm.logprob(w, history) for w in range(len(vocab))])
p_ext = np.array([target_lm.logprob(w, history) for w in range(len(vocab))])
z_t = np.array([-4.0, -4.0, -0.9, -0.9, -3.0])
joint = log_softmax(z_t + z_u)

show = lambda label, row: print(
    f"{label:>24}: "
    + "  ".join(f"{vocab.token_of(w)}={np.exp(v):.3f}" for w, v in enumerate(row))
)

print()
show("joint, no fusion", joint)

# Shallow fusion is mix_scores on the JOINT row: alpha picks how much
# external log-score is added on top of the full acoustic+predictor
# evidence.
# Log-domain mixing is brutal around zeros: 'tea' (unseen by the target
# LM) and 'pie' (zero under the source predictor) both stay at -inf,
# so the mass has nowhere to go but the bland shared words.
show("shallow fusion a=0.3", log_softmax(mix_scores(joint, p_ext, 0.3)))

# Linear interpolation (li_scores) mixes PROBABILITIES at the predictor
# before the joint softmax: the fused predictor is itself a proper
# distribution.
for alpha in (0.0, 0.5, 0.9):
    show(f"linear interp a={alpha}", log_softmax(z_t + li_scores(z_u, p_ext, alpha)))

# Log-linear interpolation is mix_scores again, on the PREDICTOR row
# instead; overlap between the two models is rewarded more sharply.
show("log-linear a=0.5", log_softmax(z_t + mix_scores(z_u, p_ext, 0.5)))

# ---------------------------------------------------------------------
# Conditional linear interpolation (cli_scores) only touches words the
# external LM actually ranks in its top-r for this history; everything
# else keeps the raw predictor score. With r=2 only the LM's two best words move,
# which is what makes large-LM fusion affordable per frame.
# ---------------------------------------------------------------------
sparse = target_lm.top_r(history, 2)
print()
print("target LM top-2 at this history:", [
    (vocab.token_of(w), round(float(np.exp(lp)), 4)) for w, lp in sparse.pairs()
])
cli = cli_scores(z_u, sparse.word_ids, sparse.logprobs, 0.9)
show("conditional a=0.9 r=2", log_softmax(z_t + cli))

print()
print("argmax went tea -> pie under the probability-domain mixes;")
print("the log-domain ones threw the acoustic evidence out with the zeros")
