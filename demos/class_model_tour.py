"""
Inside the class-based language model
=====================================

Dense adaptation text is a luxury; a list of contact names is not. The
class model scores carrier phrases with a tagged n-gram ("call ⟨NAME⟩
now") and scores the names themselves with weighted prefix trees, one
per class. This tour builds a tiny one and pokes at each moving part.
"""

import math

import numpy as np

from fntfuse import Vocabulary, build_prefix_tree, enumerate_transitions, train_tagged_clm
from fntfuse.classlm import CAT1, CAT2, CAT3

# ---------------------------------------------------------------------
# A prefix tree on its own. Entries are (word-id sequence, weight);
# shared prefixes share nodes, and each node splits its weight between
# continuing deeper and exiting (the entry ending right there).
# ---------------------------------------------------------------------
vocab = Vocabulary(["call", "now", "ann", "arbor", "lee", "ann▁marie"])
wid = vocab.id_of

entries = [
    ((wid("ann"),), 3.0),
    ((wid("ann"), wid("arbor")), 1.0),
    ((wid("lee"),), 2.0),
]


def number_nodes(root):
    """Number a tree's nodes depth first, children by word id, root 0.
    A node is compared by identity and carries no number of its own."""
    ids, stack = {}, [root]
    while stack:
        node = stack.pop()
        ids[node] = len(ids)
        stack.extend(node.children[w] for w in reversed(node.child_words.tolist()))
    return ids


root = build_prefix_tree(entries)  # a tree is its root node
print("prefix tree over {ann:3, ann arbor:1, lee:2}")
for node, number in number_nodes(root).items():
    kids = {
        vocab.token_of(w): round(math.exp(lp), 3)
        for w, lp in zip(node.child_words.tolist(), node.child_logprobs.tolist())
    }
    stop = 0.0 if node.exit_logprob == -math.inf else math.exp(node.exit_logprob)
    print(f"  node {number}: children={kids} exit={stop:.3f}")

# Weight ratios, read off the flat list: from the root, 'ann' carries
# 4 of 6 units and 'lee' 2 of 6; under 'ann', 3 of 4 units stop.

# ---------------------------------------------------------------------
# A full class model: tagged sentences train the n-gram over words AND
# tag symbols, and each tag owns a tree. Decoding walks a lattice with
# three transition categories out of every state:
#   CAT1 plain word from the tagged n-gram (tree position exits first)
#   CAT2 enter a class: P(tag | history) times the root child
#   CAT3 continue deeper inside the current class tree
# ---------------------------------------------------------------------
tagged = [
    ["call", "⟨NAME⟩", "now"],
    ["call", "⟨NAME⟩"],
    ["now", "call", "⟨NAME⟩", "now"],
]
by_tag = {
    "⟨NAME⟩": [
        (("ann",), 3.0),
        (("ann", "arbor"), 1.0),
        (("lee",), 2.0),
    ]
}
model = train_tagged_clm(tagged, by_tag, 2, vocab)
print()
print(f"model: {model.n_words} words, tags {model.tag_ids}, order 2 tagged n-gram")
node_ids = number_nodes(model.trees[model.tag_ids[0]])  # the one class, as above


CATS = {CAT1: "CAT1", CAT2: "CAT2", CAT3: "CAT3"}


def show_transitions(state, label):
    trans = enumerate_transitions(model, state)
    print(f"\nfrom {label}:")
    for i in range(len(trans)):
        if trans.logprob[i] == -math.inf:
            continue
        succ = trans.successor(state, i)
        print(
            f"  {CATS[int(trans.category[i])]} {vocab.token_of(int(trans.word[i])):>6}"
            f"  p={math.exp(trans.logprob[i]):.4f}"
            f"  -> tag={succ.class_tag} node="
            f"{-1 if succ.node is None else node_ids[succ.node]}"
        )
    return trans


state = model.initial_state()
trans = show_transitions(state, "sentence start")

# Step through 'call', then enter the name class via CAT2 'ann'. The
# transitions are arrays; a successor state is built only for the
# transition taken, from the state it leaves.
step = lambda state, trs, cat, w: trs.successor(
    state, next(i for i in range(len(trs)) if trs.category[i] == cat and trs.word[i] == w)
)
state = step(state, trans, CAT1, wid("call"))
trans = show_transitions(state, "'call'")
state = step(state, trans, CAT2, wid("ann"))
trans = show_transitions(state, "'call', inside ⟨NAME⟩ at 'ann'")

# Inside the tree, the word mass splits between going deeper (CAT3
# 'arbor') and exiting the class first: every CAT1/CAT2 row above
# already includes the exit log-mass, so leaving is priced in.

# ---------------------------------------------------------------------
# Every state's outgoing mass sums to one, because class-exit mass is
# folded into the CAT1/CAT2 rows and each tree node splits its weight
# exactly between exiting and its children. Confirm on a random walk.
# ---------------------------------------------------------------------
rng = np.random.default_rng(0)
worst = 0.0
state = model.initial_state()
for _ in range(12):
    trans = enumerate_transitions(model, state)
    alive = [i for i in range(len(trans)) if trans.logprob[i] > -math.inf]
    if not alive:
        break
    mass = sum(math.exp(trans.logprob[i]) for i in alive)
    worst = max(worst, abs(mass - 1.0))
    state = trans.successor(state, alive[int(rng.integers(len(alive)))])
print(f"\nrandom-walk transition mass error: {worst:.2e}")
