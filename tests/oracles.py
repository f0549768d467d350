"""Brute-force reference implementations used only by the test suite.

Everything here deliberately avoids the package's own data structures:
probabilities are recomputed from first principles (count dictionaries,
explicit recursions, full enumerations), so agreement with the library
is evidence of correctness rather than a tautology. The exception is
``load_arpa_per_line``, a line-at-a-time reference for the bulk ARPA
loader, which hands the trie builder the same arrays it does, and
``mask_gated``, a copied r'-gated class-model bundle for the view that
the library builds.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from fntfuse.arpa import _LN10, _ZERO_LOG10, EOS_TOKEN, SOS_TOKEN, ArpaParseError
from fntfuse.classlm import Transitions
from fntfuse.core import NEG_INF, Vocabulary
from fntfuse.ngram import NgramModel, gram_ids

from helpers import child_table


class OracleKn:
    """Interpolated modified Kneser-Ney, computed directly from counts.

    The conditional probability is rebuilt for every query by walking
    the interpolation recursion bottom-up over plain dictionaries; no
    trie, no stored backoff weights.
    """

    def __init__(self, sentences, order, bos_id, eos_id=None):
        self.order = order
        self.bos = bos_id
        raw = [None] + [Counter() for _ in range(order)]
        for sent in sentences:
            padded = [bos_id] + list(sent) + ([eos_id] if eos_id is not None else [])
            for k in range(1, order + 1):
                for i in range(len(padded) - k + 1):
                    raw[k][tuple(padded[i : i + k])] += 1
        adj = [None] + [None] * order
        adj[order] = dict(raw[order])
        for k in range(order - 1, 0, -1):
            cont = Counter()
            for gram in raw[k + 1]:
                cont[gram[1:]] += 1
            adj[k] = {
                g: (raw[k][g] if g[0] == bos_id else cont[g]) for g in raw[k]
            }
        self.adj = adj
        self.vpred = sum(1 for g in adj[1] if g[0] != bos_id)
        self.discounts = {}
        for k in range(1, order + 1):
            skip = {(bos_id,)} if k == 1 else set()
            vals = [c for g, c in adj[k].items() if g not in skip]
            self.discounts[k] = kn_discounts(vals)
        # context -> {word: adjusted count}, per order
        self.nodes = [None] + [defaultdict(dict) for _ in range(order)]
        for k in range(1, order + 1):
            for g, c in adj[k].items():
                if k == 1 and g[0] == bos_id:
                    continue
                self.nodes[k][g[:-1]][g[-1]] = c

    def prob(self, word_id, history):
        # closed vocabulary: the uniform base covers seen types only
        if word_id == self.bos or (word_id,) not in self.adj[1]:
            return 0.0
        p = 1.0 / self.vpred
        top = min(self.order, len(history) + 1)
        for k in range(1, top + 1):
            ctx = tuple(history[len(history) - k + 1 :]) if k > 1 else ()
            node = self.nodes[k].get(ctx)
            if not node:
                continue
            d1, d2, d3 = self.discounts[k]
            total = sum(node.values())
            n1 = sum(1 for c in node.values() if c == 1)
            n2 = sum(1 for c in node.values() if c == 2)
            n3 = sum(1 for c in node.values() if c >= 3)
            gamma = (d1 * n1 + d2 * n2 + d3 * n3) / total
            c = node.get(word_id, 0)
            if c == 0:
                f = 0.0
            else:
                d = d1 if c == 1 else d2 if c == 2 else d3
                f = max(c - d, 0.0) / total
            p = f + gamma * p
        return p

    def logprob(self, word_id, history):
        p = self.prob(word_id, history)
        return math.log(p) if p > 0.0 else float("-inf")


def kn_discounts(adjusted_counts):
    """Three-bin discounts from counts-of-counts, with the fixed fallback.

    Bins are count==1, count==2, count>=3. The estimate degenerates
    (any of n1..n4 is zero, or a discount leaves its valid interval
    (0, bin]) to a flat 0.75 for all three bins.
    """
    n = Counter(c for c in adjusted_counts if 1 <= c <= 4)
    n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
    if min(n1, n2, n3, n4) == 0:
        return (0.75, 0.75, 0.75)
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    for j, d in enumerate((d1, d2, d3), start=1):
        if not (0.0 < d <= j):
            return (0.75, 0.75, 0.75)
    return (d1, d2, d3)


def prefix_weight_ratios(entries):
    """Prefix-tree probabilities recomputed by counting over the flat
    entry list: no tree is built. Returns {prefix: ({child: p}, exit_p)}
    for every proper prefix reachable in the entries.
    """
    entries = [(tuple(seq), w) for seq, w in entries]
    prefixes = {()}
    for seq, _ in entries:
        prefixes.update(seq[:i] for i in range(1, len(seq) + 1))
    table = {}
    for prefix in prefixes:
        through = sum(w for seq, w in entries if seq[: len(prefix)] == prefix)
        ending = sum(w for seq, w in entries if seq == prefix)
        children = {}
        for seq, w in entries:
            if len(seq) > len(prefix) and seq[: len(prefix)] == prefix:
                children[seq[len(prefix)]] = children.get(seq[len(prefix)], 0.0) + 0.0
        for child in children:
            children[child] = (
                sum(
                    w
                    for seq, w in entries
                    if seq[: len(prefix) + 1] == prefix + (child,)
                )
                / through
            )
        table[prefix] = (children, ending / through)
    return table


def clm_prefix_masses(model, max_len):
    """Word-sequence prefix masses of a class model by brute-force
    automaton expansion, recomputed from tree dictionaries and raw
    n-gram lookups (the transition-enumeration code under test is
    never called).
    """
    ngram = model.ngram
    keep = ngram.order - 1

    def trunc(h):
        return tuple(h)[-keep:] if keep > 0 else ()

    masses = defaultdict(float)
    frontier = defaultdict(float)
    frontier[((), (ngram.bos_id,), None, None)] = 1.0
    for _ in range(max_len):
        nxt = defaultdict(float)
        for (words, h, tag, node), mass in frontier.items():
            succs = []
            if tag is not None:
                for w, lp in child_table(node).items():
                    succs.append((w, math.exp(lp), (h, tag, node.children[w])))
                exit_p = math.exp(node.exit_logprob)
                h_exit = trunc(h + (tag,))
            else:
                exit_p = 1.0
                h_exit = trunc(h)
            if exit_p > 0.0:
                for w in range(model.n_words):
                    p = math.exp(ngram.logprob(w, h_exit))
                    if p > 0.0:
                        succs.append(
                            (w, exit_p * p, (trunc(h_exit + (w,)), None, None))
                        )
                for tg in model.tag_ids:
                    p_tag = math.exp(ngram.logprob(tg, h_exit))
                    if p_tag == 0.0:
                        continue
                    root = model.trees[tg]
                    for w, lp in child_table(root).items():
                        succs.append(
                            (w, exit_p * p_tag * math.exp(lp), (h_exit, tg, root.children[w]))
                        )
            for w, p, succ in succs:
                nxt[(words + (w,),) + succ] += mass * p
        frontier = nxt
        for key, mass in frontier.items():
            masses[key[0]] += mass
    return dict(masses)


def mask_gated(trans, word_gate) -> Transitions:
    """The r'-gated bundle built as a copy: ``trans`` without the
    CAT2/CAT3 transitions whose word is False in ``word_gate``, masked
    into a bundle of its own, with its own successors and CAT1 gates."""
    keep = word_gate[trans.word]
    keep[: trans.cat2.start] = True
    arrays = (trans.category, trans.word, trans.logprob, trans.tag)
    return Transitions(trans.model, trans.state, *(a[keep] for a in arrays))


def wer_alignments(ref, hyp):
    """All minimum-cost alignments of two word lists, by full enumeration.

    Returns (min_cost, alignments) where each alignment is a list of
    (op, ref_word_or_None, hyp_word_or_None) with op in
    {match, sub, del, ins}. Exponential; only for short pairs.
    """
    best = {}

    def rec(i, j):
        if (i, j) in best:
            return best[(i, j)]
        if i == len(ref) and j == len(hyp):
            result = (0, [[]])
        else:
            options = []
            if i < len(ref) and j < len(hyp):
                cost, tails = rec(i + 1, j + 1)
                op = "match" if ref[i] == hyp[j] else "sub"
                step = 0 if op == "match" else 1
                options.append((cost + step, op, ref[i], hyp[j], tails))
            if i < len(ref):
                cost, tails = rec(i + 1, j)
                options.append((cost + 1, "del", ref[i], None, tails))
            if j < len(hyp):
                cost, tails = rec(i, j + 1)
                options.append((cost + 1, "ins", None, hyp[j], tails))
            low = min(o[0] for o in options)
            paths = []
            for cost, op, rw, hw, tails in options:
                if cost == low:
                    paths.extend([[(op, rw, hw)] + t for t in tails])
            result = (low, paths)
        best[(i, j)] = result
        return result

    return rec(0, 0)


def _lse(values):
    m = max(values)
    if m == float("-inf"):
        return m
    return m + math.log(sum(math.exp(v - m) for v in values))


def exhaustive_decode(
    encoder, scorer, config, external_lm=None, class_model=None, stats=None
):
    """Total log-probability of every emittable token sequence.

    Brute-force sweep over all blank/emission paths through the frames,
    recomputing every per-step posterior with scalar arithmetic (the
    decoder's vectorized fusion code is never called). Transition
    enumeration and model queries come from the independently verified
    model layer. Only feasible for tiny instances.

    When ``stats`` is a dict it receives ``beam_needed``, the largest
    number of simultaneously distinct search states in any frame; a
    beam at least that wide can never prune, so beam search must agree
    with this enumeration exactly.
    """
    from fntfuse.classlm import CAT1, CAT2, enumerate_transitions

    fusion = config.fusion
    use_clm = fusion.method == "clm" or fusion.second_method == "clm"
    use_lm = external_lm is not None and (
        fusion.method in ("sf", "li", "lli", "cli") or fusion.second_method == "clm"
    )
    n_frames = encoder.n_frames
    n_vocab = encoder.n_vocab
    row_cache = {}

    def li(z, p, alpha):
        if alpha == 0.0:
            return z
        if alpha == 1.0:
            return p
        return _lse([math.log(alpha) + p, math.log1p(-alpha) + z])

    def mix(z, p, alpha):
        if alpha == 0.0:
            return z
        if alpha == 1.0:
            return p
        return alpha * p + (1.0 - alpha) * z

    def channel_scores(t, k, pred_state, lm_state, clm_state):
        """-> (channels, posts, blank_post); channels = (word, successors...)"""
        z_t = encoder.scores[t]
        z_u = scorer.predictor.full_dist(pred_state)
        b = float(encoder.blank_logits[t]) + scorer.gamma * k
        lm_row = external_lm.full_dist(lm_state) if use_lm else None

        if use_clm:
            trans = enumerate_transitions(class_model, clm_state, z_t, config.rank_rprime)
            if not len(trans):
                blank_post = b - _lse(
                    [float(z_t[w] + z_u[w]) for w in range(n_vocab)] + [b]
                )
                return [], [], blank_post
            channels, raw = [], []
            base = {
                w: (
                    li(float(z_u[w]), float(lm_row[w]), fusion.alpha)
                    if fusion.second_method == "clm"
                    else float(z_u[w])
                )
                for w in range(n_vocab)
            }
            clm_alpha = (
                fusion.second_alpha if fusion.second_method == "clm" else fusion.alpha
            )
            rows = [
                (int(c), int(w), float(lp), i)
                for i, (c, w, lp) in enumerate(
                    zip(trans.category, trans.word, trans.logprob)
                )
            ]
            s1 = [r for r in rows if r[0] == CAT1]
            finite = sorted(
                (r for r in s1 if r[2] > float("-inf")),
                key=lambda r: (-r[2], r[1]),
            )
            gated = {r[1] for r in finite[: fusion.rank_r]}
            for cat, w, lp, i in rows:
                if cat == CAT1:
                    z = base[w]
                    score = li(z, lp, clm_alpha) if w in gated else z
                elif cat == CAT2:
                    score = li(base[w], lp, clm_alpha)
                else:
                    score = lp
                channels.append((w, trans.successor(i)))
                raw.append(float(z_t[w]) + score)
            denom = _lse(raw + [b])
            return channels, [r - denom for r in raw], b - denom

        raw = []
        if fusion.method == "cli":
            ids = external_lm.top_r(lm_state, fusion.rank_r)
            probs = dict(zip(ids.tolist(), lm_row[ids].tolist()))
        for w in range(n_vocab):
            zt, zu = float(z_t[w]), float(z_u[w])
            if fusion.method == "none":
                raw.append(zt + zu)
            elif fusion.method == "sf":
                raw.append(mix(zt + zu, float(lm_row[w]), fusion.alpha))
            elif fusion.method == "li":
                raw.append(zt + li(zu, float(lm_row[w]), fusion.alpha))
            elif fusion.method == "lli":
                raw.append(zt + mix(zu, float(lm_row[w]), fusion.alpha))
            elif fusion.method == "cli":
                if w in probs:
                    raw.append(zt + li(zu, probs[w], fusion.alpha))
                else:
                    raw.append(zt + zu)
            else:
                raise ValueError(fusion.method)
        denom = _lse(raw + [b])
        channels = [(w, None) for w in range(n_vocab)]
        return channels, [r - denom for r in raw], b - denom

    def cached_row(t, k, pred_state, lm_state, clm_state):
        key = (t, k, pred_state, lm_state, clm_state)
        hit = row_cache.get(key)
        if hit is None:
            hit = channel_scores(t, k, pred_state, lm_state, clm_state)
            row_cache[key] = hit
        return hit

    # Layered sweep merging paths that agree on (tokens, class-walker
    # position): predictor and LM states are functions of the token
    # prefix, and cached_row keys class behavior on the class state,
    # so merged paths share every future posterior. Merging collapses
    # the alignment multiplicity that makes a per-path walk blow up.
    start = ((), class_model.initial_state() if use_clm else None)
    states = {
        start: (
            scorer.predictor.initial_state(),
            external_lm.initial_state() if use_lm else None,
            class_model.initial_state() if use_clm else None,
        )
    }

    def fold(pool, key, acc):
        prev = pool.get(key)
        pool[key] = acc if prev is None else _lse([prev, acc])

    frontier = {start: 0.0}
    beam_needed = 0
    for t in range(n_frames):
        layer = frontier
        frontier = {}
        width = 0
        for k in range(config.max_emit + 1):
            width += len(layer)
            grown = {}
            for key, acc in layer.items():
                tokens = key[0]
                pred_state, lm_state, clm_state = states[key]
                channels, posts, blank_post = cached_row(
                    t, k, pred_state, lm_state, clm_state
                )
                fold(frontier, key, acc + blank_post)
                if k == config.max_emit:
                    continue
                for (w, succ), post in zip(channels, posts):
                    if post == float("-inf"):
                        continue
                    child = (tokens + (w,), succ)
                    if child not in states:
                        states[child] = (
                            scorer.predictor.advance(pred_state, w),
                            external_lm.advance(lm_state, w) if use_lm else None,
                            succ,
                        )
                    fold(grown, child, acc + post)
            layer = grown
        beam_needed = max(beam_needed, width, len(frontier))

    totals = {}
    for (tokens, _), acc in frontier.items():
        fold(totals, tokens, acc)
    if stats is not None:
        stats["beam_needed"] = beam_needed
        stats["n_states"] = len(states)
    return totals


def brute_force_edit_counts(ref, hyp):
    """Minimum-edit counts by exhaustive alignment enumeration.

    Returns the (subs, ins, dels) tuple of minimal total cost, breaking
    ties toward more substitutions (a substitution is preferred over an
    insertion-plus-deletion pair describing the same disagreement).
    Exponential; only for short sequences.
    """
    ref = list(ref)
    hyp = list(hyp)
    cache = {}

    def options(i, j):
        key = (i, j)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if i == len(ref) and j == len(hyp):
            out = {(0, 0, 0)}
        else:
            out = set()
            if i < len(ref) and j < len(hyp):
                bump = 0 if ref[i] == hyp[j] else 1
                out |= {(s + bump, n, d) for s, n, d in options(i + 1, j + 1)}
            if i < len(ref):
                out |= {(s, n, d + 1) for s, n, d in options(i + 1, j)}
            if j < len(hyp):
                out |= {(s, n + 1, d) for s, n, d in options(i, j + 1)}
        cache[key] = out
        return out

    counts = options(0, 0)
    best = min(s + n + d for s, n, d in counts)
    return max(
        (c for c in counts if sum(c) == best), key=lambda c: c[0]
    )


def full_expansion_beam_search(
    encoder, scorer, config, external_lm=None, class_model=None, stats=None
):
    """Beam search that builds every child of every expansion.

    The decoder's search loop without pruning before the merge: every
    finite channel becomes a child, children merge into A, and A is cut
    back to the beam by a stable sort, as ``heapq.nlargest`` does it.
    Channel posteriors come
    from the decoder's own ``_FrameScorer``, so only the search
    bookkeeping is re-implemented. Returns the n-best as
    (tokens, logscore, steps, merged) tuples, best first, one per token
    sequence of the final beam, as ``beam_search`` does.

    When ``stats`` is a dict it receives ``edge_ties``, the number of
    cuts of A that fell between two equal scores, ``pop_ties``, the
    number of pops at which two or more entries of A held the top
    score, and ``expansions``, the number of pops. They only count;
    none changes a decision.
    """
    import heapq
    from types import SimpleNamespace

    import numpy as np

    from fntfuse.core import log_sum_exp
    from fntfuse.decoder import _FrameScorer

    fusion = config.fusion
    use_clm = fusion.method == "clm" or fusion.second_method == "clm"
    use_lm = external_lm is not None and (
        fusion.method in ("sf", "li", "lli", "cli") or fusion.second_method == "clm"
    )
    frame_scorer = _FrameScorer(scorer, config, external_lm, class_model)
    predictor = scorer.predictor
    edge_ties = pop_ties = expansions = 0

    # hypothesis: [tokens, logscore, pred, lm, clm, k, steps, merged]
    def key(h):
        return (h[0], h[2], h[3], h[4])

    def merge(pool, k, h):
        old = pool.get(k)
        if old is not None:
            rep = old if old[1] >= h[1] else h
            h = rep[:1] + [float(np.logaddexp(old[1], h[1]))] + rep[2:7] + [True]
        pool[k] = h

    def can_exit(h):
        s = h[4]
        return s is None or s.class_tag is None or class_model.exit_logmass(s) > -math.inf

    def top(pool):
        nonlocal edge_ties
        ranked = sorted(pool.items(), key=lambda kv: kv[1][1], reverse=True)
        if ranked[config.beam - 1][1][1] == ranked[config.beam][1][1]:
            edge_ties += 1
        return ranked[: config.beam]

    init = [
        (),
        0.0,
        predictor.initial_state(),
        external_lm.initial_state() if use_lm else None,
        class_model.initial_state() if use_clm else None,
        0,
        (),
        False,
    ]
    B = {key(init): init}
    for t in range(encoder.n_frames):
        z_t, blank_logit = encoder.scores[t], float(encoder.blank_logits[t])
        A = {}
        for h in B.values():
            merge(A, key(h) + (0,), h[:5] + [0] + h[6:])
        B, extra = {}, 0
        while A:
            best_key = max(A, key=lambda k: A[k][1])
            best = A[best_key]
            if sum(1 for h in B.values() if h[1] >= best[1]) >= config.beam:
                if config.exit_rule != "require-cat1" or any(
                    can_exit(h)
                    for h in heapq.nlargest(config.beam, B.values(), key=lambda h: h[1])
                ):
                    break
                if extra >= 2 * config.beam:
                    break
                extra += 1
            if sum(1 for h in A.values() if h[1] == best[1]) > 1:
                pop_ties += 1
            expansions += 1
            del A[best_key]
            view = SimpleNamespace(
                pred_state=best[2], lm_state=best[3], clm_state=best[4], k=best[5]
            )
            words, transitions, posts, blank_post = frame_scorer.expand(
                view, t, z_t, blank_logit
            )
            blank = best[:1] + [best[1] + blank_post] + best[2:6]
            blank += [best[6] + ((t, best[5], None, blank_post),), best[7]]
            merge(B, key(blank), blank)
            if best[5] < config.max_emit:
                for i, post in enumerate(posts.tolist()):
                    if post == -math.inf:
                        continue
                    w = int(words[i])
                    child = [
                        best[0] + (w,),
                        best[1] + post,
                        predictor.advance(best[2], w),
                        external_lm.advance(best[3], w) if use_lm else None,
                        transitions.successor(i) if transitions is not None else None,
                        best[5] + 1,
                        best[6] + ((t, best[5], w, post),),
                        best[7],
                    ]
                    merge(A, key(child) + (child[5],), child)
            if len(A) > config.beam:
                A = dict(top(A))
        survivors = heapq.nlargest(config.beam, B.items(), key=lambda kv: kv[1][1])
        if config.exit_rule == "require-cat1" and not any(
            can_exit(h) for _, h in survivors
        ):
            capable = [kv for kv in B.items() if can_exit(kv[1])]
            if capable:
                survivors.append(max(capable, key=lambda kv: kv[1][1]))
        B = dict(survivors)

    by_tokens = {}
    for h in B.values():
        by_tokens.setdefault(h[0], []).append(h)
    results = []
    for tokens, group in by_tokens.items():
        rep = max(group, key=lambda h: h[1])
        results.append(
            (
                tokens,
                float(log_sum_exp([h[1] for h in group])),
                rep[6],
                len(group) > 1 or any(h[7] for h in group),
            )
        )
    results.sort(key=lambda r: (-r[1], r[0]))
    if stats is not None:
        stats["edge_ties"] = edge_ties
        stats["pop_ties"] = pop_ties
        stats["expansions"] = expansions
    return results


def load_arpa_per_line(path, vocab: Vocabulary) -> NgramModel:
    """Reference ARPA loader: one Python pass over the lines, each
    checked and parsed on its own. ``fntfuse.arpa.load_arpa`` must build
    the same trie and report the same first fault (line number and
    message), except for the faults only it checks: header counts that
    are repeated, negative or zero for 1-grams, and a vocabulary token
    spelled as a sentinel.

    Parse an ARPA file into a model over ``vocab`` plus sentinels.

    Tokens must resolve through the vocabulary (or be the two sentinel
    spellings); anything else is a fault, as are header/section
    mismatches, non-numeric, NaN or +inf values, duplicate k-grams and
    a k-gram whose (k-1)-gram context is absent. Each fault names its
    line. Each section becomes one sorted array of gram ids.
    """
    index = {tok: i for i, tok in enumerate(vocab)}
    index.update({SOS_TOKEN: len(vocab), EOS_TOKEN: len(vocab) + 1})

    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    it = iter(enumerate(lines, start=1))

    def next_content():
        for lineno, text in it:
            if text.strip():
                return lineno, text.strip()
        return None, None

    lineno, text = next_content()
    if text != "\\data\\":
        raise ArpaParseError(lineno or 0, "expected \\data\\ header")

    counts: dict[int, int] = {}
    while True:
        lineno, text = next_content()
        if text is None:
            raise ArpaParseError(len(lines), "unexpected end of file in header")
        if text.startswith("\\") and text.endswith("-grams:"):
            break
        if not text.startswith("ngram "):
            raise ArpaParseError(lineno, f"unexpected header line: {text!r}")
        body = text[len("ngram "):]
        k_str, _, n_str = body.partition("=")
        try:
            k, n = int(k_str), int(n_str)
        except ValueError:
            raise ArpaParseError(lineno, f"bad ngram count line: {text!r}") from None
        counts[k] = n
    order = len(counts)
    if order == 0 or sorted(counts) != list(range(1, order + 1)):
        raise ArpaParseError(lineno, f"non-contiguous ngram orders: {sorted(counts)}")

    def parse_value(raw: str, lineno: int) -> float:
        try:
            v = float(raw)
        except ValueError:
            raise ArpaParseError(lineno, f"bad numeric field: {raw!r}") from None
        if math.isnan(v) or v == math.inf:
            raise ArpaParseError(lineno, f"NaN or +inf value: {raw!r}")
        return NEG_INF if v <= _ZERO_LOG10 else v * _LN10

    keys, logprobs, bows = [], [], []
    expected_k = 1
    while True:
        if text is None:
            raise ArpaParseError(len(lines), "missing \\end\\ marker")
        if text == "\\end\\":
            break
        if not (text.startswith("\\") and text.endswith("-grams:")):
            raise ArpaParseError(lineno, f"expected a section marker, got {text!r}")
        try:
            k = int(text[1 : -len("-grams:")])
        except ValueError:
            raise ArpaParseError(lineno, f"bad section marker: {text!r}") from None
        if k != expected_k:
            raise ArpaParseError(
                lineno, f"section {k} out of order, expected {expected_k}"
            )
        if k > order:
            raise ArpaParseError(lineno, f"section {k} beyond header order {order}")
        tokens, probs, bow_col, linenos = [], [], [], []
        for _ in range(counts[k]):
            lineno, text = next_content()
            if text is None or text.startswith("\\"):
                raise ArpaParseError(
                    lineno or len(lines),
                    f"section {k} has fewer entries than declared ({counts[k]})",
                )
            fields = text.split()
            if len(fields) not in (k + 1, k + 2):
                raise ArpaParseError(lineno, f"expected {k}-gram entry, got {text!r}")
            probs.append(parse_value(fields[0], lineno))
            for tok in fields[1 : k + 1]:
                if tok not in index:
                    raise ArpaParseError(lineno, f"token not in vocabulary: {tok!r}")
                tokens.append(index[tok])
            has_bow = len(fields) == k + 2
            if has_bow and k == order:
                raise ArpaParseError(lineno, "backoff weight at maximum order")
            bow_col.append(parse_value(fields[k + 1], lineno) if has_bow else 0.0)
            linenos.append(lineno)

        rows = np.array(tokens, dtype=np.int64).reshape(-1, k)
        ids, missing = gram_ids(rows, keys, len(vocab) + 2)
        if missing >= 0:
            bad = linenos[missing]
            raise ArpaParseError(
                bad, f"{k}-gram lacks its {k - 1}-gram context: {lines[bad - 1].strip()!r}"
            )
        sort = np.argsort(ids, kind="stable")
        ids = ids[sort]
        repeats = sort[1:][ids[1:] == ids[:-1]]
        if repeats.size:
            bad = linenos[int(repeats.min())]
            raise ArpaParseError(bad, f"duplicate {k}-gram: {lines[bad - 1].strip()!r}")
        keys.append(ids)
        logprobs.append(np.array(probs)[sort])
        bows.append(np.array(bow_col)[sort])
        lineno, text = next_content()
        expected_k += 1
    if expected_k != order + 1:
        raise ArpaParseError(lineno or len(lines), "missing n-gram sections")

    try:
        return NgramModel(vocab, order, keys, logprobs, bows)
    except ValueError as err:
        raise ValueError(f"inconsistent ARPA model: {err}") from None
