"""Shared numeric primitives, vocabulary handling, and the external-LM
interface.

All scores in this package live in the natural-log domain as float64,
as bare numpy arrays. Zero probability is represented by ``NEG_INF`` (an
explicit IEEE -inf), never by tiny positive floats. NaN or +inf is a bug
in the caller: ``log_sum_exp`` and ``log_softmax`` raise ``ValueError``
on it, and so do the boundaries data enters by (score files, ARPA and
class files, ``EncoderOutput``), so it never propagates silently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

NEG_INF = float("-inf")


def _checked(values) -> tuple[np.ndarray, float]:
    """``values`` as a 1-D float64 array, and its max (-inf if empty)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D score vector, got shape {arr.shape}")
    # the ufunc reductions ndarray.max and .sum call, without their wrappers
    m = float(np.maximum.reduce(arr)) if arr.size else NEG_INF
    # one comparison catches both: NaN compares False, as does +inf
    if not m < np.inf:
        raise ValueError("NaN or +inf in score vector")
    return arr, m


def log_sum_exp(values) -> float:
    """Stable log of the sum of exponentials of ``values``.

    -inf entries contribute zero mass; an all--inf input returns -inf.
    """
    arr, m = _checked(values)
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.sum(np.exp(arr - m))))


def log_softmax(values) -> np.ndarray:
    """Normalize log-domain scores so their exponentials sum to one.

    Raises ValueError if the input carries no mass at all, since there
    is no distribution to normalize to.
    """
    arr, m = _checked(values)
    if m == NEG_INF:
        raise ValueError("cannot normalize a zero-mass score vector")
    mass = arr - m
    np.exp(mass, out=mass)  # in place: one temporary, same values
    return arr - (m + float(np.log(np.add.reduce(mass))))


def top_ids(row: np.ndarray, r: int) -> np.ndarray:
    """Ascending ids of the ``r`` highest finite entries of ``row`` (all
    of them if fewer are finite), ties at the cut to the lower id, the
    order in which ``heapq.nlargest`` keeps equal keys.

    The one top-r cut: beam children, ``ExternalLm.top_r`` and the class
    model's CAT1 gate. A partition of a copy of the row and one ``>=
    cut`` scan; ties at the cut and fewer than ``r`` finite entries take
    further passes only when they occur."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = row.size
    if n > r:
        part = row.copy()  # the method skips np.partition's Python wrapper
        part.partition(n - r)
        cut = part[n - r]
        if cut > NEG_INF:
            keep = (row >= cut).nonzero()[0]
            surplus = keep.size - r
            if surplus:  # ties at the cut: drop the highest-id ones
                mask = np.ones(keep.size, dtype=bool)
                mask[(row[keep] == cut).nonzero()[0][-surplus:]] = False
                keep = keep[mask]
            return keep
    return (row > NEG_INF).nonzero()[0]  # zero-mass entries never rank


class Vocabulary:
    """Immutable string<->id table; ids are dense and start at 0."""

    def __init__(self, tokens):
        self._tokens = tuple(tokens)
        self._index = {}
        for i, tok in enumerate(self._tokens):
            if tok.split() != [tok]:  # readers split text on whitespace
                raise ValueError(f"bad vocabulary token at line {i + 1}: {tok!r}")
            if tok in self._index:
                raise ValueError(f"duplicate vocabulary token: {tok!r}")
            self._index[tok] = i

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __iter__(self):
        return iter(self._tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"token not in vocabulary: {token!r}") from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise ValueError(f"token id out of range: {token_id}")
        return self._tokens[token_id]

    def ids_of(self, tokens) -> list[int]:
        try:
            return [self._index[t] for t in tokens]
        except KeyError as err:
            raise ValueError(f"token not in vocabulary: {err.args[0]!r}") from None

    def tokens_of(self, ids) -> list[str]:
        return [self.token_of(i) for i in ids]

    def extended(self, extra_tokens) -> "Vocabulary":
        """New vocabulary with ``extra_tokens`` appended; existing ids keep."""
        return Vocabulary(self._tokens + tuple(extra_tokens))

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        return cls(lines)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self._tokens:
                f.write(tok + "\n")


class ExternalLm(ABC):
    """Contract for external LMs fused into the decoder.

    States are opaque, hashable, and immutable; ``advance`` never
    mutates its argument. ``full_dist`` returns a dense normalized
    log-probability array over the decoder vocabulary of V tokens
    (``beam_search`` checks V against the encoder once per decode).
    ``top_r`` is ``top_ids`` of that row; the decoder reads the values
    at those ids from ``full_dist``.
    """

    @abstractmethod
    def initial_state(self):
        ...

    @abstractmethod
    def advance(self, state, token_id: int):
        ...

    @abstractmethod
    def full_dist(self, state) -> np.ndarray:
        ...

    def top_r(self, state, r: int) -> np.ndarray:
        """The ids of the r most probable tokens, ascending."""
        return top_ids(self.full_dist(state), r)
