"""Packed profile matrices for the vectorized similarity engine.

The pure-Python similarity path (:mod:`repro.core.similarity`) computes
Pearson/cosine one ``dict`` pair at a time — O(|profile|) hashing per
pair, re-done for every principal.  At community scale (§2's
"computational complexity" research issue) the same work phrases as a
handful of matrix-vector products over a packed representation:

* :class:`TopicVocabulary` interns topic identifiers into dense column
  indices, shared across matrices so profiles from different sources
  line up;
* :class:`ProfileMatrix` packs one community's sparse profiles into a
  dense float64 matrix plus a *support mask*, with row sums, squared
  sums, norms and support sizes precomputed once, and an inverted
  topic→rows index used to prune zero-overlap candidates before any
  kernel runs.

The mask records *key presence*, not non-zero value: a profile may carry
an explicit ``0.0`` score, which counts toward the union/intersection
domains of :mod:`repro.core.similarity` but contributes nothing to dot
products.  Keeping presence separate is what lets the vectorized kernels
reproduce the dict-based oracle exactly.

Dense storage is deliberate: at the community sizes the experiments run
(hundreds to low thousands of agents, taxonomy vocabularies of a few
thousand topics) a dense float64 block is a few dozen MB at worst and
BLAS-backed matmuls beat scipy-free CSR emulation.  The support mask
plays the CSR indptr/indices role for domain bookkeeping.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..util.sync import AtomicSwap

__all__ = ["ProfileMatrix", "TopicVocabulary"]


class TopicVocabulary:
    """Interns topic identifiers into dense column indices.

    Intern order defines the column order; lookups are dict-speed.  A
    vocabulary can be shared by several matrices (e.g. one per community
    shard) so their columns stay aligned.
    """

    __slots__ = ("_index",)

    def __init__(self, topics: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {}
        for topic in topics:
            self.intern(topic)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, topic: str) -> bool:
        return topic in self._index

    def intern(self, topic: str) -> int:
        """Column index for *topic*, assigning the next free one if new."""
        index = self._index.get(topic)
        if index is None:
            index = len(self._index)
            self._index[topic] = index
        return index

    def index_of(self, topic: str) -> int | None:
        """Column index for *topic*, or ``None`` when never interned."""
        return self._index.get(topic)

    @property
    def topics(self) -> list[str]:
        """All interned topics in column order."""
        return list(self._index)


class ProfileMatrix:
    """One community's sparse profiles packed into dense numpy arrays.

    Rows follow ``ids`` (sorted identifier order by default, for
    determinism); columns follow the vocabulary's intern order.  All
    per-row aggregates the similarity kernels need are precomputed here
    so repeated ``*_many`` calls against the same community do no
    per-profile Python work at all.
    """

    def __init__(
        self,
        ids: Sequence[str],
        vocabulary: TopicVocabulary,
        dense: np.ndarray,
        mask: np.ndarray,
        *,
        row_stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.ids: list[str] = list(ids)
        self.vocabulary = vocabulary
        self.dense = dense
        self.mask = mask
        self._row_of = {identifier: i for i, identifier in enumerate(self.ids)}
        if len(self._row_of) != len(self.ids):
            raise ValueError("profile identifiers must be unique")
        # Per-row aggregates over each profile's own coordinates: key
        # count (presence, not non-zero), sum and squared sum, unless the
        # caller already has them.
        if row_stats is None:
            row_stats = (mask.sum(axis=1), dense.sum(axis=1), (dense * dense).sum(axis=1))
        self.support, self.row_sum, self.row_sumsq = row_stats
        self.row_norm = np.sqrt(self.row_sumsq)
        # Lazy derived views, published atomically so threads racing on
        # first use each see either nothing or the final array.
        self._dense_sq: AtomicSwap[np.ndarray] = AtomicSwap("dense-sq")
        self._topic_rows: AtomicSwap[list[np.ndarray]] = AtomicSwap("topic-rows")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_profiles(
        cls,
        profiles: Mapping[str, Mapping[str, float]],
        vocabulary: TopicVocabulary | None = None,
        ids: Sequence[str] | None = None,
    ) -> "ProfileMatrix":
        """Pack *profiles* (id -> sparse vector) into a matrix.

        Row order is ``sorted(profiles)`` unless *ids* is given.  Passing
        a shared *vocabulary* aligns columns with other matrices; new
        topics are interned as encountered.
        """
        row_ids = sorted(profiles) if ids is None else list(ids)
        vocab = vocabulary if vocabulary is not None else TopicVocabulary()
        for identifier in row_ids:  # intern first: the width is then known
            for topic in profiles[identifier]:
                vocab.intern(topic)
        dense = np.zeros((len(row_ids), len(vocab)))
        mask = np.zeros((len(row_ids), len(vocab)))
        for row, identifier in enumerate(row_ids):
            profile = profiles[identifier]
            cols = [vocab.intern(topic) for topic in profile]
            dense[row, cols] = [float(value) for value in profile.values()]
            mask[row, cols] = 1.0
        return cls(row_ids, vocab, dense, mask)

    def with_rows(self, profiles: Mapping[str, Mapping[str, float]]) -> "ProfileMatrix":
        """A new matrix whose rows for *profiles* are rebuilt from them.

        Every other row is copied unchanged, so a profile edit costs one
        array copy instead of a full repack.  Each identifier must
        already have a row (:class:`KeyError` otherwise).  Topics without
        a column become new trailing columns: the result then gets its
        own copy of the vocabulary, extended, so a published matrix and
        its vocabulary never change under a concurrent reader.
        """
        patched = self.rows_for(profiles)
        vocab = self.vocabulary
        if any(topic not in vocab for profile in profiles.values() for topic in profile):
            vocab = TopicVocabulary(vocab.topics)
        rows = ProfileMatrix.from_profiles(profiles, vocabulary=vocab, ids=list(profiles))
        shape = (len(self), max(self.width, rows.width))
        dense = np.zeros(shape)
        mask = np.zeros(shape)
        dense[:, : self.width] = self.dense
        mask[:, : self.width] = self.mask
        dense[patched] = 0.0
        mask[patched] = 0.0
        dense[patched, : rows.width] = rows.dense
        mask[patched, : rows.width] = rows.mask
        stats = (self.support.copy(), self.row_sum.copy(), self.row_sumsq.copy())
        for whole, part in zip(stats, (rows.support, rows.row_sum, rows.row_sumsq)):
            whole[patched] = part
        return type(self)(self.ids, vocab, dense, mask, row_stats=stats)

    # -- shape and lookups ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._row_of

    @property
    def width(self) -> int:
        """Number of columns (may trail a shared, still-growing vocabulary)."""
        return self.dense.shape[1]

    def row_index(self, identifier: str) -> int:
        """Row of *identifier*; raises :class:`KeyError` when absent."""
        return self._row_of[identifier]

    def rows_for(self, identifiers: Iterable[str]) -> np.ndarray:
        """Row indices for *identifiers*, in the given order."""
        return np.array(
            [self._row_of[identifier] for identifier in identifiers], dtype=np.intp
        )

    @property
    def dense_sq(self) -> np.ndarray:
        """Elementwise square of the value matrix (lazy, cached).

        Needed by intersection-domain kernels, whose norms/variances run
        over co-rated coordinates only.
        """
        return self._dense_sq.get_or_build(self._square)

    def _square(self) -> np.ndarray:
        return self.dense * self.dense

    # -- inverted index -------------------------------------------------------

    def _inverted_index(self) -> list[np.ndarray]:
        return self._topic_rows.get_or_build(self._build_inverted_index)

    def _build_inverted_index(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.mask[:, col]) for col in range(self.width)]

    def overlapping_rows(self, profile: Mapping[str, float]) -> np.ndarray:
        """Rows whose support shares at least one key with *profile*.

        This is the pre-kernel pruning step: for measures where zero
        support overlap implies similarity exactly 0.0 (cosine in either
        domain, intersection-domain Pearson), only these rows need a
        kernel evaluation.
        """
        index = self._inverted_index()
        cols = [
            col
            for topic in profile
            if (col := self.vocabulary.index_of(topic)) is not None
            and col < self.width
        ]
        if not cols:
            return np.empty(0, dtype=np.intp)
        return np.unique(np.concatenate([index[col] for col in cols]))
