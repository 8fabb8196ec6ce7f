"""Reference sampling/reconstruction algorithms over a raw Bloom filter.

The dictionary attack scans the whole namespace with membership queries
and is the ground-truth oracle: its reconstruction is exactly the set of
membership-positive elements.  HashInvert exploits the weakly invertible
linear hash family to enumerate preimages of set (or unset) bits instead
of scanning everything.
"""
from __future__ import annotations

import enum

import numpy as np

# the HashInvert window is the smallest multiple of m that holds a scan chunk
from .bloom import SCAN_CHUNK as _CHUNK, BloomFilter, check_query_namespace
from .bst import OpCounters, SampleOutcome
from .hashing import preimage

__all__ = [
    "ALGORITHMS",
    "ReconstructionMode",
    "da_sample",
    "da_reconstruct",
    "hi_sample",
    "hi_reconstruct",
]


class ReconstructionMode(enum.Enum):
    SET_BITS = "set"
    UNSET_BITS = "unset"
    AUTO = "auto"


def _draw(hits: np.ndarray, counters: OpCounters, rng) -> SampleOutcome:
    """One uniform draw from the positives ``hits`` of a reconstruction that
    cost ``counters``; None if there are none."""
    if hits.size == 0:
        return SampleOutcome(None, counters)
    rng = np.random.default_rng(rng)
    return SampleOutcome(int(hits[rng.integers(hits.size)]), counters)


def da_sample(namespace_size: int, query: BloomFilter, rng=None) -> SampleOutcome:
    """Uniform sample of the positives: one draw from ``da_reconstruct``'s."""
    return _draw(*da_reconstruct(namespace_size, query), rng)


def da_reconstruct(namespace_size: int, query: BloomFilter) -> tuple[np.ndarray, OpCounters]:
    """Exactly {x in [0, M) : contains(query, x)}; the correctness oracle."""
    check_query_namespace(query, namespace_size)
    counters = OpCounters(membership_queries=namespace_size)
    return query.scan([(0, namespace_size)]), counters


def hi_sample(query: BloomFilter, namespace_size: int, rng=None) -> SampleOutcome:
    """Uniform sample of the positives: one draw from ``hi_reconstruct``'s,
    which are the dictionary attack's, so the same ``rng`` state draws the
    element ``da_sample`` draws."""
    return _draw(*hi_reconstruct(query, namespace_size), rng)


def hi_reconstruct(query: BloomFilter, namespace_size: int,
                   mode: ReconstructionMode = ReconstructionMode.AUTO,
                   ) -> tuple[np.ndarray, OpCounters]:
    """Reconstruct by inverting every set bit, or every unset bit; ascending.

    Set-bit mode probes the h_0 preimages of the set bits, which hold each
    positive once.  Unset-bit mode (cheaper for dense filters) keeps what no
    h_i maps to an unset bit.  Both equal the dictionary-attack oracle exactly.
    ``mode`` is a ``ReconstructionMode`` or its value ("set", "unset",
    "auto"); anything else raises ValueError.  ``membership_queries`` counts
    candidates probed, or preimage elements marked.
    """
    if not query.family.invertible:
        raise NotImplementedError("HashInvert needs a weakly invertible hash family")
    check_query_namespace(query, namespace_size)
    mode = ReconstructionMode(mode)
    if mode == ReconstructionMode.AUTO:
        mode = (ReconstructionMode.UNSET_BITS if query.popcount() > query.m / 2
                else ReconstructionMode.SET_BITS)
    counters = OpCounters()
    family, m = query.family, query.m
    # h depends only on x mod m and every window starts at a multiple of m,
    # so one set of in-window preimage offsets serves every window.
    width = -(-_CHUNK // m) * m
    span = min(width, namespace_size)
    if mode == ReconstructionMode.SET_BITS:
        offsets = [preimage(family, 0, query.set_bit_indices(), span)]
    else:
        unset = query.unset_bit_indices()
        offsets = [preimage(family, i, unset, span) for i in range(family.k)]
    parts = []
    for lo in range(0, namespace_size, width):
        n = min(width, namespace_size - lo)
        cut = [off[:np.searchsorted(off, n)] for off in offsets] if n < span else offsets
        counters.membership_queries += sum(int(off.size) for off in cut)
        if mode == ReconstructionMode.SET_BITS:
            cand = cut[0] + lo
            parts.append(cand[query.contains_many(cand)])
        else:
            marked = np.zeros(n, dtype=bool)
            for off in cut:
                marked[off] = True
            parts.append(np.flatnonzero(~marked) + lo)
    if not parts:
        return np.empty(0, dtype=np.int64), counters
    return np.concatenate(parts), counters


# name -> (sample, reconstruct); reconstruct returns its positives ascending.  Only
# bst reads the tree and the threshold, so the others may be given None for the tree.
ALGORITHMS = {
    "bst": (lambda tree, query, M, threshold, rng: tree.sample(query, threshold, rng),
            lambda tree, query, M, threshold: tree.reconstruct(query, threshold)),
    "da": (lambda tree, query, M, threshold, rng: da_sample(M, query, rng),
           lambda tree, query, M, threshold: da_reconstruct(M, query)),
    "hi": (lambda tree, query, M, threshold, rng: hi_sample(query, M, rng),
           lambda tree, query, M, threshold: hi_reconstruct(query, M)),
}
