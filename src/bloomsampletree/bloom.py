"""Bloom filter value type over an integer namespace.

Bits live in little-endian uint64 words: bit i sits in word i // 64 at
position i % 64, which fixes the serialized layout.  Union and
intersection are plain bitwise OR / AND and require both filters to
share the same (m, hash family) pair.
"""
from __future__ import annotations

import operator
import struct
from typing import Iterable, Optional

import numpy as np

from .hashing import HashFamily, _hash_ints, _hash_ranges, hash_many

__all__ = ["BloomFilter", "FamilyMismatchError", "as_elements", "check_element",
           "check_elements", "check_query_namespace"]

_MAGIC = b"BFLT"
_VERSION = 1
# The v1 block has a reserved u64 after M, written as 2^64 - 1 and ignored
# when read: releases that kept an element count there read this value as
# "no count", so files pass both ways.
_RESERVED = (1 << 64) - 1

# Elements per membership call in ``scan``; one call over 10^6 elements
# measured slower than chunks of this size.
SCAN_CHUNK = 1 << 16
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _exact_int(v) -> int:
    if isinstance(v, (float, np.floating)):
        if not float(v).is_integer():
            raise ValueError(f"element {v!r} is not an integer")
        return int(v)
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"element {v!r} is not an integer") from None


def as_elements(values) -> np.ndarray:
    """``values`` as a 1-D int64 array of elements.

    Raises ValueError for a value that is not an integer or that int64
    cannot hold, where ``np.asarray(values, dtype=np.int64)`` would
    truncate the first and raise OverflowError for the second.  Input that
    numpy does not read as integers is checked one value at a time, since a
    list of integers and floats reads as floats, which round large integers.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "u" and arr.size and arr.max() > _INT64_MAX:
        raise ValueError(f"element {arr.max()} is outside int64")
    if kind not in "biu":
        items = values if isinstance(values, list) else arr.ravel().tolist()
        ints = [_exact_int(v) for v in items]
        bad = [x for x in ints if not _INT64_MIN <= x <= _INT64_MAX]
        if bad:
            raise ValueError(f"element {bad[0]} is outside int64")
        arr = np.array(ints, dtype=np.int64)
    return arr.astype(np.int64, copy=False).ravel()


def check_elements(values, namespace_size: int) -> np.ndarray:
    """``as_elements(values)``, every element inside [0, namespace_size);
    otherwise ValueError naming the first element outside."""
    xs = as_elements(values)
    if xs.size and (xs.min() < 0 or xs.max() >= namespace_size):
        bad = xs[(xs < 0) | (xs >= namespace_size)][0]
        raise ValueError(f"element {bad} outside namespace [0, {namespace_size})")
    return xs


def check_element(x, namespace_size: int) -> int:
    """One element by the rule of ``check_elements``, as a Python int."""
    x = _exact_int(x)
    if not 0 <= x < namespace_size:
        raise ValueError(f"element {x} outside namespace [0, {namespace_size})")
    return x


def filter_rows(family: HashFamily, arrays: list,
                bitmap: Optional[np.ndarray] = None) -> np.ndarray:
    """Words of one filter per int64 element array: row r of the returned
    ``(len(arrays), words)`` uint64 matrix sets the k bits of every element
    of ``arrays[r]``.

    One ``hash_many`` call per hash function covers all the arrays: each
    element's bit index is offset into its array's row of a bool bitmap
    with one row of ``64 * words`` entries per array, and one ``packbits``
    packs the rows, padding included.  ``bitmap``, if given, is a reused
    scratch buffer of at least that many entries.
    """
    n_words = (family.m + 63) // 64
    row_bits = 64 * n_words
    size = len(arrays) * row_bits
    if bitmap is None:
        bitmap = np.zeros(size, dtype=bool)
    else:
        bitmap = bitmap[:size]
        bitmap.fill(False)
    if len(arrays) == 1:
        xs, offsets = arrays[0], None
    else:
        xs = np.concatenate(arrays)
        offsets = np.repeat(np.arange(0, size, row_bits), [a.size for a in arrays])
    for i in range(family.k):
        idx = hash_many(family, i, xs)
        if offsets is not None:
            idx += offsets
        bitmap[idx] = True
    return np.packbits(bitmap, bitorder="little").view(np.uint64).reshape(-1, n_words)


def _chunks(ranges):
    """The disjoint [lo, hi) ``ranges``, in order, cut into chunks of
    ``SCAN_CHUNK`` elements (the last one shorter); each chunk is a list of
    (lo, hi) pieces, one per range that it meets."""
    pieces, size = [], 0
    for lo, hi in ranges:
        while lo < hi:
            stop = min(hi, lo + SCAN_CHUNK - size)
            pieces.append((lo, stop))
            size += stop - lo
            lo = stop
            if size == SCAN_CHUNK:
                yield pieces
                pieces, size = [], 0
    if pieces:
        yield pieces


def insert_masks(filters, masks: dict) -> None:
    """Insert one element, given as its ``word_masks``, into each filter of
    ``filters``: OR each mask into its word with Python integers, reading
    each word with ``item``.  A tree insert passes its whole path, so it
    makes one call, not one per node.

    A read-only view (a node of a loaded tree) is copied on its first
    write, which raises before it changes anything.  The try costs nothing
    until it raises, where reading ``words.flags`` on every call cost about
    4% of a tree insert.
    """
    masks = masks.items()
    for flt in filters:
        words = flt.words
        try:
            for w, mask in masks:
                words[w] = words.item(w) | mask
        except ValueError:
            if words.flags.writeable:
                raise
            words = flt._own_words()
            for w, mask in masks:
                words[w] = words.item(w) | mask
        flt._popcount = flt._bits = None


def word_masks(family: HashFamily, x: int) -> dict:
    """Word index -> mask of the bits that element ``x`` sets, as Python
    integers; one ``_hash_ints`` call for all k hash functions, so no array
    is built for the one element.  ``x`` may be a numpy integer, which
    ``_hash_ints`` cannot take: it is read once as a Python int."""
    masks: dict = {}
    for idx in _hash_ints(family, family.params, (operator.index(x),)):
        masks[idx >> 6] = masks.get(idx >> 6, 0) | 1 << (idx & 63)
    return masks


def tail_mask(m: int) -> np.uint64:
    """Mask of the positions >= m in a filter's last word, which no element
    sets; loaders reject words that set any of them."""
    r = m % 64
    return np.uint64(0 if r == 0 else (1 << 64) - (1 << r))


class FamilyMismatchError(ValueError):
    """Raised when combining filters with different m or hash family."""


def check_query_namespace(query: "BloomFilter", namespace_size: int) -> None:
    """Raise ValueError unless ``query`` is over the namespace [0, M) it is
    run against: with a smaller M its positives past that M cannot be
    members, and with a larger one positives past M go unreported."""
    if query.namespace_size != namespace_size:
        raise ValueError(f"query filter is over [0, {query.namespace_size}), "
                         f"not the namespace [0, {namespace_size})")


class BloomFilter:
    """m-bit filter bound to a hash family and a namespace bound.

    ``words`` is any 1-D integer array of ``(m + 63) // 64`` words, strided
    or read-only, that sets no bit at or past m.  Every membership probe is a
    byte gather from the bits unpacked once (``_unpacked``) and kept, like
    the popcount, until the next write: m extra bytes per probed filter.
    """

    __slots__ = ("family", "namespace_size", "words", "_popcount", "_bits")

    def __init__(self, family: HashFamily, namespace_size: int,
                 words: Optional[np.ndarray] = None):
        family.check_namespace(namespace_size)
        self.family = family
        self.namespace_size = int(namespace_size)
        n_words = (family.m + 63) // 64
        if words is None:
            self.words = np.zeros(n_words, dtype=np.uint64)
        else:
            words = np.asarray(words)
            if words.shape != (n_words,):
                raise ValueError(f"filter words must be a 1-D array of {n_words} integers "
                                 f"for m = {family.m}, not shape {words.shape}")
            if words.dtype.kind not in "iu":
                raise ValueError(f"filter words must be integers, not {words.dtype}")
            self.words = words.astype(np.uint64, copy=False)
            if self.words[-1] & tail_mask(family.m):
                raise ValueError(f"filter words set a bit at or past m = {family.m}")
        self._popcount = self._bits = None

    @classmethod
    def _row_views(cls, family: HashFamily, namespace_size: int,
                   words: np.ndarray) -> list:
        """One filter per row of the uint64 ``words`` matrix, each holding its
        row as given, with no checks: for tree builders and loaders, which
        check the namespace and the row width once per tree.

        A plain loop of slot stores with no call per row, since a call per
        row cost about as much as the stores.
        """
        new, flts = object.__new__, []
        for row in words:
            flt = new(cls)
            flt.family = family
            flt.namespace_size = namespace_size
            flt.words = row
            flt._popcount = flt._bits = None
            flts.append(flt)
        return flts

    @property
    def m(self) -> int:
        return self.family.m

    def insert(self, x: int) -> None:
        """Set the k bits of element ``x``."""
        x = check_element(x, self.namespace_size)
        insert_masks((self,), word_masks(self.family, x))

    def _own_words(self) -> np.ndarray:
        """The words, first copied if they are a read-only view (the nodes of
        a loaded tree view its input bytes), so that a write reaches no one
        else's words."""
        if not self.words.flags.writeable:
            self.words = self.words.copy()
        return self.words

    def insert_many(self, xs: Iterable[int]) -> None:
        """Bulk insert; equivalent to inserting each element in turn.

        The one-array case of ``filter_rows``, ORed into ``words``; the
        elements pass through ``check_elements``.
        """
        xs = check_elements(xs, self.namespace_size)
        if xs.size == 0:
            return
        words = self._own_words()
        words |= filter_rows(self.family, [xs])[0]
        self._popcount = self._bits = None

    def contains(self, x: int) -> bool:
        """Whether all k bits of element ``x`` are set."""
        x = check_element(x, self.namespace_size)
        words = self.words
        return all(words.item(w) & mask == mask
                   for w, mask in word_masks(self.family, x).items())

    def _unpacked(self) -> np.ndarray:
        """The bits, one bool each (64 per word, padding included), unpacked
        on the first call after a write and kept until the next one."""
        if self._bits is None:
            words = np.ascontiguousarray(self.words, dtype=np.uint64)
            self._bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)
        return self._bits

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """Boolean array: all k probed bits set, per element of
        ``check_elements(xs, namespace_size)``; hashes every element k
        times."""
        xs = check_elements(xs, self.namespace_size)
        bits = self._unpacked()
        ok = np.ones(xs.shape, dtype=bool)
        for i in range(self.family.k):
            ok &= bits.take(hash_many(self.family, i, xs))
        return ok

    def _scan_chunk(self, pieces: list) -> np.ndarray:
        """The elements of the ascending [lo, hi) ``pieces`` that the filter
        contains, in order.

        Gathers the h_0 bit of every element, hashed from the pieces' bounds
        by one ``_hash_ranges`` call, then h_i only for the elements that
        passed h_0 ... h_{i-1}, and stops once none are left: a query that
        sets a share d of its bits hashes about 1 + d + ... + d^(k-1)
        elements per element instead of k.
        """
        bits = self._unpacked()
        xs = bits.take(_hash_ranges(self.family, 0, pieces)).nonzero()[0]
        if len(pieces) == 1:
            xs += pieces[0][0]
        else:
            # each survivor's position in the chunk, shifted to its piece's lo
            los = np.array([lo for lo, _ in pieces], dtype=np.int64)
            starts = np.cumsum([0] + [hi - lo for lo, hi in pieces[:-1]])
            xs += (los - starts)[np.searchsorted(starts, xs, side="right") - 1]
        for i in range(1, self.family.k):
            if not xs.size:
                break
            xs = xs[bits.take(hash_many(self.family, i, xs))]
        return xs

    def scan(self, ranges) -> np.ndarray:
        """Ascending elements of the ascending, disjoint [lo, hi) ``ranges``
        that the filter contains.

        A range with hi <= lo is empty and skipped.  Any other range outside
        [0, namespace_size), or starting before the one before it ends,
        raises ValueError.  Abutting ranges are merged, and the elements of
        all ranges are probed in chunks of ``SCAN_CHUNK``, one
        ``_scan_chunk`` call per chunk, so short ranges share a call.
        Every chunk, and every later probe until a write, gathers from the
        one ``_unpacked`` copy of the bits.
        """
        merged: list = []
        for lo, hi in ranges:
            if hi <= lo:
                continue
            if lo < 0 or hi > self.namespace_size:
                raise ValueError(f"scan range [{lo}, {hi}) is outside the "
                                 f"namespace [0, {self.namespace_size})")
            if merged and lo < merged[-1][1]:
                raise ValueError(f"scan range [{lo}, {hi}) starts before "
                                 f"the range before it ends at {merged[-1][1]}")
            if merged and merged[-1][1] == lo:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        parts = [self._scan_chunk(pieces) for pieces in _chunks(merged)]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _check_compatible(self, other: "BloomFilter"):
        if self.family != other.family:
            raise FamilyMismatchError("filters use different hash families or m")

    def union(self, other: "BloomFilter") -> "BloomFilter":
        self._check_compatible(other)
        return BloomFilter(self.family, max(self.namespace_size, other.namespace_size),
                           words=self.words | other.words)

    def intersect(self, other: "BloomFilter") -> "BloomFilter":
        self._check_compatible(other)
        return BloomFilter(self.family, min(self.namespace_size, other.namespace_size),
                           words=self.words & other.words)

    def popcount(self) -> int:
        if self._popcount is None:
            self._popcount = int(np.bitwise_count(self.words).sum())
        return self._popcount

    def set_bit_indices(self) -> np.ndarray:
        """Positions of set bits, ascending."""
        return np.flatnonzero(self._unpacked()[: self.m]).astype(np.int64, copy=False)

    def unset_bit_indices(self) -> np.ndarray:
        return np.flatnonzero(~self._unpacked()[: self.m]).astype(np.int64, copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (self.family == other.family
                and self.namespace_size == other.namespace_size
                and bool(np.array_equal(self.words, other.words)))

    def __repr__(self):
        return (f"BloomFilter(m={self.m}, k={self.family.k}, "
                f"popcount={self.popcount()}, M={self.namespace_size})")

    # serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        return b"".join([
            _MAGIC,
            bytes([_VERSION]),
            self.family.to_bytes(),
            struct.pack("<QQQ", self.m, self.namespace_size, _RESERVED),
            self.words.astype("<u8", copy=False).tobytes(),
        ])

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["BloomFilter", int]:
        """Parse one filter block; malformed input raises ValueError, and
        input cut at any length raises it as a truncated block.  The
        reserved field is read past and ignored."""
        if not _MAGIC.startswith(data[offset:offset + 4]):  # a cut magic is truncated
            raise ValueError("bad magic: not a Bloom filter block")
        try:
            if data[offset + 4] != _VERSION:
                raise ValueError(f"unsupported filter version {data[offset + 4]}")
            family, offset = HashFamily.from_bytes(data, offset + 5)
            m, namespace_size, _ = struct.unpack_from("<QQQ", data, offset)
        except (IndexError, struct.error):
            raise ValueError("truncated Bloom filter block") from None
        offset += 24
        if m != family.m:
            raise ValueError("inconsistent m in filter block")
        n_words = (m + 63) // 64
        if len(data) < offset + 8 * n_words:
            raise ValueError("truncated Bloom filter block")
        words = np.frombuffer(data, dtype="<u8", count=n_words, offset=offset).copy()
        offset += n_words * 8
        return cls(family, namespace_size, words=words), offset

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "BloomFilter":
        with open(path, "rb") as fh:
            data = fh.read()
        flt, end = cls.from_bytes(data)
        if end != len(data):
            raise ValueError(f"{len(data) - end} trailing bytes after the Bloom filter")
        return flt


def build_filter(family: HashFamily, namespace_size: int,
                 elements: Iterable[int]) -> BloomFilter:
    """Convenience constructor: fresh filter with ``elements`` inserted."""
    f = BloomFilter(family, namespace_size)
    f.insert_many(elements)
    return f
