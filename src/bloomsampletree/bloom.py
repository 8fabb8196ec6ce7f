"""Bloom filter value type over an integer namespace.

Bits live in little-endian uint64 words: bit i sits in word i // 64 at
position i % 64, which fixes the serialized layout.  Union and
intersection are plain bitwise OR / AND and require both filters to
share the same (m, hash family) pair.
"""
from __future__ import annotations

import struct
from typing import Iterable, Optional

import numpy as np

from .hashing import HashFamily, hash_many

__all__ = ["BloomFilter", "FamilyMismatchError"]

_MAGIC = b"BFLT"
_VERSION = 1
_COUNT_ABSENT = (1 << 64) - 1

_ONE = np.uint64(1)
_SIX = np.uint64(6)
_LOW6 = np.uint64(63)


class FamilyMismatchError(ValueError):
    """Raised when combining filters with different m or hash family."""


class BloomFilter:
    """m-bit filter bound to a hash family and a namespace bound.

    ``inserted_count`` is advisory: it is tracked for locally built
    filters and ``None`` for foreign ones; no estimator depends on it.
    """

    __slots__ = ("family", "namespace_size", "words", "inserted_count", "_popcount")

    def __init__(self, family: HashFamily, namespace_size: int,
                 words: Optional[np.ndarray] = None,
                 inserted_count: Optional[int] = 0):
        self.family = family
        self.namespace_size = int(namespace_size)
        n_words = (family.m + 63) // 64
        if words is None:
            self.words = np.zeros(n_words, dtype=np.uint64)
        else:
            if len(words) != n_words:
                raise ValueError("word array length does not match m")
            self.words = np.asarray(words, dtype=np.uint64)
        self.inserted_count = inserted_count
        self._popcount = None

    @property
    def m(self) -> int:
        return self.family.m

    def _check_element(self, x: int):
        if not 0 <= x < self.namespace_size:
            raise ValueError(f"element {x} outside namespace [0, {self.namespace_size})")

    def insert(self, x: int) -> None:
        """Set the k bits of element ``x``."""
        self._check_element(x)
        for i in range(self.family.k):
            idx = int(hash_many(self.family, i, np.array([x], dtype=np.int64))[0])
            self.words[idx >> 6] |= _ONE << np.uint64(idx & 63)
        if self.inserted_count is not None:
            self.inserted_count += 1
        self._popcount = None

    def insert_many(self, xs: Iterable[int]) -> None:
        """Bulk insert; equivalent to inserting each element in turn."""
        xs = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs,
                        dtype=np.int64)
        if xs.size == 0:
            return
        if xs.min() < 0 or xs.max() >= self.namespace_size:
            raise ValueError("element outside declared namespace")
        mask = np.zeros(self.m, dtype=bool)
        for i in range(self.family.k):
            mask[hash_many(self.family, i, xs)] = True
        packed = np.packbits(mask, bitorder="little")
        pad = len(self.words) * 8 - len(packed)
        if pad:
            packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
        self.words |= packed.view(np.uint64)
        if self.inserted_count is not None:
            self.inserted_count += int(xs.size)
        self._popcount = None

    def contains(self, x: int) -> bool:
        return bool(self.contains_many(np.array([x], dtype=np.int64))[0])

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """Boolean array: all k probed bits set, per element."""
        xs = np.asarray(xs, dtype=np.int64)
        ok = np.ones(xs.shape, dtype=bool)
        for i in range(self.family.k):
            idx = hash_many(self.family, i, xs)
            bits = (self.words[idx >> 6] >> (idx.astype(np.uint64) & _LOW6)) & _ONE
            ok &= bits.astype(bool)
        return ok

    def _check_compatible(self, other: "BloomFilter"):
        if self.family != other.family:
            raise FamilyMismatchError("filters use different hash families or m")

    def union(self, other: "BloomFilter") -> "BloomFilter":
        self._check_compatible(other)
        out = BloomFilter(self.family, max(self.namespace_size, other.namespace_size),
                          words=self.words | other.words, inserted_count=None)
        if self.inserted_count is not None and other.inserted_count is not None:
            out.inserted_count = self.inserted_count + other.inserted_count
        return out

    def update(self, other: "BloomFilter") -> None:
        """In-place union: set every bit that ``other`` has set.

        Counts add as in ``union``; an unknown count on either side makes
        the result unknown.
        """
        self._check_compatible(other)
        self.words |= other.words
        if self.inserted_count is not None:
            self.inserted_count = (None if other.inserted_count is None
                                   else self.inserted_count + other.inserted_count)
        self._popcount = None

    def intersect(self, other: "BloomFilter") -> "BloomFilter":
        self._check_compatible(other)
        return BloomFilter(self.family, min(self.namespace_size, other.namespace_size),
                           words=self.words & other.words, inserted_count=None)

    def popcount(self) -> int:
        if self._popcount is None:
            self._popcount = int(np.bitwise_count(self.words).sum())
        return self._popcount

    def is_zero(self) -> bool:
        return self.popcount() == 0

    def set_bit_indices(self) -> np.ndarray:
        """Positions of set bits, ascending."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")[: self.m]
        return np.nonzero(bits)[0].astype(np.int64)

    def unset_bit_indices(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")[: self.m]
        return np.nonzero(~bits.astype(bool))[0].astype(np.int64)

    def copy(self) -> "BloomFilter":
        return BloomFilter(self.family, self.namespace_size,
                           words=self.words.copy(),
                           inserted_count=self.inserted_count)

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
        count = self.inserted_count if self.inserted_count is not None else _COUNT_ABSENT
        return b"".join([
            _MAGIC,
            bytes([_VERSION]),
            self.family.to_bytes(),
            struct.pack("<QQQ", self.m, self.namespace_size, count),
            self.words.astype("<u8").tobytes(),
        ])

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["BloomFilter", int]:
        if data[offset:offset + 4] != _MAGIC:
            raise ValueError("bad magic: not a Bloom filter block")
        if data[offset + 4] != _VERSION:
            raise ValueError(f"unsupported filter version {data[offset + 4]}")
        offset += 5
        family, offset = HashFamily.from_bytes(data, offset)
        m, namespace_size, count = struct.unpack_from("<QQQ", data, offset)
        offset += 24
        if m != family.m:
            raise ValueError("inconsistent m in filter block")
        n_words = (m + 63) // 64
        words = np.frombuffer(data, dtype="<u8", count=n_words, offset=offset).copy()
        offset += n_words * 8
        inserted = None if count == _COUNT_ABSENT else int(count)
        return cls(family, namespace_size, words=words, inserted_count=inserted), offset

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "BloomFilter":
        with open(path, "rb") as fh:
            flt, _ = cls.from_bytes(fh.read())
        return flt


def build_filter(family: HashFamily, namespace_size: int,
                 elements: Iterable[int]) -> BloomFilter:
    """Convenience constructor: fresh filter with ``elements`` inserted."""
    f = BloomFilter(family, namespace_size)
    f.insert_many(elements)
    return f
