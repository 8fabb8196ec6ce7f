"""Seeded hash families mapping integer keys to bit positions.

Three families are supported: a simple linear-congruential family
``(a*x + b) % m`` (cheap and weakly invertible), a murmur-style mixed
family, and an MD5-backed family.  All functions are deterministic given
the family descriptor, so two filters built from equal descriptors are
bit-compatible.
"""
from __future__ import annotations

import enum
import math
import struct
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FamilyKind",
    "FAMILY_NAMES",
    "HashFamily",
    "make_family",
    "hash_value",
    "hash_many",
    "preimage",
]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


class FamilyKind(enum.IntEnum):
    SIMPLE_LINEAR = 0
    MURMUR3 = 1
    MD5 = 2


# Command-line and sweep-config spelling of each family.
FAMILY_NAMES = {
    "simple": FamilyKind.SIMPLE_LINEAR,
    "murmur3": FamilyKind.MURMUR3,
    "md5": FamilyKind.MD5,
}


@dataclass(frozen=True)
class HashFamily:
    """Descriptor for k hash functions with output range [0, m).

    ``params`` holds, per function, ``(a_i, b_i)`` pairs for the linear
    family or a single 64-bit seed for the other two.  Instances are
    immutable and value-comparable.
    """

    kind: FamilyKind
    k: int
    m: int
    params: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if len(self.params) != self.k:
            raise ValueError("need one parameter set per hash function")
        if self.kind == FamilyKind.SIMPLE_LINEAR:
            for a, _ in self.params:
                if math.gcd(a, self.m) != 1:
                    raise ValueError(f"coefficient {a} not invertible mod {self.m}")

    @property
    def invertible(self) -> bool:
        return self.kind == FamilyKind.SIMPLE_LINEAR

    def to_bytes(self) -> bytes:
        """Serialize: kind (1 byte), k (u16), m (u64), params as u64 LE words."""
        out = [struct.pack("<BHQ", int(self.kind), self.k, self.m)]
        for p in self.params:
            if self.kind == FamilyKind.SIMPLE_LINEAR:
                out.append(struct.pack("<QQ", p[0], p[1]))
            else:
                out.append(struct.pack("<Q", p))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["HashFamily", int]:
        """Parse a descriptor; returns (family, next offset)."""
        kind, k, m = struct.unpack_from("<BHQ", data, offset)
        kind = FamilyKind(kind)
        offset += 11
        params = []
        for _ in range(k):
            if kind == FamilyKind.SIMPLE_LINEAR:
                a, b = struct.unpack_from("<QQ", data, offset)
                params.append((a, b))
                offset += 16
            else:
                (seed,) = struct.unpack_from("<Q", data, offset)
                params.append(seed)
                offset += 8
        return cls(kind, k, m, tuple(params)), offset


def make_family(kind: FamilyKind, k: int, m: int, seed: int = 0) -> HashFamily:
    """Create a k-function family deterministically from ``seed``.

    For the linear family, each a_i is drawn uniformly from the units
    mod m and b_i uniformly from [0, m).  For the seeded families,
    function i gets ``seed ^ i * golden-ratio`` as its own seed.
    """
    kind = FamilyKind(kind)
    if kind == FamilyKind.SIMPLE_LINEAR:
        rng = np.random.default_rng(seed)
        params = []
        for _ in range(k):
            while True:
                a = int(rng.integers(1, m))
                if math.gcd(a, m) == 1:
                    break
            b = int(rng.integers(0, m))
            params.append((a, b))
        return HashFamily(kind, k, m, tuple(params))
    seeds = tuple((seed ^ (i * _GOLDEN64)) & _MASK64 for i in range(k))
    return HashFamily(kind, k, m, seeds)


def _murmur_mix(x: np.ndarray, seed: int) -> np.ndarray:
    """64-bit avalanche mix (murmur3 finalizer) of x xor seed."""
    h = x.astype(np.uint64) ^ np.uint64(seed)
    h ^= h >> np.uint64(33)
    h *= _MIX1
    h ^= h >> np.uint64(33)
    h *= _MIX2
    h ^= h >> np.uint64(33)
    return h


def _md5_one(seed: int, x: int) -> int:
    digest = hashlib.md5(struct.pack("<QQ", seed, x)).digest()
    return int.from_bytes(digest[:8], "little")


def hash_many(family: HashFamily, i: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``h_i`` over an int64 array; output array in [0, m)."""
    if not 0 <= i < family.k:
        raise IndexError(f"hash function index {i} out of range [0, {family.k})")
    xs = np.asarray(xs, dtype=np.int64)
    if family.kind == FamilyKind.SIMPLE_LINEAR:
        a, b = family.params[i]
        return (a * xs + b) % family.m
    if family.kind == FamilyKind.MURMUR3:
        h = _murmur_mix(xs, family.params[i])
        return (h % np.uint64(family.m)).astype(np.int64)
    seed = family.params[i]
    m = family.m
    return np.fromiter(
        (_md5_one(seed, int(x)) % m for x in xs), dtype=np.int64, count=len(xs)
    )


def hash_value(family: HashFamily, i: int, x: int) -> int:
    """Bit position of element ``x`` under hash function ``i``."""
    return int(hash_many(family, i, np.array([x], dtype=np.int64))[0])


def preimage(family: HashFamily, i: int, s: int, namespace_size: int) -> np.ndarray:
    """All x in [0, namespace_size) with h_i(x) == s, ascending.

    Only the linear family supports this; the result is the arithmetic
    progression ``x0, x0+m, x0+2m, ...`` where ``x0 = a^-1 (s - b) mod m``,
    so the cost is proportional to namespace_size / m.
    """
    if not family.invertible:
        raise NotImplementedError(f"{family.kind.name} is not invertible")
    if not 0 <= i < family.k:
        raise IndexError(f"hash function index {i} out of range [0, {family.k})")
    if not 0 <= s < family.m:
        raise ValueError(f"bit index {s} out of range [0, {family.m})")
    if namespace_size <= 0:
        return np.empty(0, dtype=np.int64)
    a, b = family.params[i]
    x0 = (pow(a, -1, family.m) * (s - b)) % family.m
    return np.arange(x0, namespace_size, family.m, dtype=np.int64)
