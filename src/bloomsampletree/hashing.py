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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FamilyKind",
    "FAMILY_NAMES",
    "HashFamily",
    "make_family",
    "hash_many",
    "preimage",
]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

_INT64_MAX = (1 << 63) - 1
# Keeps preimage's int64 product a^-1 * (s - b) below 2^62.
_LINEAR_MAX_M = 1 << 31

# Below this many elements hash_many reduces mod m with ``%``, one hardware
# divide per element; from it on, with the multiply-shift ``_reduce``, whose
# extra passes cost 1.5-5 us per call on one-element arrays.  The two break
# even between 512 and 1,024 elements (linear and murmur3, 2-core x86 VM,
# numpy 2.4); on 65,536 elements the reduction is 1.3-1.6x faster.
_REDUCE_MIN_SIZE = 512

# Below this many elements hash_many hashes the linear and murmur3 families
# one Python integer at a time, skipping numpy's fixed cost per call (about
# 3-5 us linear, 10-20 us for murmur3's eight array operations).  The two
# paths break even at 6-8 elements for the linear family and 14-16 for
# murmur3 (2-core x86 VM, numpy 2.4); the constant sits at the lower one.
_SCALAR_MAX_SIZE = 8

_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53
# The mix's operands as numpy scalars, built once rather than on every call.
_U33, _UMIX1, _UMIX2 = np.uint64(33), np.uint64(_MIX1), np.uint64(_MIX2)


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

    ``namespace_limit`` is the largest namespace the family hashes
    exactly: keys are int64, and the linear family's ``a*x + b`` must not
    overflow it, so its limit is ``min((2^63 - 1 - b) // a) + 1``.
    """

    kind: FamilyKind
    k: int
    m: int
    params: tuple
    namespace_limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.k < 1 << 16:  # to_bytes packs k as u16
            raise ValueError(f"k must be in [1, 2^16), got {self.k}")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if len(self.params) != self.k:
            raise ValueError("need one parameter set per hash function")
        limit = 1 << 63
        if self.kind == FamilyKind.SIMPLE_LINEAR:
            if self.m >= _LINEAR_MAX_M:
                raise ValueError(f"linear family needs m < 2^31, got {self.m}")
            for a, b in self.params:
                if math.gcd(a, self.m) != 1:
                    raise ValueError(f"coefficient {a} not invertible mod {self.m}")
            limit = min((_INT64_MAX - b) // a + 1 for a, b in self.params)
        object.__setattr__(self, "namespace_limit", limit)

    def check_namespace(self, namespace_size: int) -> None:
        """Raise ValueError if ``namespace_size`` exceeds ``namespace_limit``."""
        if namespace_size > self.namespace_limit:
            raise ValueError(
                f"namespace size {namespace_size} exceeds {self.namespace_limit}, "
                f"the largest the {self.kind.name} family hashes exactly")

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


def _murmur_mix(h: np.ndarray, seed: int) -> np.ndarray:
    """64-bit avalanche mix (murmur3 finalizer) of the uint64 ``h`` xor seed,
    in place."""
    h ^= np.uint64(seed)
    h ^= h >> _U33
    return _murmur_tail(h)


def _murmur_tail(h: np.ndarray) -> np.ndarray:
    """The mix after its first xor-shift, in place."""
    h *= _UMIX1
    h ^= h >> _U33
    h *= _UMIX2
    h ^= h >> _U33
    return h


def _md5_one(seed: int, x: int) -> int:
    digest = hashlib.md5(struct.pack("<QQ", seed, x)).digest()
    return int.from_bytes(digest[:8], "little")


def _hash_ints(family: HashFamily, params, xs) -> list:
    """``h(x)`` of Python integers for every function parameter of ``params``
    (a slice of ``family.params``) and every x of ``xs``, parameter-major;
    equal to the array path for every int64 x.

    The linear family wraps ``a*x + b`` to int64 as numpy does, which only
    happens for x outside ``[0, namespace_limit)``.
    """
    m = family.m
    if family.kind == FamilyKind.SIMPLE_LINEAR:
        return [(((a * x + b + (1 << 63)) & _MASK64) - (1 << 63)) % m
                for a, b in params for x in xs]
    if family.kind == FamilyKind.MD5:
        return [_md5_one(seed, x) % m for seed in params for x in xs]
    out = []
    for seed in params:
        for x in xs:
            h = (x & _MASK64) ^ seed
            h ^= h >> 33
            h = h * _MIX1 & _MASK64
            h ^= h >> 33
            h = h * _MIX2 & _MASK64
            out.append((h ^ h >> 33) % m)
    return out


def _reduce(h: np.ndarray, m) -> np.ndarray:
    """``h mod m`` in place as ``h - (h // m) * m``, for h >= 0.

    numpy divides by a scalar with a multiply and a shift (libdivide), so
    this avoids the hardware divide that ``%`` runs per element.  It is
    exact for h >= 0: then q*m <= h, so nothing overflows and the result
    lies in [0, m).
    """
    q = h // m
    q *= m
    h -= q
    return h


def hash_many(family: HashFamily, i: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``h_i`` over int64 input; int64 output of the same shape, in [0, m).

    The md5 family, and the others below ``_SCALAR_MAX_SIZE`` elements,
    hash one Python integer at a time; the result is the same.
    """
    if not 0 <= i < family.k:
        raise IndexError(f"hash function index {i} out of range [0, {family.k})")
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size < _SCALAR_MAX_SIZE or family.kind == FamilyKind.MD5:
        out = np.array(_hash_ints(family, family.params[i:i + 1], xs.ravel().tolist()),
                       dtype=np.int64)
        return out if xs.ndim == 1 else out.reshape(xs.shape)
    small = xs.size < _REDUCE_MIN_SIZE
    if family.kind == FamilyKind.SIMPLE_LINEAR:
        a, b = family.params[i]
        if small:
            return (a * xs + b) % family.m
        # namespace_limit keeps a*x + b in [0, 2^63)
        h = a * xs
        h += b
        return _reduce(h, family.m)
    h = _murmur_mix(xs.astype(np.uint64), family.params[i])
    if small:
        return (h % np.uint64(family.m)).view(np.int64)
    return _reduce(h, np.uint64(family.m)).view(np.int64)


def _hash_ranges(family: HashFamily, i: int, pieces) -> np.ndarray:
    """``hash_many(family, i, xs)`` for xs the elements of the ascending
    [lo, hi) ``pieces`` in order, with 0 <= lo < hi <= ``namespace_limit``,
    without building xs.

    The linear family evaluates ``a*x + b`` over a piece as one stepped
    uint64 ``arange`` from ``a*lo + b``: the namespace limit keeps every
    value in [0, 2^63), and the stop ``a*hi + b`` below 2^64.  murmur3 cuts
    each piece at the multiples of 2^33 and folds the mix's first xor-shift
    into one constant per cut: where x >> 33 is the same for every x,
    ``(x ^ s) ^ ((x ^ s) >> 33) == x ^ (s ^ (s >> 33) ^ (x >> 33))``, as a
    shift distributes over xor.  Both then reduce by the unsigned
    multiply-shift ``_reduce``.  The md5 family, and calls below
    ``_REDUCE_MIN_SIZE`` elements, go through ``hash_many``.
    """
    if (family.kind == FamilyKind.MD5
            or sum(hi - lo for lo, hi in pieces) < _REDUCE_MIN_SIZE):
        return hash_many(family, i, np.concatenate(
            [np.arange(lo, hi, dtype=np.int64) for lo, hi in pieces]))
    if family.kind == FamilyKind.SIMPLE_LINEAR:
        a, b = family.params[i]
        parts = [np.arange(a * lo + b, a * hi + b, a, dtype=np.uint64) for lo, hi in pieces]
    else:
        seed = family.params[i]
        fold = seed ^ (seed >> 33)
        parts = []
        for lo, hi in pieces:
            while lo < hi:
                stop = min(hi, ((lo >> 33) + 1) << 33)
                part = np.arange(lo, stop, dtype=np.uint64)
                part ^= np.uint64(fold ^ (lo >> 33))
                parts.append(part)
                lo = stop
    h = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if family.kind == FamilyKind.MURMUR3:
        _murmur_tail(h)
    return _reduce(h, np.uint64(family.m)).view(np.int64)


def preimage(family: HashFamily, i: int, s, namespace_size: int) -> np.ndarray:
    """All x in [0, namespace_size) whose h_i(x) is in ``s``, ascending.

    ``s`` is one bit index or an array of distinct ones.  Only the linear
    family supports this: bit s has preimage ``x0 + t*m`` with
    ``x0 = a^-1 (s - b) mod m``, listed t-major, so ascending without a
    sort, at cost proportional to |s| * namespace_size / m.
    """
    if not family.invertible:
        raise NotImplementedError(f"{family.kind.name} is not invertible")
    if not 0 <= i < family.k:
        raise IndexError(f"hash function index {i} out of range [0, {family.k})")
    s = np.atleast_1d(np.asarray(s, dtype=np.int64))
    if s.size and (s.min() < 0 or s.max() >= family.m):
        raise ValueError(f"bit index out of range [0, {family.m})")
    family.check_namespace(namespace_size)
    if namespace_size <= 0:
        return np.empty(0, dtype=np.int64)
    a, b = family.params[i]
    x0 = np.sort(pow(a, -1, family.m) * (s - b) % family.m)
    xs = (np.arange(0, namespace_size, family.m, dtype=np.int64)[:, None] + x0).ravel()
    return xs[:np.searchsorted(xs, namespace_size)]
