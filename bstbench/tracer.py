"""Span tracing of the library's layers, done from outside the package.

The tracer wraps each layer's public entry points where their callers
look them up, records one span per call (name, start, end, parent span,
root span, element count) in flat arrays, and derives per-layer self
times afterwards.  A span's self time is its duration minus the
durations of its direct children, so the self times of every span under
one root add up to that root's duration exactly.

Nothing here is installed unless ``Tracer.installed()`` is entered; the
untraced benchmark run never touches the library's attributes.
"""
from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# span name -> layer reported for its self time
LAYER_OF = {
    "hashing.hash_many": "hashing",
    "bloom.contains_many": "bloom.contains",
    "bloom.insert_many": "bloom.insert",
    "bloom.insert": "bloom.insert",
    "bloom.union": "bloom.union",
    "bloom.to_bytes": "bloom.serialize",
    "bloom.from_bytes": "bloom.serialize",
    "estimate.intersection_estimate_counts": "estimate",
    "baselines.da_reconstruct": "baselines.da",
    "baselines.hi_reconstruct": "baselines.hi",
}
TREE_METHODS = ("build_full", "build_pruned", "insert", "sample", "sample_many",
                "reconstruct", "to_bytes", "from_bytes")
for _name in TREE_METHODS:
    LAYER_OF[f"bst.{_name}"] = "bst"
LAYERS = ("bench", "bst", "estimate", "bloom.contains", "hashing", "bloom.insert",
          "bloom.union", "bloom.serialize", "baselines.da", "baselines.hi")


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """In-memory span recorder; spans are appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.root = array("i")
        self.count = array("q")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str, count: int = 0) -> int:
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.count.append(count)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int, count: int | None = None) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        if count is not None:
            self.count[idx] = count

    def _wrap(self, fn, name, count_args=None, count_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, count_args(args) if count_args else 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if count_result is not None:
                self.count[idx] = count_result(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        from bloomsampletree import baselines, bloom, bst, hashing

        bf, tree = bloom.BloomFilter, bst.BloomSampleTree
        hash_many = self._wrap(hashing.hash_many, "hashing.hash_many",
                               count_args=lambda a: _size(a[2]))
        patches = [
            (bloom, "hash_many", hash_many),
            # baselines imports hash_many from hashing inside a function
            (hashing, "hash_many", hash_many),
            (bst, "intersection_estimate_counts",
             self._wrap(bst.intersection_estimate_counts,
                        "estimate.intersection_estimate_counts")),
            (baselines, "da_reconstruct",
             self._wrap(baselines.da_reconstruct, "baselines.da_reconstruct")),
            (baselines, "hi_reconstruct",
             self._wrap(baselines.hi_reconstruct, "baselines.hi_reconstruct")),
            (bf, "contains_many", self._wrap(bf.contains_many, "bloom.contains_many",
                                             count_args=lambda a: _size(a[1]))),
            (bf, "insert_many", self._wrap(bf.insert_many, "bloom.insert_many",
                                           count_args=lambda a: len(a[1]))),
            (bf, "insert", self._wrap(bf.insert, "bloom.insert")),
            (bf, "union", self._wrap(bf.union, "bloom.union")),
            (bf, "to_bytes", self._wrap(bf.to_bytes, "bloom.to_bytes",
                                        count_result=len)),
            (bf, "from_bytes", classmethod(self._wrap(
                bf.__dict__["from_bytes"].__func__, "bloom.from_bytes",
                count_result=lambda r: r[0].words.nbytes))),
        ]
        for name in TREE_METHODS:
            attr = tree.__dict__[name]
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(attr.__func__, f"bst.{name}"))
            else:
                wrapped = self._wrap(attr, f"bst.{name}")
            patches.append((tree, name, wrapped))
        saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
        try:
            for obj, name, value in patches:
                setattr(obj, name, value)
            yield self
        finally:
            for obj, name, value in saved:
                setattr(obj, name, value)

    # analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "root": np.frombuffer(self.root, dtype=np.int32),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span self time in ns: duration minus direct children's durations."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child.astype(np.int64)

    def layer_of_names(self) -> list[str]:
        return [LAYER_OF.get(n, "bench") for n in self.names]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
