"""Spans around the public entry points of each ``repro`` layer.

:meth:`Tracer.install` replaces each traced function or method with a
wrapper that records one span (kind, parent, start, end) per call, plus
an optional per-call quantity such as bytes or flows.  Module-level
functions are replaced in *every* loaded ``repro`` module that holds them,
so the by-name import aliases (``from .partition import encode_partition``)
are reached too; :meth:`Tracer.install` fails if any ``repro`` module
still holds an original afterwards.  :meth:`Tracer.restore` puts every
original back.

Spans live in flat arrays and are only folded into per-kind counts and
self times (:meth:`Tracer.summary`) when the run ends.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from functools import wraps
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SPAN_KINDS", "Tracer"]

#: Traced entry points: (module, attribute path, span kind, quantity).
#: Each has a kind of its own; ``quantity(args, result)`` is summed per
#: kind when given.
_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.core", "Simulator.step", "sim.step", None),
    ("repro.net.network", "Network.transfer", "net.transfer", None),
    ("repro.net.bandwidth", "max_min_rates", "net.max_min_rates",
     lambda args, result: len(args[0])),
    ("repro.net.bandwidth", "max_min_rates_vectorized",
     "net.max_min_rates_vectorized", lambda args, result: len(args[0])),
    ("repro.ipfs.block", "chunk_object", "ipfs.chunk_object",
     lambda args, result: len(args[0])),
    ("repro.ipfs.cid", "compute_cid", "ipfs.compute_cid", None),
    ("repro.ipfs.block", "reassemble", "ipfs.reassemble", None),
    ("repro.ipfs.blockstore", "Blockstore.put", "ipfs.blockstore_put", None),
    ("repro.ipfs.blockstore", "Blockstore.get", "ipfs.blockstore_get", None),
    ("repro.ipfs.blockstore", "Blockstore.collect_garbage",
     "ipfs.collect_garbage", None),
    ("repro.core.partition", "encode_partition", "core.encode_partition",
     lambda args, result: len(result)),
    ("repro.core.partition", "decode_partition", "core.decode_partition",
     None),
    ("repro.core.partition", "sum_encoded_partitions",
     "core.sum_encoded_partitions", None),
    ("repro.crypto.pedersen", "PedersenParams.setup", "crypto.setup", None),
    ("repro.core.verification", "PartitionCommitter.encode_and_commit",
     "crypto.encode_and_commit", None),
    ("repro.core.verification", "PartitionCommitter.verify_blob",
     "crypto.verify_blob", None),
    ("repro.core.verification", "PartitionCommitter.open_blob",
     "crypto.open_blob", None),
    ("repro.core.verification", "PartitionCommitter.accumulate",
     "crypto.accumulate", None),
    ("repro.crypto.multiexp", "multi_scalar_mult", "crypto.multi_scalar_mult",
     lambda args, result: len(args[0])),
    ("repro.ml.training", "local_update", "ml.local_update", None),
    ("repro.ml.training", "compute_gradient", "ml.compute_gradient", None),
    ("repro.ml.metrics", "evaluate_model", "ml.evaluate_model", None),
    ("repro.obs.bus", "EventBus.publish", "obs.publish", None),
)

#: The merge-and-download reduction, reached through its registry.
_MERGER = ("sum-f64", "ipfs.merger_sum_f64")

#: Every span kind a traced run can record.  ``round`` and
#: ``setup.session`` are opened by the benchmark itself.
SPAN_KINDS = ("round", "setup.session") + tuple(
    kind for _module, _path, kind, _quantity in _TARGETS) + (_MERGER[1],)


class Tracer:
    """Records spans while installed; one instance per run."""

    def __init__(self):
        self.kinds: List[str] = list(SPAN_KINDS)
        self._kind_ids = {kind: index for index, kind in enumerate(self.kinds)}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.quantity = array("d")
        self._stack = [-1]
        #: (owner, attribute, original value) in installation order.
        self._patches: List[Tuple[object, str, object]] = []
        self._merger = None
        #: span kind -> the wrappers installed for it.
        self.wrappers: Dict[str, List[Callable]] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, kind: str,
             quantity: Optional[Callable] = None) -> Callable:
        kind_id = self._kind_ids[kind]
        kinds, parents, starts, ends, quantities = (
            self.kind, self.parent, self.start, self.end, self.quantity)
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(kinds)
            kinds.append(kind_id)
            parents.append(stack[-1])
            ends.append(0.0)
            quantities.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if quantity is not None:
                quantities[index] = quantity(args, result)
            return result

        self.wrappers.setdefault(kind, []).append(traced)
        return traced

    def span(self, kind: str) -> "_Span":
        """A span the benchmark opens itself (``with tracer.span(...)``)."""
        return _Span(self, self._kind_ids[kind])

    def mark(self) -> int:
        """Index of the next span, to summarize only what follows."""
        return len(self.kind)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point; raises if an alias is missed."""
        from repro.ipfs.merge import get_merger, register_merger

        try:
            for module_name, path, kind, quantity in _TARGETS:
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for class_name in classes:
                    owner = getattr(owner, class_name)
                if classes:
                    self._patch_method(owner, attr, kind, quantity)
                else:
                    self._patch_function(getattr(owner, attr), kind,
                                         quantity)
            name, kind = _MERGER
            self._merger = get_merger(name)
            register_merger(name, self.wrap(self._merger, kind),
                            replace=True)
            missed = self.unpatched_aliases()
            if missed:
                raise RuntimeError(f"untraced aliases: {missed}")
        except BaseException:
            self.restore()
            raise

    def _patch_method(self, owner, attr: str, kind: str, quantity) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(self.wrap(original.__func__, kind,
                                               quantity))
        else:
            wrapper = self.wrap(original, kind, quantity)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_function(self, original, kind: str, quantity) -> None:
        wrapper = self.wrap(original, kind, quantity)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def unpatched_aliases(self) -> List[str]:
        """``module.name`` of every ``repro`` binding to a traced original."""
        originals = {id(original) for _owner, _attr, original
                     in self._patches}
        missed = []
        for module in _repro_modules():
            namespaces = [(module.__name__, vars(module))] + [
                (f"{module.__name__}.{value.__name__}", vars(value))
                for value in list(vars(module).values())
                if isinstance(value, type)
                and value.__module__ == module.__name__
            ]
            missed += [f"{prefix}.{attr}"
                       for prefix, namespace in namespaces
                       for attr, value in list(namespace.items())
                       if id(value) in originals]
        return sorted(missed)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        from repro.ipfs.merge import register_merger

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._merger is not None:
            register_merger(_MERGER[0], self._merger, replace=True)
            self._merger = None

    # -- folding -----------------------------------------------------------

    def summary(self, since: int = 0, until: Optional[int] = None
                ) -> Dict[str, Dict[str, float]]:
        """Per span kind: ``count``, ``total_s``, ``self_s``, ``quantity``
        over the spans recorded between the marks ``since`` and ``until``."""
        window = slice(since, until)
        kinds = np.frombuffer(self.kind, dtype=np.int32)[window]
        parents = np.frombuffer(self.parent, dtype=np.int32)[window] - since
        duration = (np.frombuffer(self.end)[window]
                    - np.frombuffer(self.start)[window])
        quantities = np.frombuffer(self.quantity)[window]
        count = len(kinds)
        covered = np.zeros(count)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        own = duration - covered
        width = len(self.kinds)
        counts = np.bincount(kinds, minlength=width)
        totals = np.bincount(kinds, weights=duration, minlength=width)
        selfs = np.bincount(kinds, weights=own, minlength=width)
        amounts = np.bincount(kinds, weights=quantities, minlength=width)
        return {
            kind: {"count": int(counts[index]),
                   "total_s": float(totals[index]),
                   "self_s": float(selfs[index]),
                   "quantity": float(amounts[index])}
            for index, kind in enumerate(self.kinds)
        }


class _Span:
    __slots__ = ("_tracer", "_kind", "_index")

    def __init__(self, tracer: Tracer, kind_id: int):
        self._tracer = tracer
        self._kind = kind_id

    def __enter__(self):
        tracer = self._tracer
        self._index = index = len(tracer.kind)
        tracer.kind.append(self._kind)
        tracer.parent.append(tracer._stack[-1])
        tracer.end.append(0.0)
        tracer.quantity.append(0.0)
        tracer._stack.append(index)
        tracer.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer.end[self._index] = time.perf_counter()
        tracer._stack.pop()


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
