"""Span tracer that wraps the public functions of the strqkd layer modules.

Tracing patches module attributes, so calls between functions of one module
resolve through the patched globals and spans nest.  Only names without a
leading underscore are wrapped; private helpers run inside their caller's
span.  Spans are held in flat arrays and written once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "relay", "qubit", "keyrate", "decoy")


class Tracer:
    """Records one span per call of a wrapped function: name, start, end and
    the id of the enclosing span (-1 at top level)."""

    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.link_counts: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _observe(self, name: str, args: tuple, result) -> None:
        # Exact counts read at the relay boundary from public attributes.
        if name == "relay.run_quantum_phase":
            rounds = args[0].rounds
            for i, link in enumerate(result):
                _add(self.link_counts["drawn"], i, rounds)
                _add(self.link_counts["sifted"], i, len(link))
        elif name == "relay.pair_and_announce":
            self.counts["paired"] += len(result.alice_bits)
            self.counts["links_paired"] += len(args[0]) * len(result.alice_bits)

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        starts, ends, parents, name_idx = self.start, self.end, self.parent, self.name_idx
        observed = name in ("relay.run_quantum_phase", "relay.pair_and_announce")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_idx.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        # A public function is wrapped in every layer module that holds it,
        # including one imported from another layer (decoy and qubit call
        # keyrate.binary_entropy through their own globals); the span is
        # named after the module that defines it.
        layer_of = {mod.__name__: mod.__name__.rsplit(".", 1)[-1] for mod in self.modules}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ not in layer_of
                ):
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{layer_of[obj.__module__]}.{attr}", obj))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-function call count, inclusive and self seconds; per-layer
        self seconds; calls of decoy rate functions made by the optimiser."""
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        funcs = {
            n: {"calls": int(calls[i]), "inclusive_s": float(incl[i]), "self_s": float(excl[i])}
            for i, n in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for n, f in funcs.items():
            layers[n.split(".", 1)[0]] += f["self_s"]
        opt = self.names.index("decoy.optimize_intensity")
        rate_fns = [self.names.index(f"decoy.{n}") for n in ("decoy_rate", "conventional_decoy_rate")]
        from_opt = nested.copy()
        from_opt[nested] = names[parent[nested]] == opt
        rate_evals = int(np.isin(names[from_opt], rate_fns).sum())
        return {
            "spans": len(dur),
            "functions": funcs,
            "layer_self_s": layers,
            "rate_evals_in_optimize": rate_evals,
            "counts": dict(self.counts),
            "link_counts": {k: list(v) for k, v in self.link_counts.items()},
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_idx, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _add(values: list[int], i: int, amount: int) -> None:
    values.extend([0] * (i + 1 - len(values)))
    values[i] += amount
