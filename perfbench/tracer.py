"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each public function at every name a caller
looks it up by (the attribute of each `valring` module that holds it,
or the `Ring` method) with a wrapper that times the call and updates
counters; `uninstall` puts the originals back.  `src/` is not touched.

A layer's self time is a span's duration minus the time of the spans
it caused on the same thread.  Spans opened in the scan and search
thread pools have no parent on their own thread, so their time counts
in full, and the scan/search self time on the main thread is mostly
the wait for the pool.  Spans are summed per layer while a round runs
and read out with `take`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import valring
import valring.cli
import valring.graph
import valring.ring
import valring.sets
import valring.verify
from valring.ring import Ring

_MODULES = (valring, valring.ring, valring.sets, valring.graph, valring.verify, valring.cli)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _elems(layer):
    def count(result, args, kwargs, pre):
        return ((f"{layer}.calls", 1), (f"{layer}.elems", int(result.size)))
    return count


def _calls(layer):
    def count(result, args, kwargs, pre):
        return ((f"{layer}.calls", 1),)
    return count


def _pair_cells(result, args, kwargs, pre):
    left = _arg(args, kwargs, 1, "left_rows")
    right = _arg(args, kwargs, 2, "right_rows")
    return (("graph.pair_edge_count.cells", len(left) * len(right)),)


_BUILD_GRAPH = valring.graph.build_graph  # the lru-cached original


def _graph_misses(args, kwargs):
    return _BUILD_GRAPH.cache_info().misses


def _build_cells(result, args, kwargs, pre):
    built = _BUILD_GRAPH.cache_info().misses > pre
    return (("graph.build_graph.cells", result.n_classes ** 2 if built else 0),)


def _spectrum_cold(args, kwargs):
    return _arg(args, kwargs, 0, "graph")._singular is None


def _spectrum_side(result, args, kwargs, pre):
    return (("graph.spectrum.side", len(result) if pre else 0),)


def _mixing_trials(result, args, kwargs, pre):
    return (("graph.mixing.trials", int(result["trials"])),)


def _embed_rows(result, args, kwargs, pre):
    rows = sum(len(side) for side in (result.u_rows, result.v_rows) if side is not None)
    return (("graph.embed.rows", rows),)


def _route(result, args, kwargs, pre):
    mode = result.embed["mode"].replace("-", "_")
    return ((f"verify.route.{mode}", 1),)


def _scan_trials(result, args, kwargs, pre):
    return (("verify.scan.trials", len(result["sizes"]) * int(result["trials"])),)


def _search_evals(result, args, kwargs, pre):
    return (("verify.search.evals", len(result["trace"])),)


def _fold_tuples(result, args, kwargs, pre):
    return (("sets.fold.tuples", len(result)),)


# (layer, owner, attribute, counter, pre-call hook).  An owner is a class
# or the module that defines the function; a layer may collect several.
SPANS = (
    ("ring.add_many", Ring, "add_many", _elems("ring.add_many"), None),
    ("ring.sub_many", Ring, "sub_many", None, None),
    ("ring.mul_many", Ring, "mul_many", _elems("ring.mul_many"), None),
    ("ring.inverse_table", Ring, "inverse_table", None, None),
    ("sets.sumset", valring.sets, "sumset", _calls("sets.sumset"), None),
    ("sets.square_set", valring.sets, "square_set", None, None),
    ("sets.fold", valring.sets, "count_form_solutions", None, None),
    ("sets.fold", valring.sets, "form_energy", None, None),
    ("sets.fold", valring.sets, "form_value_histogram", None, None),
    ("graph.pair_edge_count", valring.graph, "pair_edge_count", _pair_cells, None),
    ("graph.build_graph", valring.graph, "build_graph", _build_cells, _graph_misses),
    ("graph.spectrum", valring.graph, "spectrum", _spectrum_side, _spectrum_cold),
    ("graph.mixing", valring.graph, "mixing_random_pairs", _mixing_trials, None),
    ("graph.embed", valring.graph, "embed_solution_sets", _embed_rows, None),
    ("graph.embed", valring.graph, "embed_energy_sets", _embed_rows, None),
    ("graph.canonicalize_rows", valring.graph, "canonicalize_rows", None, None),
    ("graph.edge_count", valring.graph, "edge_count", None, None),
    ("verify.pipeline", valring.verify, "verify_thm1_pipeline", _route, None),
    ("verify.pipeline", valring.verify, "verify_thm2_pipeline", _route, None),
    ("verify.scan", valring.verify, "bound_ratio_scan", _scan_trials, None),
    ("verify.search", valring.verify, "extremal_search", _search_evals, None),
    ("cli.run", valring.cli, "run", None, None),
)

# Counted but not timed: the private fold helper returns one value per tuple.
COUNTS_ONLY = ((valring.sets, "_form_values", _fold_tuples),)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner object, attribute, original)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- accounting ------------------------------------------------------------

    def add_count(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] += value

    def take(self):
        """Return and reset (self time per layer, counts) of the spans so far."""
        with self._lock:
            out = dict(self.self_s), dict(self.counts)
            self.self_s.clear()
            self.counts.clear()
        return out

    def _record(self, layer, self_time, count, result, args, kwargs, pre):
        pairs = count(result, args, kwargs, pre) if count else ()
        with self._lock:
            if layer is not None:
                self.self_s[layer] += self_time
            for key, value in pairs:
                self.counts[key] += value

    # -- wrappers --------------------------------------------------------------

    def _span(self, layer, fn, count, pre_hook):
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            pre = pre_hook(args, kwargs) if pre_hook else None
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
            self._record(layer, elapsed - children, count, result, args, kwargs, pre)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._record(None, 0.0, count, result, args, kwargs, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, make) -> None:
        """Put make(original) at every name callers look the function up by."""
        original = vars(owner)[attr]
        wrapper = make(original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for m in _MODULES if vars(m).get(attr) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, owner, attr, count, pre in SPANS:
            self._replace(owner, attr, lambda fn: self._span(layer, fn, count, pre))
        for owner, attr, count in COUNTS_ONLY:
            self._replace(owner, attr, lambda fn: self._counter(fn, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
