"""Spans around the public functions of each gnl layer, for the traced run.

``Tracer.install()`` replaces every public function of the layer modules
with a timing wrapper in each gnl namespace that holds it: the module
attribute that ``cli`` looks up (``nullifiers.nullifier_space``), the
module global that a sibling calls (``fock.state_from_k`` from
``nullifier_residual``) and the names bound by ``from ... import``
(``nullifiers.generator_to_unitary``). ``uninstall()`` puts the originals
back, so untraced runs execute the program untouched.

Each span records its duration under its own name and under the pair
(parent name, name), and adds it to its parent's child time, so a span's
self time is its duration minus the time its child spans cover. Totals are
kept in memory and read out when the run ends.
"""

import functools
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "schwinger", "nullifiers", "states", "fock")


def _even_tuples(n, cutoff):
    return sum(math.comb(t + n - 1, n - 1) for t in range(0, cutoff + 1, 2))


def _count_kernel(counts, result):
    counts["nullifiers.kernel_dim"] += result.dimension


def _count_amplitudes(counts, result):
    counts["fock.amplitudes_kept"] += len(result.amplitudes)
    counts["fock.even_tuples"] += _even_tuples(result.n_modes, result.cutoff)


# per-span counters read from a layer's return value
HOOKS = {
    "nullifiers.nullifier_space": _count_kernel,
    "fock.state_from_k": _count_amplitudes,
}


class Tracer:
    """Call counts, inclusive and self time per span name, in memory."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            parent = self._stack[-1] if self._stack else [None, 0.0]
            parent[1] += dur
            self.edges[(parent[0], name)] += dur
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self.counts, result)
        return result

    def install(self, package):
        """Wrap the public functions of every layer module of package."""
        modules = {name: getattr(package, name) for name in LAYERS + ("cli",)}
        names = {}
        for short in LAYERS:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def module_self(self, layer):
        """Seconds of self time spent in the functions of one layer."""
        return sum(t for name, t in self.self_time.items()
                   if name.startswith(layer + "."))

    def entered_from_outside(self, group):
        """Seconds in spans of group whose parent is not in group."""
        return sum(t for (parent, name), t in self.edges.items()
                   if name in group and parent not in group)
