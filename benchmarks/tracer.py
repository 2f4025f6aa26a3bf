"""Outside-in tracing of the si_subnyq layers.

``Tracer.install()`` replaces each traced public function with a wrapper in
every si_subnyq module that binds it, so the wrapper runs under whichever
name the caller looks up (``experiments.kruskal_rank`` and
``scenarios.kruskal_rank`` alike). Nothing under ``src/`` is edited.

Each call becomes a span (name, start, end, parent span, trial index) kept in
memory and written out by ``write_spans`` when the run ends. A span's self
time is its duration minus the time its child spans cover. In the serial run
a trial ends when its ``ctf.recover`` returns, which advances the trial index.

Besides spans the wrappers count work exactly, from the arguments and
results of the calls: support subsets scanned by the exhaustive solver and
frequency bins demodulated.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "ctf": ("recover", "demodulate", "compute_q", "frame_from_q",
            "solve_mmv_exhaustive", "solve_mmv_somp", "recover_coefficients"),
    "sampling_design": ("make_cs_matrix", "kruskal_rank", "make_design",
                        "compressive_sample", "biorthogonalize",
                        "build_sampling_filters"),
    "sparse_model": ("synthesize",),
    "si_core": ("cross_spectrum_matrix",),
    "scenarios": ("build_periodic_sparsity", "build_multiband"),
    "experiments": ("run_experiment",),
}
PACKAGE = "si_subnyq"
TRIAL_END = "ctf.recover"


def lex_rank(combo, m: int) -> int:
    """0-based position of the sorted subset ``combo`` of range(m) in the
    order of ``itertools.combinations(range(m), len(combo))``."""
    s = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += math.comb(m - 1 - v, s - 1 - i)
        prev = c
    return rank


def subsets_scanned(m: int, support) -> int:
    """Subsets ``ctf.solve_mmv_exhaustive`` scans before returning ``support``:
    every subset of sizes 1..s-1, then the size-s subsets up to and including
    ``support`` in lexicographic order. An empty support is returned before
    any scan."""
    s = len(support)
    if s == 0:
        return 0
    return (sum(math.comb(m, j) for j in range(1, s))
            + lex_rank(sorted(support), m) + 1)


def subsets_exhausted(m: int, k_max: int) -> int:
    """Subsets scanned by a search that finds no support of size <= k_max."""
    return sum(math.comb(m, j) for j in range(1, k_max + 1))


class Tracer:
    def __init__(self):
        # Spans are (name, start, end, parent index or -1, trial index).
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.trial = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._infeasible = None

    def _wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            trial = tracer.trial
            start = time.perf_counter()
            result = error = None
            finished = False
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans[frame[0]] = (
                    name, start, end, -1 if parent is None else parent[0], trial)
                if on_call is not None and (finished or error is not None):
                    on_call(args, kwargs, result, error)
                if name == TRIAL_END:
                    tracer.trial += 1

        return traced

    def _count_exhaustive(self, args, kwargs, result, error):
        prob = args[0] if args else kwargs["prob"]
        m = prob.A.shape[1]
        if error is None:
            self.counts["subsets_scanned"] += subsets_scanned(m, result)
        elif isinstance(error, self._infeasible):
            self.counts["subsets_scanned"] += subsets_exhausted(m, prob.k_max)

    def _count_demodulate(self, args, kwargs, result, error):
        y = args[0] if args else kwargs["y"]
        self.counts["demodulate_bins"] += y.length

    def install(self) -> None:
        self._infeasible = importlib.import_module(f"{PACKAGE}.errors").InfeasibleError
        homes = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in TRACED}
        hooks = {"ctf.solve_mmv_exhaustive": self._count_exhaustive,
                 "ctf.demodulate": self._count_demodulate}
        modules = [mod for key, mod in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, names in TRACED.items():
            home = homes[module_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                name = f"{module_name}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,trial\n")
            for name, start, end, parent, trial in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{trial}\n")
