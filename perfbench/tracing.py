"""Span recording around qtwoparty's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a pass-through
wrapper as a module attribute (and each ``cli.RUNNERS`` entry), so callers
inside the package reach the wrapper unchanged. Every call records a span:
name, start and end (``perf_counter_ns``), parent span, run id (one per CLI
invocation or probe step) and two integer attributes. Spans stay in memory
and ``save`` writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

NO_ATTR = -1


def _dim(args, kwargs, out):
    a = np.asarray(args[0])
    return a.shape[0], int(np.iscomplexobj(a))


# (module attribute path, attributes recorded from (args, kwargs, result))
TRACED = (
    ("cli.main", None),
    ("consistency.candidate_from_vector", None),
    ("consistency.residual", None),
    ("consistency.search", lambda a, k, out: (out.evaluations, out.sweeps)),
    ("linalg.trace_distance", _dim),
    ("linalg.trace_norm", _dim),
    ("bc.build_w", lambda a, k, out: (out.shape[0], out.nbytes)),
    ("bc.compute_f", None),
    ("bc.compute_d", lambda a, k, out: (int(out.exact), NO_ATTR)),
    ("bc.cheat_report", lambda a, k, out: (int(out.d.exact), NO_ATTR)),
    ("ot.partial_security", None),
    ("qkd.simulate", lambda a, k, out: (a[0].n_pairs, NO_ATTR)),
    ("qkd.TrialData.write_csv", lambda a, k, out: (a[0].alice_setting.size, os.path.getsize(a[1]))),
    ("qkd.rate_analysis", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols: dict[str, list[int]] = {
            k: [] for k in ("name", "start", "end", "parent", "run", "a0", "a1")
        }
        self.stack = [-1]
        self.run = -1

    def wrap(self, fn, name: str, attrs=None):
        """Pass-through wrapper recording one span per call of ``fn``."""
        nid = len(self.names)
        self.names.append(name)
        c = self.cols
        names, starts, ends, parents, runs, a0, a1 = (
            c["name"], c["start"], c["end"], c["parent"], c["run"], c["a0"], c["a1"]
        )
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run)
            ends.append(0)
            a0.append(NO_ATTR)
            a1.append(NO_ATTR)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if attrs is not None:
                a0[i], a1[i] = attrs(args, kwargs, out)
            return out

        return wrapper

    def install(self, package) -> None:
        """Wrap every function in TRACED and every CLI runner of ``package``."""
        for path, attrs in TRACED:
            *owner_path, attr = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), path, attrs))
        runners = package.cli.RUNNERS
        for sub in list(runners):
            runners[sub] = self.wrap(runners[sub], "cli.runner." + sub)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            **{k: np.array(v, dtype=np.int64) for k, v in self.cols.items()},
        )
