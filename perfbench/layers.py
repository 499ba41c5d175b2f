"""Per-layer metrics from the spans of a traced run.

A metric is computed over the spans of the workload's rounds; when they
hold no call it measures, over the probe steps' spans instead (see
``probes``). Per-call figures are means over all calls (of one dimension,
where the name carries one). Per-round figures are medians over rounds of
a per-round sum.
"""

from __future__ import annotations

import statistics

import numpy as np

import probes
import workloads

SUBCOMMANDS = ("ot-feasibility", "bc-analyze", "qkd-demon")
DENSE_DIMS = (1024, 2048, 4096)
SMALL_DIM = 8


class Spans:
    """Spans of one set of run ids, with durations, self times and round labels."""

    def __init__(self, data, run_round: dict[int, int], runs):
        runs = np.asarray(sorted(runs), dtype=np.int64)
        dur = data["end"] - data["start"]
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = data["parent"] >= 0
        np.add.at(child, data["parent"][has_parent], dur[has_parent])
        keep = np.isin(data["run"], runs)
        self.names = list(data["names"])
        self.name = data["name"][keep]
        self.dur = dur[keep]
        self._all_self = dur - child
        self.self_time = self._all_self[keep]
        self.a0, self.a1 = data["a0"][keep], data["a1"][keep]
        self.parent = data["parent"][keep]
        self.round = np.array([run_round[r] for r in data["run"][keep]], dtype=np.int64)
        self.rounds = sorted({run_round[r] for r in runs.tolist()})

    def of(self, name: str) -> np.ndarray:
        return self.name == self.names.index(name) if name in self.names else np.zeros(self.name.size, bool)

    def per_round(self, mask, values):
        """Median over rounds of the per-round sum; None if no span matches."""
        if not mask.any():
            return None
        return statistics.median(float(values[mask & (self.round == r)].sum()) for r in self.rounds)

    def mean(self, mask, values):
        return float(values[mask].mean()) if mask.any() else None

    def maximum(self, mask, values):
        return float(values[mask].max()) if mask.any() else None

    def ratio(self, mask, num, den):
        return float(num[mask].sum() / den[mask].sum()) if mask.any() else None

    def runner_self(self, sub: str):
        """Per round: runner and cli.main time outside every layer span, summed."""
        mask = self.of("cli.runner." + sub)
        if not mask.any():
            return None
        parent_self = self._all_self[self.parent]
        return self.per_round(mask, self.self_time + parent_self)


def _eigh_flops(n: int, complex_: bool) -> float:
    """Computed flops of a Hermitian eigenvalue-only decomposition: (4/3) n^3 real, x4 complex."""
    return (16.0 if complex_ else 4.0) / 3.0 * float(n) ** 3


def metric_table():
    """(name, unit, function of Spans) for every span-derived per-layer metric."""
    ns, us, ms, s = 1.0, 1e-3, 1e-6, 1e-9  # from nanoseconds
    m = []

    def add(name, unit, fn):
        m.append((name, unit, fn))

    add("consistency.candidate_from_vector_us", "us",
        lambda S: _scale(S.mean(S.of("consistency.candidate_from_vector"), S.dur), us))
    add("consistency.residual_us", "us", lambda S: _scale(S.mean(S.of("consistency.residual"), S.dur), us))
    add("consistency.eval_us", "us",
        lambda S: _scale(S.ratio(S.of("consistency.search"), S.dur, S.a0), us))
    add("consistency.search_self_s", "s",
        lambda S: _scale(S.per_round(S.of("consistency.search"), S.self_time), s))
    add("consistency.evaluations", "count", lambda S: S.per_round(S.of("consistency.search"), S.a0))
    add("consistency.sweeps", "count", lambda S: S.per_round(S.of("consistency.search"), S.a1))
    for dim in DENSE_DIMS:
        add(f"linalg.trace_distance_ms.{dim}", "ms",
            lambda S, dim=dim: _scale(S.mean(S.of("linalg.trace_distance") & (S.a0 == dim), S.dur), ms))

    def gflops(S):
        mask = S.of("linalg.trace_distance") & (S.a0 == 4096)
        t = S.mean(mask, S.dur)
        return None if t is None else _eigh_flops(4096, bool(S.a1[mask].max())) / t

    add("linalg.trace_distance_gflop_s.4096", "GFLOP/s", gflops)
    add("linalg.trace_norm_us.small", "us",
        lambda S: _scale(S.mean(S.of("linalg.trace_norm") & (S.a0 <= SMALL_DIM), S.dur), us))
    add("linalg.trace_distance_us.small", "us",
        lambda S: _scale(S.mean(S.of("linalg.trace_distance") & (S.a0 <= SMALL_DIM), S.dur), us))
    add("bc.build_w_ms.4096", "ms",
        lambda S: _scale(S.mean(S.of("bc.build_w") & (S.a0 == 4096), S.dur), ms))
    add("bc.compute_d_exact_s", "s",
        lambda S: _scale(S.per_round(S.of("bc.compute_d") & (S.a0 == 1), S.dur), s))
    add("bc.w_mib", "MiB", lambda S: _scale(S.maximum(S.of("bc.build_w"), S.a1), 1 / 2**20))
    add("bc.compute_d_interval_us", "us",
        lambda S: _scale(S.mean(S.of("bc.compute_d") & (S.a0 == 0), S.dur), us))
    add("bc.compute_f_us", "us", lambda S: _scale(S.mean(S.of("bc.compute_f"), S.dur), us))
    add("bc.cheat_report_self_us", "us", lambda S: _scale(S.mean(S.of("bc.cheat_report"), S.self_time), us))
    add("bc.rows_exact", "count", lambda S: S.per_round(S.of("bc.cheat_report"), S.a0 == 1))
    add("bc.rows_interval", "count", lambda S: S.per_round(S.of("bc.cheat_report"), S.a0 == 0))
    add("ot.partial_security_us", "us", lambda S: _scale(S.mean(S.of("ot.partial_security"), S.dur), us))
    add("qkd.simulate_ns_per_pair", "ns", lambda S: _scale(S.ratio(S.of("qkd.simulate"), S.dur, S.a0), ns))
    add("qkd.write_csv_ns_per_row", "ns",
        lambda S: _scale(S.ratio(S.of("qkd.TrialData.write_csv"), S.dur, S.a0), ns))
    add("qkd.csv_mib", "MiB",
        lambda S: _scale(S.per_round(S.of("qkd.TrialData.write_csv"), S.a1), 1 / 2**20))
    for sub in SUBCOMMANDS:
        add(f"cli.runner_self_ms.{sub}", "ms", lambda S, sub=sub: _scale(S.runner_self(sub), ms))
    return m


def _scale(value, factor):
    return None if value is None else value * factor


def per_layer(spans_path, worker: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run: {name: (value, unit)}."""
    with np.load(spans_path) as f:
        data = {k: f[k] for k in f.files}
    records = worker["records"]
    run_round = {i: r["round"] for i, r in enumerate(records)}
    workload_runs = [i for i, r in enumerate(records) if r["round"] >= 0]
    family_runs = {r["sub"][len(probes.RESIDUAL_FAMILY_PREFIX):]: i for i, r in enumerate(records)
                   if r["sub"].startswith(probes.RESIDUAL_FAMILY_PREFIX)}
    probe_runs = [i for i, r in enumerate(records) if r["round"] < 0 and i not in family_runs.values()]
    workload = Spans(data, run_round, workload_runs)
    probe = Spans(data, run_round, probe_runs)

    out = {}
    for name, unit, fn in metric_table():
        value = fn(workload)
        if value is None:
            value = fn(probe)
        if value is None:
            raise RuntimeError(f"no span measures {name}")
        out[name] = (value, unit)
    for fam in workloads.FAMILIES:
        spans = Spans(data, run_round, [family_runs[fam]])
        out[f"consistency.residual_family_us.{fam}"] = (
            spans.mean(spans.of("consistency.residual"), spans.dur) * 1e-3, "us")
    out["cli.import_s"] = (worker["import_s"], "s")
    out["trace.run_s"] = (statistics.median(r["s"] for r in worker["rounds"]), "s")
    out["trace.spans_per_round"] = (
        statistics.median(float((workload.round == r).sum()) for r in workload.rounds), "count")
    return out
