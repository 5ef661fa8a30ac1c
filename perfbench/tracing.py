"""Per-layer spans recorded from outside the library.

The traced run replaces module attributes (the library's public functions,
as each caller looks them up) with timing wrappers, so no code inside the
library changes. Every call becomes a span with a name, start, end, the
span that caused it and the benchmark run it belongs to. Spans stay in
memory and are aggregated, or written out, when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

PROBE_SIZES = (10, 50, 200)
PROBE_REPEATS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: int  # benchmark run index; probes use negative indices
    count: int = 0  # work the call reports: points scored, nfev, front size

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open one."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, self.run))

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr``; ``count(result)`` gives its work."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    span.count = int(count(result))
                return result
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(asdict(s)) + "\n" for s in self.spans))

    def ancestors(self, span: Span) -> list[str]:
        names = []
        while span.parent >= 0:
            span = self.spans[span.parent]
            names.append(span.name)
        return names

    def totals(self, runs: range) -> tuple[dict, dict, dict, dict]:
        """Per span name over ``runs``: seconds, self seconds, calls, counts."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.run not in runs:
                continue
            total[span.name] += span.seconds
            own[span.name] += span.seconds
            calls[span.name] += 1
            counts[span.name] += span.count
            if span.parent >= 0:
                own[self.spans[span.parent].name] -= span.seconds
        return total, own, calls, counts


def install(tracer: Tracer, workloads_module) -> None:
    """Wrap each layer's public functions at the boundary its caller uses."""
    from paretobo import acquisition, cost, diagnostics, engine, surrogate

    tracer.wrap(workloads_module, "run", "engine.run")
    tracer.wrap(engine.Trace, "write", "engine.trace_write")
    tracer.wrap(engine, "gp_fit", "surrogate.gp_fit")
    tracer.wrap(surrogate, "minimize", "surrogate.lbfgs", count=lambda r: r.nfev)
    tracer.wrap(engine, "fit_cost_model_unit", "cost.fit")
    tracer.wrap(cost, "gp_fit", "cost.gp_fit")
    tracer.wrap(cost.CostModel, "predict_unit", "cost.predict")
    tracer.wrap(acquisition, "propose", "acquisition.propose")
    tracer.wrap(acquisition, "generate_candidates", "acquisition.generate")
    tracer.wrap(acquisition, "score_candidates", "acquisition.score", count=len)
    tracer.wrap(acquisition, "select", "acquisition.select")
    tracer.wrap(acquisition, "pareto_front", "acquisition.front", count=len)
    tracer.wrap(engine, "implied_alpha", "acquisition.implied_alpha")
    tracer.wrap(engine, "front_persistence", "diagnostics.persistence")
    for module in (acquisition, diagnostics):
        tracer.wrap(module, "gp_posterior_many", "surrogate.posterior", count=lambda r: len(r[0]))


def layer_metrics(tracer: Tracer, round_runs: list, setup_s: float, import_s: float) -> dict:
    """Per-layer metrics over round 1, which is the same work on every commit.

    Values are (value, unit). ``round_runs`` are the round's recorded runs,
    with their ledgers and trace sizes.
    """
    total, own, calls, counts = tracer.totals(range(len(round_runs)))
    objective_lbfgs = [
        s
        for s in tracer.spans
        if 0 <= s.run < len(round_runs)
        and s.name == "surrogate.lbfgs"
        and "cost.gp_fit" not in tracer.ancestors(s)
    ]
    nfev = sum(s.count for s in objective_lbfgs)
    repeats = 0
    for recorded in round_runs:
        points = [tuple(point) for _, _, point, _, _ in recorded.ledger]
        repeats += len(points) - len(set(points))
    return {
        "surrogate.gp_fit_s": (total["surrogate.gp_fit"], "s"),
        "surrogate.gp_fit_calls": (calls["surrogate.gp_fit"], "count"),
        "surrogate.lbfgs_nfev": (nfev, "count"),
        "surrogate.us_per_nfev": (1e6 * sum(s.seconds for s in objective_lbfgs) / nfev, "us"),
        "surrogate.posterior_s": (total["surrogate.posterior"], "s"),
        "surrogate.posterior_points": (counts["surrogate.posterior"], "count"),
        "cost.fit_s": (total["cost.fit"], "s"),
        "cost.predict_s": (total["cost.predict"], "s"),
        "acquisition.generate_s": (total["acquisition.generate"], "s"),
        "acquisition.score_s": (own["acquisition.score"], "s"),
        "acquisition.candidates_scored": (counts["acquisition.score"], "count"),
        "acquisition.select_s": (own["acquisition.select"], "s"),
        "acquisition.front_s": (total["acquisition.front"], "s"),
        "acquisition.front_size": (counts["acquisition.front"], "count"),
        "acquisition.implied_alpha_s": (total["acquisition.implied_alpha"], "s"),
        "engine.run_s": (total["engine.run"], "s"),
        "engine.self_s": (own["engine.run"], "s"),
        "engine.trace_write_s": (total["engine.trace_write"], "s"),
        "engine.trace_bytes": (sum(r.trace_bytes for r in round_runs), "bytes"),
        "engine.repeat_evals": (repeats, "count"),
        "bench.setup_s": (setup_s, "s"),
        "bench.evaluate_s": (total["bench.evaluate"], "s"),
        "bench.evaluate_calls": (calls["bench.evaluate"], "count"),
        "import_s": (import_s, "s"),
    }


def gp_fit_probe(tracer: Tracer, objective) -> dict:
    """``gp_fit`` (2 restarts) on fixed seeded data in 3-d at each probe size.

    Reports the median time of 3 fits and the L-BFGS-B evaluations of one.
    """
    from paretobo import surrogate

    metrics = {}
    rng = np.random.default_rng(0)
    for n in PROBE_SIZES:
        X = rng.uniform(size=(n, 3))
        y = np.array([objective(x) for x in X])
        tracer.run = -n
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            surrogate.gp_fit(X, y, restarts=2, rng=np.random.default_rng(0))
            times.append(time.perf_counter() - start)
        nfev = sum(s.count for s in tracer.spans if s.run == -n and s.name == "surrogate.lbfgs")
        metrics[f"surrogate.gp_fit_ms.n{n}"] = (1e3 * statistics.median(times), "ms")
        metrics[f"surrogate.lbfgs_nfev.n{n}"] = (nfev // PROBE_REPEATS, "count")
    return metrics


def report_split(tracer: Tracer, runs: int, expected: str) -> None:
    """Print each layer's share of engine.run over round 1, and the largest."""
    total = tracer.totals(range(runs))[0]
    layers = {
        "surrogate": total["surrogate.gp_fit"],
        "cost": total["cost.fit"],
        "acquisition+diagnostics": total["acquisition.propose"]
        + total["acquisition.implied_alpha"]
        + total["diagnostics.persistence"],
    }
    run_s = total["engine.run"]
    shares = ", ".join(f"{k} {100 * v / run_s:.1f}%" for k, v in layers.items())
    largest = max(layers, key=layers.get)
    verdict = "as expected" if largest == expected else f"EXPECTED {expected}"
    print(f"layer split of engine.run ({run_s:.2f} s): {shares}; largest {largest} ({verdict})")
    print(
        f"  not listed as metrics: cost.gp_fit_s {total['cost.gp_fit']:.4f} s, "
        f"diagnostics.persistence_s {total['diagnostics.persistence']:.4f} s"
    )
