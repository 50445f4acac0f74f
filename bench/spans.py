"""Span recording for the benchmark's traced runs.

The program is not edited.  ``Tracer.install`` replaces the module-level
references through which the layers call each other (``cli.integrate``,
``cli.classify_limit``, ``sgd.integrate``, ``acceptance.run_criteria`` ...)
with wrappers that record a span (name, start, end, parent) around each
call; ``uninstall`` puts the originals back.  Spans are kept in memory
and written out once, at the end of the run.

Layers are the modules of ``vanishdamp``.  ``schedule`` and ``potential``
are only called from inside the stepper loops and are measured as part
of ``integrate``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional

from workloads import CRITERIA, clock_free

PACKAGE = "vanishdamp"
LAYERS = ("integrate", "analyze", "sgd", "cli", "config", "oracle", "acceptance")

# private CLI functions that format and write the artifacts
WRITERS = ("_series_csv", "_events_csv", "_path_csv", "_atomic_write")

ANALYZE_NAMED = ("classify_limit", "lower_bound_residual", "rate_fit")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.info: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _integrate_info(args, kwargs, traj) -> dict:
    stats = traj.stats
    return {
        "n": traj.n,
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "rhs_evals": stats.rhs_evals,
        "stride": stats.stride,
        "events": len(traj.events),
        "samples": len(traj.ts),
    }


def _recursion_info(args, kwargs, path) -> dict:
    return {"dim": path.dim, "steps": path.n_steps}


def _write_info(args, kwargs, _result) -> dict:
    # artifacts are ASCII (JSON is dumped with ensure_ascii), so characters
    # are bytes, and no 10 MB encode runs inside the traced CLI span; the
    # JSON summaries are small and are counted without their clock lines,
    # so the count repeats exactly
    path, text = args
    if path.suffix == ".json":
        return {"bytes": sum(map(len, clock_free(text.splitlines(keepends=True))))}
    return {"bytes": len(text)}


_INFO: Dict[str, Callable] = {
    "integrate.integrate": _integrate_info,
    "sgd.run_recursion": _recursion_info,
    "cli.atomic_write": _write_info,
}


class Tracer:
    """Records spans around calls into each layer of ``vanishdamp``."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.spans: List[Span] = []
        # the trajectory of the last integrate call made directly by the CLI
        self.last_trajectory = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        info = _INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            if name == "integrate.integrate" and span.parent >= 0 \
                    and tracer.spans[span.parent].layer == "cli":
                tracer.last_trajectory = result
            return result

        return traced

    def _wrap_criteria(self, fn: Callable) -> Callable:
        """``run_criteria`` with one span per criterion.

        The suite reports each criterion through its progress callback as
        it finishes, so the span of a criterion runs from the previous
        callback (or the start) to its own, and holds every call the
        criterion made, fixture builds included.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(ids=None, progress=None):
            outer = tracer._open("acceptance.run_criteria")
            current = [tracer._open("acceptance.criterion")]

            def on_result(result):
                span = current[0]
                span.name = f"acceptance.{result.criterion_id}"
                tracer._close(span)
                if progress is not None:
                    progress(result)
                current[0] = tracer._open("acceptance.criterion")

            try:
                return fn(ids=ids, progress=on_result)
            finally:
                tracer._close(current[0])
                # the placeholder opened after the last criterion holds nothing
                if current[0].name == "acceptance.criterion":
                    tracer.spans.pop()
                tracer._close(outer)

        return traced

    # patching ---------------------------------------------------------

    def _patch(self, module, attr: str, wrapper: Callable) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        prefix = PACKAGE + "."
        wrappers: Dict[int, Callable] = {}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "")
                layer = home[len(prefix):] if home.startswith(prefix) else ""
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    if obj.__name__ == "run_criteria":
                        wrappers[id(obj)] = self._wrap_criteria(obj)
                    else:
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patch(module, attr, wrappers[id(obj)])
        cli = self.modules["cli"]
        for attr in WRITERS:
            self._patch(cli, attr, self._wrap(getattr(cli, attr), "cli." + attr.lstrip("_")))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.last_trajectory = None


# per-layer metrics -------------------------------------------------------

def _covered(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [s.seconds - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def _per_step(spans: List[Span], key: str, count: str, match: Callable[[dict], bool]) -> float:
    chosen = [s for s in spans if s.name == key and s.info is not None and match(s.info)]
    work = sum(s.info[count] for s in chosen)
    return 1e6 * sum(s.seconds for s in chosen) / work if work else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``<layer>.calls`` and ``<layer>.s`` count the calls into a layer from
    outside it (a call from one analysis function to another is part of
    the outer call); ``<layer>.self_s`` is the time spent in the layer's
    own code, with calls into other layers taken out.
    """
    selfs = self_times(spans)
    top = [
        s for s in spans
        if s.parent < 0 or spans[s.parent].layer != s.layer
    ]
    m: Dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in top if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.s"] = sum(s.seconds for s in mine)
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    runs = [s.info for s in spans if s.name == "integrate.integrate" and s.info]
    accepted = sum(r["accepted"] for r in runs)
    rejected = sum(r["rejected"] for r in runs)
    for key in ("accepted", "rejected", "rhs_evals", "events", "samples"):
        m[f"integrate.{key}"] = sum(r[key] for r in runs)
    m["integrate.accept_ratio"] = accepted / (accepted + rejected) if runs else 0.0
    m["integrate.stride_max"] = max((r["stride"] for r in runs), default=0)
    m["integrate.scalar.us_per_step"] = _per_step(
        spans, "integrate.integrate", "accepted", lambda i: i["n"] == 1)
    m["integrate.array.us_per_step"] = _per_step(
        spans, "integrate.integrate", "accepted", lambda i: i["n"] > 1)

    analyze = [s for s in top if s.layer == "analyze"]
    for name in ANALYZE_NAMED:
        m[f"analyze.{name}.s"] = sum(s.seconds for s in analyze if s.name == f"analyze.{name}")
    m["analyze.other.s"] = sum(
        s.seconds for s in analyze if s.name.partition(".")[2] not in ANALYZE_NAMED)

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    m["sgd.run_recursion.s"] = total("sgd.run_recursion")
    m["sgd.compare_to_ode.s"] = total("sgd.compare_to_ode")
    m["sgd.steps"] = sum(s.info["steps"] for s in spans if s.name == "sgd.run_recursion" and s.info)
    m["sgd.scalar.us_per_step"] = _per_step(spans, "sgd.run_recursion", "steps", lambda i: i["dim"] == 1)
    m["sgd.vector.us_per_step"] = _per_step(spans, "sgd.run_recursion", "steps", lambda i: i["dim"] > 1)

    writers = [s for s in spans if s.name in {"cli." + w.lstrip("_") for w in WRITERS}]
    m["cli.bytes_written"] = sum(s.info["bytes"] for s in writers if s.info)
    m["cli.write_s"] = sum(s.seconds for s in writers)
    m["cli.write_mb_per_s"] = m["cli.bytes_written"] / 1e6 / m["cli.write_s"] if m["cli.write_s"] else 0.0

    m["config.load_run_config.s"] = total("config.load_run_config")
    for cid in CRITERIA:
        m[f"acceptance.{cid}.s"] = total(f"acceptance.{cid}")
    m["trace.spans"] = len(spans)
    return m


def write_spans(spans_by_rep: List[List[Span]], path) -> None:
    with open(path, "w") as fh:
        fh.write("rep,index,name,start,end,parent\n")
        for rep, spans in enumerate(spans_by_rep):
            t0 = spans[0].start if spans else 0.0
            for i, s in enumerate(spans):
                fh.write(f"{rep},{i},{s.name},{s.start - t0!r},{s.end - t0!r},{s.parent}\n")
