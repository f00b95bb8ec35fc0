"""Spans for the traced in-process replay, opened by the benchmark around the package's public calls.

Nothing in the package changes: `instrument` swaps wrappers onto module
attributes and class methods for the length of a replay and puts the
originals back afterwards. Spans are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    trace_id: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    samples: int = 0
    peak_alloc_mb: float | None = None
    self_s: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, samples: int = 0, trace_id: str | None = None, alloc: bool = False):
        parent = self._open[-1] if self._open else None
        if trace_id is None:
            trace_id = self.spans[parent].trace_id if parent is not None else ""
        index = len(self.spans)
        sp = Span(name, trace_id, parent, samples=samples)
        self.spans.append(sp)
        if parent is not None:
            self.spans[parent].children.append(index)
        self._open.append(index)
        own_tracing = alloc and not tracemalloc.is_tracing()
        if own_tracing:
            tracemalloc.start()
        if alloc:
            tracemalloc.reset_peak()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if alloc:
                sp.peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
            if own_tracing:
                tracemalloc.stop()
            self._open.pop()

    def finish(self) -> float:
        """Fill in self times; return the largest bookkeeping error found, in seconds.

        A span's self time is its duration minus its children's durations. Children
        run one after another inside their parent, so each span's self time plus the
        self times of all its descendants equals its duration; the returned error is
        the worst violation of that, or of a child lying outside its parent.
        """
        for sp in self.spans:
            sp.self_s = sp.duration - sum(self.spans[c].duration for c in sp.children)
        worst = 0.0
        for i, sp in enumerate(self.spans):
            covered = sp.self_s + sum(self.spans[d].self_s for d in self.descendants(i))
            worst = max(worst, abs(covered - sp.duration))
            previous_end = sp.start
            for c in sp.children:
                child = self.spans[c]
                worst = max(worst, previous_end - child.start, child.end - sp.end)
                previous_end = child.end
        return worst

    def descendants(self, index: int):
        stack = list(self.spans[index].children)
        while stack:
            d = stack.pop()
            yield d
            stack.extend(self.spans[d].children)

    def records(self) -> list[dict]:
        out = []
        for sp in self.spans:
            rec = asdict(sp)
            del rec["children"]
            out.append(rec)
        return out


#: Spans whose samples are drawn or read; per command they add up to the samples it handles.
SOURCES = {
    "homodyne.sample_homodyne", "homodyne.sample_fixed_phase", "direct.simulate_photocount",
    "direct.simulate_heterodyne", "homodyne.load_dataset_csv", "homodyne.load_dataset_json",
}


def layer_of(name: str) -> str:
    """Layer of a span: the package module, with dataset I/O split from the samplers."""
    module = name.split(".", 1)[0]
    if module == "homodyne":
        return "homodyne.io" if "_dataset_" in name else "homodyne.sampler"
    return module


def _obs_label(obs) -> str:
    from tomonoise.kernels import observable_name

    return observable_name(obs).replace("(", "").replace(")", "").replace(",", "_")


def _n_arg(args, result) -> int:
    return int(args[2])


def _data_n(args, result) -> int:
    return args[0].n


def _none(args, result) -> int:
    return 0


# (owner, attribute, span name or name-from-args, samples from (args, result), trace allocations)
_TARGETS = [
    ("tomonoise.cli", "state_from_json", "states.state_from_json", _none, False),
    ("tomonoise.cli", "sample_homodyne", "homodyne.sample_homodyne", _n_arg, False),
    ("tomonoise.cli", "save_dataset_csv", "homodyne.save_dataset_csv", _data_n, False),
    ("tomonoise.cli", "save_dataset_json", "homodyne.save_dataset_json", _data_n, False),
    ("tomonoise.cli", "load_dataset_csv", "homodyne.load_dataset_csv", lambda a, r: r.n, False),
    ("tomonoise.cli", "load_dataset_json", "homodyne.load_dataset_json", lambda a, r: r.n, False),
    ("tomonoise.cli", "estimate_mean", lambda a: f"estimators.estimate_mean.{_obs_label(a[1])}", _data_n, False),
    ("tomonoise.cli", "estimate_complex", "estimators.estimate_complex", _data_n, False),
    ("tomonoise.cli", "empirical_comparison", "noise.empirical_comparison", lambda a, r: 2 * int(a[3]), True),
    ("tomonoise.noise", "sample_homodyne", "homodyne.sample_homodyne", _n_arg, False),
    ("tomonoise.noise", "sample_fixed_phase", "homodyne.sample_fixed_phase", _n_arg, False),
    ("tomonoise.noise", "simulate_photocount", "direct.simulate_photocount", _n_arg, False),
    ("tomonoise.noise", "simulate_heterodyne", "direct.simulate_heterodyne", _n_arg, False),
    ("tomonoise.noise", "heterodyne_phase_variance", "direct.heterodyne_phase_variance", _data_n, False),
    ("tomonoise.noise", "estimate_complex", "estimators.estimate_complex", _data_n, False),
    ("tomonoise.noise", "empirical_kernel_variance",
     lambda a: f"estimators.empirical_kernel_variance.{_obs_label(a[1])}", _data_n, False),
    ("tomonoise.noise", "mean_photon", "states.mean_photon", _none, False),
    ("tomonoise.estimators", "kernel_observable",
     lambda a: f"kernels.kernel_observable.{_obs_label(a[0])}", lambda a, r: len(a[2]), False),
    ("tomonoise.estimators:StreamingMoments", "update", "estimators.StreamingMoments.update",
     lambda a, r: len(a[1]), False),
    ("tomonoise.estimators:ComplexStreamingMoments", "update", "estimators.ComplexStreamingMoments.update",
     lambda a, r: len(a[1]), False),
    ("tomonoise.homodyne:QuadratureGridSampler", "__init__", "homodyne.grid_build", _none, False),
    ("tomonoise.homodyne", "hermite_functions", "states.hermite_functions", _none, False),
    ("tomonoise.direct", "photon_distribution", "states.photon_distribution", _none, False),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, fn, name, samples, alloc):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        with tracer.span(label, alloc=alloc) as sp:
            result = fn(*args, **kwargs)
            sp.samples = samples(args, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's public calls through spans of `tracer` until the block exits."""
    originals = []
    try:
        for path, attr, name, samples, alloc in _TARGETS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, samples, alloc))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
