"""Span and kernel-call recording for the traced benchmark run.

Everything here acts from outside the package: `Tracer.install` replaces
layer functions at the names their callers look up (a module attribute
such as `regress.fit_first_stage`, which `estimators` reads at call
time, or `generate` as bound into `bench`), and `Tracer.uninstall` puts
the originals back. Spans are kept in memory and written out at the end.

A span opened while the innermost open span belongs to the same layer is
folded into that span, so `regress.least_squares` called from
`regress.fit_first_stage` counts as first-stage time, while the same
function called from `estimators` gets a span of its own.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import dataclass, field

#: Spans that open a new scope. Per-layer numbers are totals over the
#: spans inside scopes of one kind, divided by the number of scopes.
SCOPES = ("bundle", "job", "grid")

#: A kernel call counts as slow when it takes this many times the median
#: of calls of the same shape in the run.
SLOW_FACTOR = 10.0


@dataclass
class Span:
    id: int
    parent: int | None
    scope: tuple[str, int] | None
    name: str
    start: float
    end: float = 0.0
    count: float = 0.0


@dataclass
class KernelCall:
    scope: tuple[str, int] | None
    name: str
    shape: tuple
    seconds: float
    flops: float
    bytes: float


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _dims(a) -> tuple[int, int]:
    shape = getattr(a, "shape", ())
    if len(shape) == 1:
        return shape[0], 1
    return (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)


def kernel_cost(name: str, args: tuple, kwargs: dict) -> tuple[tuple, float, float]:
    """Shape, flop count and bytes moved of one numpy.linalg call.

    The counts are computed from the shapes with the textbook operation
    counts (Golub and Van Loan, table 8.6.1 for the SVD), not measured:
    svd with full U 4a^2b + 22b^3, thin 6ab^2 + 20b^3, values only
    4ab^2 - 4b^3/3 (a >= b); eigh 9n^3; eigvalsh 4n^3/3; lstsq 4ab^2 -
    4b^3/3 + 4abk for k right-hand sides. Bytes are the float64 inputs
    read plus outputs written.
    """
    a, b = _dims(args[0])
    if name == "svd":
        big, small = max(a, b), min(a, b)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if not uv:
            flops = 4 * big * small**2 - 4 * small**3 / 3
            out = small
        elif full:
            flops = 4 * big**2 * small + 22 * small**3
            out = a * a + small + b * b
        else:
            flops = 6 * big * small**2 + 20 * small**3
            out = a * small + small + small * b
    elif name == "eigh":
        flops, out = 9 * a**3, a * a + a
    elif name == "eigvalsh":
        flops, out = 4 * a**3 / 3, a
    else:  # lstsq
        _, k = _dims(args[1]) if len(args) > 1 else (a, 1)
        flops = 4 * a * b**2 - 4 * b**3 / 3 + 4 * a * b * k
        out = b * k + min(a, b)
        a_in = a * b + a * k
        return (a, b, k), float(flops), 8.0 * (a_in + out)
    return (a, b), float(flops), 8.0 * (a * b + out)


@dataclass
class Tracer:
    """In-memory span recorder with one id per scope."""

    spans: list[Span] = field(default_factory=list)
    kernels: list[KernelCall] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span | None:
        top = self._stack[-1] if self._stack else None
        if top is not None and _layer(top.name) == _layer(name) and name not in SCOPES:
            return None
        span = Span(
            id=len(self.spans),
            parent=top.id if top else None,
            scope=top.scope if top else None,
            name=name,
            start=time.perf_counter(),
        )
        if name in SCOPES:
            span.scope = (name, span.id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name and return its result."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _wrapper(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if span is not None and count is not None:
                span.count += count(args, kwargs, result)
            return result

        return traced

    def _kernel_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            shape, flops, nbytes = kernel_cost(name, args, kwargs)
            scope = self._stack[-1].scope if self._stack else None
            self.kernels.append(KernelCall(scope, name, shape, seconds, flops, nbytes))
            return result

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap the layer functions of the imported `deconfound` package."""
        import numpy.linalg

        self.missing = []

        from deconfound import bench, cli, estimators, io, model, regress, spectral

        def bytes_read(args, kwargs, _result):
            paths = list(args[:2]) + [kwargs[k] for k in ("x_path", "y_path") if k in kwargs]
            return float(sum(os.path.getsize(p) for p in paths))

        def surfaces(_args, _kwargs, fit):
            return float(1 + len(fit.phi_BC) + len(fit.phi_CC))

        targets = [
            (bench, "generate", "simulate.generate", None),
            (bench, "generate_test_split", "simulate.test_split", None),
            (regress, "fit_first_stage", "regress.first_stage", None),
            (regress, "fit_covariance_regression", "regress.cov_regression", surfaces),
            (regress, "fit_projected_ols", "regress.projected_ols", None),
            (regress, "least_squares", "regress.least_squares", None),
            (spectral, "top_k_eigenvectors", "spectral.top_k", None),
            (spectral, "hetero_pca", "spectral.hetero_pca", None),
            (spectral, "build_projection", "spectral.build_projection", None),
            (spectral, "eigen_spectrum", "spectral.spectrum", None),
            (spectral, "select_k", "spectral.select_k", None),
            (estimators, "fit_method", "estimators.fit_method", None),
            (estimators, "interaction_spectra", "estimators.interaction_spectra", None),
            (estimators, "non_interaction_spectrum", "estimators.non_interaction_spectrum", None),
            (bench, "sse_log", "bench.metrics", None),
            (bench, "pmse_log", "bench.metrics", None),
            (bench, "select_k_hat", "bench.select_k_hat", None),
            (bench, "cross_validate", "bench.cv", None),
            (io, "load_dataset", "io.load", bytes_read),
            (io, "write_json", "io.write", None),
            (io, "save_matrix_csv", "io.write", None),
            (io, "save_dataset", "io.write", None),
            (cli, "main", "cli.main", None),
        ]
        for cls in ("Dataset", "FirstStageFit", "CovarianceFit", "ProjectionBasis"):
            targets.append((getattr(model, cls, None), "__post_init__", "model.validate", None))
        for owner, attr, name, count in targets:
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patch(owner, attr, self._wrapper(name, owner.__dict__[attr], count))
        for name in ("svd", "eigh", "eigvalsh", "lstsq"):
            self._patch(numpy.linalg, name, self._kernel_wrapper(name, getattr(numpy.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def scope_count(self, kind: str) -> int:
        return sum(1 for s in self.spans if s.name == kind)

    def scope_self_seconds(self, kind: str) -> float:
        """Total self time of the scope spans of `kind`: time outside every layer span."""
        own = self.self_times()
        return sum(own[s.id] for s in self.spans if s.name == kind)

    def layer_totals(self, kind: str) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self seconds, counts and calls inside scopes of `kind`."""
        own = self.self_times()
        seconds: dict[str, float] = {}
        counts: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            if s.scope is None or s.scope[0] != kind or s.name in SCOPES:
                continue
            seconds[s.name] = seconds.get(s.name, 0.0) + own[s.id]
            counts[s.name] = counts.get(s.name, 0.0) + s.count
            calls[s.name] = calls.get(s.name, 0) + 1
        return seconds, counts, calls

    def kernel_summary(self, kind: str) -> dict[str, float]:
        calls = [k for k in self.kernels if k.scope is not None and k.scope[0] == kind]
        out: dict[str, float] = {}
        for name in ("svd", "eigh", "eigvalsh", "lstsq"):
            mine = [k for k in calls if k.name == name]
            out[f"{name}_calls"] = float(len(mine))
            out[f"{name}_s"] = sum(k.seconds for k in mine)
        out["flops"] = sum(k.flops for k in calls)
        out["bytes"] = sum(k.bytes for k in calls)
        by_shape: dict[tuple, list[float]] = {}
        for k in calls:
            if k.name == "lstsq":
                by_shape.setdefault(k.shape, []).append(k.seconds)
        slow = total = 0
        for times in by_shape.values():
            median = statistics.median(times)
            slow += sum(1 for t in times if t > SLOW_FACTOR * median)
            total += len(times)
        out["lstsq_slow_frac"] = slow / total if total else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
            for k in self.kernels:
                fh.write(json.dumps({"kernel": k.name, **{f: getattr(k, f) for f in ("scope", "shape", "seconds", "flops", "bytes")}}) + "\n")
