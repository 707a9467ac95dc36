"""Span tracing at the public boundaries of the gaussimag modules.

Each boundary is wrapped in a timing wrapper that records one span per call:
boundary id, parent span, start, end and whether the call failed.  Spans stay
in memory (flat arrays) until ``summary`` turns them into per-boundary call
counts, self times and failure counts.  A span's self time is its duration
minus the durations of its direct child spans; calls are strictly nested
because the benchmark is single-threaded.

A function boundary is patched in every gaussimag namespace that binds it
(``measures.williamson`` and ``fuzz.williamson`` are the same function), so
calls between modules are seen no matter which import they went through.
Class boundaries are patched on the class: construction is ``__init__``,
methods are the class attributes.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

PACKAGE = "gaussimag"

# (module, attribute, method): method None on a class means construction.
BOUNDARIES = (
    ("states", "GaussianState", None),
    ("states", "GaussianState", "conjugate"),
    ("states", "GaussianState", "reduce"),
    ("linalg", "block_split", None),
    ("linalg", "logdet_spd", None),
    ("linalg", "sqrt_complex_principal", None),
    ("linalg", "williamson", None),
    ("measures", "imaginarity", None),
    ("measures", "fidelity_imaginarity", None),
    ("measures", "tsallis_imaginarity", None),
    ("measures", "measure_all", None),
    ("channels", "GaussianChannel", None),
    ("channels", "GaussianChannel", "apply"),
    ("channels", "random_real_channel", None),
    ("dynamics", "evolve", None),
    ("dynamics", "trajectory", None),
    ("sampling", "random_state", None),
    ("sampling", "random_real_state", None),
    ("fuzz", "run_suite", None),
    ("cli", "main", None),
)

# boundaries that report failure through a nonzero return value
NONZERO_IS_FAILURE = {"cli.main"}


def boundary_name(module: str, attr: str, method: str | None) -> str:
    return ".".join(p for p in (module, attr, method) if p)


class Tracer:
    """Installs span-recording wrappers on the boundaries and restores them."""

    def __init__(self):
        self.names = [boundary_name(*b) for b in BOUNDARIES]
        self.boundary = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        boundary, parent, start, end, failed = (
            self.boundary, self.parent, self.start, self.end, self.failed
        )
        stack = self._stack
        nonzero_fails = self.names[idx] in NONZERO_IS_FAILURE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            boundary.append(idx)
            parent.append(stack[-1] if stack else -1)
            failed.append(0)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[span] = 1
                raise
            finally:
                end[span] = perf_counter()
                stack.pop()
            if nonzero_fails and result:
                failed[span] = 1
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        targets = [
            getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            for module, attr, _ in BOUNDARIES
        ]
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for idx, ((_, _, method), obj) in enumerate(zip(BOUNDARIES, targets)):
            if isinstance(obj, type):
                member = method or "__init__"
                self._patch(obj, member, self._wrap(idx, obj.__dict__[member]))
                continue
            wrapper = self._wrap(idx, obj)
            bindings = [(m, name) for m in modules for name, v in vars(m).items() if v is obj]
            for m, name in bindings:
                self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """Per-boundary ``calls``, ``self_s`` and ``fail`` over every recorded span."""
        count = len(self.start)
        child_time = [0.0] * count
        for span in range(count):
            p = self.parent[span]
            if p >= 0:
                child_time[p] += self.end[span] - self.start[span]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        fails = [0] * len(self.names)
        for span in range(count):
            idx = self.boundary[span]
            calls[idx] += 1
            self_s[idx] += self.end[span] - self.start[span] - child_time[span]
            fails[idx] += self.failed[span]
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
            out[f"{name}.fail"] = fails[idx]
        return out
