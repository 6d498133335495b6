"""Span tracer installed around atrig's public functions from outside the package.

Installing rebinds every traced function in each ``atrig`` module namespace
that holds it, so calls made inside the package (``verify`` calling the
``exp`` it imported from ``transcendental``, ``mul`` calling
``rep_matrix``) pass through the wrapper too.  Spans are kept in memory as
(name, start, end, parent, request id) tuples and written out once, after
the measured work.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: Public functions traced per layer; layer names are the module names.
TRACED = {
    "cli": ("main",),
    "verify": (
        "kthagorean_suite",
        "pure_power_suite",
        "lemma_suite",
        "roundtrip_suite",
        "polar_suite",
        "identities_suite",
        "crt_suite",
    ),
    "identities": ("adding_angle", "de_moivre", "verify_identity", "render"),
    "transcendental": ("exp", "trig_components", "log", "modulus", "polar"),
    "spectral": ("find_roots", "to_components", "from_components"),
    "core": ("rep_matrix", "mul", "pythagorean", "invert"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self, package) -> None:
        self._package = package
        self._errors = package.errors.AlgebraError
        self._index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.spans: list = []  # (name index, start, end, parent span, request id)
        self.refused = [0] * len(SPAN_NAMES)
        self.request_id = -1
        self.active = False
        self.find_roots_calls = 0
        self.find_roots_repeats = 0
        self._solved: set = set()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "atrig" or name.startswith("atrig."))
        ]
        for span in SPAN_NAMES:
            layer, fn_name = span.split(".")
            original = getattr(getattr(self._package, layer), fn_name)
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))
        self.active = True

    def begin_request(self) -> None:
        """Spans opened from now on belong to a new request."""
        self.request_id += 1

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _count_repeats(self, find_roots):
        @functools.wraps(find_roots)
        def counted(pres, *args, **kwargs):
            self.find_roots_calls += 1
            self.find_roots_repeats += pres.modulus_coeffs in self._solved
            dec = find_roots(pres, *args, **kwargs)
            self._solved.add(pres.modulus_coeffs)
            return dec

        return counted

    def _wrap(self, span: str, fn):
        fid = self._index[span]
        inner = self._count_repeats(fn) if span == "spectral.find_roots" else fn
        tracer, spans, stack, refused = self, self.spans, self._stack, self.refused
        errors = self._errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return inner(*args, **kwargs)
            except errors:
                refused[fid] += 1
                raise
            finally:
                spans[index] = (fid, start, clock(), parent, tracer.request_id)
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------

    def _columns(self):
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return (
            table[:, 0].astype(np.intp),
            table[:, 1],
            table[:, 2],
            table[:, 3].astype(np.intp),
            table[:, 4].astype(np.intp),
        )

    def summary(self) -> dict[str, float]:
        """calls, self_s and refused per traced function.

        Self time is a span's duration minus the durations of its direct
        children, so each second is charged to exactly one function.
        """
        names, start, end, parent, _ = self._columns()
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = np.bincount(
            names, weights=duration - child_time, minlength=len(SPAN_NAMES)
        )
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        out: dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_time[i])
            out[f"{span}.refused"] = self.refused[i]
        return out

    def repeat_ratio(self) -> float:
        return self.find_roots_repeats / max(1, self.find_roots_calls)

    def write(self, path) -> None:
        names, start, end, parent, request = self._columns()
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=names,
            start=start,
            end=end,
            parent=parent,
            request=request,
        )
