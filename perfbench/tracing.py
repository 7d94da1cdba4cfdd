"""Layer spans recorded from outside the package.

Inside ``with Tracer():`` the functions that one dosebounds module calls in
another (the names ``benchmark`` and ``cli`` import from ``models`` and
``estimator``, the ``specfun`` functions that ``sensitivity`` and ``models``
reach, ``DivisorEngine.bounds``, ``fileio``) are rebound to timing wrappers;
leaving the block puts the originals back.  The package source is never
edited.  Every span keeps its name, start, end, parent span and operation;
a layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# sensitivity model class name -> benchmark method name
_METHOD_OF_MODEL = {"DeltaMSM": "deltamsm", "CMSM": "cmsm", "Uniform": "uniform", "BinaryMSM": "binarymsm"}


def _size(args, result):
    """Elements of a result: its first array, or a curve's lower bound."""
    first = result[0] if isinstance(result, tuple) else result
    return np.size(getattr(first, "lo", first))


def _divisor_name(args):
    return "sensitivity.divisor." + _METHOD_OF_MODEL[type(args[0].model).__name__]


def _patch_table():
    """(owner, attribute, span name or None for count-only, counter, measure)."""
    from dosebounds import benchmark, cli, estimator, fileio, models, sensitivity, specfun

    special = ("specfun.special", None, None)
    band = ("estimator.band", "estimator.band.points", _size)
    return [
        (benchmark, "generate_trial", "benchmark.generate_trial", None, None),
        (benchmark, "true_apo", "benchmark.true_apo", None, None),
        (benchmark, "_outcome_prob_matrix", "benchmark.prob_matrix", None, None),
        (benchmark, "fit_outcome", "models.fit_outcome", None, None),
        (benchmark, "fit_propensity", "models.fit_propensity", None, None),
        (benchmark, "apo_band_matrix", *band),
        (cli, "fit_outcome", "models.fit_outcome", None, None),
        (cli, "fit_propensity", "models.fit_propensity", None, None),
        (cli, "apo_interval", *band),
        (cli, "capo_interval", *band),
        (estimator, "capo_interval", *band),
        (estimator, "apo_interval", *band),
        (estimator, "cacd_interval", "estimator.cacd", None, None),
        (models, "outcome_loss_grad", None, "models.loss_grad.calls", None),
        (models, "propensity_loss_grad", None, "models.loss_grad.calls", None),
        (models, "log_gamma", *special),
        (models, "digamma", *special),
        (specfun, "log_gamma", *special),
        (specfun, "hyp1f1", "specfun.hyp1f1", "specfun.hyp1f1.elems", _size),
        (sensitivity.DivisorEngine, "bounds", _divisor_name, "sensitivity.divisor.elems", _size),
        (fileio, "read_csv", "fileio.io", None, None),
        (fileio, "write_csv", "fileio.io", None, None),
        (fileio, "write_json", "fileio.io", None, None),
    ]


class Tracer:
    """Collects spans and counters inside its ``with`` block."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = -1
        self._open: list[list] = []  # [span id, child seconds] of each open span
        self._saved: list[tuple] = []

    def span(self, name, fn, counter=None, measure=None):
        """Wrap ``fn`` so each call records a span (``name`` may be a callable
        of the call's arguments) and, optionally, adds ``measure`` to a counter."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = tracer._open[-1][0] if tracer._open else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                duration = end - start
                tracer.self_s[label] += duration - frame[1]
                if tracer._open:
                    tracer._open[-1][1] += duration
                tracer.spans[frame[0]] = (label, start, end, parent, tracer.op)
                tracer.counts[label + ".calls"] += 1
            if counter is not None:
                tracer.counts[counter] += measure(args, result)
            return result

        return wrapper

    def counted(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        """Rebind every function of the patch table to its wrapper."""
        for owner, attr, name, counter, measure in _patch_table():
            original = owner.__dict__[attr]
            if name is None:
                wrapped = self.counted(counter, original)
            else:
                wrapped = self.span(name, original, counter, measure)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        """Put the original functions back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
