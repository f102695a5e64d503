"""Measurement plumbing shared by the workloads: timing statistics, the
outcome ledger behind `error_rate`, and the span tracer of traced runs."""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

# candidate tail percentiles, highest first; the reported tail is the highest
# one that still has at least TAIL_MIN_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it. With fewer than twenty samples no percentile qualifies and
    the median stands in, since a maximum of a few samples is mostly noise."""
    v = np.asarray(values, dtype=np.float64)
    for p in TAIL_PERCENTILES:
        if len(v) * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(v, p))
    return 50.0, float(np.median(v))


class Ledger:
    """Operations attempted and failures seen, from both operations that
    raised and output checks that did not hold. A failure is recorded and
    reported on stderr; the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = 0
        self.failed_checks = 0

    @property
    def failed(self) -> int:
        return self.failed_ops + self.failed_checks

    def op_failed(self, what: str) -> None:
        self.failed_ops += 1
        print(f"operation {what} raised:\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, ok, what: str) -> bool:
        ok = bool(ok)
        if not ok:
            self.failed_checks += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def check_distributions(ledger: Ledger, probs, what: str) -> None:
    """Rows are finite and sum to one within 1e-9."""
    p = np.asarray(probs)
    finite = bool(np.all(np.isfinite(p)))
    ledger.check(finite, f"{what}: non-finite probabilities")
    if finite and len(p):
        err = float(np.max(np.abs(p.sum(axis=-1) - 1.0)))
        ledger.check(err <= 1e-9, f"{what}: rows sum to 1 only within {err:.3g}")


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans (name, start, end, parent, run id, counters) kept in memory.

    Only a traced run creates one with wrappers installed. Wrappers replace
    module or class attributes through which the benchmark and `semfuse`
    itself reach a layer, so calls made inside `runner`, `fusion` or
    `voxelmap` are recorded too. `activate`/`deactivate` swap the wrappers
    in and out, so untraced iterations of a traced run execute the original
    functions.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = -1
        self.active = False
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **counters):
        if not self.active:
            yield counters
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.run_id, counters]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield counters
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None,
              classmethod_=False) -> None:
        """Register a wrapper for owner.attr that records span `name`.

        before(args, kwargs) and after(args, kwargs, result) return dicts of
        counters stored on the span. They run outside the span, so their
        cost is not charged to the wrapped layer.
        """
        original = owner.__dict__[attr] if classmethod_ else getattr(owner, attr)
        fn = original.__func__ if classmethod_ else original
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else {}
            with tracer.span(name, **pre) as c:
                result = fn(*args, **kwargs)
            if after is not None:
                c.update(after(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original,
                              classmethod(wrapper) if classmethod_ else wrapper))

    def activate(self, run_id: int) -> None:
        self.run_id = run_id
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.active = True

    def deactivate(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False

    # -- analysis ---------------------------------------------------------------

    def closed(self, run_ids=None):
        keep = None if run_ids is None else set(run_ids)
        return [s for s in self.spans
                if s[2] is not None and (keep is None or s[4] in keep)]

    def self_seconds(self, run_ids) -> dict[str, float]:
        """Self time per layer (the span-name prefix before the first dot):
        a span's duration minus the durations of its direct children."""
        spans = self.closed(run_ids)
        index = {id(s): i for i, s in enumerate(self.spans)}
        child = {}
        for s in spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
        out: dict[str, float] = {}
        for s in spans:
            layer = s[0].split(".", 1)[0]
            own = (s[2] - s[1]) - child.get(index[id(s)], 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path: str) -> None:
        """Write every span once, one JSON object per line."""
        with open(path, "w") as f:
            for name, t0, t1, parent, run_id, counters in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "run": run_id,
                                    **counters}) + "\n")
