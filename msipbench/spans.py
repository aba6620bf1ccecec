"""Spans around the calls into each layer, installed from the benchmark.

A hook replaces a function at the name its callers look up (a module
global or a class attribute) with a wrapper that records one span: the
layer name, the segment of the run it started in, its start and end, its
parent span, its self time (its duration minus its child spans') and, for
target evaluations, the number of points. Spans stay in memory until the
run ends. Nothing is installed unless ``Tracer.install`` is called, and
``Tracer.uninstall`` puts every original back.
"""

import json
import sys
import time

import msip._backend
import msip.dynamics
import msip.harness
import msip.kernel
import msip.metrics
import msip.targets


def _points(args, kwargs):
    """Rows of the point set passed to a TargetDensity method."""
    x = args[1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


# (owner, attribute, span name, count points). One span name may sit at
# several names, one per module that imports the function.
HOOKS = (
    (msip.targets.TargetDensity, "log_density", "targets.logp", True),
    (msip.targets.TargetDensity, "score", "targets.score", True),
    (msip.harness, "reference_samples", "targets.reference", False),
    (msip.dynamics, "estimate_embeddings", "embeddings", False),
    (msip.dynamics, "msip_step", "dynamics", False),
    (msip.kernel, "gram", "kernel.gram", False),
    (msip.kernel, "solve", "kernel.solve", False),
    (msip._backend, "sym_sq_dists", "backend.sym_sq_dists", False),
    (msip.metrics, "sym_sq_dists", "backend.sym_sq_dists", False),
    (msip.harness, "se_cross_rowsums", "backend.cross_rowsums", False),
    (msip.metrics, "se_cross_rowsums", "backend.cross_rowsums", False),
    (msip.harness, "se_self_rowsums", "backend.self_rowsums", False),
    (msip.metrics, "se_self_rowsums", "backend.self_rowsums", False),
    (msip.metrics, "imq_stein_gram", "backend.stein_gram", False),
    (msip.harness, "mmd2_vs_gmm", "metrics.mmd2", False),
    (getattr(msip.harness, "_ReferenceMmd", None), "__call__",
     "metrics.mmd2", False),
    (msip.harness, "ksd", "metrics.ksd", False),
    (msip.harness, "weighted_loglik", "metrics.loglik", False),
    (msip.harness, "mode_coverage", "metrics.coverage", False),
    (msip.harness, "solve_weights", "harness.resolve", False),
)


class Tracer:
    """Records spans while installed; segments split the run in phases."""

    def __init__(self):
        self.names = []
        self.segments = []  # (label, start time)
        self.spans = []  # (segment, name, start, end, self, parent, points)
        self._stack = []  # [span index, child time] of the open spans
        self._installed = []

    def segment(self, label):
        """Start a new segment; later spans belong to it."""
        self.segments.append((label, time.perf_counter()))

    def _wrap(self, fn, name_id, count_points):
        spans = self.spans
        stack = self._stack
        segments = self.segments

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (
                    len(segments) - 1, name_id, start, end,
                    end - start - child, parent,
                    _points(args, kwargs) if count_points else 0,
                )

        return traced

    def install(self):
        """Wrap every hook whose name exists; report the ones that do not."""
        for owner, attr, name, count_points in HOOKS:
            if owner is None or attr not in vars(owner):
                print(f"trace: no {getattr(owner, '__name__', owner)}.{attr};"
                      f" {name} is not traced there", file=sys.stderr)
                continue
            if name not in self.names:
                self.names.append(name)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, self.names.index(name),
                               count_points))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path):
        """All segments and spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, start in self.segments:
                fh.write(json.dumps({"segment": label, "start": start}) + "\n")
            for seg, name_id, start, end, own, parent, points in self.spans:
                fh.write(json.dumps({
                    "segment": seg, "name": self.names[name_id],
                    "start": start, "end": end, "self": own,
                    "parent": parent, "points": points,
                }) + "\n")

    def by_segment(self):
        """{segment: ({span name: [self seconds, calls, points]}, seconds
        in top-level spans)}, summed over each segment's spans."""
        out = {}
        for seg, name_id, start, end, own, parent, points in self.spans:
            if seg not in out:
                out[seg] = ({name: [0.0, 0, 0] for name in self.names}, [0.0])
            layers, top = out[seg]
            acc = layers[self.names[name_id]]
            acc[0] += own
            acc[1] += 1
            acc[2] += points
            if parent < 0:
                top[0] += end - start
        return {seg: (layers, top[0]) for seg, (layers, top) in out.items()}
