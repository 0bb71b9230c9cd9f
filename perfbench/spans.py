"""In-memory span tracing of coopaug's public functions, from outside the package.

`Tracer.install()` replaces every public function of every `coopaug.*` module
at each module attribute it is bound under (`coopaug.kernels.ray_cast`,
`coopaug.sim.ray_cast`, `coopaug.rangeview.scatter_nearest`, ...), so calls
between layers are caught without editing the package. A span is recorded
only while an op is open (`with tracer.op(k):`); calls made by the harness
between ops run unrecorded. Spans stay in memory until `write()`.
"""

import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Command names of `coopaug.cli.main`; its spans are named `cli.<command>`.
CLI_COMMANDS = ("simulate", "augment", "cfc-check", "project", "gate-stats")


def _cloud_points(a, result):
    return len(a["cloud"])


def _file_bytes(a, result):
    return os.path.getsize(a["path"])


def _pair_points(a, result):
    if a["pair"] is None:
        return 0
    agents = a["group"].agents
    return sum(len(agents[i].cloud) for i in a["pair"])


def _decision_count(choice):
    return lambda a, result: int(a["decision"].value == choice)


# Work counters per function: counter name -> amount added per call, from the
# call's bound arguments and its result. Every counter is reported, 0 if the
# function was never called.
COUNTERS = {
    "kernels.ray_cast": {
        "kernels.ray_cast.rays": lambda a, r: len(a["dirs"]),
        "kernels.ray_cast.ray_box_pairs":
            lambda a, r: len(a["dirs"]) * np.asarray(a["boxes"]).reshape(-1, 6).shape[0],
        "kernels.ray_cast.hits": lambda a, r: int((r > 0.0).sum()),
    },
    "kernels.scatter_nearest": {
        "kernels.scatter_nearest.points": lambda a, r: len(a["rows"]),
        "kernels.scatter_nearest.filled": lambda a, r: int((r[0] > 0.0).sum()),
    },
    "sim.simulate_lidar": {"sim.points_out": lambda a, r: len(r)},
    "model.validate_group": {
        "model.validate_group.points": lambda a, r: sum(len(x.cloud) for x in a["group"].agents),
    },
    "mixup.make_mixup_agent": {
        "mixup.pair_points": _pair_points,
        "mixup.mixup_points": lambda a, r: 0 if a["pair"] is None else len(r.cloud),
    },
    "rangeview.project": {"rangeview.project.points": _cloud_points},
    "rangeview.density_augment": {
        "rangeview.density_augment.points_in": _cloud_points,
        "rangeview.density_augment.points_out": lambda a, r: len(r),
    },
    "setupaug.apply_setup_aug": {"setupaug.apply_setup_aug.points": _cloud_points},
    "gate.apply_gate": {f"gate.decisions.{c}": _decision_count(c)
                        for c in ("plus", "keep", "minus")},
    "pipeline.occupancy": {"pipeline.occupancy.points": _cloud_points},
    "io.load_cloud": {"io.load_cloud.bytes": _file_bytes},
    "io.save_cloud": {"io.save_cloud.bytes": _file_bytes},
    "cli.main": {"cli.nonzero_exits": lambda a, r: int(r != 0)},
}


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, op_id, start, end, error)
        self.counts = defaultdict(int)
        self.functions = set()  # qualified names of every wrapped function
        self._ids = itertools.count()
        self._stack = []
        self._op_id = None

    def install(self) -> None:
        """Wrap every public coopaug function at every module binding of it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "coopaug" or name.startswith("coopaug."))]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not value.__name__.startswith("_")
                        and value.__module__.startswith("coopaug.")):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value)
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('coopaug.')}.{fn.__name__}"
        self.functions.add(name)
        counters = COUNTERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            span_name = f"cli.{args[0][0]}" if name == "cli.main" else name
            sid = next(tracer._ids)
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, span_name, start, error=True)
                raise
            tracer._close(sid, parent, span_name, start, error=False)
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in counters.items():
                    tracer.counts[key] += amount(bound.arguments, result)
            return result

        return traced

    def _close(self, sid, parent, name, start, error):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, self._op_id, start, end, error))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one timed op; layer spans inside it carry its op id."""
        sid = next(self._ids)
        self._op_id = op_id
        self._stack = [sid]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((sid, None, "op", op_id, start, end, False))
            self._op_id = None
            self._stack = []

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "op", "start", "end", "error")
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer totals over all recorded ops.

        `<fn>.calls`, `<fn>.s` (inclusive) and `<fn>.self_s` for every wrapped
        function and for `ops` (the root spans), `<module>.errors`, the work
        counters and their ratios. Self time is a span's duration minus the
        time its child spans cover.
        """
        # One thread: a span's children run one after another inside it.
        child_s = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        names = (self.functions - {"cli.main"}) | {f"cli.{c}" for c in CLI_COMMANDS} | {"ops"}
        m = {f"{n}.{stat}": 0 for n in names for stat in ("calls", "s", "self_s")}
        m.update({f"{n.split('.')[0]}.errors": 0 for n in names})
        m.update({key: 0 for counters in COUNTERS.values() for key in counters})
        m.update(self.counts)
        for sid, _, name, _, start, end, error in self.spans:
            key = "ops" if name == "op" else name
            m[f"{key}.calls"] += 1
            m[f"{key}.s"] += end - start
            m[f"{key}.self_s"] += end - start - child_s[sid]
            if error:
                m[f"{key.split('.')[0]}.errors"] += 1
        m["kernels.ray_cast.hit_ratio"] = _ratio(m["kernels.ray_cast.hits"],
                                                 m["kernels.ray_cast.rays"])
        m["kernels.ray_cast.op_share"] = _ratio(m["kernels.ray_cast.self_s"], m["ops.s"])
        m["kernels.scatter_nearest.kept_ratio"] = _ratio(m["kernels.scatter_nearest.filled"],
                                                         m["kernels.scatter_nearest.points"])
        m["mixup.keep_ratio"] = _ratio(m["mixup.mixup_points"], m["mixup.pair_points"])
        m["rangeview.points_ratio"] = _ratio(m["rangeview.density_augment.points_out"],
                                             m["rangeview.density_augment.points_in"])
        io_names = [n for n in self.functions if n.startswith("io.")]
        m["io.calls"] = sum(m[f"{n}.calls"] for n in io_names)
        m["io.save_calls"] = sum(m[f"{n}.calls"] for n in io_names if n.startswith("io.save_"))
        return m
