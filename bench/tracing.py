"""Per-layer tracing from outside the program.

The package binds names at import (``from .qstate import measure``), so each
wrapper replaces the original function object in every module namespace
that holds it. Spans nest strictly (one thread, no queue), so a span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

# The layers are the package's six modules; these are their public functions.
LAYERS = {
    "cli": ("main",),
    "metrics": ("run_sweep", "concurrence"),
    "protocols": ("run_protocol",),
    "gates": ("make_gate", "apply_gate", "apply_correction", "trion_emission_map"),
    "qstate": ("tensor", "tensor_all", "apply_diagonal_pair", "apply_unitary",
               "measure", "drop_qubit", "to_density", "partial_trace", "fidelity",
               "normalize", "dephase_spin", "sample_outcome"),
    "cavity": ("reflect", "reflection_coefficient", "conditional_phase"),
}
SPAN_CAP = 200_000  # spans kept for the span file; aggregates count every call


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, funcs in LAYERS.items():
        for f in funcs:
            out += [(f"{layer}.{f}.calls", "count"), (f"{layer}.{f}.self_s", "s"),
                    (f"{layer}.{f}.errors", "count")]
        out.append((f"layer.{layer}.self_s", "s"))
    out += [
        ("protocols.run_protocol.p50_ms", "ms"), ("protocols.run_protocol.p90_ms", "ms"),
        ("protocols.zero_branch_frac", "fraction"), ("protocols.branches", "count"),
        ("qstate.pure_states_built", "count"), ("qstate.density_states_built", "count"),
        ("qstate.density_ops", "count"), ("qstate.density_ops.self_s", "s"),
        ("qstate.pure_ops", "count"), ("qstate.pure_ops.self_s", "s"),
        ("cavity.points_per_call", "count"),
        ("trace.untraced_work_s", "s"), ("trace.traced_work_s", "s"),
        ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ]
    return out


class Tracer:
    """Installs timing wrappers into a loaded ``spinphoton`` package.

    Between ``reset`` and ``snapshot`` the wrappers aggregate one pass; the
    spans of the first pass after ``keep_spans`` are also kept in memory.
    """

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module, plus "package"
        self.qstate = modules["qstate"]
        self._restore = []
        self.reset()

    # -- per-pass state -------------------------------------------------------

    def reset(self, keep_spans: bool = False) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, errors
        self.counts = defaultdict(int)
        self.kind_self = [0.0, 0.0, 0.0]  # qstate self time: other, pure, density input
        self.protocol_ms: list[float] = []
        self.stack: list[list] = []  # [span id, child time] of open spans
        self.next_id = 0
        self.spans = [] if keep_spans else None

    def snapshot(self) -> dict:
        """This pass's per-layer values, keyed by metric name."""
        out = {}
        layer_self = defaultdict(float)
        for layer, funcs in LAYERS.items():
            for f in funcs:
                calls, self_s, errors = self.stats[f"{layer}.{f}"]
                out[f"{layer}.{f}.calls"] = calls
                out[f"{layer}.{f}.self_s"] = self_s
                out[f"{layer}.{f}.errors"] = errors
                layer_self[layer] += self_s
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        c = self.counts
        ms = sorted(self.protocol_ms)
        out["protocols.run_protocol.p50_ms"] = statistics.median(ms) if ms else 0.0
        out["protocols.run_protocol.p90_ms"] = ms[int(0.9 * (len(ms) - 1))] if ms else 0.0
        out["protocols.branches"] = c["branches"]
        out["protocols.zero_branch_frac"] = (c["zero_branches"] / c["branches"]
                                             if c["branches"] else 0.0)
        out["qstate.pure_states_built"] = c["PureState"]
        out["qstate.density_states_built"] = c["DensityState"]
        out["qstate.pure_ops"] = c["pure_ops"]
        out["qstate.pure_ops.self_s"] = self.kind_self[1]
        out["qstate.density_ops"] = c["density_ops"]
        out["qstate.density_ops.self_s"] = self.kind_self[2]
        calls = self.stats["cavity.reflection_coefficient"][0]
        out["cavity.points_per_call"] = c["points"] / calls if calls else 0.0
        out["trace.spans"] = self.next_id
        return out

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for layer, funcs in LAYERS.items():
            module = self.modules[layer]
            for f in funcs:
                original = getattr(module, f)
                self._replace(original, self._wrap(f"{layer}.{f}", original))
        for cls in (self.qstate.PureState, self.qstate.DensityState):
            original = cls.__post_init__
            cls.__post_init__ = self._counting(cls.__name__, original)
            self._restore.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def _replace(self, original, wrapper) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _counting(self, key: str, original):
        tracer = self  # reset() swaps tracer.counts, so look it up per call

        def post_init(obj):
            tracer.counts[key] += 1
            return original(obj)
        return post_init

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        pure_cls, density_cls = self.qstate.PureState, self.qstate.DensityState
        is_qstate = name.startswith("qstate.")
        is_protocol = name == "protocols.run_protocol"
        is_reflection = name == "cavity.reflection_coefficient"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            kind = 0
            if is_qstate:
                if any(isinstance(a, density_cls) for a in args):
                    kind = 2
                    tracer.counts["density_ops"] += 1
                elif any(isinstance(a, pure_cls) for a in args):
                    kind = 1
                    tracer.counts["pure_ops"] += 1
            elif is_reflection:
                omega = args[1] if len(args) > 1 else kwargs["omega"]
                tracer.counts["points"] += getattr(omega, "size", 1)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.stats[name][2] += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_s = dur - frame[1]
                stat = tracer.stats[name]
                stat[0] += 1
                stat[1] += self_s
                tracer.kind_self[kind] += self_s
                spans = tracer.spans
                if spans is not None and len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent))
            if is_protocol:
                tracer.protocol_ms.append(dur * 1e3)
                tracer.counts["branches"] += len(result.branches)
                tracer.counts["zero_branches"] += sum(
                    1 for b in result.branches if b.probability == 0.0)
            return result
        return wrapper


def combine(passes: list[dict]) -> dict:
    """Counts from the first pass (they repeat exactly); timings as medians."""
    out = dict(passes[0])
    for name in out:
        if name.endswith("_s") or name.endswith("_ms"):
            out[name] = statistics.median(p[name] for p in passes)
    return out
