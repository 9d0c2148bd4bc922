"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of seqlocc's modules from outside the
package. Callers import by name (engine imports synthesize, cli imports
verify_scheme, ...), so each wrapper is rebound in every seqlocc module
that holds the original function object. scipy.optimize.minimize is
wrapped once; its nfev and nit are read from the result and attributed to
the nearest synthesis or sequential span above it.

A span records name, start, end, parent and operation id, plus a few
values read from arguments or results. Spans stay in memory; the caller
writes them out when the run ends. Calls made while no operation is open
(set-up, the correctness gate) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module under seqlocc, function name, extractor of extra span values)
TARGETS = [
    ("linalg", "eig_unitary", None),
    ("arcs", "arc_of_phases", None),
    ("arcs", "zero_overlap_state", None),
    ("structure", "classify_primitive", None),
    ("unitary_opt", "unitary_and_tangents", None),
    ("synthesis", "synthesize",
     lambda a, kw, r: {"k": r.layer_count, "delta": r.delta}),
    ("sequential", "build_sequential_scheme", None),
    ("sequential", "optimize_stage", None),
    ("templates", "evaluate_template", lambda a, kw, r: {"layers": len(a[0].layers)}),
    ("templates", "compose_templates", None),
    ("engine", "discriminate", None),
    ("engine", "verify_scheme", None),
    ("io", "loads_scheme", lambda a, kw, r: {"bytes": len(a[0])}),
    ("cli", "main", None),
]


def _minimize_extra(args, kwargs, res):
    return {"nfev": int(getattr(res, "nfev", 0)), "nit": int(getattr(res, "nit", 0))}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, extra].

    Wrappers and the sites that hold each original are found once, at
    construction; install() and uninstall() only swap the bindings.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self._sites: list[tuple[object, str, object, object]] = []
        for mod_name, fn_name, extra in TARGETS:
            module = importlib.import_module(f"seqlocc.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, extra)
            for site_name, site in list(sys.modules.items()):
                if site is None or not (site_name == "seqlocc" or site_name.startswith("seqlocc.")):
                    continue
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        self._sites.append((site, attr, fn, wrapper))
        import scipy.optimize
        fn = scipy.optimize.minimize
        self._sites.append((scipy.optimize, "minimize", fn,
                            self._wrap("scipy.minimize", fn, _minimize_extra)))

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for site, attr, _, wrapper in self._sites:
            setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original, _ in self._sites:
            setattr(site, attr, original)

    def op_span(self, op_id: int):
        """Context manager opening the root span of one operation."""
        return _OpSpan(self, op_id)


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        t = self.tracer
        t.op = self.op_id
        self.rec = ["bench.op", time.perf_counter(), 0.0, -1, self.op_id, None]
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.op = None
        return False


def _owner(spans, idx):
    """'synthesis' or 'sequential' for the nearest such ancestor, else 'other'."""
    p = spans[idx][3]
    while p >= 0:
        module = spans[p][0].split(".", 1)[0]
        if module in ("synthesis", "sequential"):
            return module
        p = spans[p][3]
    return "other"


def _self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations, so the self
    times of one operation's spans sum to its root span's duration."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics, each a mean per operation unless named otherwise."""
    self_times = _self_times(spans)
    ops = {rec[4] for rec in spans if rec[0] == "bench.op"}
    n_ops = max(len(ops), 1)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    k_final, deltas = [], []
    layers = 0
    scheme_bytes = []
    minim = {"synthesis": [0, 0, 0.0], "sequential": [0, 0, 0.0]}  # runs, nfev, time
    op_wall = 0.0
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        dur = end - start
        key = name
        if name == "unitary_opt.unitary_and_tangents":
            key = f"{name}.{_owner(spans, i)}"
        elif name == "scipy.minimize":
            owner = _owner(spans, i)
            if owner in minim:
                m = minim[owner]
                m[0] += 1
                m[1] += extra["nfev"]
                m[2] += dur
        elif name == "bench.op":
            op_wall += dur
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + self_times[i]
        incl[key] = incl.get(key, 0.0) + dur
        if extra:
            if name == "synthesis.synthesize":
                k_final.append(extra["k"])
                deltas.append(extra["delta"])
            elif name == "templates.evaluate_template":
                layers += extra["layers"]
            elif "bytes" in extra:
                scheme_bytes.append(extra["bytes"])

    out: dict[str, float] = {}

    def per_op(key, what):
        src = calls if what == "calls" else self_s
        out[f"{key}.{what}"] = src.get(key, 0) / n_ops

    for key in ("linalg.eig_unitary", "structure.classify_primitive", "arcs.zero_overlap_state",
                "synthesis.synthesize", "sequential.build_sequential_scheme",
                "sequential.optimize_stage", "templates.evaluate_template",
                "templates.compose_templates", "engine.verify_scheme"):
        per_op(key, "calls")
        per_op(key, "self_s")
    per_op("arcs.arc_of_phases", "calls")
    for owner in ("synthesis", "sequential"):
        key = f"unitary_opt.unitary_and_tangents.{owner}"
        per_op(key, "calls")
        per_op(key, "self_s")
        c = calls.get(key, 0)
        out[f"{key}.us_per_call"] = 1e6 * self_s.get(key, 0.0) / c if c else 0.0
    for key in ("engine.discriminate", "io.loads_scheme", "cli.main"):
        per_op(key, "self_s")
    out["synthesis.synthesize.share"] = incl.get("synthesis.synthesize", 0.0) / op_wall if op_wall else 0.0
    runs, nfev, t_min = minim["synthesis"]
    out["synthesis.lbfgs.runs"] = runs / n_ops
    out["synthesis.lbfgs.nfev"] = nfev / n_ops
    out["synthesis.us_per_eval"] = 1e6 * t_min / nfev if nfev else 0.0
    out["synthesis.useful_ratio"] = calls.get("synthesis.synthesize", 0) / runs if runs else 0.0
    out["synthesis.k_final.mean"] = statistics.fmean(k_final) if k_final else 0.0
    out["synthesis.delta.max"] = float(max(deltas)) if deltas else 0.0
    runs, nfev, _ = minim["sequential"]
    out["sequential.minimize.runs"] = runs / n_ops
    out["sequential.minimize.nfev"] = nfev / n_ops
    out["templates.layers_evaluated"] = layers / n_ops
    out["io.scheme_bytes"] = statistics.fmean(scheme_bytes) if scheme_bytes else 0.0
    out["bench.op.self_s"] = self_s.get("bench.op", 0.0) / n_ops
    return out


def per_op_checks(spans) -> tuple[float, int]:
    """(largest |sum of self times - root duration| over operations,
    number of operations that entered synthesis)."""
    self_times = _self_times(spans)
    self_sum: dict[int, float] = {}
    root: dict[int, float] = {}
    synth_ops = set()
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        self_sum[op] = self_sum.get(op, 0.0) + self_times[i]
        if name == "bench.op":
            root[op] = end - start
        elif name.startswith("synthesis."):
            synth_ops.add(op)
    err = max((abs(self_sum[op] - root[op]) for op in root), default=0.0)
    return err, len(synth_ops)
