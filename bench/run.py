#!/usr/bin/env python3
"""seqlocc benchmark: end-to-end metrics per workload, or a traced run
with per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload arc-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller drives the public API (or the CLI, for scheme-verify) in a
closed loop, in process, on inputs generated from --seed by
bench/inputs.py. The gate in bench/gate.py checks every timed operation.
The loop cycles over the workload's inputs until --seconds have passed
and every input has run once. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics; --trace 0
reports the end_to_end metrics of BENCHMARK.json and --trace 1 its
per_layer metrics. --out FILE also writes the full record, with every
metric and the environment, for bench/compare.py.
"""

import os

# pinned before numpy loads, so BLAS and OpenMP start with one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import seqlocc, seqlocc.cli; "
                "print(time.perf_counter() - t)")

# every end-to-end metric the benchmark computes: name -> (unit, better).
# BENCHMARK.json names the gated ones and the per-layer ones a traced run prints.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_s.p50": ("s", "lower"),
    "op_s.p90": ("s", "lower"),
    "ops_per_kref": ("1/kref", "higher"),
    "op_ref.p50": ("ref", "lower"),
    "op_ref.p90": ("ref", "lower"),
    "queries_per_op": ("count", "lower"),
    "query_overhead": ("ratio", "lower"),
    "budget_max": ("1", "lower"),
    "fail_rate": ("ratio", "lower"),
    "pass_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def query_bound(U, V) -> int:
    """ceil(pi / Theta(U^dag V)), from the eigenphases of U^dag V."""
    ph = np.sort(np.mod(np.angle(np.linalg.eigvals(U.conj().T @ V)), 2 * math.pi))
    gaps = np.diff(np.concatenate([ph, [ph[0] + 2 * math.pi]]))
    theta = 2 * math.pi - float(gaps.max())
    return max(1, math.ceil(math.pi / theta - 1e-12))


class Discriminate:
    """engine.discriminate on generated pairs with RunConfig() defaults."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.ops = [(validate_unitary(p.U, p.d_a, p.d_b), validate_unitary(p.V, p.d_a, p.d_b))
                    for p in inputs.WORKLOADS[name](seed)]
        self.cfg = RunConfig()

    def __len__(self):
        return len(self.ops)

    def run(self, i):
        U, V = self.ops[i]
        return engine.discriminate(U, V, self.cfg)

    def check(self, i, out) -> list[str]:
        U, V = self.ops[i]
        return gate.check_scheme(out[0], U, V)

    def describe(self, i, out) -> dict:
        U, V = self.ops[i]
        scheme = out[0]
        return {"queries": gate.query_count(scheme), "bound": query_bound(U.matrix, V.matrix),
                "budget": float(scheme.budget), "route": "/".join(scheme.case_trace)}

    def dumps(self, i, out) -> str:
        return sio.dumps_scheme(*out)

    def self_check(self, out):
        gate.self_check(out[0], *self.ops[0])

    def final_problems(self, dumps0) -> dict[int, list[str]]:
        """One byte-identical rerun of input 0."""
        if dumps0 is not None and self.dumps(0, self.run(0)) != dumps0:
            return {0: ["rerun of input 0 is not byte-identical"]}
        return {}


class Verify:
    """seqlocc.cli.main(["verify", ...]) on scheme files that the set-up
    writes through seqlocc.cli.main(["discriminate", ...])."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.files = []
        for i, p in enumerate(inputs.WORKLOADS[name](seed)):
            u, v, s = (str(workdir / f"{tag}{i}.json") for tag in ("u", "v", "scheme"))
            sio.save_matrix_file(u, validate_unitary(p.U, p.d_a, p.d_b))
            sio.save_matrix_file(v, validate_unitary(p.V, p.d_a, p.d_b))
            self._discriminate(u, v, s)
            self.files.append((s, u, v))

    @staticmethod
    def _discriminate(u, v, s):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(["discriminate", u, v, "--out", s])
        if rc != 0:
            raise RuntimeError(f"set-up: seqlocc discriminate exited {rc}: {err.getvalue()}")

    def __len__(self):
        return len(self.files)

    def _load(self, i):
        s, u, v = self.files[i]
        return sio.load_scheme_file(s), sio.load_matrix_file(u), sio.load_matrix_file(v)

    def run(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", *self.files[i]])
        return rc, buf.getvalue()

    def check(self, i, out) -> list[str]:
        rc, text = out
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        problems = []
        if rc != 0 or fields.get("verified") != "pass":
            problems.append(f"seqlocc verify exited {rc}: {text.strip()!r}")
        elif not float(fields["overlap"]) <= float(fields["budget"]) + gate.OVERLAP_SLACK:
            problems.append(f"verify printed overlap {fields['overlap']} > budget {fields['budget']}")
        return problems

    def describe(self, i, out) -> dict:
        scheme, U, V = self._load(i)
        return {"queries": gate.query_count(scheme), "bound": query_bound(U.matrix, V.matrix),
                "budget": float(scheme.budget), "route": "/".join(scheme.case_trace)}

    def dumps(self, i, out) -> str:
        with open(self.files[i][0], encoding="utf-8") as fh:
            return fh.read()

    def self_check(self, out):
        gate.self_check(*self._load(0))

    def final_problems(self, dumps0) -> dict[int, list[str]]:
        """The gate on every scheme file, and one byte-identical rerun of the
        CLI discriminate that wrote the first."""
        found = {}
        for i in range(len(self)):
            problems = gate.check_scheme(*self._load(i))
            if problems:
                found[i] = problems
        s, u, v = self.files[0]
        again = str(self.workdir / "rerun.json")
        self._discriminate(u, v, again)
        with open(again, encoding="utf-8") as fh:
            if fh.read() != self.dumps(0, None):
                found.setdefault(0, []).append("CLI discriminate rerun is not byte-identical")
        return found


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(name, seed, workdir, rounds, clock):
    """Median over rounds of import + input generation + one warm-up
    operation, in wall seconds and rescaled to the nominal machine speed of
    refclock (the kernel is timed right before and after each round), and
    the last round's workload."""
    walls, scaled = [], []
    for _ in range(rounds):
        before = clock.sample()
        imported = import_seconds()
        t0 = time.perf_counter()
        wl = (Verify if name == "scheme-verify" else Discriminate)(name, seed, workdir)
        out = wl.run(0)
        walls.append(imported + time.perf_counter() - t0)
        scaled.append(walls[-1] * refclock.NOMINAL_S / (0.5 * (before + clock.sample())))
    problems = wl.check(0, out)
    if problems:
        raise RuntimeError(f"warm-up operation failed the gate: {problems}")
    wl.self_check(out)
    return statistics.median(scaled), statistics.median(walls), wl


class Tally:
    """Timed operations (index, seconds, ref units, problems), the first
    passing description of each input, and the first dumps of input 0."""

    def __init__(self, clock):
        self.clock = clock
        self.records: list[tuple[int, float, float, list[str]]] = []
        self.first: dict[int, dict] = {}
        self.dumps0 = None

    def add(self, wl, i, tracer=None, op_id=0):
        before = self.clock.tick()
        ctx = tracer.op_span(op_id) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                out = wl.run(i)
            err = None
        except Exception as exc:  # a failed operation is counted, never dropped
            err = f"{type(exc).__name__}: {exc}"
        dur = time.perf_counter() - t0
        ref = dur / (0.5 * (before + self.clock.tick()))
        if err is None:
            try:
                problems = wl.check(i, out)
            except Exception as exc:  # e.g. a verifier that raises on a bad scheme
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
        else:
            problems = [err]
        if not problems and i not in self.first:
            self.first[i] = wl.describe(i, out)
            if i == 0:
                self.dumps0 = wl.dumps(i, out)
        self.records.append((i, dur, ref, problems))

    def seconds(self) -> float:
        return sum(r[1] for r in self.records)


def timed_loop(wl, seconds, clock) -> Tally:
    """Cycle over the inputs until every input ran once and seconds passed."""
    tally = Tally(clock)
    t_start = time.perf_counter()
    k = 0
    while k < len(wl) or time.perf_counter() - t_start < seconds:
        tally.add(wl, k % len(wl))
        k += 1
    return tally


def traced_loop(wl, seconds, clock, tracer) -> tuple[Tally, Tally]:
    """Each operation runs untraced and traced, alternating which goes
    first so neither gains from running second; their time ratio is the
    tracing overhead. The tracer is installed only around traced runs."""
    untraced, traced = Tally(clock), Tally(clock)
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < seconds:
        i = k % len(wl)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.add(wl, i)
                continue
            tracer.install()
            try:
                traced.add(wl, i, tracer, k)
            finally:
                tracer.uninstall()
        k += 1
    return untraced, traced


def environment(args, n_inputs, n_timed) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "commit": commit,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": n_inputs, "timed_ops": n_timed,
    }


def percentile90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def per_input_medians(records, column: int) -> list[float]:
    """Each input's median over its repeats, so that every input weighs the
    same whether or not the run had time to repeat it."""
    by_input: dict[int, list[float]] = {}
    for r in records:
        by_input.setdefault(r[0], []).append(r[column])
    return [statistics.median(v) for v in by_input.values()]


def end_to_end(records, first, setup_s, n_failed) -> dict[str, float]:
    durs = per_input_medians(records, 1)
    refs = per_input_medians(records, 2)
    all_durs = [r[1] for r in records]
    all_refs = [r[2] for r in records]
    described = list(first.values())
    queries = sum(x["queries"] for x in described)
    bounds = sum(x["bound"] for x in described)
    fail_rate = n_failed / len(records)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(all_durs) / sum(all_durs),
        "op_s.p50": statistics.median(durs),
        "op_s.p90": percentile90(durs),
        "ops_per_kref": 1000.0 * len(all_refs) / sum(all_refs),
        "op_ref.p50": statistics.median(refs),
        "op_ref.p90": percentile90(refs),
        "queries_per_op": queries / len(described) if described else math.nan,
        "query_overhead": queries / bounds if bounds else math.nan,
        "budget_max": max((x["budget"] for x in described), default=math.nan),
        "fail_rate": fail_rate,
        "pass_rate": 1.0 - fail_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args, spec) -> int:
    name = args.workload
    gated = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    extra = {}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        clock = refclock.RefClock()
        setup_s, setup_wall_s, wl = set_up(name, args.seed, Path(tmp),
                                           1 if args.trace else SETUP_ROUNDS, clock)
        if not args.trace:
            tally = timed_loop(wl, args.seconds, clock)
            records = tally.records
            metrics_all = None
        else:
            tracer = spans.Tracer()
            tally, traced = traced_loop(wl, args.seconds, clock, tracer)
            records = tally.records + traced.records
            metrics_all = spans.layer_metrics(tracer.spans)
            metrics_all["trace.overhead"] = traced.seconds() / tally.seconds() - 1.0
            self_err, synth_ops = spans.per_op_checks(tracer.spans)
            extra = {"absent": tracer.absent, "self_sum_error_s": self_err,
                     "ops_with_synthesis": synth_ops, "traced_ops": len(traced.records)}
            if args.out:
                with open(f"{args.out}.spans.jsonl", "w", encoding="utf-8") as fh:
                    for rec in tracer.spans:
                        fh.write(json.dumps(dict(zip(
                            ("name", "start", "end", "parent", "op", "extra"), rec))) + "\n")
        late = wl.final_problems(tally.dumps0)
    extra["ref_kernel_s"] = statistics.median(clock.samples)
    failures = [(r[0], p) for r in records for p in r[3]]
    failures += [(i, p) for i, problems in late.items() for p in problems]
    n_failed = sum(1 for r in records if r[3] or r[0] in late)
    e2e = end_to_end(records, tally.first, setup_s, n_failed)
    e2e["setup_wall_s"] = setup_wall_s
    routes = sorted({x["route"] for x in tally.first.values()})
    if metrics_all is None:
        metrics_all = e2e
        shown = gated
        units = {k: END_TO_END[k] for k in e2e}
    else:
        shown = layer_names
        units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if args.trace:
        mismatch = sorted(set(shown) ^ set(metrics_all))
    else:
        mismatch = [m["name"] for m in spec["end_to_end"]
                    if END_TO_END.get(m["name"], (None,))[0] != m["unit"]]
    if mismatch:
        raise RuntimeError(f"BENCHMARK.json and this run disagree on metrics: {mismatch}")
    correct = n_failed == 0 and extra.get("self_sum_error_s", 0.0) <= 1e-6

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  inputs {len(wl)}  "
          f"timed ops {len(records)}  failed {n_failed}")
    print(f"routes: {', '.join(routes)}")
    for key, value in metrics_all.items():
        mark = "*" if key in shown else " "
        print(f" {mark} {key:<52} {value:>14.6g} {units[key][0]}")
    for key, value in extra.items():
        print(f"   {key:<52} {value}")
    for i, problem in failures[:20]:
        print(f"   FAIL input {i}: {problem}")
    if args.out:
        record = {"env": environment(args, len(wl), len(records)), "correct": correct,
                  "attempted": len(records), "failed": n_failed, "routes": routes,
                  "failures": [f"input {i}: {p}" for i, p in failures], **extra,
                  "metrics": {k: {"value": v, "unit": units[k][0], "better": units[k][1]}
                              for k, v in metrics_all.items()}}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": n_failed,
                      "metrics": {k: {"value": metrics_all[k], "unit": units[k][0]} for k in shown}}))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(Path(args.out) / f"{w['name']}-{args.seed}.json")]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            merged["metrics"][f"{w['name']}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record here (a directory with 'all')")
    args = parser.parse_args(argv)
    if not (SRC / "seqlocc" / "__init__.py").is_file():
        print(f"error: no seqlocc sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")

    sys.path.insert(0, str(SRC))
    global inputs, gate, spans, refclock, engine, cli, sio, RunConfig, validate_unitary
    import inputs
    import gate
    import refclock
    import spans
    import seqlocc
    from seqlocc import cli, engine
    from seqlocc import io as sio
    from seqlocc import RunConfig, validate_unitary

    if Path(seqlocc.__file__).resolve().parent != SRC / "seqlocc":
        print(f"error: imported seqlocc from {seqlocc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
