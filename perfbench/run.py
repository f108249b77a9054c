"""Benchmark of the frolicher engine: one workload, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``s6_sweep``, ``page_oracle``, ``cli_session`` (see
README.md).  One client runs a closed loop on one thread; every operation
is checked against references that do not use the code under test.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs the same operations untraced and then traced, and reports per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object; the lines before it give every metric by name with its
unit, and the environment.
"""

import os

# Cap native thread pools before numpy is imported here or in any child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[0] = ROOT
sys.path.insert(1, SRC)

from perfbench import tracing, workloads  # noqa: E402

clock = time.perf_counter
# Set-up is probed this many times, evenly over the run rather than all at
# its start: the shared host's speed drifts over tens of seconds, and the
# median then covers the same stretch of time as the operations.
SETUP_PROBES = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up once, print the ready time and exit")
    return ap.parse_args(argv)


def source_present():
    return os.path.isfile(os.path.join(SRC, "frolicher", "__init__.py"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment():
    """What actually ran: backend bound, versions, cores, source identity."""
    import numpy
    from frolicher import _kernels
    backend = ("interpreted" if _kernels.rank_i64 is _kernels._rank_i64
               else "numba")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "frolicher")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "kernel_backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_workload(args):
    wl = workloads.make(args.workload, ROOT, child_env())
    wl.setup(args.seed)
    return wl


def probe(args):
    """One set-up, as a fresh process: import, build inputs, report ready."""
    import frolicher  # noqa: F401
    wl = setup_workload(args)
    if args.workload != "cli_session":
        wl.prepare(next(wl.rounds())[0])
    ready = time.monotonic()
    wl.close()
    print(repr(ready))
    return 0


def setup_probe(args):
    """Seconds from spawning a fresh process until its first op could run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1]) - spawned


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []
        self._last_ok = False

    def record(self, key, fails):
        """Count one attempted operation and whether it failed."""
        self.attempted += 1
        self._last_ok = True
        if fails:
            self.fail(key, fails)

    def fail(self, key, fails):
        """Mark the last recorded operation failed (counted once)."""
        if self._last_ok:
            self.failed += 1
            self._last_ok = False
        if len(self.examples) < 10:
            self.examples.append(f"{key}: {'; '.join(fails)[:400]}")


def one_op(wl, key, tally, tracer=None, op_id=None):
    """Prepare (untimed), run (timed), check. Returns (seconds, digest)."""
    x = wl.prepare(key)
    try:
        with (tracer.operation(op_id) if tracer else contextlib.nullcontext()):
            t0 = clock()
            out = wl.run(x)
            dt = clock() - t0
    except Exception:
        tally.record(key, ["raised " + traceback.format_exc(limit=3)])
        return None, None
    try:
        digest, fails = wl.check(key, x, out)
    except Exception:
        digest, fails = None, ["check raised " + traceback.format_exc(limit=3)]
    tally.record(key, fails)
    return dt, digest


def percentile(sorted_values, q):
    """Linear interpolation between order statistics."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed_run(args, wl, tally):
    """Operation times in seconds, one list per round, and set-up probes.

    The probes' own time counts against ``--seconds`` but not against any
    operation.  At least one operation runs, however short the run.
    """
    rounds, setup = [], []
    start = clock()
    deadline = start + args.seconds
    every = args.seconds / SETUP_PROBES
    for keys in wl.rounds():
        rounds.append([])
        for key in keys:
            due = start + len(setup) * every
            if len(setup) < SETUP_PROBES and clock() >= due:
                setup.append(setup_probe(args))
            if clock() >= deadline and tally.attempted:
                return rounds, setup
            dt, _ = one_op(wl, key, tally)
            if dt is not None:
                rounds[-1].append(dt)


def end_to_end(args, wl, tally):
    wl.warmup()
    rounds, setup_samples = timed_run(args, wl, tally)
    times = [t for r in rounds for t in r]
    if not times:
        raise RuntimeError("no operation completed")
    ms = sorted(t * 1e3 for t in times)
    n = len(ms)
    tail_q = max(0.5, 1 - 10 / n)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "latency_p50_ms": (percentile(ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    notes = {
        "samples": n,
        "rounds_ms": [[round(t * 1e3, 3) for t in r] for r in rounds],
        "setup_samples_s": setup_samples,
        "fail_share": tally.failed / max(tally.attempted, 1),
        "tail_percentile": round(100 * tail_q, 1),
        "tail_latency_ms": percentile(ms, tail_q),
    }
    return metrics, notes


def traced_run(args, wl, tally):
    """The same operations untraced, then traced; per-layer metrics."""
    wl.warmup()
    keys, plain, digests = [], [], []
    deadline = clock() + args.seconds / 2
    rounds = wl.rounds()
    for _ in range(wl.trace_rounds):
        for key in next(rounds):
            dt, digest = one_op(wl, key, tally)
            keys.append(key)
            plain.append(dt or 0.0)
            digests.append(digest)
        if clock() >= deadline:
            break
    tracer = tracing.Tracer()
    spans = []
    raw = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.workload == "cli_session":
            wl.trace_dir = tmp
        else:
            tracer.install()
        traced = []
        try:
            for i, key in enumerate(keys):
                dt, digest = one_op(wl, key, tally, tracer, i)
                traced.append(dt or 0.0)
                if digest != digests[i]:
                    tally.fail(key, [f"traced digest {digest} != untraced "
                                     f"{digests[i]}"])
                if wl.trace_dir is not None:
                    path = os.path.join(tmp, f"child-{wl.children}.json")
                    if not os.path.exists(path):
                        tally.fail(key, ["traced child wrote no spans"])
                        continue
                    with open(path, encoding="utf-8") as fh:
                        child = json.load(fh)
                    raw = tracing.merge(raw, child["raw"])
                    spans.append((i, child["spans"]))
                    tracer.missing = child["missing"]
        finally:
            tracer.uninstall()
            wl.trace_dir = None
    if tracer.spans:
        raw = tracing.summarize(tracer.spans)
        spans = [(None, tracer.spans)]
    metrics = {k: (v, layer_unit(k)) for k, v in
               tracing.layer_metrics(raw).items()}
    overhead = sum(traced) - sum(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / sum(plain) if sum(plain)
                                       else 0.0, "share")
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(
        OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    tracing.write_trace(trace_path, tracer.ops, spans)
    notes = {"ops_traced": len(keys), "spans": sum(len(s) for _, s in spans),
             "untraced_s": sum(plain), "traced_s": sum(traced),
             "untraced_targets": tracer.missing, "trace_file": trace_path}
    return metrics, notes


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("max_bits"):
        return "bits"
    if name == "serialize.bytes":
        return "B"
    if name == "spectral.elim_per_entry":
        return "1/entry"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not source_present():
        print(f"error: no program source at {SRC}; run from the root of a "
              "frolicher checkout", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args)
    import frolicher
    if not os.path.abspath(frolicher.__file__).startswith(SRC + os.sep):
        print(f"error: imported frolicher from {frolicher.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    wl = setup_workload(args)
    tally = Tally()
    try:
        if args.trace:
            metrics, notes = traced_run(args, wl, tally)
        else:
            metrics, notes = end_to_end(args, wl, tally)
    finally:
        wl.close()
    notes["attempted"] = tally.attempted
    notes["failed"] = tally.failed
    notes["failures"] = tally.examples
    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{'fail_share':<40} {notes['fail_share']:>14.6g} share "
              f"({tally.failed} of {tally.attempted})")
        print(f"# latency from {notes['samples']} operations; highest "
              f"percentile with >= 10 beyond it: p{notes['tail_percentile']}"
              f" = {notes['tail_latency_ms']:.3f} ms")
    for line in tally.examples:
        print("# FAILED " + line)
    result_path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}"
                                    f"_trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "notes": notes}, fh, indent=2)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
