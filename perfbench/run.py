"""Benchmark runner: one workload, one seed, a closed loop of CLI calls.

    python3 perfbench/run.py --workload sextic --seed 1 --seconds 25 --trace 0

Single process, single thread: each operation is one in-process
`epw.cli.run(argv)` call, started when the previous one returns.  The
run sets up (import, input generation, file writing) three times and
keeps the median, then repeats rounds of the workload's fixed mix while
the next round is expected to end within --seconds, checks every output
and prints one JSON result as its last line.  Times are normalized by the
host's speed, sampled during the operations (HostSpeed).

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
rounds twice, first without and then with the tracer installed, and
reports the per-layer metrics, each per round, plus the tracing
overhead; the spans go to perfbench/out/spans-<workload>.json.
"""

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# probe_job() in the host's fast state (Xeon, 2 vCPUs), and how often it runs
PROBE_NOMINAL_S = 0.0003
PROBE_INTERVAL_S = 0.02

sys.path.insert(0, HERE)


def load_epw():
    """A fresh import of the package (every epw module reloaded)."""
    for name in [n for n in sys.modules if n == "epw" or n.startswith("epw.")]:
        del sys.modules[name]
    epw = importlib.import_module("epw")
    importlib.import_module("epw.cli")
    importlib.import_module("epw.jsonio")
    return epw


def git_sha():
    """HEAD of a git checkout at the repository root, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Rounds:
    """Round r of the workload, drawn on first use and then kept."""

    def __init__(self, make_round, ctx):
        self._make = make_round
        self._ctx = ctx
        self._rounds = []

    def get(self, r):
        while len(self._rounds) <= r:
            self._rounds.append(self._make(self._ctx, len(self._rounds)))
        return self._rounds[r]


def probe_job():
    """A fixed sliver of pure-Python work shaped like the program's hot
    paths (Fraction products, tuple-keyed dict updates, big integers).  It
    never touches epw, so its time tracks only the host's speed."""
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(i, i % 7 + 2) * Fraction(3, i % 5 + 1)
    terms = {}
    for i in range(240):
        e = (i % 3, i % 5, i % 7)
        terms[e] = terms.get(e, 0) + i * 1234567891011


class HostSpeed:
    """Samples the host's speed while operations run.

    A SIGALRM timer runs probe_job() in the main thread every
    PROBE_INTERVAL_S.  The host factor of an interval is the mean probe
    time over PROBE_NOMINAL_S (> 1: slow host).  `normalize` turns a raw
    interval into its normalized time: probe time is taken out, and the
    rest is divided by the interval's host factor.
    """

    def __init__(self):
        self.count = 0
        self.busy = 0.0
        self._factor = 1.0
        self._old = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        probe_job()
        self.busy += time.perf_counter() - t0
        self.count += 1

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self):
        return time.perf_counter(), self.count, self.busy

    def normalize(self, start):
        """(raw seconds without probes, normalized seconds, host factor)
        since `start`, a value of mark().  An interval without a probe keeps
        the previous factor."""
        t1, n1, b1 = self.mark()
        t0, n0, b0 = start
        probes = b1 - b0
        if n1 > n0:
            self._factor = probes / ((n1 - n0) * PROBE_NOMINAL_S)
        raw = t1 - t0 - probes
        return raw, raw / self._factor, self._factor


class Phase:
    """What one timed phase measured, host-normalized; the raw times are
    kept for the record."""

    def __init__(self):
        self.walls = []          # per round: sum of normalized operation times
        self.op_times = []
        self.raw_walls = []
        self.raw_op_times = []
        self.starts = []         # perf_counter at each operation's start
        self.factors = []        # each operation's host factor
        self.cpu = 0.0           # process CPU time inside operations
        self.raw_cpu = 0.0
        self.results = []        # (round, op, exit code, output)

    def factor_at(self, t):
        """The host factor of the operation running at time t."""
        return self.factors[max(bisect.bisect_right(self.starts, t) - 1, 0)]


def run_phase(cli, rounds, budget, host):
    """Closed loop over whole rounds while the next one should fit in
    `budget` seconds (at least one round).  Input drawing for a new round
    happens between rounds and is not part of any round's wall time."""
    start = time.perf_counter()
    ph = Phase()
    r = 0
    while True:
        ops = rounds.get(r)
        wall = raw_wall = 0.0
        for op in ops:
            cs = time.process_time()
            mark = host.mark()
            try:
                code, out = cli.run(op.argv)
            except Exception:
                code, out = None, traceback.format_exc()
            raw, norm, factor = host.normalize(mark)
            cpu = time.process_time() - cs
            ph.cpu += cpu / factor
            ph.raw_cpu += cpu
            ph.starts.append(mark[0])
            ph.raw_op_times.append(raw)
            ph.op_times.append(norm)
            ph.factors.append(factor)
            wall += norm
            raw_wall += raw
            ph.results.append((r, op, code, out))
        ph.walls.append(wall)
        ph.raw_walls.append(raw_wall)
        r += 1
        if time.perf_counter() - start + median(ph.raw_walls) > budget:
            return ph


def verify(results):
    """Number of failed operations: non-zero exit, exception or bad output."""
    failed = 0
    for _, op, code, out in results:
        try:
            ok = code is not None and op.check(code, out)
        except Exception:
            ok = False
        failed += not ok
    return failed


def digest(results):
    """SHA-256 over the exit codes and outputs of round 0, in order."""
    h = hashlib.sha256()
    for r, op, code, out in results:
        if r == 0:
            h.update(("%s\n%s\n" % (code, out)).encode())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "epw", "__init__.py")):
        print("error: no epw package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import Context

    setup, make_round = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        with HostSpeed() as host:
            setups, raw_setups = [], []
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(workdir, ignore_errors=True)
                mark = host.mark()
                epw = load_epw()
                os.makedirs(workdir)
                ctx = Context(epw, args.seed, workdir)
                if setup:
                    setup(ctx)
                rounds = Rounds(make_round, ctx)
                rounds.get(0)
                raw, norm, _ = host.normalize(mark)
                raw_setups.append(raw)
                setups.append(norm)
            if args.trace:
                result = traced_run(args, epw.cli, rounds, host)
            else:
                ph = run_phase(epw.cli, rounds, args.seconds, host)
        if not args.trace:
            failed = verify(ph.results)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            attempted = len(ph.results)
            result = {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    "setup_s": metric(median(setups), "s"),
                    "wall_s": metric(median(ph.walls), "s"),
                    "op_p50_s": metric(median(ph.op_times), "s"),
                    "peak_rss_mb": metric(rss_kib / 1024, "MB"),
                    "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
                },
            }
            record(args, ph, result, raw_setup_s=median(raw_setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


def traced_run(args, cli, rounds, host):
    from tracer import GcCounter, Tracer, layer_metrics

    half = args.seconds / 2
    plain = run_phase(cli, rounds, half, host)
    tracer = Tracer().install()
    try:
        with GcCounter() as gcc:
            ph = run_phase(cli, rounds, half, host)
    finally:
        tracer.uninstall()
    per = len(ph.walls)
    metrics = layer_metrics(tracer.recorder, per, ph.factor_at)
    metrics["process.cpu_s"] = metric(ph.cpu / per, "s")
    metrics["process.gc_collections"] = metric(len(gcc.pauses) / per, "count")
    metrics["process.gc_s"] = metric(sum(s / ph.factor_at(t) for t, s in gcc.pauses) / per, "s")
    overhead = median(ph.walls) - median(plain.walls)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_ratio"] = metric(overhead / median(plain.walls), "ratio")
    all_results = plain.results + ph.results
    failed = verify(all_results)
    os.makedirs(OUT, exist_ok=True)
    tracer.recorder.write(os.path.join(OUT, "spans-%s.json" % args.workload))
    result = {"correct": failed == 0, "attempted": len(all_results), "failed": failed,
              "metrics": metrics}
    raw = layer_metrics(tracer.recorder, per, lambda t: 1.0)
    raw["process.cpu_s"] = metric(ph.raw_cpu / per, "s")
    raw["process.gc_s"] = metric(sum(s for _, s in gcc.pauses) / per, "s")
    record(args, ph, result, raw_layer_s={k: m["value"] for k, m in raw.items()
                                           if k.endswith("_s")})
    return result


def record(args, ph, result, **extra):
    """Print and keep the run's record: output digest, raw (not normalized)
    times, host factors and environment."""
    rec = dict(extra, **{
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest_sha256": digest(ph.results),
        "operations": len(ph.results),
        "round_walls_s": ph.walls,
        "raw_round_walls_s": ph.raw_walls,
        "raw_op_p50_s": median(ph.raw_op_times),
        "host_factor_p50": median(ph.factors),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    })
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "run-%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        json.dump(dict(rec, result=result), fh, indent=1, sort_keys=True)
    print("record: " + json.dumps(rec, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
