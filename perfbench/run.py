"""fcslab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/fcslab`` must exist).  One
client sends each request only after the previous one finished.  BLAS is
pinned to one thread in this process and every process it starts.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs the
requests untraced for S/2 seconds, then replays exactly the same requests
with spans around every layer function, and prints the per-layer metrics
per request together with the tracing overhead (traced minus untraced).
Cycle workloads run whole cycles, so a run may measure a little over S.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (provenance, output digests, sample counts).  Both are also
written under .perfbench_out/, with the spans of a traced run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3            # fresh interpreters timed for setup_s
SPEED_EVERY_S = 0.5         # seconds between machine-speed probes
# Mean time of SpeedIndex's probe on the reference machine (2-core Xeon VM,
# Python 3.11, OpenBLAS on one thread).
SPEED_REF_S = 0.015
FLEET_DIGEST_PREFIX = 18    # fleet requests digested in order (one cycle)

CLI_SUBS = ["validate", "generator", "scgf-scan", "gc-check", "moments",
            "rate-function", "trajectories"]
TIMED_LAYERS = [            # per-layer metrics with both calls and self_s
    "lindblad.build_deformed_lindblad", "lindblad.principal_value",
    "model.check_fgr_irreducibility", "scgf.leading",
    "scgf.gradient_and_hessian", "finite_volume.assemble",
    "finite_volume.characteristic_function", "finite_volume.propagator",
    "transfer.compressed_map"]
SELF_ONLY = [               # per-layer metrics with self_s only
    "lindblad.compute_upsilon", "finite_volume.tpm_distribution",
    "transfer.extract_blocks", "transfer.build_and_deform",
    "trajectories.sample", "trajectories.empirical_scgf",
    "trajectories.mean_current_estimates", "trajectories.clt_test",
    "config.load_config"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: time import and input set-up, then exit")
    return p.parse_args(argv)


def load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# provenance and digests
# ---------------------------------------------------------------------------

def load_average():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, load1):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "load_avg_1min_at_start": load1,
    }


def _feed(h, value):
    import numpy as np
    if isinstance(value, bytes):
        h.update(value)
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    else:
        a = np.asarray(value)
        if np.iscomplexobj(a):
            a = np.stack([a.real, a.imag], axis=-1)
        h.update(repr(a.shape).encode())
        h.update(" ".join("%.17g" % x for x in a.ravel().tolist()).encode())


def digest(values):
    """sha256 of the outputs' %.17g text (raw bytes for CLI files)."""
    h = hashlib.sha256()
    _feed(h, values)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up and the request loop
# ---------------------------------------------------------------------------

def probe(args):
    start = time.perf_counter()
    workloads = load_workloads()
    import_s = time.perf_counter() - start
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.close()
    print(json.dumps({"import_s": import_s}))


class SpeedIndex:
    """How fast the machine runs a fixed probe of interpreter and BLAS work
    that does not touch fcslab.

    On a shared virtual machine the CPU speed can drift by up to 1.5x over
    tens of seconds (measured on a 2-core Xeon VM with the benchmark alone
    running).  There it switched between a fast and a slow state every
    second or two, in a proportion that wandered from minute to minute, and
    every timing of a run moved with it.  Probes are taken every
    SPEED_EVERY_S seconds, and timings are reported scaled by
    SPEED_REF_S / (mean probe time).  The mean, not the median, follows the
    share of time spent in each state, which is what a request averages.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(256, 256))
        self._out = np.empty_like(self._a)
        self._last = -math.inf
        self.samples = []

    def sample(self):
        import numpy as np
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(4):
            np.dot(self._a, self._a, out=self._out)
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= SPEED_EVERY_S:
            self.sample()

    @staticmethod
    def slowness(samples):
        return statistics.fmean(samples) / SPEED_REF_S


def measure_setup(args, speed):
    """Wall time of fresh interpreters that import fcslab and build the
    workload's inputs; returns (walls, in-process import times, the speed
    probes taken around them)."""
    walls, imports = [], []
    first = len(speed.samples)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        speed.sample()
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode(errors="replace")[-500:])
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    speed.sample()
    speed.sample()
    return walls, imports, speed.samples[first:]


def one_request(wl, i):
    """(kind, latency, error, digest) of request i; i < 0 is the warm-up."""
    import workloads
    arg = wl.prepare(i)
    start = time.perf_counter()
    try:
        result = wl.run(arg)
    except Exception as exc:       # the program raised: a failed request
        return wl.kind(i), time.perf_counter() - start, repr(exc), None
    latency = time.perf_counter() - start
    try:
        return wl.kind(i), latency, None, digest(wl.check(arg, result))
    except workloads.CheckFailed as exc:
        return wl.kind(i), latency, f"check: {exc}", None
    except Exception as exc:       # output malformed beyond the checks
        return wl.kind(i), latency, f"check raised: {exc!r}", None


def request_loop(wl, speed, seconds=None, count=None):
    """Closed loop: `count` requests, or whole cycles until the cycle
    boundary nearest to `seconds` of request time (at least one cycle)."""
    records = []
    busy = last_boundary = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % wl.cycle == 0:
            cycle_s = busy - last_boundary
            last_boundary = busy
            if busy + cycle_s / 2 >= seconds:
                break
        speed.maybe_sample()
        rec = one_request(wl, i)
        records.append(rec)
        busy += rec[1]
        i += 1
    return records


def nearest_rank(values, pct):
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail_latency(records, wl, slowness):
    """request_tail_s: the nearest-rank percentile wl.tail_pct, or, for
    cycle workloads (tail_pct None), the mean over cycles of each cycle's
    slowest request (the mean, unlike the median, does not shift when a
    run fits one cycle more or less)."""
    if wl.tail_pct is not None:
        lat = [r[1] for r in records if r[2] is None]
        return nearest_rank(lat, wl.tail_pct) / slowness if lat else math.nan
    worst = [max(r[1] for r in records[k:k + wl.cycle])
             for k in range(0, len(records), wl.cycle)]
    return statistics.fmean(worst) / slowness


def peak_rss_mb(wl):
    """Peak resident memory of this process, or of the largest child when
    the requests run in child processes."""
    who = (resource.RUSAGE_CHILDREN if wl.requests_in_children
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(records, wl, setup_walls, fv_dev, failed, attempted,
               rss_mb, slowness=1.0, setup_slowness=1.0):
    """End-to-end metrics; timings are scaled to the reference speed."""
    lat = [r[1] / slowness for r in records if r[2] is None]
    return {
        "setup_s": (statistics.median(setup_walls) / setup_slowness, "s"),
        "request_p50_s": (statistics.median(lat) if lat else math.nan, "s"),
        "request_tail_s": (tail_latency(records, wl, slowness), "s"),
        "requests_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "fv_deviation_median": (fv_dev, "ratio"),
    }


def check_digests(records):
    """Every request kind whose inputs repeat must give identical outputs;
    returns (digests per kind, number of disagreeing requests)."""
    by_kind, bad = {}, 0
    for kind, _, err, dig in records:
        if err is not None or kind == "fleet":
            continue
        first = by_kind.setdefault(kind, dig)
        bad += dig != first
    fleet = [r[3] for r in records if r[0] == "fleet"][:FLEET_DIGEST_PREFIX]
    if fleet:
        by_kind[f"fleet[:{len(fleet)}]"] = digest([d.encode() if d else b""
                                                   for d in fleet])
    by_kind["workload"] = digest([f"{k}={v}".encode()
                                  for k, v in sorted(by_kind.items())])
    return by_kind, bad


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tot, n_req, wl, import_s, untraced, traced, cli_children):
    c, s, o, e = tot["calls"], tot["self_s"], tot["observed"], tot["errors"]

    def per(x):
        return x / n_req

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in TIMED_LAYERS:
        m[f"{name}.calls"] = per(c.get(name, 0))
        m[f"{name}.self_s"] = per(s.get(name, 0.0))
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = per(s.get(name, 0.0))
    m["lindblad.gauss_rules.calls"] = per(
        o.get("lindblad.gauss_rules.calls", 0))
    m["scgf.ScgfSolver.calls"] = per(c.get("scgf.ScgfSolver", 0))
    m["scgf.rate_function.newton_iterations"] = per(
        o.get("scgf.rate_function.newton_iterations", 0))
    m["scgf.rate_function.converged_ratio"] = ratio(
        o.get("scgf.rate_function.converged", 0),
        o.get("scgf.rate_function.points", 0))
    m["finite_volume.propagator.repeat_ratio"] = ratio(
        o.get("finite_volume.propagator.repeats", 0),
        c.get("finite_volume.propagator", 0))
    m["finite_volume.dim"] = float(o.get("finite_volume.dim.max", 0))
    jumps = o.get("trajectories.sample.jumps", 0)
    m["trajectories.sample.jumps"] = per(jumps)
    m["trajectories.sample.jumps_per_s"] = ratio(
        jumps, s.get("trajectories.sample", 0.0))
    m["trajectories.empirical_scgf.ess_ratio"] = ratio(
        o.get("trajectories.empirical_scgf.ess_ratio_sum", 0.0),
        o.get("trajectories.empirical_scgf.points", 0))
    m["cli.import_s"] = import_s
    for sub in CLI_SUBS:
        walls = [r[1] for r in untraced if r[0] == sub and r[2] is None]
        builds = [child["totals"]["calls"].get(
            "lindblad.build_deformed_lindblad", 0)
            for kind, child in cli_children if kind == sub]
        m[f"cli.{sub}.wall_s"] = statistics.fmean(walls) if walls else 0.0
        m[f"cli.{sub}.generator_builds"] = (statistics.fmean(builds)
                                            if builds else 0.0)
    import tracer
    for layer in tracer.LAYERS:
        m[f"{layer}.errors"] = per(e.get(layer, 0))
    lat_u = sum(r[1] for r in untraced)
    lat_t = sum(r[1] for r in traced)
    m["trace.overhead_s"] = (lat_t - lat_u) / n_req
    m["trace.overhead_ratio"] = lat_t / lat_u - 1.0
    units = {"calls": "count", "self_s": "s", "errors": "count",
             "wall_s": "s", "import_s": "s", "overhead_s": "s",
             "generator_builds": "count", "jumps": "count",
             "jumps_per_s": "1/s", "dim": "count",
             "newton_iterations": "count"}
    return {k: (v, units.get(k.rsplit(".", 1)[-1], "ratio"))
            for k, v in m.items()}


def traced_phase(wl, n_req):
    """Replay requests 0..n_req-1 with the tracer installed."""
    import tracer as tracer_mod
    wl.traced = True
    tracer = tracer_mod.Tracer()
    with tracer:
        records = []
        for i in range(n_req):
            tracer.request = i
            records.append(one_request(wl, i))
    children = getattr(wl, "children", [])
    totals = tracer_mod.merge_totals(
        [tracer.totals()] + [child["totals"] for _, child in children])
    spans = [dict(row, process=0) for row in tracer.span_rows()]
    for i, (_, child) in enumerate(children):
        spans.extend(dict(row, request=i, process=i + 1)
                     for row in child["spans"])
    return records, totals, spans, children


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fcslab" / "__init__.py").is_file():
        print(f"no fcslab sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    if args.probe:
        probe(args)
        return 0
    load1 = load_average()
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    prov = provenance(args.seed, load1)
    speed = SpeedIndex()
    speed.sample()                  # first-call costs stay out of the index
    speed.samples.clear()
    setup_walls, setup_imports, setup_speed = measure_setup(args, speed)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        warm = [one_request(wl, -1)]
        first = len(speed.samples)
        if args.trace == 0:
            untraced = request_loop(wl, speed, seconds=args.seconds)
            traced = []
        else:
            untraced = request_loop(wl, speed, seconds=args.seconds / 2.0)
            traced, totals, spans, children = traced_phase(wl, len(untraced))
        speed.sample()
        loop_speed = speed.samples[first:]
        if wl.repeat_warmup:
            warm.append(one_request(wl, -1))
        rss_mb = peak_rss_mb(wl)    # before the untimed accuracy check
        fv_dev = wl.fv_deviation()
        clt = getattr(wl, "clt_passed", None)
    finally:
        wl.close()

    all_records = warm + untraced + traced
    digests, disagree = check_digests(all_records)
    failed = sum(r[2] is not None for r in all_records) + disagree
    errors = [f"{r[0]}: {r[2]}" for r in all_records if r[2] is not None]
    if disagree:
        errors.append(f"{disagree} requests disagree with the first output "
                      "of their kind")
    e2e = end_to_end(untraced, wl, setup_walls, fv_dev, failed,
                     len(all_records), rss_mb, speed.slowness(loop_speed),
                     speed.slowness(setup_speed))
    raw = end_to_end(untraced, wl, setup_walls, fv_dev, failed,
                     len(all_records), rss_mb)
    if args.trace == 0:
        metrics = e2e
    else:
        metrics = layer_metrics(totals, len(traced), wl,
                                statistics.median(setup_imports),
                                untraced, traced, children)
    lat = sorted(r[1] for r in untraced if r[2] is None)
    beyond = (len(lat) - max(1, math.ceil(wl.tail_pct / 100.0 * len(lat)))
              if wl.tail_pct is not None else None)
    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "requests_timed": len(untraced), "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": beyond,
        "failed_ratio": failed / len(all_records),
        "errors": errors[:20],
        "setup_walls_s": setup_walls, "setup_import_s": setup_imports,
        "digests": digests,
        "latencies_s": [r[1] for r in untraced],
        "per_kind_p50_s": {
            kind: statistics.median([r[1] for r in untraced
                                     if r[0] == kind and r[2] is None])
            for kind in sorted({r[0] for r in untraced if r[2] is None})},
        "clt_passed": clt,
        "speed_probe_s": speed.samples,
        "slowness": speed.slowness(loop_speed),
        "setup_slowness": speed.slowness(setup_speed),
        "end_to_end_untraced": {k: v[0] for k, v in e2e.items()},
        "end_to_end_unscaled": {k: v[0] for k, v in raw.items()},
    }
    if args.trace == 1:
        details["traced_requests"] = len(traced)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace == 1:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({"details": details}))
    result = {
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
