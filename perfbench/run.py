"""covmap benchmark: one closed-loop client running one seeded workload.

    python3 perfbench/run.py --workload twocopy_batch --seed 1 --seconds 25 --trace 0

Run from the root of a covmap checkout; the package is imported from
``src/``.  The client issues the workload's cycle of jobs back to back, with
no think time, because every caller of the library or CLI waits for its
answer.  It runs whole cycles until ``--seconds`` have passed.  Timing
metrics are scaled to a reference host by a probe kernel timed between
jobs (see HostProbe), because the speed of a shared host drifts.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric.  With ``--trace 1`` cycles alternate between untraced and
traced, and the JSON holds the per-layer metrics of the traced cycles plus
``trace.overhead_ratio``, the traced over the untraced jobs per second.
The lines before the JSON carry the environment stamp, the self-test of the
oracles and every failed job with its cause.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np

from oracle import Reference
from spans import Tracer, layer_metrics, unit_of
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

# Set-up (import, input generation, one warm-up job of each kind) is timed
# again after the measured cycles, in a warm process, at least this many
# times and for at least this long; the median is reported.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
# Whole cycles run until --seconds have passed and at least this many
# untraced jobs are done, so that ten or more jobs lie beyond job_p90_ms.
MIN_JOBS = 100
# A job counts as stalled when it takes this many times the median latency
# of its own spec in the run.
STALL_FACTOR = 5.0
# Every timing metric is scaled to a host on which one HostProbe kernel
# takes this many seconds.
PROBE_REF_S = 0.001
# A span is scaled by the median of the probes nearest to it: up to this
# many just before it and as many just after it.
PROBE_WINDOW = 5
# A span's time is multiplied by (PROBE_REF_S / probe median) to this power.
# Across runs, a change in the host's speed moved the workloads' job rates
# by 0.4 to 0.9 times as much as the probe's (0.6 on average), so full
# scaling over-corrects the workloads dominated by large BLAS calls.
PROBE_EXPONENT = 0.6


def _unkeyed(args, result):
    return "", {}


def _d_first(args, result):
    return f"d{args[0].d}", {}


def _d_second(args, result):
    return f"d{args[1]}", {}


def _md_first(args, result):
    return f"m{args[0].m}d{args[0].d}", {}


def _md_second(args, result):
    return f"m{args[1]}d{args[2]}", {}


def _m2_first(args, result):
    return f"m2d{args[0].d}", {}


def _cb(args, result):
    return f"{result.method}-{result.value_kind}", {}


def _twirl(args, result):
    return f"d{args[1]}", {"samples": result.samples}


def _cli(args, result):
    argv = args[0]
    return (argv[0] if argv[0] != "multicopy" else f"multicopy_{argv[1]}"), {"exit": result}


# covmap function -> (span name, describe(args, result) -> (key, tags))
SPANS = {
    "realize_superoperator": ("twocopy.realize", _d_first),
    "extract": ("twocopy.extract", _d_second),
    "fit_coefficients": ("twocopy.fit", _d_second),
    "classify": ("classify.classify", _d_first),
    "cb_norm": ("norms.cb_norm", _cb),
    "twirl": ("twirl.twirl", _twirl),
    "covariance_deviation": ("twirl.covdev", _d_second),
    "twirl_operator": ("twirl.twirl_operator", _md_second),
    "realize_multi_superoperator": ("multicopy.realize", _md_first),
    "extract_multi": ("multicopy.extract", _md_second),
    "apply_multi": ("multicopy.apply", _md_first),
    "schur_weyl_fit": ("multicopy.fit", _md_second),
    "covariance_residual_multi": ("multicopy.covres", _md_second),
    "from_two_copy": ("multicopy.from_two_copy", _m2_first),
}
# Names covmap.cli.main resolves at call time.
CLI_CALLS = (
    "extract", "fit_coefficients", "classify", "cb_norm", "twirl",
    "apply_multi", "extract_multi", "schur_weyl_fit",
)


def import_covmap():
    """Fresh import of covmap from the checkout, so set-up pays the import."""
    for name in [n for n in sys.modules if n == "covmap" or n.startswith("covmap.")]:
        del sys.modules[name]
    cm = importlib.import_module("covmap")
    importlib.import_module("covmap.cli")
    importlib.import_module("covmap.serialize")
    if not os.path.abspath(cm.__file__).startswith(SRC + os.sep):
        raise ImportError(f"covmap imported from {cm.__file__}, not from {SRC}")
    return cm


def make_api(cm, tracer: Tracer | None = None) -> SimpleNamespace:
    """The covmap entry points jobs call, wrapped in spans when tracing."""
    api = {}
    for name, (span, describe) in SPANS.items():
        fn = getattr(cm, name)
        api[name] = fn if tracer is None else tracer.wrap(span, fn, describe)
    main = cm.cli.main
    api["cli_main"] = main if tracer is None else tracer.wrap("cli.main", main, _cli)
    return SimpleNamespace(**api)


@contextlib.contextmanager
def cli_spans(cm, tracer: Tracer):
    """Wrap the names covmap.cli.main resolves at call time; restore them after."""
    saved = []
    try:
        for name in CLI_CALLS:
            fn = getattr(cm.cli, name)
            span, describe = SPANS[name]
            saved.append((cm.cli, name, fn))
            setattr(cm.cli, name, tracer.wrap(span, fn, describe))
        for name in cm.serialize.__all__:
            fn = getattr(cm.serialize, name)
            if callable(fn) and not isinstance(fn, type):
                saved.append((cm.serialize, name, fn))
                setattr(cm.serialize, name, tracer.wrap(f"serialize.{name}", fn, _unkeyed))
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def env_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "default"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def first_of_each_kind(jobs):
    seen = {}
    for job in jobs:
        seen.setdefault(job.kind, job)
    return list(seen.values())


def checked(job, result) -> str | None:
    try:
        return job.checker.check(result)
    except Exception as exc:  # a malformed output must count as a failure
        return f"check raised {exc!r}"


class HostProbe:
    """A fixed kernel of small products and Python that gauges the host's speed.

    On a shared host the speed of the whole process drifts with the host's
    load, covmap and plain numpy alike, by as much as 1.9 times within
    minutes.  The kernel runs no covmap code, its 24 x 24 products are
    below OpenBLAS's threading threshold, and it is timed in CPU time of
    the calling thread, so time spent waiting for a core does not count:
    it slows with the host, but not with covmap, nor with the BLAS
    threading cliff.  A span is scaled by PROBE_REF_S over the median of
    the probes nearest to it (see PROBE_WINDOW), to the power
    PROBE_EXPONENT.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((24, 24)) / 24
        self.times: list[float] = []

    def run(self) -> float:
        """CPU seconds of this thread that one pass of the kernel takes now."""
        t0 = time.thread_time()
        x = self.a
        for _ in range(160):
            x = np.tanh(x @ self.a + 0.5)
        total = 0.0
        for v in x.ravel().tolist():
            total += v * v
        took = time.thread_time() - t0
        self.times.append(took)
        return took

    @staticmethod
    def scale(seconds: float, probes: list[float]) -> float:
        """A span's seconds on the reference host, from the probes around it."""
        return seconds * (PROBE_REF_S / statistics.median(probes)) ** PROBE_EXPONENT


class Client:
    """Runs jobs one at a time and keeps the latency and failure of each."""

    def __init__(self, cm, tracer: Tracer | None):
        self.cm = cm
        self.api = make_api(cm)
        self.tracer = tracer
        self.traced_api = make_api(cm, tracer) if tracer else None
        self.failures: Counter = Counter()
        self.probe = HostProbe()

    def run(self, job, traced: bool = False):
        """(latency in seconds, result or None, failure reason or None)."""
        api = self.traced_api if traced else self.api
        root = None
        if traced:
            self.tracer.job += 1
            root = self.tracer.open("job", job.spec)
        t0 = time.perf_counter()
        try:
            result = job.run(api)
            error = None
        except Exception as exc:  # the client keeps going and counts the job as failed
            result, error = None, f"raised {exc!r}"
        latency = time.perf_counter() - t0
        if root is not None:
            self.tracer.close(root)
        if error is None:
            error = checked(job, result)
        if error is None and root is not None and job.checker.quality:
            root.tags.update(job.checker.quality(result))
        if error is not None:
            self.failures[f"{job.spec}: {error}"] += 1
        return latency, result, error

    def cycle(self, jobs, traced: bool = False) -> list[tuple[float, float, bool]]:
        """(latency, latency on the reference host, ok) of every job in turn."""
        ctx = cli_spans(self.cm, self.tracer) if traced else contextlib.nullcontext()
        done = []
        probes = [self.probe.run()]  # probes[i] runs just before job i
        with ctx:
            for job in jobs:
                latency, _, error = self.run(job, traced)
                done.append((latency, error is None))
                probes.append(self.probe.run())
        out = []
        for i, (latency, ok) in enumerate(done):
            near = probes[max(0, i - PROBE_WINDOW + 1) : i + PROBE_WINDOW + 1]
            out.append((latency, HostProbe.scale(latency, near), ok))
        return out


def warm_cycle(client: Client, jobs) -> tuple[int, int, list[str]]:
    """Run every job once, untimed, with the negative self-test of its check.

    A deliberately wrong answer, derived from each job's correct warm-up
    answer, is fed through the job's check straight away, so no answer is
    kept.  Returns (answers tested, counted as failed, specs whose check let
    the wrong answer pass).
    """
    attempted = failed = 0
    missed = []
    for job in jobs:
        _, result, error = client.run(job)
        if error is not None:
            continue
        attempted += 1
        if checked(job, job.checker.corrupt(result)) is not None:
            failed += 1
        else:
            missed.append(job.spec)
    return attempted, failed, missed


def rate(done, column: int = 1) -> float:
    """Jobs per second of time spent inside jobs, on the reference host by default.

    Checking and probing between jobs are excluded.
    """
    return len(done) / sum(job[column] for job in done)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def stalls(specs, lat_ms) -> str:
    """Untimed diagnostic: jobs that took over STALL_FACTOR times the median of their spec.

    Untraced cycles run the specs in order, so job i of the run is
    specs[i % len(specs)].  A stalled BLAS call, such as the d = 4
    threading cliff, shows up here by name.
    """
    by_spec: dict[str, list[float]] = {}
    for i, lat in enumerate(lat_ms):
        by_spec.setdefault(specs[i % len(specs)], []).append(lat)
    slow = sorted(
        ((lat / statistics.median(lats), lat, spec) for spec, lats in by_spec.items() for lat in lats),
        reverse=True,
    )
    slow = [s for s in slow if s[0] > STALL_FACTOR]
    head = ", ".join(f"{spec} {lat:.0f} ms ({ratio:.0f}x)" for ratio, lat, spec in slow[:3])
    return f"stalled jobs (over {STALL_FACTOR:g}x their spec's median): {len(slow)}" + (f"; slowest: {head}" if head else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "covmap")):
        print(f"covmap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tmp = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def set_up(make_jobs, seed: int, tmp: str):
    """Import covmap afresh, generate the inputs and run one job of each kind."""
    cm = import_covmap()
    jobs = make_jobs(cm, Reference(), seed, tmp)
    api = make_api(cm)
    for job in first_of_each_kind(jobs):
        job.run(api)
    return cm, jobs


def measure(args, tmp: str) -> int:
    make_jobs = WORKLOADS[args.workload]
    env = env_stamp()
    print("env " + json.dumps(env, sort_keys=True))

    cm, jobs = set_up(make_jobs, args.seed, tmp)
    for job in jobs:
        job.checker = job.prepare()
    tracer = Tracer() if args.trace else None
    client = Client(cm, tracer)

    # One untimed cycle: lazy set-up finishes, every CLI argv gets its
    # reference output, and the self-test gets a real answer of every job.
    st_attempted, st_failed, st_missed = warm_cycle(client, jobs)
    warm_failures = sum(client.failures.values())

    untraced: list[tuple[float, float, bool]] = []
    traced: list[tuple[float, float, bool]] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        if args.trace and rounds % 2 == 1:
            traced += client.cycle(jobs, traced=True)
        else:
            untraced += client.cycle(jobs)
        rounds += 1
        if (
            time.perf_counter() - start >= args.seconds
            and len(untraced) >= MIN_JOBS
            and (not args.trace or rounds % 2 == 0)
        ):
            break
    elapsed = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cycle_len = len(jobs)
    specs = [job.spec for job in jobs]
    jobs = None  # the timed repetitions of set-up below build their own inputs
    probe = client.probe
    cycle_probe_ms = statistics.median(probe.times) * 1e3
    setup_times = []  # (as measured, on the reference host)
    setup_start = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPS or time.perf_counter() - setup_start < SETUP_MIN_SECONDS:
        before = [probe.run() for _ in range(PROBE_WINDOW)]
        t0 = time.perf_counter()
        set_up(make_jobs, args.seed, tmp)
        took = time.perf_counter() - t0
        after = [probe.run() for _ in range(PROBE_WINDOW)]
        setup_times.append((took, HostProbe.scale(took, before + after)))

    done = untraced + traced
    attempted = len(done)
    failed = sum(1 for *_, ok in done if not ok)
    lat_ms = [lat * 1e3 for lat, _, _ in untraced]
    ref_ms = [ref * 1e3 for _, ref, _ in untraced]
    jobs_per_s = rate(untraced)
    e2e = {
        "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "job_p50_ms": (statistics.median(ref_ms), "ms"),
        "job_p90_ms": (p90(ref_ms), "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    as_measured = {
        "setup_s": statistics.median(took for took, _ in setup_times),
        "jobs_per_s": rate(untraced, column=0),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": p90(lat_ms),
    }
    print(
        f"workload {args.workload} seed {args.seed}: {cycle_len} jobs per cycle, "
        f"{rounds} cycles in {elapsed:.2f} s, {len(untraced)} untraced jobs, {len(traced)} traced jobs"
    )
    print(f"setup_s per repetition, as measured: {', '.join(f'{t:.4f}' for t, _ in setup_times)}")
    print(stalls(specs, lat_ms))
    print(f"host probe: median {cycle_probe_ms:.4f} ms over the timed cycles; reference {PROBE_REF_S * 1e3:g} ms")
    print("as measured: " + ", ".join(f"{k} = {v:.6g}" for k, v in as_measured.items()))
    print("on the reference host:")
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} timed jobs)")
    print(f"warm-up cycle failures: {warm_failures}")
    print(
        f"self-test: {st_failed} of {st_attempted} deliberately wrong answers counted as failed"
        + (f"; missed by the check of: {', '.join(st_missed)}" if st_missed else "")
    )
    for reason, count in sorted(client.failures.items()):
        print(f"FAILED x{count} {reason}")

    if args.trace:
        metrics = layer_metrics(tracer.spans, rate(traced) / jobs_per_s)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        report = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        report = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    correct = (
        failed == 0 and warm_failures == 0 and st_failed == st_attempted == cycle_len
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
