"""The sapgnn benchmark: seeded closed-loop training jobs through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniform-sum --seed 1 --seconds 40 --trace 0

One run sets the workload up several times (timing `build_dataset` and
`build_partition`; `setup_s` is their median) and checks the protocol once
against the combined-graph reference at the share mode's tolerance. It then
trains one full job, the workload's whole epoch count, which gives the wire
bytes and the test accuracy, and after it short timing jobs of the same
configuration back to back, each starting when the previous one has
finished, until another would end past `--seconds`. Every job is the
program's own seeded `run_training(config, holders)` call; outside the timed
region each job's privacy audit must be clean and its metrics.csv, comm.csv
and audit.jsonl must hash the same as the first job's of its configuration.

`epoch_ref` is the median over timing jobs of a job's wall time per epoch
divided by the wall time of a fixed reference kernel timed just before and
after it (see `measure.ReferenceKernel`); the lines above the result also
give the epoch times in seconds. On a shared host the whole machine's speed
drifts by a fifth over minutes, longer than a run, so no statistic of the
epoch times alone holds still from run to run. Over ten seeds on a 2-vCPU
guest, uniform-sum's per-run median epoch time spread 17% (distance between
quartiles over the median), and its ratio to the reference kernel 5%.

With `--trace 0` the result holds the end-to-end metrics, measured with no
tracing installed. With `--trace 1` no timing jobs run; after the full job
one more job runs with every layer hook installed and the result holds the
per-layer metrics instead: self times per layer, protocol phase times and
the remainder they leave, bytes and useful rows per message kind, and the
tracing overhead against the full job. A failed check, an exception or an
audit finding marks the run incorrect and the exit code non-zero.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the error rate.

BLAS runs on one thread. On a 2-core machine, repeated skew-gated-secure runs
took 0.92-1.25 s per epoch with the default thread count and 1.27-1.38 s
with one thread, so the single-threaded figure is the steadier one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("uniform-sum", "skew-gated-secure", "p8-shares")
SETUP_REPEATS = 3
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "epoch_ref": "ref", "wire_bytes_per_epoch": "bytes",
                    "peak_rss_mb": "MiB", "test_accuracy": "fraction"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_commit(root) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment_record(seed: int) -> dict:
    import numpy as np

    import program

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": git_commit(program.ROOT), "source_sha256": program.source_sha256(),
            "workload_seed": seed}


class Attempts:
    """Every run the benchmark attempted, and why each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn, check):
        """Returns fn(), or None if it raised; the run failed if it raised or
        check(its value) lists failures."""
        self.attempted += 1
        try:
            value = fn()
            failures = check(value)
        except Exception as exc:  # a run that raises is a failed run; keep measuring
            traceback.print_exc(file=sys.stderr)
            value, failures = None, [f"raised {type(exc).__name__}: {exc}"]
        if failures:
            self.failures.append(f"{label}: " + "; ".join(failures))
        return value

    @property
    def failed(self) -> int:
        return len(self.failures)


def job_failures(job, reference: str | None) -> list:
    """The job's own failures, plus a digest that differs from the reference."""
    failures = list(job.failures)
    if reference is not None and job.digest != reference:
        failures.append(f"output digest {job.digest[:16]} differs from {reference[:16]}, "
                        "the first recorded for this code, workload and seed")
    return failures


class DigestRecord:
    """Output digests of earlier runs, keyed by program source and config, so
    that runs of one seed in separate processes are checked against each other."""

    def __init__(self, path, source_sha256: str):
        self.path, self.source = path, source_sha256

    def _known(self) -> dict:
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {}

    def key(self, config) -> str:
        return hashlib.sha256((self.source + config.to_json()).encode("utf-8")).hexdigest()

    def get(self, config) -> str | None:
        return self._known().get(self.key(config))

    def put(self, config, digest: str) -> None:
        known = self._known()
        known[self.key(config)] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


class CheckedJobs:
    """Jobs of one config, each checked against the first digest recorded for it."""

    def __init__(self, attempts: Attempts, record: DigestRecord, config, run_job):
        self.attempts, self.record, self.config = attempts, record, config
        self.run_job = run_job      # trains `config` once and returns its JobResult
        self.reference = record.get(config)
        self.jobs = []

    def run(self, label: str):
        job = self.attempts.run(f"{label} {len(self.jobs) + 1}", self.run_job,
                                lambda job: job_failures(job, self.reference))
        if job is not None:
            self.jobs.append(job)
            if self.reference is None:
                self.reference = job.digest
                self.record.put(self.config, job.digest)
        return job


def describe(values) -> str:
    return (f"n={len(values)} min={min(values):.6g} median={statistics.median(values):.6g} "
            f"max={max(values):.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)

    import program
    if not program.ensure_importable():
        print(f"error: no program source at {program.PACKAGE}", file=sys.stderr)
        return 2
    # imported only now: they load the program from the checkout's src/
    import measure
    from workloads import TIMING_EPOCHS, WORKLOADS, make_config

    workload = WORKLOADS[args.workload]
    config = make_config(workload, args.seed)
    timing_config = make_config(workload, args.seed, epochs=TIMING_EPOCHS)
    out_dir = program.ROOT / OUT_DIR / workload.name
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} epochs/full job={workload.epochs} "
          f"epochs/timing job={TIMING_EPOCHS}")

    env = environment_record(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    attempts = Attempts()
    deadline = time.perf_counter() + args.seconds
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, holders = measure.timed_setup(config)
        setups.append(setup_s)

    attempts.run("equivalence", lambda: measure.equivalence_failures(config, holders),
                  lambda failures: failures)

    out_dir.mkdir(parents=True, exist_ok=True)
    record = DigestRecord(out_dir.parent / "digests.json", env["source_sha256"])
    full = CheckedJobs(attempts, record, config,
                       lambda: measure.run_job(config, holders, out_dir / "full"))
    timing = CheckedJobs(attempts, record, timing_config,
                         lambda: measure.run_job(timing_config, holders, out_dir / "timing"))
    full.run("full job")
    relative = []           # each timing job's epoch time over the reference kernel's
    if not args.trace:
        reference = measure.ReferenceKernel()
        refs = [reference.seconds()]
        # timing jobs until another one would end past the budget; at least one
        while True:
            job = timing.run("timing job")
            refs.append(reference.seconds())
            if job is not None:
                relative.append(job.epoch_s / ((refs[-2] + refs[-1]) / 2))
            longest = max((j.train_s for j in timing.jobs), default=0.0)
            if time.perf_counter() + longest > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    if full.jobs and relative:
        job = full.jobs[0]
        epoch_times = [j.epoch_s for j in timing.jobs]
        end_to_end = {
            "setup_s": statistics.median(setups),
            "epoch_ref": statistics.median(relative),
            "wire_bytes_per_epoch": job.wire_bytes_per_epoch,
            "peak_rss_mb": peak_rss_mb,
            "test_accuracy": job.test_accuracy,
        }
        metrics = {name: {"value": float(value), "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
        print(f"output digests full={full.reference} timing={timing.reference}")
        print(f"  setup_s              {describe(setups)} s (set-ups)")
        print(f"  epoch_ref            {describe(relative)} ref (timing jobs)")
        print(f"  epoch_s              {describe(epoch_times)} s (timing jobs)")
        print(f"  reference kernel     {describe(refs)} s")
        print(f"  full job epoch_s     {job.epoch_s:.6g} s ({job.epochs_run} epochs)")
        print(f"  wire_bytes_per_epoch {job.wire_bytes_per_epoch:.6g} bytes (full job)")
        print(f"  peak_rss_mb          {peak_rss_mb:.6g} MiB (one process)")
        print(f"  test_accuracy        {job.test_accuracy:.6g} (full job)")

    if args.trace:
        traced = attempts.run("traced job", lambda: measure.run_traced(config, out_dir / "full"),
                              lambda run: job_failures(run.job, full.reference))
        # a timing job's epoch count keeps the baseline from doubling the run
        centralized_s = attempts.run("centralized baseline",
                                     lambda: measure.centralized_epoch_s(timing_config, holders),
                                     lambda _s: [])
        metrics = {}
        if traced is not None and centralized_s is not None and full.jobs:
            metrics = measure.layer_metrics(traced, full.jobs[0].epoch_s, centralized_s)
            for name, m in metrics.items():
                shown = m["missing"] + " missing" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {name:38s} {shown} {m['unit']}")

    print(f"  error_rate           {attempts.failed / attempts.attempted:.6g} "
          f"({attempts.failed} of {attempts.attempted} runs failed)")
    for failure in attempts.failures:
        print(f"FAILED {failure}")
    correct = attempts.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempts.attempted,
                      "failed": attempts.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Pin BLAS to one thread before numpy loads (see the module docstring).
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
