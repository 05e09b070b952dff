"""The measuring process of the fedkd benchmark (started by run.py, which
pins BLAS to one thread in its environment).

One run: repetitions of the workload's operations for --seconds, each
operation followed by its output check (untimed), with set-up probes in
fresh interpreters spread between the repetitions.  With --trace 1, untraced and traced repetitions
alternate; the traced outputs must match the untraced ones byte for byte.

Writes, beside (never inside) the command output directories,
``manifest.json`` and ``results.json`` under
``.perfbench_runs/<workload>-seed<n>-trace<t>/``.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).with_name("workloads.py")

#: Fresh-interpreter set-up measurements per run, spread evenly over the
#: measured seconds so that they sample the host's speed phases as the
#: repetitions do; setup_s is their median.
SETUP_PROBES = 16
#: Repetitions a run makes even when --seconds has elapsed...
MIN_REPS = 3
#: ...unless the run has already taken this long (a run must end in 180 s).
REP_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 60.0
#: Largest self times printed per command in a traced run.
TOP_K = 4

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Units of the per-command and quality figures printed beside the result.
DETAIL_UNITS = {"reps": "count", "objective_mean": "cost", "gap_to_opt": "cost",
                "student_acc_mean": "fraction", "peak_rss_mb": "MB", "fail_frac": "ratio"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def setup_probe(workload: str, seed: int, inputs_dir: Path) -> float:
    proc = subprocess.run([sys.executable, str(PROBE), workload, str(seed), str(inputs_dir)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Runner:
    """Runs repetitions of a workload's operations and keeps the tallies."""

    def __init__(self, wl: workloads.Workload, out_root: Path) -> None:
        self.wl = wl
        self.out_root = out_root
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}     # label -> first untraced digest

    def rep(self, kind: str, tracer=None) -> dict[str, float]:
        """One repetition: every op timed, then checked; -> label -> seconds."""
        times: dict[str, float] = {}
        base = self.out_root / kind
        for op in self.wl.ops:
            out = base / op.label
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += 1
            try:
                # Commands print a summary; the benchmark discards it.
                with contextlib.redirect_stdout(io.StringIO()):
                    value = self._timed(op, out, tracer, times)
                op.check(out, value)
                digest = dir_digest(out)
                first = self.digests.setdefault(op.label, digest)
                if digest != first:
                    raise AssertionError(f"{op.label}: {kind} outputs differ from the "
                                         "first untraced repetition")
            except Exception as exc:  # one failed operation must not end the run
                reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                if not isinstance(exc, AssertionError):
                    traceback.print_exc(file=sys.stderr)
                self.failures.append(f"{kind} {op.label}: {reason}")
                print(f"FAILED {kind} {op.label}: {reason}", file=sys.stderr)
        return times

    def _timed(self, op, out: Path, tracer, times: dict):
        originals = []
        t0 = time.perf_counter()
        try:
            if tracer is None:
                return op.run(out)
            originals = tracing.install(tracer, self.wl.modules)
            t0 = time.perf_counter()
            return tracer.run_command(op.label, op.run, out)
        finally:
            times[op.label] = time.perf_counter() - t0
            tracing.restore(originals)


def median_of(reps: list[dict], labels) -> float:
    """Median over repetitions of the summed times of labels."""
    return statistics.median(sum(r[label] for label in labels) for r in reps)


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def git_state() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    # Only this checkout's own repository counts, never an enclosing one.
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    return {"sha": sha.strip() if sha else None,
            "dirty": bool(status.strip()) if status is not None else None}


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "fedkd").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def manifest(args, wl: workloads.Workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.inputs,
        "commands": [op.label for op in wl.ops],
        "git": git_state(),
        "fedkd_source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def detail_metrics(wl: workloads.Workload, reps: list[dict], out: Path) -> dict:
    """The per-command times (median over repetitions) and the
    decision-quality figures read from the last repetition's outputs."""
    labels = [op.label for op in wl.ops]
    d = {"reps": len(reps)}
    for metric, prefix in workloads.COMMAND_TIMES[wl.name].items():
        d[metric] = median_of(reps, [lb for lb in labels if lb.startswith(prefix)])
    if wl.name == "fleet":
        objectives = []
        for label in labels:
            text = (out / label / "trials.csv").read_text(encoding="utf-8").splitlines()
            objectives += [float(line.split(",")[2]) for line in text[1:]]
        d["objective_mean"] = statistics.fmean(objectives)
    elif wl.name == "cell":
        d["gap_to_opt"] = statistics.fmean(
            json.loads((out / lb / "optimum.json").read_text(encoding="utf-8"))["gap_to_opt"]
            for lb in labels if lb.startswith("exhaustive"))
    else:
        metrics = json.loads((out / "kd-demo" / "kd_metrics.json").read_text(encoding="utf-8"))
        d["student_acc_mean"] = statistics.fmean(
            metrics[r]["full_test"] for r in ("student_hard", "student_kd", "student_simkd"))
    return d


def top_self_times(tracer, labels, reps: int) -> dict:
    """Per command, the TOP_K largest self times per repetition, by layer
    and by function."""
    out = {}
    for label in labels:
        functions = {n: v[2] for n, v in tracer.totals(label).items() if n != label}
        out[label] = {kind: [(n, s / reps) for n, s in
                             sorted(times.items(), key=lambda kv: -kv[1])[:TOP_K]]
                      for kind, times in (("layers", tracer.layer_self_s(label)),
                                          ("functions", functions))}
    return out


def main() -> int:
    args = parse_args()
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_samples: list[float] = []

    def probe_until(count: int) -> None:
        while len(setup_samples) < count:
            setup_samples.append(setup_probe(args.workload, args.seed, run_dir / "probe"))

    wl = workloads.build(args.workload, args.seed, run_dir / "inputs")
    info = manifest(args, wl)
    runner = Runner(wl, run_dir / "out")
    tracer = tracing.Tracer() if args.trace else None

    # Warm-up: one checked repetition whose times are not kept.
    runner.rep("untraced")
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        probe_until(min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds)))
        if elapsed >= args.seconds and (len(plain) >= MIN_REPS or elapsed >= REP_BUDGET_S):
            break
        plain.append(runner.rep("untraced"))
        if tracer is not None:
            traced.append(runner.rep("traced", tracer))
    probe_until(SETUP_PROBES)

    labels = [op.label for op in wl.ops]
    wall = median_of(plain, labels)
    details = detail_metrics(wl, plain, run_dir / "out" / "untraced")
    details["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details["fail_frac"] = len(runner.failures) / runner.attempted
    info["os_threads_at_end"] = os_threads()
    info["reps"] = {"untraced": len(plain), "traced": len(traced)}

    if tracer is None:
        metrics = {"wall_s": (wall, "s"), "setup_s": (statistics.median(setup_samples), "s"),
                   "peak_rss_mb": (details["peak_rss_mb"], "MB")}
        extra = {}
    else:
        layer = tracing.per_layer(tracer, len(traced))
        layer["trace.overhead_frac"] = median_of(traced, labels) / wall - 1.0
        metrics = {name: (value, tracing.layer_unit(name)) for name, value in layer.items()}
        extra = {"spans": tracer.dump(), "counters": tracer.counters,
                 "top_self_s": top_self_times(tracer, labels, len(traced))}

    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run_dir / "manifest.json").write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    (run_dir / "results.json").write_text(json.dumps(
        {"result": result, "details": details, "setup_samples_s": setup_samples,
         "untraced_reps_s": plain, "traced_reps_s": traced, "failures": runner.failures,
         **extra}, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} reps={len(plain)} "
          f"-> {run_dir.relative_to(ROOT)}")
    for name, value in details.items():
        print(f"#   {name:<26} {value:<12.6g} {DETAIL_UNITS.get(name, 's')}")
    print(f"#   attempted {runner.attempted}, failed {len(runner.failures)}")
    if tracer is not None:
        for label, top in extra["top_self_s"].items():
            for kind, ranked in top.items():
                print(f"#   {label} top {kind} by self time per rep: "
                      + ", ".join(f"{n} {s:.3g}s" for n, s in ranked))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
