"""Entry point of the fedkd benchmark.

    python3 perfbench/run.py --workload fleet|cell|distill|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Starts the measuring process
(perfbench/bench.py) with the package source on PYTHONPATH and every
BLAS thread pool pinned to one thread, waits for it, and passes its
output and exit code through.  The last line of output is the result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
``--workload all`` runs the three workloads one after another and ends
with one line holding the three results.

Exits 2 without a result when the package source is not there.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).with_name("bench.py")
WORKLOADS = ("fleet", "cell", "distill")

#: A run must end within 180 s.
TIMEOUT_S = 170

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_bench(argv: list[str], env: dict) -> tuple[int, str]:
    """Run bench.py in its own process group; on timeout the whole group
    (including any set-up probe) is killed and reaped."""
    proc = subprocess.Popen([sys.executable, str(BENCH), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: benchmark did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, out


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "fedkd" / "cli.py").is_file():
        print(f"error: no fedkd source under {ROOT / 'src'}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    if "all" not in argv:
        code, out = run_bench(argv, env)
        sys.stdout.write(out)
        return code
    results = {}
    for workload in WORKLOADS:
        code, out = run_bench([workload if a == "all" else a for a in argv], env)
        sys.stdout.write(out)
        if code != 0:
            return code
        results[workload] = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
