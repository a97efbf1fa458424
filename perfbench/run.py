"""Benchmark of the landuse pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload city_dense --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh Python process (``worker.py``) with BLAS and
OpenMP pinned to one thread and the package imported from ``src/``. Prints
progress on standard error and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Run files go under ``.perfbench_out/``; only the result and,
for a traced run, ``trace.json`` are kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="landuse pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "landuse" / "__init__.py").is_file():
        print(f"perfbench: no landuse package under {src}; run from the root"
              " of a checkout", file=sys.stderr)
        return 2

    # turn a termination request into SystemExit, so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "LANDUSE_OUT_DIR"}
    env.update(PINNED, PYTHONPATH=str(src))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir)]
    # a session of its own, so that the worker and its memory probe can be
    # stopped together
    proc = subprocess.Popen(cmd, env=env, cwd=run_dir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for name in ("data", "spare", "out"):
            shutil.rmtree(run_dir / name, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    (run_dir / "result.json").write_text(lines[-1] + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
