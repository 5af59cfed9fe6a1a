"""Seeded benchmark of sdrelax: reference-normalised throughput per workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload solve-affine --seed 1 --seconds 25 --trace 0

Each workload runs in its own single-threaded process.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-affine", "solve-step", "evaluate")
# setup_s is the median of this many process set-ups per run
SETUP_SAMPLES = 3
# a worker is killed when it runs this much longer than its measuring time
GRACE_S = 120.0
UNITS = {"setup_s": "s", "cells_per_ref": "cells/ref", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "self_ref": "ref", "self_frac": "fraction"}
COUNT_UNITS = {"fields.json_bytes": "bytes", "harness.ref_s": "s"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env.pop("SD_RELAX_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time (process start to READY) and,
    unless ``setup_only``, its result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + GRACE_S, proc.kill)
    watchdog.start()
    setup = None
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup is None:
                setup = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise BenchError(f"worker exited with code {code} before finishing")
    if setup_only:
        return setup, None
    try:
        return setup, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
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
    return "unknown"


def environment(env: dict) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SD_RELAX_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha(),
        "threads": {k: env.get(k) for k in threads},
    }


def layer_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    kind = name.rsplit(".", 1)[1]
    return LAYER_UNITS.get(kind, "fraction" if kind.endswith("frac") else "count")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up; for tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "sdrelax" / "__init__.py").is_file():
        print(f"no sdrelax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    samples = 1 if args.smoke else SETUP_SAMPLES
    try:
        setups = [run_worker(args, setup_only=True)[0] for _ in range(samples - 1)]
        setup, result = run_worker(args, setup_only=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    info = result.pop("info")
    info["setup_samples_s"] = setups
    info["env"] = environment(worker_env())
    print(f"{args.workload} seed={args.seed} " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["metrics"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
