"""Benchmark of the torsig CLI, end to end and per layer.

Usage, from the root of a torsig checkout:

    python3 perfbench/run.py --workload small-knots --seed 7 --seconds 60 --trace 0

Each run is one fresh Python process.  It first times how long a fresh
interpreter takes to import `torsig.cli` from `src/` (set-up), then runs
the workload's command list through `torsig.cli.main(argv)` with stdout
captured, pass after pass, while the next pass should still end within
`--seconds` (at least one pass), and reports medians over the passes.
It finally checks every output against independent exact routes
(`check.py`) and against the stdout digests recorded for the default seed
(`digests.json`).  Nothing is pinned: BLAS threads, `--jobs` and every
other setting are whatever the CLI and the environment default to.

`--trace 0` prints the end-to-end metrics; `--trace 1` adds one traced pass
(`spans.py`) after the untraced ones and prints the per-layer metrics.
The last line of stdout is the JSON result; the lines before it give the
run's metadata and a readable summary.  `--workload all` runs every
workload in turn, each in its own process, and prefixes each metric with
its workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until `torsig.cli` is imported."""
    code = "import time, torsig, torsig.cli; print(time.perf_counter(), torsig.__file__)"
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        ready, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported torsig from {path.strip()}, not {SRC}")
        samples.append(float(ready) - start)
    return samples


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def metadata(args, commands, setup) -> dict:
    import numpy

    try:
        blas_build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas_build = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": len(commands),
        "jobs": workers(commands),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ[name] for name in BLAS_ENV if name in os.environ},
        "setup_samples_s": setup,
    }


def workers(commands) -> int:
    """Worker processes the commands ask for (the CLI's default is 1)."""
    return max(int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
               for argv in commands)


def _usage() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            max(own.ru_maxrss, kids.ru_maxrss))


def _corrupt(text: str) -> str:
    """Change the last digit of an output, as a wrong answer would."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    return text + "0"


def run_pass(cli, commands, tracer=None, keep=False, corrupt=None):
    """Run every command once; returns (wall, cpu, per-command results).

    A result is (exit code, stdout digest, stdout bytes, stderr, latency,
    stdout if keep).  The wall time is the sum of the command latencies, so
    digesting and bookkeeping between commands stay outside it.  The stdout
    of command `corrupt`, if given, is altered as a wrong answer would be.
    """
    results = []
    cpu_before, _ = _usage()
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = -1
                err.write(traceback.format_exc())
        latency = time.perf_counter() - start
        text = out.getvalue()
        if index == corrupt:
            text = _corrupt(text)
        results.append((code, hashlib.sha256(text.encode()).hexdigest(), len(text.encode()),
                        err.getvalue(), latency, text if keep else None))
    cpu_after, _ = _usage()
    return sum(r[4] for r in results), cpu_after - cpu_before, results


def check_passes(commands, passes):
    """(items per pass, attempted, failed, reasons) over every pass.

    The first pass is checked in full; later ones must reproduce its exit
    codes and stdout bytes.
    """
    digests = json.loads((HERE / "digests.json").read_text())
    first = passes[0][2]
    per_command = []
    reasons = []
    for argv, (code, digest, _, err, _, text) in zip(commands, first):
        items, failed, why = check.check_command(argv, code, text, err)
        recorded = digests.get(" ".join(argv))
        if recorded is not None and recorded != digest:
            failed, why = failed or items, why + ["stdout differs from the recorded digest"]
        per_command.append((items, failed, code, digest))
        reasons += [f"{' '.join(argv)}: {w}" for w in why]
    attempted = failed_total = 0
    for _, _, results in passes:
        for (items, failed, code, digest), (argv, result) in zip(per_command, zip(commands, results)):
            attempted += items
            if (result[0], result[1]) == (code, digest):
                failed_total += failed
            else:
                failed_total += items
                reasons.append(f"{' '.join(argv)}: output changed between passes")
    return sum(c[0] for c in per_command), attempted, failed_total, reasons


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-output", type=int, metavar="INDEX",
                        help="alter the captured stdout of command INDEX, to show "
                             "that a wrong output is counted as a failure")
    args = parser.parse_args(argv)

    if not (SRC / "torsig" / "cli.py").is_file():
        print(f"error: no torsig sources at {SRC}; run from a torsig checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import torsig.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported torsig from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    commands = workloads.build(args.workload, args.seed)

    corrupt = args.corrupt_output
    passes = [run_pass(cli, commands, keep=True, corrupt=corrupt)]
    # Another pass only if it should still end within --seconds, so a run
    # never measures much longer than asked.
    while sum(p[0] for p in passes) + passes[-1][0] <= args.seconds:
        passes.append(run_pass(cli, commands, corrupt=corrupt))
    walls = [p[0] for p in passes]
    wall = statistics.median(walls)
    cpu = statistics.median(p[1] for p in passes)

    traced = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, commands, tracer=tracer, corrupt=corrupt)
        finally:
            tracer.uninstall()
    _, peak_kb = _usage()

    items, attempted, failed, reasons = check_passes(
        commands, passes + ([traced] if traced else []))
    for reason in reasons[:50]:
        print(f"FAILED {reason}", file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics(traced[0])
        metrics.update({
            "cli.output_bytes": sum(r[2] for r in passes[0][2]),
            "cli.workers": workers(commands),
            "cli.blas_threads": blas_threads() or 0,
            "cli.cpu_per_wall": cpu / wall,
            "trace.overhead_frac": traced[0] / wall - 1,
        })
        units = spans.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": items / wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END

    latencies = [r[4] for p in passes for r in p[2]]
    meta = metadata(args, commands, setup)
    meta.update(passes=len(passes), pass_walls_s=walls, items_per_pass=items,
                failed_frac=failed / attempted)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:>16.6g} ({failed} of {attempted} items)")
    # Per-command latency, over every command of every untraced pass.
    print(f"{'cmd_p50_ms':48s} {1000 * statistics.median(latencies):>16.6g} ms"
          f" ({len(latencies)} commands)")
    print(f"{'cmd_p90_ms':48s} {1000 * _p90(latencies):>16.6g} ms")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
