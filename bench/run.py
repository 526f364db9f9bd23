"""rydgate benchmark: one workload per process, timed, checked, optionally traced.

    python3 bench/run.py --workload sweep-separation --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20          # every workload, as a table

Run from the root of a source checkout; rydgate is imported from ``src/``
of that checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON report with the machine facts, sample counts,
accuracy against the converged reference and the output-check failures.

End-to-end metrics (trace off):

* ``setup_s``: median over fresh processes, spread over the run, of the
  time from process start until the first workload call is ready (import
  rydgate, build and validate the configuration).
* ``wall_s``: median wall time of one body (one sweep, or one batch of
  ``gate_metrics`` calls).
* ``points_per_s``: work units completed per second of body time.
* ``point_s_p50`` / ``point_s_tail``: median and 80th percentile of the
  latency of one work unit.  On gate-point each call is timed; on
  sweep-separation a unit's latency is its body's time divided by its units.
* ``peak_rss_mb``: peak resident memory of this process in MB of 2^20
  bytes, read before any output check runs.

A traced run alternates untraced and traced bodies.  Its per-layer metrics
are self times and counts per traced body, the traced body time, the
tracing overhead (median traced minus median untraced body time) and the
share of traced body time no span covers.  Spans are written to
``.bench_out/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is one caller on a small machine, and a
# threaded first SVD makes sweep wall times bimodal
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: fresh processes timed for set-up, spread evenly over the run so that
#: they sample the machine's speed throughout it; the median is reported
SETUP_PROBES = 16

#: latency percentile reported as point_s_tail
TAIL_PERCENTILE = 80

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    if stat == "bytes_written":
        return "B"
    if stat.endswith("_frac") or stat.endswith("_max"):
        return "1"
    return "count"


def machine_facts() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def setup_probe(workload: str, seed: int, size: str, outdir: Path) -> float:
    """Seconds from spawning a fresh process until its workload is ready."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.prepare({workload!r}, {seed}, {size!r}, "
            f"{str(outdir)!r}); print('ready', flush=True)")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
    return elapsed


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def run_workload(args) -> dict:
    import workloads
    from spans import Tracer

    size = workloads.SIZES[args.size]
    outdir = ROOT / ".bench_out" / args.workload
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)

    facts = machine_facts()
    setup = []

    def probe_setup(until: int) -> None:
        while len(setup) < until:
            setup.append(setup_probe(args.workload, args.seed, args.size, outdir))

    probe_setup(1)
    wl = workloads.make(args.workload, args.seed, size, outdir)
    wl.prepare()
    import rydgate
    if Path(rydgate.__file__).resolve().parent != SRC / "rydgate":
        raise RuntimeError(f"rydgate imported from {rydgate.__file__}, not {SRC}")

    tracer = Tracer() if args.trace else None
    plain, traced, cpu_s = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            units = wl.body(k)
        finally:
            elapsed_body = time.perf_counter() - t0
            cpu_s.append(time.process_time() - c0)
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append((elapsed_body, units))
        wl.after_body(k, elapsed_body, units)
        k += 1
        probe_setup(int(SETUP_PROBES * (time.perf_counter() - start) / args.seconds))
        spent = time.perf_counter() - start
        typical = statistics.median(t for t, _ in plain + traced)
        if tracer is not None and not traced:
            continue
        # stop when another body would end more than half a body late
        if spent + typical / 2 > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_setup(SETUP_PROBES)

    out = workloads.Outcome()
    wl.check(out)
    # errors below the reference's verified accuracy are reported at it
    floor = workloads.REFERENCE_TOL
    accuracy = {
        "zeta_err_max": max(out.zeta_errors + [floor]),
        "fidelity_err_max": max(out.fidelity_errors + [floor]),
        "reference_floor": floor,
        "overlaps_checked": len(out.zeta_errors),
        "fidelities_checked": len(out.fidelity_errors),
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": facts,
        "unit": wl.unit,
        "bodies": len(plain) + len(traced),
        "body_s": [t for t, _ in plain],
        "traced_body_s": [t for t, _ in traced],
        "body_cpu_s": cpu_s,
        "units_per_body": plain[0][1],
        "latency_samples": len(wl.latencies),
        "tail_percentile": TAIL_PERCENTILE,
        "setup_probes_s": setup,
        "accuracy": accuracy,
        "failed_frac": out.failed / max(out.attempted, 1),
        "check_failures": out.notes,
        "checks": out.extra,
    }
    if tracer is None:
        body_s = [t for t, _ in plain]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(body_s),
            "points_per_s": sum(u for _, u in plain) / sum(body_s),
            "point_s_p50": percentile(wl.latencies, 50),
            "point_s_tail": percentile(wl.latencies, TAIL_PERCENTILE),
            "peak_rss_mb": peak_rss_mb,
        }
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in metrics.items()}
    else:
        layers = tracer.layer_metrics(len(traced))
        _, _, top = tracer.self_times()
        traced_s = sum(t for t, _ in traced)
        layers["harness.bytes_written"] = out.bytes_written / max(len(wl.bodies), 1)
        layers["trace.wall_s"] = statistics.median(t for t, _ in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
            t for t, _ in plain)
        layers["trace.unattributed_frac"] = (traced_s - top) / traced_s
        layers["zeta_err_max"] = accuracy["zeta_err_max"]
        layers["fidelity_err_max"] = accuracy["fidelity_err_max"]
        result_metrics = {name: {"value": value, "unit": layer_unit(name)}
                          for name, value in layers.items()}
        tracer.write(outdir / "spans.jsonl")
    return {
        "report": report,
        "result": {
            "correct": out.failed == 0 and out.attempted > 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": result_metrics,
        },
    }


def run_all(args) -> int:
    """Every workload in its own process; print each metric with its unit."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit code {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={report['failed_frac']:.3g} "
              f"bodies={report['bodies']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")
        for metric in ("zeta_err_max", "fidelity_err_max"):
            print(f"  {'accuracy.' + metric:48s} {report['accuracy'][metric]:.3g} 1")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the self-test's smoke size")
    args = parser.parse_args(argv)

    if not (SRC / "rydgate" / "__init__.py").is_file():
        print(f"error: no rydgate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    if args.workload is None:
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    outcome = run_workload(args)
    print(json.dumps({"report": outcome["report"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
