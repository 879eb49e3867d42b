"""kronx benchmark: three seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 12 --trace 0

Run from the root of a kronx checkout; the program is imported from its
``src`` directory.  Each workload run is a fresh Python process
(worker.py) with BLAS and OpenMP pools at one thread and KRONX_MAX_DIM at
its default.

``--trace 0`` prints the end-to-end metrics: ops_per_s, op_p50_ms,
op_p90_ms, setup_s (median of three set-ups: the measured run and two
set-up-only processes) and peak_rss_mb.  Times are scaled to a nominal
machine speed (see speed_factor).  error_rate (failed / attempted)
is printed on the summary line; the result line carries it as
``attempted`` and ``failed``.

``--trace 1`` runs the workload twice, untraced and traced, and prints
the per-layer metrics (per request, from the traced run) and the tracing
overhead (untraced minus traced ops_per_s).

``--workload all`` runs every workload in turn and prints one table.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spectrum", "coupling", "tensor")
DEADLINE_S = 175.0  # every invocation of one workload ends within this
# Time metrics are scaled to a machine on which worker.reference_work
# takes this long at best (see speed_factor).
REFERENCE_NOMINAL_S = 0.015

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (unit, how to compute it from the traced run).
# ("calls"|"ms", span) are per request; ms is self time.
# ("count", key) is a counter per request; ("ratio", a, b) divides two
# sources.
_SPAN_METRICS = (
    ("models.diagonalize", ("calls", "ms")),
    ("models.rotate_step", ("calls", "ms")),
    ("models.givens_unitary", ("calls", "ms")),
    ("models.heisenberg_h", ("ms",)),
    ("models.NLevelHamiltonian.from_xsum", ("ms",)),
    ("hubbard.XSum", ("calls", "ms")),
    ("hubbard.xsum_mul", ("calls", "ms")),
    ("hubbard.xsum_linear", ("calls", "ms")),
    ("exactnum.scalar_mul", ("calls", "ms")),
    ("exactnum.scalar_add", ("calls", "ms")),
    ("exactnum.SqrtRational", ("calls", "ms")),
    ("exactnum.pochhammer", ("calls",)),
    ("exactnum.binomial", ("calls",)),
    ("kron.kron", ("calls", "ms")),
    ("kron.kron_many", ("calls", "ms")),
    ("perm.perm_matrix", ("ms",)),
    ("perm.commutation_perm", ("ms",)),
    ("su2.j3", ("ms",)),
    ("su2.jpm", ("ms",)),
    ("coupling.product_gen", ("calls", "ms")),
    ("coupling.block_gen", ("ms",)),
    ("coupling.CouplingLayout.z", ("calls",)),
    ("cg.build_S", ("calls", "ms")),
    ("cg.verify_intertwining", ("calls", "ms")),
    ("cg.s_general", ("calls", "ms")),
    ("cg.s_rone", ("calls",)),
    ("cg.s_first_block", ("calls",)),
    ("cg.cg_coefficient", ("calls", "ms")),
    ("fourier.cooley_tukey", ("ms",)),
    ("fourier.FourierFactorization.product", ("ms",)),
    ("fourier.FourierFactorization.max_error", ("ms",)),
    ("serialize.matrix_from_json", ("ms",)),
    ("serialize.matrix_to_json", ("ms",)),
    ("serialize.spectrum_to_csv", ("ms",)),
    ("cli.run", ("calls", "ms")),
)
_UNITS = {"calls": "calls/req", "ms": "ms/req"}

PER_LAYER = []
for _span, _stats in _SPAN_METRICS:
    for _stat in _stats:
        PER_LAYER.append((f"{_span}.{_stat}", _UNITS[_stat], (_stat, _span)))
PER_LAYER += [
    ("hubbard.XSum.terms_in", "terms/req", ("count", "hubbard.XSum.terms_in")),
    ("hubbard.xsum_mul.terms_out", "terms/req", ("count", "hubbard.xsum_mul.terms_out")),
    ("kron.kron.terms_out", "terms/req", ("count", "kron.kron.terms_out")),
    ("serialize.matrix_from_json.bytes", "B/req", ("count", "serialize.matrix_from_json.bytes")),
    ("serialize.matrix_to_json.bytes", "B/req", ("count", "serialize.matrix_to_json.bytes")),
    ("models.rotations_useful_ratio", "ratio",
     ("ratio", ("count", "models.rotate_step.useful"), ("calls", "models.rotate_step"))),
    ("models.sweeps_per_diag", "sweeps",
     ("ratio", ("count", "models.sweeps"), ("calls", "models.diagonalize"))),
    ("cg.closed_form_ratio", "ratio",
     ("ratio", ("count", "cg.build_S.exact"), ("calls", "cg.build_S"))),
    ("cg.builds_per_coef", "ratio",
     ("ratio", ("calls", "cg.build_S"), ("calls", "cg.cg_coefficient"))),
    ("trace.ops_per_s_untraced", "1/s", ("overhead", "untraced")),
    ("trace.ops_per_s_traced", "1/s", ("overhead", "traced")),
    ("trace.overhead_ops_per_s", "1/s", ("overhead", "difference")),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed loop length; the loop ends on the next cycle boundary")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes of every band (smoke test)")
    return p.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("KRONX_MAX_DIM", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, trace: int, tag: str, deadline: float) -> dict:
    """Run worker.py once and return its result object."""
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    name = f"{args.workload}-{args.seed}-{os.getpid()}-{tag}"
    out = os.path.join(work, name + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace),
           "--workdir", os.path.join(work, name), "--out", out]
    if args.tiny:
        cmd.append("--tiny")
    if trace:
        traces = os.path.join(HERE, "_traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, f"{args.workload}-seed{args.seed}.npz")]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawned-ns", str(spawned)], cwd=ROOT,
                              env=worker_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{args.workload} {mode} worker passed the deadline") from exc
    try:
        if proc.returncode != 0:
            raise WorkerError(f"{args.workload} {mode} worker exited "
                              f"{proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)
    expected = os.path.join(ROOT, "src", "kronx", "__init__.py")
    if os.path.realpath(result["kronx_file"]) != os.path.realpath(expected):
        raise WorkerError(f"worker imported {result['kronx_file']}, not {expected}")
    return result


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_factor(run: dict) -> float:
    """REFERENCE_NOMINAL_S over the fastest reference time of the run.

    On a shared machine the execution speed of one process drifts by up to
    a third for minutes at a time.  The worker times a fixed pure-Python
    computation before every cycle; multiplying latencies by this factor
    reports them at a fixed nominal speed, which cancels most of the drift.
    """
    return REFERENCE_NOMINAL_S / min(run["reference_s"])


def slot_latencies(run: dict) -> dict:
    """Each request slot's latency (ms at nominal speed): the minimum over
    its repeats, one per cycle.  Interference only adds time, and it comes
    in bursts of a few seconds, so the minimum of repeats spread over the
    run is the steadiest estimate of the request's own cost."""
    scale = 1e3 * speed_factor(run)
    lat: dict = {}
    for slot, s in zip(run["slots"], run["latencies_s"]):
        lat.setdefault(slot, []).append(s * scale)
    return {slot: min(v) for slot, v in lat.items()}


def end_to_end(run: dict, setups) -> dict:
    """Percentiles over the slots of one cycle; ops_per_s is the cycle's
    request count over the sum of its slot latencies."""
    lat = list(slot_latencies(run).values())
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_p50_ms": percentile(lat, 50),
        "op_p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    layers, counts = traced["layers"], traced["counts"]
    reqs = traced["attempted"]
    ops = {name: r["attempted"] / r["loop_s"] / speed_factor(r)
           for name, r in (("untraced", untraced), ("traced", traced))}
    ops["difference"] = ops["untraced"] - ops["traced"]

    def total(src):
        """Whole-run value of a ("count"|"calls"|"ms", name) source."""
        kind = src[0]
        if kind == "count":
            return counts.get(src[1], 0)
        if kind == "calls":
            return layers.get(src[1], {}).get("calls", 0)
        return layers.get(src[1], {}).get("self_ms", 0.0)

    out = {}
    for name, _unit, src in PER_LAYER:
        if src[0] == "ratio":
            den = total(src[2])
            out[name] = total(src[1]) / den if den else 0.0
        elif src[0] == "overhead":
            out[name] = ops[src[1]]
        else:
            out[name] = total(src) / reqs
    return out


def measure(args):
    """One workload: the result object of the last output line, and two
    notes for the summary (unscaled throughput, band latencies)."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        untraced = spawn(args, "run", 0, "untraced", deadline)
        traced = spawn(args, "run", 1, "traced", deadline)
        runs = (untraced, traced)
        values = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        first = spawn(args, "setup", 0, "setup1", deadline)
        run = spawn(args, "run", 0, "run", deadline)
        last = spawn(args, "setup", 0, "setup2", deadline)
        runs = (run,)
        values = end_to_end(run, [r["setup_s"] * speed_factor(r) for r in (first, run, last)])
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"{args.workload}: FAILED {line}", file=sys.stderr)
    raw = runs[0]
    notes = (
        f"unscaled: {raw['attempted'] / raw['loop_s']:.4g} requests/s over "
        f"{raw['loop_s']:.1f} s, speed factor {speed_factor(raw):.3f}",
        f"bands: {band_medians(raw)}",
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }, notes


def band_medians(run: dict) -> str:
    """Median slot latency and slot count of each band."""
    lat: dict = {}
    for slot, ms in slot_latencies(run).items():
        lat.setdefault(slot.split("/")[0], []).append(ms)
    return ", ".join(f"{b} {statistics.median(v):.3g} ms x{len(v)}" for b, v in lat.items())


def summary_lines(workload: str, result: dict, notes):
    rate = result["failed"] / result["attempted"]
    yield (f"{workload}: {result['attempted']} requests, error_rate {rate:.4f} "
           f"({result['failed']} failed)")
    for note in notes:
        yield f"  {workload:9s} {note}"
    for name, m in result["metrics"].items():
        yield f"  {workload:9s} {name:44s} {m['value']:14.6g} {m['unit']}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kronx", "__init__.py")):
        print(f"error: no kronx sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name], notes = measure(args)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in summary_lines(name, results[name], notes):
            print(line)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
