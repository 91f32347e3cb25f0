"""packbound benchmark: one command per workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload desk-campaign --seed 0 --seconds 20 --trace 0

Workloads: sdpa-export, desk-campaign and bo-loop (see workloads.py).
BENCHMARK.json lists only the first two.  Two shipped campaigns per
desk-campaign run take 60 to 120 s, and with a third listed workload a full
measurement (22 runs of each) no longer fits in an hour when the host is
slow; bo-loop, where a bo change shows end to end, runs by name, and the bo
layer's per-layer metrics come from desk-campaign's traced run.

Run from the root of a source checkout; the program is imported from its
`src/`.  The run builds the workload's inputs from --seed, then runs whole
units of the workload, one operation at a time (a closed loop with a single
client), until the next unit would end after --seconds; at least one unit
runs.  Every unit's outputs are checked.

--trace 0 reports the end-to-end metrics; --trace 1 runs one unit untraced,
then the same unit with every layer boundary wrapped (see tracing.py), and
reports the per-layer metrics plus the tracing overhead, traced minus
untraced wall_s.  Both must produce the same results, or the run is not
correct.

wall_s is the median over units of a unit's wall time; wall_ref_s is the
same in reference seconds (see probe.py), each operation's time rescaled by
the speed a fixed reference workload, interleaved with the operations,
measured around it.  setup_wall_s is the median over fresh processes of the
time from process start until the inputs are ready; setup_s is the same in
reference seconds, with the probe run around each process.  On a shared
host the speed one process gets drifts by tens of percent within seconds,
and by half for minutes on end, so times of the same code in plain seconds
spread past any useful bound; the bounded times are in reference seconds.

Human-readable lines come first, with every end-to-end metric, including
those BENCHMARK.json does not bound (setup_wall_s, wall_s, op_p50_s,
op_tail_s, fail_share, best_bound, bo_regret); the last line is the JSON
result.  The full record, with provenance, is written to .perfbench_out/
in the checkout, and traced runs write their spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The end-to-end metrics BENCHMARK.json bounds.  The others are printed and
# recorded but too noisy to bound: the median of 9 to 20 single operations
# varies more between runs than the sum of them does, and raw wall_s follows
# the host's drift.
BOUNDED = ("setup_s", "wall_ref_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test; not for measurement")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import packbound from this checkout's src/ or fail.

    BLAS runs single-threaded (one operation in flight, at most one core
    busy); the setting must precede the first numpy import.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "packbound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no packbound sources under {src}; "
                         "run from the root of a packbound checkout")
    sys.path.insert(0, str(src))
    import packbound

    if Path(packbound.__file__).resolve().parent != (src / "packbound").resolve():
        raise SystemExit(f"perfbench: imported packbound from {packbound.__file__}, not {src}")


def run_units(workload, seconds: float):
    """Whole units until the next one would end after `seconds`."""
    units = []
    start = perf_counter()
    while True:
        unit_start = perf_counter()
        units.append(workload.run_unit())
        now = perf_counter()
        if now - start + (now - unit_start) > seconds:
            return units


def tail(values):
    """Highest percentile with at least ten operations beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None


def setup_seconds(args):
    """Median over fresh processes of process start until the inputs are ready.

    Returns the median in reference seconds and the samples in seconds; the
    probe runs before each process and after the last.
    """
    from probe import Probe

    probe = Probe()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    samples, midpoints = [], []
    for _ in range(SETUP_SAMPLES):
        probe.sample()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            end = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
        samples.append(end - start)
        midpoints.append((start + end) / 2.0)
    probe.sample()
    reference = [probe.reference_seconds([s], [m]) for s, m in zip(samples, midpoints)]
    return statistics.median(reference), samples


def blas_info():
    """OpenBLAS versions and live thread counts of the libraries numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    info = {}
    for pkg in (numpy, scipy):
        blas = pkg.__config__.CONFIG["Build Dependencies"]["blas"]
        entry = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                    break
        info[pkg.__name__] = entry
    return info


def provenance(args):
    import hashlib

    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
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


def check_units(units, label):
    problems = [f"{label} unit {i + 1}: {p}" for i, u in enumerate(units) for p in u.problems]
    if any(u.fingerprint != units[0].fingerprint for u in units):
        problems.append(f"{label} units gave different results for the same inputs")
    return problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, bool(args.trace), str(OUT_DIR))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    units = [workload.run_unit()] if args.trace else run_units(workload, args.seconds)
    problems = check_units(units, "untraced")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(u.wall_s for u in units)
    wall_ref_s = statistics.median(u.wall_ref_s for u in units)

    layers = None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import Tracer, instrument, layer_metrics

        tracer = Tracer()
        instrument(tracer)
        try:
            traced = workload.run_unit()
        finally:
            tracer.close()
        problems += check_units([traced], "traced")
        if traced.fingerprint != units[0].fingerprint:
            problems.append("traced and untraced runs gave different results")
        layers = layer_metrics(tracer, traced.wall_s - wall_s)
        tracer.write_spans(str(OUT_DIR / f"{tag}-spans.jsonl"))

    setup_s, setup_samples = setup_seconds(args)
    ops = [s for u in units for s in u.op_seconds]
    failed = sum(f for u in units for f in u.op_failed)
    tail_pct, tail_s = tail(ops)
    beyond = len(ops) - math.ceil(tail_pct / 100.0 * len(ops)) if tail_pct else None
    # Every end-to-end metric as (value, unit, samples behind it).
    end_to_end = {
        "setup_s": (setup_s, "s", len(setup_samples)),
        "setup_wall_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (wall_s, "s", len(units)),
        "wall_ref_s": (wall_ref_s, "s", len(units)),
        "op_p50_s": (statistics.median(ops), "s", len(ops)),
        "op_tail_s": (tail_s, "s", len(ops)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "fail_share": (failed / len(ops), "ratio", len(ops)),
        **{name: (value, "density", 1) for name, value in units[0].quality.items()},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args),
        "units": len(units),
        "operations": len(ops),
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in end_to_end.items()},
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "setup_samples_s": setup_samples,
        "unit_wall_s": [u.wall_s for u in units],
        "unit_wall_ref_s": [u.wall_ref_s for u in units],
        "fingerprint": units[0].fingerprint,
        "problems": problems,
        "per_layer": layers,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    prov = record["provenance"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} operations={len(ops)}")
    print(f"# commit={prov['commit']} src_sha256={prov['src_sha256'][:16]} nproc={prov['nproc']} "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          + " ".join(f"{k}_blas={v['version']} {k}_blas_threads={v['threads']}"
                     for k, v in prov["blas"].items()))
    for name, (value, unit, samples) in end_to_end.items():
        note = f"n={samples}"
        if name == "op_tail_s":
            note += (f", p{tail_pct:g}, {beyond} beyond" if tail_pct is not None
                     else ": no percentile has ten operations beyond it")
        print(f"{name} {'n/a' if value is None else repr(value)} {unit} ({note})")
    if "digest" in units[0].fingerprint:
        print(f"emission_digest {units[0].fingerprint['digest']} sha256")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        from tracing import PER_LAYER

        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]}
                   for name in BOUNDED}
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
