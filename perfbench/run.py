"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload q5_fine_slide --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A
record with the same figures plus provenance (command, seed, CPU
count, memory, source revision) is written under ``.perfbench_out/``,
and a traced run also writes its spans there.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from estimators import latency_summary, spread

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _keep_files_inside(tmp: Path) -> None:
    """Point temporary files of this process and its libraries into the
    checkout."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = str(tmp)


def _revision() -> str:
    """Git commit of the checkout, or a digest of the program's sources
    when the checkout is not a git repository."""
    try:
        r = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = r.stdout.split()
        if r.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()


def _mem_total_mb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def end_to_end(outcome) -> tuple[dict, dict]:
    lat = latency_summary(outcome.latencies)
    return {
        "events_per_s": outcome.events_per_s(),
        "setup_s": outcome.setup_s,
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "peak_rss_mb": outcome.peak_rss_mb,
    }, lat


def per_layer(outcome, units: dict[str, str]) -> dict:
    """Per metric, the median over the traced iterations."""
    traced = [it for it in outcome.iterations if it.traced and it.layers]
    out = {}
    for name, unit in units.items():
        vals = [it.layers[name] for it in traced if name in it.layers]
        value = statistics.median(vals) if vals else 0
        out[name] = round(value) if unit == "count" else value
    if traced:
        out["trace.overhead_ratio"] = outcome.events_per_s() / outcome.events_per_s(traced=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"the program's sources are missing under {ROOT}")
    tmp = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    _keep_files_inside(tmp)
    sys.path.insert(0, str(ROOT / "src"))

    import repro  # noqa: F401  (must be the checkout's own copy)

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"imported repro from {repro.__file__}, not from this checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not outcome.timed:
        _fail("no timed iteration completed")

    e2e, lat = end_to_end(outcome)
    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    values = per_layer(outcome, units) if args.trace else e2e
    rates = [it.wall_events_per_s for it in outcome.timed]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "nproc": os.cpu_count(),
        "mem_total_mb": _mem_total_mb(),
        "revision": _revision(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failure_rate": outcome.failed / outcome.attempted,
        "failures": [it.detail for it in outcome.iterations if not it.ok],
        "wall_events_per_s_runs": rates,
        "wall_events_per_s_spread": spread(rates),
        "speeds": [it.speed for it in outcome.timed],
        "wall_setup_s_runs": [it.setup_s for it in outcome.timed],
        "latency_samples": lat["n"],
        "latency_tail_pct": lat["tail_pct"],
        "end_to_end": e2e,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.dump(str(OUT / f"{stem}.spans.tsv"))

    print(f"workload {args.workload}  seed {args.seed}  revision {record['revision']}  "
          f"nproc {record['nproc']}  mem {record['mem_total_mb'] or 0:.0f} MB")
    print(f"runs {outcome.attempted}  failed {outcome.failed}  "
          f"failure_rate {record['failure_rate']:.3f}  "
          f"wall events_per_s spread {record['wall_events_per_s_spread']:.3f} "
          f"over {len(rates)} runs  "
          f"latency n={lat['n']} tail=p{lat['tail_pct']:.2f}")
    for it in outcome.iterations:
        if not it.ok:
            print(f"  failed run: {it.detail}")
    for k, u in units.items():
        print(f"  {k:40s} {values[k]:>16.6g} {u}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
