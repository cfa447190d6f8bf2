"""Benchmark for pathalg: four seeded, single-client, closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pullback_square --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all four workloads, one after another
    python3 perfbench/run.py --record-goldens

Each workload runs in a worker process of its own (``worker.py``), started
with this interpreter, ``PYTHONPATH=src`` and a bytecode cache under
``.perfbench/pycache`` (``PYTHONDONTWRITEBYTECODE`` is cleared, so CLI
children do not recompile the package on every start).  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The result file under ``.perfbench/results`` is stamped with the machine,
the interpreter, the seed, the commit and the input sizes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REFERENCE_MS, scale_now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pullback_square", "leavitt_products", "tower_survey", "cli_commands")
DEFAULT_SEED = 1
# set-ups measured per run: SETUP_PROBES probe processes plus the run itself
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
END_TO_END = ("latency_p50_ms", "latency_p90_ms", "items_per_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one string-hash seed for every process, so dict and set layouts do not
    # differ from run to run
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORKDIR, "pycache")
    return env


def worker(env, timeout, *args) -> tuple[float, dict]:
    """Start a worker, wait for it and return (start time, its result)."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=os.path.join(WORKDIR, "tmp"))
    os.close(fd)
    try:
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, WORKER, "--workdir", WORKDIR, "--out", out, *args],
                              env=env, cwd=ROOT, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return started, json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish within {timeout} s")
    finally:
        os.unlink(out)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def stamp(env, seed, workload, trace, sizes) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "platform": platform.platform()},
        "python": {"executable": sys.executable, "version": platform.python_version(),
                   "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "cleared",
                   "PYTHONHASHSEED": env["PYTHONHASHSEED"],
                   "PYTHONPYCACHEPREFIX": os.path.relpath(env["PYTHONPYCACHEPREFIX"], ROOT)},
        "commit": commit(),
        "source_sha256": source_digest(),
        "input_sizes": sizes,
    }


def run_workload(env, workload, seed, seconds, trace) -> dict:
    run_args = ("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace))
    # each set-up, raw and scaled to reference speed (see calibrate.py) by
    # the mean of the scales just before the worker starts and just after
    # its set-up
    setups, setup_errors = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            before = scale_now()
            started, probe = worker(env, PROBE_TIMEOUT_S, "--mode", "probe", *run_args)
            setups.append((probe["ready"] - started, (before + probe["setup_scale"]) / 2))
            setup_errors += probe["setup_errors"]
    before = scale_now()
    started, res = worker(env, seconds + 120, "--mode", "run", *run_args)
    if not trace:
        setups.append((res["ready"] - started, (before + res["setup_scale"]) / 2))
    setup_errors += res["setup_errors"]

    metrics = dict(res["metrics"])
    if not trace:
        metrics["setup_s"] = (statistics.median(raw * scale for raw, scale in setups), "s")
    failed = len(res["failures"])
    result = {
        "correct": failed == 0 and not setup_errors and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**stamp(env, seed, workload, trace, res["sizes"]), **result,
              "failed_ratio": failed / max(res["attempted"], 1),
              "failures": res["failures"][:20], "setup_errors": sorted(set(setup_errors)),
              "setups_s": [raw for raw, _ in setups],
              "setup_scales": [scale for _, scale in setups],
              **{k: res[k] for k in ("scaled", "raw", "reference_ms", "passes", "ops_per_pass")
                 if k in res}}
    path = os.path.join(WORKDIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    record["result_file"] = os.path.relpath(path, ROOT)
    return record


def print_record(rec: dict) -> None:
    py = rec["python"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}")
    print(f"   {rec['machine']['nproc']} CPUs, {rec['machine']['cpu_model']}; "
          f"commit {rec['commit'] or 'unknown'}, src sha256 {rec['source_sha256'][:12]}")
    print(f"   {py['executable']} {py['version']}, PYTHONDONTWRITEBYTECODE cleared, "
          f"PYTHONHASHSEED={py['PYTHONHASHSEED']}, PYTHONPYCACHEPREFIX={py['PYTHONPYCACHEPREFIX']}")
    metrics = rec["metrics"]
    if rec["trace"]:
        op_ms = metrics["trace.op_ms"]["value"]
        print(f"   {rec['passes']} traced passes of {rec['ops_per_pass']} operations; "
              f"the pass with the median time (self time of each span):")
        layer_ms = 0.0
        for name, m in sorted(metrics.items()):
            share = ""
            if m["unit"] == "ms" and name.endswith(".ms") or name == "trace.unattributed_ms":
                layer_ms += m["value"]
                share = f"{100.0 * m['value'] / op_ms:6.1f}% of op time" if op_ms else ""
            print(f"   {name:38s} {m['value']:14.4f} {m['unit']:6s} {share}")
        print(f"   layer self times + unattributed = {layer_ms:.1f} ms of "
              f"{op_ms:.1f} ms traced operation time")
    elif "scaled" in rec:
        scaled, raw = rec["scaled"], rec["raw"]
        n = scaled["samples"]
        for name in END_TO_END:
            m = metrics.get(name)
            if m is None:
                continue
            note = {"latency_p50_ms": f"{n} samples",
                    "latency_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond p90",
                    "items_per_s": f"{scaled['items']} items in {scaled['busy_s']:.2f} s",
                    "setup_s": f"median of {len(rec['setups_s'])} set-ups"}.get(name, "")
            print(f"   {name:16s} {m['value']:14.4f} {m['unit']:4s} {note}")
        print(f"   timing metrics at reference speed; the reference kernel took "
              f"{rec['reference_ms']:.4f} ms (median) against {REFERENCE_MS} ms quiet")
        print(f"   as timed: p50 {raw['latency_p50_ms']:.4f} ms, p90 "
              f"{raw['latency_p90_ms']:.4f} ms, {raw['items_per_s']:.4f} items/s, "
              f"set-up {statistics.median(rec['setups_s']):.4f} s")
    if not rec["trace"]:
        print(f"   {'failed_ratio':16s} {rec['failed_ratio']:14.4f}      "
              f"{rec['failed']} of {rec['attempted']} operations")
    for msg in rec["setup_errors"] + rec["failures"]:
        print(f"   FAILED: {msg}")
    print(f"   result file {rec['result_file']}")


def record_goldens(env) -> int:
    digests = {"seed": DEFAULT_SEED}
    ok = True
    for workload in WORKLOADS:
        _, res = worker(env, 300, "--mode", "record", "--workload", workload,
                        "--seed", str(DEFAULT_SEED))
        digests[workload] = res["digests"]
        for msg in res["setup_errors"]:
            ok = False
            print(f"{workload}: FAILED: {msg}")
    with open(os.path.join(HERE, "goldens", "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print("recorded goldens for seed", DEFAULT_SEED, "ok" if ok else "with failures")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pathalg benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    ap.add_argument("--record-goldens", action="store_true",
                    help="capture the CLI goldens and the default seed's output digests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pathalg", "__init__.py")):
        print(f"error: no pathalg source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    for sub in ("pycache", "inputs", "results", "spans", "tmp"):
        os.makedirs(os.path.join(WORKDIR, sub), exist_ok=True)
    env = pinned_env()
    try:
        worker(env, PROBE_TIMEOUT_S, "--mode", "warm")
        if args.record_goldens:
            return record_goldens(env)
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        records = [run_workload(env, w, args.seed, args.seconds, args.trace) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    if args.workload:
        summary = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{name}": m for r in records
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
