"""Runs one workload in a process of its own and writes its raw result as
JSON to ``--out``.  ``run.py`` starts it; see that file for the command line
a user types.

Modes:
  run     set up, then the timed loop (``--trace 0``) or alternating untraced
          and traced passes over a fixed list of operations (``--trace 1``)
  probe   set up, report when the first operation would start, and exit
  warm    import everything, so the bytecode cache is filled, and exit
  record  run the first DIGEST_OPS operations of the default seed and write
          their output digests (and the CLI goldens) for later runs to check
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from calibrate import scale_at, scale_now, time_reference
from tracing import OP_SPAN, SpanTracer, Tracer, layer_table
from workloads import (
    CLI_COMMANDS,
    GENERATED,
    GOLDEN_DIR,
    ROOT,
    SUBCOMMANDS,
    WORKLOADS,
    cli_golden_path,
)

DEFAULT_SEED = 1
DIGEST_OPS = 20
# at least 10 samples beyond p90; peak_rss_mb is read once this many
# operations are done, because tower_survey's caches grow with every
# operation and a later read would give a slower run less memory
MIN_OPS = 100
# extra seconds a run may take to reach MIN_OPS before it stops anyway
GRACE_S = 60
DIGEST_FILE = os.path.join(GOLDEN_DIR, "digests.json")
STARTUP_SAMPLES = 5

# per-layer metric -> (span name, field of the layer table, unit)
LAYER_METRICS = {
    "pullback.check_hypotheses.ms": ("pullback.check_hypotheses", "ms", "ms"),
    "pullback.h8_certificate_entries": ("pullback.check_hypotheses", "count", "count"),
    "pullback.check_commutativity.ms": ("pullback.check_commutativity", "ms", "ms"),
    "pullback.check_kernel_inclusion.ms": ("pullback.check_kernel_inclusion", "ms", "ms"),
    "pullback.kernel_pairs": ("pullback.check_kernel_inclusion", "count", "count"),
    "jsonio.load_instance.ms": ("jsonio.load_instance", "ms", "ms"),
    "jsonio.canonical_dumps.ms": ("jsonio.canonical_dumps", "ms", "ms"),
    "jsonio.output_bytes": ("jsonio.canonical_dumps", "count", "bytes"),
    "morphisms.classify.ms": ("morphisms.classify", "ms", "ms"),
    "morphisms.classify.calls": ("morphisms.classify", "calls", "count"),
    "morphisms.enumerate_path_homs.ms": ("morphisms.enumerate_path_homs", "ms", "ms"),
    "morphisms.enumerate_path_homs.homs": ("morphisms.enumerate_path_homs", "count", "count"),
    "graphs.paths_up_to.ms": ("graphs.paths_up_to", "ms", "ms"),
    "graphs.paths_up_to.paths": ("graphs.paths_up_to", "count", "count"),
    "graphs.loops_have_exits.ms": ("graphs.loops_have_exits", "ms", "ms"),
    "expressions.parse_expression.ms": ("expressions.parse_expression", "ms", "ms"),
    "expressions.parse_expression.calls": ("expressions.parse_expression", "calls", "count"),
    "algebra.multiply.ms": ("algebra.multiply", "ms", "ms"),
    "algebra.multiply.monomials": ("algebra.multiply", "count", "count"),
    "algebra.star.ms": ("algebra.star", "ms", "ms"),
    "algebra.render.ms": ("algebra.render", "ms", "ms"),
    "algebra.induce_leavitt.ms": ("algebra.induce_leavitt", "ms", "ms"),
    "admissible.quotient_map.ms": ("admissible.quotient_map", "ms", "ms"),
    "admissible.quotient_map.calls": ("admissible.quotient_map", "calls", "count"),
    **{f"cli.{sub}.ms": (f"cli.{sub}", "ms", "ms") for sub in SUBCOMMANDS},
    "trace.unattributed_ms": (OP_SPAN, "ms", "ms"),
}


def load_digests(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not os.path.exists(DIGEST_FILE):
        return []
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, [])


class Loop:
    """Runs operations and keeps (operation index, latency, items) of each
    correct one, and the failures."""

    def __init__(self, wl, digests):
        self.wl = wl
        self.digests = digests
        self.samples: list[tuple[int, float, int]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def step(self, i: int, tag: str = "", op_span=None) -> float:
        inp = self.wl.make(i, tag)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if op_span is None:
                out = self.wl.run(inp)
            else:
                with op_span(i):
                    out = self.wl.run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"operation {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        err = self.wl.check(inp, out)
        if err is None and i < len(self.digests) and self.wl.digest(inp, out) != self.digests[i]:
            err = "output digest differs from the recorded golden"
        if err is not None:
            self.failures.append(f"operation {i}: {err}")
            return dt
        self.samples.append((i, dt, self.wl.items(inp, out)))
        return dt


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def scaled_samples(samples: list, refs: list) -> list:
    """Each sample with its time at reference speed (see ``calibrate.py``);
    operation ``i`` ran just before ``refs[i]``."""
    return [(i, dt * scale_at(refs, i), items) for i, dt, items in samples]


def loop_metrics(samples: list) -> dict:
    lat_ms = sorted(s[1] * 1000.0 for s in samples)
    busy_s = sum(s[1] for s in samples)
    items = sum(s[2] for s in samples)
    return {"samples": len(lat_ms), "items": items, "busy_s": busy_s,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "items_per_s": items / busy_s}


def timed_run(wl, seconds: float, loop: Loop) -> dict:
    """Rounds of ``wl.round_ops`` operations until the time is up and at
    least MIN_OPS operations are done, each followed by one timing of the
    reference kernel."""
    wl.bind(Tracer())
    setup_errors = wl.setup()
    ready = time.perf_counter()
    setup_scale = scale_now()
    deadline, hard_deadline = ready + seconds, ready + seconds + GRACE_S
    children = wl.name == "cli_commands"
    i, rss, refs = 0, None, []
    while True:
        now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and i >= MIN_OPS):
            break
        for _ in range(wl.round_ops):
            loop.step(i)
            refs.append(time_reference())
            i += 1
        if rss is None and i >= MIN_OPS:
            rss = peak_rss_mb(children)
    metrics = {"peak_rss_mb": (rss if rss is not None else peak_rss_mb(children), "MB")}
    result = {"ready": ready, "setup_errors": setup_errors, "metrics": metrics,
              "setup_scale": setup_scale}
    if len(loop.samples) >= 2:
        scaled = loop_metrics(scaled_samples(loop.samples, refs))
        metrics.update({name: (scaled[name], unit) for name, unit in
                        (("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
                         ("items_per_s", "1/s"))})
        result.update(scaled=scaled, raw=loop_metrics(loop.samples),
                      reference_ms=statistics.median(refs) * 1000.0)
    return result


def startup_costs(env) -> dict:
    """Median wall time of a bare interpreter start and of importing the CLI."""
    def median_ms(code):
        times = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(times)

    startup = median_ms("pass")
    return {"cli.python_startup_ms": (startup, "ms"),
            "cli.import_ms": (median_ms("import pathalg.cli") - startup, "ms")}


def traced_run(wl, seconds: float, loop: Loop, spans_path: str) -> dict:
    """Untraced and traced passes over the same operations, alternating until
    the time is up.  Layer figures come from the median traced pass; the
    overhead compares the median traced with the median untraced pass time."""
    wl.bind(Tracer())
    setup_errors = wl.setup()
    metrics = startup_costs(os.environ)
    ready = time.perf_counter()
    deadline = ready + seconds
    plain, traced, tracers = [], [], []
    while not tracers or time.perf_counter() < deadline:
        p = len(tracers)
        wl.bind(Tracer())
        plain.append(sum(loop.step(i, f"u{p}_") for i in range(wl.trace_ops)))
        tracer = SpanTracer()
        wl.bind(tracer)
        traced.append(sum(loop.step(i, f"t{p}_", tracer.op) for i in range(wl.trace_ops)))
        tracers.append(tracer)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for p, tracer in enumerate(tracers):
            for span in tracer.records(p):
                fh.write(json.dumps(span) + "\n")
    # the layer table of the pass with the median traced time, so that the
    # layer self times add up to that pass's operation time
    middle = sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]
    table = layer_table(tracers[middle].spans)
    for metric, (span, field, unit) in LAYER_METRICS.items():
        metrics[metric] = (table.get(span, {}).get(field, 0), unit)
    metrics["trace.op_ms"] = (sum(row["ms"] for row in table.values()), "ms")
    metrics["trace.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0, "%")
    return {"ready": ready, "setup_errors": setup_errors, "metrics": metrics,
            "passes": len(tracers), "ops_per_pass": wl.trace_ops}


def record(wl) -> dict:
    """Capture the CLI goldens and the default seed's output digests."""
    if wl.name == "cli_commands":
        os.makedirs(os.path.dirname(cli_golden_path(0)), exist_ok=True)
        for j, argv in enumerate(CLI_COMMANDS):
            if GENERATED in argv:
                continue
            proc = subprocess.run([sys.executable, "-m", "pathalg", *argv],
                                  cwd=ROOT, capture_output=True,
                                  check=True, timeout=60)
            with open(cli_golden_path(j), "wb") as fh:
                fh.write(proc.stdout)
    wl.bind(Tracer())
    errors = wl.setup()
    digests = []
    for i in range(DIGEST_OPS):
        inp = wl.make(i)
        out = wl.run(inp)
        err = wl.check(inp, out)
        if err:
            errors.append(f"operation {i}: {err}")
        digests.append(wl.digest(inp, out))
    return {"digests": digests, "setup_errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("run", "probe", "warm", "record"), default="run")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.mode == "warm":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({}, fh)
        return 0

    wl = WORKLOADS[args.workload](args.seed, os.path.join(args.workdir, "inputs"))
    if args.mode == "probe":
        wl.bind(Tracer())
        errors = wl.setup()
        result = {"ready": time.perf_counter(), "setup_errors": errors,
                  "setup_scale": scale_now()}
    elif args.mode == "record":
        result = record(wl)
    else:
        loop = Loop(wl, load_digests(wl.name, args.seed))
        if args.trace:
            spans_path = os.path.join(args.workdir, "spans",
                                      f"{wl.name}-seed{args.seed}.jsonl")
            result = traced_run(wl, args.seconds, loop, spans_path)
        else:
            result = timed_run(wl, args.seconds, loop)
        result.update(attempted=loop.attempted, failures=loop.failures, sizes=wl.sizes())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
