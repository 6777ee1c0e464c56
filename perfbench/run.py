#!/usr/bin/env python3
"""Benchmark of the pacc simulator.

    python3 perfbench/run.py --workload paper64|scale4096|campaign|all \
        --seed N --seconds S --trace 0|1

--workload all runs every workload, each in its own process, and without
--trace it runs both the measured and the traced run of each.

Builds perfbench.cpp and the simulator library from ../src into
.bench_build/ (Release), runs the workload in its own process, checks every
simulated output and prints the metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
with tracing off, their times CPU times scaled to a reference host speed
(README.md, "Host speed"); with --trace 1 they are the per-layer ones, from a
separate traced run that also writes a Chrome trace of the benchmark's
spans and validates it with scripts/validate_trace.py.

A cell counts as failed when it ends with a status other than its expected
one (kOk; in the campaign's fault slice also faulted or unreachable), when
its outputs differ from the committed expected values (default seed), from
its own earlier pass (any seed) or break an invariant. Failures are counted
with their reasons; the workload always runs to the end. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected")
DEFAULT_SEED = 0
CLASSIFIED = {"ok", "faulted", "unreachable"}
# CPU time of perfbench.cpp's reference_work() on the 4-vCPU Xeon VM the
# bounds were set on. The measured run times that work beside the cells
# and set-ups and reports each CPU time t as
# t * REFERENCE_PROBE_S / (the reference's median time in the run): the
# time the host would have taken at the reference speed. See README.md,
# "Host speed".
REFERENCE_PROBE_S = 0.005

# BENCHMARK.json is the one place the workload and metric names and the
# metric units are written.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
# The per-layer list also holds span.<name>.self_ms for every span the
# traced run records: the span's time minus the time its child spans cover.
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Counters the public facade does not expose on a workload; reported as 0
# with the reason instead of patching the library.
GAPS = {
    "campaign": {
        "sim.*, net.* (except host_ns_per_flow), mpi.deliveries":
            "Campaign builds and owns every cell's Simulation",
    },
    "scale4096": {
        "obs.trace_overhead_ratio, hw.power_transitions":
            "simulator tracing forces a 1:1 run, so a collapsed cell "
            "cannot be traced",
    },
}


# What a traced reading means where it is not what its name suggests.
NOTES = {
    "sim.cancelled_backlog":
        "one tombstone per replica: SamplingMeter::stop() cancels the "
        "meter's pending sample after Simulation::run's event loop returns",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build ----

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", "4"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


def run_binary(workload, seed, seconds, trace, tmp):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", tmp]
    # The timed section ends within about `seconds`; set-up, warm-up and
    # the traced run's replicas come on top.
    timeout = 2 * seconds + 120
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {timeout:g} s")
        sys.exit(1)
    if done.returncode != 0:
        log(f"perfbench: {workload} exited with {done.returncode}")
        sys.exit(1)
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


# ---------------------------------------------------------- accounting ----

def load_expected(workload):
    path = os.path.join(EXPECTED, workload + ".json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)["cells"]


def outputs(cell):
    return {k: cell.get(k) for k in ("status", "latency_ns", "energy_bits")}


def cell_failure(cell, first, expected):
    """Why `cell` failed, or None."""
    status = cell["status"]
    allowed = CLASSIFIED if cell["classified"] else {"ok"}
    if status not in allowed:
        return f"status {status}: {cell.get('message', '')}"
    got = outputs(cell)
    if expected is not None:
        want = expected.get(cell["label"])
        if want is None:
            return "no expected value committed"
        if want != got:
            return f"outputs {got} differ from expected {want}"
    inputs = (cell["label"], cell["bytes"], cell.get("fault_seed"))
    earlier = first.setdefault(inputs, got)
    if earlier != got:
        return f"outputs {got} differ from an earlier pass {earlier}"
    return None


def scheme_pairs(cells):
    """(proposed, none) cells at the same point of the same pass."""
    by_key = {}
    for c in cells:
        if c["scheme"] not in ("proposed", "no-power") or "host_s" not in c:
            continue
        point = tuple(t for t in c["label"].split("/") if t != c["scheme"])
        by_key.setdefault((c["pass"], c["group"], point), {})[c["scheme"]] = c
    return [(p["proposed"], p["no-power"]) for p in by_key.values()
            if len(p) == 2]


def account(workload, seed, records):
    """Marks every cell ok or failed; returns (cells, checks, failures)."""
    cells = [r for r in records if r["kind"] == "cell"]
    checks = [r for r in records if r["kind"] == "check"]
    expected = load_expected(workload) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and expected is None and workload != "selfcheck":
        checks.append({"name": "expected_values", "ok": False,
                       "detail": "no expected values committed"})
    first = {}
    failures = []
    for c in cells:
        c["failure"] = cell_failure(c, first, expected)
    if workload == "paper64":
        # The paper's Fig-7 claim: the proposed Alltoall saves energy per
        # operation at large sizes. Its Bcast trades a lower power band for
        # latency and does not save energy per operation (EXPERIMENTS.md E6).
        for prop, none in scheme_pairs(cells):
            if (prop["op"] == "alltoall" and prop["nominal"] >= 256 * 1024
                    and prop["failure"] is None
                    and none["failure"] is None
                    and prop["energy_j"] > none["energy_j"]):
                prop["failure"] = (f"proposed energy {prop['energy_j']} J > "
                                   f"none {none['energy_j']} J")
    if workload == "scale4096":
        for c in cells:
            if c["failure"] is None and c.get("multiplicity") != 16:
                c["failure"] = (f"ran at multiplicity "
                                f"{c.get('multiplicity')}, not 16")
    for c in cells:
        if c["failure"] is not None:
            failures.append((c["label"], c["failure"]))
    for chk in checks:
        if not chk["ok"]:
            failures.append((chk["name"], chk["detail"]))
    return cells, checks, failures


def self_check(tmp):
    """An unsupported op x scheme cell must be counted, not abort the run."""
    records = run_binary("selfcheck", DEFAULT_SEED, 1, False, tmp)
    cells, _, failures = account("selfcheck", DEFAULT_SEED, records)
    labels = [label for label, _ in failures]
    return len(cells) == 2 and labels == ["gather/proposed/1024"]


# ------------------------------------------------------------- metrics ----

def percentile_tail(cells):
    """Host time (ms, as in cell["ms"]) at the highest percentile with >= 10
    cells beyond it in each pair of passes, the median over the pairs, and
    a note saying which. Taken over a whole run, the percentile would move
    with the number of passes that fit. With fewer than 20 cells in a pair
    that percentile would fall below the median; the slowest cell's median
    over the passes is reported instead."""
    by_pair = {}
    for c in cells:
        by_pair.setdefault(c["pass"] // 2, []).append(c["ms"])
    n = min(len(v) for v in by_pair.values())
    if n >= 20:
        pct = 100 * (n - 10) / n
        tails = [sorted(v)[len(v) - 11] for v in by_pair.values()]
        return statistics.median(tails), (
            f"cell_host_ms_tail is p{pct:.2f} of {n} cells (10 beyond it) "
            f"in each pair of passes, median over {len(tails)} pairs")
    by_label = {}
    for c in cells:
        by_label.setdefault(c["label"], []).append(c["ms"])
    label, times = max(by_label.items(),
                       key=lambda kv: statistics.median(kv[1]))
    return statistics.median(times), (
        f"cell_host_ms_tail is the median of the slowest cell, {label}, over "
        f"{len(times)} passes ({len(cells)} cells: no percentile above the "
        f"median has 10 beyond it)")


def pass_cpu_s(record, cells):
    """A timed pass's CPU time per worker. One worker: the sum of its
    cells' CPU times. A Campaign pass: the process's CPU time in the sweep,
    without the reference work, over the workers, plus the wall time of the
    phases after the sweep."""
    if "sweep_wall_s" not in record:
        return sum(c["cpu_s"] for c in cells)
    sweep = record["sweep_cpu_s"] - record["sweep_probe_s"]
    return (sweep / record["workers"]
            + record["wall_s"] - record["sweep_wall_s"])


def end_to_end(cells, checks, failures, records):
    # Pass -1 is an untimed warm-up: checked, but not timed. The timed
    # section is whole pairs of passes (a pass and its mirrored sizes), so
    # it covers the nominal work whatever the seed.
    passes = [r for r in records if r["kind"] == "pass" and r["pass"] >= 0]
    timed = [c for c in cells if c["pass"] >= 0]
    # Cells timed beside the reference work: not those the Campaign
    # rejects before running them.
    measured = [c for c in timed if "probe_s" in c]
    ok = [c for c in timed if c["failure"] is None]
    setup = [r for r in records if r["kind"] == "setup"]
    # Every time is CPU time scaled to the reference host speed: the
    # reference work's median time over the whole run against
    # REFERENCE_PROBE_S. A batch of set-ups shares one reference time.
    reference_s = statistics.median(
        [c["probe_s"] for c in measured] +
        [r["probe_s"] for r in setup if r["rep"] == 0])
    scale = REFERENCE_PROBE_S / reference_s
    for c in measured:
        c["ms"] = c["cpu_s"] * scale * 1e3
    timed_s = scale * sum(
        pass_cpu_s(p, [c for c in measured if c["pass"] == p["pass"]])
        for p in passes)
    # Each cell's median over the passes (a pair of passes runs it at both
    # of its mirrored sizes), then the median over the cells. The median
    # over all of a run's cell runs can sit in a gap between two groups of
    # cells (scale4096: none at ~2.3 s, proposed at ~3.6 s) and jump
    # across it from run to run; the middle cells' own medians do not.
    by_label = {}
    for c in measured:
        by_label.setdefault(c["label"], []).append(c["ms"])
    p50 = statistics.median(statistics.median(v) for v in by_label.values())
    tail, tail_note = percentile_tail(measured)
    memory = next(r for r in records if r["kind"] == "memory")
    attempted = len(cells) + len(checks)
    metrics = {
        "cells_ok_per_s": len(ok) / timed_s,
        "logical_flows_per_s": sum(c.get("logical_flows", 0)
                                   for c in ok) / timed_s,
        "cell_host_ms_p50": p50,
        "cell_host_ms_tail": tail,
        "peak_rss_bytes": statistics.median(
            r["vm_hwm_bytes"] for r in records
            if r["kind"] == "pass_memory"),
        "vm_peak_bytes": memory["vm_peak_bytes"],
        "setup_s": statistics.median(r["cpu_s"] for r in setup) * scale,
        "cells_ok_ratio": (attempted - len(failures)) / attempted,
    }
    wall = sum(p["wall_s"] for p in passes)
    notes = [
        tail_note,
        f"cells_failed_ratio {len(failures) / attempted:.6g} "
        f"({len(failures)} of {attempted})",
        f"{len(passes)} timed passes in {wall:.2f} s wall, "
        f"{len(setup)} set-up repetitions",
        f"reference work took {reference_s * 1e3:.3f} ms (median), "
        f"{REFERENCE_PROBE_S * 1e3:g} ms at the reference speed: times "
        f"scaled by {scale:.4f}",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def span_self_times(trace_path):
    with open(trace_path, encoding="utf-8") as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    totals = {}
    for e in events:
        begin, end = e["ts"], e["ts"] + e["dur"]
        covered, reach = 0.0, begin
        for k in sorted(children.get(e["args"]["id"], []),
                        key=lambda c: c["ts"]):
            lo, hi = max(k["ts"], reach), min(k["ts"] + k["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[e["name"]] = totals.get(e["name"], 0.0) + (e["dur"] - covered)
    return {name: us / 1e3 for name, us in totals.items()}


def per_layer(workload, cells, records, trace_path):
    counters = {r["name"]: r["value"] for r in records
                if r["kind"] == "counter"}
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({k: v for k, v in counters.items() if k in m})
    ok = [c for c in cells if c["failure"] is None]
    timed = [c for c in ok if "host_s" in c and c.get("rep_flows")]
    flows = sum(c["rep_flows"] for c in timed)
    if flows:
        m["net.host_ns_per_flow"] = (sum(c["host_s"] for c in timed) * 1e9
                                     / flows)
    pairs = scheme_pairs(ok)
    none_s = sum(n["host_s"] for _, n in pairs)
    if none_s:
        m["hw.power_scheme_host_ratio"] = (sum(p["host_s"] for p, _ in pairs)
                                           / none_s)
    for name, field in (("mpi.gov_downclocks", "gov_downclocks"),
                        ("mpi.gov_restores", "gov_restores"),
                        ("fault.drops", "drops"),
                        ("fault.retransmits", "retransmits"),
                        ("fault.link_flaps", "link_flaps"),
                        ("fault.scheme_fallbacks", "scheme_fallbacks")):
        m[name] = float(sum(c.get(field, 0) for c in ok))
    rep = sum(c.get("rep_flows", 0) for c in ok)
    m["sym.representative_flows"] = float(rep)
    m["sym.simulated_ranks"] = float(sum(c.get("sim_ranks", 0) for c in ok))
    if rep:
        m["sym.multiplicity"] = sum(c.get("logical_flows", 0)
                                    for c in ok) / rep
    hits, misses = m["coll.plan_cache_hits"], m["coll.plan_cache_misses"]
    if hits + misses:
        m["coll.plan_cache_hit_ratio"] = hits / (hits + misses)
    setup = [r for r in records if r["kind"] == "setup"]
    m["sym.decide_us"] = statistics.median(
        r["decide_s"] / r["clusters"] for r in setup) * 1e6
    m["pacc.simulation_ctor_ms"] = statistics.median(
        r["ctor_s"] for r in setup) * 1e3
    if workload != "campaign":
        passes = [r for r in records if r["kind"] == "pass"]
        busy = sum(c["host_s"] for c in cells if "host_s" in c)
        m["pacc.worker_busy_ratio"] = busy / sum(p["wall_s"] for p in passes)
    for name, ms in span_self_times(trace_path).items():
        if f"span.{name}.self_ms" in m:
            m[f"span.{name}.self_ms"] = ms
    return {k: (float(v), PER_LAYER_UNITS[k]) for k, v in m.items()}


def validate_trace(trace_path):
    script = os.path.join(ROOT, "scripts", "validate_trace.py")
    done = subprocess.run([sys.executable, script, trace_path],
                          stdout=sys.stderr, stderr=sys.stderr, check=False)
    return done.returncode == 0


# ---------------------------------------------------------------- main ----

def undeclared_predictions():
    """Metric and workload names in predictions.json that BENCHMARK.json
    does not declare."""
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as f:
        predictions = json.load(f)
    pairs = []
    for layer in predictions["layers"]:
        pairs += [(name, None) for name in layer["metrics"]]
        pairs += [(m["metric"], m["workload"])
                  for m in layer["moves"] + layer["should_not_move"]]
    for figure in predictions["ci_figures"]:
        pairs += [(m["metric"], m["workload"]) for m in figure["covered_by"]]
    metrics = END_TO_END_UNITS.keys() | PER_LAYER_UNITS.keys()
    return sorted({name for name, _ in pairs if name not in metrics} |
                  {w for _, w in pairs if w is not None and w not in WORKLOADS})


def write_expected(workload, cells):
    table = {}
    for c in cells:
        if c["pass"] == 0:
            table[c["label"]] = outputs(c)
    os.makedirs(EXPECTED, exist_ok=True)
    with open(os.path.join(EXPECTED, workload + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": DEFAULT_SEED,
                   "cells": dict(sorted(table.items()))}, f, indent=1)
        f.write("\n")


def run_workload(workload, seed, seconds, trace, regenerate):
    tmp_root = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=workload + "-", dir=tmp_root)
    try:
        self_check_ok = self_check(tmp)
        records = run_binary(workload, seed, seconds, trace, tmp)
        if regenerate:
            write_expected(workload, [r for r in records
                                      if r["kind"] == "cell"])
        cells, checks, failures = account(workload, seed, records)
        checks.append({"name": "failure_accounting_self_check",
                       "ok": self_check_ok, "detail": ""})
        if not self_check_ok:
            failures.append(("failure_accounting_self_check",
                             "unsupported cell not counted as one failure"))
        if trace:
            trace_path = os.path.join(tmp, "trace.json")
            valid = validate_trace(trace_path)
            checks.append({"name": "trace_valid", "ok": valid, "detail": ""})
            if not valid:
                failures.append(("trace_valid", "validate_trace.py failed"))
            metrics = per_layer(workload, cells, records, trace_path)
            notes = [f"gap: {k} = 0 ({why})"
                     for k, why in GAPS.get(workload, {}).items()]
            notes += [f"note: {k} = {metrics[k][0]:g}: {why}"
                      for k, why in NOTES.items() if metrics[k][0]]
        else:
            metrics, notes = end_to_end(cells, checks, failures, records)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if set(metrics) != set(declared):
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(metrics) ^ set(declared)))
        sys.exit(1)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'measured'})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:20.6g} {unit}")
    for note in notes:
        print("  " + note)
    for label, reason in failures:
        print(f"  FAILED {label}: {reason}")
    attempted = len(cells) + len(checks)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: the measured run, 1: the traced run (default: "
                         "0, or both with --workload all)")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected/<workload>.json (default "
                         "seed only)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if args.write_expected and args.seed != DEFAULT_SEED:
        ap.error("--write-expected needs the default seed")
    unknown = undeclared_predictions()
    if unknown:
        log("perfbench: predictions.json names what BENCHMARK.json does not "
            "declare:", unknown)
        return 1
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        traces = (bool(args.trace),)
    else:
        traces = (False, True) if args.workload == "all" else (False,)
    results = [run_workload(w, args.seed, args.seconds, trace,
                            args.write_expected and not trace)
               for w in workloads for trace in traces]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
