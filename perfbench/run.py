#!/usr/bin/env python3
"""Default-scale pipeline benchmark for the StarNUMA simulator.

Runs driver::runSweep at SimScale::sc1() (16 sockets x 4 cores,
5 phases x 400 K instructions per thread) on one of three workloads
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig08_cold --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-check     # tiny scale, seconds

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with the untraced binary. Their host times are scaled by a host-speed
probe (perfbench/calibrate.cc) run at the start and end of the run. --trace 1 reports the per-layer metrics: it
runs the traced binary (perfbench/spans.cc) once untraced and once
with span recording on over the same cells, and derives every layer's
self time from the spans. perfbench/README.md describes the workloads,
the metrics and which layer should move which end-to-end metric.

The script builds perfbench/ (which compiles ../src) into .bench_build
and keeps every file it writes under .bench_build.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")
SPANS_DIR = os.path.join(".bench_build", "spans")
PLAIN = os.path.join(BUILD_DIR, "perfbench_pipeline")
TRACED = os.path.join(BUILD_DIR, "perfbench_pipeline_traced")
CALIBRATE = os.path.join(BUILD_DIR, "perfbench_calibrate")

KERNELS = ["sssp", "bfs", "cc", "tc", "masstree", "tpcc", "fmi", "poa"]
# "Paper T16" column of the EXPERIMENTS.md Fig 8 table.
PAPER_T16 = {"sssp": 2.17, "bfs": 1.7, "cc": 1.4, "tc": 1.63,
             "masstree": 1.5, "tpcc": 1.35, "fmi": 1.22, "poa": 1.0}
WORKLOADS = ["fig08_cold", "fig08_warm", "policy_sweep"]
# A whole run, build excluded, must end well inside 180 s.
RUN_BUDGET_S = 170.0
# fig08_warm's set-up time is the median of this many filling passes.
WARM_FILLS = 3
# fig08_cold's set-up is a few milliseconds of process start, so its
# time is the median of this many passes that stop once ready.
COLD_SETUP_PROBES = 25

# Host-speed normalization. On a shared machine the same code runs tens
# of percent slower or faster for minutes at a time. A host-time metric
# is reported as measured x (CALIBRATION_REF_S / probe seconds) ** power,
# with the median probe trial of the run: the time the run would have
# taken on a host where one probe trial takes CALIBRATION_REF_S (about
# its median on a 4-vCPU Xeon VM).
CALIBRATION_REF_S = 0.3
HOST_TIMED = {"setup_s": 1, "experiments_per_s": -1,
              "cpu_s_per_experiment": 1}

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("experiments_per_s", "cells/s", "higher"),
    ("cpu_s_per_experiment", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fig08_log_err", "1", "lower"),
]

# name -> (unit, better) for layer totals; PER_KERNEL entries are also
# reported once per kernel with a ".<kernel>" suffix.
LAYER_TOTALS = [
    ("workloads.capture_s", "s", "lower"),
    ("workloads.records", "records", "lower"),
    ("workloads.records_per_s", "records/s", "higher"),
    ("trace.encode_s", "s", "lower"),
    ("trace.encode_mb_per_s", "MB/s", "higher"),
    ("trace.decode_s", "s", "lower"),
    ("trace.decode_mb_per_s", "MB/s", "higher"),
    ("trace.bytes_per_record", "B/record", "lower"),
    ("cas.put_s", "s", "lower"),
    ("cas.put_mb_per_s", "MB/s", "higher"),
    ("cas.fetch_s", "s", "lower"),
    ("cas.fetch_mb_per_s", "MB/s", "higher"),
    ("cas.probe_s", "s", "lower"),
    ("cas.hash_s", "s", "lower"),
    ("cas.hash_mb_per_s", "MB/s", "higher"),
    ("cas.bytes_written", "B", "lower"),
    ("cas.bytes_read", "B", "lower"),
    ("cas.result_hit_rate", "1", "higher"),
    ("trace_sim.s", "s", "lower"),
    ("trace_sim.records_per_s", "records/s", "higher"),
    ("trace_sim.migrated_pages", "pages", "lower"),
    ("timing_sim.s", "s", "lower"),
    ("timing_sim.mem_accesses", "accesses", "lower"),
    ("timing_sim.accesses_per_s", "accesses/s", "higher"),
    ("sweep.cpu_utilization", "1", "higher"),
    ("other_s", "s", "lower"),
    ("traced.wall_s", "s", "lower"),
    ("traced.lanes", "threads", "higher"),
    ("tracing.overhead_ratio", "x", "lower"),
]
PER_KERNEL = [
    "workloads.capture_s", "workloads.records", "workloads.records_per_s",
    "trace_sim.s", "trace_sim.records_per_s", "trace_sim.migrated_pages",
    "timing_sim.s", "timing_sim.mem_accesses", "timing_sim.accesses_per_s",
]


def per_layer_spec():
    units = {n: (u, b) for n, u, b in LAYER_TOTALS}
    spec = list(LAYER_TOTALS)
    for name in PER_KERNEL:
        spec += [(f"{name}.{k}",) + units[name] for k in KERNELS]
    spec += [(f"driver.speedup_t16.{k}", "x", "higher") for k in KERNELS]
    return spec


# Span name -> the layer metric prefix its self time and work feed.
SPAN_LAYER = {
    "workloads.capture": "workloads.capture",
    "trace.encode": "trace.encode",
    "trace.decode": "trace.decode",
    "cas.put": "cas.put",
    "cas.fetch": "cas.fetch",
    "cas.probe": "cas.probe",
    "cas.hash": "cas.hash",
    "trace_sim.run": "trace_sim",
    "timing_sim.run": "timing_sim",
}
# Layers that must record spans on each workload's traced pass.
EXPECTED_SPANS = {
    "fig08_cold": ["workloads.capture", "trace.encode", "cas.put",
                   "cas.hash", "trace_sim.run", "timing_sim.run"],
    "fig08_warm": ["trace.decode", "trace.encode", "cas.fetch",
                   "cas.hash"],
    "policy_sweep": ["trace_sim.run", "timing_sim.run"],
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and (re)build both pipeline binaries; the compiler's
    temporary files stay under .bench_build too."""
    if not os.path.isfile(os.path.join(ROOT, "src", "driver",
                                       "sweep.hh")):
        log("no simulator sources under ./src; run from the repo root")
        sys.exit(2)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j",
              str(len(os.sched_getaffinity(0))), "--target",
              "perfbench_pipeline", "perfbench_pipeline_traced",
              "perfbench_calibrate"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def child_env():
    """The caller's environment without any simulator gate; the pass
    binary pins every gate it needs itself."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("STARNUMA_")}


class Session:
    """Private scratch space and deadline of one benchmark run."""

    def __init__(self, scale, seconds):
        self.scale = scale
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = os.path.join(RUNS_DIR, f"{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.dir)
        self.stores = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def another(self, t0, done):
        """Whether one more pass, as long as the average so far, still
        ends within --seconds of t0 (the first pass always runs)."""
        elapsed = time.monotonic() - t0
        return not done or elapsed + elapsed / done <= self.seconds

    def fresh_store(self):
        self.stores += 1
        path = os.path.join(self.dir, f"store{self.stores}")
        os.makedirs(path)
        return path

    def run_pass(self, binary, cells, store="off", extra=()):
        """One fresh pipeline process; returns (start, parsed JSON)."""
        cmd = [binary, "--cells", cells, "--store", store,
               "--scale", self.scale]
        cmd += list(extra)
        start = time.monotonic()
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
            env=child_env(), text=True,
            timeout=max(1.0, self.deadline - start))
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited "
                               f"{done.returncode}")
        return start, json.loads(done.stdout.strip().splitlines()[-1])


class Checker:
    """Counts cells and failed operations across every pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def cells(self, cells, what):
        for c in cells:
            self.attempted += 1
            if c["fault"]:
                self.fail(f"{what} {c['kernel']}/{c['setup']}: "
                          f"{c['fault']}")

    def same(self, cells, reference, what):
        """Cells that differ from their counterpart are failures."""
        for c, r in zip(cells, reference):
            if (c["kernel"], c["setup"], c["digest"]) != \
                    (r["kernel"], r["setup"], r["digest"]):
                self.fail(f"{what} {c['kernel']}/{c['setup']}: "
                          f"digest {c['digest']} != {r['digest']}")
        if len(cells) != len(reference):
            self.fail(f"{what}: {len(cells)} cells, expected "
                      f"{len(reference)}")

    def fail(self, msg):
        self.failed += 1
        log("FAILED " + msg)


def artifact_digest(cells):
    """Hash of every cell digest plus the deterministic counts."""
    records = {c["kernel"]: c["records"] for c in cells}
    counts = {
        "workloads.records": sum(records.values()),
        "trace_sim.migrated_pages": sum(c["migrated_pages"]
                                        for c in cells),
        "timing_sim.mem_accesses": sum(c["mem_accesses"] for c in cells),
    }
    h = hashlib.sha256()
    for c in cells:
        h.update(f"{c['kernel']}/{c['setup']}:{c['digest']}\n".encode())
    for k, v in counts.items():
        h.update(f"{k}={v}\n".encode())
    return h.hexdigest()[:32], counts


def speedups_t16(cells):
    ipc = {(c["kernel"], c["setup"]): c["ipc"] for c in cells}
    return {k: ipc[(k, "starnuma-t16")] / ipc[(k, "baseline")]
            for k in KERNELS}


def fig08_log_err(cells):
    s = speedups_t16(cells)
    return statistics.fmean(abs(math.log(s[k]) - math.log(PAPER_T16[k]))
                            for k in KERNELS)


def metric(value, unit):
    return {"value": value, "unit": unit}


def e2e_metrics(setup_s, reps, maxrss, fig08_cells):
    """End-to-end metrics from timed repetitions (medians)."""
    units = {n: u for n, u, _ in END_TO_END}
    vals = {
        "setup_s": setup_s,
        "experiments_per_s": statistics.median(
            len(r["cells"]) / r["wall_s"] for r in reps),
        "cpu_s_per_experiment": statistics.median(
            r["cpu_s"] / len(r["cells"]) for r in reps),
        "peak_rss_mb": statistics.median(maxrss),
        "fig08_log_err": fig08_log_err(fig08_cells),
    }
    return {n: metric(v, units[n]) for n, v in vals.items()}


# --- end-to-end workloads (--trace 0) --------------------------------

def run_fig08_cold(s, chk):
    """Fresh process against an empty store, repeated for --seconds.
    Set-up (an empty store and a process start until the pass is
    ready to time) is measured on passes that stop there."""
    setups = []
    for _ in range(COLD_SETUP_PROBES):
        begin = time.monotonic()
        store = s.fresh_store()
        _, out = s.run_pass(PLAIN, "fig08", store, ["--reps", "0"])
        shutil.rmtree(store)
        setups.append(out["ready_mono"] - begin)
    reps, rss = [], []
    t0 = time.monotonic()
    while s.another(t0, len(reps)):
        store = s.fresh_store()
        _, out = s.run_pass(PLAIN, "fig08", store)
        shutil.rmtree(store)
        rep = out["reps"][0]
        chk.cells(rep["cells"], "cold")
        if reps:
            chk.same(rep["cells"], reps[0]["cells"], "cold repeat")
        reps.append(rep)
        rss.append(out["maxrss_mb"])
    return (e2e_metrics(statistics.median(setups), reps, rss,
                        reps[0]["cells"]), reps[0]["cells"])


def fill_store(s, binary, chk, extra=()):
    """One untimed cold pass into a fresh store; returns (store, fill
    seconds, cold cells)."""
    begin = time.monotonic()
    store = s.fresh_store()
    _, fill = s.run_pass(binary, "fig08", store, extra)
    cold = fill["reps"][0]["cells"]
    chk.cells(cold, "fill")
    return store, time.monotonic() - begin, cold


def run_fig08_warm(s, chk):
    """Untimed cold passes fill WARM_FILLS fresh stores; each timed
    pass is a fresh process (empty trace memo) that is served by the
    last one."""
    store, fill_s, cold = fill_store(s, PLAIN, chk)
    fills = [fill_s]
    for _ in range(WARM_FILLS - 1):
        shutil.rmtree(store)
        store, fill_s, cells = fill_store(s, PLAIN, chk)
        chk.same(cells, cold, "fill repeat")
        fills.append(fill_s)
    startups, reps, rss = [], [], []
    t0 = time.monotonic()
    while s.another(t0, len(reps)):
        start, out = s.run_pass(PLAIN, "fig08", store)
        startups.append(out["ready_mono"] - start)
        rep = out["reps"][0]
        chk.cells(rep["cells"], "warm")
        chk.same(rep["cells"], cold, "warm vs cold")
        if out["cache"]["result_hits"] != len(rep["cells"]):
            chk.fail(f"warm pass served {out['cache']['result_hits']} "
                     f"of {len(rep['cells'])} cells from the store")
        reps.append(rep)
        rss.append(out["maxrss_mb"])
    setup_s = statistics.median(fills) + statistics.median(startups)
    return e2e_metrics(setup_s, reps, rss, cold), cold


def run_policy_sweep(s, chk):
    """One process: captures and Fig 8 reference cells untimed, then
    the 48 policy cells repeated for --seconds with the store off."""
    start, out = s.run_pass(PLAIN, "policy", "off",
                            ["--prepare", "--seconds", str(s.seconds)])
    reps = out["reps"]
    chk.cells(out["reference"], "reference")
    for i, rep in enumerate(reps):
        chk.cells(rep["cells"], "policy")
        if i:
            chk.same(rep["cells"], reps[0]["cells"], "policy repeat")
    setup_s = out["ready_mono"] - start
    return (e2e_metrics(setup_s, reps, [out["maxrss_mb"]],
                        out["reference"]), reps[0]["cells"])


E2E = {"fig08_cold": run_fig08_cold, "fig08_warm": run_fig08_warm,
       "policy_sweep": run_policy_sweep}


# --- traced run (--trace 1) ------------------------------------------

def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Span self time (s): duration minus its children's durations."""
    child = {}
    for sp in spans:
        if sp["parent"] >= 0:
            key = (sp["thread"], sp["parent"])
            child[key] = child.get(key, 0) + sp["end_ns"] - sp["start_ns"]
    return [(sp["end_ns"] - sp["start_ns"] -
             child.get((sp["thread"], sp["id"]), 0)) / 1e9 for sp in spans]


def layer_metrics(spans, refs, traced, out):
    """Per-layer metrics of one traced repetition against the untraced
    reference repetitions refs of the same cells.

    Self times are thread-seconds; other_s is the lane time no layer
    span covers (orchestration, memo, key text, idle lanes), so the
    layer self times plus other_s equal traced.wall_s x traced.lanes.
    The reference figures are medians over refs.
    """
    sums = {}

    def add(key, v):
        sums[key] = sums.get(key, 0) + v

    selfs = self_times(spans)
    for sp, self_s in zip(spans, selfs):
        layer = SPAN_LAYER[sp["name"]]
        for suffix in [""] + (["." + sp["kernel"]] if sp["kernel"] else []):
            add(layer + ".self" + suffix, self_s)
            add(layer + ".bytes" + suffix, sp["bytes"])
            add(layer + ".records" + suffix, sp["records"])
            add(layer + ".count" + suffix, sp["count"])

    def get(key):
        return sums.get(key, 0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    wall, lanes = traced["wall_s"], out["lanes"]
    cache = out["cache"]
    lookups = cache["result_hits"] + cache["result_misses"]
    m = {
        "trace.encode_s": get("trace.encode.self"),
        "trace.encode_mb_per_s": rate(get("trace.encode.bytes") / 1e6,
                                      get("trace.encode.self")),
        "trace.decode_s": get("trace.decode.self"),
        "trace.decode_mb_per_s": rate(get("trace.decode.bytes") / 1e6,
                                      get("trace.decode.self")),
        "trace.bytes_per_record": rate(get("trace.encode.bytes"),
                                       get("trace.encode.records")),
        "cas.put_s": get("cas.put.self"),
        "cas.put_mb_per_s": rate(get("cas.put.bytes") / 1e6,
                                 get("cas.put.self")),
        "cas.fetch_s": get("cas.fetch.self"),
        "cas.fetch_mb_per_s": rate(get("cas.fetch.bytes") / 1e6,
                                   get("cas.fetch.self")),
        "cas.probe_s": get("cas.probe.self"),
        "cas.hash_s": get("cas.hash.self"),
        "cas.hash_mb_per_s": rate(get("cas.hash.bytes") / 1e6,
                                  get("cas.hash.self")),
        "cas.bytes_written": get("cas.put.bytes"),
        "cas.bytes_read": get("cas.fetch.bytes"),
        "cas.result_hit_rate": rate(cache["result_hits"], lookups),
        "sweep.cpu_utilization": statistics.median(
            r["cpu_s"] / (r["wall_s"] * out["threads"]) for r in refs),
        "other_s": wall * lanes - sum(selfs),
        "traced.wall_s": wall,
        "traced.lanes": lanes,
        "tracing.overhead_ratio": wall / statistics.median(
            r["wall_s"] for r in refs),
    }
    for sfx in [""] + ["." + k for k in KERNELS]:
        cap = get("workloads.capture.self" + sfx)
        ts = get("trace_sim.self" + sfx)
        tm = get("timing_sim.self" + sfx)
        m["workloads.capture_s" + sfx] = cap
        m["workloads.records" + sfx] = get("workloads.capture.records" +
                                           sfx)
        m["workloads.records_per_s" + sfx] = rate(
            get("workloads.capture.records" + sfx), cap)
        m["trace_sim.s" + sfx] = ts
        m["trace_sim.records_per_s" + sfx] = rate(
            get("trace_sim.records" + sfx), ts)
        m["trace_sim.migrated_pages" + sfx] = get("trace_sim.count" + sfx)
        m["timing_sim.s" + sfx] = tm
        m["timing_sim.mem_accesses" + sfx] = get("timing_sim.count" + sfx)
        m["timing_sim.accesses_per_s" + sfx] = rate(
            get("timing_sim.count" + sfx), tm)
    return m


def check_spans(workload, spans, m, out, chk):
    """Cross-check the spans against the simulator's own counters. A
    layer with no spans where it has work is a failure: its entry
    point in spans.cc no longer matches the code, and its cost would
    read as zero."""
    for name, key in (("cas.bytes_read", "bytes_read"),
                      ("cas.bytes_written", "bytes_written")):
        if m[name] != out["cache"][key]:
            chk.fail(f"{name} from spans {m[name]} != ArtifactCache "
                     f"{key} {out['cache'][key]}")
    if len({sp["thread"] for sp in spans}) > out["lanes"]:
        chk.fail("spans recorded on more threads than the pool has")
    seen = {sp["name"] for sp in spans}
    for name in EXPECTED_SPANS[workload]:
        if name not in seen:
            chk.fail(f"no '{name}' spans on {workload}; has its entry "
                     "point in perfbench/spans.cc changed?")


def run_traced(workload, s, seed, chk):
    """Untraced reference passes for --seconds, then one traced pass
    over the same cells, all from the traced binary with
    makeWorkload(name, seed) captures."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload}.jsonl")
    seed_args = ["--seed", str(seed % 2**64)]
    traced_args = seed_args + ["--reps", "0", "--traced-reps", "1",
                               "--spans", spans_path]
    if workload == "policy_sweep":
        _, out = s.run_pass(TRACED, "policy", "off",
                            ["--prepare", "--seconds", str(s.seconds),
                             "--traced-reps", "1", "--spans",
                             spans_path] + seed_args)
        *refs, traced = out["reps"]
        fig08 = out["reference"]
        chk.cells(fig08, "reference")
    else:
        # fig08_cold: every pass on a fresh store. fig08_warm: every
        # pass on the store one cold pass filled.
        if workload == "fig08_warm":
            store, _, cold = fill_store(s, TRACED, chk, seed_args)
        refs = []
        t0 = time.monotonic()
        while s.another(t0, len(refs)):
            if workload == "fig08_cold":
                store = s.fresh_store()
            _, ref_out = s.run_pass(TRACED, "fig08", store, seed_args)
            refs.append(ref_out["reps"][0])
            if workload == "fig08_cold":
                shutil.rmtree(store)
            else:
                chk.same(refs[-1]["cells"], cold, "warm vs cold")
        if workload == "fig08_cold":
            store = s.fresh_store()
        _, out = s.run_pass(TRACED, "fig08", store, traced_args)
        traced = out["reps"][0]
        fig08 = traced["cells"]
    for i, ref in enumerate(refs):
        chk.cells(ref["cells"], "e2e")
        if i:
            chk.same(ref["cells"], refs[0]["cells"], "e2e repeat")
    chk.cells(traced["cells"], "traced")
    chk.same(traced["cells"], refs[0]["cells"], "traced vs e2e")

    spans = load_spans(spans_path)
    m = layer_metrics(spans, refs, traced, out)
    for k, v in speedups_t16(fig08).items():
        m[f"driver.speedup_t16.{k}"] = v

    check_spans(workload, spans, m, out, chk)
    log(f"{workload} traced: wall {m['traced.wall_s']:.3f} s x "
        f"{out['lanes']} lanes, other_s {m['other_s']:.3f}, overhead "
        f"{m['tracing.overhead_ratio']:.4f}x over {len(refs)} reference "
        f"passes; spans in {spans_path}")
    units = {n: u for n, u, _ in per_layer_spec()}
    return {n: metric(m[n], units[n]) for n, _, _ in per_layer_spec()}


# --- entry points ----------------------------------------------------

def calibrate(s):
    """Wall seconds of the host-speed probe's timed trials."""
    done = subprocess.run([CALIBRATE], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=max(1.0, s.deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{CALIBRATE} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["trials_s"]


def normalize(metrics, probe_s):
    """Scale the host-time metrics to the reference host speed."""
    speed = CALIBRATION_REF_S / statistics.median(probe_s)
    for name, power in HOST_TIMED.items():
        log(f"{name} as measured {metrics[name]['value']:.6g}")
        metrics[name]["value"] *= speed ** power
    log(f"host speed {speed:.4f} x reference over {len(probe_s)} probe "
        "trials")


def run_once(workload, seed, seconds, trace, scale="sc1"):
    s = Session(scale, seconds)
    chk = Checker()
    try:
        if trace:
            metrics = run_traced(workload, s, seed, chk)
        else:
            if seed != 1:
                log("the end-to-end passes run workload seed 1: "
                    "driver::runExperiment takes no seed")
            probe_s = calibrate(s)
            metrics, cells = E2E[workload](s, chk)
            normalize(metrics, probe_s + calibrate(s))
            digest, counts = artifact_digest(cells)
            print(f"perfbench: {workload} artifact digest {digest} " +
                  " ".join(f"{k}={v}" for k, v in counts.items()))
    finally:
        s.close()
    return {"correct": chk.failed == 0, "attempted": chk.attempted,
            "failed": chk.failed, "metrics": metrics}


def load_benchmark_json():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def self_check():
    """Every workload once per mode at SimScale::tiny(): each declared
    metric is emitted, with the unit and direction BENCHMARK.json
    declares, and no cell fails."""
    bench = load_benchmark_json()
    problems = []
    for key, spec in (("end_to_end", END_TO_END),
                      ("per_layer", per_layer_spec())):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in bench[key]]
        if declared != spec:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, spec in ((0, END_TO_END), (1, per_layer_spec())):
            r = run_once(workload, 1, 0.5, trace, "tiny")
            got = {n: v["unit"] for n, v in r["metrics"].items()}
            want = {n: u for n, u, _ in spec}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(got) ^ set(want))} differ")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {r['failed']}"
                                f" of {r['attempted']} cells failed")
            for n, v in r["metrics"].items():
                if not math.isfinite(v["value"]):
                    problems.append(f"{workload}: {n} is not finite")
            log(f"self-check {workload} trace={trace}: "
                f"{len(got)} metrics, {r['attempted']} cells")
    for p in problems:
        log("self-check: " + p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    build()
    if args.self_check:
        ok = self_check()
        log("self-check " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
