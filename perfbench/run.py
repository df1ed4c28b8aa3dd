#!/usr/bin/env python3
"""End-to-end TANE benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # self-check on tiny inputs
    python3 perfbench/run.py --update-pins    # re-pin FD counts and digests

Run from the repository root. The first call builds perfbench/ (the program
plus the engine from src/) into $CARGO_TARGET_DIR (default .bench_build).
Every measurement runs in a fresh perfbench process. With --trace 0 the last
stdout line reports the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones; see perfbench/README.md for what each one means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "lymph-exact-t1": dict(dataset="lymphography", rows=0, copies=1,
                           epsilon=0.0, storage="memory", threads=1),
    "hepatitis-exact-t4": dict(dataset="hepatitis", rows=0, copies=1,
                               epsilon=0.0, storage="memory", threads=4),
    "adult-g3-t4": dict(dataset="adult", rows=0, copies=1,
                        epsilon=0.05, storage="memory", threads=4),
    "wbc512-disk-t1": dict(dataset="wbc", rows=0, copies=512,
                           epsilon=0.0, storage="disk", threads=1),
}

# Shrunken inputs of the same shape for --smoke.
SMOKE_SIZES = {
    "lymph-exact-t1": dict(rows=20),
    "hepatitis-exact-t4": dict(rows=20),
    "adult-g3-t4": dict(rows=200),
    "wbc512-disk-t1": dict(copies=2),
}

# Values of the engine's kernel_kind gauge (partition/kernels/kernels.h).
KERNELS = {1: "scalar", 2: "avx2", 3: "neon"}
# Phase self times of a traced run must add up to its discover_s within
# this share of it, or within the floor when that is larger: the floor
# covers the few milliseconds Discover spends outside its "run" span
# (store and worker set-up, teardown). A traced run outside both counts as
# failed.
RECONCILE_TOLERANCE = 0.05
RECONCILE_FLOOR_S = 0.02
# Wall seconds the once-per-invocation MeasureG3 re-check may take.
VERIFY_SECONDS = 2.0
# Timed runs per invocation, at least, whatever --seconds says: untraced
# runs under --trace 0, untraced/traced pairs under --trace 1.
MIN_RUNS = 2
MIN_TRACE_PAIRS = 1
# Set-up (CSV read) repetitions per invocation, at least.
SETUP_READS = 3
SETUP_SECONDS = 2.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds perfbench; returns the binary path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def call(binary, *args):
    """Runs one perfbench subcommand in a fresh process; returns its JSON."""
    proc = subprocess.run([binary] + [str(a) for a in args],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"perfbench {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workload:
    def __init__(self, name, spec, binary, seed, work_dir):
        self.name = name
        self.spec = spec
        self.binary = binary
        self.seed = seed
        self.threads = min(spec["threads"], os.cpu_count() or 1)
        self.work_dir = work_dir
        self.csv = os.path.join(work_dir, f"{name}-{seed}.csv")
        self.spills = 0

    def generate(self):
        call(self.binary, "gen", "--dataset", self.spec["dataset"],
             "--rows", self.spec["rows"], "--copies", self.spec["copies"],
             "--seed", self.seed, "--out", self.csv)
        return os.path.getsize(self.csv)

    def setup_seconds(self):
        out = call(self.binary, "setup", "--csv", self.csv,
                   "--reads", SETUP_READS, "--min-seconds", SETUP_SECONDS)
        return statistics.median(out["read_s"])

    def run(self, trace=False, verify_seconds=None, corrupt=False,
            threads=None):
        """One timed Discover; `verify_seconds` (0: no cap) also re-checks
        the FDs with MeasureG3."""
        args = ["run", "--csv", self.csv, "--epsilon", self.spec["epsilon"],
                "--threads", threads or self.threads]
        if trace:
            args.append("--trace")
        if verify_seconds is not None:
            args += ["--verify", "--verify-seed", self.seed,
                     "--verify-seconds", verify_seconds]
        if corrupt:
            args.append("--corrupt")
        try:
            return self._call_on_store(args)
        except BenchError as error:  # a crashed run is a failed run
            return {"ok": False, "error": str(error)}

    def probe(self):
        return self._call_on_store(["probe", "--csv", self.csv])

    def _call_on_store(self, args):
        """Calls perfbench on the workload's store kind; a disk store gets
        a fresh spill directory, removed afterwards."""
        args += ["--storage", self.spec["storage"]]
        spill = None
        if self.spec["storage"] == "disk":
            self.spills += 1
            spill = os.path.join(self.work_dir, f"spill-{self.spills}")
            args += ["--spill-dir", spill]
        try:
            return call(self.binary, *args)
        finally:
            if spill:
                shutil.rmtree(spill, ignore_errors=True)


def run_failures(run, expected):
    """Why a run's output is wrong, or [] when it is right."""
    if not run.get("ok"):
        return [f"status not OK: {run.get('error', 'incomplete run')}"]
    problems = []
    if expected is not None and (run["fds"], run["digest"]) != expected:
        problems.append(f"FD set {run['fds']}/{run['digest']} differs from "
                        f"{expected[0]}/{expected[1]}")
    if run.get("verify_failures", 0) > 0:
        problems.append(f"{run['verify_failures']} FDs fail the MeasureG3 "
                        f"re-check, e.g. {run['verify_first_failure']}")
    return problems


def reconcile_share(run):
    phases = ("base-partitions", "generate", "products", "validity", "prune",
              "unattributed")
    return sum(run["self_" + p] for p in phases) / run["discover_s"]


def share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(run, untraced_discover_s, setup_s, csv_bytes, probe, threads):
    """The per-layer metrics of one traced run, by BENCHMARK.json name.
    Engine counters and gauges the run did not report read as 0."""
    def count(name):
        return run.get(name, 0)
    mb = 1e6
    products = count("partition_products")
    g3_tests = count("g3_scans") + count("g3_scans_skipped")
    return {
        "relation.ingest_mb_per_s": (csv_bytes / mb / setup_s, "MB/s"),
        "lattice.generate_s": (run["self_generate"], "s"),
        "lattice.sets_generated": (count("sets_generated"), "count"),
        "lattice.max_level_size": (count("max_level_size"), "count"),
        "core.products_s": (run["self_products"], "s"),
        "core.us_per_product": (share(run["self_products"] * 1e6, products),
                                "us"),
        "core.validity_s": (run["self_validity"], "s"),
        "core.prune_s": (run["self_prune"], "s"),
        "core.unattributed_s": (run["self_unattributed"], "s"),
        "core.validity_tests": (count("validity_tests"), "count"),
        "core.pli_cache_hit_share": (share(count("pli_cache_hits"),
                                           count("pli_cache_lookups")),
                                     "share"),
        "core.store_peak_partition_mb": (count("peak_resident_bytes") / mb,
                                         "MB"),
        "core.store_spill_write_mb": (count("spill_bytes_written") / mb,
                                      "MB"),
        "core.store_spill_reads": (count("spill_reads"), "count"),
        "core.store_spill_read_mb": (count("spill_bytes_read") / mb, "MB"),
        "core.store_read_amplification": (share(count("spill_bytes_read"),
                                                count("spill_bytes_written")),
                                          "ratio"),
        "core.probe_store_roundtrip_us": (probe["probe_store_roundtrip_us"],
                                          "us"),
        "partition.base_s": (run["self_base-partitions"], "s"),
        "partition.products": (products, "count"),
        "partition.product_rows_scanned": (count("product_rows_scanned"),
                                           "count"),
        "partition.product_allocations": (count("product_allocations"),
                                          "count"),
        "partition.label_reuse_share": (share(count("product_label_reuses"),
                                              products), "share"),
        "partition.g3_scans": (count("g3_scans"), "count"),
        "partition.g3_skip_share": (share(count("g3_scans_skipped"),
                                          g3_tests), "share"),
        "partition.g3_rows_scanned": (count("g3_rows_scanned"), "count"),
        "partition.probe_base_s": (probe["probe_base_s"], "s"),
        "partition.probe_product_ns_per_row": (
            probe["probe_product_ns_per_row"], "ns"),
        "partition.probe_g3_ns_per_row": (probe["probe_g3_ns_per_row"], "ns"),
        "util.pool_busy_s": (run["pool_busy_s"], "s"),
        "util.pool_utilisation": (share(run["pool_busy_s"],
                                        threads * run["window_wall_s"]),
                                  "share"),
        "util.pool_speedup": (share(run["level_worker_s"],
                                    run["level_wall_s"]), "ratio"),
        "obs.trace_overhead_share": (run["discover_s"] / untraced_discover_s
                                     - 1.0, "share"),
        "obs.phase_sum_share": (reconcile_share(run), "share"),
    }


def median_metrics(samples):
    """Per-name median over a list of {name: (value, unit)} dicts."""
    return {name: {"value": statistics.median(s[name][0] for s in samples),
                   "unit": unit}
            for name, (_, unit) in samples[0].items()}


def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)


def measure(workload, seconds, trace, expected, corrupt=False):
    """Runs one benchmark invocation; returns (result dict, env dict).
    `corrupt` damages every run's FD set, to test the output check."""
    csv_bytes = workload.generate()
    setup_s = workload.setup_seconds()
    # Timed runs alternate untraced/traced under --trace 1; the first
    # untraced run also re-checks the FDs with MeasureG3.
    kinds = [False, True] if trace else [False]
    runs = {False: [], True: []}
    failed = 0
    start = time.monotonic()
    attempt = 0
    min_attempts = 2 * MIN_TRACE_PAIRS if trace else MIN_RUNS
    last_s = 0.0
    # Start another run while at least half of one fits in the time left,
    # so a run lasts about --seconds rather than up to a run longer.
    while (attempt < min_attempts
           or time.monotonic() - start + last_s / 2 < seconds):
        traced = kinds[attempt % len(kinds)]
        run_start = time.monotonic()
        run = workload.run(
            trace=traced, corrupt=corrupt,
            verify_seconds=VERIFY_SECONDS if attempt == 0 else None)
        last_s = time.monotonic() - run_start
        attempt += 1
        problems = run_failures(run, expected)
        if traced and run["ok"]:
            if run["trace_dropped"] > 0:
                problems.append(f"{run['trace_dropped']} trace events dropped")
            elif (abs(reconcile_share(run) - 1.0) * run["discover_s"]
                  > max(RECONCILE_TOLERANCE * run["discover_s"],
                        RECONCILE_FLOOR_S)):
                problems.append("phase self times sum to "
                                f"{reconcile_share(run):.4f} of discover_s")
        for problem in problems:
            log(f"{workload.name}: {problem}")
        failed += bool(problems)
        # A completed run is still a measurement when its output is wrong.
        if run["ok"] and not run.get("trace_dropped"):
            runs[traced].append(run)
    untraced = runs[False]
    first = untraced[0] if untraced else {}
    env = {
        "build_type": call(workload.binary, "info")["build_type"],
        "nproc": os.cpu_count(),
        "kernel": KERNELS.get(first.get("kernel_kind"), "unknown"),
        "threads": workload.threads,
        "threads_below_workload": workload.threads < workload.spec["threads"],
        "runs": attempt,
        "fds_verified": first.get("verify_checked", 0),
    }
    result = {"correct": failed == 0, "attempted": attempt, "failed": failed,
              "metrics": {}}
    if not untraced or (trace and not runs[True]):
        result["correct"] = False
        return result, env
    if trace:
        probe = workload.probe()
        if not probe["ok"]:
            raise BenchError("a layer probe failed")
        base = statistics.median(r["discover_s"] for r in untraced)
        result["metrics"] = median_metrics(
            [per_layer(r, base, setup_s, csv_bytes, probe, workload.threads)
             for r in runs[True]])
    else:
        result["metrics"] = median_metrics([{
            "discover_s": (r["discover_s"], "s"),
            "setup_s": (setup_s, "s"),
            "cpu_s": (r["cpu_s"], "s"),
            "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        } for r in untraced])
    return result, env


def work_dir():
    path = os.path.join(build_dir(), f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def main_benchmark(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}")
    binary = build()
    pin = load_pins().get(args.workload)
    if pin is None:
        raise BenchError(f"{args.workload} has no pin in {PINS_PATH}")
    expected = (pin["fds"], pin["digest"])
    directory = work_dir()
    try:
        workload = Workload(args.workload, WORKLOADS[args.workload], binary,
                            args.seed, directory)
        if workload.threads < workload.spec["threads"]:
            log(f"only {workload.threads} hardware threads; "
                f"{args.workload} is defined for {workload.spec['threads']}")
        result, env = measure(workload, args.seconds, args.trace == 1,
                              expected)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def main_update_pins(_args):
    """Pins each workload's FD count and digest from a serial run whose FDs
    all pass the MeasureG3 re-check. A seed only permutes rows and renames
    values, so the pins hold for every seed."""
    binary = build()
    pins = {}
    directory = work_dir()
    try:
        for name, spec in WORKLOADS.items():
            workload = Workload(name, spec, binary, 0, directory)
            workload.generate()
            run = workload.run(threads=1, verify_seconds=0)
            problems = run_failures(run, None)
            if problems or run["verify_checked"] != run["fds"]:
                raise BenchError(f"{name}: cannot pin: {problems}")
            pins[name] = {"fds": run["fds"], "digest": run["digest"]}
            log(f"{name}: {run['fds']} FDs, digest {run['digest']}, "
                f"all re-checked in {run['verify_s']:.1f} s")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main_smoke(_args):
    """Runs every workload on tiny inputs through both metric paths and
    checks that every BENCHMARK.json metric is emitted with its unit, that
    the t4 FD sets equal the serial ones, that traced runs reconcile, and
    that a corrupted FD set is counted as failed."""
    binary = build()
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    directory = work_dir()
    try:
        for name, spec in WORKLOADS.items():
            small = dict(spec, **SMOKE_SIZES[name])
            workload = Workload(name, small, binary, 7, directory)
            workload.generate()
            serial = workload.run(threads=1, verify_seconds=0)
            problems = run_failures(serial, None)
            if serial.get("verify_checked") != serial.get("fds"):
                problems.append("not every FD was re-checked")
            for problem in problems:
                errors.append(f"{name}: serial run: {problem}")
            expected = (serial["fds"], serial["digest"])
            for trace in (0, 1):
                result, _ = measure(workload, 0.0, trace == 1, expected)
                if not result["correct"]:
                    errors.append(f"{name} --trace {trace}: not correct")
                for metric, unit in wanted[trace].items():
                    got = result["metrics"].get(metric)
                    if got is None or got["unit"] != unit:
                        errors.append(f"{name}: {metric} [{unit}] missing")
                extra = set(result["metrics"]) - set(wanted[trace])
                if extra:
                    errors.append(f"{name}: unlisted metrics {sorted(extra)}")
            result, _ = measure(workload, 0.0, False, expected, corrupt=True)
            if result["correct"] or result["failed"] == 0:
                errors.append(f"{name}: corrupted FD set passed the check")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for error in errors:
        log(error)
    log("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.smoke:
            return main_smoke(args)
        if args.update_pins:
            return main_update_pins(args)
        return main_benchmark(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
