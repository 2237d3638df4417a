"""End-to-end benchmark of the spdclab CLI.

    python3 perfbench/run.py --workload mc_narrow --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload is a chain of two CLI calls,
each in a fresh interpreter the way a user runs the tool:

    mc_narrow, mc_wide   spdclab simulate, then spdclab count on its .evt
    surface              spdclab analytic, then spdclab smear --surface

The load is a closed loop from this one process: it runs one CLI child at a
time, repeating the chain until ``--seconds`` have passed, and reports
medians.  The workload seed goes into ``run.seed`` of the generated scenario;
the program sees only that scenario file and, for ``count``, the ``.evt``
that ``simulate`` wrote.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced chains with chains whose CLI children record a span around every
call into a layer's public functions (see ``spans.py``), and reports the
per-layer metrics.  Both check every product (see ``checks.py``); a chain
with a nonzero exit or a failed check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full run record (samples,
exact work counts, product digests, interpreter and library versions,
commit) is written to ``perfbench/runs/``; the temporary products are
deleted after each chain.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

import numpy as np

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
RUNS_DIR = os.path.join(HERE, "runs")

_CHAIN = {
    "source.rate_hz": "2e7",
    "source.coherence_time_s": "1e-9",
    "source.shape": "box",
    "chain.jitter_s": "1e-9",
}

#: scenario keys per workload; ``run.seed`` is added from ``--seed``
WORKLOADS = {
    # criterion-5 physics: events and .evt I/O dominate, ~2.6 diffs per pair
    "mc_narrow": {
        "steps": ("simulate", "count"),
        "keys": {**_CHAIN, "window.tauc_s": "5e-9", "window.bin_s": "1e-9",
                 "window.span_s": "2.5e-8", "run.duration_s": "0.05",
                 "run.model": "poisson"},
    },
    # thermal source, wide window: the counter dominates, ~32 diffs per pair
    "mc_wide": {
        "steps": ("simulate", "count"),
        "keys": {**_CHAIN, "window.tauc_s": "5e-8", "window.bin_s": "1e-8",
                 "window.span_s": "5e-7", "run.duration_s": "0.01",
                 "run.model": "thermal"},
    },
    # README desk scenario: smearing and CSV emission only
    "surface": {
        "steps": ("analytic", "smear"),
        "keys": {**_CHAIN, "window.tauc_s": "5e-9", "window.bin_s": "5e-11",
                 "window.span_s": "2e-8", "run.duration_s": "1.0",
                 "run.model": "poisson"},
    },
}

#: counts that must repeat exactly for one seed
EXACT_COUNTS = ("events.pairs", "events.events", "evtfile.bytes",
                "correlate.diffs", "smearing.cells", "runner.surface_csv_bytes")

MIN_CHAINS = 3
MAX_SECONDS = 120.0  # stop starting chains; keeps every run well under 180 s
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_SETUP_CODE = ("import sys, spdclab; from spdclab.scenario import load_scenario; "
               "load_scenario(sys.argv[1])")


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def scenario_text(workload: str, seed: int) -> str:
    keys = {**WORKLOADS[workload]["keys"], "run.seed": str(seed)}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPDC_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    # spdclab makes no BLAS calls, but with more than one OpenBLAS thread
    # the worker threads numpy starts at import spin beside the main thread,
    # so every call's start-up time depends on whether a second core is free
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(argv: list[str], env: dict[str, str], log_path: str) -> dict:
    """Run one child to completion; wall time and its own rusage."""
    started = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    with open(log_path, "rb") as log:
        err = log.read()[-2000:].decode("utf-8", "replace")
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode, "stderr": err}


class Bench:
    """One benchmark run of one workload: samples, counts and failures."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        import spdclab

        self.spdclab = spdclab
        self.workload = workload
        self.workdir = workdir
        self.steps = WORKLOADS[workload]["steps"]
        self.env = child_env()
        self.config = os.path.join(workdir, "scenario.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload, seed))
        self.scenario = spdclab.load_scenario(self.config)
        self.setup: list[float] = []
        self.chains: list[dict] = []
        self.counts: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.expect = self._expectations()

    # -- expectations ------------------------------------------------------

    def _expectations(self) -> dict:
        sp, sc = self.spdclab, self.scenario
        w = sc.window
        kernel = sp.build_kernel(w.coincidence_halfwidth, sc.chain.jitter_width,
                                 min(w.bin_width, sc.chain.jitter_width / 20))
        X = sp.predict_plateaus(sc.source, kernel).X
        out = {"X": X, "mu": sc.source.mu}
        if self.workload == "surface":
            g0 = sp.gbar2c_analytic(sc.source, kernel, [0.0, w.bin_width]).values[0]
            # smeared P(0,0)/R^3 = gbar2c(0) (1+X)^2 and the ridge excess is X;
            # 2 when the diagonal and central terms vanish (dt << tau_c)
            out["ratio"] = (g0 * (1 + X) ** 2 - 1) / X
            # run_smear samples out to span + support + one step, and the
            # smearing trims the kernel half-length from each side
            half = w.span + kernel.support_halfwidth + w.bin_width
            n = 2 * (int(np.ceil(half / w.bin_width)) - kernel.half_len) + 1
            out["cells"] = out["work"] = n * n
        else:
            out["analytic"] = lambda d: sp.gbar2c_analytic(sc.source, kernel, d).values
            out["work"] = sc.source.pair_rate * sc.duration  # nominal pairs
        return out

    # -- measurement -------------------------------------------------------

    def measure_setup(self) -> None:
        res = spawn([sys.executable, "-c", _SETUP_CODE, self.config], self.env,
                    os.path.join(self.workdir, "setup.log"))
        if res["rc"] != 0:
            self.errors.append(f"setup child exited {res['rc']}: {res['stderr']}")
        else:
            self.setup.append(res["wall"])

    def _step_args(self, step: str, out: str) -> list[str]:
        if step == "simulate":
            return ["simulate", self.config, "-o", os.path.join(out, "simulate")]
        if step == "count":
            return ["count", self.config, os.path.join(out, "simulate", "events.evt"),
                    "-o", os.path.join(out, "count")]
        if step == "analytic":
            return ["analytic", self.config, "-o", os.path.join(out, "analytic")]
        return ["smear", self.config, "-o", os.path.join(out, "smear"), "--surface"]

    def run_chain(self, traced: bool) -> dict:
        out = os.path.join(self.workdir, f"chain{len(self.chains)}")
        os.makedirs(out)
        chain = {"traced": traced, "steps": [], "fails": []}
        traces = []
        for i, step in enumerate(self.steps):
            if traced:
                trace_path = os.path.join(out, f"trace{i}.json")
                argv = [sys.executable, os.path.join(HERE, "spans.py"), trace_path]
            else:
                argv = [sys.executable, "-m", "spdclab.cli"]
            res = spawn(argv + self._step_args(step, out), self.env,
                        os.path.join(out, f"step{i}.log"))
            chain["steps"].append({k: res[k] for k in ("wall", "cpu", "rss_mb", "rc")})
            if res["rc"] != 0:
                chain["fails"].append(f"{step} exited {res['rc']}: {res['stderr']}")
                break
            if traced:
                with open(trace_path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        chain["wall"] = sum(s["wall"] for s in chain["steps"])
        chain["cpu"] = sum(s["cpu"] for s in chain["steps"])
        chain["rss_mb"] = max(s["rss_mb"] for s in chain["steps"])
        if not chain["fails"]:
            try:
                self._check(chain, out, traces)
            except Exception:  # a product that cannot be read fails the chain
                chain["fails"].append(f"check raised: {traceback.format_exc(limit=-3)}")
        shutil.rmtree(out)
        self.chains.append(chain)
        return chain

    # -- checks ------------------------------------------------------------

    def _check(self, chain: dict, out: str, traces: list[dict]) -> None:
        counts: dict[str, float] = {}
        first = not self.chains
        if self.workload == "surface":
            path = os.path.join(out, "smear", "p_ssi_smeared.csv")
            body = checks.product_body(path)
            counts["smearing.cells"] = body.count(b"\n") - 1
            counts["runner.surface_csv_bytes"] = os.path.getsize(path)
            chain["fails"] += checks.check_surface(
                body, self.expect["cells"], self.scenario.window.bin_width,
                self.scenario.source.pair_rate ** 3, self.expect["ratio"])
            dirs = [os.path.join(out, "analytic"), os.path.join(out, "smear")]
        else:
            evt = os.path.join(out, "simulate", "events.evt")
            streams, duration = checks.read_evt(evt)
            counts["evtfile.bytes"] = os.path.getsize(evt)
            counts["events.events"] = sum(t.size for t in streams.values())
            count_dir = os.path.join(out, "count")
            grid_s, _, _ = checks.read_estimator(os.path.join(count_dir, "g2bar_si.csv"))
            tauc = self.scenario.window.coincidence_halfwidth
            if self.workload == "mc_narrow":
                chain["fails"] += checks.check_mc_narrow(count_dir, self.expect["X"])
            else:
                chain["fails"] += checks.check_mc_wide(
                    count_dir, self.expect["X"], self.expect["mu"],
                    self.expect["analytic"])
            if first:
                chain["fails"] += checks.prefix_check(
                    self.spdclab, streams, duration, grid_s, tauc)
            if chain["traced"]:
                grid = np.rint(grid_s * checks.TICKS).astype(np.int64)
                chain["work"] = checks.correlate_work(
                    streams, grid, int(round(tauc * checks.TICKS)))
                counts["correlate.diffs"] = chain["work"]["correlate.diffs"]
            dirs = [os.path.join(out, "simulate"), os.path.join(out, "count")]
        if chain["traced"]:
            chain["layers"] = spans.layer_metrics(traces)
            for key in EXACT_COUNTS:
                if key not in chain["layers"]:
                    continue
                traced_value = chain["layers"][key]
                if key in counts and counts[key] != traced_value:
                    chain["fails"].append(
                        f"{key}: traced {traced_value} != products {counts[key]}")
                counts[key] = traced_value
        self.digests = checks.digests(dirs)
        for key, value in counts.items():
            if self.counts.setdefault(key, value) != value:
                chain["fails"].append(
                    f"{key} = {value} differs from {self.counts[key]} in this run")


def end_to_end(bench: Bench) -> dict[str, float]:
    ok = [c for c in bench.chains if not c["traced"] and not c["fails"]]
    return {
        "setup_s": median(bench.setup),
        "wall_s": median([c["wall"] for c in ok]),
        "step1_s": median([c["steps"][0]["wall"] for c in ok]),
        "step2_s": median([c["steps"][1]["wall"] for c in ok]),
        "cpu_s": median([c["cpu"] for c in ok]),
        "peak_rss_mb": median([c["rss_mb"] for c in ok]),
        "work_per_s": median([bench.expect["work"] / c["wall"] for c in ok]),
    }


def per_layer(bench: Bench, names) -> dict[str, float]:
    traced = [c for c in bench.chains if c["traced"] and not c["fails"]]
    plain = [c for c in bench.chains if not c["traced"] and not c["fails"]]
    setup = median(bench.setup)
    m = {}
    for key in names:
        if key.startswith("trace.") or key == "correlate.diffs_per_s":
            continue
        if key in ("correlate.diffs", "correlate.gated_frac"):
            m[key] = median([c.get("work", {}).get(key, 0) for c in traced])
        else:
            m[key] = median([c["layers"][key] for c in traced])
    busy = m["correlate.pair_s1_s"] + m["correlate.pair_s2_s"] + m["correlate.triple_s"]
    m["correlate.diffs_per_s"] = m["correlate.diffs"] / busy if busy > 0 else 0.0
    m["trace.overhead_s"] = (median([c["wall"] for c in traced])
                             - median([c["wall"] for c in plain]))
    m["trace.coverage"] = median([
        c["layers"]["layer_self_s"] / (c["wall"] - len(c["steps"]) * setup)
        for c in traced
    ])
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for ``seconds``; returns the run record."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    started = time.perf_counter()
    try:
        bench = Bench(workload, seed, workdir)
        bench.measure_setup()  # fills the bytecode and page caches
        bench.setup.clear()
        while True:
            t0 = time.perf_counter()
            bench.measure_setup()
            bench.run_chain(traced=False)
            if trace:
                bench.run_chain(traced=True)
            elapsed = time.perf_counter() - started
            rounds = len(bench.chains) // (2 if trace else 1)
            last = time.perf_counter() - t0
            if elapsed > MAX_SECONDS or (
                rounds >= (1 if trace else MIN_CHAINS) and elapsed + last > seconds
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for c in bench.chains if c["fails"])
    passed = {c["traced"] for c in bench.chains if not c["fails"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "scenario": scenario_text(workload, seed),
        "elapsed_s": time.perf_counter() - started,
        "attempted": len(bench.chains),
        "failed": failed,
        "failed_frac": failed / len(bench.chains),
        "errors": bench.errors + [f for c in bench.chains for f in c["fails"]],
        "counts": bench.counts,
        "digests": bench.digests,
        "setup_samples": bench.setup,
        "chains": bench.chains,
    }
    if bench.setup and passed >= ({False, True} if trace else {False}):
        units = metric_units("per_layer" if trace else "end_to_end")
        values = per_layer(bench, units) if trace else end_to_end(bench)
        record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def print_record(record: dict) -> None:
    chains = [c for c in record["chains"] if not c["traced"]]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={record['nproc']} python={record['python']} "
          f"numpy={record['numpy']} commit={record['commit']}")
    print(f"# chains: {len(chains)} untraced, "
          f"{record['attempted'] - len(chains)} traced; "
          f"setup samples: {len(record['setup_samples'])}; "
          f"failed_frac = {record['failed_frac']:g}")
    for name, m in record.get("metrics", {}).items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key, value in record["counts"].items():
        print(f"# count {key} = {value}")
    for key, value in record["digests"].items():
        print(f"# sha256 {key} = {value}")
    for err in record["errors"]:
        print(f"# FAILED: {err}")
    print(f"# record: {os.path.relpath(record['path'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spdclab", "cli.py")):
        print(f"error: no spdclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    if "metrics" not in record:
        print("error: no passing chain to take metrics from", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
