#!/usr/bin/env python3
"""Benchmark of the splitsim round loop, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a splitsim checkout; it imports the package from
``src/`` and builds every workload from ``configs/blobs_hosfl.yaml``. One
process drives rounds back to back (a closed loop). Each session is a fresh
process (``session.py``) that runs one whole ``splitsim run`` of a fixed
sample budget through ``runner.run_experiment``. Sessions repeat while
another pass would end within ``--seconds``; ``--trace 0`` runs at least
three. Every time reported is scaled to one core speed (``session.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
sessions. ``--trace 1`` alternates untraced and traced sessions of the same
seed and reports the per-layer metrics. Every session checks its outputs;
rounds and checks that fail are counted, not fatal. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it holds the provenance of the run. See
DESIGN.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASE_CONFIG = ROOT / "configs" / "blobs_hosfl.yaml"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 20260808  # root_seed of the shipped config
SETUP_REPEATS = 9        # fresh-process set-ups behind the setup_s median
MIN_TIMED = 3            # round_ms_p99 needs three sessions to take a median of
DEADLINE_S = 170         # whole invocation, every child included
MAX_SEED = (1 << 64) - 1

# BLAS pinned to one thread: the benchmark is one process with no workers.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def _stragglers(cfg: dict):
    # M=32 with K=2: a client waits ~16 rounds between samples, so catch-up
    # replays ~29 rounds per round (with adam state) and history grows
    # longest. iid keeps shard shape out of the comparison with blobs-hosfl.
    cfg["hp"].update(M=32, optimizer="adam", eta=0.01)
    cfg["partition"] = {"mode": "iid"}
    cfg["data"].update(n=4000, eval_fraction=0.075)  # 300 eval samples, as in blobs


# name -> (protocol, rounds per session, edit of the shipped config)
WORKLOADS = {
    "blobs-hosfl": ("hosfl", 2000, None),
    "blobs-sfl": ("sfl", 2000, None),
    "blobs-zosfl": ("zosfl", 2000, None),
    "stragglers-hosfl": ("hosfl", 1000, _stragglers),
}


def workload_config(name: str, seed: int, out_dir: Path) -> str:
    protocol, rounds, edit = WORKLOADS[name]
    cfg = yaml.safe_load(BASE_CONFIG.read_text())
    cfg["protocol"] = protocol
    if edit is not None:
        edit(cfg)
    cfg["root_seed"] = seed
    cfg["sample_budget"] = rounds * cfg["hp"]["K"] * cfg["hp"]["batch_size"]
    cfg["output_dir"] = str(out_dir)
    return yaml.safe_dump(cfg, sort_keys=False)


def child(mode: str, cfg_path: Path, out_dir: Path, deadline: float):
    """Run one session process to completion; its report, or None if it failed."""
    cmd = [sys.executable, str(HERE / "session.py"), "--config", str(cfg_path),
           "--mode", mode, "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{mode} session timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{mode} session exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


class Tally:
    """Operations attempted and failed: rounds, per-run checks, set-ups."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def check(self, name: str, ok: bool):
        self.attempted += 1
        self.failed += not ok
        self.checks.setdefault(name, []).append(bool(ok))

    def session(self, report, planned: int) -> bool:
        """Count a session's rounds and checks; True if the run has a result."""
        if report is None:
            self.attempted += planned
            self.failed += planned
            return False
        self.attempted += report["rounds_planned"]
        self.failed += report["rounds_failed"]
        for name, ok in report.get("checks", {}).items():
            self.check(name, ok)
        return "round_ms" in report


def _pooled(sessions: list) -> list:
    return [x for s in sessions for x in s["round_ms"]]


def _per_round_median(sessions: list) -> list:
    """Each round's median time over the sessions of a run.

    Every session replays the same seed, so round i does the same work in
    each. The median keeps that work (a catch-up burst, say) and drops the
    bursts of slowness the shared host adds to single rounds, which the
    core-speed probe is too coarse to see and which otherwise set a
    run's p99.
    """
    return [statistics.median(times) for times in zip(*(s["round_ms"] for s in sessions))]


def end_to_end(timed: list, setups: list, tally: Tally) -> dict:
    rounds = _pooled(timed)
    return {
        "setup_s": statistics.median(setups),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p99": statistics.quantiles(_per_round_median(timed), n=100)[98],
        "samples_per_s": sum(s["samples"] for s in timed) / sum(s["loop_s"] for s in timed),
        "run_s": statistics.median(s["run_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "bytes_per_round": statistics.median(s["bytes_per_round"] for s in timed),
        "success_share": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(timed: list, traced: list) -> dict:
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in traced[0]["layers"]}
    # sessions run in (timed, traced) pairs back to back, so a drift in
    # machine speed between pairs cancels out of each pair's difference
    out["trace.overhead_ms_per_round"] = statistics.median(
        statistics.median(b["round_ms"]) - statistics.median(a["round_ms"])
        for a, b in zip(timed, traced))
    return out


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def seed_arg(text: str) -> int:
    seed = int(text)
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="splitsim round-loop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running session before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SPEC, BASE_CONFIG, ROOT / "src" / "splitsim" / "__init__.py")
               if not p.is_file()]
    if missing:
        print("not a splitsim checkout, missing: " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.yaml"
    cfg_path.write_text(workload_config(args.workload, args.seed, out_dir))
    planned = WORKLOADS[args.workload][1]

    tally = Tally()
    modes = ("timed", "traced") if args.trace else ("timed",)
    ok = {mode: [] for mode in modes}
    min_passes = 1 if args.trace else MIN_TIMED
    passes = 0
    while True:  # stop before a pass of sessions would run past --seconds
        pass_start = time.monotonic()
        for mode in modes:
            report = child(mode, cfg_path, out_dir, deadline)
            if tally.session(report, planned):
                ok[mode].append(report)
        passes += 1
        now = time.monotonic()
        if now >= deadline or (passes >= min_passes
                               and 2 * now - pass_start - start > args.seconds):
            break
    runs = ok["timed"] + ok.get("traced", [])
    if not all(ok.values()):
        print("no session of some mode completed; no result", file=sys.stderr)
        return 1
    tally.check("checksum_identical_across_sessions",
                len({tuple(r["checksum"]) for r in runs}) == 1)

    if args.trace:
        values = per_layer(ok["timed"], ok["traced"])
    else:
        setups = [r["setup_s"] for r in ok["timed"]]
        while len(setups) < SETUP_REPEATS and time.monotonic() < deadline:
            report = child("setup", cfg_path, out_dir, deadline)
            tally.check("setup_completed", report is not None)
            if report is not None:
                setups.append(report["setup_s"])
        values = end_to_end(ok["timed"], setups, tally)

    first = runs[0]
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "combined_sha256": first["checksum"][2].split("=", 1)[1],
        **machine(), "python": first["python"], "numpy": first["numpy"],
        "blas_threads": first["blas_threads"],
        "sessions": {mode: len(reports) for mode, reports in ok.items()},
        "rounds_timed": len(_pooled(ok["timed"])),
        "wall_round_ms_p50": statistics.median(r["wall_round_ms_p50"] for r in ok["timed"]),
        "core_speed": statistics.median(r["core_speed"] for r in ok["timed"]),
        "checks": {name: all(v) for name, v in tally.checks.items()},
        "not_applicable": sorted(k for k, v in values.items() if v == 0) if args.trace else [],
        "elapsed_s": time.monotonic() - start,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
