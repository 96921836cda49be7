"""Command-line entry point.

Subcommands: run, sweep-latency, diagnose-estimator, report-traffic.
Exit codes: 0 success, 1 usage/configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import latency, model, prng, protocol, runner, zo
from .config import (
    ExperimentConfig,
    LatencyProfileConfig,
    parse_config,
    parse_latency_profile,
)
from .errors import ConfigError
from .traffic import MessageKind, closed_form_traffic, PROTOCOLS

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type for counts: anything below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load(path: str, parse, what: str):
    """Read and parse one YAML document; any failure is a usage error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(text)
    except ConfigError as exc:
        raise _UsageError(f"invalid {what} {path}: {exc}") from exc


def _load_experiment(args) -> ExperimentConfig:
    cfg = _load(args.config, parse_config, "config")
    # report-traffic has no --seed: its closed-form table never reads the seed
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, root_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=str(args.out))
    runner.out_path(cfg.output_dir)  # a bad output location fails before any work
    return cfg


def _print_written(paths: dict) -> None:
    for label, path in paths.items():
        print(f"wrote {label}: {path}")


def _cmd_run(args) -> int:
    cfg = _load_experiment(args)
    result = runner.run_experiment(cfg)
    paths = runner.write_outputs(result, cfg.output_dir)
    if result.records:
        last = result.records[-1]
        print(f"{cfg.protocol}: {len(result.records)} rounds, "
              f"final eval loss {last.eval_loss:.6f}, "
              f"samples {last.samples_processed}")
    else:
        print(f"{cfg.protocol}: 0 rounds (empty budget)")
    _print_written(paths)
    return 0


def _cmd_sweep_latency(args) -> int:
    prof = (LatencyProfileConfig() if args.config is None
            else _load(args.config, parse_latency_profile, "profile"))
    out = runner.out_path(args.out)
    sweep = prof.sweep
    layers = range(sweep.layer_min, sweep.layer_max + 1)
    rows = [latency.round_timeline(prof.network, prof.device, prof.workload, lc)
            for lc in layers]
    table = [(*(f.name for f in fields(latency.RoundTimeline)), "p_max")] + [
        (*astuple(r), r.p_max) for r in rows]
    if sweep.noise_trials > 0:
        table.append(("client_layers", "p_max_mean", "p_max_min", "p_max_max"))
        table += [(lc, *latency.noisy_pmax_stats(
            prof.network, prof.device, prof.workload, lc,
            sweep.noise_frac, sweep.noise_trials, sweep.noise_seed)) for lc in layers]
    _print_written(runner.write_files(out, {"sweep": ("latency_sweep.csv", table)}))
    for row in rows:
        print(f"client_layers={row.client_layers} p_max={row.p_max}")
    return 0


def _cmd_diagnose_estimator(args) -> int:
    cfg = _load_experiment(args)
    sim = runner.build_simulation(cfg)
    # client 1's round-0 batch
    rows = protocol.draw_batch([sim.clients[1].shard], cfg.hp.batch_size,
                               [prng.derive_stream(cfg.root_seed, prng.STREAM_BATCH, 0, 1)])[0]
    batch = model.Batch(sim.dataset.inputs[rows], sim.dataset.labels[rows])
    theta = np.concatenate([sim.server.theta_c_global, sim.server.theta_s])
    diag = zo.estimator_diagnostics(cfg.model, theta, batch, cfg.hp.zo,
                                    n_trials=args.trials, seed=cfg.root_seed)
    gamma = zo.measure_regularity_bound(theta, batch, cfg.model, seed=cfg.root_seed)
    bounds = zo.theory_bounds(cfg.model.d_c, cfg.hp.zo.P, cfg.hp.zo.mu, gamma)
    report = {
        "d_c": cfg.model.d_c,
        "P": cfg.hp.zo.P,
        "mu": cfg.hp.zo.mu,
        "n_trials": args.trials,
        "gamma_measured": gamma,
        **vars(diag),
        **vars(bounds),
        "second_moment_bound": bounds.c1 * diag.true_g_c_norm_sq + bounds.sigma_zo_sq,
    }
    paths = runner.write_files(cfg.output_dir, {
        "report": ("estimator_report.json", [json.dumps(report, indent=2)])})
    ok = report["empirical_second_moment"] <= report["second_moment_bound"]
    print(f"bias_sq={report['empirical_bias_sq']:.3e} "
          f"bound={report['bias_bound_sq']:.3e}")
    print(f"second_moment={report['empirical_second_moment']:.3e} "
          f"bound={report['second_moment_bound']:.3e} "
          f"({'within' if ok else 'EXCEEDS'} bound)")
    _print_written(paths)
    return 0


def _cmd_report_traffic(args) -> int:
    cfg = _load_experiment(args)
    protocols = PROTOCOLS if args.all_protocols else (cfg.protocol,)
    table = [("protocol", "kind", "direction", "bytes_per_round")]
    for proto in protocols:
        per_round = closed_form_traffic(cfg.hp, cfg.model, proto)
        table += [(proto, kind.value, kind.direction, per_round[kind]) for kind in MessageKind]
    paths = runner.write_files(cfg.output_dir, {"table": ("traffic_closed_form.csv", table)})
    print(runner.file_text(table), end="")
    _print_written(paths)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="splitsim",
                     description="Deterministic split federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="experiment YAML path")
    p_run.add_argument("--seed", type=int, default=None, help="override root seed")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-latency",
                             help="sweep client depth in the latency model")
    p_sweep.add_argument("--config", default=None, help="latency profile YAML path")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep_latency)

    p_diag = sub.add_parser("diagnose-estimator",
                            help="Monte Carlo estimator diagnostics vs closed-form bounds")
    p_diag.add_argument("--config", required=True, help="experiment YAML path")
    p_diag.add_argument("--trials", type=_positive_int, default=20000)
    p_diag.add_argument("--seed", type=int, default=None)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=_cmd_diagnose_estimator)

    p_traffic = sub.add_parser("report-traffic",
                               help="closed-form per-round traffic for a config")
    p_traffic.add_argument("--config", required=True, help="experiment YAML path")
    p_traffic.add_argument("--all-protocols", action="store_true",
                           help="tabulate every protocol, not just the configured one")
    p_traffic.add_argument("--out", default=None)
    p_traffic.set_defaults(func=_cmd_report_traffic)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # an overflowing run fails on its own finiteness checks with one
        # message; numpy's warnings would only repeat it on stderr. This
        # changes no value, and library callers still see the warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # an exception with no text, such as MemoryError(), is named by its class
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
