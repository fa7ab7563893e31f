"""Command-line harness wiring config, simulation, estimation, control and
analytics into reproducible experiments.

Subcommands: simulate, estimate-rates, feedback, sweep, analyze.
Exit codes: 0 ok, 1 config error, 2 runtime error, 3 estimation did not
converge before the data ran out.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    dwell_time,
    mean_occupancy,
    optimal_repump_rate,
    stationary_belief,
    sweep_maximum,
    sweep_repump_rate,
    time_to_target,
)
from .config import (
    ExperimentConfig,
    feedback_defaults,
    parse_config,
    serialize_config,
)
from .errors import (
    AllZeroError,
    ConfigError,
    NotConvergedWarning,
    TelegraphError,
    TraceFormatError,
)
from .experiments import run_closed_loop_ensemble, run_open_loop_ensemble
from .filtering import run_filter
from .model import TransitionRates
from .rategrid import run_estimation
from .traceio import (
    config_digest,
    read_trace,
    write_csv,
    write_manifest,
    write_trace,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegraphctl",
        description="Simulate, estimate and feedback-control a three-level "
        "photon-count telegraph signal.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="config file (key = value lines)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--traces", type=int, help="number of ensemble traces")
        p.add_argument("--bin-time-ms", type=float, help="bin length override (ms)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument(
            "--policy", choices=("simple", "optimal"), help="control policy override"
        )

    p = sub.add_parser("simulate", help="open-loop traces plus count histogram")
    common(p)
    p.add_argument("--bins", type=int, help="bins per trace override")

    p = sub.add_parser("estimate-rates", help="grid rate inference on traces")
    common(p)
    p.add_argument("traces_in", nargs="+", type=Path, help="trace files")
    p.add_argument(
        "--stop-threshold", type=float, default=0.10, help="relative rms stop rule"
    )

    p = sub.add_parser("feedback", help="closed-loop stabilization ensemble")
    common(p)
    p.add_argument("--bins", type=int, help="bins per trace override")

    p = sub.add_parser("sweep", help="mean occupancy vs continuous repump rate")
    common(p)
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=150.0)
    p.add_argument("--r-steps", type=int, default=150)
    p.add_argument(
        "--duration-ms", type=float, default=300.0, help="trace length per point"
    )

    p = sub.add_parser("analyze", help="filter recorded traces and summarize")
    common(p)
    p.add_argument("traces_in", nargs="+", type=Path, help="trace files")
    return parser


# command-line flag (argparse dest) -> the config key it overrides
_OVERRIDES = {
    "seed": "run.seed",
    "traces": "run.n_traces",
    "bin_time_ms": "sim.bin_time_ms",
    "policy": "policy.mode",
    "bins": "sim.n_bins",
}


def _load_config(args, cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with the config file and then the flags applied."""
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, base=cfg)
    given = vars(args)  # a float's str is its repr, so values round-trip
    overrides = [
        f"{key} = {given[flag]}"
        for flag, key in _OVERRIDES.items()
        if given.get(flag) is not None
    ]
    if overrides:
        cfg = parse_config("\n".join(overrides), base=cfg)
    return cfg


def _manifest(cfg: ExperimentConfig, command: str, outputs: list[str]) -> dict:
    text = serialize_config(cfg)
    return {
        "command": command,
        "config": text,
        "config_sha256": config_digest(text),
        "seed": cfg.seed,
        "version": __version__,
        "outputs": outputs,
    }


def _write_traces(out: Path, runs) -> list[str]:
    """Each run's records as out/trace_NNNN.csv; the file names, in order."""
    names = [f"trace_{i:04d}.csv" for i in range(len(runs))]
    for name, run in zip(names, runs):
        write_trace(out / name, run.records)
    return names


# Each command takes the parsed flags and the loaded config, computes
# everything that can fail before its first write, and returns the names
# of the files it wrote into --out and its exit code.


def cmd_simulate(args, cfg: ExperimentConfig) -> tuple[list[str], int]:
    runs = run_open_loop_ensemble(cfg.sim_config(), None, cfg.n_traces, cfg.seed)
    counts = Counter(rec.photon_count for run in runs for rec in run.records)
    outputs = _write_traces(args.out, runs)
    write_csv(args.out / "histogram.csv", ("photon_count", "bins"), sorted(counts.items()))
    print(f"wrote {cfg.n_traces} trace(s) to {args.out}")
    return outputs + ["histogram.csv"], 0


def _require(ok: bool, flag: str, value, rule: str) -> None:
    """ConfigError naming the flag unless ``ok``."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value!r}")


def cmd_estimate_rates(args, cfg: ExperimentConfig) -> tuple[list[str], int]:
    thr = args.stop_threshold
    _require(0.0 <= thr < math.inf, "--stop-threshold", thr, "a finite number >= 0")
    model = cfg.filter_photon_model()
    reports = []
    evolution_rows = []
    all_converged = True
    for path in args.traces_in:
        records = read_trace(path)
        try:
            result = run_estimation(
                records,
                cfg.grid,
                model,
                cfg.bin_time,
                initial_states=cfg.initial_belief,
                stop_threshold=thr,
                stop_at_trigger=True,
                snapshot_every=max(1, len(records) // 10),
            )
        except (AllZeroError, TraceFormatError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        marg = result.reported_marginals()
        if not result.converged:
            all_converged = False
            # a point mass at zero rate has no relative spread to report
            ratios = ", ".join(
                f"{name} {post.rms / post.mean:.3f}"
                for name, post in marg.as_dict().items()
                if post.mean > 0.0
            )
            warnings.warn(
                f"{path}: data exhausted before the stopping rule fired "
                f"(final rms/mean: {ratios})",
                NotConvergedWarning,
            )
        reports.append(
            {
                "trace": str(path),
                "converged": result.converged,
                "stop_bin": result.stop_bin,
                "stop_time_s": None
                if result.stop_bin is None
                else (result.stop_bin + 1) * cfg.bin_time,
                "rates_per_s": {
                    name: {"mean": post.mean, "rms": post.rms}
                    for name, post in marg.as_dict().items()
                },
            }
        )
        for bin_index, snap in result.snapshots:
            t = (bin_index + 1) * cfg.bin_time
            for name, (values, probs) in snap.items():
                evolution_rows.extend(
                    (t, name, float(v), float(p)) for v, p in zip(values, probs)
                )
    write_manifest(
        args.out / "rates_report.json", {"reports": reports, "stop_threshold": thr}
    )
    write_csv(
        args.out / "posterior_evolution.csv",
        ("time_s", "rate", "rate_per_s", "probability"),
        evolution_rows,
    )
    for rep in reports:
        r = rep["rates_per_s"]
        print(
            f"{rep['trace']}: converged={rep['converged']} "
            + " ".join(
                f"{name}={r[name]['mean']:.1f}±{r[name]['rms']:.1f}"
                for name in ("r21", "r10", "r_repump")
            )
        )
    return ["rates_report.json", "posterior_evolution.csv"], 0 if all_converged else 3


def cmd_feedback(args, cfg: ExperimentConfig) -> tuple[list[str], int]:
    runs = run_closed_loop_ensemble(
        cfg.sim_config(), cfg.filter_config(), cfg.control_policy(), cfg.n_traces, cfg.seed
    )
    posteriors = [run.posteriors for run in runs]
    occupancy = mean_occupancy(posteriors)
    target = cfg.target.argmax()
    dwell = dwell_time(posteriors, cfg.bin_time, target)
    ttt = time_to_target(posteriors, cfg.bin_time, target)
    n_pulses = Counter()
    for run in runs:
        n_pulses.update(rec.pulse.name for rec in run.records if rec.pulse)
    summary = {
        "mean_p": list(occupancy.mean_p.as_tuple()),
        "n_bins": occupancy.n_bins,
        "n_traces": occupancy.n_traces,
        "dwell_tau_s": dwell.tau,
        "dwell_stderr_s": dwell.stderr,
        "dwell_episodes": dwell.n_episodes,
        "dwell_truncated": dwell.n_truncated,
        "time_to_target_s": ttt,
        "pulses": dict(n_pulses),
        "policy": {
            "mode": cfg.policy_mode,
            "t_repump": cfg.t_repump,
            "t_depump": cfg.t_depump,
        },
    }
    outputs = _write_traces(args.out, runs)
    write_manifest(args.out / "summary.json", summary)
    print(
        f"mean target occupancy {occupancy.mean_p[target]:.3f}, dwell tau "
        f"{dwell.tau * 1e3:.1f} ms, time to target {ttt * 1e3:.2f} ms"
    )
    return outputs + ["summary.json"], 0


# Bins per sweep point: the rate equations keep every bin's belief (24 B),
# so this bounds each point's array to 24 MB.
MAX_SWEEP_STEPS = 1_000_000


def cmd_sweep(args, cfg: ExperimentConfig) -> tuple[list[str], int]:
    for flag, r in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        _require(0.0 <= r < math.inf, flag, r, "a finite rate >= 0")
    _require(args.r_steps >= 1, "--r-steps", args.r_steps, ">= 1")
    # the stationary closed form divides by both decay rates
    rates = cfg.rates
    for key, r in (("rates.r21_per_s", rates.r21), ("rates.r10_per_s", rates.r10)):
        _require(r > 0.0, key, r, "> 0 for the stationary sweep")
    duration = args.duration_ms * 1e-3
    # false for NaN, and for an infinite or overflowing quotient
    _require(
        0.5 < duration / cfg.bin_time <= MAX_SWEEP_STEPS,
        "--duration-ms",
        args.duration_ms,
        f"longer than half a bin and at most {MAX_SWEEP_STEPS} bins",
    )
    r_values = np.linspace(args.r_min, args.r_max, args.r_steps)
    curve = sweep_repump_rate(rates, r_values, duration, cfg.bin_time)
    rows = []
    for r, mean_p1 in curve:
        stat = (
            stationary_belief(TransitionRates(rates.r21, rates.r10, r)).p1
            if r > 0
            else float("nan")
        )
        rows.append((r, mean_p1, stat))
    best_r, best_p1 = sweep_maximum(curve)
    r_star = optimal_repump_rate(rates)
    stat_best = stationary_belief(TransitionRates(rates.r21, rates.r10, r_star)).p1
    write_csv(args.out / "sweep.csv", ("repump_per_s", "mean_p1", "stationary_p1"), rows)
    write_manifest(
        args.out / "sweep_summary.json",
        {
            "max_mean_p1": best_p1,
            "argmax_repump_per_s": best_r,
            "stationary_optimum_per_s": r_star,
            "stationary_max_p1": stat_best,
            "duration_s": duration,
        },
    )
    print(
        f"finite-trace max mean p1 {best_p1:.3f} at repump {best_r:.1f}/s "
        f"(stationary optimum {stat_best:.3f} at {r_star:.1f}/s)"
    )
    return ["sweep.csv", "sweep_summary.json"], 0


def cmd_analyze(args, cfg: ExperimentConfig) -> tuple[list[str], int]:
    fc = cfg.filter_config()
    posteriors = []
    accuracy_n = accuracy_hits = 0
    for path in args.traces_in:
        records = read_trace(path)
        try:
            beliefs = run_filter(records, fc)
        except AllZeroError as exc:
            raise AllZeroError(f"{path}: {exc}") from None
        posteriors.append(beliefs)
        for rec, b in zip(records, beliefs):
            if rec.true_state is not None:
                accuracy_n += 1
                accuracy_hits += int(b.argmax() == rec.true_state)
    occupancy = mean_occupancy(posteriors)
    summary = {
        "mean_p": list(occupancy.mean_p.as_tuple()),
        "n_bins": occupancy.n_bins,
        "n_traces": occupancy.n_traces,
        "argmax_accuracy": None if accuracy_n == 0 else accuracy_hits / accuracy_n,
    }
    target = cfg.target.argmax()
    try:
        dwell = dwell_time(posteriors, cfg.bin_time, target)
        summary["dwell_tau_s"] = dwell.tau
        summary["dwell_episodes"] = dwell.n_episodes
    except TelegraphError:
        summary["dwell_tau_s"] = None
    try:
        summary["time_to_target_s"] = time_to_target(posteriors, cfg.bin_time, target)
    except TelegraphError:
        summary["time_to_target_s"] = None
    write_manifest(args.out / "analysis.json", summary)
    print(
        f"mean p = {tuple(round(x, 4) for x in occupancy.mean_p.as_tuple())}, "
        f"argmax accuracy {summary['argmax_accuracy']}"
    )
    return ["analysis.json"], 0


# command name -> (its function, the config its file and flags override)
_COMMANDS = {
    "simulate": (cmd_simulate, ExperimentConfig),
    "estimate-rates": (cmd_estimate_rates, ExperimentConfig),
    "feedback": (cmd_feedback, feedback_defaults),
    "sweep": (cmd_sweep, ExperimentConfig),
    "analyze": (cmd_analyze, ExperimentConfig),
}


def main(argv: list[str] | None = None) -> int:
    """Run one command: load its config, let it write its outputs into
    --out, then stamp them with manifest.json."""
    args = build_parser().parse_args(argv)
    command, defaults = _COMMANDS[args.command]
    try:
        cfg = _load_config(args, defaults())
        outputs, code = command(args, cfg)
        write_manifest(args.out / "manifest.json", _manifest(cfg, args.command, outputs))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TelegraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
