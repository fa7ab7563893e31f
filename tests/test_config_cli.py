import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from oracles import reference_parse_trace
from telegraphctl.analytics import dwell_time, time_to_target
from telegraphctl.cli import main
from telegraphctl.config import (
    ExperimentConfig,
    feedback_defaults,
    parse_config,
    serialize_config,
)
from telegraphctl.errors import ConfigError, TraceFormatError
from telegraphctl.experiments import run_closed_loop_ensemble
from telegraphctl.filtering import run_filter
from telegraphctl.model import Pulse, TraceRecord
from telegraphctl.rategrid import run_estimation
from telegraphctl.traceio import (
    config_digest,
    format_trace,
    parse_trace,
    read_trace,
    write_trace,
)

# a valid config in canonical form in which every key differs from its default
EVERY_KEY_CHANGED = """\
run.seed = 17
run.n_traces = 4
sim.bin_time_ms = 0.5
sim.n_bins = 1200
sim.initial_state = 1
rates.r21_per_s = 30.0
rates.r10_per_s = 45.0
rates.repump_per_s = 20.0
rates.depump_per_s = 5.0
photon.mean_counts_per_bin = 55.5,38.85,22.2
photon.family = overdispersed
photon.fano = 2.5
filter.initial_belief = 0.25,0.25,0.5
filter.propagation = exact
filter.allow_model_mismatch = true
filter.mean_counts_per_bin = 50.0,35.0,20.0
grid.r21.min_per_s = 1.0
grid.r21.max_per_s = 100.0
grid.r21.points = 11
grid.r10.min_per_s = 3.0
grid.r10.max_per_s = 120.0
grid.r10.points = 13
grid.repump.min_per_s = 0.0
grid.repump.max_per_s = 90.0
grid.repump.points = 7
grid.max_cells = 100000
policy.mode = optimal
policy.t_repump = 0.45
policy.t_depump = 0.35
policy.target = 0.125,0.75,0.125
"""


class TestConfigParsing:
    def test_round_trip_default(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_customized(self):
        text = """
        run.seed = 17
        run.n_traces = 4
        sim.bin_time_ms = 0.3
        sim.n_bins = 1200
        rates.repump_per_s = 0.0
        photon.mean_counts_per_bin = 55.5,38.85,22.2
        photon.family = overdispersed
        photon.fano = 2.5
        grid.r21.points = 11
        policy.mode = optimal
        policy.t_repump = 0.45
        """
        cfg = parse_config(text)
        assert cfg.seed == 17
        assert cfg.n_traces == 4
        assert cfg.bin_time == pytest.approx(0.3e-3)
        assert cfg.mean_counts == (55.5, 38.85, 22.2)
        assert cfg.fano == 2.5
        assert cfg.grid.r21.n_points == 11
        assert cfg.policy_mode == "optimal"
        assert parse_config(serialize_config(cfg)) == cfg
        # a key the parser or the serializer missed would surface here
        cfg = parse_config(EVERY_KEY_CHANGED)
        default = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
        assert serialize_config(cfg) == EVERY_KEY_CHANGED
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (
                ExperimentConfig(),
                "0b107ecf4edabdc45236ee4c49649c3d3ec4a47e2ddcfe2d9601be97e75e50bc",
            ),
            (
                feedback_defaults(),
                "1b3b5aafb16040569a10ebebd08859c4e148f28bb574cb28852c61e34ecaa4b5",
            ),
            (
                replace(
                    ExperimentConfig(),
                    family="overdispersed",
                    fano=2.0,
                    allow_model_mismatch=True,
                    filter_mean_counts=(41.0, 29.0, 17.0),
                ),
                "d6b77376c8a75d495d06286cf4ca1170649aa4fa5c772f685e38e301b829ee88",
            ),
        ],
        ids=["default", "feedback", "optional-keys"],
    )
    def test_serialized_text_frozen(self, cfg, digest):
        # the manifests' config_sha256 values depend on these exact bytes
        assert config_digest(serialize_config(cfg)) == digest

    def test_readme_example_round_trips(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (text,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        cfg = parse_config(text)
        assert cfg.grid.r21.n_points == 25
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("key", ["filter.initial_belief", "policy.target"])
    @pytest.mark.parametrize("value", ["0,0,0", "-1,1,1", "nan,1,1"])
    def test_unnormalizable_belief_line_precise(self, key, value):
        with pytest.raises(ConfigError, match=rf"^line 2: {re.escape(key)}"):
            parse_config(f"run.seed = 1\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["0.5,0.5,0", "1,1,1", "0,2,2", "3,0,3"])
    def test_tied_target_line_precise(self, out, tmp_path, capsys, value):
        # a tie for the largest component names no target state
        with pytest.raises(ConfigError, match=r"^line 2: policy\.target needs one largest"):
            parse_config(f"run.seed = 1\npolicy.target = {value}\n")
        cfg = tmp_path / "tied.cfg"
        cfg.write_text(f"policy.target = {value}\n")
        argv = ["feedback", "--traces", "1", "--bins", "5", "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 1
        assert "config error: line 1: policy.target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("propagation", ["linear", "exact"])
    def test_bin_time_must_be_finite_and_positive(self, propagation, value):
        text = f"filter.propagation = {propagation}\nsim.bin_time_ms = {value}\n"
        with pytest.raises(ConfigError, match=r"^line 2: sim\.bin_time_ms must be finite"):
            parse_config(text)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nrun.seed = 5  # trailing\n")
        assert cfg.seed == 5

    def test_unknown_key_line_precise(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("run.seed = 1\n\nrun.sneed = 2\n")

    def test_bad_value_line_precise(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("sim.n_bins = many\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("run.seed = 1\nrun.n_traces 4\n")

    def test_mismatch_flag_required(self):
        with pytest.raises(ConfigError, match="allow_model_mismatch"):
            parse_config("filter.mean_counts_per_bin = 41,29,17\n")
        cfg = parse_config(
            "filter.allow_model_mismatch = true\n"
            "filter.mean_counts_per_bin = 41,29,17\n"
        )
        assert cfg.filter_mean_counts == (41.0, 29.0, 17.0)
        assert cfg.filter_photon_model().mean_counts == (41.0, 29.0, 17.0)
        assert cfg.photon_model().mean_counts == (40.0, 28.0, 16.0)

    def test_physical_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("photon.mean_counts_per_bin = 16,28,40\n")
        with pytest.raises(ConfigError):
            parse_config("rates.r21_per_s = -3\n")

    @pytest.mark.parametrize("value", ["nan", "-3", "0.5", "inf"])
    def test_invalid_fano_rejected_under_poisson(self, value):
        with pytest.raises(ConfigError, match="fano"):
            parse_config(f"photon.family = poisson\nphoton.fano = {value}\n")

    def test_feedback_defaults(self):
        cfg = feedback_defaults()
        assert cfg.rates.r_repump == 0.0
        assert cfg.n_bins == 300
        assert cfg.control_policy().fixed_t_repump == cfg.t_repump


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        records = [
            TraceRecord(0, 31, Pulse.NONE, 2),
            TraceRecord(1, 12, Pulse.REPUMP, 1),
            TraceRecord(2, 40, Pulse.DEPUMP, None),
        ]
        path = tmp_path / "t.csv"
        write_trace(path, records)
        assert read_trace(path) == records

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            parse_trace("0,1,0,2\n")

    def test_strictly_increasing_bins(self):
        text = "bin_index,photon_count,pulse,true_state\n0,1,0,2\n0,2,0,2\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_trace(text)

    @pytest.mark.parametrize(
        "line",
        [
            "1,5,0",  # field count
            "1,x,0,1",  # not an integer
            "1,5,7,1",  # pulse code
            "1,-5,0,1",  # negative count
            "1,5,0,3",  # hidden state
            "0,5,0,1",  # bin index not increasing
        ],
    )
    def test_malformed_line_named(self, line):
        # the blank line 3 still counts: the error names the file's line 4
        text = f"bin_index,photon_count,pulse,true_state\n0,1,0,2\n\n{line}\n"
        with pytest.raises(TraceFormatError, match="line 4") as caught:
            parse_trace(text)
        assert isinstance(caught.value, ValueError)

    def test_parse_matches_reference_on_valid_traces(self):
        from telegraphctl.experiments import FeedbackController
        from telegraphctl.simulate import run_trace

        golden = (Path(__file__).parent / "data" / "golden_trace_seed42.csv").read_text()
        cfg = feedback_defaults()
        controller = FeedbackController(cfg.filter_config(), cfg.control_policy())
        pulsed = run_trace(cfg.sim_config(5), controller)
        assert any(r.pulse for r in pulsed)
        withheld = [r._replace(true_state=None) for r in pulsed[:50]]
        # int() accepts signs, padding and digit separators; blank lines skip
        quirky = (
            "bin_index,photon_count,pulse,true_state\n\n 0,+5, 1 ,-1\n"
            "\t\n1_0,0_7,2,0\r\n11,٣,0,2\n"
        )
        for text in (golden, format_trace(pulsed), format_trace(withheld), quirky):
            records = parse_trace(text)
            assert records == reference_parse_trace(text)
            assert [type(r.pulse) for r in records] == [Pulse] * len(records)

    @pytest.mark.parametrize(
        "line",
        [
            "1,5,0",
            "1,5,0,1,",
            ",,,",
            "1,x,0,1",
            "1,5.0,0,1",
            "1,5,,1",
            "1,5,3,1",
            "1,5,-1,1",
            "1,5,7,x",
            "-1,5,0,1",
            "0,5,0,1",
            "1,-5,0,1",
            "1,-5,9,7",
            "1,5,0,3",
            "1,5,0,-2",
            "1,-5,0,3",
        ],
    )
    def test_parse_errors_match_reference(self, line):
        # each message and line number is the checking constructors', on a
        # later line and on the first record (where -1 is not increasing)
        header = "bin_index,photon_count,pulse,true_state"
        later, first = f"{header}\n0,1,0,2\n\n{line}\n", f"{header}\n{line}\n"
        assert isinstance(_parse_outcome(reference_parse_trace, later), str)
        for text in (later, first):
            expected = _parse_outcome(reference_parse_trace, text)
            assert _parse_outcome(parse_trace, text) == expected

    @pytest.mark.parametrize("text", ["", "\n\n", "0,1,0,2\n", "  \nbin_index,pulse\n"])
    def test_missing_header_matches_reference(self, text):
        expected = _parse_outcome(reference_parse_trace, text)
        assert isinstance(expected, str)
        assert _parse_outcome(parse_trace, text) == expected

    def test_golden_trace_regeneration(self, default_model, paper_rates):
        # committed golden file guards cross-version trace stability
        from telegraphctl.simulate import SimConfig, run_trace

        config = SimConfig(paper_rates, default_model, 1e-3, 50, 2, 42)
        text = format_trace(run_trace(config))
        golden = Path(__file__).parent / "data" / "golden_trace_seed42.csv"
        assert text == golden.read_text(encoding="utf-8")


def _parse_outcome(parse, text):
    """The records, or the TraceFormatError message."""
    try:
        return parse(text)
    except TraceFormatError as exc:
        return str(exc)


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


class TestCli:
    def test_simulate_writes_traces_and_manifest(self, out):
        rc = main(["simulate", "--traces", "2", "--bins", "50", "--out", str(out)])
        assert rc == 0
        assert (out / "trace_0000.csv").exists()
        assert (out / "trace_0001.csv").exists()
        assert (out / "histogram.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 20260809

    def test_simulate_reproducible_from_manifest(self, out, tmp_path):
        rc = main(["simulate", "--traces", "1", "--bins", "80", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text(manifest["config"])
        out2 = tmp_path / "replay"
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(out2)])
        assert rc == 0
        assert (out / "trace_0000.csv").read_bytes() == (
            out2 / "trace_0000.csv"
        ).read_bytes()

    def test_config_error_exit_code(self, out, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        argv = ["simulate", "--config", str(bad), "--out", str(out)]
        bad.write_text("nonsense.key = 1\n")
        assert main(argv) == 1
        bad.write_text("run.seed = 1\nfilter.initial_belief = 0,0,0\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: line 1: unknown key 'nonsense.key'" in err
        assert "config error: line 2: filter.initial_belief: weights sum" in err
        bad.write_text("photon.fano = nan\n")
        assert main(argv) == 1
        assert "config error: fano must be finite and > 1, got nan" in capsys.readouterr().err
        bad.write_text("photon.family = poisson\nphoton.fano = 2.0\n")
        assert main(argv) == 1
        assert "config error: the poisson family takes no fano, got 2.0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["analyze", "estimate-rates"])
    def test_malformed_trace_exit_2(self, out, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("bin_index,photon_count,pulse,true_state\n0,5,7,1\n")
        assert main([command, str(bad), "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "estimate-rates"])
    @pytest.mark.parametrize("family", ["poisson", "overdispersed"])
    @pytest.mark.parametrize("count", [10**308, 10**400], ids=["1e308", "400-digit"])
    def test_overflowing_count_exit_2(
        self, out, tmp_path, capsys, command, family, count
    ):
        # such a count's pmf rounds to zero in every state (the float
        # arithmetic overflows), so the trace collapses to AllZeroError
        cfg = tmp_path / "family.cfg"
        fano = "photon.fano = 2.0\n" if family == "overdispersed" else ""
        cfg.write_text(f"photon.family = {family}\n{fano}")
        trace = tmp_path / "big.csv"
        trace.write_text(
            f"bin_index,photon_count,pulse,true_state\n0,28,0,-1\n1,{count},0,-1\n"
        )
        argv = [command, str(trace), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "zero likelihood" in err
        # the error names the file and the bin, not the whole count
        assert f"error: {trace}: bin 1: " in err
        assert str(count) not in err
        assert len(err) < 200

    def test_non_utf8_trace_exit_2(self, out, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"bin_index,photon_count,pulse,true_state\n0,5,\xff,1\n")
        assert main(["analyze", str(bad), "--out", str(out)]) == 2
        assert f"{bad}: not UTF-8 at byte 44" in capsys.readouterr().err

    def test_malformed_second_trace_named(self, out, tmp_path, capsys):
        good, bad = tmp_path / "a.csv", tmp_path / "b.csv"
        good.write_text("bin_index,photon_count,pulse,true_state\n0,5,0,1\n")
        bad.write_text("bin_index,photon_count,pulse,true_state\n0,5,7,1\n")
        assert main(["analyze", str(good), str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 2: " in err
        assert str(good) not in err

    def test_closed_loop_trace_estimate_rates_exit_2(self, out, tmp_path, capsys):
        # rate estimation takes open-loop traces only; a feedback trace
        # carries pulses, and is named in a runtime error
        fb = tmp_path / "fb"
        assert main(["feedback", "--traces", "1", "--bins", "60", "--out", str(fb)]) == 0
        trace = fb / "trace_0000.csv"
        assert any(rec.pulse for rec in read_trace(trace))
        capsys.readouterr()
        assert main(["estimate-rates", str(trace), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {trace}: rate estimation expects open-loop traces" in err

    @pytest.mark.parametrize("command", ["simulate", "feedback"])
    def test_infinite_bin_time_exit_1(self, out, tmp_path, capsys, command):
        # rejected before anything is simulated, on the flag and in a file
        args = [command, "--traces", "1", "--bins", "5", "--out", str(out)]
        assert main(args + ["--bin-time-ms", "inf"]) == 1
        assert "sim.bin_time_ms must be finite and > 0, got inf" in capsys.readouterr().err
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("filter.propagation = exact\nsim.bin_time_ms = inf\n")
        assert main(args + ["--config", str(cfg)]) == 1
        assert "config error: line 2: sim.bin_time_ms" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--duration-ms", "nan"),
            ("--duration-ms", "inf"),
            ("--duration-ms", "0.0001"),
            ("--r-min", "-5"),
            ("--r-steps", "-2"),
            ("--duration-ms", "1e12"),
            ("--duration-ms", "1e300"),
        ],
    )
    def test_bad_sweep_flag_is_config_error(self, out, capsys, flag, value):
        # each raised a bare ValueError, OverflowError or MemoryError from
        # the sweep; the two long durations ask for more bins than the cap
        assert main(["sweep", flag, value, "--out", str(out)]) == 1
        assert f"config error: {flag} must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["rates.r21_per_s", "rates.r10_per_s"])
    def test_zero_decay_rate_sweep_is_config_error(self, out, tmp_path, capsys, key):
        # the stationary closed form divides by both decay rates
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"{key} = 0.0\n")
        argv = ["sweep", "--r-steps", "3", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        assert f"config error: {key} must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_stop_threshold_is_config_error(self, out, tmp_path, capsys, value):
        # rejected before any trace is read: this one does not exist
        trace = str(tmp_path / "missing.csv")
        argv = ["estimate-rates", trace, "--stop-threshold", value, "--out", str(out)]
        assert main(argv) == 1
        assert "config error: --stop-threshold must be " in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_grid_max_is_config_error(self, out, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--traces", "1", "--bins", "20", "--out", str(sim_out)]) == 0
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("grid.r21.max_per_s = inf\n")
        trace = str(sim_out / "trace_0000.csv")
        assert main(["estimate-rates", trace, "--config", str(cfg), "--out", str(out)]) == 1

    def test_estimate_rates_single_cell_converges(self, out, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--traces", "1", "--bins", "60", "--out", str(sim_out)]) == 0
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "grid.r21.min_per_s = 35\ngrid.r21.max_per_s = 35\ngrid.r21.points = 1\n"
            "grid.r10.min_per_s = 50\ngrid.r10.max_per_s = 50\ngrid.r10.points = 1\n"
            "grid.repump.min_per_s = 59\ngrid.repump.max_per_s = 59\ngrid.repump.points = 1\n"
        )
        rc = main(
            [
                "estimate-rates",
                str(sim_out / "trace_0000.csv"),
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "rates_report.json").read_text())
        assert report["reports"][0]["converged"] is True
        assert report["reports"][0]["rates_per_s"]["r21"]["mean"] == 35.0
        assert (out / "posterior_evolution.csv").exists()

    def test_estimate_rates_default_reports_exact_grid(self, out, tmp_path):
        # the default filter.propagation is "linear", but the rate grid
        # always propagates exactly
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--traces", "1", "--bins", "300", "--out", str(sim_out)]) == 0
        trace = sim_out / "trace_0000.csv"
        with pytest.warns(UserWarning, match="stopping rule"):
            assert main(["estimate-rates", str(trace), "--out", str(out)]) == 3
        cfg = ExperimentConfig()
        assert cfg.propagation == "linear"
        expected = run_estimation(
            read_trace(trace),
            cfg.grid,
            cfg.filter_photon_model(),
            cfg.bin_time,
            initial_states=cfg.initial_belief,
            method="exact",
        ).final_marginals
        report = json.loads((out / "rates_report.json").read_text())
        assert report["reports"][0]["rates_per_s"] == {
            name: {"mean": post.mean, "rms": post.rms}
            for name, post in expected.as_dict().items()
        }

    def test_estimate_rates_empty_trace_not_converged(self, out, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("bin_index,photon_count,pulse,true_state\n")
        with pytest.warns(UserWarning, match="stopping rule"):
            rc = main(["estimate-rates", str(empty), "--out", str(out)])
        assert rc == 3

    def test_estimate_rates_not_converged_exit_3(self, out, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--traces", "1", "--bins", "40", "--out", str(sim_out)]) == 0
        with pytest.warns(UserWarning, match="stopping rule"):
            rc = main(
                [
                    "estimate-rates",
                    str(sim_out / "trace_0000.csv"),
                    "--out",
                    str(out),
                ]
            )
        assert rc == 3
        report = json.loads((out / "rates_report.json").read_text())
        assert report["reports"][0]["converged"] is False

    def test_estimate_rates_zero_rate_axis_not_converged(self, out, tmp_path):
        # a point mass at zero repump rate has mean 0; the not-converged
        # warning must not divide by it
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "rates.repump_per_s = 0.0\nsim.n_bins = 50\n"
            "grid.repump.min_per_s = 0\ngrid.repump.max_per_s = 0\n"
            "grid.repump.points = 1\n"
        )
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        with pytest.warns(UserWarning, match="stopping rule") as caught:
            rc = main(
                [
                    "estimate-rates",
                    str(sim_out / "trace_0000.csv"),
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ]
            )
        assert rc == 3
        message = str(caught[0].message)
        assert "r21" in message and "r10" in message and "r_repump" not in message

    def test_feedback_summary(self, out):
        rc = main(
            ["feedback", "--traces", "3", "--bins", "200", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.5 < summary["mean_p"][1] <= 1.0
        assert summary["pulses"].get("REPUMP", 0) > 0
        assert summary["policy"]["t_repump"] == 0.4
        assert (out / "trace_0002.csv").exists()

    def test_feedback_summary_is_strict_json(self, out):
        # one complete dwell episode: its standard error is undefined
        rc = main(["feedback", "--traces", "1", "--bins", "20", "--out", str(out)])
        assert rc == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["dwell_stderr_s"] is None

    def test_feedback_inert_controller_reduces_to_open_loop(self, out, tmp_path):
        cfg = tmp_path / "inert.cfg"
        cfg.write_text("policy.t_repump = 0.0\npolicy.t_depump = 0.0\n")
        rc = main(
            [
                "feedback",
                "--config",
                str(cfg),
                "--traces",
                "3",
                "--bins",
                "300",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        # pure decay toward the bottom state: little time spent in the middle
        assert summary["mean_p"][1] < 0.35
        assert summary["mean_p"][0] > 0.5

    def test_sweep_outputs(self, out):
        rc = main(["sweep", "--r-steps", "30", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert 0.34 <= summary["max_mean_p1"] <= 0.37
        assert summary["stationary_optimum_per_s"] == pytest.approx(29.58, abs=0.01)
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "repump_per_s,mean_p1,stationary_p1"
        assert len(lines) == 31

    def test_analyze_traces(self, out, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--traces", "2", "--bins", "400", "--out", str(sim_out)]) == 0
        rc = main(
            [
                "analyze",
                str(sim_out / "trace_0000.csv"),
                str(sim_out / "trace_0001.csv"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "analysis.json").read_text())
        assert summary["argmax_accuracy"] > 0.9
        assert summary["n_traces"] == 2

    def test_statistics_follow_policy_target(self, out, tmp_path, capsys):
        # dwell time, time to target and the printed occupancy are the
        # configured target's (state 0 here), in feedback and in analyze
        target_cfg = tmp_path / "target0.cfg"
        target_cfg.write_text("policy.target = 1,0,0\n")
        fb = tmp_path / "fb"
        argv = ["--traces", "3", "--bins", "200", "--config", str(target_cfg)]
        assert main(["feedback", *argv, "--out", str(fb)]) == 0
        summary = json.loads((fb / "summary.json").read_text())
        printed = capsys.readouterr().out
        assert f"mean target occupancy {summary['mean_p'][0]:.3f}, " in printed
        cfg = parse_config(json.loads((fb / "manifest.json").read_text())["config"])
        runs = run_closed_loop_ensemble(
            cfg.sim_config(), cfg.filter_config(), cfg.control_policy(), 3, cfg.seed
        )
        posteriors = [run.posteriors for run in runs]
        assert summary["dwell_tau_s"] == dwell_time(posteriors, cfg.bin_time, 0).tau
        assert summary["time_to_target_s"] == time_to_target(posteriors, cfg.bin_time, 0)

        traces = [str(p) for p in sorted(fb.glob("trace_*.csv"))]
        assert main(["analyze", *traces, "--config", str(target_cfg), "--out", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        cfg = parse_config(json.loads((out / "manifest.json").read_text())["config"])
        posteriors = [run_filter(read_trace(p), cfg.filter_config()) for p in traces]
        assert analysis["dwell_tau_s"] == dwell_time(posteriors, cfg.bin_time, 0).tau
        assert analysis["time_to_target_s"] == time_to_target(posteriors, cfg.bin_time, 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--traces", "1", "--bins", "1"],
            ["--policy", "optimal", "--traces", "2", "--bins", "3"],
        ],
    )
    def test_failed_feedback_writes_nothing(self, out, capsys, argv):
        # the target is never dominant, so the summary fails before any write
        assert main(["feedback", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# SHA-256 of every output of the five commands on small fixed inputs;
# rates_report.json holds the trace path, so it is left out.
FROZEN_OUTPUTS = {
    "an/analysis.json": "e1c8ea067a87f7c7d569f1b205e1447963a287015ffa2a4a35572b52045c9ad7",
    "an/manifest.json": "975f4fbb653bc515fca8a1bfd9f9d13667f1a5bfedb34f088c880eeac533a195",
    "est/manifest.json": "aa54df069a559147db893657efea62f3e8169ecd93b4a770fdb81b0a26e1efd6",
    "est/posterior_evolution.csv": "33092b16ffb7320ed2a7b9ffceabb36bce2aa81c2b04533b1095b23eb628b23c",
    "fb/manifest.json": "8005c35eac699d990ecc537cea554fd741dbba51605dc60eb25b5a63c43e5682",
    "fb/summary.json": "8f95fcf9723917feb9dddaf663e3e7dc10450d9711827c3bfef9e0be034e79c6",
    "fb/trace_0000.csv": "10e929d2d9a1431afa133dee8602078f295e8a9362d0b9f4aa41ac4fb7386f8c",
    "fb/trace_0001.csv": "6e972932844c31eb44156739d28354d432170f672fea3295769ce100480818b8",
    "sim/histogram.csv": "1804e54f6ffa87cc2bb17492b476bbab803d567e6610000018a88308066d015f",
    "sim/manifest.json": "7b41ad5bc8bc9e331d02fdb47f473ed6380ef14173e80627a83880e72bf86dff",
    "sim/trace_0000.csv": "45482c430cc0c70cdaa99452ea295b9555c9501ccbc1d6878ba426ce53619969",
    "sim/trace_0001.csv": "eb19d2f8a725fd6a7d0625af594bcc9bf2062b9fd1849126ed4fa584373271e8",
    "sweep/manifest.json": "151f377d3b8046eeacc3895e702f35b80901d9d5279a9e4db7cb799616570110",
    "sweep/sweep.csv": "42383b3184c08cecd58b44c77bb9570de9a8d951d1ca42ac840a233e54b0630d",
    "sweep/sweep_summary.json": "8d5f2e1ce3495a66ed9c1b964059b265ed7b6469571993f183422b99ea269515",
}


@pytest.mark.filterwarnings("ignore::telegraphctl.errors.NotConvergedWarning")
def test_command_outputs_frozen(tmp_path):
    traces = [str(tmp_path / "sim" / f"trace_000{i}.csv") for i in range(2)]
    runs = {
        "sim": (["simulate", "--traces", "2", "--bins", "200"], 0),
        "fb": (["feedback", "--traces", "2", "--bins", "200"], 0),
        "sweep": (["sweep", "--r-steps", "5"], 0),
        "an": (["analyze", *traces], 0),
        "est": (["estimate-rates", traces[0]], 3),
    }
    for name, (argv, code) in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == written
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file() and p.name != "rates_report.json"
    }
    assert got == FROZEN_OUTPUTS
