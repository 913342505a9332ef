"""Tests for the jpwr command-line tool."""

import io

import pytest

from repro.jpwr.cli import build_parser, run
from repro.jpwr.export import read_frame


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, stdout=out)
    return code, out.getvalue()


class TestSyntheticLoad:
    def test_basic_load_run(self, tmp_path):
        code, output = run_cli(
            [
                "--methods", "pynvml",
                "--system", "A100",
                "--load", "0.8:5",
                "--df-out", str(tmp_path),
                "--df-filetype", "csv",
            ]
        )
        assert code == 0
        assert "Energy consumed (Wh):" in output
        power = read_frame(tmp_path / "power.csv")
        assert "gpu0" in power.columns
        energy = read_frame(tmp_path / "energy.csv")
        assert energy.row(0)["gpu0"] > 0

    def test_multiple_load_phases(self, tmp_path):
        code, _ = run_cli(
            [
                "--methods", "pynvml",
                "--load", "1.0:2", "--load", "0.1:2",
                "--df-out", str(tmp_path),
            ]
        )
        assert code == 0
        power = read_frame(tmp_path / "power.csv")
        assert power.max("gpu0") > power.min("gpu0")

    def test_rocm_method_on_amd_system(self, tmp_path):
        code, output = run_cli(
            ["--methods", "rocm", "--system", "MI250", "--load", "0.5:1"]
        )
        assert code == 0
        assert "gcd0" in output

    def test_gh_and_pynvml_together(self):
        code, output = run_cli(
            ["--methods", "pynvml", "gh", "--system", "GH200", "--load", "0.5:1"]
        )
        assert code == 0
        assert "gh_module0" in output and "gpu0" in output

    def test_df_suffix_expansion(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLURM_PROCID", "7")
        code, _ = run_cli(
            [
                "--methods", "pynvml",
                "--load", "0.5:1",
                "--df-out", str(tmp_path),
                "--df-suffix", "_%q{SLURM_PROCID}",
            ]
        )
        assert code == 0
        assert (tmp_path / "power_7.csv").exists()

    def test_energy_scales_with_duration(self, tmp_path):
        _, out_short = run_cli(["--methods", "pynvml", "--load", "0.8:2"])
        _, out_long = run_cli(["--methods", "pynvml", "--load", "0.8:8"])

        def energy(text):
            for line in text.splitlines():
                if "gpu0" in line:
                    return float(line.split(":")[1])
            raise AssertionError("no gpu0 line")

        assert energy(out_long) == pytest.approx(4 * energy(out_short), rel=0.02)


class TestLoadSampleGrid:
    """A load segment samples on its interval grid, with no sliver sample."""

    def _times(self, tmp_path, *loads):
        argv = ["--methods", "pynvml", "--df-out", str(tmp_path)]
        for spec in loads:
            argv += ["--load", spec]
        code, _ = run_cli(argv)
        assert code == 0
        return read_frame(tmp_path / "power.csv")["time_s"]

    def test_one_second_takes_ten_samples_on_the_grid(self, tmp_path):
        times = self._times(tmp_path, "0.8:1")
        # Entry sample, ten segment samples, exit sample.
        assert times == [0.0, *(k * 0.1 for k in range(1, 10)), 1.0, 1.0]

    def test_sample_count_is_the_ceiling_of_duration_over_interval(self, tmp_path):
        times = self._times(tmp_path, "0.8:5", "0.3:1.1", "0.5:0.7", "0.2:0.25")
        assert len(times) == 1 + 50 + 11 + 7 + 3 + 1
        assert times[50] == 5.0
        assert times[51] == 5.0 + 0.1
        assert times[61] == 5.0 + 1.1
        assert times[-2] == times[-1] == 5.0 + 1.1 + 0.7 + 0.25

    def test_segment_times_come_from_the_index(self):
        from repro.jpwr.cli import segment_sample_times

        assert segment_sample_times(2.0, 0.3, 0.1) == [2.0 + 0.1, 2.0 + 2 * 0.1, 2.3]
        assert segment_sample_times(0.0, 0.05, 0.1) == [0.05]


class TestWrappedCommand:
    def test_wraps_real_command(self):
        code, output = run_cli(["--methods", "pynvml", "--", "true"])
        assert code == 0
        assert "Energy consumed" in output

    def test_propagates_exit_code(self):
        code, _ = run_cli(["--methods", "pynvml", "--", "false"])
        assert code == 1


class TestValidation:
    def test_requires_load_or_command(self, capsys):
        with pytest.raises(SystemExit):
            run(["--methods", "pynvml"])

    def test_rejects_bad_load_spec(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="UTIL:SECONDS"):
            run(["--methods", "pynvml", "--load", "fast"])

    def test_rejects_out_of_range_util(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="utilisation"):
            run(["--methods", "pynvml", "--load", "1.5:1"])

    def test_parser_lists_methods(self):
        parser = build_parser()
        text = parser.format_help()
        assert "pynvml" in text and "--df-suffix" in text
