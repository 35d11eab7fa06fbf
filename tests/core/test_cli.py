"""Artifact-style CLI tests (gpu-scale-model)."""

import contextlib
import io

import pytest

from repro.core.cli import build_parser, main, run
from repro.exceptions import PredictionError


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = run(args, out=out)
    return code, out.getvalue()


class TestCli:
    def test_pre_cliff_prediction(self):
        code, text = run_cli(
            ["100", "190", "3", "3", "3", "3", "3", "--small-sms", "8"]
        )
        assert code == 0
        assert "Correction factor C (Eq. 1): 0.950" in text
        assert "No cliff detected" in text
        # Eq. 2 at 128 SMs: 190 * 8 * 0.95 = 1444.
        assert "1444.0" in text

    def test_cliff_prediction_with_f_mem(self):
        code, text = run_cli(
            ["100", "190", "2.1", "2.1", "2.1", "2.1", "0.2",
             "--small-sms", "8", "--f-mem", "0.5"]
        )
        assert code == 0
        assert "Cliff detected between 17.00 MB and 34.00 MB" in text
        # Eq. 3 at 128: 190 * 8 / 0.5 = 3040.
        assert "3040.0" in text
        assert "[cliff]" in text

    def test_reports_all_methods(self):
        __, text = run_cli(
            ["100", "190", "3", "3", "3", "--small-sms", "8"]
        )
        for name in ("logarithmic", "proportional", "linear", "power-law"):
            assert name in text

    def test_plot_flag(self):
        code, text = run_cli(
            ["100", "190", "3", "3", "3", "3", "3", "--small-sms", "8",
             "--plot"]
        )
        assert code == 0
        assert "Predicted IPC vs system size" in text

    def test_main_writes_to_the_current_stdout(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["100", "190", "3", "3", "3", "--small-sms", "8"]) == 0
        assert "Correction factor C (Eq. 1): 0.950" in buf.getvalue()

    def test_too_few_mpki_values(self):
        assert main(["100", "190", "3", "3", "--small-sms", "8"]) == 2

    def test_invalid_small_sms(self):
        assert main(["100", "190", "3", "3", "3", "--small-sms", "0"]) == 2

    @pytest.mark.parametrize("ipcs", [["nan", "190"], ["100", "inf"]])
    def test_non_finite_ipc_exits_before_any_table(self, ipcs):
        argv = ipcs + ["8", "8", "1", "1", "1",
                       "--small-sms", "8", "--f-mem", "0.5"]
        out = io.StringIO()
        with pytest.raises(PredictionError, match="finite and positive"):
            run(build_parser().parse_args(argv), out=out)
        assert out.getvalue() == ""  # not even "Correction factor C: nan"
        assert main(argv) == 2

    def test_chiplet_mode(self):
        """The artifact supports chiplets by passing chiplet counts."""
        code, text = run_cli(
            ["500", "980", "2", "2", "2", "--small-sms", "4",
             "--llc-mb-per-sm", "4.5"]
        )
        assert code == 0
        assert "16" in text  # predicts the 16-chiplet point
