"""The exit-code contract of the CLI as a property: whatever interval and
order the parser accepts, a run ends with 0 (all checks pass), 1 (a
violation or an oracle breach) or 2 (a configuration error), never with an
exception.  check-identities has its own, smaller budget: a run checks
about 500 samples whatever the interval.  audit-corollaries records
mismatches as ledger data and never exits 1."""

import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbound.cli import main

STARTS = (0.0, 1.0, -3.0, 1e8, -1e8, 1e-300)
COMMANDS = (["verify-hadamard"], ["verify-bullen"], ["sweep", "hadamard"],
            ["sweep", "bullen"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS),
       start=st.sampled_from(STARTS),
       log_width=st.floats(-300.0, 300.0),
       log_alpha=st.floats(-6.0, 2.230448921378274),  # log10(170)
       trials=st.integers(1, 3))
def test_exit_code_is_0_1_or_2(command, start, log_width, log_alpha, trials):
    end = start + 10.0 ** log_width
    alpha = min(10.0 ** log_alpha, 170.0)
    argv = command + [f"--interval={start!r},{end!r}", "--alpha", repr(alpha),
                      "--trials", str(trials), "--out", os.devnull]
    assert main(argv) in (0, 1, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(start=st.sampled_from(STARTS),
       log_width=st.floats(-300.0, 300.0),
       log_alpha=st.floats(-6.0, 2.230448921378274))
# Widths at which a product in the closed moments overflows, ahead of a
# corner power that overflows too (exit 2), and at which one underflows.
@example(start=0.0, log_width=155.0, log_alpha=0.0)
@example(start=0.0, log_width=150.0, log_alpha=math.log10(2.0))
@example(start=0.0, log_width=-300.0, log_alpha=0.0)
def test_check_identities_exit_code_is_0_1_or_2(start, log_width, log_alpha):
    end = start + 10.0 ** log_width
    alpha = min(10.0 ** log_alpha, 170.0)
    argv = ["check-identities", f"--interval={start!r},{end!r}", "--alpha", repr(alpha),
            "--out", os.devnull]
    assert main(argv) in (0, 1, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(start=st.sampled_from(STARTS),
       log_width=st.floats(-300.0, 300.0),
       log_alpha=st.floats(-6.0, 2.230448921378274))
def test_audit_corollaries_exit_code_is_0_or_2(start, log_width, log_alpha):
    end = start + 10.0 ** log_width
    alpha = min(10.0 ** log_alpha, 170.0)
    argv = ["audit-corollaries", f"--interval={start!r},{end!r}", "--alpha", repr(alpha),
            "--out", os.devnull]
    assert main(argv) in (0, 2)


@pytest.mark.parametrize("command", COMMANDS[:3] + (["check-identities"], ["audit-corollaries"]),
                         ids=" ".join)
def test_an_interval_whose_width_overflows_exits_2(command, capsys):
    # Both ends are finite but b - a overflows to inf; the error names the
    # width, not a power or numpy's uniform draw.
    argv = command + ["--interval", "-1e308,1e308", "--trials", "2", "--out", os.devnull]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "width" in err


def test_sweep_exits_1_on_a_violation(tmp_path):
    # A tent offset by 1e9: the fixed slack 1e-9 * (1 + bound) does not
    # cover the rounding of node values near 1e9, so some records read as
    # violations, and a violation is exit 1 whatever the command.
    witness = tmp_path / "offset_tent.txt"
    witness.write_text("0 1000000000.5\n0.5 1000000000\n1 1000000000.5\n")
    out = tmp_path / "sweep.json"
    argv = ["sweep", "hadamard", "--witness", str(witness), "--out", str(out)]
    for alpha in ("0.5", "1", "1.5", "2", "3.5"):
        argv += ["--alpha", alpha]
    assert main(argv) == 1
    assert json.loads(out.read_bytes())["aggregate"]["violations"] > 0
