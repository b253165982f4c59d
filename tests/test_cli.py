"""Harness commands: determinism, report schema, exit codes, sweep format."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fracbound import __version__, bounds, cli, corpus, engine
from fracbound.bounds import abs_moment_closed
from fracbound.cli import (RESIDUAL_LIMIT, RunConfig, cmd_audit_corollaries,
                           cmd_check_identities, cmd_sweep, cmd_verify_bullen,
                           cmd_verify_hadamard, main)
from fracbound.corpus import tent, to_text
from fracbound.quadrature import DomainError, Integrals, Interval, Order

SMALL = RunConfig(trials=10)


def test_run_config_validation():
    with pytest.raises(DomainError):
        RunConfig(trials=0)
    with pytest.raises(DomainError):
        RunConfig(alpha_grid=())
    with pytest.raises(DomainError):
        RunConfig(alpha_grid=(0.5, 200.0))
    with pytest.raises(DomainError):
        RunConfig(fmt="yaml")
    assert RunConfig().seed == 42
    assert RunConfig().alpha_grid == (0.5, 1.0, 1.5, 2.0)


def test_run_config_order_range_is_the_order_range():
    # The grid accepts exactly the orders Order accepts, ALPHA_MIN included.
    assert RunConfig(alpha_grid=(1e-6,)).alpha_grid == (1e-6,)
    assert RunConfig(alpha_grid=(170.0,)).alpha_grid == (170.0,)
    for alpha in (9.99e-7, 170.0001, math.nan, math.inf):
        with pytest.raises(DomainError):
            RunConfig(alpha_grid=(0.5, alpha))


@pytest.mark.parametrize("argv", [
    ["verify-hadamard", "--seed", "-1", "--trials", "1"],
    ["verify-bullen", "--seed", "-1", "--trials", "1"],
    ["check-identities", "--seed", "-1", "--alpha", "1"],
    ["audit-corollaries", "--seed", "-1", "--alpha", "1"],
    ["audit-corollaries", "--seed", "-3", "--alpha", "1"],
    ["sweep", "hadamard", "--seed", "-5"],
], ids=lambda argv: argv[0] if argv[0] != "audit-corollaries" else f"audit{argv[2]}")
def test_negative_seed_exits_2_naming_the_seed(argv, capsys):
    # A seed feeds numpy's SeedSequence, which wants a nonnegative integer;
    # every command refuses a negative one up front, in the same words.
    seed = argv[argv.index("--seed") + 1]
    assert main(argv + ["--out", os.devnull]) == 2
    assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err
    with pytest.raises(DomainError, match=seed):
        RunConfig(seed=int(seed))


# ----------------------------------------------------------------------
# verify commands
# ----------------------------------------------------------------------

def test_verify_hadamard_small_run():
    rep = cmd_verify_hadamard(SMALL)
    assert rep.aggregate["violations"] == 0
    assert rep.aggregate["evaluations"] == 10 * 4
    assert rep.aggregate["max_oracle_residual"] <= 1e-8
    assert rep.aggregate["oracle_checks"] >= 1


def test_verify_bullen_small_run():
    rep = cmd_verify_bullen(SMALL)
    assert rep.aggregate["violations"] == 0
    assert rep.aggregate["evaluations"] == 40
    assert rep.aggregate["max_oracle_residual"] <= 1e-8


def test_constant_witness_run_gap_zero(monkeypatch):
    monkeypatch.setattr(cli, "M_MAX", 0.0)
    rep = cmd_verify_hadamard(RunConfig(trials=5))
    assert rep.aggregate["violations"] == 0
    assert all(r["gap"] <= 1e-12 for r in rep.records)
    assert all(r["m"] == 0.0 for r in rep.records)


def test_reports_byte_identical():
    for fmt in ("json", "csv"):
        run = RunConfig(trials=7, fmt=fmt)
        assert cmd_verify_hadamard(run).to_bytes() == cmd_verify_hadamard(run).to_bytes()
        assert cmd_verify_bullen(run).to_bytes() == cmd_verify_bullen(run).to_bytes()


def test_seed_changes_records():
    a = cmd_verify_hadamard(RunConfig(trials=3, seed=1)).to_bytes()
    b = cmd_verify_hadamard(RunConfig(trials=3, seed=2)).to_bytes()
    assert a != b


def test_json_schema_and_self_consistency():
    rep = cmd_verify_hadamard(RunConfig(trials=12))
    doc = json.loads(rep.to_json_bytes())
    assert doc["schema_version"] == 1
    assert doc["tool_version"] == __version__
    assert doc["run"]["seed"] == 42
    assert len(doc["records"]) == doc["aggregate"]["evaluations"]
    # aggregates recomputable from the per-trial records
    assert doc["aggregate"]["violations"] == sum(not r["passed"] for r in doc["records"])
    ratios = [r["ratio"] for r in doc["records"]]
    assert doc["aggregate"]["max_ratio"] == pytest.approx(max(ratios))
    resids = [r["oracle_residual"] for r in doc["records"] if "oracle_residual" in r]
    assert doc["aggregate"]["oracle_checks"] == len(resids)
    assert doc["aggregate"]["max_oracle_residual"] == pytest.approx(max(resids))
    # serialized floats round-trip exactly
    rec = doc["records"][0]
    assert isinstance(rec["gap"], float)


def test_csv_has_fixed_header_and_17_digit_floats():
    rep = cmd_verify_hadamard(RunConfig(trials=2, fmt="csv"))
    lines = rep.to_bytes().decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "trial,alpha,lam,x,y,m,gap,bound,ratio,passed,method,oracle_residual"
    row = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert float(row[2]) == json.loads(rep.to_json_bytes())["records"][0]["lam"]


# ----------------------------------------------------------------------
# check-identities
# ----------------------------------------------------------------------

def test_check_identities_defaults():
    rep = cmd_check_identities(RunConfig(trials=1))
    agg = rep.aggregate
    assert agg["evaluations"] >= 500
    assert agg["max_residual"] <= 1e-8
    assert agg["residual_breaches"] == 0
    assert agg["continuity_breaches"] == 0
    assert agg["max_continuity_delta"] <= 1e-6
    cases = {r["case"] for r in rep.records if r["kind"] == "moment"}
    assert len([c for c in cases if c.startswith("two_node")]) == 3
    assert len([c for c in cases if c.startswith("three_node")]) == 8


def test_check_identities_unit_order_residuals_tiny():
    rep = cmd_check_identities(RunConfig(trials=1, alpha_grid=(1.0,)))
    moments = [r for r in rep.records if r["kind"] == "moment"]
    assert max(r["residual"] for r in moments) <= 1e-12


def trial_rng(seed, trial):
    """A trial's stream as the module docstring states it, built by numpy one
    SeedSequence and PCG64 at a time: the reference for corpus.streams."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(seq))


def reference_streams(entropy, spawn_keys=None):
    """corpus.streams one numpy stream at a time: trial streams, and the
    witness streams SeedSequence(seed) when there are no spawn keys."""
    if spawn_keys is None:
        for seed in entropy:
            yield np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for seed, key in zip(entropy, spawn_keys or ()):
        yield trial_rng(seed, key)


@pytest.mark.parametrize("seed", [0, 3, 2 ** 32, 2 ** 64, 2 ** 100 + 7])
def test_commands_draw_every_trial_from_its_documented_stream(seed, monkeypatch):
    run = RunConfig(seed=seed, trials=30, alpha_grid=(0.5, 2.0))
    commands = (cmd_verify_hadamard, cmd_verify_bullen, cmd_check_identities)
    fast = [command(run).to_bytes() for command in commands]
    monkeypatch.setattr(corpus, "streams", reference_streams)
    assert [command(run).to_bytes() for command in commands] == fast


def test_check_identities_draws_each_sample_once_per_run(monkeypatch):
    # A sample's stream does not depend on the order: one draw per
    # (ordering case x k) serves every order of the grid.  Both grids have
    # two orders, so both draw 23 samples per case.
    per_case = 23
    trials = []
    streams = corpus.streams

    def counted(entropy, spawn_keys=None):
        for key, rng in zip(spawn_keys, streams(entropy, spawn_keys)):
            trials.append(key)
            yield rng

    monkeypatch.setattr(corpus, "streams", counted)
    reports = {}
    for grid in ((0.5, 2.0), (2.0, 0.5)):
        trials.clear()
        reports[grid] = cmd_check_identities(RunConfig(alpha_grid=grid))
        assert len(trials) == len(set(trials)) == 11 * per_case
        assert reports[grid].aggregate["evaluations"] == 11 * per_case * len(grid)
    at_2 = lambda rep: [r for r in rep.records if r["kind"] == "moment" and r["alpha"] == 2.0]
    assert at_2(reports[(0.5, 2.0)]) == at_2(reports[(2.0, 0.5)])
    assert len(at_2(reports[(2.0, 0.5)])) == (3 * 2 + 8 * 3) * per_case


@pytest.mark.parametrize("seed", (0, 42))
@pytest.mark.parametrize("itv", (Interval(0.0, 1.0), Interval(-3.0, 5.0)),
                         ids=lambda i: f"[{i.a:g},{i.b:g}]")
def test_identity_case_n_lands_in_ordering_n(seed, itv):
    # Every sample of <family>_case<n> has the branch tuple of the n-th
    # ordering of the family's tag table, as the literal encoding reads it.
    _, moments = cli._identity_moments(RunConfig(seed=seed, alpha_grid=(1.0,), interval=itv))
    starts = [i for i, m in enumerate(moments) if m[1] == "left"] + [len(moments)]
    seen = {}
    for start, stop in zip(starts, starts[1:]):
        tags, _, nodes, lower, upper = zip(*moments[start:stop])
        family, case = tags[0].rsplit("_case", 1)
        table = {"two_node": bounds._HADAMARD_TAGS, "three_node": bounds._BULLEN_TAGS}[family]
        assert len(set(tags)) == 1 and len(nodes) == len(next(iter(table)))
        panels = bounds.PanelConfig(itv, Order(1.0), (1.0 / len(nodes),) * len(nodes), nodes,
                                    lower + upper[-1:])
        assert bounds._breakdown(panels, table).case_tag == list(table.values())[int(case) - 1]
        seen[tags[0]] = seen.get(tags[0], 0) + 1
    assert len(seen) == 11 and set(seen.values()) == {max(12, -(-500 // 11))}


@pytest.mark.parametrize("interval", ["0,1e-12", "0,1e-200", "-3,-2.9999999999"])
def test_check_identities_on_a_narrow_interval(interval, tmp_path, capsys):
    # The continuity probes step 1e-9 of the width, or to the float
    # neighbours of the case boundary, and never leave the interval.
    out = tmp_path / "identities.json"
    argv = ["check-identities", f"--interval={interval}", "--alpha", "0.5",
            "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    doc = json.loads(out.read_bytes())
    assert doc["aggregate"]["continuity_breaches"] == 0
    assert len([r for r in doc["records"] if r["kind"] == "continuity"]) == 6


@pytest.mark.parametrize("interval", ["0,1", "-3,5", "1e8,100000001", "-3,-2.9999999999",
                                      "-1e8,-99999999.99999", "1e12,1000000000000.001"])
def test_continuity_probes_cross_their_case_boundary(interval, monkeypatch):
    # On an offset interval +-1e-9 (b - a) can be below half an ulp of the
    # boundary; each probe then steps to the float neighbours of the panel
    # edge, so its two sides still take different orderings.
    seen = []
    v_panels = bounds.v_panels

    def recording(cfg):
        seen.append(cfg)
        return v_panels(cfg)

    monkeypatch.setattr(bounds, "v_panels", recording)
    itv = cli._parse_interval(interval)
    probes = list(cli._continuity_probes(itv, (0.5, 2.0), 1e-9 * itv.width))
    assert len(probes) == 12 and all(slack >= 0.0 for *_, slack in probes)
    for cfg in seen:
        tags = bounds._HADAMARD_TAGS if cfg.nodes.shape[1] == 2 else bounds._BULLEN_TAGS
        case = [bounds._breakdown(cfg.row(i), tags).case_tag for i in range(len(cfg.alpha))]
        assert all(below != above for below, above in zip(case[::2], case[1::2]))
        assert (cfg.nodes >= itv.a).all() and (cfg.nodes <= itv.b).all()


def test_continuity_probes_check_something_on_an_offset_interval():
    # +-1e-9 (b - a) is below half an ulp of 1e8: probes moved by that alone
    # would read value_below == value_above and check nothing.
    rep = cmd_check_identities(RunConfig(interval=Interval(1e8, 100000001.0)))
    probes = [r for r in rep.records if r["kind"] == "continuity"]
    assert len(probes) == 24
    assert all(r["closed"] != r["quad"] and r["residual"] > 0.0 for r in probes)
    assert rep.aggregate["continuity_breaches"] == 0


def test_oracle_residual_rule():
    # |closed - quad| / max(1, |quad|); inf where the oracle gave up with a
    # non-finite estimate; a breach above RESIDUAL_LIMIT or without
    # convergence; the maximum skips NaN.
    closed = np.array([2.0, 1.0, 1.0, math.nan, 5.0, math.inf])
    quad = np.array([2.0 + 4e-8, 1.0, math.nan, 1.0, 5.0, math.inf])
    converged = np.array([True, False, False, True, True, True])
    resid, worst, breaches = cli._oracle_residuals(closed, quad, converged)
    assert resid[[0, 1, 2, 4]].tolist() == [abs(2.0 - quad[0]) / quad[0], 0.0, math.inf, 0.0]
    assert math.isnan(resid[3]) and math.isnan(resid[5])
    assert worst == math.inf
    assert breaches == 3
    assert cli._oracle_residuals(closed[3:4], quad[3:4], converged[3:4])[1:] == (0.0, 0)


# ----------------------------------------------------------------------
# audit-corollaries
# ----------------------------------------------------------------------

AUDIT_GRID = (0.5, 1.0, 1.5, 2.0, 3.0)
EXPECTED_LEDGER = ("midpoint_triple_coeff_case7", "midpoint_triple_coeff_case8",
                   "shifted_single_node_bound", "simpson_theta_third_bound")


def test_audit_ledger_golden():
    rep = cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=AUDIT_GRID))
    assert tuple(e["formula_id"] for e in rep.errata) == EXPECTED_LEDGER
    assert all(e["max_abs_deviation"] > 1e-8 for e in rep.errata)
    assert all("alpha" in e["witness_params"] for e in rep.errata)
    assert rep.aggregate["violations"] == 0


def test_audit_alpha1_every_formula_agrees_or_ledgered():
    rep = cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=(1.0,)))
    ledgered = {e["formula_id"] for e in rep.errata}
    for rec in rep.records:
        if "deviation" in rec and rec["deviation"] > 1e-10:
            assert rec["formula_id"] in ledgered


def test_audit_deterministic_and_empty_grid_handling():
    r1 = cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=AUDIT_GRID)).to_bytes()
    r2 = cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=AUDIT_GRID)).to_bytes()
    assert r1 == r2


def test_audit_classical_diagnostics_present():
    rep = cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=(1.0,)))
    ids = {r["formula_id"] for r in rep.records}
    assert "bullen_remark_classical_alpha1" in ids
    assert "simpson_remark_classical_alpha1" in ids
    simpson = [r for r in rep.records if r["formula_id"] == "simpson_remark_classical_alpha1"][0]
    # tent witness: Simpson value 1/6, mean 1/4, literal coefficient 5/36
    assert simpson["gap"] == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert simpson["bound_used"] == pytest.approx(5.0 / 36.0, rel=1e-12)
    assert simpson["passed"]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_single_grid_point():
    rep = cmd_sweep(RunConfig(trials=1, alpha_grid=(1.0,)), "hadamard")
    assert len(rep.records) == len(cli.SWEEP_LAMBDAS) * len(cli.SWEEP_DELTAS)
    assert rep.columns == ("alpha", "lam", "delta", "gap", "bound", "ratio")
    (row,) = [r for r in rep.records if r["lam"] == 0.5 and r["delta"] == 0.5]
    assert row["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_sweep_sharpness_row():
    rep = cmd_sweep(RunConfig(trials=1), "hadamard")
    rows = [r for r in rep.records if r["lam"] == 0.5 and r["delta"] == 0.5]
    assert len(rows) == 4
    for r in rows:
        assert r["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_bullen_columns_and_soundness():
    rep = cmd_sweep(RunConfig(trials=1, alpha_grid=(0.5, 2.0)), "bullen")
    assert rep.columns == ("alpha", "lam", "eta", "delta", "gap", "bound", "ratio")
    assert rep.aggregate["violations"] == 0
    assert all(r["lam"] + r["eta"] <= 1.0 for r in rep.records)


def test_sweep_witness_loading(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(to_text(tent(Interval(0.0, 1.0), 0.25)))
    rep = cmd_sweep(RunConfig(trials=1, alpha_grid=(1.0,)), "hadamard",
                    witness_path=str(path))
    assert rep.aggregate["violations"] == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(to_text(tent(Interval(0.0, 2.0), 0.5)))
    with pytest.raises(DomainError):
        cmd_sweep(RunConfig(trials=1), "hadamard", witness_path=str(bad))
    with pytest.raises(DomainError):
        cmd_sweep(RunConfig(trials=1), "fourier")


# ----------------------------------------------------------------------
# main() and exit codes
# ----------------------------------------------------------------------

def test_main_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify-hadamard", "--trials", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["command"] == "verify-hadamard"
    assert doc["run"]["trials"] == 5


def test_main_flag_parsing(tmp_path):
    out = tmp_path / "rep.csv"
    code = main(["sweep", "hadamard", "--alpha", "0.5", "--alpha", "1.5",
                 "--interval", "-1,3", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# command=sweep-hadamard" in text
    assert "alpha,lam,delta,gap,bound,ratio" in text


@pytest.mark.parametrize("argv", [
    ["check-identities", "--alpha", "0.5", "--alpha", "2"],
    ["verify-hadamard", "--trials", "4"],
], ids=["check-identities", "verify-hadamard"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stderr_counts_the_records_written_and_the_evaluations(argv, fmt, tmp_path, capsys):
    # check-identities writes a record per panel moment and continuity
    # probe, but counts samples x orders as its evaluations; the console
    # line gives both, each under its own name.
    out = tmp_path / f"report.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "json":
        doc = json.loads(text)
        records, evaluations = len(doc["records"]), doc["aggregate"]["evaluations"]
    else:
        lines = text.splitlines()
        records = sum(not line.startswith("#") for line in lines) - 1
        (evaluations,) = [int(line.split("=")[1]) for line in lines
                          if line.startswith("# aggregate evaluations=")]
    if argv[0] == "check-identities":
        assert records > evaluations
    err = capsys.readouterr().err
    assert f"fracbound {argv[0]}: {records} records, {evaluations} evaluations, 0 violations" in err


@pytest.mark.parametrize("interval", [["--interval", "-1,3"], ["--interval=-1,3"],
                                      ["--interval", "-.5,2"], ["--interval", "-3,-2.5"],
                                      ["--int", "-1,3"]])
def test_interval_with_a_negative_left_end_parses_as_two_tokens(interval, tmp_path):
    # A value that starts with "-" reads to argparse as an option; the
    # documented form "--interval A,B" takes a negative A all the same.
    out = tmp_path / "rep.csv"
    argv = ["verify-bullen", "--trials", "3", *interval, "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    a, b = interval[-1].split("=")[-1].split(",")
    assert "interval=%.17g,%.17g " % (float(a), float(b)) in out.read_text()


def test_main_exit_2_on_bad_config(tmp_path):
    assert main(["verify-hadamard", "--interval", "5,1"]) == 2
    assert main(["verify-hadamard", "--interval", "nope"]) == 2
    assert main(["verify-hadamard", "--interval", "1,1"]) == 2
    assert main(["verify-hadamard", "--interval", "-1"]) == 2
    assert main(["verify-hadamard", "--interval", "3,-1"]) == 2
    assert main(["verify-hadamard", "--alpha", "999"]) == 2
    assert main(["check-identities", "--out", str(tmp_path / "no" / "dir" / "x")]) == 2


def test_main_identical_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-bullen", "--trials", "6", "--out", str(a)]) == 0
    assert main(["verify-bullen", "--trials", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fracbound.cli", "verify-hadamard", "--trials", "3",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-hadamard" in proc.stderr
    assert json.loads(out.read_bytes())["aggregate"]["violations"] == 0


def test_main_exit_2_on_one_ulp_interval():
    # Five distinct interior breakpoints cannot fit between two adjacent
    # floats: the witness draw must give up with a configuration error
    # instead of redrawing forever.
    proc = subprocess.run(
        [sys.executable, "-m", "fracbound.cli", "verify-bullen",
         "--interval", "1,1.0000000000000002", "--trials", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify-bullen", "--interval", "0,1e10", "--alpha", "170", "--trials", "3"],
    ["verify-bullen", "--trials", "3", "--interval", "0,0.9", "--alpha", "170"],
    ["verify-hadamard", "--trials", "3", "--interval", "0,0.01", "--alpha", "100"],
    ["sweep", "hadamard", "--interval=0,0.5", "--alpha", "170"],
], ids=["width-power", "gap-scale-verify-bullen", "gap-scale-verify-hadamard",
        "gap-scale-sweep-hadamard"])
def test_main_exit_2_on_power_overflow(argv, capsys):
    # (b - a)^alpha overflows, or stays finite while the gap's scale
    # Gamma(alpha + 1)/(b - a)^alpha does not (inf * 0 read as a NaN gap).
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fracbound: configuration error:")


@pytest.mark.xfail(strict=True,
                   reason="at order 170 on [0, 1] every panel integral is divided by "
                          "Gamma(170) and underflows to zero, so the gap reads "
                          "sum w^alpha f(x_p) alone; 60-digit ratios are 0.43, 0.024, 0.094")
def test_verify_bullen_order_170_ratios_are_sound():
    rep = cmd_verify_bullen(RunConfig(trials=3, alpha_grid=(170.0,)))
    assert rep.aggregate["violations"] == 0
    assert max(r["ratio"] for r in rep.records) <= 1.0 + 1e-9


@pytest.mark.parametrize("argv", [
    ["verify-bullen", "--interval", "0,1e-200", "--alpha", "2", "--trials", "3"],
    ["verify-hadamard", "--interval", "0,1e-200", "--alpha", "2", "--trials", "3"],
    ["sweep", "hadamard", "--interval=0,1e-300", "--alpha", "1.5"],
    ["sweep", "bullen", "--interval=0,1e-300", "--alpha", "1.5"],
    ["sweep", "hadamard", "--interval=0,1e-160", "--alpha", "2"],
], ids=["verify-bullen", "verify-hadamard", "sweep-hadamard", "sweep-bullen",
        "sweep-hadamard-subnormal"])
def test_main_exit_2_on_width_power_underflow(argv, capsys):
    # (b - a)^alpha underflows to 0 or to a subnormal: the gap and the
    # bound divide by it.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fracbound: configuration error:")
    assert "underflow" in captured.err


def test_audit_corollaries_runs_on_an_underflowing_interval(tmp_path):
    # The audit works on the canonical interval [0, 1] whatever the run's is.
    out = tmp_path / "audit.json"
    argv = ["audit-corollaries", "--interval", "0,1e-200", "--alpha", "2", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_bytes())["aggregate"]["evaluations"] == 192


@pytest.mark.parametrize("argv", [
    ["verify-bullen", "--trials", "3", "--interval", "1e8,1.00000001e8"],
], ids=["verify-bullen-narrow"])
def test_oracle_nonconvergence_is_an_oracle_breach(argv, tmp_path, capsys):
    # The quadrature oracle gives up on these intervals; that is a breach of
    # the oracle check, reported with the rest, not a crash.
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 1
    doc = json.loads(out.read_bytes())
    agg = doc["aggregate"]
    assert set(agg) == {"evaluations", "violations", "max_ratio", "oracle_checks",
                        "max_oracle_residual", "oracle_residual_breaches"}
    resids = [r["oracle_residual"] for r in doc["records"] if "oracle_residual" in r]
    assert len(resids) == agg["oracle_checks"]
    failed = [r for r in resids if not r <= RESIDUAL_LIMIT]
    breaches = agg["oracle_residual_breaches"]
    assert 1 <= breaches
    # Each check that did not converge is a breach, whatever its residual
    # against the estimate the oracle gave up with.
    err = capsys.readouterr().err
    assert f"{breaches - len(failed)} oracle checks did not converge" in err


def test_wide_interval_gaps_are_finite(tmp_path, capsys):
    # Node values of width 1e223 once overflowed in the interpolation
    # product rise * run before its division, giving gaps of inf and NaN,
    # two false violations and a quadrature oracle that did not converge.
    out = tmp_path / "report.json"
    argv = ["verify-hadamard", "--trials", "2", "--interval=1.0,2.783936096400912e+223",
            "--alpha", "0.00024042605507295582", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_bytes())
    assert doc["aggregate"]["violations"] == 0
    assert doc["aggregate"]["oracle_residual_breaches"] == 0
    assert all(math.isfinite(r["gap"]) and r["passed"] for r in doc["records"])
    assert "did not converge" not in capsys.readouterr().err


@pytest.mark.parametrize("estimate", ["exact", math.nan])
def test_nonconverging_oracle_check_is_a_breach_whatever_its_estimate(estimate, monkeypatch):
    # The oracle gives up with its best estimate: the check counts as a
    # breach even when that estimate happens to match the exact gap, and
    # a non-finite estimate records an infinite residual.
    def gives_up(config, witnesses):
        gap = engine.panel_gap(config, witnesses) if estimate == "exact" else estimate
        return np.broadcast_to(gap, config.alpha.shape), np.zeros(config.alpha.shape, bool)

    monkeypatch.setattr(engine, "panel_quadrature_gap", gives_up)
    rep = cmd_verify_bullen(RunConfig(trials=3))
    resids = [r["oracle_residual"] for r in rep.records if "oracle_residual" in r]
    assert len(resids) == rep.aggregate["oracle_checks"] == 4
    assert rep.oracle_failures == rep.aggregate["oracle_residual_breaches"] == 4
    assert rep.aggregate["violations"] == 0
    if estimate == "exact":
        assert max(resids) <= 1e-15
    else:
        assert resids == [math.inf] * 4


@pytest.mark.parametrize("estimate", ["closed", math.nan])
def test_nonconverging_identity_check_is_a_breach_whatever_its_estimate(estimate, monkeypatch,
                                                                         tmp_path, capsys):
    # check-identities' oracle gives up on every moment: each moment record
    # is a residual breach, counted in residual_breaches, even when the
    # estimate equals the closed form; a NaN estimate records an infinite
    # residual.
    def gives_up(x, lower, upper, right, alpha):
        order = Order(alpha)
        if estimate == "closed":
            value = [abs_moment_closed(xi, lo, hi, order) if r
                     else abs_moment_closed(-xi, -hi, -lo, order)
                     for xi, lo, hi, r in zip(x, lower, upper, right)]
        else:
            value = [estimate] * len(x)
        n = len(x)
        return Integrals(np.array(value, float), np.full(n, math.inf), np.zeros(n, bool))

    monkeypatch.setattr(cli, "abs_moments", gives_up)
    run = RunConfig(alpha_grid=(0.5, 2.0))
    rep = cmd_check_identities(run)
    resids = [r["residual"] for r in rep.records if r["kind"] == "moment"]
    assert len(resids) > 0
    assert rep.oracle_failures == rep.aggregate["residual_breaches"] == len(resids)
    assert "oracle_residual_breaches" not in rep.aggregate
    if estimate == "closed":
        assert max(resids) <= 1e-15
    else:
        assert resids == [math.inf] * len(resids)
        assert rep.aggregate["max_residual"] == math.inf
    out = tmp_path / "report.json"
    assert main(["check-identities", "--alpha", "0.5", "--alpha", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (f"{len(resids)} oracle checks did not converge; each counts in the aggregate's "
            f"residual_breaches") in err
