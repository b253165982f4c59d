"""Golden report bytes of the soundness sweeps, and the JSON writer.

The digests were recorded with the per-record scalar sweep (one config,
exact gap and dual-path bound per record).  The batched k-panel pass must
reproduce them byte for byte; so must any later rework of the sweep.
"""

import hashlib
import json

import pytest

from fracbound.cli import (RunConfig, VerificationReport, cmd_audit_corollaries,
                           cmd_check_identities, cmd_sweep, cmd_verify_bullen,
                           cmd_verify_hadamard, main)
from fracbound.quadrature import Interval

GOLDEN_ALPHAS = ("0.25", "1", "3.5")

# (command, seed, interval, format) -> sha256 of the report bytes, 30 trials.
GOLDEN_SHA256 = {
    ("verify-hadamard", 1, "0,1", "json"):
        "5d33dce42de414d92d14aac1181b7813be54c9213beaa364a8e77d1b6365724b",
    ("verify-hadamard", 1, "0,1", "csv"):
        "15c42e3817fbe968e01aff2d9835a43214676376be9aeee7004b622c6158a139",
    ("verify-hadamard", 1, "-3,5", "json"):
        "21d5292e22cb395a53acdbb1e55c78627a6f72d162a6b52c37edcfd61502eb81",
    ("verify-hadamard", 1, "-3,5", "csv"):
        "8cbc46ba58e57854f01f4234925bff6e31def99b11c62963ee39a83da587b3e7",
    ("verify-hadamard", 42, "0,1", "json"):
        "6b22ed4501c35e3c0097292edb546edc1811d2717f26ef8c4610f20d6c4c42be",
    ("verify-hadamard", 42, "0,1", "csv"):
        "b5e949be5355612b3e997bcb7cd643cebbb25427a5a29e4cdd94ac4c9e1c6aec",
    ("verify-hadamard", 42, "-3,5", "json"):
        "6c72f13d1e973faa4df60c192c23db0a9b40b6fe876b042ec53c0ecc97263007",
    ("verify-hadamard", 42, "-3,5", "csv"):
        "82d6879764a0d81f4f78f08a893d9197faa8b0fea7e434aee33147a5bf5544a8",
    ("verify-bullen", 1, "0,1", "json"):
        "b58ef31ee23dbc9724edd6e7e2d289879a3e4aa8886c9163c413a84cd8ea2830",
    ("verify-bullen", 1, "0,1", "csv"):
        "74b01d4a7d67562bee361a63b1d6dc2b00d88d6fc695585e10fd724242baf4e6",
    ("verify-bullen", 1, "-3,5", "json"):
        "92f62998c4f154e6afa7ed19997bceb6452f9998524fa10fc764f17ce7b8fd0d",
    ("verify-bullen", 1, "-3,5", "csv"):
        "ec7b84b5c2e649ffbe1c620e5fbab92c3b130c041ad41aede6923c4dd9f3c709",
    ("verify-bullen", 42, "0,1", "json"):
        "9af9062048447a4bdb34d63691b74879073c5f0487dffe59d2ad3eb2d18a5d2c",
    ("verify-bullen", 42, "0,1", "csv"):
        "ec1b0b98df6d241b8151b6102e04f0ce7ed7a57ea13825430d85f23f35789144",
    ("verify-bullen", 42, "-3,5", "json"):
        "9f356dcf6240c79309bff4fa1edd0cc2aac4e1af1eb1c8ce4dd0a80437c41ec4",
    ("verify-bullen", 42, "-3,5", "csv"):
        "3a983787c602ac3ca5445e990f54d374936036d84c769afb5d3775d9589e99e9",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256), ids=lambda c: "-".join(map(str, c)))
def test_verify_report_golden_digest(case, tmp_path):
    command, seed, interval, fmt = case
    out = tmp_path / f"report.{fmt}"
    argv = [command, "--trials", "30", "--seed", str(seed), f"--interval={interval}",
            "--format", fmt, "--out", str(out)]
    for alpha in GOLDEN_ALPHAS:
        argv += ["--alpha", alpha]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[case]


# ----------------------------------------------------------------------
# JSON writer: same bytes as json.dumps(indent=1)
# ----------------------------------------------------------------------

def _reference_json(rep: VerificationReport) -> bytes:
    doc = rep._header()
    doc["aggregate"] = rep.aggregate
    doc["records"] = [{c: r[c] for c in rep.columns if c in r} for r in rep.records]
    doc["errata"] = rep.errata
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


@pytest.mark.parametrize("build", [
    lambda: cmd_verify_hadamard(RunConfig(trials=12)),
    lambda: cmd_verify_bullen(RunConfig(trials=12, interval=Interval(-3.0, 5.0))),
    lambda: cmd_check_identities(RunConfig(trials=1, alpha_grid=(0.5, 2.0))),
    lambda: cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=(1.0, 2.0))),
    lambda: cmd_sweep(RunConfig(trials=1, alpha_grid=(0.5,)), "hadamard"),
    lambda: cmd_sweep(RunConfig(trials=1, alpha_grid=(0.5,)), "bullen"),
], ids=["verify-hadamard", "verify-bullen", "check-identities", "audit-corollaries",
        "sweep-hadamard", "sweep-bullen"])
def test_json_writer_matches_indent1_on_reports(build):
    rep = build()
    assert rep.to_json_bytes() == _reference_json(rep)


SYNTHETIC_COLUMNS = ("i", "f", "b", "n", "s")
SYNTHETIC_RECORDS = [
    {"i": 0, "f": float("inf"), "b": True, "n": None, "s": "plain"},
    {"i": -7, "f": float("-inf"), "b": False, "n": None, "s": 'a", "b'},
    {"i": 2 ** 70, "f": float("nan"), "b": True, "n": None, "s": 'quote " and \\ slash'},
    {"i": 3, "f": -0.0, "b": False, "s": "non-ASCII: éα≤\U0001d53c"},
    {"f": 1e-310, "s": "}, {\n  \"x\": 1"},
    {"i": 5, "f": 0.1, "n": None, "s": ""},
]


@pytest.mark.parametrize("records", [
    SYNTHETIC_RECORDS,
    [],
    [{"i": 1}],
    [{}, {"i": 1}, {}],
    [{"i": 1, "s": ["nested", {"x": 1.5}]}, {"i": 2}],
], ids=["scalars", "empty-list", "single", "empty-records", "nested-fallback"])
def test_json_writer_matches_indent1_on_synthetic_records(records):
    rep = VerificationReport("synthetic", RunConfig(trials=1), SYNTHETIC_COLUMNS,
                             records, {"evaluations": len(records), "x": float("inf")},
                             [{"formula_id": "f", "witness_params": {"alpha": 1.0}}])
    assert rep.to_json_bytes() == _reference_json(rep)
