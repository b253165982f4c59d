"""Golden report bytes of every subcommand, and the JSON writer.

The verify digests were recorded with the per-record scalar sweep (one
config, exact gap and dual-path bound per record); the check-identities,
audit-corollaries and sweep digests with the per-node-count panel
moments, gaps and bounds; the audit digests over order grids and with
default arguments with the record-by-record audit.  Every later rework of
the evaluators must reproduce them byte for byte.
"""

import hashlib
import json
from itertools import chain

import pytest

from fracbound.cli import (RunConfig, VerificationReport, cmd_audit_corollaries,
                           cmd_check_identities, cmd_sweep, cmd_verify_bullen,
                           cmd_verify_hadamard, main)
from fracbound.corpus import random_lipschitz, to_text
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


# (command, seed, interval, format) -> sha256 of the report bytes.
GOLDEN_REPORT_SHA256 = {
    ('check-identities', 1, '0,1', 'json'):
        "07020f0ee122e9023a8ad40b6b2f045232ddf04a96dc0db0d49e981c48b3f43b",
    ('check-identities', 1, '0,1', 'csv'):
        "43d9553b4f82970870815b202265fbd83b5687b4408436a91ba4de506f208845",
    ('check-identities', 1, '-3,5', 'json'):
        "5586853308d53cb346fc489c70c1baa37fe2a9d07ef26e6cd37b6067b4d9f1cf",
    ('check-identities', 1, '-3,5', 'csv'):
        "4e895bd9a7261316e7f904b360319bce8f8ec1e8faab8aeccebdb4f9d3ed32d1",
    ('audit-corollaries', 1, '0,1', 'json'):
        "d437477cab0ea4a22585b91296854d9917ca33f761e482423f0af7df71e3cfe4",
    ('audit-corollaries', 1, '0,1', 'csv'):
        "be107e2de0b506d5d986e6692b885605aeb8ca0ef5ff6518471556eaf8a40d31",
    ('check-identities', 42, '0,1', 'json'):
        "c0fb88487e9b8d867cf35c9e7ed122d6e68581a648d77593bc209c5bafdb4973",
    ('check-identities', 42, '0,1', 'csv'):
        "c7573715bb97368482e530743dc1e4b6539439f8bf0b371f8767f7135fdf9e60",
    ('check-identities', 42, '-3,5', 'json'):
        "c6ea7ae500d4d22de57c2d1b3fd1a41e1147c1b817f7985eb9f7e0168b9a2989",
    ('check-identities', 42, '-3,5', 'csv'):
        "4d5cc8ad603dc03ce9fe053f623211fce14333f8c5a93971bda6ff46fd142a73",
    ('audit-corollaries', 42, '0,1', 'json'):
        "acd099b0f1ae7beb93e2adb074fd726eae1194741d2beea82b94b9223c04fabb",
    ('audit-corollaries', 42, '0,1', 'csv'):
        "a520fd625c7f6fe744c6f0835ec3609a4a50113c2313951742b54ffbf0537dd7",
}

# (command, witness, interval, format) -> sha256 of the report bytes;
# "tent" is the default witness, "random7" is random_lipschitz(7, ...)
# written with to_text and passed as --witness.
GOLDEN_SWEEP_SHA256 = {
    ('sweep-hadamard', 'tent', '0,1', 'json'):
        "1d4f2a89fb65dd3f869352ceaa068caffe45f519f9fb63e65aead51d2e1ced55",
    ('sweep-hadamard', 'tent', '0,1', 'csv'):
        "b7d85246c5c38735dafe956b49733c62bae9c56348e64534a01c4c7b4559c888",
    ('sweep-hadamard', 'tent', '-3,5', 'json'):
        "98271e0485d50f2ea8b11826dc8b9a3017cc07dd027637ca11334360aeb01100",
    ('sweep-hadamard', 'tent', '-3,5', 'csv'):
        "d15bd1fc0c35a6d029672434e77eda04beb3ab506b9cfcfcb2f2e29e8a9ed49b",
    ('sweep-hadamard', 'random7', '0,1', 'json'):
        "6d5bab38b5787ec041a436bdc2f2a0da0ff82985b0fde273aef4617367d4a917",
    ('sweep-hadamard', 'random7', '0,1', 'csv'):
        "d1d7ceda3120021adfb197ea7e1fd1390111b47316449f4187f46ba0331a037b",
    ('sweep-hadamard', 'random7', '-3,5', 'json'):
        "821904bf21f083a8ef864325dab498bf701d086dc71bf0e4c2894fd4499128fa",
    ('sweep-hadamard', 'random7', '-3,5', 'csv'):
        "6a3e0d02d2b9cb8dab1e6d5aeaad18e3b2eddfbcb363a5ba2f62a50b35a1498e",
    ('sweep-bullen', 'tent', '0,1', 'json'):
        "9e6eaa41f68186e4a6b3de3595c99a88510f1d07548d667fa3ae446d54cc8c48",
    ('sweep-bullen', 'tent', '0,1', 'csv'):
        "ca737311b763bae543e63f52ce5e9675b970c10e55f5a87107a7635d94ea92a0",
    ('sweep-bullen', 'tent', '-3,5', 'json'):
        "5c2e97e6532cca438fec37ac8ba500f6f6481d74453af9d8e21eb12a498c0af8",
    ('sweep-bullen', 'tent', '-3,5', 'csv'):
        "907b2c41a90a0bf539ecf917058c47e35b97744de8b088b4d6a6f3ceb0eadc03",
    ('sweep-bullen', 'random7', '0,1', 'json'):
        "9740b67c001db02f4212b4fcce33ac225b0a5d4d2f2b371e2886148514b17c4f",
    ('sweep-bullen', 'random7', '0,1', 'csv'):
        "51e89600035eadb2f38e56b972b5baf5a569034d6373519cb7e6cc4fe97a1e34",
    ('sweep-bullen', 'random7', '-3,5', 'json'):
        "90c80a8ebe251121ae2006bbc90e75ae8c3d38c986181b99015f3c8ef665ab29",
    ('sweep-bullen', 'random7', '-3,5', 'csv'):
        "a28f6ace84bc5f9682ca050d4008b98e7d31c4d171f84e8778650dae3970db10",
}


# The corollary audit on [0, 1]: at seed 7 over the benchmark's order grid
# (77 orders, 0.25 to 5 in steps of 0.0625) and over the ends of the order
# range, and with default arguments: (arguments, format) -> sha256 of the
# report bytes.
AUDIT_ARGS = {
    "grid": ("--seed", "7") + tuple(chain.from_iterable(
        ("--alpha", repr(0.25 + i * 0.0625)) for i in range(77))),
    "extremes": ("--seed", "7") + tuple(chain.from_iterable(
        ("--alpha", alpha) for alpha in ("1e-06", "0.25", "1", "30", "170"))),
    "default": (),
}
GOLDEN_AUDIT_ARGS_SHA256 = {
    ("grid", "json"): "0b4eb67c754426f4484019d18f7345c3d461c27f41cfd6010f47aa5bafadfa1e",
    ("grid", "csv"): "d16a06a8610e7c9854b1f226010572cdbd874713123622571639c38f1e88ae2a",
    ("extremes", "json"): "405f26906af5529765f885c238d24af9c761dbdd13e53a2d22c7bab60e20d339",
    ("extremes", "csv"): "caa7d12d15b65ef162fe3ea219558508ab4f897130c789ddef5911a5e35946f2",
    ("default", "json"): "542f6b6d884859045e73fd288d119713df5ea4d1a4341729e9ffd61eac748864",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_AUDIT_ARGS_SHA256), ids="-".join)
def test_audit_golden_digest(case, tmp_path):
    args, fmt = case
    out = tmp_path / f"report.{fmt}"
    argv = ["audit-corollaries", *AUDIT_ARGS[args], "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_AUDIT_ARGS_SHA256[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORT_SHA256), ids=lambda c: "-".join(map(str, c)))
def test_identities_and_audit_report_golden_digest(case, tmp_path):
    command, seed, interval, fmt = case
    out = tmp_path / f"report.{fmt}"
    argv = [command, "--seed", str(seed), f"--interval={interval}", "--format", fmt,
            "--out", str(out)]
    for alpha in GOLDEN_ALPHAS:
        argv += ["--alpha", alpha]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_SWEEP_SHA256), ids=lambda c: "-".join(map(str, c)))
def test_sweep_report_golden_digest(case, tmp_path):
    command, witness, interval, fmt = case
    out = tmp_path / f"report.{fmt}"
    argv = ["sweep", command.split("-")[1], f"--interval={interval}", "--format", fmt,
            "--out", str(out)]
    if witness == "random7":
        path = tmp_path / "witness.txt"
        a, b = map(float, interval.split(","))
        path.write_text(to_text(random_lipschitz(7, Interval(a, b)).function))
        argv += ["--witness", str(path)]
    for alpha in GOLDEN_ALPHAS:
        argv += ["--alpha", alpha]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEP_SHA256[case]


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
