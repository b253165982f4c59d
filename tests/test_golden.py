"""Golden report bytes of every subcommand, the scalar bound breakdowns,
and the JSON writer.

The verify digests were recorded with the per-record scalar sweep (one
config, exact gap and dual-path bound per record); the check-identities,
audit-corollaries and sweep digests with the per-node-count panel
moments, gaps and bounds; the audit digests over order grids and with
default arguments with the record-by-record audit.  Every later rework of
the evaluators must reproduce them byte for byte.  The verify and
check-identities digests were re-pinned once since, when the batched
Gauss-Jacobi / Gauss-Kronrod oracle replaced QUADPACK: a differential
against the QUADPACK reports showed changes in the oracle values alone
(oracle_residual, the quad and residual of moment records and their
maxima), each within 3.6e-15 relative of the closed form.  The
benchmark-workload digests were recorded with the per-record dict writers,
before reports held their records as row blocks.
"""

import hashlib
import json
from itertools import chain

import numpy as np
import pytest

from fracbound.bounds import v_bullen, v_hadamard
from fracbound.cli import (RunConfig, VerificationReport, _f17, cmd_audit_corollaries,
                           cmd_check_identities, cmd_sweep, cmd_verify_bullen,
                           cmd_verify_hadamard, main, row_blocks)
from fracbound.corpus import random_lipschitz, to_text
from fracbound.quadrature import Interval
from test_batched import INTERVALS, three_node_cases, two_node_cases

GOLDEN_ALPHAS = ("0.25", "1", "3.5")

# (command, seed, interval, format) -> sha256 of the report bytes, 30 trials.
GOLDEN_SHA256 = {
    ("verify-hadamard", 1, "0,1", "json"):
        "3600cfa6e583b95a8dc7e6d9668ee2cf4376666bdd4824cfc9908bb9d5b4ba42",
    ("verify-hadamard", 1, "0,1", "csv"):
        "c8a269d982f1e4bee1f5c638d03a1d07023b71a94b53075a2631a08f7e3ddfa7",
    ("verify-hadamard", 1, "-3,5", "json"):
        "c618cdccdf99b232cc8d4aacfe682c820ccb38f4e3a0e3ac9ae2f58d3f981d11",
    ("verify-hadamard", 1, "-3,5", "csv"):
        "7067939391e4e011a52e57f58ebcff4207b7fa6ac28ab8b3b80997fd3018fa72",
    ("verify-hadamard", 42, "0,1", "json"):
        "84cfe6ed32163ad8387b0cc144d4e595e6c059d6e773dd646690c8463d8de492",
    ("verify-hadamard", 42, "0,1", "csv"):
        "b503221309d32a0a483c3a80962ce498c2318301efc913228db387d820b8d995",
    ("verify-hadamard", 42, "-3,5", "json"):
        "7b3143515b3cc4b49bf2339af2630c293c09067a3776856e3f2c943056b82dba",
    ("verify-hadamard", 42, "-3,5", "csv"):
        "f0d3e893dfe095ab96d61d127dfddadb36451067d785201e64404175623ef86c",
    ("verify-bullen", 1, "0,1", "json"):
        "65a92aa9ca73b7f59258ecddeaa18a084904b732411e6ae77f2ba537eb69c707",
    ("verify-bullen", 1, "0,1", "csv"):
        "399ee9db091ca3ed9bfb5fbe1af6fdea48f1eaed7b07b78cf99902c8b89248e2",
    ("verify-bullen", 1, "-3,5", "json"):
        "d969104b140a9d8961096fd8f54b7fd645516e8d5fb234ddbcbc7967f655bfab",
    ("verify-bullen", 1, "-3,5", "csv"):
        "4a8a130f7cd1c70a6b13e14ff5f6eb9aac893399bd9b5f8fd78af4f379e49b76",
    ("verify-bullen", 42, "0,1", "json"):
        "339690a2f0f0e252d63c6285e3c6db5043c03080347e02ccb98959e659f70533",
    ("verify-bullen", 42, "0,1", "csv"):
        "7eacbdb33a658017dc20767f3ecf34de6c400e757650ef5eebd4eca16cf057c8",
    ("verify-bullen", 42, "-3,5", "json"):
        "c0bb7a05002a489e1f3e8aceb67ca494ffb92a8df00e33bf47a1cd9d9e824f1f",
    ("verify-bullen", 42, "-3,5", "csv"):
        "f2ab75e6ed647572ea8927f1063b0110cac50081972ff424564563b4e7698e11",
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
        "b05c6e98197fd4d2dc4fecff21ad679ee77c72963e280184385dd80bf7432564",
    ('check-identities', 1, '0,1', 'csv'):
        "fa2b550e6615b6a72af54bca14176f407a0cbeb33cca34b6360cba3f4dbdb937",
    ('check-identities', 1, '-3,5', 'json'):
        "7001ea3c2274c6284fa3625107ef7e56ff6ebc5514c122d654cefb9d04f2e520",
    ('check-identities', 1, '-3,5', 'csv'):
        "1c5fd52f800e80ae612539d207131ae70bb34654868657c1c242a044af1111c8",
    ('audit-corollaries', 1, '0,1', 'json'):
        "d437477cab0ea4a22585b91296854d9917ca33f761e482423f0af7df71e3cfe4",
    ('audit-corollaries', 1, '0,1', 'csv'):
        "be107e2de0b506d5d986e6692b885605aeb8ca0ef5ff6518471556eaf8a40d31",
    ('check-identities', 42, '0,1', 'json'):
        "b580ca5aa8b7dd66c0caf8153e7313227e1b114d88c410be9750cd10bb0037ec",
    ('check-identities', 42, '0,1', 'csv'):
        "bfbfaab33c7cf455fc61777d110ea238b93653b844870cba5b588a4d57ea6b5f",
    ('check-identities', 42, '-3,5', 'json'):
        "4dc8b26d114013e3bc7df3fcfd3563fd7c6c24db70edd3d69730d080e3d02c5a",
    ('check-identities', 42, '-3,5', 'csv'):
        "aa487762e40d2f04310295661a4281a2c083594018c3bc391cd79936313bd180",
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


# Every breakdown of the batched tests' two- and three-node grids (3840
# configurations over their three intervals): case tags, term names, term
# order and values, total and cross_total.
GOLDEN_BREAKDOWN_SHA256 = "c685aff425b527c50d51b2c3092da5b9b44aa5c06a9343fb725c8815d254664d"


def test_breakdown_golden_digest():
    digest = hashlib.sha256()
    for itv in INTERVALS:
        for cases, v_fn in ((two_node_cases, v_hadamard), (three_node_cases, v_bullen)):
            for cfg, _, _ in cases(itv):
                bd = v_fn(cfg)
                digest.update(repr((bd.case_tag, bd.terms, bd.total, bd.cross_total)).encode())
    assert digest.hexdigest() == GOLDEN_BREAKDOWN_SHA256


# The argv of the three benchmark workloads (perfbench/run.py) at seed 3,
# without --out, and the sha256 of their reports.
BENCHMARK_ARGV = {
    "verify-bullen": ["verify-bullen", "--seed", "3", "--interval", "0,1", "--format", "json",
                      "--trials", "2000"] + list(chain.from_iterable(
                          ("--alpha", repr(al)) for al in (0.5, 1.0, 1.5, 2.0))),
    "identities": ["check-identities", "--seed", "3", "--interval", "0,1", "--format", "csv"]
    + list(chain.from_iterable(("--alpha", repr(0.25 + k * 0.125)) for k in range(39))),
    "audit-grid": ["audit-corollaries", "--seed", "3", "--interval", "0,1", "--format", "json"]
    + list(chain.from_iterable(("--alpha", repr(0.25 + k * 0.0625)) for k in range(77))),
}
BENCHMARK_SHA256 = {
    "verify-bullen": "d8735e2f178064fe3dd5de8562675a7b80897a195ec0dc8a05a799e485b11a10",
    "identities": "43d3843aa573f27ca36bd46234190380d0705d11b80f3bb7fb90ea3a036e3655",
    "audit-grid": "06ab27f7b8b0ee50a706b34fb3ddc07cd2ccf69753ff9864d26d018b35581993",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_ARGV))
def test_benchmark_report_golden_digest(workload, tmp_path):
    out = tmp_path / "report"
    assert main(BENCHMARK_ARGV[workload] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCHMARK_SHA256[workload]


# ----------------------------------------------------------------------
# Report writers: the same bytes as json.dumps(indent=1) and as one
# _f17 call per CSV field
# ----------------------------------------------------------------------

def _reference_json(rep: VerificationReport, records: list) -> bytes:
    doc = rep._header()
    doc["aggregate"] = rep.aggregate
    doc["records"] = [{c: r[c] for c in rep.columns if c in r} for r in records]
    doc["errata"] = rep.errata
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def _reference_csv(rep: VerificationReport, records: list) -> bytes:
    """The CSV report with its record lines written one record and one _f17
    field at a time; the header, aggregate and erratum lines are the
    writer's own."""
    lines = rep.to_csv_bytes().decode("utf-8").split("\n")
    head = lines.index(",".join(rep.columns)) + 1
    tail = len(rep.aggregate) + len(rep.errata) + 1
    records = [",".join(_f17(rec[c]) if c in rec else "" for c in rep.columns)
               for rec in records]
    return "\n".join(lines[:head] + records + lines[-tail:]).encode("utf-8")


REPORT_BUILDS = pytest.mark.parametrize("build", [
    lambda: cmd_verify_hadamard(RunConfig(trials=12)),
    lambda: cmd_verify_bullen(RunConfig(trials=12, interval=Interval(-3.0, 5.0))),
    lambda: cmd_check_identities(RunConfig(trials=1, alpha_grid=(0.5, 2.0))),
    lambda: cmd_audit_corollaries(RunConfig(trials=1, alpha_grid=(1.0, 2.0))),
    lambda: cmd_sweep(RunConfig(trials=1, alpha_grid=(0.5,)), "hadamard"),
    lambda: cmd_sweep(RunConfig(trials=1, alpha_grid=(0.5,)), "bullen"),
], ids=["verify-hadamard", "verify-bullen", "check-identities", "audit-corollaries",
        "sweep-hadamard", "sweep-bullen"])


@REPORT_BUILDS
def test_json_writer_matches_indent1_on_reports(build):
    rep = build()
    assert rep.to_json_bytes() == _reference_json(rep, rep.records)


@REPORT_BUILDS
def test_csv_writer_matches_per_field_text_on_reports(build):
    rep = build()
    assert rep.to_csv_bytes() == _reference_csv(rep, rep.records)


SYNTHETIC_COLUMNS = ("i", "f", "b", "n", "s")
NAN = float("nan")
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
                             row_blocks(SYNTHETIC_COLUMNS, records),
                             {"evaluations": len(records), "x": float("inf")},
                             [{"formula_id": "f", "witness_params": {"alpha": 1.0}}])
    assert rep.to_json_bytes() == _reference_json(rep, records)


@pytest.mark.parametrize("records", [
    SYNTHETIC_RECORDS,
    [{"i": 1, "f": 0.5}, {"i": 2.5, "f": 3}, {"i": 2 ** 70, "f": -0.0}],
    [{"i": np.int64(3), "f": np.float64(0.1), "n": np.float64("nan")},
     {"i": np.int64(-1), "f": np.float64(1e-310), "n": np.float64("-inf")}],
    [{"i": 1, "f": 0.5, "s": "a"}, {"s": "b", "f": 1.5, "i": 2}, {"f": 2.5, "i": 3, "s": "c"}],
    [],
    [{}],
    [{}, {"i": 1}, {}, {"s": "%s %% %(x)s"}],
    [{"f": f, "i": 1} for f in [0.0, -0.0, NAN, float("inf"), 0.1, -0.0, 1e-310, 0.1] * 20],
    [{"f": f} for f in [-0.0] * 70 + [0.0, 2.5]],
    [{"f": float(text)} for text in ["nan", "inf", "-inf", "0.1"] * 30],
], ids=["scalars", "mixed-int-float", "numpy-scalars", "reordered-keys", "empty-list",
        "empty-record", "key-runs", "repeated-floats", "negative-zeros", "repeated-nonzero"])
def test_csv_writer_matches_per_field_text_on_synthetic_records(records):
    rep = VerificationReport("synthetic", RunConfig(trials=1, fmt="csv"), SYNTHETIC_COLUMNS,
                             row_blocks(SYNTHETIC_COLUMNS, records),
                             {"evaluations": len(records), "x": float("inf")},
                             [{"formula_id": "f", "max_abs_deviation": 0.25,
                               "witness_params": {"alpha": 1.0}}])
    assert rep.to_csv_bytes() == _reference_csv(rep, records)
