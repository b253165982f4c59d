"""Mutation check: does the test suite notice when a check is weakened?

Each row of MUTANTS weakens one check or threshold of the program.  It
holds a file under src/, a text that occurs in that file exactly once, the
text that replaces it, and the ids of the tests expected to fail on the
mutated code ("kill" it).  The runner copies src/, tests/ and
pyproject.toml into a temporary directory and applies one row at a time
there; the checkout is never edited.  Before the first row it runs every
named test on the unmutated copy, where each must pass.  Then, per row,
it runs pytest on that row's tests alone.

    python3 mutants/run.py

Prints one line per row: killed or survived, and the seconds taken.
Exits 1 when a row survives, when its text does not occur exactly once,
or when its tests do not run or fail on the unmutated copy.  Needs only
the standard library and pytest; the ten rows take well under a minute
on 2 cores.  tests/test_mutants.py checks in every tier-1 run that each
row's text still occurs exactly once, so the table cannot go stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
ROW_TIMEOUT_S = 240


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    killers: tuple


MUTANTS = (
    Mutant("continuity limit 1e-6 -> 1e-2", "src/fracbound/cli.py",
           "CONTINUITY_LIMIT = 1e-6", "CONTINUITY_LIMIT = 1e-2",
           ("tests/test_cli.py::test_a_jump_at_a_case_boundary_is_a_continuity_breach",)),
    Mutant("continuity breach only above 1e4 x limit", "src/fracbound/cli.py",
           "continuity_breaches += delta > limit", "continuity_breaches += delta > 1e4 * limit",
           ("tests/test_cli.py::test_a_jump_at_a_case_boundary_is_a_continuity_breach",)),
    Mutant("verdict slack 1e-9 -> 1e-6", "src/fracbound/engine.py",
           "SLACK_COEFF = 1e-9", "SLACK_COEFF = 1e-6",
           ("tests/test_engine.py::test_verify_slack_rule",)),
    Mutant("batched verdict passes gap <= 1.001 bound", "src/fracbound/engine.py",
           "    passed = gap <= bound + slack\n    positive",
           "    passed = gap <= bound * 1.001 + slack\n    positive",
           ("tests/test_exit_codes.py::test_sweep_exits_1_on_a_violation",)),
    Mutant("oracle residual limit 1e-8 -> 1e-4", "src/fracbound/cli.py",
           "RESIDUAL_LIMIT = 1e-8", "RESIDUAL_LIMIT = 1e-4",
           ("tests/test_cli.py::test_oracle_residual_rule",)),
    Mutant("an unconverged oracle check is no breach", "src/fracbound/cli.py",
           "np.count_nonzero((resid > RESIDUAL_LIMIT) | ~converged)",
           "np.count_nonzero(resid > RESIDUAL_LIMIT)",
           ("tests/test_cli.py::test_oracle_residual_rule",)),
    Mutant("dual-path tolerance 1e-12 -> 1e-6", "src/fracbound/bounds.py",
           "DUAL_PATH_RTOL = 1e-12", "DUAL_PATH_RTOL = 1e-6",
           ("tests/test_batched.py::test_corrupted_literal_term_raises",)),
    Mutant("oracle tolerances 1e-11 -> 1e-6", "src/fracbound/quadrature.py",
           "ABS_TOL = 1e-11\nREL_TOL = 1e-11", "ABS_TOL = 1e-6\nREL_TOL = 1e-6",
           ("tests/test_cli.py::test_oracle_nonconvergence_is_an_oracle_breach"
            "[verify-bullen-narrow]",)),
    Mutant("erratum threshold 1e-8 -> 1e-3", "src/fracbound/engine.py",
           "ERRATUM_THRESHOLD = 1e-8", "ERRATUM_THRESHOLD = 1e-3",
           ("tests/test_engine.py::test_erratum_entry_threshold",)),
    Mutant("gap scale x (1 + 1e-7)", "src/fracbound/engine.py",
           "np.abs(weighted - scale * integrals)",
           "np.abs(weighted - scale * (1.0 + 1e-7) * integrals)",
           ("tests/test_cli.py::test_sweep_sharpness_row",)),
)


def run_tests(copy: Path, ids) -> int:
    """pytest's exit code on the given tests of the copy: 0 all passed,
    1 some failed, anything else a run that did not test."""
    # No bytecode caches: a mutated file and its restored original can have
    # one size and one mtime second, and a cache would then serve the wrong one.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=ROW_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="fracbound-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        killers = sorted({test for mutant in MUTANTS for test in mutant.killers})
        code = run_tests(copy, killers)
        if code != 0:
            print(f"unmutated copy: the named tests do not all pass (pytest exit {code})")
            return 1
        for n, mutant in enumerate(MUTANTS, 1):
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            count = original.count(mutant.text)
            if count != 1:
                print(f"row {n:2d} {mutant.name}: text occurs {count} times in {mutant.file}")
                failures += 1
                continue
            t0 = time.perf_counter()
            path.write_text(original.replace(mutant.text, mutant.replacement), encoding="utf-8")
            try:
                code = run_tests(copy, mutant.killers)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"row {n:2d} {verdict:<8} {time.perf_counter() - t0:5.1f} s  {mutant.name}")
            failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} rows killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
