"""The mutant table of mutants/run.py stays in step with the sources: each
row's text occurs exactly once in its file, and each row names tests that
exist.  The mutants themselves run outside this suite: python3 mutants/run.py."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutant_table", ROOT / "mutants" / "run.py")
mutant_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutant_table)


@pytest.mark.parametrize("mutant", mutant_table.MUTANTS,
                         ids=[f"row{n}" for n in range(1, len(mutant_table.MUTANTS) + 1)])
def test_every_mutant_text_occurs_once_and_its_killers_exist(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.text) == 1
    assert mutant.text != mutant.replacement and mutant.killers
    for test_id in mutant.killers:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?", test_id).group(1, 2)
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8")
