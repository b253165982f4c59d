"""The commands run only the batched path: the scalar functions are the
tests' reference, and no command may reach them.

Every scalar-reference function is replaced by a stub that raises, at every
``fracbound`` module attribute that holds it (the lookup rule of the
benchmark tracer, ``perfbench/layers.py``), and so are the two methods that
turn one batched row back into a scalar object.  Each command must still
exit 0 and write the bytes of an unpatched run.
"""

import sys

import pytest

from fracbound import bounds, corpus, engine, quadrature
from fracbound.cli import main

SCALAR_REFERENCE = (
    (bounds, ("HadamardConfig", "BullenConfig", "PanelConfig", "BoundBreakdown",
              "_panel_literal", "_breakdown", "v_hadamard", "v_bullen", "abs_moment_closed",
              "l_coeff_reference", "n_coeff_reference", "weighted_bullen_reference",
              "unit_order_two_point_table")),
    (corpus, ("exact_rl_left", "exact_rl_mid", "exact_rl_right", "_anchored_integral",
              "_clipped_segments", "random_lipschitz")),
    (engine, ("config_gap", "hadamard_gap", "bullen_gap", "_bound", "hadamard_bound",
              "bullen_bound", "verify")),
    (quadrature, ("rl_left", "rl_mid", "rl_right", "abs_moment_quadrature", "_one_row",
                  "_checked")),
)
SCALAR_METHODS = ((bounds.PanelConfigs, "row"), (corpus.WitnessArrays, "witness"))

COMMANDS = (
    ["verify-hadamard", "--trials", "30"],
    ["verify-bullen", "--trials", "30"],
    ["check-identities", "--alpha", "0.5", "--alpha", "2"],
    ["audit-corollaries", "--alpha", "0.5", "--alpha", "1"],
    ["sweep", "hadamard"],
    ["sweep", "bullen"],
)


def refuse(name):
    def stub(*args, **kwargs):
        raise AssertionError(f"a command reached the scalar reference {name}")
    return stub


def block_scalar_reference(monkeypatch) -> None:
    """Stub every scalar-reference function wherever a fracbound module
    holds it, and the scalar-row methods."""
    for module, names in SCALAR_REFERENCE:
        for name in names:
            original = getattr(module, name)
            for mod_name, holder in list(sys.modules.items()):
                if holder is None or not (mod_name == "fracbound"
                                          or mod_name.startswith("fracbound.")):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        monkeypatch.setattr(holder, attr, refuse(name))
    for cls, name in SCALAR_METHODS:
        monkeypatch.setattr(cls, name, refuse(f"{cls.__name__}.{name}"))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_commands_never_reach_the_scalar_reference(argv, tmp_path):
    plain, guarded = tmp_path / "plain", tmp_path / "guarded"
    assert main(argv + ["--out", str(plain)]) == 0
    with pytest.MonkeyPatch.context() as monkeypatch:
        block_scalar_reference(monkeypatch)
        assert main(argv + ["--out", str(guarded)]) == 0
    assert guarded.read_bytes() == plain.read_bytes()
