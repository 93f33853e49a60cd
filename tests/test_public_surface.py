"""The library surface: retired names stay gone, and the names the bench tracer hooks stay."""

import importlib
import importlib.util
from pathlib import Path

import hh1lie
import hh1lie.checks  # noqa: F401  (the tracer hooks it)

# names no build, hh1 or reproduce run reaches, retired with their duplicates
RETIRED = {
    "hochschild": (
        "bracket",
        "p_power",
        "Derivation.vec",
        "HH1Presentation.der_basis",
        "HH1Presentation.ider_basis",
        "HH1Presentation.project_matrix",
        "HH1Presentation.project",
        "_fails_leibniz",
        "_gen_block_residual",
        "DerivationSpace._stream_pivots",
    ),
    "lie": ("element_analysis", "is_p_nilpotent_element", "RestrictedLie.bracket_vec", "TORAL_GRAPH_LIMIT"),
    "gfp": ("Subspace.intersection", "Subspace.quotient_basis", "Subspace.coords", "Subspace.to_json_dict"),
    "algebras": (
        "Algebra.mult_terms",
        "Algebra.basis_left_matrix",
        "Algebra.basis_right_matrix",
        "Algebra.without_idempotents",
    ),
    "errors": ("AlgebraMismatch",),
    "checks": ("SuiteContext.whole_smash_hh1",),
}


def resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_retired_names_are_gone():
    for module, names in RETIRED.items():
        mod = importlib.import_module(f"hh1lie.{module}")
        for name in names:
            assert not resolves(mod, name), f"hh1lie.{module}.{name}"
            if "." not in name:
                assert not hasattr(hh1lie, name), f"hh1lie.{name}"
    assert [n for n in dir(hh1lie.hochschild.HH1Presentation) if n.startswith("project")] == ["project_rows"]


def test_every_name_the_bench_tracer_hooks_resolves():
    # the tracer reads owner.__dict__[attr], so a deleted hook breaks `--trace 1`
    # and the bench self-test, neither of which the tier-1 tests run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = tracer._hooks(hh1lie)
    assert len(hooks) > 20
    for name, owner, attr, _ in hooks:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
