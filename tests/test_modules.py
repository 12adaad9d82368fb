"""Module boundaries: the polynomial algebra is a leaf of the package, and
the public names stay what they were when the truth side moved to ``walk``."""

import ast
from pathlib import Path

import arcperm

SRC = Path(__file__).resolve().parents[1] / "src" / "arcperm"


def _package_imports(path):
    """The modules of the package that a source file imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "arcperm":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "arcperm"]
    return found


def test_poly_imports_nothing_from_the_package():
    assert _package_imports(SRC / "poly.py") == []
    # the check sees both spellings, and the walk does import the algebra
    assert ".poly" in _package_imports(SRC / "walk.py")
    assert _package_imports(SRC / "__init__.py")


def test_the_public_names_are_unchanged():
    assert arcperm.__all__ == [
        "Character", "CircleOn", "ExactDivisionError", "ExponentVectorA", "ExponentVectorB",
        "Family", "Occurrence", "Permutation", "SignedPermutation", "SparsePolynomial",
        "StatProfile", "WeightSpec", "arc_forbidden", "avoids_all", "b_arc_forbidden",
        "b_order_key", "const", "contains", "cycle_A", "cycle_B", "decompose_A", "decompose_B",
        "enumerator", "exact_div", "find_occurrence", "fmaj_from_exponents", "generate_arc",
        "generate_b_arc", "generate_hyperoctahedral", "generate_left_unimodal",
        "generate_signed_arc", "generate_symmetric", "is_arc", "is_arc_by_exponents", "is_b_arc",
        "is_b_arc_by_exponents", "is_interval_on", "is_interval_zn", "is_left_unimodal",
        "is_signed_arc", "maj_from_exponents", "poly_product", "q_bracket", "recompose_A",
        "recompose_B", "signed_arc_forbidden", "triple_orientation", "var",
    ]
    assert arcperm.WeightSpec.__module__ == arcperm.enumerator.__module__ == "arcperm.walk"
