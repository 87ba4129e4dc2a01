"""The top-level package: what it exports, and README's Library example."""

import pathlib

import stabdim

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = [
    "CLOSED_TWIN",
    "CoefficientVector",
    "Configuration",
    "ConsistencyError",
    "ConstraintError",
    "EquivalenceReport",
    "Graph",
    "GraphParseError",
    "LEAF",
    "PauliString",
    "TWIN",
    "check_equivalence",
    "detect_configurations",
    "encode_edge_list",
    "encode_graph6",
    "g2_rank",
    "generate",
    "local_algebra_nullity",
    "low_weight_elements",
    "nullspace_basis",
    "parse_edge_list",
    "parse_graph6",
    "stabilizer_dimension",
]


def test_exports_exactly_the_documented_names():
    assert sorted(stabdim.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(stabdim, name) is not None


def test_readme_library_example():
    # Each "expression  # value" line of the example becomes an assertion.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in example.splitlines():
        code, sep, expected = line.partition("  #")
        lines.append(f"assert ({code.strip()}) == {expected.strip()}" if sep else line)
    source = "\n".join(lines)
    assert "assert (stabilizer_dimension(g)) == 6" in source
    assert "assert ((rep.dimension, rep.g2, rep.oracle_nullity)) == (6, 6, 6)" in source
    exec(source, {})
