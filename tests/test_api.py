"""The top-level package: what it exports, its records, what importing the CLI
loads, how its modules import each other, the names the traced bench wraps,
its annotations, and README's Library example."""

import ast
import importlib
import inspect
import pathlib
import subprocess
import sys
import typing

import pytest

import stabdim
from helpers import identity
from stabdim import (
    Graph,
    PauliString,
    check_equivalence,
    detect_configurations,
    generate,
    low_weight_elements,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

EXPORTED = [
    "CLOSED_TWIN",
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
    "parse_edge_list",
    "parse_graph6",
    "stabilizer_dimension",
]


def test_exports_exactly_the_documented_names():
    assert sorted(stabdim.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(stabdim, name) is not None


def test_version_has_one_owner():
    # pyproject.toml reads the version from the package, so the two cannot drift.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "stabdim.__version__"}
    assert isinstance(stabdim.__version__, str)


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


def _records():
    g = generate("star", 4)
    return [
        g,
        low_weight_elements(g)[0][1],
        detect_configurations(g)[0],
        check_equivalence(g, with_oracle=True),
    ]


def test_every_exported_record_is_covered():
    exported = {name for name in stabdim.__all__ if isinstance(getattr(stabdim, name), type)}
    exported -= {"ConsistencyError", "ConstraintError", "GraphParseError"}
    assert {type(r).__name__ for r in _records()} == exported


def test_equivalence_report_fields():
    assert stabdim.EquivalenceReport._fields == ("n", "dimension", "g2", "oracle_nullity", "holds")


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_named_tuples(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
    assert type(record)(*record) == record
    assert record._replace(**{field: getattr(record, field)}) == record


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Graph(0, ()), "graph needs at least one vertex, got n=0"),
        (lambda: Graph(2, (0b10,)), "expected 2 adjacency rows, got 1"),
        (lambda: Graph(2, (0b110, 0b01)), "adjacency row 0 has bits beyond vertex 1"),
        (lambda: Graph(2, (0b01, 0b00)), "self-loop at vertex 0"),
        (lambda: Graph(2, (0b10, 0b00)), r"adjacency not symmetric at \(0, 1\)"),
        (lambda: Graph._from_symmetric_rows(0, []), "graph needs at least one vertex, got n=0"),
        (lambda: generate("path", 3)._replace(adj=(0b10, 0b101, 0b000)),
         r"adjacency not symmetric at \(1, 2\)"),
        (lambda: PauliString(2, 0b100, 0), "x/z bits beyond qubit 1"),
        (lambda: PauliString(2, 0, 0b100), "x/z bits beyond qubit 1"),
        (lambda: identity(1)._replace(z=0b10), "x/z bits beyond qubit 0"),
    ],
)
def test_invalid_graph_and_pauli_input_raises(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_graph_from_a_list_stores_a_tuple():
    g = Graph(2, [0b10, 0b01])
    assert type(g.adj) is tuple
    assert g == Graph(2, (0b10, 0b01))
    assert hash(g) == hash(Graph(2, (0b10, 0b01)))


def test_pauli_phase_is_reduced_mod_4():
    assert PauliString(1, 1, 1, 7).phase_exp == 3
    assert PauliString(1, 1, 1, -1).phase_exp == 3
    assert PauliString(1, 1, 1)._replace(phase_exp=6).phase_exp == 2


def test_importing_the_cli_loads_no_heavy_module():
    # Every CLI job pays its imports: no module in src/ imports fractions,
    # the machine report is formatted without json, the records need no
    # dataclasses, the command line is read without argparse (or the gettext
    # it loads), and only an exit-4 line past n = 62 imports hashlib. The
    # library verdict with the oracle loads none of them either.
    heavy = [
        "dataclasses", "inspect", "fractions", "decimal", "json", "argparse", "gettext", "hashlib",
    ]
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import stabdim.cli; "
        "stabdim.cli.run(['analyze', '--graph6', 'A_', '--format', 'machine']); "
        "import stabdim; "
        "stabdim.check_equivalence(stabdim.generate('star', 7), with_oracle=True); "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_parsing_an_edge_list_loads_no_regex_module(tmp_path):
    # The edge-list parser checks its canonical slices with two lookup tables,
    # not a regex: under -S (no site hook importing re first), `analyze --file`
    # loads neither re nor the enum it imports.
    path = tmp_path / "p3.edges"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n", encoding="utf-8")
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import stabdim.cli; "
        f"stabdim.cli.run(['analyze', '--file', {str(path)!r}, '--format', 'machine']); "
        "print(sorted(m for m in ['re', 'enum'] if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def _package_imports() -> dict[str, set[str]]:
    """Each ``stabdim`` module and the package modules its relative imports name."""
    imports = {}
    for path in sorted((ROOT / "src" / "stabdim").glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                # ``from . import oracle`` names the module in its aliases.
                found |= {node.module} if node.module else {a.name for a in node.names}
        imports[path.stem] = found
    return imports


def test_package_imports_form_no_cycle():
    imports = _package_imports()
    done, on_path = set(), []

    def visit(module):
        assert module not in on_path, f"import cycle: {' -> '.join(on_path + [module])}"
        if module in done:
            return
        on_path.append(module)
        for target in imports.get(module, ()):
            visit(target)
        on_path.pop()
        done.add(module)

    for module in imports:
        visit(module)


def test_configurations_import_no_later_route():
    # Every fast-path product is read off configurations.analyze, so the
    # detector must not lean on the modules that consume it.
    assert _package_imports()["configurations"].isdisjoint({"pauli", "oracle", "theorem", "cli"})


def test_oracle_imports_only_graphs_and_errors():
    # The exact oracle checks the other two routes, so it shares no code with them.
    assert _package_imports()["oracle"] <= {"graphs", "errors"}


def _traced_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of the traced bench's ``TARGETS``, read with ast."""
    tree = ast.parse((ROOT / "perfbench" / "trace_run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("perfbench/trace_run.py defines no TARGETS")


@pytest.mark.parametrize("module,attribute", _traced_targets())
def test_traced_names_exist(module, attribute):
    # The bench's tracer looks each one up in the __dict__ of its module, or
    # of the class for a dotted attribute, and skips what it cannot find.
    owner = importlib.import_module(f"stabdim.{module}")
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(leaf)), f"stabdim.{module}.{attribute}"


def _module_functions():
    """(module, name, function) of every function defined at module level in ``stabdim.*``."""
    out = []
    for path in sorted((ROOT / "src" / "stabdim").glob("*.py")):
        dotted = "stabdim" if path.stem == "__init__" else f"stabdim.{path.stem}"
        module = importlib.import_module(dotted)
        out += [
            (module.__name__, name, value)
            for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
        ]
    return out


def test_every_function_annotation_resolves():
    # Modules postpone annotations, so a name a module never imports breaks
    # only when a tool resolves it; resolve them all here.
    functions = _module_functions()
    assert len(functions) > 40
    for module, name, function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            raise AssertionError(f"{module}.{name}: {exc}") from None
