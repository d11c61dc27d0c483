import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

import celllineage
from celllineage.cli import PipelineConfig

MODULES = sorted(Path(celllineage.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted("%s (line %d)" % (name, line) for name, line in imported.items() if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def test_every_span_perfbench_reads_is_a_public_function():
    """perfbench's tracer wraps the public functions of each module, and its
    hooks and layer metrics read spans by name: a name that no longer
    resolves would read 0 without an error."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    spans = set(tracing.HOOKS)
    spans |= {name for _, _, (how, what) in tracing.LAYER_METRICS if how != "count" for name in what}
    spans |= {
        "%s.%s.%s" % (layer, cls, method)
        for layer, classes in tracing.METHODS.items()
        for cls, methods in classes.items()
        for method in methods
    }
    missing = []
    for span in sorted(spans):
        layer, *path = span.split(".")
        module = importlib.import_module("celllineage." + layer)
        target = module
        for attr in path:
            target = getattr(target, attr, None) if not attr.startswith("_") else None
        if not (inspect.isfunction(target) and target.__module__ == module.__name__):
            missing.append(span)
    assert len(spans) > 20 and not missing, missing


def _leaf_keys(cls, prefix=""):
    """Dotted names of a config dataclass's settable values, nested ones included."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default):
            yield from _leaf_keys(type(f.default), prefix + f.name + ".")
        else:
            yield prefix + f.name


def test_track_config_holds_only_what_a_run_varies():
    """Every `track --config` key picks an input or a value the workloads
    vary; single-valued numbers are module constants, and the paper's
    ablation is the `--baseline` flag, not a key."""
    assert sorted(_leaf_keys(PipelineConfig)) == [
        "connectivity",
        "external_backward",
        "external_forward",
        "segmentation",
        "tracker.search_size",
    ]


def test_the_environment_is_read_only_for_the_log_level():
    """Options and config files set what a run does; the one environment
    variable the program reads is LINEAGE_LOG, in `cli.main`."""
    reads = []  # (module, innermost function, source line)
    for path in MODULES:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if names & {"environ", "getenv"}:
                inner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                reads.append((path.name, inner[-1] if inner else None, source.splitlines()[node.lineno - 1]))
    assert [(module, function) for module, function, _ in reads] == [("cli.py", "main")], reads
    assert "LINEAGE_LOG" in reads[0][2]
