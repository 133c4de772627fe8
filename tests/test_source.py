"""Guards on the source tree itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
import typing
from pathlib import Path

import crwqed

SRC = Path(crwqed.__file__).parent


def _top_level_names(tree):
    """Names a module defines at top level: functions, classes and
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _references(tree):
    """Names a module reads, bare or as an attribute; imports do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_top_level_name_in_src_is_used_or_exported():
    # a name only tests use belongs in tests/oracles.py, not in the package.
    # The dense oracle pair is the one exception: bench/tracing.py wraps it
    # by name, and it moves to tests/oracles.py when the tracer is retargeted
    # (ROADMAP item 1)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(set(_references(tree)) for tree in trees.values()))
    used |= {"build_hamiltonian", "eigendecompose"}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _top_level_names(tree)
              if name not in used and name not in crwqed.__all__
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


def test_src_imports_only_the_standard_library_numpy_and_itself():
    # pyproject.toml declares numpy alone; another package that happens to
    # be installed (scipy, say) would import here and fail on a clean one
    allowed = set(sys.stdlib_module_names) | {"numpy", "crwqed"}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, a.name.split(".")[0]) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert sorted(f"{module}:{name}" for module, name in imported if name not in allowed) == []
    assert ("dynamics.py", "numpy") in imported


def test_closed_form_builds_no_lattice_and_only_model_owns_the_band_edge():
    # the closed form and the lattice classifier read one band-edge guard,
    # and the closed form needs no lattice, so their rules cannot drift apart
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    imported = set()
    for node in ast.walk(trees["bic"]):
        if isinstance(node, ast.ImportFrom):
            imported |= {*(node.module or "").split("."), *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {part for a in node.names for part in a.name.split(".")}
    assert "spectrum" not in imported
    owners = [f"{module}:{name}" for module, tree in trees.items()
              for name in _top_level_names(tree) if "EDGE" in name.upper()]
    assert owners == ["model:BAND_EDGE_GUARD"]
    # one light-cone rule sets the exact route's window and the norm check's
    # field extent
    cones = [f"{module}:{name}" for module, tree in trees.items()
             for name in _top_level_names(tree) if "CONE" in name.upper()]
    assert cones == ["model:LIGHT_CONE_PAD", "model:light_cone_reach"]


def _dataclass_fields(tree):
    """(class, field) for every annotated field of a ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_in_src_is_read():
    # a field is read as an attribute, or named in a string (getattr, a
    # key list); one that is only ever written is dead state
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [f"{module}:{cls}.{name}" for module, tree in trees.items()
              for cls, name in _dataclass_fields(tree) if name not in read]
    assert unread == []


# ---- the benchmark's tracer, read only ----
BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argument_reads(tree, counter) -> dict[str, set[str]]:
    """Each ``args["name"]`` a counter of ``bench/tracing.py`` reads from the
    bound arguments of its target, with the attributes it reads off it."""
    line = counter.__code__.co_firstlineno
    node = next(n for n in ast.walk(tree)
                if isinstance(n, (ast.FunctionDef, ast.Lambda)) and n.lineno == line)
    bound = node.args.args[0].arg

    def key(n):
        if (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                and n.value.id == bound and isinstance(n.slice, ast.Constant)):
            return n.slice.value
        return None

    reads = {key(n): set() for n in ast.walk(node) if key(n) is not None}
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and key(n.value) is not None:
            reads[key(n.value)].add(n.attr)
    return reads


def test_bench_tracing_targets_and_their_arguments_exist():
    # the traced benchmark run wraps these by name and binds these
    # arguments; nothing else would notice a rename
    tracing = _load_tracing()
    tree = ast.parse(BENCH_TRACING.read_text(encoding="utf-8"))
    bound = set()
    for mod_name, attr, metric, counter in tracing.TARGETS:
        module = importlib.import_module(f"crwqed.{mod_name}")
        if "." in attr:
            cls_name, prop = attr.split(".")
            assert isinstance(vars(getattr(module, cls_name)).get(prop), property), metric
            continue
        target = getattr(module, attr, None)
        assert callable(target), metric
        if counter is None:
            continue
        params = inspect.signature(target).parameters
        for name, attrs in _argument_reads(tree, counter).items():
            assert name in params, f"{metric}: the counter binds {name!r}"
            if attrs:
                fields = {f.name for f in dataclasses.fields(typing.get_type_hints(target)[name])}
                assert attrs <= fields, f"{metric}: {name}.{attrs - fields}"
            bound.add(name)
    assert bound == {"ham", "order_max", "xs", "path"}
