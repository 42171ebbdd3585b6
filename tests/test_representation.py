"""Truth boxes travel as `Labels` arrays and detections as `Detections`
arrays: `src/dcspp_yolo` defines no per-box record for truths again, and
builds `BBox` and `Detection` objects only where the benchmark reads
them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GONE = {"TruthBox", "box_array"}
BOX_OBJECTS = {"BBox", "Detection"}
# (file, enclosing function) of the only calls that may build them
ALLOWED_CALLS = {("detection.py", "__iter__"), ("data.py", "unletterbox_box")}


def _sources():
    sources = sorted((ROOT / "src" / "dcspp_yolo").glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), str(path))) for path in sources]


class _BoxCalls(ast.NodeVisitor):
    """(innermost enclosing function, line) of each `BBox(` or `Detection(`
    call; "<module>" for one outside every function."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in BOX_OBJECTS:
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def test_no_per_box_truth_record_or_box_array():
    defined = []
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            defined += [f"{path.name}:{node.lineno}: {name}" for name in names if name in GONE]
    assert defined == []


def test_box_objects_built_only_where_the_benchmark_reads_them():
    calls = []
    for path, tree in _sources():
        visitor = _BoxCalls()
        visitor.visit(tree)
        calls += [(path.name, func, line) for func, line in visitor.found]
    stray = [f"{name}:{line} in {func}" for name, func, line in calls
             if (name, func) not in ALLOWED_CALLS]
    assert stray == []
    # the scan does see the calls it allows
    assert {(name, func) for name, func, _ in calls} == ALLOWED_CALLS
