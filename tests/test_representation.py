"""Truth boxes travel as `Labels` arrays and detections as `Detections`
arrays: `src/dcspp_yolo` defines no per-box record for truths again, and
builds `BBox` and `Detection` objects only where the benchmark reads
them. Grid predictions become boxes in one place, `PredGrid.corners`, for
the loss and for inference alike."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GONE = {"TruthBox", "box_array", "LeakyParams"}
BOX_OBJECTS = {"BBox", "Detection"}
# (file, enclosing function) of the only calls that may build them
ALLOWED_CALLS = {("detection.py", "__iter__"), ("data.py", "unletterbox_box")}
# where a centre and a size may become corners: the one array stack, and the
# label reader's check of one line's Python floats, made before any array
# exists (routed through the array stack, its small per-line arrays made
# `evaluate` fault its memory in again on every call)
CORNER_TERMS = {("detection.py", "box_corners"), ("data.py", "parse_label_line")}


def _sources():
    sources = sorted((ROOT / "src" / "dcspp_yolo").glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), str(path))) for path in sources]


class _Scoped(ast.NodeVisitor):
    """(innermost enclosing function, line) of each node that `match`
    accepts; "<module>" for one outside every function."""

    def __init__(self, match):
        self.match = match
        self.scope = ["<module>"]
        self.found = []

    def visit(self, node):
        if self.match(node):
            self.found.append((self.scope[-1], node.lineno))
        super().visit(node)

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _found(match):
    """(file, enclosing function, line) of each node in `src/dcspp_yolo` that `match` accepts."""
    found = []
    for path, tree in _sources():
        visitor = _Scoped(match)
        visitor.visit(tree)
        found += [(path.name, func, line) for func, line in visitor.found]
    return found


def _box_call(node):
    """`BBox(...)` or `Detection(...)`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in BOX_OBJECTS


def _indices_call(node):
    """`np.indices(...)`, the grid of cell rows and columns."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr == "indices" and getattr(func.value, "id", None) == "np")


def _half_size_term(node):
    """`centre - size / 2` or `centre + size / 2`, one corner from a centre and a size."""
    right = getattr(node, "right", None)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Div)
            and isinstance(right.right, ast.Constant) and right.right.value == 2)


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
    calls = _found(_box_call)
    stray = [f"{name}:{line} in {func}" for name, func, line in calls
             if (name, func) not in ALLOWED_CALLS]
    assert stray == []
    # the scan does see the calls it allows
    assert {(name, func) for name, func, _ in calls} == ALLOWED_CALLS


def test_one_cell_grid_and_one_centre_to_corner_stack():
    # the loss's assignment and inference's decode both take their boxes from
    # PredGrid.corners, and every centre-size array becomes corners in box_corners
    grids = [(name, func) for name, func, _ in _found(_indices_call)]
    assert grids == [("detection.py", "corners")]
    terms = {(name, func) for name, func, _ in _found(_half_size_term)}
    assert terms == CORNER_TERMS
