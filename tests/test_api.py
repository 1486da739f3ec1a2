"""Every etfspectra attribute that ``perfbench`` names must exist, so that
removing one fails in the fast suite rather than in a benchmark run."""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(dotted):
    """Whether 'etfspectra.<module>.<attr>...' names an existing object."""
    package, module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_span_layers_resolve():
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "METHODS")}
    refs = [f"{module}.{attr}" for _, module, attr in tables["FUNCTIONS"]]
    refs += [f"etfspectra.manova.{cls}.{method}" for _, cls, method in tables["METHODS"]]
    assert len(refs) > 10
    assert not [ref for ref in refs if not _resolves(ref)]


def _dotted(node, modules):
    """'etfspectra.<module>.<attr>...' for an attribute chain on a module
    imported from etfspectra, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in modules:
        return ".".join(["etfspectra", modules[node.id]] + parts)
    return None


def test_child_references_resolve():
    # <module>.<attr> chains on the names that `from etfspectra import ...`
    # binds in the same function
    refs = set()
    for fn in ast.walk(ast.parse((PERFBENCH / "child.py").read_text())):
        if isinstance(fn, ast.FunctionDef):
            modules = {a.asname or a.name: a.name for node in ast.walk(fn)
                       if isinstance(node, ast.ImportFrom) and node.module == "etfspectra"
                       for a in node.names}
            refs.update(filter(None, (_dotted(node, modules) for node in ast.walk(fn)
                                      if isinstance(node, ast.Attribute))))
    assert {"etfspectra.harness.run_ks_batch", "etfspectra.coding.empirical_ahmr"} <= refs
    assert not [ref for ref in sorted(refs) if not _resolves(ref)]


# public names no code outside tests uses yet, each with the reason it stays
UNREFERENCED_OK = {
    "etfspectra.moments.crossing_decay_probe": "the per-d, per-family probe of ROADMAP item 5",
}


class _References(ast.NodeVisitor):
    """Names a file loads, attributes it reads, strings it holds (perfbench
    names layers by string) and names it imports, each with the def/class
    names enclosing the use; the strings of ``__all__`` lists do not count."""

    def __init__(self):
        self.scopes = []
        self.uses = {}

    def _use(self, name):
        self.uses.setdefault(name, []).append(tuple(self.scopes))

    def _scope(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)

    def visit_alias(self, node):
        self._use(node.name)


def test_public_names_are_used():
    # the automated form of "src/ is what runs": every name in a module's
    # __all__ is used outside its own definition by src/, scripts/ or perfbench/
    root = PERFBENCH.parent
    refs = _References()
    for folder in ("src/etfspectra", "scripts", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            refs.visit(ast.parse(path.read_text()))
    unused = []
    for path in sorted((root / "src/etfspectra").glob("*.py")):
        modname = "etfspectra" if path.stem == "__init__" else f"etfspectra.{path.stem}"
        for name in getattr(importlib.import_module(modname), "__all__", ()):
            if all(name in scopes for scopes in refs.uses.get(name, ())):
                unused.append(f"{modname}.{name}")
    assert sorted(unused) == sorted(UNREFERENCED_OK)
