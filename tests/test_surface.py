"""The package's public surface is sized to its callers: every public name
in src/vacflow is used by the program itself or by an acceptance
criterion, every parameter with a default of a public function or method
is passed by some call in src/ or tests/, and importing the bare package
loads none of its modules. A coefficient provider has one public method,
stage. One function forks child processes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vacflow"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# The plain spectral derivative the tests check the solver's batched
# kernels against.
EXEMPT = {"Grid.deriv"}


class _References(ast.NodeVisitor):
    """Every loaded name and attribute with the definitions enclosing it,
    and every public module-level function and class with its public
    methods."""

    def __init__(self):
        self.uses = {}       # (kind, identifier) -> [enclosing definitions]
        self.public = []     # (qualified name, node, kind of reference)
        self._enclosing = ()

    def add_module(self, tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    self.public.append((node.name, node, "name"))
                if isinstance(node, ast.ClassDef):
                    self.public += [
                        (f"{node.name}.{item.name}", item, "attr")
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
        self.visit(tree)

    def _enter(self, node):
        outer = self._enclosing
        self._enclosing = outer + (node,)
        self.generic_visit(node)
        self._enclosing = outer

    visit_FunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        self.uses.setdefault(("name", node.id), []).append(self._enclosing)

    def visit_Attribute(self, node):
        self.uses.setdefault(("attr", node.attr), []).append(self._enclosing)
        self.generic_visit(node)


def test_every_public_name_has_a_caller():
    refs = _References()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            refs.add_module(ast.parse(path.read_text(), str(path)))
    refs.visit(ast.parse(ACCEPTANCE.read_text(), str(ACCEPTANCE)))

    unused = []
    for qualified, node, kind in refs.public:
        ident = qualified.rpartition(".")[2]
        # a module-level name may be reached as a module attribute too
        kinds = ("name", "attr") if kind == "name" else ("attr",)
        used = any(node not in enclosing
                   for k in kinds for enclosing in refs.uses.get((k, ident), ()))
        if not used and qualified not in EXEMPT:
            unused.append(qualified)
    assert unused == [], (
        "public names with no caller in src/ or the acceptance criteria: "
        f"{unused}")


def test_importing_the_package_loads_no_module():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, vacflow; "
            "print(sorted(m for m in sys.modules if m.startswith('vacflow.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_coefficient_provider_has_one_method():
    tree = ast.parse((PACKAGE / "linearized.py").read_text())
    extra = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("_")}
            if "stage" in methods and methods != {"stage"}:
                extra[node.name] = sorted(methods - {"stage"})
    assert extra == {}, (
        "a coefficient provider answers one question, its masked stage at "
        f"t; these define more public methods: {extra}")


class _Calls(ast.NodeVisitor):
    """For each called name or attribute, the parameter positions and
    keywords some call passes; a starred argument passes every position from
    its own on. functools.partial(f, ...) counts as a call of f."""

    def __init__(self):
        self.positions = {}  # identifier -> max positions passed
        self.keywords = {}   # identifier -> set of keywords passed

    @staticmethod
    def _ident(func):
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _record(self, func, args, keywords):
        ident = self._ident(func)
        if ident is None:
            return
        starred = any(isinstance(a, ast.Starred) for a in args)
        count = float("inf") if starred else len(args)
        self.positions[ident] = max(self.positions.get(ident, 0), count)
        self.keywords.setdefault(ident, set()).update(
            k.arg for k in keywords if k.arg is not None)

    def visit_Call(self, node):
        self._record(node.func, node.args, node.keywords)
        if self._ident(node.func) == "partial" and node.args:
            self._record(node.args[0], node.args[1:], node.keywords)
        self.generic_visit(node)


def test_every_defaulted_parameter_is_passed_somewhere():
    refs = _References()
    calls = _Calls()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name != "__init__.py":
            refs.add_module(tree)
        calls.visit(tree)
    for path in sorted((ROOT / "tests").glob("*.py")):
        calls.visit(ast.parse(path.read_text(), str(path)))

    unpassed = []
    for qualified, node, kind in refs.public:
        if not isinstance(node, ast.FunctionDef):
            continue
        ident = qualified.rpartition(".")[2]
        a = node.args
        positional = a.posonlyargs + a.args
        # a method's first parameter is bound, not passed
        bound = int(kind == "attr" and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list))
        defaulted = [(i - bound, p.arg) for i, p in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
        defaulted += [(None, p.arg)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        for index, name in defaulted:
            by_position = (index is not None
                           and calls.positions.get(ident, 0) > index)
            if not by_position and name not in calls.keywords.get(ident, ()):
                unpassed.append(f"{qualified}({name})")
    assert unpassed == [], (
        "parameters with a default that no call in src/ or tests/ passes: "
        f"{unpassed}")


def test_one_function_forks():
    forking = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                forking += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "fork"
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == "os"]
    assert forking == ["fixedpoint._start_job"], (
        "every child process starts in fixedpoint._start_job, so that "
        f"run_forked is its only lifecycle; os.fork is called in {forking}")
