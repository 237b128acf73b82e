"""The package's public surface is sized to its callers: every public name
in src/vacflow is used by the program itself or by an acceptance
criterion, every parameter with a default of a public function or method
is passed by some call in src/ or tests/, and importing the bare package
loads none of its modules, and no command loads hashlib (OpenSSL) into
the calling process: a run's manifest is hashed in a child. Every
dataclass field is read by the program or an acceptance criterion, or is
exempt with a reason. A coefficient provider has one public method,
stage. No sample_dt has a default. One function forks child processes. No
module imports a name it does not use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vacflow"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


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
        if not used:
            unused.append(qualified)
    assert unused == [], (
        "public names with no caller in src/ or the acceptance criteria: "
        f"{unused}")


# Fields that nothing in src/ or the acceptance criteria reads, each kept for
# the reason given: a test checks numerics through it, or a planned report
# shows it.
FIELD_EXEMPT = {
    "MomentumDiag.nu1": "compared with the independent physical step",
    "MomentumDiag.nu2": "compared with the independent physical step",
    "CompatibilityReport.margin": "the worked example, and NaN on a "
                                  "negative density",
    "ResidualReport.primitive_mass_l2": "the mass residual at roundoff",
    "ResidualReport.reform_phi_l2": "the phi row shows the forcing",
    "PicardIteration.wall_time": "each iterate's wall time, which the run "
                                 "report is to show (ROADMAP item 1c)",
}


def _is_dataclass(node):
    """A class decorated @dataclass or @dataclass(...)."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """Every annotated field of a dataclass in src/vacflow is loaded as an
    attribute somewhere in src/vacflow or the acceptance criteria, or is
    exempt; an exemption that no longer applies fails too. The scan goes by
    name, so a field that shares its name with a read field of another class
    is not caught."""
    fields = []
    loaded = set()
    for path in sorted(PACKAGE.glob("*.py")) + [ACCEPTANCE]:
        tree = ast.parse(path.read_text(), str(path))
        loaded |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)}
        if path != ACCEPTANCE:
            fields += [(f"{node.name}.{item.target.id}", item.target.id)
                       for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                       for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and isinstance(item.target, ast.Name)]
    unread = {qualified for qualified, name in fields if name not in loaded}
    not_exempt = sorted(unread - FIELD_EXEMPT.keys())
    assert not_exempt == [], (
        "dataclass fields nothing in src/ or the acceptance criteria reads: "
        f"{not_exempt}")
    stale = sorted(FIELD_EXEMPT.keys() - unread)
    assert stale == [], f"exempt fields that are read or not defined: {stale}"


def run_python(code, *args):
    """Run code in a fresh interpreter that imports vacflow from src/;
    returns its stdout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_loads_no_module():
    out = run_python("import sys, vacflow; print(sorted(m for m in sys.modules "
                     "if m.startswith('vacflow.')))")
    assert out.strip() == "[]"


ORACLE_CONFIG = """[params]
A = 1.0
gamma = 2.0
alpha = 1.0
beta = 0.5
delta1 = 1.5
delta2 = 2.5

[grid]
dim = 1
n = 32
length = 6.283185307179586

[initial]
amplitude = 0.2
width = 0.8
background = 1.0

[solver]
t_window = 0.002
"""


def test_only_a_manifest_loads_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto into the process; only the run
    # bundle's manifest hashes, in a child of its own, so importing the CLI,
    # an oracle-compare run and a run that writes a manifest leave it out
    config = tmp_path / "oracle.ini"
    config.write_text(ORACLE_CONFIG)
    out_dir = tmp_path / "run"
    out = run_python(
        "import sys, vacflow.cli; "
        "hashing = lambda: sorted({'hashlib', '_hashlib'} & set(sys.modules)); "
        "print('loaded', hashing()); "
        "code = vacflow.cli.main(['oracle-compare', '--config', sys.argv[1]]); "
        "print('loaded', code, hashing()); "
        "code = vacflow.cli.main(['run', '--config', sys.argv[1], "
        "'--out', sys.argv[2]]); "
        "print('loaded', code, hashing())", str(config), str(out_dir))
    loaded = [line for line in out.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded []", "loaded 0 []", "loaded 0 []"], out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "summary.json" in manifest["files"]


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


def test_no_sample_dt_has_a_default():
    defaulted = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                names = [p.arg for p in positional[len(positional)
                                                   - len(a.defaults):]]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                where = getattr(node, "name", "<lambda>")
            elif isinstance(node, ast.ClassDef):
                names = [item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign)
                         and isinstance(item.target, ast.Name)
                         and item.value is not None]
                where = node.name
            else:
                continue
            if "sample_dt" in names:
                defaulted.append(f"{path.stem}.{where}")
    assert defaulted == [], (
        "every window is sampled on its cadence, so sample_dt is always "
        f"passed; these give it a default: {defaulted}")


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


# perfbench rebinds this name in linearized to count the advect calls made
# there; nothing in linearized calls it.
UNUSED_IMPORT_EXEMPT = {"linearized.advect"}


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported)
                   if name not in used
                   and f"{path.stem}.{name}" not in UNUSED_IMPORT_EXEMPT]
    assert unused == [], f"imported names nothing in their module reads: {unused}"
