"""Import layering: the package root loads nothing, and a module only what it needs.

numpy is loaded by the Monte-Carlo layer alone; every exact command,
group-algebra products included, runs without it.  No exact command loads
dataclasses, and the table commands load neither the verification suites
nor the group algebra.  A ``table`` command loads only its own group's
module, ``gram`` neither group module, and ``characters`` neither those nor
the table layer.

No function or method of the package is dead: each one is named in
``src/``, ``scripts/`` or ``wgbench/`` outside its own body, or allowed below
with its reason.  A module-level function is named by its own module, by an
import from its module or by ``module.name``; a method by an attribute read.
Helpers that only tests call live in ``tests/oracles.py``.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import weingarten


WATCHED = ("weingarten", "numpy", "dataclasses")


def _loaded_after(statement: str, env) -> list[str]:
    """The package, numpy and dataclasses modules loaded by `statement` in a fresh process.

    `statement` may span lines and may call `sys.exit` with a message to fail.
    """
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        f"if m.split('.')[0] in {WATCHED!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_by_cli(argv: list[str], env) -> list[str]:
    """Modules loaded by `cli.main(argv)`, which must return 0; its stdout is dropped."""
    statement = (
        "import contextlib, io\n"
        "from weingarten.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "if code != 0:\n"
        "    sys.exit(f'exit code {code}')"
    )
    return _loaded_after(statement, env)


def _has_numpy(loaded: list[str]) -> bool:
    return any(m.split(".")[0] == "numpy" for m in loaded)


def test_package_root_loads_no_submodule(python_env):
    assert _loaded_after("import weingarten", python_env) == ["weingarten"]


def test_coeffring_loads_neither_numpy_nor_a_sibling(python_env):
    loaded = _loaded_after("import weingarten.coeffring", python_env)
    assert loaded == ["weingarten", "weingarten.coeffring"]


@pytest.mark.parametrize("module", ["groupalg", "verify", "cli"])
def test_exact_modules_load_no_numpy(python_env, module):
    loaded = _loaded_after(f"import weingarten.{module}", python_env)
    assert f"weingarten.{module}" in loaded
    assert "weingarten.haarmc" not in loaded
    assert not _has_numpy(loaded)


EXACT_COMMANDS = [
    *(
        ["table", "--group", group, "--n", "3", "--tau", tau, "--format", fmt]
        for group in ("unitary", "orthogonal")
        for tau in ("symbolic", "5")
        for fmt in ("json", "csv")
    ),
    ["gram", "--group", "orthogonal", "--n", "3"],
    ["wgfn", "--group", "unitary", "--cycle-type", "[2,1]"],
    ["characters", "--n", "4"],
    ["verify", "--suite", "pseudoinverse", "--n", "3"],
    ["verify", "--suite", "commute", "--n", "3"],
    ["verify", "--suite", "jucys", "--n", "4"],
    ["verify", "--suite", "oid", "--n", "3"],
    ["verify", "--suite", "stability", "--n", "3"],
    ["verify", "--suite", "keyid", "--n", "4"],
    ["verify", "--suite", "idempotents", "--n", "4"],
    ["verify", "--suite", "central", "--n", "4"],
    ["verify", "--suite", "doubling", "--n", "2"],
    ["verify", "--suite", "stability", "--n", "4", "--tau", "7"],
    ["verify", "--suite", "all", "--n", "9"],
]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_runs_without_numpy_or_dataclasses(python_env, argv):
    loaded = _loaded_by_cli(argv, python_env)
    assert not _has_numpy(loaded)
    assert "dataclasses" not in loaded


TABLE_COMMANDS = [argv for argv in EXACT_COMMANDS if argv[0] in ("table", "gram", "wgfn", "characters")]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=" ".join)
def test_table_commands_load_neither_verify_nor_groupalg(python_env, argv):
    loaded = _loaded_by_cli(argv, python_env)
    assert "weingarten.verify" not in loaded
    assert "weingarten.groupalg" not in loaded


GROUP_MODULES = {"weingarten.unitary", "weingarten.orthogonal", "weingarten.exactmat"}


@pytest.mark.parametrize(
    "argv, expected",
    [(argv, {"weingarten.exactmat", f"weingarten.{argv[2]}"})
     for argv in EXACT_COMMANDS if argv[0] == "table"]
    + [(["gram", "--group", group, "--n", "3", "--format", "csv"], {"weingarten.exactmat"})
       for group in ("unitary", "orthogonal")]
    + [(["characters", "--n", "4"], set())],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_each_table_command_loads_only_its_group_module(python_env, argv, expected):
    assert GROUP_MODULES & set(_loaded_by_cli(argv, python_env)) == expected


def test_cli_names_the_verify_suites_in_their_order():
    from weingarten import cli, verify

    assert cli.VERIFY_SUITES == tuple(verify.SUITES)


NUMPY_COMMANDS = [
    ["mc", "--group", "unitary", "--n", "1", "--tau", "2", "--samples", "1000"],
]


@pytest.mark.parametrize("argv", NUMPY_COMMANDS, ids=" ".join)
def test_monte_carlo_commands_load_numpy(python_env, argv):
    assert "numpy" in _loaded_by_cli(argv, python_env)


def test_all_fraction_product_still_takes_the_kernel(python_env):
    # the kernel runs on first use, returns the product that composing every
    # term pair gives, and loads no numpy
    statement = (
        "from weingarten import groupalg\n"
        "kernel, results = groupalg._mul_fractions, []\n"
        "def spy(*args):\n"
        "    results.append(kernel(*args))\n"
        "    return results[-1]\n"
        "groupalg._mul_fractions = spy\n"
        "a = groupalg.jm_element(3, 3)\n"
        "product = a * a\n"
        "expected = {}\n"
        "for p, x in a.terms.items():\n"
        "    for q, y in a.terms.items():\n"
        "        expected[p * q] = expected.get(p * q, 0) + x * y\n"
        "if not (len(results) == 1 and type(results[0]) is dict and results[0] == expected):\n"
        "    sys.exit(f'kernel returned {results!r}, expected {expected!r}')\n"
        "if product.terms != expected:\n"
        "    sys.exit(f'product {product!r}')"
    )
    assert not _has_numpy(_loaded_after(statement, python_env))


# -- dead helpers -------------------------------------------------------------

PACKAGE = Path(weingarten.__file__).resolve().parent
SCRIPTS = PACKAGE.parents[1] / "scripts"
WGBENCH = PACKAGE.parents[1] / "wgbench"

# functions and methods nothing outside the tests names, each kept for its reason
UNCALLED_BY_DESIGN = {
    "groupalg.AlgebraElement.coefficient": "public read of one term of an element, 0 where it has none",
}


def _reads(node, kind) -> Counter:
    """How often each identifier is read under node as a `kind`, ast.Name or ast.Attribute."""
    field = "id" if kind is ast.Name else "attr"
    return Counter(getattr(n, field) for n in ast.walk(node)
                   if isinstance(n, kind) and isinstance(n.ctx, ast.Load))


def _imports(tree: ast.Module, package: str, in_package: bool) -> Counter:
    """(module, name) pairs that a file takes from a module of `package`.

    ``from .module import name`` inside the package, ``from package.module
    import name`` anywhere, and ``module.name`` reads.
    """
    taken = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level and in_package:
                module = node.module
            elif not node.level and node.module.startswith(f"{package}."):
                module = node.module.removeprefix(f"{package}.")
            else:
                continue
            taken.update((module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)):
            taken[(node.value.id, node.attr)] += 1
    return taken


def _helpers(module: str, tree: ast.Module):
    """(qualified name, def node, is method) of each module-level function and class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _uncalled(package: Path, *callers: Path) -> list[str]:
    """Helpers of `package` that nothing names outside their own def; dunders exempt.

    A module-level function is named when its own module reads it, or when a
    file imports it from that module or reads ``module.name``.  A method is
    named only by an attribute read.  The files of `callers` are scanned as
    callers only.
    """
    paths = [*package.glob("*.py"), *(path for d in callers for path in d.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    attributes = sum((_reads(tree, ast.Attribute) for tree in trees.values()), Counter())
    imported = sum((_imports(tree, package.name, path.parent == package)
                    for path, tree in trees.items()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        names = _reads(tree, ast.Name)
        for qualname, node, is_method in _helpers(path.stem, tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if is_method:
                named = attributes[node.name] > _reads(node, ast.Attribute)[node.name]
            else:
                named = (names[node.name] > _reads(node, ast.Name)[node.name]
                         or imported[(path.stem, node.name)] > 0)
            if not named:
                dead.append(qualname)
    return sorted(dead)


def test_every_package_helper_is_named_outside_its_own_def():
    # coeffring.parse is named by wgbench/gate.py alone
    assert _uncalled(PACKAGE, SCRIPTS, WGBENCH) == sorted(UNCALLED_BY_DESIGN)


def _made_up_package(tmp_path, modules: dict, script: str):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text)
    (scripts / "run.py").write_text(script)
    return package, scripts


def test_the_dead_helper_scan_sees_a_helper_only_its_own_body_names(tmp_path):
    package, scripts = _made_up_package(
        tmp_path,
        {"mod": "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n"
                "def called():\n    return 1\n\n"
                "class Box:\n    def __len__(self):\n        return 0\n\n"
                "    def read(self):\n        return self.read\n\n"
                "    def used(self):\n        return 2\n"},
        "from pkg.mod import called\nprint(called(), Box().used())\n",
    )
    assert _uncalled(package, scripts) == ["mod.Box.read", "mod.recursive"]


def test_a_same_named_local_keeps_no_helper_alive(tmp_path):
    # `other` defines a local parse and a local value, as cli._int_at_least
    # defines a local parse; neither names mod.parse or the method Table.value
    package, scripts = _made_up_package(
        tmp_path,
        {"mod": "def parse(text):\n    return text\n\n"
                "def kept():\n    return 1\n\n"
                "def read():\n    return 2\n\n"
                "class Table:\n    def value(self):\n        return 3\n",
         "other": "def factory():\n    def parse(text):\n        return text\n\n"
                  "    value = parse\n    return value\n"},
        "import pkg.mod as mod\nfrom pkg.mod import kept\nfrom pkg.other import factory\n\n"
        "print(factory()('x'), kept(), mod.read())\n",
    )
    assert _uncalled(package, scripts) == ["mod.Table.value", "mod.parse"]
