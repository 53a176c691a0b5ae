"""Import layering: the package root loads nothing, and a module only what it needs.

numpy is loaded by the Monte-Carlo layer alone; every exact command,
group-algebra products included, runs without it.  No exact command loads
dataclasses, and the table commands load neither the verification suites
nor the group algebra.  A ``table`` command loads only its own group's
module, ``gram`` neither group module, and ``characters`` neither those nor
the table layer.

No function or method of the package is dead: each one is called when
every entry point runs once (each subcommand, ``python -m weingarten``, both
scripts and the benchmark gate's row check), or allowed below with its
reason.  Helpers that only tests call live in ``tests/oracles.py``.
"""

import ast
import json
import subprocess
import sys
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
ROOT = PACKAGE.parents[1]

# functions and methods that no entry point calls, each kept for its reason
UNCALLED_BY_DESIGN = {
    "coeffring.TauRational.__hash__": "a constant TauRational hashes like the same Fraction",
    "exactmat.TypeRows.__getitem__": "wgbench/tracer.py reads the rows in _table_unitary_post",
    "exactmat.TypeRows.__len__": "wgbench/tracer.py reads the rows in _table_unitary_post",
    "exactmat.WeingartenTable.weingarten": "wgbench/tracer.py reads it in _table_unitary_post",
    "groupalg.AlgebraElement.__len__": "wgbench/tracer.py counts the factors' terms in _algebra_mul_post",
}

# runs `script` with ARGS bound to the arguments after it, and writes the
# module, name and first line of each function of `package` it called to `out`
_PROFILED = """
import json, sys
from pathlib import Path

package, out, script = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
called = set()

def note(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(note)
try:
    exec(compile(script, "<entry points>", "exec"), {"__name__": "__entry__", "ARGS": sys.argv[4:]})
finally:
    sys.setprofile(None)
keys = {(Path(c.co_filename).stem, c.co_name, c.co_firstlineno) for c in called
        if Path(c.co_filename).resolve().parent == package}
Path(out).write_text(json.dumps(sorted(keys)))
"""

# every entry point of the package, each command once: ARGS is a scratch
# directory, the scripts directory and the wgbench directory
ENTRY_POINTS = """
import contextlib, io, json, runpy, sys
from pathlib import Path
from weingarten import cli

tmp, scripts, wgbench = map(Path, ARGS)

def quietly(call, argv=None):
    if argv is not None:
        sys.argv = argv
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        try:
            call()
        except SystemExit:
            pass
    return out.getvalue()

def main(*argv):
    return quietly(lambda: cli.main(list(argv)))

for kind in ("table", "gram"):
    for group in ("unitary", "orthogonal"):
        for fmt in ("json", "csv"):
            for tau in ("symbolic", "7", "1"):
                main(kind, "--group", group, "--n", "3", "--tau", tau, "--format", fmt)
main("table", "--group", "unitary", "--n", "2", "--out", str(tmp / "missing" / "table.json"))
main("table", "--group", "unitary", "--n", "2", "--out", str(tmp / "t.json"))
main("verify", "--suite", "all", "--n", "3")
main("verify", "--suite", "pseudoinverse", "--n", "4", "--tau", "2")
main("verify", "--suite", "oid", "--n", "4", "--tau", "5")
main("wgfn", "--group", "unitary", "--cycle-type", "[2,1]")
main("characters", "--n", "3")
for group, indices in (("unitary", "1;1;1;1"), ("orthogonal", "1,1;1,1")):
    main("mc", "--group", group, "--n", "1", "--tau", "2", "--samples", "100")
    main("mc", "--group", group, "--n", "1", "--tau", "2", "--samples", "100", "--indices", indices)
quietly(lambda: runpy.run_module("weingarten", run_name="__main__"),
        ["weingarten", "wgfn", "--group", "unitary", "--cycle-type", "[1]"])
quietly(lambda: runpy.run_path(str(scripts / "build_tables.py"), run_name="__main__"),
        ["build_tables.py", "--outdir", str(tmp / "tables"), "--max-unitary", "1",
         "--max-orthogonal", "1"])
quietly(lambda: runpy.run_path(str(scripts / "mc_crosscheck.py"), run_name="__main__"),
        ["mc_crosscheck.py", "--samples", "100", "--seeds", "1"])
sys.path.insert(0, str(wgbench))
import gate

table = json.loads(main("table", "--group", "unitary", "--n", "3"))
gate.check_row_identities(table["weingarten"], "unitary", 3, "symbolic", 0)
"""


def _helpers(module: str, tree: ast.Module):
    """Qualified name and def node of each module-level function and class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def _unreached(package: Path, script: str, args, env, tmp_path) -> list[str]:
    """Functions and methods of `package` that `script` never calls; ``__repr__`` exempt.

    The script runs in a fresh process under ``sys.setprofile``, which sees
    every call of a Python function.  A call is matched to its def by module,
    name and first line (a decorated def's starts at its first decorator), so
    a method counts as called only when it ran itself, not another of its name.
    """
    out = tmp_path / "called.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROFILED, str(package), str(out), script, *map(str, args)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    called = {tuple(key) for key in json.loads(out.read_text())}
    return sorted(
        qualname
        for path in package.glob("*.py")
        for qualname, node in _helpers(path.stem, ast.parse(path.read_text(), str(path)))
        if node.name != "__repr__"
        and (path.stem, node.name, min(d.lineno for d in [node, *node.decorator_list])) not in called
    )


def test_every_package_helper_is_called_by_an_entry_point(python_env, tmp_path):
    # coeffring.parse is called by wgbench/gate.py alone
    args = (tmp_path, ROOT / "scripts", ROOT / "wgbench")
    assert _unreached(PACKAGE, ENTRY_POINTS, args, python_env, tmp_path) == sorted(UNCALLED_BY_DESIGN)


def test_the_reach_check_tells_methods_of_one_name_apart(python_env, tmp_path):
    # Table.read is named (Box.read is called), but never runs itself; nor
    # does recursive, which only its own body names; of the dunders only
    # __repr__ is exempt, so the uncalled Box.__len__ counts
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n"
        "def called():\n    return 1\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def __repr__(self):\n        return 'Box()'\n\n"
        "    def read(self):\n        return 2\n\n"
        "class Table:\n    def read(self):\n        return 3\n"
    )
    env = {**python_env, "PYTHONPATH": str(tmp_path)}
    script = "from pkg.mod import Box, called\nprint(called(), Box().read())\n"
    unreached = _unreached(package, script, (), env, tmp_path)
    assert unreached == ["mod.Box.__len__", "mod.Table.read", "mod.recursive"]
