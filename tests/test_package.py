"""Import layering: the package root loads nothing, and a module only what it needs."""

import json
import subprocess
import sys


def _loaded_after(statement: str, env) -> list[str]:
    """The package and numpy modules loaded by `statement` in a fresh process."""
    code = (
        f"import json, sys; {statement}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('weingarten', 'numpy'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_package_root_loads_no_submodule(python_env):
    assert _loaded_after("import weingarten", python_env) == ["weingarten"]


def test_coeffring_loads_neither_numpy_nor_a_sibling(python_env):
    loaded = _loaded_after("import weingarten.coeffring", python_env)
    assert loaded == ["weingarten", "weingarten.coeffring"]
