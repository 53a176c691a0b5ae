"""Run one weingarten CLI job with per-layer timing wrappers installed.

Usage: python tracer.py METRICS_JSON ARG...

The wrappers live here, not in the program: before ``weingarten.cli.main``
runs, every public function and method of each layer module (plus the
arithmetic dunders and ``__init__``) is replaced by a wrapper that counts the
call.  A call that crosses from one layer into another opens a span; a
layer's self time is its span time minus the time of the child spans it
contains.  Calls within one layer are only counted, which keeps the overhead
down.  Time spent in code outside the package (``Fraction``, ``json``,
numpy) is charged to the layer that called it.  At exit the per-layer self
times, the named counters and the sizes of the module memos are written to
METRICS_JSON; the job's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("symcore", "coeffring", "exactmat", "groupalg", "young", "unitary", "orthogonal", "haarmc", "cli")
DUNDERS = {
    "__init__", "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
}

SELF_S: dict[str, float] = defaultdict(float)
CALLS: dict[str, int] = defaultdict(int)
EXTRA: dict[str, float] = defaultdict(float)
# frames are [layer, time covered by child spans]; the sentinel is outside every layer
STACK: list[list] = [["", 0.0]]


def _wrap(fn, layer: str, key: str, pre=None, post=None):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            CALLS[key] += 1
            return fn(*args, **kwargs)
        return counted

    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        CALLS[key] += 1
        if pre is not None:
            pre(args, kwargs)
        if post is None and STACK[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        STACK.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            STACK.pop()
            SELF_S[layer] += dt - frame[1]
            STACK[-1][1] += dt
        if post is not None:
            post(args, kwargs, result, dt)
        return result

    return wrapper


# -- hooks for the counters that need more than a call count ------------------

def _mat_mul_post(args, kwargs, result, dt):
    a, b = args[0], args[1]
    EXTRA["exactmat.entry_products"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _algebra_mul_post(args, kwargs, result, dt):
    a, b = args[0], args[1]
    if type(b).__name__ == "AlgebraElement":
        EXTRA["groupalg.products"] += 1
        EXTRA["groupalg.term_pairs"] += len(a) * len(b)


def _square_entries(matrix) -> int:
    return len(matrix) * len(matrix[0]) if matrix else 0


def _gram_unitary_post(args, kwargs, result, dt):
    EXTRA["unitary.entries"] += _square_entries(result)


def _table_unitary_post(args, kwargs, result, dt):
    EXTRA["unitary.entries"] += _square_entries(result.weingarten)


def _cache_load_post(args, kwargs, result, dt):
    EXTRA["young.cache_load_s"] += dt


def _grid_post(args, kwargs, result, dt):
    EXTRA["haarmc.samples"] += result.samples


def _moment_post(args, kwargs, result, dt):
    EXTRA["haarmc.samples"] += result.spec.samples


def _idempotent_pre(args, kwargs):
    EXTRA["young.idempotent_calls"] += 1
    if args[0].rows in sys.modules["weingarten.young"]._IDEMPOTENT_CACHE:
        EXTRA["young.idempotent_hits"] += 1


HOOKS = {
    "exactmat.mat_mul": (None, _mat_mul_post),
    "groupalg.AlgebraElement.__mul__": (None, _algebra_mul_post),
    "unitary.gram_unitary": (None, _gram_unitary_post),
    "unitary.weingarten_unitary": (None, _table_unitary_post),
    "young.CharacterTable.load_or_build": (None, _cache_load_post),
    "haarmc.grid_crosscheck": (None, _grid_post),
    "haarmc.estimate_moment": (None, _moment_post),
    "young.young_idempotent": (_idempotent_pre, None),
}


def _wrapped(fn, layer: str, qualname: str):
    key = f"{layer}.{qualname}"
    pre, post = HOOKS.get(key, (None, None))
    return _wrap(fn, layer, key, pre, post)


def install() -> None:
    """Wrap every layer's public callables and rebind each imported alias."""
    replaced: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"weingarten.{layer}")
        for name, value in list(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                _wrap_class(value, layer)
            elif inspect.isfunction(value) or hasattr(value, "cache_info"):
                replaced[id(value)] = (value, _wrapped(value, layer, name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "weingarten" and not mod_name.startswith("weingarten."):
            continue
        for name, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])


def _wrap_class(cls, layer: str) -> None:
    for name, value in list(vars(cls).items()):
        if name.startswith("_") and name not in DUNDERS:
            continue
        qualname = f"{cls.__name__}.{name}"
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, name, type(value)(_wrapped(value.__func__, layer, qualname)))
        elif inspect.isfunction(value):
            setattr(cls, name, _wrapped(value, layer, qualname))


def snapshot(wall_s: float) -> dict:
    """Per-layer self times, named counters and memo sizes of this process."""
    from weingarten import orthogonal, young

    calls = CALLS.get
    counts = {
        "symcore.perm_products": calls("symcore.Permutation.__mul__", 0),
        "symcore.cycle_decomps": calls("symcore.Permutation.cycles", 0),
        "orthogonal.loop_type_calls": calls("orthogonal.loop_type", 0),
        "orthogonal.histograms_built": len(orthogonal._HISTOGRAM_CACHE),
        "coeffring.rational_reductions": calls("coeffring.TauRational.__init__", 0),
        "coeffring.render_calls": calls("coeffring.render", 0),
        "young.character_calls": calls("young.character", 0),
    }
    for name in ("exactmat.entry_products", "groupalg.products", "groupalg.term_pairs",
                 "unitary.entries", "haarmc.samples",
                 "young.idempotent_calls", "young.idempotent_hits"):
        counts[name] = int(EXTRA[name])
    return {
        "wall_s": wall_s,
        "self_s": {layer: SELF_S[layer] for layer in LAYERS},
        "young.cache_load_s": EXTRA["young.cache_load_s"],
        "counts": counts,
        "memos": {
            "_CHAR_MEMO": len(young._CHAR_MEMO),
            "_IDEMPOTENT_CACHE": len(young._IDEMPOTENT_CACHE),
            "_HISTOGRAM_CACHE": len(orthogonal._HISTOGRAM_CACHE),
        },
    }


def main(argv: list[str]) -> int:
    metrics_path, job_argv = argv[0], argv[1:]
    install()
    from weingarten import cli

    t0 = time.perf_counter()
    try:
        return cli.main(job_argv)
    finally:
        sys.stdout.flush()
        with open(metrics_path, "w") as fh:
            json.dump(snapshot(time.perf_counter() - t0), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
