"""Every function ``gogz`` defines is run by some ``gogz`` command.

The golden argvs, plus an ``oracle`` call, a report in ``--format text``, a
graph file the tokenizer has to read (fields reordered, a comment), a
missing file and a refused word, run in-process under :func:`sys.setprofile`.  Every function,
method, property getter and ``cached_property`` function written in a
``gogz`` module must be called by one of them, or be in ``ALLOWED`` with
its reason.  Functions are compared by code object, so dataclass-generated
methods (written nowhere in the source) are not counted, and
:func:`functools.lru_cache` wrappers are unwrapped and cleared first, so
that a cache filled by an earlier test cannot hide a call.  Test-only
conveniences live in ``tests/helpers.py``.
"""

import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import sys

import gogz
from gogz.cli import main
from test_golden_cli import _write_suite, golden_argvs

ALLOWED = {
    "gogz.cli.build_parser": "runs once, at import, before any command",
    "gogz.graphs.GraphOfGroups.to_text": "the canonical writer that the graphs module docstring documents",
    "gogz.graphs.GraphOfGroups.__repr__": "serves messages and debugging",
    "gogz.graphs.OrientedEdge.__repr__": "builds the class graph's exit-3 message",
    "gogz.words.Alphabet.__repr__": "serves messages and debugging",
}

_REORDERED = 'vertex 0 gens=a rank=1  # fields in another order\nedge 0 0 0 plus="a^3"\tminus="a^2"\n'

# (argv, exit code) beyond the golden calls
_EXTRA_CALLS = [
    (["oracle", "bs_2_3.gog", "--relation", "t a^2 t^-1 = a^3", "--no-timing"], 0),
    (["conj", "bs_2_3.gog", "--from", "0:a^2", "--to", "0:a^3", "--format", "text"], 0),
    (["check", "reordered.gog", "--no-timing"], 0),
    (["check", "missing.gog"], 2),
    (["conj", "bs_2_3.gog", "--from", "0:a^", "--to", "0:a"], 2),
]


def _members(cls):
    for attr in vars(cls).values():
        if isinstance(attr, (staticmethod, classmethod)):
            yield attr.__func__
        elif isinstance(attr, property):
            yield attr.fget
        elif isinstance(attr, functools.cached_property):
            yield attr.func
        else:
            yield attr


def _defined_functions():
    """{code object: qualified name} of every function written in a gogz
    module, and the lru_cache wrappers among them."""
    found, caches = {}, []
    for info in pkgutil.iter_modules(gogz.__path__):
        module = importlib.import_module(f"gogz.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            candidates = _members(obj) if inspect.isclass(obj) else [obj]
            for candidate in candidates:
                if hasattr(candidate, "cache_clear"):
                    caches.append(candidate)
                func = inspect.unwrap(candidate)
                if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
                    found[func.__code__] = f"{module.__name__}.{func.__qualname__}"
    return found, caches


def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch):
    _write_suite(tmp_path)
    (tmp_path / "reordered.gog").write_text(_REORDERED)
    monkeypatch.chdir(tmp_path)
    defined, caches = _defined_functions()
    assert set(ALLOWED) <= set(defined.values()), "ALLOWED names a function gogz does not define"
    for cache in caches:
        cache.cache_clear()

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    argvs = [*golden_argvs(), *(argv for argv, _ in _EXTRA_CALLS)]
    codes = []
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    finally:
        sys.setprofile(None)
    assert codes[-len(_EXTRA_CALLS) :] == [code for _, code in _EXTRA_CALLS]

    unreached = sorted(name for code, name in defined.items() if code not in reached and name not in ALLOWED)
    assert not unreached, "reached by no gogz command: " + ", ".join(unreached)
