"""Every function ``gogz`` defines is run by some ``gogz`` command.

The golden argvs (which include every command in ``--format text`` and
``oracle``), plus a graph file the tokenizer has to read (fields reordered,
a comment), a missing file and a refused word, run in-process under
:func:`sys.setprofile`.  Every function, method, property getter and
``cached_property`` function written in a ``gogz`` module must be called
by one of them, or be in ``ALLOWED`` with its reason.  Functions are
compared by code object, so methods generated at run time (the named
tuples' ``__new__`` and ``__repr__``, written nowhere in the source) are
not counted, and :func:`functools.lru_cache` wrappers are unwrapped and
cleared first, so that a cache filled by an earlier test cannot hide a
call.  Test-only conveniences live in ``tests/helpers.py``.

The same calls, with :class:`~gogz.words.FreeWord` construction recorded,
check that every word the product builds is freely reduced and tagged
with its vertex's integer id: the constructor checks neither, because
every builder reduces, and every alphabet a graph holds is tagged so.  Run once
more, they check that no call leaves state at module level for the next
one to find: no new name, no table grown.
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
from gogz.words import FreeWord
from test_golden_cli import _write_suite, golden_argvs

ALLOWED = {
    "gogz.cli.build_parser": "runs once, at import, before any command",
    "gogz.graphs.GraphOfGroups.__init__": "the checked constructor for library callers; commands build graphs "
    "with parse_graph and reduce_graph",
    "gogz.graphs.GraphOfGroups.to_text": "the canonical writer that the graphs module docstring documents",
    "gogz.graphs.GraphOfGroups.__repr__": "serves messages and debugging",
    "gogz.words.Alphabet.__repr__": "serves messages and debugging",
    "gogz.words.FreeWord.__getnewargs__": "copy and pickle call it; no command copies a word",
}

_REORDERED = 'vertex 0 gens=a rank=1  # fields in another order\nedge 0 0 0 plus="a^3"\tminus="a^2"\n'

# (argv, exit code) beyond the golden calls
_EXTRA_CALLS = [
    (["check", "reordered.gog", "--no-timing"], 0),
    (["check", "missing.gog"], 2),
    (["conj", "bs_2_3.gog", "--from", "0:a^", "--to", "0:a"], 2),
    # tokens that the reader merges and cancels as it reads them
    (["conj", "bs_2_3.gog", "--from", "0:a a^3 a^-2", "--to", "0:a^-1 a^4", "--no-timing"], 0),
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


def _run_commands(tmp_path, monkeypatch, watch):
    """Run the golden argvs and ``_EXTRA_CALLS`` in ``tmp_path`` inside
    the context manager ``watch``, every cache in ``gogz`` cleared first;
    return whether the extra calls exited as expected."""
    _write_suite(tmp_path)
    (tmp_path / "reordered.gog").write_text(_REORDERED)
    monkeypatch.chdir(tmp_path)
    for cache in _defined_functions()[1]:
        cache.cache_clear()
    argvs = [*golden_argvs(), *(argv for argv, _ in _EXTRA_CALLS)]
    codes = []
    with watch:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    return codes[-len(_EXTRA_CALLS) :] == [code for _, code in _EXTRA_CALLS]


def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch):
    defined, _ = _defined_functions()
    assert set(ALLOWED) <= set(defined.values()), "ALLOWED names a function gogz does not define"
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    @contextlib.contextmanager
    def profiled():
        sys.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    exits_ok = _run_commands(tmp_path, monkeypatch, profiled())
    assert exits_ok, "an extra call exited with another code"
    unreached = sorted(name for code, name in defined.items() if code not in reached and name not in ALLOWED)
    assert not unreached, "reached by no gogz command: " + ", ".join(unreached)


def _is_reduced(syllables) -> bool:
    gens = [g for g, _ in syllables]
    return all(e for _, e in syllables) and all(a != b for a, b in zip(gens, gens[1:]))


def test_every_word_a_command_builds_is_reduced(tmp_path, monkeypatch):
    # pytest rewrites this module's asserts, so the check holds under -O too
    built, tags = [], set()
    construct = FreeWord.__new__

    def recording(cls, vertex, syllables):
        built.append(syllables)
        tags.add(type(vertex))
        return construct(cls, vertex, syllables)

    @contextlib.contextmanager
    def recorded():
        with monkeypatch.context() as patch:
            patch.setattr(FreeWord, "__new__", recording)
            yield

    exits_ok = _run_commands(tmp_path, monkeypatch, recorded())
    unreduced = [syllables for syllables in built if not _is_reduced(syllables)]
    assert not unreduced, f"{len(unreduced)} of {len(built)} words built unreduced, first {unreduced[0]}"
    assert exits_ok, "an extra call exited with another code"
    assert len(built) > 1000
    assert tags == {int}, f"words tagged by {sorted(t.__name__ for t in tags)}"


def _module_state():
    """{module name: (its names, {name: length})} over ``gogz`` and its
    modules, with the length of every dict, list and set a module holds."""
    modules = [gogz, *(importlib.import_module(f"gogz.{info.name}") for info in pkgutil.iter_modules(gogz.__path__))]
    state = {}
    for module in modules:
        values = vars(module)
        sizes = {
            name: len(value)
            for name, value in values.items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        }
        state[module.__name__] = (set(values), sizes)
    return state


def test_no_command_leaves_state_at_module_level(tmp_path, monkeypatch):
    """Each call starts from what the import left: no command adds a
    module-level name or grows a module-level table.  The ``functools``
    caches are not tables here; the benchmark clears them between calls."""
    before = _module_state()
    assert any(sizes for _, sizes in before.values())
    exits_ok = _run_commands(tmp_path, monkeypatch, contextlib.nullcontext())
    assert exits_ok, "an extra call exited with another code"
    after = _module_state()
    for name, (names, sizes) in before.items():
        assert after[name][0] == names, f"{name} gained names {sorted(after[name][0] - names)}"
        assert after[name][1] == sizes, f"a table in {name} changed size"
