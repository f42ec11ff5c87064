"""In-memory span tracer that instruments flowdistill from outside.

The tracer replaces functions of the ``flowdistill`` modules with timing
wrappers for the duration of a ``with`` block and restores them afterwards.
No source file of the package changes. Modules import each other's
functions by name (``from .solvers import euler_solve``), so a function is
replaced at every ``flowdistill.*`` module binding that holds it, found by
identity, not only where it is defined. Methods are replaced on their class.

Every call records one span ``[name, start, end, parent]``; ``parent`` is
the index of the enclosing span or -1. Self time is derived from the spans
afterwards (:func:`self_times`). A probe attached to a target may rename
the span from the call's arguments and add deterministic counts. The
probe's own work is recorded as a ``trace.probe`` span, a child of the
caller's span, so that it is not charged to the program's layers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

__all__ = ["PROBE_SPAN", "Target", "Tracer", "self_times", "outermost",
           "public_targets"]

PACKAGE = "flowdistill"
PROBE_SPAN = "trace.probe"


class Target:
    """One function to wrap: ``module`` (short name) and ``attr``.

    ``attr`` is ``"func"`` for a module-level function or ``"Class.method"``
    for a method. The span name is ``"<module>.<attr>"``. ``probe``, when
    given, is called after the call as ``probe(arguments, result)`` with the
    bound arguments (defaults applied) and returns ``(suffix, counts)``:
    a non-empty suffix is appended to the span name, and ``counts`` are
    added to the tracer's counters under ``"<span name>.<key>"``.
    """

    __slots__ = ("module", "attr", "probe")

    def __init__(self, module: str, attr: str, probe=None):
        self.module = module
        self.attr = attr
        self.probe = probe

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(target: Target):
    """(owner class or None, function) for a target, or None if absent."""
    try:
        module = importlib.import_module(f"{PACKAGE}.{target.module}")
    except ImportError:
        return None
    owner_name, _, method = target.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        fn = vars(owner).get(method) if isinstance(owner, type) else None
        if not inspect.isfunction(fn):
            return None
        return owner, fn
    fn = getattr(module, target.attr, None)
    return (None, fn) if inspect.isfunction(fn) else None


def public_targets(module_names) -> list:
    """Targets for every public function and public method of each module.

    Public means listed in the module's ``__all__`` and defined in that
    module; a class contributes every plain function in its body whose name
    has no leading underscore. A module that cannot be imported contributes
    nothing.
    """
    out = []
    for short in module_names:
        try:
            module = importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            continue
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append(Target(short, name))
            elif isinstance(obj, type):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out.append(Target(short, f"{name}.{attr}"))
    return out


class Tracer:
    """Wraps targets while active and keeps every span in memory.

    One tracer serves one traced pass: create it, enter it, run the work,
    leave it, then read ``spans`` and ``counts``. Targets that no longer
    exist are skipped.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list = []
        self.counts: dict = {}
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = target.name
        probe = target.probe
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe_span = [PROBE_SPAN, clock(), 0.0, stack[-1]]
                spans.append(probe_span)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    suffix, counts = probe(bound.arguments, result)
                    if suffix:
                        span[0] = f"{name}.{suffix}"
                    for key, value in counts.items():
                        counter = f"{span[0]}.{key}"
                        self.counts[counter] = self.counts.get(counter, 0) + int(value)
                finally:
                    probe_span[2] = clock()
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                continue
            owner, fn = found
            wrapper = self._wrap(target, fn)
            if owner is not None:
                self._patch(owner, target.attr.rpartition(".")[2], fn, wrapper)
                continue
            for module in modules:
                for attr in [k for k, v in vars(module).items() if v is fn]:
                    self._patch(module, attr, fn, wrapper)
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of each span, in the clock's unit.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; overlapping children count once and the part
    of a child outside its parent does not count.
    """
    children: list = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, start), min(k_end, end)
            if k_end <= k_start:
                continue
            if run_end is None or k_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = k_start, k_end
            else:
                run_end = max(run_end, k_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def outermost(spans, indices) -> list:
    """Those of ``indices`` whose span has no ancestor of the same name."""
    out = []
    for i in indices:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out
