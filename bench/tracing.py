"""Per-layer tracing of cwishart from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
patches each ``cwishart`` module namespace (and module-level dict, such as
the CLI's dispatch table) that holds the original, so calls between modules
go through the wrappers.  ``uninstall`` restores the originals.  No program
file changes.

A wrapper records a span: its inclusive time, and the time covered by the
spans it called (its children).  Self time is the difference.  Spans are
aggregated in memory as they close.  Generator functions are counted but not
timed, since their work runs in the caller's iteration.  Work inside process
pool workers is not seen; it shows as time inside the parent's span.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "cwishart"
MODULES = ("linalg", "model", "bounds", "netcert", "verify", "cli")

# Metric groups over single functions.  A group's time counts only its
# outermost span, so nested calls inside one group are not counted twice.
GROUPS = {
    "linalg.generator": ("linalg.generator",),
    "linalg.gaussian": ("linalg.sample_standard_gaussian_matrix",),
    "linalg.spectral_norm": ("linalg.spectral_norm",),
    "linalg.spd_sqrt": ("linalg.spd_sqrt",),
    "linalg.io": ("linalg.matrix_to_dict", "linalg.matrix_from_dict", "linalg.dumps_matrix",
                  "linalg.save_matrix", "linalg.load_matrix", "linalg.canonical_dumps"),
}


def _text_bytes(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# Bytes moved by the matrix and report IO functions.
BYTE_COUNTERS = {
    "linalg.dumps_matrix": _text_bytes,
    "linalg.canonical_dumps": _text_bytes,
    "linalg.load_matrix": _file_bytes,
}

# Generators whose items are regular vectors: each item of ``_level_batches``
# is a batch with one row per vector, each item of ``enumerate_regular`` one vector.
REGULAR_VECTOR_SOURCES = {
    "netcert._level_batches": len,
    "netcert.enumerate_regular": lambda item: 1,
}


def public_functions(module) -> dict:
    """Functions a module defines and exports (its ``__all__``, else no leading ``_``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


class Tracer:
    """Aggregated spans for one process; ``reset`` starts a new window."""

    def __init__(self):
        self._patches: list = []
        self._stack: list = []
        self._group_of: dict = {}
        self._depth: dict = defaultdict(int)
        for group, keys in GROUPS.items():
            for key in keys:
                self._group_of[key] = group
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)         # "module.function" -> calls
        self.self_s = defaultdict(float)      # module -> self time
        self.module_calls = defaultdict(int)  # module -> calls
        self.group_s = defaultdict(float)     # group -> outermost inclusive time
        self.group_calls = defaultdict(int)
        self.io_bytes = 0
        self.regular_vectors = 0

    # -- spans -------------------------------------------------------------

    def _span(self, module: str, key: str, fn):
        stack, group = self._stack, self._group_of.get(key)
        counter = BYTE_COUNTERS.get(key)
        depth = self._depth

        # The wrapper keeps fn's module and name, so a pool that pickles it by
        # reference finds the patched attribute in the parent and the worker.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if group:
                depth[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[key] += 1
                self.module_calls[module] += 1
                self.self_s[module] += elapsed - frame[0]
                if group:
                    depth[group] -= 1
                    self.group_calls[group] += 1
                    if depth[group] == 0:
                        self.group_s[group] += elapsed
            if counter is not None:
                self.io_bytes += counter(args, result)
            return result

        return wrapper

    def _counted_generator(self, module: str, key: str, fn):
        size = REGULAR_VECTOR_SOURCES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            self.module_calls[module] += 1
            for item in fn(*args, **kwargs):
                if size is not None:
                    self.regular_vectors += size(item)
                yield item

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        replace = {}
        for short in MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            targets = public_functions(module)
            for name in REGULAR_VECTOR_SOURCES:
                mod, _, fn_name = name.partition(".")
                if mod == short and inspect.isfunction(getattr(module, fn_name, None)):
                    targets[fn_name] = getattr(module, fn_name)
            for name, fn in targets.items():
                key = f"{short}.{name}"
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = self._counted_generator(short, key, fn)
                else:
                    replace[id(fn)] = self._span(short, key, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in replace:
                            self._patches.append((value, k, v))
                            value[k] = replace[id(v)]

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def window(self) -> dict:
        """The metrics of the current window, every per-layer name present."""
        m = {}
        for group in GROUPS:
            m[f"{group}.calls"] = self.group_calls[group]
            m[f"{group}.s"] = self.group_s[group]
        m["linalg.gaussian.draws"] = m.pop("linalg.gaussian.calls")
        m["linalg.io.bytes"] = self.io_bytes
        del m["linalg.io.calls"]
        for short in MODULES[1:]:
            m[f"{short}.calls"] = self.module_calls[short]
            m[f"{short}.self_s"] = self.self_s[short]
        m["model.sample_wishart.calls"] = self.calls["model.sample_wishart"]
        m["model.sample_decoupled.calls"] = self.calls["model.sample_decoupled"]
        m["netcert.regular_vectors"] = self.regular_vectors
        return m

    def functions(self) -> dict:
        return dict(sorted(self.calls.items()))
