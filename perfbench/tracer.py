"""In-memory span tracer for the salad benchmark.

The tracer wraps public salad functions from the outside: every module
attribute under ``salad`` that is bound to one of the functions named in
``TARGETS`` is replaced by a timing wrapper, so calls made through
``from .x import f`` bindings (which modules look up at call time) are
recorded too. Nothing under ``src/salad`` is edited.

A span is ``(id, name, start, end, parent, thread_id, extra)``. Each thread
keeps its own stack of open spans, so forwards running on the runner's
thread pool nest under their own callers; a span opened on a worker thread
with an empty stack takes the innermost open span of the main thread (the
code that started the pool) as its parent. ``extra`` carries exact counts
measured at the same boundary, such as a matmul's inner extent. Spans stay
in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

#: Spans whose time counts toward the caller's self time: the numerics
#: primitives are the arithmetic of the stage that calls them.
PRIMITIVES = frozenset({"numerics.matmul", "numerics.softmax_masked"})


def _matmul_inner(args, kwargs, result):
    return int(np.shape(args[0])[1])


def _forward_pairs(args, kwargs, result):
    out, trace = result
    n = int(out.shape[0])
    pairs = [int(p) for p in trace.attended_pairs]
    return [sum(pairs), len(pairs) * n * n]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _manifest_bytes(args, kwargs, result):
    name = getattr(sys.modules.get("salad.workload"), "MANIFEST_NAME", "manifest.json")
    return os.path.getsize(os.path.join(args[0], name))


def _check_times(args, kwargs, result):
    return [[r.name, float(r.elapsed_s)] for r in result]


#: "module.function" -> function computing the span's ``extra`` (or None).
TARGETS = {
    "numerics.matmul": _matmul_inner,
    "numerics.softmax_masked": None,
    "masking.calibrate_plan": None,
    "masking.realize_head_mask": None,
    "masking.topk_block_select": None,
    "block.salad_forward": _forward_pairs,
    "block.sparse_head_attention": None,
    "block.compute_gate": None,
    "linear_attention.rope3d_apply": None,
    "linear_attention.linear_attention_streaming": None,
    "gradients.salad_loss_grads": None,
    "gradients.gradcheck_salad": None,
    "analysis.branch_rank_analysis": None,
    "runner.run_pipeline": None,
    "workload.load_workload": _manifest_bytes,
    "workload.write_workload": None,
    "tensor_io.read_tensor": _file_bytes,
    "tensor_io.read_params": _file_bytes,
    "tensor_io.dumps_json": None,
    "config.load_config": None,
    "checks.run_checks": _check_times,
}


class Tracer:
    """Records spans around the salad functions in ``TARGETS``.

    Create it, :meth:`install` it from the main thread, run the code, then
    :meth:`uninstall` and :meth:`dump`. Targets missing from the installed
    package are skipped and listed in ``missing``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        originals = {}
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            try:
                module = importlib.import_module(f"salad.{mod_name}")
            except ImportError:
                self.missing.append(target)
                continue
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append(target)
                continue
            originals[id(fn)] = (fn, self._wrap(target, fn, TARGETS[target]))
        self._local.stack = self._main_stack
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "salad" or mod_name.startswith("salad.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, extra_fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        main_stack = self._main_stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn is not None else None
            spans.append((sid, name, start, end, parent, get_ident(), extra))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)
