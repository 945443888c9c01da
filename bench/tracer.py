"""Span tracer that wraps advens' public functions from outside the package.

A wrapper replaces the function under *every* name it is bound to in the
loaded ``advens`` modules, so ``from .attacks import run_attack`` bindings in
``training``, ``analysis`` and ``cli`` are traced as well as
``attacks.run_attack`` itself. Spans stay in memory until the run ends.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls are traced; span names drop "advens."
TARGETS = (
    ("nn", "forward_cached"),
    ("nn", "backprop"),
    ("nn", "backward"),
    ("nn", "cross_entropy_per_example"),
    ("nn", "entropy"),
    ("nn", "adam_step"),
    ("ensembles", "ce_values_and_input_grad"),
    ("ensembles", "ensemble_predict"),
    ("ensembles", "save_ensemble"),
    ("ensembles", "load_ensemble"),
    ("ensembles", "partition"),
    ("attacks", "run_attack"),
    ("attacks", "fgsm_step"),
    ("attacks", "spsa_gradient_estimate"),
    ("training", "train"),
    ("analysis", "detect"),
    ("analysis", "cross_matrix"),
    ("analysis", "robust_accuracy"),
    ("analysis", "natural_accuracy"),
    ("analysis", "surface_grid"),
    ("data", "load_idx"),
    ("cli", "cmd_train"),
    ("cli", "cmd_eval"),
    ("cli", "cmd_transfer"),
    ("cli", "cmd_detect"),
    ("cli", "cmd_surface"),
)


class Tracer:
    """Records (name, start, end, parent index, run id) spans.

    run_id is set by the caller before each CLI call, so the spans of one
    call share it. Attack outcomes are counted where run_attack returns.
    """

    def __init__(self):
        self.spans = []
        self.run_id = -1
        self.attack_examples = defaultdict(int)  # run id -> examples attacked
        self.attack_successes = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        ensemble_type = None
        if name == "ensembles.ce_values_and_input_grad":
            from advens.ensembles import Ensemble as ensemble_type
        is_attack = name == "attacks.run_attack"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if ensemble_type is not None:
                label += ".ensemble" if isinstance(args[0], ensemble_type) else ".model"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.run_id)
            if is_attack:
                self.attack_examples[self.run_id] += int(result.success_mask.size)
                self.attack_successes[self.run_id] += int(result.success_mask.sum())
            return result

        return wrapper

    def install(self):
        """Replace every binding of each target in the loaded advens modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "advens" or n.startswith("advens.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"advens.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def stats(self, run_ids):
        """Per span name: calls, inclusive seconds and self seconds over the
        spans of the given runs. Self time is a span's duration minus the
        durations of its direct children."""
        child = defaultdict(float)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (label, start, end, _, run_id) in enumerate(self.spans):
            if run_id not in run_ids:
                continue
            entry = out[label]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[idx]
        return out

    def write(self, path):
        with open(path, "w") as f:
            f.write("index,name,start,end,parent,run\n")
            for idx, (label, start, end, parent, run_id) in enumerate(self.spans):
                f.write(f"{idx},{label},{start!r},{end!r},{parent},{run_id}\n")
