"""Spans recorded from outside the program, around calls into its layers.

A span holds a name, a start, an end and the index of the span that was
open when it began. Spans stay in memory until the run ends. Wrappers
pass arguments, results and exceptions through unchanged; whatever a
span records about a call is computed after the span has closed.
"""

import contextlib
import time
from dataclasses import dataclass, field

from opstab import autodiff, cli, deeponet, evaluation, problems, training
from opstab.attacks import perturbation_norm


@dataclass(eq=False)
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        record = Span(name, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, attrs=None):
        """fn with a span around every call; attrs(args, kwargs, result)
        returns a dict stored on the span."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record.attrs = attrs(args, kwargs, result)
            return result
        return traced

    def parent_name(self, span):
        return self.spans[span.parent].name if span.parent >= 0 else ""

    def child_counts(self, parent, child):
        """Per span named parent: how many spans named child it holds
        directly, in span order."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s.name == parent}
        for s in self.spans:
            if s.name == child and s.parent in counts:
                counts[s.parent] += 1
        return counts

    def self_seconds(self):
        """Per span: its duration minus the time its children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own


@contextlib.contextmanager
def patched(sites):
    """Replace module attributes for the duration of the block.

    sites: (module, attribute name, replacement) triples. Callers look
    these names up on the module at call time, so the replacement is
    what they reach.
    """
    saved = []
    try:
        for module, name, replacement in sites:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# --------------------------------------------------------------------------
# what each traced call records about itself
# --------------------------------------------------------------------------

def _grad_attrs(args, kwargs, result):
    output = args[0] if args else kwargs["output"]
    return {"tape_nodes": len(output.tape)}


def _pgd_train_attrs(args, kwargs, result):
    f_rows, configs = args[2], args[4]
    final, losses = result
    if len(configs) == 1:
        configs = list(configs) * len(f_rows)
    use = []
    for row, clean, cfg in zip(final, f_rows, configs):
        resolved = cfg.resolve_for(clean)
        if resolved.epsilon > 0:
            use.append(perturbation_norm(row, clean, resolved) / resolved.epsilon)
    return {
        "loss_gain": (float(losses[-1].mean() / losses[0].mean())
                      if len(losses) else 1.0),
        "budget_use": sum(use) / len(use) if use else 0.0,
    }


def _pgd_eval_attrs(args, kwargs, result):
    _, trace = result
    losses = trace.loss_per_iter
    return {"loss_gain": float(losses[-1] / losses[0]) if len(losses) else 1.0}


def _jacobian_attrs(args, kwargs, result):
    return {"iters": result.iterations_used}


def sites(tracer):
    """Every public function the traced run wraps, where its caller
    looks it up."""
    table = [
        (training, "attack_physics_loss_batch", "attacks.pgd_train",
         _pgd_train_attrs),
        (training, "adam_step", "training.adam_step", None),
        (problems, "sample_batch", "sampling.sample_batch", None),
        (problems, "loss_graph", "problems.loss_graph", None),
        (autodiff, "grad", "autodiff.grad", _grad_attrs),
        (evaluation, "reference_solution", "solvers.reference_solution", None),
        (evaluation, "attack_solution_error", "attacks.pgd_eval",
         _pgd_eval_attrs),
        (evaluation, "jacobian_spectral_norm", "evaluation.jacobian_norm",
         _jacobian_attrs),
        (evaluation, "build_eval_datasets", "evaluation.build_eval_datasets",
         None),
        (evaluation, "stability_report", "evaluation.stability_report", None),
        (evaluation, "write_summary_csv", "evaluation.csv", None),
        (evaluation, "write_errors_csv", "evaluation.csv", None),
        (evaluation, "write_plot_data", "evaluation.csv", None),
        (deeponet, "forward", "deeponet.forward", None),
        (deeponet, "save_checkpoint", "deeponet.checkpoint_io", None),
        (deeponet, "load_checkpoint", "deeponet.checkpoint_io", None),
        (cli, "parse_config", "config.parse_config", None),
        (training, "train", "training.train", None),
    ]
    return [(module, attr, tracer.wrap(name, getattr(module, attr), attrs))
            for module, attr, name, attrs in table]
