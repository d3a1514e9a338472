"""Span tracing of one ``relclass`` CLI command, from outside the program.

Run as ``python3 perfbench/tracer.py SPANS RUN_ID -- <relclass args>``. It
imports the package, wraps every public function and public method of each
``relclass`` module (rebinding the names other modules imported), runs
``relclass.cli.main`` in this process and appends the spans to SPANS when
the command ends. A span is ``[run_id, span_id, parent_id, name, start_ns,
end_ns, attrs]`` with span ids ``"<pid>.<n>"``. ``attrs`` carries the few
counts the per-layer metrics need (SMO iterations, kernel shape, model
size, ...), read from the arguments and results at the boundary where the
work happens.

The program's source is not touched; ``layer_metrics`` turns a run's spans
into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("corpus", "embeddings", "features", "svm", "clstm", "modelio", "evaluation", "search", "cli")
N_CLASSES = 6


def _forward_flop(args, kwargs) -> dict:
    """Multiply-add count of one forward_batch, from the tensor shapes."""
    batch, hyper = args[0], args[2]
    B, v, l_max = batch.shape
    k, ws, st, u = hyper.num_filters, hyper.filter_width, hyper.stride, hyper.rnn_units
    m = (l_max - ws) // st + 1
    flop = 2 * B * m * k * v * ws + 2 * B * m * 4 * u * (k + u) + 2 * B * N_CLASSES * u
    return {"flop": flop}


def _svm_rows(model) -> int:
    return sum(len(pair.svm.sv) for pair in model.pair_models.values())


# name -> f(args, kwargs, result) -> attrs, for the boundaries that count work
ATTRS = {
    "corpus.parse_corpus": lambda a, k, r: {"n": len(r)},
    "embeddings.load_table": lambda a, k, r: {"n": len(r), "dim": r.dim},
    "features.build_feature_space": lambda a, k, r: {"space": len(r)},
    "svm.smo_solve": lambda a, k, r: {"iters": r[2], "converged": bool(r[3])},
    "svm.kernel_matrix": lambda a, k, r: {"entries": r.size},
    "svm.save_svm_model": lambda a, k, r: {"sv_rows": _svm_rows(a[0]), "bytes": os.path.getsize(a[1])},
    "svm.load_svm_model": lambda a, k, r: {"sv_rows": _svm_rows(r), "bytes": os.path.getsize(a[0]),
                                           "space": len(r.space)},
    "clstm.save_clstm_model": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "clstm.load_clstm_model": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "clstm.train": lambda a, k, r: {"loss_history": list(r.loss_history)},
}
PRE_ATTRS = {"clstm.forward_batch": _forward_flop}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[str] = []

    def wrap(self, name: str, fn):
        post, pre = ATTRS.get(name), PRE_ATTRS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        pid = os.getpid()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{pid}.{len(spans)}"
            span = [self.run_id, span_id, stack[-1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if post or pre:
                attrs = pre(args, kwargs) if pre else {}
                if post:
                    attrs.update(post(args, kwargs, result))
                span[6] = attrs
            return result

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"relclass.{name}") for name in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        # names bound by `from .module import function`
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def dump(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced run (all its commands' spans).

    Self time is a span's duration minus that of its direct children;
    ``<layer>`` self time sums it over the layer's spans. SMO calls are split
    by role in call order: the first call after a pair starts is the pair
    fit, the calls after it up to that pair's ``fit_sigmoid`` are the
    calibration folds.
    """
    child_ns: dict[str, int] = defaultdict(int)
    for run, sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_ns[parent] += end - start
    total = defaultdict(float)  # inclusive seconds per function name
    calls = defaultdict(int)
    self_s = defaultdict(float)  # per layer
    entries = defaultdict(int)  # calls into a layer from outside it
    layer_of = {span[1]: span[3].split(".", 1)[0] for span in spans}
    for run, sid, parent, name, start, end, attrs in spans:
        layer = layer_of[sid]
        dur = (end - start) / 1e9
        total[name] += dur
        calls[name] += 1
        self_s[layer] += dur - child_ns[sid] / 1e9
        if layer_of.get(parent) != layer:
            entries[layer] += 1

    def attr_values(name: str, key: str) -> list:
        return [s[6][key] for s in spans if s[3] == name and s[6] and key in s[6]]

    pair_s = calib_s = 0.0
    smo_iters = nonconverged = smo_calls = 0
    expect_pair = True
    for run, sid, parent, name, start, end, attrs in spans:  # spans are in start order
        if name == "svm.fit_sigmoid":
            expect_pair = True
        elif name == "svm.smo_solve":
            smo_calls += 1
            smo_iters += attrs["iters"]
            nonconverged += not attrs["converged"]
            if expect_pair:
                pair_s += (end - start) / 1e9
                expect_pair = False
            else:
                calib_s += (end - start) / 1e9

    def largest(key: str, *names: str) -> int:
        return max((value for name in names for value in attr_values(name, key)), default=0)

    flop = sum(attr_values("clstm.forward_batch", "flop"))
    forward_s = total["clstm.forward_batch"]
    return {
        "corpus.parse_s": total["corpus.parse_corpus"],
        "corpus.instances": sum(attr_values("corpus.parse_corpus", "n")),
        "embeddings.load_s": total["embeddings.load_table"],
        "embeddings.rows": sum(attr_values("embeddings.load_table", "n")),
        "features.extract_s": self_s["features"],
        "features.calls": entries["features"],
        "features.space_size": largest("space", "features.build_feature_space", "svm.load_svm_model"),
        "svm.smo_pair_s": pair_s,
        "svm.smo_calib_s": calib_s,
        "svm.smo_calls": smo_calls,
        "svm.smo_iters": smo_iters,
        "svm.smo_nonconverged": nonconverged,
        "svm.kernel_s": total["svm.kernel_matrix"],
        "svm.kernel_entries": sum(attr_values("svm.kernel_matrix", "entries")),
        "svm.sigmoid_s": total["svm.fit_sigmoid"],
        "svm.coupling_s": total["svm.pairwise_coupling"],
        "svm.coupling_calls": calls["svm.pairwise_coupling"],
        "svm.predict_s": total["svm.SvmModel.predict_proba_many"],
        "svm.sv_rows": largest("sv_rows", "svm.save_svm_model", "svm.load_svm_model"),
        "clstm.sequence_s": total["clstm.build_sequence"] + total["clstm.pad"],
        "clstm.forward_s": forward_s,
        "clstm.backward_s": total["clstm.backward_batch"],
        "clstm.adam_s": total["clstm.adam_step"],
        "clstm.batches": calls["clstm.forward_batch"],
        "clstm.forward_gflop": flop / 1e9,
        "clstm.forward_gflop_per_s": flop / 1e9 / forward_s if forward_s else 0.0,
        "modelio.save_s": total["svm.save_svm_model"] + total["clstm.save_clstm_model"],
        "modelio.load_s": total["svm.load_svm_model"] + total["clstm.load_clstm_model"],
        # a run writes each model file once and reads it back: count it once
        "modelio.model_bytes": largest("bytes", "svm.save_svm_model", "svm.load_svm_model")
        + largest("bytes", "clstm.save_clstm_model", "clstm.load_clstm_model"),
    }


def loss_histories(spans: list[list]) -> list[list[float]]:
    return [s[6]["loss_history"] for s in spans if s[3] == "clstm.train" and s[6]]


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS RUN_ID -- <relclass args>")
    tracer = Tracer(run_id)
    tracer.install()
    cli = importlib.import_module("relclass.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
