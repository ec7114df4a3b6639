"""In-memory span tracer that wraps the program's public calls from outside.

Module-level functions are replaced as module attributes; layer objects are
wrapped per instance (`model.layers[i].forward` / `.backward`), so nothing
under `src/` changes. Each span records name, start, end, parent span, the
operation (frame, pass or epoch) it belongs to, a per-call note and whether
the call raised. `restore()` puts every original back.
"""

from __future__ import annotations

import functools
import time

SETUP_OP = -1  # operation id of spans recorded during set-up

# (module key, attribute) pairs wrapped as module functions; the span name is
# "<module key>.<attribute>"
MODULE_FUNCTIONS = (
    ("preprocess", "read_pnm"),
    ("preprocess", "to_grayscale"),
    ("preprocess", "normalize"),
    ("dataset", "load_manifest"),
    ("dataset", "split_50_50"),
    ("dataset", "extract_patch"),
    ("dataset", "make_eye_patches"),
    ("dataset", "patches_to_tensors"),
    ("augment", "rotate"),
    ("augment", "gaussian_blur"),
    ("augment", "rescale"),
    ("augment", "expand"),
    ("nn", "load_model"),
    ("nn", "train_epoch"),
    ("nn", "sgd_step"),
    ("fusion", "fuse_scores"),
    ("fusion", "predict_class"),
    ("fusion", "evaluate"),
    ("fusion", "emit_report"),
)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


# per-call notes: the decoded path, patches expanded, images evaluated
NOTES = {
    "preprocess.read_pnm": lambda a, k: str(_arg(a, k, 0, "path")),
    "augment.expand": lambda a, k: len(_arg(a, k, 0, "patches")),
    "fusion.evaluate": lambda a, k: len(_arg(a, k, 2, "samples")),
}


def layer_names(model) -> list[str]:
    """conv1, relu1, pool1, ..., dense, softmax: stage-numbered by kind."""
    staged = {"Conv2D": "conv", "ReLU": "relu", "MaxPool2": "pool"}
    single = {"Dense": "dense", "SoftmaxCE": "softmax"}
    seen: dict[str, int] = {}
    names = []
    for layer in model.layers:
        if layer.kind in staged:
            seen[layer.kind] = seen.get(layer.kind, 0) + 1
            names.append(f"{staged[layer.kind]}{seen[layer.kind]}")
        else:
            names.append(single.get(layer.kind, layer.kind.lower()))
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = []      # name id per span
        self.t0 = []        # perf_counter_ns at entry
        self.t1 = []        # perf_counter_ns at exit
        self.parent = []    # index of the enclosing span, -1 at top level
        self.op = []        # operation id (SETUP_OP during set-up)
        self.note = []
        self.failed = []
        self.current_op = SETUP_OP
        self.declared: set[str] = set()  # every span name a wrapper can emit
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, label, fn, note=None):
        """fn with a span around each call; label is a name or f(args, kwargs)."""
        tracer = self
        fixed = None if callable(label) else self._name_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(label(args, kwargs))
            idx = len(tracer.t0)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.note.append(None if note is None else note(args, kwargs))
            tracer.failed.append(False)
            tracer.t1.append(0)
            tracer._stack.append(idx)
            tracer.t0.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = True
                raise
            finally:
                tracer.t1[idx] = time.perf_counter_ns()
                tracer._stack.pop()

        return traced

    def patch(self, obj, attr: str, label, note=None) -> None:
        if isinstance(label, str):
            self.declared.add(label)
        had_own = attr in vars(obj)
        original = getattr(obj, attr)
        setattr(obj, attr, self.wrap(label, original, note))
        self._patches.append((obj, attr, original, had_own))

    def instrument_modules(self, gz) -> None:
        for key, attr in MODULE_FUNCTIONS:
            name = f"{key}.{attr}"
            self.patch(getattr(gz, key), attr, name, NOTES.get(name))

    def instrument_model(self, model) -> None:
        """Wraps Model.forward, the training step and every layer's forward/backward."""
        self.patch(model, "forward", "nn.forward")
        self.patch(model, "batch_loss_and_backward", "nn.step")
        for layer, lname in zip(model.layers, layer_names(model)):
            fwd, train_fwd = f"nn.fwd.{lname}", f"nn.train_fwd.{lname}"

            def label(a, k, fwd=fwd, train_fwd=train_fwd):
                return train_fwd if k.get("cache") else fwd

            self.declared.update((fwd, train_fwd))

            note = _batch_size
            if layer.kind == "Conv2D":
                note = functools.partial(_conv_note, layer.weights.shape)
            self.patch(layer, "forward", label, note)
            if hasattr(layer, "backward"):
                self.patch(layer, "backward", f"nn.bwd.{lname}")

    def restore(self) -> None:
        while self._patches:
            obj, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    def spans(self) -> dict:
        """Columnar span table, as written to the trace file."""
        return {
            "names": self.names,
            "columns": ["name", "t0_ns", "t1_ns", "parent", "op", "failed"],
            "rows": [
                [n, a, b, p, o, int(f)]
                for n, a, b, p, o, f in zip(
                    self.name, self.t0, self.t1, self.parent, self.op, self.failed
                )
            ],
        }


def _batch_size(args, kwargs) -> int:
    return int(args[0].shape[0])


def _conv_note(w_shape, args, kwargs) -> tuple[int, int]:
    """(batch size, FLOPs): 2 per multiply-add of a same-padded stride-1 conv."""
    b, c, h, w = args[0].shape
    out_ch, _, kh, kw = w_shape
    return int(b), 2 * b * out_ch * h * w * c * kh * kw


def self_times(t0, t1, parent) -> list[int]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(t0)):
        covered, reach = 0, t0[i]
        for a, b in sorted((t0[c], t1[c]) for c in children.get(i, ())):
            a, b = max(a, reach), min(b, t1[i])
            if b > a:
                covered += b - a
                reach = b
        out.append(t1[i] - t0[i] - covered)
    return out
