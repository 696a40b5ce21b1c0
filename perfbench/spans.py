"""In-memory span recording around the public functions of each shiftweight layer.

A Tracer replaces names in a namespace module (``shiftweight.experiments`` for
the runner workloads, the ``shiftweight`` package for the calls ``e2_path``
makes itself) with wrappers that record one span per call: name, layer, start,
end, parent span and round id.  ``restore`` puts the originals back.  Nothing
under ``src/`` is edited; the package is observed only from outside.
"""

import json
import statistics
import time

# Public functions of each measured layer, as they are named in the
# namespaces the workloads call through.
LAYERS = {
    "datagen": ("gen_categorical", "gen_regression", "split_alpha",
                "true_weight_categorical", "true_weight_function"),
    "predictors": ("train_simplex", "train_hypercube", "train_kernel_regressor"),
    "moments": ("estimate_categorical_moments", "estimate_kernel_moments"),
    "categorical": ("e1_direct", "e2_regularized", "check_burn_in_categorical"),
    "functional": ("e3_direct", "e4_regularized", "evaluate_weight",
                   "operator_inverse_norm_proxy", "check_burn_in_functional"),
    "concentration": ("categorical_radii", "functional_radii",
                      "confidence_report"),
    "erm": ("weighted_erm", "blend_gamma", "oracle_target_risk"),
}
# The sweep runner is a layer too; its spans are recorded by the workload
# around each run_experiment call rather than by wrapping.
RUNNER_LAYER = "experiments"
ALL_LAYERS = tuple(LAYERS) + (RUNNER_LAYER,)
PROXY_NAMES = ("operator_inverse_norm_proxy", "check_burn_in_functional")
E4_FIRST_JITTER = 1e-12     # first rung of the e4_regularized jitter ladder


def _array_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def _e2_info(est):
    d = est.diagnostics
    return {"path": d["solution_path"], "iters": int(d["iterations"])}


def _e4_info(est):
    return {"jitter_rung": 0 if est.diagnostics["jitter"] <= E4_FIRST_JITTER else 1}


# Facts read off return values at the layer boundary.  A missing diagnostics
# key raises, so a renamed field cannot silently zero a metric.
OBSERVERS = {
    "estimate_categorical_moments": lambda r: {"bytes": _array_bytes(r)},
    "estimate_kernel_moments": lambda r: {"bytes": _array_bytes(r)},
    "e2_regularized": _e2_info,
    "e3_direct": lambda est: {"rank_kept": int(est.diagnostics["rank_kept"])},
    "e4_regularized": _e4_info,
}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "round",
                 "failed", "info", "child_s")

    def __init__(self, span_id, name, layer, parent, round_id):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.round = round_id
        self.failed = False
        self.info = None
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.errors = []
        self.round = None
        self._stack = []
        self._patched = []

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span and return its result."""
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, layer,
                   None if parent is None else parent.id, self.round)
        self.spans.append(rec)
        self._stack.append(rec)
        rec.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += rec.end - rec.start
        observe = OBSERVERS.get(name)
        if observe is not None:
            try:
                rec.info = observe(result)
            except (AttributeError, KeyError, TypeError) as exc:
                # not the call's failure: kept apart so the op is not counted
                # as failed, and raised once the run ends
                self.errors.append(f"{name}: cannot read {exc!r}")
        return result

    def install(self, namespace, names):
        """Wrap each name of ``names`` in ``namespace``; a missing name raises."""
        layer_of = {n: layer for layer, ns in LAYERS.items() for n in ns}
        for name in names:
            if name not in layer_of:
                raise KeyError(f"{name!r} belongs to no measured layer")
            original = getattr(namespace, name)     # AttributeError if renamed

            def traced(*args, _fn=original, _name=name, **kwargs):
                return self.span(_name, layer_of[_name], _fn, *args, **kwargs)

            setattr(namespace, name, traced)
            self._patched.append((namespace, name, original))

    def restore(self):
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "round": s.round,
                    "failed": s.failed, "self_s": s.self_s, "info": s.info,
                }) + "\n")


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, rounds, expected_layers):
    """Per-layer metrics: the median over traced rounds of each per-round value.

    Times are self times, so a call nested in another layer's span (such as
    evaluate_weight inside weighted_erm) is charged to its own layer only.
    Raises when a layer in ``expected_layers`` recorded no call at all, or
    when a diagnostics field could not be read.
    """
    spans, tracer_errors = tracer.spans, tracer.errors
    per_round = {r: [] for r in rounds}
    for s in spans:
        per_round[s.round].append(s)

    def med(fn):
        return _median([fn(per_round[r]) for r in rounds])

    def busy(layer, names=None):
        return med(lambda ss: sum(s.self_s for s in ss if s.layer == layer
                                  and (names is None or s.name in names)))

    def infos(ss, name, key):
        return [s.info[key] for s in ss if s.name == name and s.info is not None]

    def share(ss, word):
        paths = infos(ss, "e2_regularized", "path")
        return sum(word in p for p in paths) / len(paths) if paths else 0.0

    if tracer_errors:
        raise RuntimeError("traced run could not read diagnostics: "
                           + "; ".join(sorted(set(tracer_errors))))
    silent = [layer for layer in expected_layers
              if not any(s.layer == layer for s in spans)]
    if silent:
        raise RuntimeError(f"traced run recorded no calls for layers {silent}; "
                           "a wrapped name is no longer called")

    m = {f"{layer}.busy_s": busy(layer) for layer in LAYERS}
    m["functional.proxy_s"] = busy("functional", PROXY_NAMES)
    m["experiments.self_s"] = busy(RUNNER_LAYER)
    m["moments.bytes"] = med(lambda ss: sum(
        infos(ss, "estimate_categorical_moments", "bytes")
        + infos(ss, "estimate_kernel_moments", "bytes")))
    m["functional.rank_kept"] = med(
        lambda ss: _median(infos(ss, "e3_direct", "rank_kept")))
    m["functional.jitter_rung"] = med(
        lambda ss: _median(infos(ss, "e4_regularized", "jitter_rung")))
    m["categorical.e2_iters"] = med(
        lambda ss: sum(infos(ss, "e2_regularized", "iters")))
    m["categorical.e2_loop_share"] = med(lambda ss: share(ss, "prox-gradient"))
    m["categorical.e2_polish_share"] = med(lambda ss: share(ss, "polish"))
    for layer in ALL_LAYERS:
        m[f"{layer}.calls"] = med(
            lambda ss, layer=layer: sum(s.layer == layer for s in ss))
        m[f"{layer}.fail"] = sum(1 for s in spans
                                 if s.layer == layer and s.failed)
    return m
