"""The benchmark workloads and the checks on their outputs.

Every input is built from the workload seed through the public shiftweight
API.  A workload runs in rounds; a round is the unit the timed loop repeats
and the unit per-layer metrics are taken over.  See NOTES.md for why each
workload exists and which metrics it is expected to move.
"""

import inspect
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import shiftweight as sw
from shiftweight import experiments

from spans import LAYERS, RUNNER_LAYER

ALPHA = 0.5
DELTA = 0.1
THETA_MAX = 10.0
REG_SCALE = 0.1             # the README's useful magnitude for the auto radius
KERNEL_REL_ERR_MAX = 0.3    # test_criterion_06's bound at n = m = 8000
E2_GRID = 16                # delta_T grid points, 0 .. 3x the operator radius
E2_OBJ_RTOL = 1e-9          # slack on the E2 optimality check, relative to ||b||
E2_SIGNATURE = inspect.signature(sw.e2_regularized)
WARM_SEED = 999             # cell seed of the runner workloads' warm-up cells

FULL = {"kernel_n": 8000, "categorical_n": 8000, "warm_n": 1000,
        "e2_n": 2000, "e2_ks": tuple(range(2, 9)), "e2_seeds": 4}
SMOKE = {"kernel_n": 400, "categorical_n": 400, "warm_n": 200,
         "e2_n": 300, "e2_ks": (2, 3), "e2_seeds": 2}


@dataclass
class Op:
    """One timed operation: a runner cell pair or one E2 solve."""
    wall: float
    ok: bool = True
    rel_err: float = None
    target_risk: float = None
    timed: bool = True      # False for e2_path's per-triple E1/burn-in/report group
    extra: dict = field(default_factory=dict)


def cell_seed(seed, index):
    return 1000 * seed + index


def _failed(t0, exc, timed=True):
    traceback.print_exception(exc)
    return Op(time.perf_counter() - t0, ok=False, timed=timed)


# ===================== output checks =====================

def _finite(v):
    return v is not None and math.isfinite(v)


def finite_problems(name, values):
    return [f"{name} {v!r} is not finite" for v in values if not _finite(v)]


def kernel_problems(rel_errs):
    """Functional rel_err must be finite and within test_criterion_06's bound."""
    return finite_problems("kernel rel_err", rel_errs) + [
        f"kernel rel_err {v:.4g} > {KERNEL_REL_ERR_MAX}" for v in rel_errs
        if _finite(v) and v > KERNEL_REL_ERR_MAX]


def risk_problems(risks):
    return finite_problems("target_risk", risks) + [
        f"target_risk {v!r} outside [0, 1]" for v in risks
        if _finite(v) and not 0.0 <= v <= 1.0]


def e2_objective(T, b, delta_T, theta):
    return float(np.linalg.norm(T @ theta - b) + delta_T * np.linalg.norm(theta))


def e2_problems(T, b, delta_T, theta):
    """The E2 program is convex, so its answer may not lose to theta = 0 or to
    the pseudo-inverse solution; both are feasible points."""
    J = e2_objective(T, b, delta_T, theta)
    J_ref = min(e2_objective(T, b, delta_T, np.zeros(T.shape[1])),
                e2_objective(T, b, delta_T, np.linalg.pinv(T) @ b))
    if not math.isfinite(J) or J > J_ref + E2_OBJ_RTOL * max(1.0, np.linalg.norm(b)):
        return [f"E2 objective {J!r} exceeds the reference {J_ref!r} "
                f"at delta_T={delta_T:.4g}"]
    return []


# ===================== runner workloads =====================

class RunnerWorkload:
    """Cells of the sweep runner.  One round is one op: the workload's cell
    variants at one seed, so every op does the same mix of work."""

    namespace = experiments
    traced_names = tuple(n for names in LAYERS.values() for n in names)

    def __init__(self, seed, sizes):
        self.seed = seed
        self.n = sizes[self.size_key]
        self.warm_n = sizes["warm_n"]

    def config(self, variant, n, seed):
        raw = {"sweep": (n,), "seeds": (seed,), "reg_scale": REG_SCALE,
               "run_erm": True}
        raw.update(self.scenario)
        raw.update(variant)
        return sw.build_config(raw)

    def prepare(self):
        # The warm-up cells are the same for every workload seed: their cost
        # varies with the seed (E2 and ERM iteration counts), and it is part
        # of setup_s, which should move only with the package.
        self.warm = [self.config(v, self.warm_n, WARM_SEED)
                     for v in self.variants]

    def warm_up(self):
        for cfg in self.warm:
            experiments.run_experiment(cfg)

    # A solver whose calls the output checks verify: its arguments and answer
    # are recorded while the round runs and checked after it.  None: no solver.
    recorded = None

    def _record(self, calls):
        """Wraps ``self.recorded`` in the runner's namespace so each call's
        arguments and result land in ``calls``; returns the undo."""
        if self.recorded is None:
            return lambda: None
        fn = getattr(experiments, self.recorded)   # missing name: AttributeError

        def recording(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        setattr(experiments, self.recorded, recording)
        return lambda: setattr(experiments, self.recorded, fn)

    def run_round(self, r, tracer=None):
        cfgs = [self.config(v, self.n, cell_seed(self.seed, r))
                for v in self.variants]
        rows = []
        calls = []
        undo = self._record(calls)
        t0 = time.perf_counter()
        try:
            for cfg in cfgs:
                if tracer is None:
                    out = experiments.run_experiment(cfg)
                else:
                    out = tracer.span("run_experiment", RUNNER_LAYER,
                                      experiments.run_experiment, cfg)
                rows.append(out[0])
        except Exception as exc:    # a failed op is counted, the run goes on
            return [_failed(t0, exc)]
        finally:
            wall = time.perf_counter() - t0
            undo()
        rels = [row["relative_error"] for row in rows]
        risks = [row["target_risk"] for row in rows]
        return [Op(wall, rel_err=float(np.mean(rels)),
                   target_risk=float(np.mean(risks)),
                   extra={"rel_errs": rels, "risks": risks, "calls": calls})]

    def problems(self, ops):
        out = []
        for op in ops:
            if op.ok:
                out += self.rel_err_problems(op.extra["rel_errs"])
                out += risk_problems(op.extra["risks"])
                out += self.call_problems(op.extra["calls"])
        return out

    def call_problems(self, calls):
        return []


class KernelDense(RunnerWorkload):
    name = "kernel_dense"
    size_key = "kernel_n"
    scenario = {"scenario": "functional_vs_n"}
    variants = ({"estimator": "E3"}, {"estimator": "E4"})
    expected_layers = ("datagen", "predictors", "moments", "functional",
                       "concentration", "erm", RUNNER_LAYER)

    def rel_err_problems(self, rels):
        return kernel_problems(rels)


class CategoricalERM(RunnerWorkload):
    name = "categorical_erm"
    size_key = "categorical_n"
    k = 4
    scenario = {"scenario": "categorical_vs_n", "estimator": "E2", "k": k}
    variants = ({"statistic_mode": "simplex"}, {"statistic_mode": "hypercube"})
    expected_layers = ("datagen", "predictors", "moments", "categorical",
                       "concentration", "erm", RUNNER_LAYER)

    recorded = "e2_regularized"

    def rel_err_problems(self, rels):
        return finite_problems("categorical rel_err", rels)

    def call_problems(self, calls):
        """Every E2 solve of the round must be optimal for its program.  How
        close rel_err comes to the truth is not checked: on a seed whose class
        centers nearly coincide, the shift signal falls below E2's radius and
        E2 rightly returns theta near 0 (rel_err near that of omega = 1)."""
        out = []
        if len(calls) != len(self.variants):
            out.append(f"{len(calls)} E2 solves recorded in a round of "
                       f"{len(self.variants)} E2 cells")
        for args, kwargs, est in calls:
            bound = E2_SIGNATURE.bind(*args, **kwargs).arguments
            mom = bound["mom"]
            out += e2_problems(np.asarray(mom.T_hat),
                               np.asarray(mom.q_hat - mom.p_hat),
                               bound["delta_T"], est.theta_hat)
        return out


# ===================== e2_path =====================

@dataclass
class Triple:
    mom: object
    k: int
    d: int
    deltas: np.ndarray
    omega_true: np.ndarray


class E2Path:
    """E2 over a delta_T grid on pre-built moment triples.  One round is one
    pass over every triple; each E2 solve is one op."""

    name = "e2_path"
    namespace = sw
    traced_names = ("e1_direct", "e2_regularized", "check_burn_in_categorical",
                    "confidence_report")
    expected_layers = ("categorical", "concentration")

    def __init__(self, seed, sizes):
        self.seed = seed
        self.n = sizes["e2_n"]
        self.ks = sizes["e2_ks"]
        self.n_seeds = sizes["e2_seeds"]

    def prepare(self):
        self.triples = []
        for k in self.ks:
            for i in range(self.n_seeds):
                s = cell_seed(self.seed, i)
                gen = sw.CategoricalSynthConfig(k, 0.5, s)
                ds = sw.gen_categorical(gen, self.n, self.n)
                sp = sw.split_alpha(ds, ALPHA, seed=s)
                for trainer in (sw.train_simplex, sw.train_hypercube):
                    g = trainer((sp.erm_x, sp.erm_y), k)
                    mom = sw.estimate_categorical_moments(
                        (sp.est_x, sp.est_y), ds.target_x, g, k)
                    radius = sw.categorical_radii(g.output_dim, k, ALPHA, self.n,
                                                  self.n, DELTA)[2]
                    self.triples.append(Triple(
                        mom, k, g.output_dim,
                        np.linspace(0.0, 3.0 * radius, E2_GRID),
                        sw.true_weight_categorical(gen)))

    def warm_up(self):
        self._triple_ops(self.triples[0])

    def _triple_ops(self, tr):
        t0 = time.perf_counter()
        try:
            e1 = sw.e1_direct(tr.mom, ALPHA, self.n, DELTA)
            sw.confidence_report("categorical", ALPHA, self.n, self.n, DELTA,
                                 1.0 / e1.diagnostics["sigma_min"], THETA_MAX,
                                 d=tr.d, k=tr.k)
            sw.check_burn_in_categorical(tr.mom, tr.d, tr.k, ALPHA, self.n, DELTA)
            ops = [Op(time.perf_counter() - t0, timed=False)]
        except Exception as exc:
            ops = [_failed(t0, exc, timed=False)]
        for delta_T in tr.deltas:
            t0 = time.perf_counter()
            try:
                est = sw.e2_regularized(tr.mom, delta_T, theta_cap=THETA_MAX)
            except Exception as exc:
                ops.append(_failed(t0, exc))
                continue
            ops.append(Op(time.perf_counter() - t0,
                          extra={"triple": tr, "delta_T": float(delta_T),
                                 "theta": est.theta_hat}))
        return ops

    def run_round(self, r, tracer=None):
        return [op for tr in self.triples for op in self._triple_ops(tr)]

    def problems(self, ops):
        """Fills each solve's rel_err (outside the timed loop) and checks it."""
        out = []
        for op in ops:
            if not (op.ok and op.timed):
                continue
            tr = op.extra["triple"]
            op.rel_err = sw.relative_error(1.0 + op.extra["theta"], tr.omega_true)
            out += finite_problems("e2 rel_err", [op.rel_err])
            out += e2_problems(np.asarray(tr.mom.T_hat),
                               np.asarray(tr.mom.q_hat - tr.mom.p_hat),
                               op.extra["delta_T"], op.extra["theta"])
        return out


WORKLOADS = {w.name: w for w in (KernelDense, CategoricalERM, E2Path)}
