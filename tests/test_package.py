"""The package's public surface, and the hygiene of its sources: every
name a module or a test module imports is used, the modules import each other without a
cycle and the policy layer stays below the simulator, ``__all__`` lists
exactly what a star import binds, and every name the benchmark harness
wraps, counts or reads still exists."""

import ast
import types
from pathlib import Path

import pytest

import telegraphctl
from telegraphctl import (
    analytics,
    config,
    errors,
    experiments,
    filtering,
    model,
    rategrid,
    rng,
    simulate,
    traceio,
)

SRC = Path(telegraphctl.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations, such as ``-> "RateGrid"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            annotations = [node.returns] + [p.annotation for p in params if p is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every name bound by an import statement that the
    module never reads: not in an expression, a string annotation or a
    module-level ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_a_reexport():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .filtering import build_pulse_matrix, pulsed_belief  # noqa: F401\n"
        "from .model import Belief\n"
        "def f(b: 'Belief') -> float:\n"
        "    return math.pi * pulsed_belief(b)\n"
    )
    assert unused_imports(source) == [(3, "np"), (4, "build_pulse_matrix")]


def intra_package_imports(path: Path) -> set[str]:
    """The package modules a source file imports with ``from .x import``
    or ``from . import x``, anywhere in the file; ``__init__`` stands for
    the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module:
            found.add(node.module.split(".")[0])
        else:
            found.update(
                a.name if (path.parent / f"{a.name}.py").exists() else "__init__"
                for a in node.names
            )
    return found


IMPORT_GRAPH = {p.stem: intra_package_imports(p) for p in SRC.glob("*.py")}


def test_intra_package_imports_are_acyclic():
    # repeatedly drop the modules that import no module still left; a
    # cycle is what remains
    left = dict(IMPORT_GRAPH)
    while leaves := [m for m, deps in left.items() if not deps & left.keys()]:
        for m in leaves:
            del left[m]
    assert left == {}


def test_control_imports_neither_simulator_nor_harness():
    # the policy layer turns beliefs into decisions; the controller in
    # experiments turns decisions into the simulator's pulses
    assert IMPORT_GRAPH["control"] & {"simulate", "experiments"} == set()


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from telegraphctl import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(telegraphctl.__all__)


def test_all_lists_each_public_name_once_and_no_submodule():
    public = [
        name
        for name, value in vars(telegraphctl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(telegraphctl.__all__) == sorted(public)


def test_all_exports_every_public_exception():
    public = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and not name.startswith("_")
    ]
    assert public
    assert sorted(set(public) - set(telegraphctl.__all__)) == []


# What the benchmark harness wraps in timing spans, counts per call or
# patches per run, looked up as the program's own callers look them up; a
# missing one breaks its traced pass.
BENCHMARK_HOOKS = [
    (simulate, "step_continuous_events"),
    (simulate, "emit_photons"),
    (simulate, "apply_pulse"),
    (experiments, "propagate_prior"),
    (experiments, "posterior_update"),
    (experiments, "decide_action"),
    (filtering, "propagate_prior"),
    (filtering, "posterior_update"),
    (filtering, "expm"),
    (rategrid, "stopping_check"),
    (rategrid, "marginal_rates"),
    (rategrid, "marginal_states"),
    (rng.PortableRandom, "uniform"),
]

# What its workloads build their runs and checks from.
BENCHMARK_READS = [
    (simulate, "run_trace"),
    (simulate, "run_trace_events"),
    (simulate, "SimConfig"),
    (filtering, "run_filter"),
    (rategrid, "run_estimation"),
    (rategrid, "RATE_NAMES"),
    (rategrid.RateMarginals, "as_dict"),
    (model.Belief, "as_tuple"),
    (model, "PhotonCountModel"),
    (model, "Pulse"),
    (model, "TraceRecord"),
    (model, "TransitionRates"),
    (experiments, "FeedbackController"),
    (analytics, "dwell_time"),
    (analytics, "mean_occupancy"),
    (analytics, "time_to_target"),
    (config, "ExperimentConfig"),
    (config, "feedback_defaults"),
    (errors, "TelegraphError"),
    (rng, "derive_seed"),
    (traceio, "format_trace"),
    (traceio, "parse_trace"),
]


@pytest.mark.parametrize(
    "owner, name",
    BENCHMARK_HOOKS + BENCHMARK_READS,
    ids=lambda v: v if isinstance(v, str) else v.__name__.rsplit(".", 1)[-1],
)
def test_benchmark_names_exist(owner, name):
    assert hasattr(owner, name)


def test_benchmark_estimation_call_runs():
    # the openloop-estimate workload's call, keywords included, on one bin
    cfg = config.ExperimentConfig()
    result = rategrid.run_estimation(
        [model.TraceRecord(0, 28)],
        cfg.grid,
        cfg.filter_photon_model(),
        cfg.bin_time,
        initial_states=cfg.initial_belief,
        history_every=100,
        method="exact",
    )
    assert result.n_bins == 1


@pytest.mark.parametrize(
    "helper, message",
    [
        ("check_belief", "belief must be finite and >= 0"),
        ("check_above", "{name} must be finite and > {low:g}, got {value!r}"),
        ("check_nonneg", "{name} must be finite and >= 0, got {value!r}"),
    ],
    ids=["check_belief", "check_above", "check_nonneg"],
)
def test_rule_written_once(helper, message):
    # each rule's message appears once in the sources, in its helper in model
    counts = {
        p.name: p.read_text(encoding="utf-8").count(message) for p in SRC.glob("*.py")
    }
    assert {name: n for name, n in counts.items() if n} == {"model.py": 1}
    source = (SRC / "model.py").read_text(encoding="utf-8")
    (check,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == helper
    ]
    assert message in ast.get_source_segment(source, check)


def test_finiteness_messages_raised_in_model_helpers_only():
    # no module writes its own "must be finite" check: every such message
    # is raised by one of model's four checks
    raisers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and any(
                    isinstance(c, ast.Constant) and "must be finite" in str(c.value)
                    for c in ast.walk(node)
                ):
                    raisers.add(f"{path.stem}.{func.name}")
    assert raisers == {
        "model.check_belief",
        "model.normalize_triple",
        "model.check_above",
        "model.check_nonneg",
    }
