"""The Cross Optimizer reaches its fixpoint on the benchmark's query
shapes (hospital Q1–Q3 under ``default_rules()``, flights F1 under
``default_rules() + [NNTranslation()]``): one sweep that rewrites, one
that confirms, no Project stacked on a Project, and re-optimizing the
optimized plan fires no rule."""
import pytest

from repro.analyzer import parse_inference_query
from repro.datasets import flights, hospital
from repro.experiments import common
from repro.ir import Catalog, Project, walk
from repro.optimizer import CrossOptimizer, default_rules
from repro.optimizer.nn_translate import NNTranslation

_HOSPITAL = (
    "SELECT pid, age, PREDICT(MODEL los_model) AS predicted_los "
    "FROM patient_info JOIN blood_tests ON pid = pid JOIN prenatal_tests ON pid = pid"
)
SHAPES = {
    "Q1": _HOSPITAL + " WHERE pregnant = 1 AND predicted_los > 7",
    "Q2": _HOSPITAL + " WHERE pregnant = 0 AND predicted_los > 3",
    "Q3": _HOSPITAL + " WHERE predicted_los > 7",
    "F1": "SELECT flight_id, PREDICT(MODEL delay_rf) AS p_delay FROM flights WHERE p_delay > 0.5",
}


def _catalog(frames: dict, key: str) -> Catalog:
    cat = Catalog()
    for name, pdf in frames.items():
        cat.add_table(name, list(pdf.columns), {key})
    return cat


@pytest.fixture(scope="module")
def hospital_setup():
    models = {"los_model": (common.hospital_tree_pipeline(seed=0), "label")}
    return _catalog(hospital.tables(50, seed=0), "pid"), models, default_rules


@pytest.fixture(scope="module")
def flights_setup():
    pipe = common.flights_forest_pipeline(n_train=2_000, seed=0)
    frames = {"flights": flights.frame(50, seed=0).drop(columns=["delayed"])}
    return (_catalog(frames, "flight_id"), {"delay_rf": (pipe, "proba")},
            lambda: default_rules() + [NNTranslation()])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_benchmark_shape_reaches_fixpoint(shape, request):
    setup = "flights_setup" if shape.startswith("F") else "hospital_setup"
    catalog, models, rules = request.getfixturevalue(setup)
    opt = CrossOptimizer(rules=rules())
    report = opt.optimize(parse_inference_query(SHAPES[shape], catalog, models), catalog)
    assert report.iterations <= 2 < opt.max_iterations
    assert not any(
        isinstance(n, Project) and isinstance(n.child, Project) for n in walk(report.plan)
    )
    again = opt.optimize(report.plan, catalog)
    assert again.applied == []
    assert again.plan is report.plan
