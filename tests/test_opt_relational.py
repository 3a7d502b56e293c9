"""Tests for the standard relational rules (filter pushdown, column
pruning, join elimination), incl. DuckDB-oracle equivalence through the
Spark codegen."""
import numpy as np
import pandas as pd
import pytest

from repro.analyzer import parse_inference_query
from repro.datasets import hospital
from repro.experiments.common import hospital_tree_pipeline
from repro.ir import (
    And,
    Catalog,
    Cmp,
    Col,
    Filter,
    Join,
    Lit,
    MLPredict,
    Project,
    Scan,
    UDFNode,
    output_columns,
    walk,
)
from repro.miniml import DecisionTree, Pipeline, TableFeaturizer
from repro.optimizer import CrossOptimizer, default_rules
from repro.optimizer.relational import FilterPushdown, PruneColumns, gather_constraints
from repro.oracle import assert_equivalent
from repro.runtime.codegen import to_dataframe


@pytest.fixture(scope="module")
def catalog():
    return (
        Catalog()
        .add_table("patient_info", ["pid", "age", "gender", "pregnant", "smoker"], {"pid"})
        .add_table("blood_tests", ["pid", "bp", "hematocrit", "glucose"], {"pid"})
        .add_table("prenatal_tests", ["pid", "trimester", "fetal_hr"], {"pid"})
    )


def _join3():
    j1 = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", fk_one_to_one=True)
    return Join(j1, Scan("prenatal_tests"), "pid", "pid", fk_one_to_one=True)


class TestFilterPushdown:
    def test_filter_splits_across_join(self, catalog):
        pred = And([Cmp("=", Col("pregnant"), Lit(1)), Cmp(">", Col("bp"), Lit(120))])
        plan = Filter(Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid"), pred)
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, Join)
        assert isinstance(out.left, Filter) and out.left.predicate.columns() == {"pregnant"}
        assert isinstance(out.right, Filter) and out.right.predicate.columns() == {"bp"}

    def test_cross_side_conjunct_stays(self, catalog):
        pred = Cmp("<", Col("age"), Col("bp"))
        plan = Filter(Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid"), pred)
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed
        assert isinstance(out, Filter)

    def test_adjacent_filters_merge(self, catalog):
        plan = Filter(
            Filter(Scan("patient_info"), Cmp(">", Col("age"), Lit(30))),
            Cmp("=", Col("pregnant"), Lit(1)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, Filter) and isinstance(out.child, Scan)
        assert len([n for n in walk(out) if isinstance(n, Filter)]) == 1

    def test_filter_through_passthrough_project(self, catalog):
        plan = Filter(
            Project(_join3(), [("age", Col("age")), ("pid", Col("pid"))]),
            Cmp(">", Col("age"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, Project) and isinstance(out.child, Join)
        (f,) = [n for n in walk(out) if isinstance(n, Filter)]
        assert isinstance(f.child, Scan) and f.child.table == "patient_info"

    def test_filter_stays_above_scan_pruning_project(self, catalog):
        # pushing below a Project that only prunes a Scan gains nothing,
        # and PruneColumns would wrap the Scan again on the next sweep
        plan = Filter(
            Project(Scan("patient_info"), [("age", Col("age")), ("pid", Col("pid"))]),
            Cmp(">", Col("age"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed and out is plan

    def test_filter_not_pushed_through_left_join(self, catalog):
        pred = And([Cmp("=", Col("pregnant"), Lit(1)), Cmp(">", Col("bp"), Lit(120))])
        plan = Filter(
            Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", how="left"), pred
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed and out is plan

    def test_filter_blocked_by_renaming_project(self, catalog):
        plan = Filter(
            Project(Scan("patient_info"), [("years", Col("age"))]),
            Cmp(">", Col("years"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed

    def test_filter_commutes_with_predict(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["age"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"age": rng.integers(18, 90, 50).astype(float)})
        pipe.fit(df, (df["age"] > 50).astype(int).to_numpy())
        plan = Filter(
            MLPredict(Scan("patient_info"), "m", pipe, "pred"),
            Cmp(">", Col("age"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, MLPredict) and isinstance(out.child, Filter)

    def test_filter_on_prediction_stays_above(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["age"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"age": rng.integers(18, 90, 50).astype(float)})
        pipe.fit(df, (df["age"] > 50).astype(int).to_numpy())
        plan = Filter(
            MLPredict(Scan("patient_info"), "m", pipe, "pred"),
            Cmp(">", Col("pred"), Lit(0)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed

    def test_semantics_with_oracle(self, spark, catalog):
        t = hospital.tables(500, seed=3)
        tables = {k: spark.createDataFrame(v) for k, v in t.items()}
        pred = And([Cmp("=", Col("pregnant"), Lit(1)), Cmp(">", Col("bp"), Lit(115))])
        plan = Project(
            Filter(_join3(), pred),
            [("pid", Col("pid")), ("age", Col("age")), ("bp", Col("bp"))],
        )
        out, _ = FilterPushdown().apply(plan, catalog)
        df = to_dataframe(out, spark, tables)
        assert_equivalent(
            df,
            "SELECT p.pid AS pid, p.age AS age, b.bp AS bp "
            "FROM patient_info p JOIN blood_tests b ON p.pid = b.pid "
            "JOIN prenatal_tests pr ON p.pid = pr.pid "
            "WHERE p.pregnant = 1 AND b.bp > 115",
            patient_info=t["patient_info"],
            blood_tests=t["blood_tests"],
            prenatal_tests=t["prenatal_tests"],
        )


class TestPruneColumns:
    def test_scan_projection_inserted(self, catalog):
        plan = Project(
            Filter(Scan("patient_info"), Cmp("=", Col("pregnant"), Lit(1))),
            [("age", Col("age"))],
        )
        out, changed = PruneColumns().apply(plan, catalog)
        assert changed
        inner = out.child.child
        assert isinstance(inner, Project) and isinstance(inner.child, Scan)
        assert inner.output_names == ["age", "pregnant"]
        again, changed = PruneColumns().apply(out, catalog)
        assert not changed and again is out

    def test_filter_only_column_dropped_above_filter(self, spark, catalog):
        """A column only a Filter reads stops at that Filter, also when
        the Filter sits under a Join rather than a Project."""
        f = Filter(Scan("patient_info"), Cmp("=", Col("pregnant"), Lit(1)))
        j = Join(f, Scan("blood_tests"), "pid", "pid", fk_one_to_one=True)
        plan = Project(j, [("age", Col("age")), ("bp", Col("bp"))])
        out, changed = PruneColumns().apply(plan, catalog)
        assert changed
        left = out.child.left
        assert isinstance(left, Project) and left.output_names == ["pid", "age"]
        assert isinstance(left.child, Filter)
        again, changed = PruneColumns().apply(out, catalog)
        assert not changed and again is out
        t = hospital.tables(300, seed=6)
        df = to_dataframe(out, spark, {k: spark.createDataFrame(v) for k, v in t.items()})
        assert_equivalent(
            df,
            "SELECT p.age AS age, b.bp AS bp FROM patient_info p "
            "JOIN blood_tests b ON p.pid = b.pid WHERE p.pregnant = 1",
            patient_info=t["patient_info"], blood_tests=t["blood_tests"],
        )

    def test_q1_predict_input_has_no_filter_only_column(self, catalog):
        """Hospital Q1: predicate-based pruning removes ``pregnant`` from
        the tree, so the rows the MLPredict scores carry no ``pregnant``."""
        models = {"los_model": (hospital_tree_pipeline(seed=0), "label")}
        sql = (
            "SELECT pid, age, PREDICT(MODEL los_model) AS predicted_los FROM patient_info "
            "JOIN blood_tests ON pid = pid JOIN prenatal_tests ON pid = pid "
            "WHERE pregnant = 1 AND predicted_los > 7"
        )
        report = CrossOptimizer(default_rules()).optimize(
            parse_inference_query(sql, catalog, models), catalog)
        (predict,) = [n for n in walk(report.plan) if isinstance(n, MLPredict)]
        assert "pregnant" not in predict.input_cols
        assert "pregnant" not in output_columns(predict.child, catalog)

    def test_project_over_scan_not_rewrapped(self, catalog):
        plan = Project(Scan("patient_info"), [("age", Col("age"))])
        out, changed = PruneColumns().apply(plan, catalog)
        assert not changed and out is plan

    def test_column_selecting_project_collapses(self, catalog):
        inner = Project(_join3(), [("pid", Col("pid")), ("age", Col("age"))])
        plan = Project(inner, [("years", Col("age"))])
        out, changed = PruneColumns().apply(plan, catalog)
        assert changed
        assert out.exprs == [("years", Col("age"))]
        assert not any(
            isinstance(n, Project) and isinstance(n.child, Project) for n in walk(out)
        )
        assert {n.table for n in walk(out) if isinstance(n, Scan)} == {"patient_info"}

    def test_join_elimination_when_right_unused(self, catalog):
        plan = Project(_join3(), [("age", Col("age")), ("bp", Col("bp"))])
        out, changed = PruneColumns().apply(plan, catalog)
        assert changed
        joins = [n for n in walk(out) if isinstance(n, Join)]
        assert len(joins) == 1  # prenatal_tests join dropped
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert scans == {"patient_info", "blood_tests"}

    def test_join_kept_when_column_used(self, catalog):
        plan = Project(_join3(), [("age", Col("age")), ("trimester", Col("trimester"))])
        out, _ = PruneColumns().apply(plan, catalog)
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert "prenatal_tests" in scans

    def test_join_not_eliminated_without_fk(self, catalog):
        j = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", fk_one_to_one=False)
        plan = Project(j, [("age", Col("age"))])
        out, _ = PruneColumns().apply(plan, catalog)
        assert any(isinstance(n, Join) for n in walk(out))

    def test_filter_columns_stay_required(self, catalog):
        plan = Project(
            Filter(_join3(), Cmp(">", Col("trimester"), Lit(1))),
            [("age", Col("age"))],
        )
        out, _ = PruneColumns().apply(plan, catalog)
        # prenatal_tests provides the filter column: join must survive
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert "prenatal_tests" in scans

    def test_predict_inputs_stay_required(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["bp"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"bp": rng.normal(120, 10, 50)})
        pipe.fit(df, (df["bp"] > 120).astype(int).to_numpy())
        plan = Project(
            MLPredict(_join3(), "m", pipe, "pred"),
            [("pred", Col("pred")), ("pid", Col("pid"))],
        )
        out, _ = PruneColumns().apply(plan, catalog)
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert "blood_tests" in scans  # provides bp
        assert "prenatal_tests" not in scans  # unused -> join dropped

    def test_udf_blocks_pruning(self, catalog):
        plan = Project(
            UDFNode(_join3(), fn=lambda p: p, description="blackbox"),
            [("age", Col("age"))],
        )
        out, _ = PruneColumns().apply(plan, catalog)
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert scans == {"patient_info", "blood_tests", "prenatal_tests"}

    def test_oracle_after_join_elimination(self, spark, catalog):
        t = hospital.tables(400, seed=5)
        tables = {k: spark.createDataFrame(v) for k, v in t.items()}
        plan = Project(_join3(), [("pid", Col("pid")), ("age", Col("age"))])
        out, _ = PruneColumns().apply(plan, catalog)
        df = to_dataframe(out, spark, tables)
        assert_equivalent(
            df,
            "SELECT p.pid AS pid, p.age AS age "
            "FROM patient_info p JOIN blood_tests b ON p.pid = b.pid "
            "JOIN prenatal_tests pr ON p.pid = pr.pid",
            patient_info=t["patient_info"],
            blood_tests=t["blood_tests"],
            prenatal_tests=t["prenatal_tests"],
        )


class TestGatherConstraints:
    def test_through_join_and_filters(self):
        plan = Join(
            Filter(Scan("patient_info"), Cmp("=", Col("pregnant"), Lit(1))),
            Filter(Scan("blood_tests"), Cmp(">", Col("bp"), Lit(120))),
            "pid",
            "pid",
        )
        cons = gather_constraints(plan)
        assert cons["pregnant"].eq == 1
        assert cons["bp"].implies_gt(120)

    def test_merge_tightens_interval(self):
        plan = Filter(
            Filter(Scan("t"), Cmp(">", Col("x"), Lit(0))),
            Cmp(">", Col("x"), Lit(10)),
        )
        assert gather_constraints(plan)["x"].implies_gt(10)

    def test_project_rename_tracks(self):
        plan = Project(
            Filter(Scan("t"), Cmp("=", Col("a"), Lit(1))),
            [("b", Col("a"))],
        )
        cons = gather_constraints(plan)
        assert cons["b"].eq == 1
        assert "a" not in cons

    def test_udf_clears_constraints(self):
        plan = UDFNode(
            Filter(Scan("t"), Cmp("=", Col("a"), Lit(1))), fn=lambda p: p
        )
        assert gather_constraints(plan) == {}
