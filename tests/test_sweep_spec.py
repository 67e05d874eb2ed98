"""Tests for the sweep spec dataclasses and the TOML/JSON loader."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import SweepError
from repro.sweep import (
    MetricsSpec,
    PerturbationRule,
    Repetitions,
    RequestTemplate,
    SweepAxis,
    SweepSpec,
    ZipGroup,
    load_sweep_spec,
    parse_sweep_spec,
    parse_toml,
)

EXAMPLES = sorted(Path(__file__).resolve().parent.parent.glob("examples/sweeps/*.toml"))


class TestDataclasses:
    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="no values"):
            SweepAxis(name="memory_latency", values=())

    def test_unnamed_axis_rejected(self):
        with pytest.raises(SweepError, match="non-empty"):
            SweepAxis(name="", values=(1,))

    def test_non_scalar_axis_value_rejected(self):
        with pytest.raises(SweepError, match="scalar"):
            SweepAxis(name="x", values=([1, 2],))

    def test_zip_group_row_length_mismatch(self):
        with pytest.raises(SweepError, match="2 values"):
            ZipGroup(names=("a", "b", "c"), rows=((1, 2),))

    def test_zip_group_needs_rows(self):
        with pytest.raises(SweepError, match="no rows"):
            ZipGroup(names=("a",), rows=())

    def test_repetitions_count_must_be_positive(self):
        with pytest.raises(SweepError, match=">= 1"):
            Repetitions(count=0)

    def test_perturbation_needs_exactly_one_of_deltas_values(self):
        with pytest.raises(SweepError, match="exactly one"):
            PerturbationRule(key="latency")
        with pytest.raises(SweepError, match="exactly one"):
            PerturbationRule(key="latency", deltas=(1,), values=(2,))
        assert PerturbationRule(key="latency", deltas=(1, -1)).deltas == (1, -1)

    def test_perturbation_deltas_must_be_numeric(self):
        with pytest.raises(SweepError, match="numbers"):
            PerturbationRule(key="latency", deltas=("big",))

    def test_request_mode_validated(self):
        with pytest.raises(SweepError, match="single/group/queue"):
            RequestTemplate(mode="parallel")

    def test_request_scale_positive(self):
        with pytest.raises(SweepError, match="positive"):
            RequestTemplate(scale=0.0)

    def test_metrics_need_a_selection(self):
        with pytest.raises(SweepError, match="at least one"):
            MetricsSpec(select=())

    def test_percentiles_bounded(self):
        with pytest.raises(SweepError, match=r"\[0, 100\]"):
            MetricsSpec(percentiles=(150.0,))

    def test_duplicate_parameter_declarations_rejected(self):
        axis = SweepAxis(name="memory_latency", values=(1, 2))
        with pytest.raises(SweepError, match="more than once"):
            SweepSpec(name="dup", axes=(axis, axis))

    def test_duplicate_across_axis_and_zip_rejected(self):
        with pytest.raises(SweepError, match="more than once"):
            SweepSpec(
                name="dup",
                axes=(SweepAxis(name="machine", values=("reference",)),),
                zips=(ZipGroup(names=("machine",), rows=(("ideal",),)),),
            )


class TestParsing:
    def test_minimal_document(self):
        spec = parse_sweep_spec({"sweep": {"name": "mini"}})
        assert spec.name == "mini"
        assert spec.repetitions.count == 1
        assert spec.metrics.select == ("cycles", "instructions")

    def test_unknown_section_rejected(self):
        with pytest.raises(SweepError, match="unknown sweep section"):
            parse_sweep_spec({"sweep": {"name": "x"}, "axis": {}})

    def test_unknown_request_field_rejected(self):
        with pytest.raises(SweepError, match=r"unknown \[request\] field"):
            parse_sweep_spec({"request": {"machina": "reference"}})

    def test_unknown_sweep_field_rejected(self):
        with pytest.raises(SweepError, match=r"unknown \[sweep\] field"):
            parse_sweep_spec({"sweep": {"name": "x", "author": "y"}})

    def test_unknown_metrics_and_repetitions_fields_rejected(self):
        with pytest.raises(SweepError, match=r"unknown \[metrics\] field"):
            parse_sweep_spec({"metrics": {"top": 3}})
        with pytest.raises(SweepError, match=r"unknown \[repetitions\] field"):
            parse_sweep_spec({"repetitions": {"n": 3}})

    def test_zip_columns_must_align(self):
        with pytest.raises(SweepError, match="mismatched lengths"):
            parse_sweep_spec({"zip": [{"a": [1, 2], "b": [1]}]})

    def test_zip_group_must_be_table(self):
        with pytest.raises(SweepError, match="non-empty table"):
            parse_sweep_spec({"zip": ["a"]})

    def test_perturb_rule_fields_validated(self):
        with pytest.raises(SweepError, match=r"unknown \[\[perturb\]\] field"):
            parse_sweep_spec({"perturb": [{"key": "x", "delta": 1}]})

    def test_document_must_be_mapping(self):
        with pytest.raises(SweepError, match="table/object"):
            parse_sweep_spec(["not", "a", "table"])

    def test_section_must_be_mapping(self):
        with pytest.raises(SweepError, match=r"\[axes\] must be a table"):
            parse_sweep_spec({"axes": [1, 2]})

    def test_parse_toml_entry_point(self):
        assert parse_toml('[sweep]\nname = "x"\n')["sweep"]["name"] == "x"
        with pytest.raises(SweepError, match="invalid TOML in spec.toml: "):
            parse_toml("[sweep", where="spec.toml")


class TestLoader:
    def test_load_json_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "sweep": {"name": "from-json"},
                    "request": {"machine": "reference", "workloads": ["tomcatv"]},
                    "axes": {"memory_latency": [1, 50]},
                }
            )
        )
        spec = load_sweep_spec(path)
        assert spec.name == "from-json"
        assert spec.axes[0].values == (1, 50)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SweepError, match="invalid JSON"):
            load_sweep_spec(path)

    def test_load_invalid_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[sweep\nname = oops")
        with pytest.raises(SweepError, match="invalid TOML"):
            load_sweep_spec(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SweepError, match="cannot read"):
            load_sweep_spec(tmp_path / "absent.toml")

    def test_default_name_is_file_stem(self, tmp_path):
        path = tmp_path / "latency_grid.toml"
        path.write_text('[axes]\nmemory_latency = [1]\n')
        assert load_sweep_spec(path).name == "latency_grid"

    @pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
    def test_bundled_examples_load(self, example):
        spec = load_sweep_spec(example)
        assert spec.name
        assert spec.metrics.select
