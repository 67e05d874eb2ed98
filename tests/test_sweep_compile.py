"""Tests for the sweep compiler: grid expansion, perturbations, repetitions,
derived parameters, deduplication and stable point identity."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import SweepError
from repro.service.store import key_digest
from repro.sweep import (
    DerivedParam,
    PerturbationRule,
    Repetitions,
    RequestTemplate,
    SweepAxis,
    SweepSpec,
    ZipGroup,
    compile_sweep,
    derive_seed,
    load_sweep_spec,
)

EXAMPLE_SWEEPS = Path(__file__).resolve().parent.parent / "examples" / "sweeps"

#: sha256 of the JSON list of ``(point_id, label, key_digest(request key))``
#: of every point of each example sweep.  A change to how points turn into
#: requests must not move a single content key: the store, the coalescing
#: queue and the shard ring are all addressed by them.
PINNED_POINT_KEYS = {
    "figure10_threads.toml": "4a1ab4e3a4c1d089b095af55b22114e002ae35293e494731bbeed1cc6b868f91",
    "figure4_reference.toml": "c992c378187274230bec5e78b6ddc48376217994d247960ac76679c7f8d57f68",
    "scheduler_adapt.toml": "826c55472d498fd68e00ac161b5eb29d3d0fda9a1d977ace40404a3aa0703c7d",
}

REQUEST = RequestTemplate(machine="reference", mode="single", scale=0.05)


def spec_with(**overrides) -> SweepSpec:
    fields = {
        "name": "unit",
        "request": REQUEST,
        "axes": (
            SweepAxis(name="workload", values=("tomcatv",)),
            SweepAxis(name="memory_latency", values=(1, 50)),
        ),
    }
    fields.update(overrides)
    return SweepSpec(**fields)


class TestGrid:
    def test_cartesian_product(self):
        compiled = compile_sweep(
            spec_with(
                axes=(
                    SweepAxis(name="workload", values=("tomcatv", "swm256")),
                    SweepAxis(name="memory_latency", values=(1, 50, 100)),
                )
            )
        )
        assert len(compiled) == 6
        assert compiled.duplicates == 0
        latencies = {p.params["memory_latency"] for p in compiled.points}
        assert latencies == {1, 50, 100}

    def test_zip_group_advances_together(self):
        compiled = compile_sweep(
            spec_with(
                axes=(SweepAxis(name="workload", values=("tomcatv",)),),
                zips=(
                    ZipGroup(
                        names=("machine", "memory_latency"),
                        rows=(("reference", 1), ("multithreaded-2", 50)),
                    ),
                ),
            )
        )
        assert len(compiled) == 2
        pairs = {(p.params["machine"], p.params["memory_latency"]) for p in compiled.points}
        assert pairs == {("reference", 1), ("multithreaded-2", 50)}

    def test_duplicate_points_collapse(self):
        compiled = compile_sweep(
            spec_with(
                axes=(
                    SweepAxis(name="workload", values=("tomcatv",)),
                    SweepAxis(name="memory_latency", values=(1, 1, 50)),
                )
            )
        )
        assert len(compiled) == 2
        assert compiled.duplicates == 1

    def test_point_ids_stable_across_compiles(self):
        first = compile_sweep(spec_with())
        second = compile_sweep(spec_with())
        assert [p.point_id for p in first.points] == [p.point_id for p in second.points]
        assert all(p.point_id.startswith("pt-") for p in first.points)

    def test_labels_show_only_varying_parameters(self):
        compiled = compile_sweep(spec_with())
        # 'workload' has a single value: only memory_latency varies
        assert [p.label for p in compiled.points] == [
            "memory_latency=1",
            "memory_latency=50",
        ]


class TestPerturbations:
    def test_deltas_emit_base_plus_variants(self):
        compiled = compile_sweep(
            spec_with(
                perturbations=(PerturbationRule(key="memory_latency", deltas=(10,)),)
            )
        )
        # 2 base points, each re-emitted once perturbed
        assert len(compiled) == 4
        perturbs = sorted(p.params["perturb"] for p in compiled.points)
        assert perturbs == ["base", "base", "memory_latency+10", "memory_latency+10"]

    def test_values_variant_labels(self):
        compiled = compile_sweep(
            spec_with(
                axes=(
                    SweepAxis(name="workload", values=("tomcatv",)),
                    SweepAxis(name="memory_latency", values=(1,)),
                ),
                perturbations=(PerturbationRule(key="memory_latency", values=(99,)),),
            )
        )
        assert {p.params["perturb"] for p in compiled.points} == {
            "base",
            "memory_latency=99",
        }

    def test_missing_key_raises(self):
        with pytest.raises(SweepError, match="unknown parameter 'crossbar'"):
            compile_sweep(
                spec_with(perturbations=(PerturbationRule(key="crossbar", deltas=(1,)),))
            )

    def test_non_numeric_base_raises(self):
        with pytest.raises(SweepError, match="numeric base"):
            compile_sweep(
                spec_with(perturbations=(PerturbationRule(key="workload", deltas=(1,)),))
            )


class TestRepetitions:
    def test_rep_and_seed_stamped(self):
        compiled = compile_sweep(spec_with(repetitions=Repetitions(count=3, base_seed=11)))
        assert len(compiled) == 6
        reps = sorted(p.params["rep"] for p in compiled.points)
        assert reps == [0, 0, 1, 1, 2, 2]
        assert all(isinstance(p.params["seed"], int) for p in compiled.points)

    def test_seeds_deterministic_and_distinct(self):
        first = compile_sweep(spec_with(repetitions=Repetitions(count=2, base_seed=5)))
        second = compile_sweep(spec_with(repetitions=Repetitions(count=2, base_seed=5)))
        assert [p.params["seed"] for p in first.points] == [
            p.params["seed"] for p in second.points
        ]
        seeds = {p.params["seed"] for p in first.points}
        assert len(seeds) == len(first.points)  # distinct per (point, rep)
        shifted = compile_sweep(spec_with(repetitions=Repetitions(count=2, base_seed=6)))
        assert {p.params["seed"] for p in shifted.points}.isdisjoint(seeds)

    def test_derive_seed_is_pure(self):
        assert derive_seed(1, "x", 0) == derive_seed(1, "x", 0)
        assert derive_seed(1, "x", 0) != derive_seed(1, "x", 1)
        assert derive_seed(1, "x", 0) != derive_seed(2, "x", 0)

    def test_single_repetition_stamps_nothing(self):
        compiled = compile_sweep(spec_with())
        assert all("rep" not in p.params and "seed" not in p.params for p in compiled.points)

    def test_group_params_strip_repetition_identity(self):
        compiled = compile_sweep(spec_with(repetitions=Repetitions(count=2)))
        groups = {tuple(sorted(p.group_params().items())) for p in compiled.points}
        assert len(groups) == 2  # two latencies, reps collapse


class TestDerived:
    def test_expression_sees_parameters_and_helpers(self):
        compiled = compile_sweep(
            spec_with(
                derived=(DerivedParam(name="half", expression="max(1, memory_latency // 2)"),),
                request=RequestTemplate(
                    machine="reference", mode="single", scale=0.05,
                    exclude_options=("half",),
                ),
            )
        )
        halves = {p.params["memory_latency"]: p.params["half"] for p in compiled.points}
        assert halves == {1: 1, 50: 25}

    def test_failing_expression_raises(self):
        with pytest.raises(SweepError, match="failed to evaluate"):
            compile_sweep(spec_with(derived=(DerivedParam(name="x", expression="nope + 1"),)))

    def test_non_scalar_result_raises(self):
        with pytest.raises(SweepError, match="scalar"):
            compile_sweep(
                spec_with(derived=(DerivedParam(name="x", expression="[memory_latency]"),))
            )

    def test_builtins_are_unreachable(self):
        with pytest.raises(SweepError, match="failed to evaluate"):
            compile_sweep(
                spec_with(derived=(DerivedParam(name="x", expression="open('/etc/passwd')"),))
            )


class TestRequestConstruction:
    def test_reserved_params_do_not_become_options(self):
        compiled = compile_sweep(spec_with())
        for point in compiled.points:
            options = dict(point.request.options)
            assert "workload" not in options
            assert options["memory_latency"] == point.params["memory_latency"]

    def test_exclude_options_respected(self):
        compiled = compile_sweep(
            spec_with(
                axes=(
                    SweepAxis(name="workload", values=("tomcatv",)),
                    SweepAxis(name="memory_latency", values=(1,)),
                    SweepAxis(name="note", values=("a",)),
                ),
                request=RequestTemplate(
                    machine="reference", mode="single", scale=0.05,
                    exclude_options=("note",),
                ),
            )
        )
        assert dict(compiled.points[0].request.options) == {"memory_latency": 1}

    def test_workload_axis_fills_default_template(self):
        compiled = compile_sweep(spec_with())
        request = compiled.points[0].request
        assert len(request.workloads) == 1
        assert request.workloads[0].name == "tomcatv"

    def test_scale_applied_to_named_workloads(self):
        compiled = compile_sweep(spec_with())
        # scale 0.05 must shrink the benchmark far below full size
        full = compile_sweep(
            spec_with(request=RequestTemplate(machine="reference", mode="single"))
        )
        small = compiled.points[0].request.workloads[0]
        big = full.points[0].request.workloads[0]
        assert small.dynamic_instruction_count < big.dynamic_instruction_count

    def test_missing_machine_raises(self):
        with pytest.raises(SweepError, match="resolves no machine"):
            compile_sweep(spec_with(request=RequestTemplate(mode="single", scale=0.05)))

    def test_missing_workloads_raise(self):
        with pytest.raises(SweepError, match="declares no workloads"):
            compile_sweep(
                spec_with(axes=(SweepAxis(name="memory_latency", values=(1,)),))
            )

    def test_unknown_benchmark_fails_at_compile(self):
        with pytest.raises(SweepError, match="cannot be compiled"):
            compile_sweep(
                spec_with(axes=(SweepAxis(name="workload", values=("no-such-benchmark",)),))
            )

    def test_mistyped_request_option_fails_at_compile(self):
        with pytest.raises(SweepError, match="restart_companions must be a boolean"):
            compile_sweep(
                spec_with(
                    axes=(
                        SweepAxis(name="workload", values=("tomcatv",)),
                        SweepAxis(name="restart_companions", values=("no",)),
                    )
                )
            )

    def test_template_placeholder_substitution(self):
        compiled = compile_sweep(
            spec_with(
                axes=(SweepAxis(name="bench", values=("tomcatv", "swm256")),),
                request=RequestTemplate(
                    machine="reference", mode="single", scale=0.05,
                    workloads=("{bench}",), exclude_options=("bench",),
                ),
            )
        )
        assert sorted(p.request.workloads[0].name for p in compiled.points) == [
            "swm256",
            "tomcatv",
        ]

    def test_unknown_template_placeholder_raises(self):
        with pytest.raises(SweepError, match="unknown"):
            compile_sweep(
                spec_with(
                    request=RequestTemplate(
                        machine="reference", mode="single", scale=0.05,
                        workloads=("{missing} extra",),
                    )
                )
            )

    def test_queue_mode_bundles_every_workload(self):
        compiled = compile_sweep(
            spec_with(
                axes=(SweepAxis(name="memory_latency", values=(1,)),),
                request=RequestTemplate(
                    machine="multithreaded-2", mode="queue", scale=0.05,
                    workloads=("tomcatv", "swm256"),
                ),
            )
        )
        assert len(compiled) == 1
        assert compiled.points[0].request.mode == "queue"
        assert len(compiled.points[0].request.workloads) == 2


class TestPinnedPointKeys:
    def test_table_covers_every_example(self):
        assert set(PINNED_POINT_KEYS) == {p.name for p in EXAMPLE_SWEEPS.glob("*.toml")}

    @pytest.mark.parametrize("name", sorted(PINNED_POINT_KEYS))
    def test_point_keys_match_pinned_digest(self, name):
        compiled = compile_sweep(load_sweep_spec(EXAMPLE_SWEEPS / name))
        rows = [
            (point.point_id, point.label, key_digest(point.request.cache_key()))
            for point in compiled.points
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == PINNED_POINT_KEYS[name]
