"""Golden-trace differential tests: per-dispatch replay against frozen logs.

The statistics-level equivalence suite proves end-of-run totals match the
seed oracle; this suite catches *mid-run* divergence that totals can mask.
Each committed JSON under ``tests/golden/`` holds the per-dispatch rows of
one deterministic run generated from the frozen seed oracle; replaying the
same case through the optimized engine must reproduce every row
byte-identically: same dispatch cycle, thread, pc, opcode, vector length,
completion cycle and per-dispatch counters, in the same order.

The seed oracle keeps its own frozen memory timing (``SeedMemorySystem``,
``SeedBus`` and ``SeedBankConflictModel`` in ``tests/seed_engine.py``), so it
shares no timing code with ``src/``.  It is replayed against the committed
files too: an edit to the oracle, or to what it still imports from ``src/``
(instruction, request and statistics records, the thread schedulers and job
suppliers), fails the seed replay even where the engine replay passes.
"""

from __future__ import annotations

import pytest

from tests.golden_corpus import (
    CASES,
    GOLDEN_DIR,
    TRACE_FIELDS,
    load_golden,
    run_fast_case,
    run_seed_case,
)

CASE_NAMES = sorted(CASES)


def _assert_rows_identical(case: str, golden_rows: list, replay_rows: list) -> None:
    assert len(replay_rows) == len(golden_rows), (
        f"{case}: dispatched {len(replay_rows)} instructions, "
        f"golden trace has {len(golden_rows)}"
    )
    for index, (golden, replay) in enumerate(zip(golden_rows, replay_rows)):
        if replay != golden:
            labeled_golden = dict(zip(TRACE_FIELDS, golden))
            labeled_replay = dict(zip(TRACE_FIELDS, replay))
            raise AssertionError(
                f"{case}: first divergence at dispatch #{index}:\n"
                f"  golden: {labeled_golden}\n"
                f"  replay: {labeled_replay}"
            )


class TestGoldenTraceCorpus:
    def test_corpus_is_complete(self):
        """Every defined case has a committed golden file, and vice versa."""
        committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
        assert committed == set(CASE_NAMES), (
            "corpus drift: regenerate with "
            "`PYTHONPATH=src:. python tests/golden/generate.py` "
            "and review the diff"
        )

    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_replay_matches_golden_trace(self, case):
        document = load_golden(case)
        assert document["fields"] == list(TRACE_FIELDS), (
            f"{case}: golden file schema drift — regenerate the corpus"
        )
        _assert_rows_identical(case, document["rows"], run_fast_case(case))

    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_seed_oracle_reproduces_golden_trace(self, case):
        document = load_golden(case)
        _assert_rows_identical(case, document["rows"], run_seed_case(case))
