"""Checks of the benchmark's own machinery.

    python3 -m pytest bench/test_run.py -q

Each test traces a one-step whole-line construction (a few seconds).
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SMALL = ["construct", "--dim", "1", "--p", "3", "--budget", "8", "--steps", "1"]


@pytest.fixture(scope="module")
def eb():
    return run.load_package()


def traced_construct(eb, out: Path):
    tracer = run.Tracer("test")
    start = time.perf_counter()
    with run.instrumented(eb, tracer):
        code, _, _, err = run.call_cli(eb, SMALL + ["--out", str(out)], tracer,
                                       "construct")
    wall = time.perf_counter() - start
    assert code == 0, err
    doc = json.loads(out.read_text(encoding="utf-8"))
    return tracer.spans, doc, wall


def test_counts_repeat_and_self_times_fit_the_run(eb):
    with tempfile.TemporaryDirectory() as tmp:
        runs = [traced_construct(eb, Path(tmp) / ("l%d.json" % i)) for i in range(2)]
    counts = []
    for spans, doc, wall in runs:
        metrics = run.layer_metrics(spans, [doc])
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
        child = {}
        for span in spans:
            if span[4] is not None:
                child[span[4]] = child.get(span[4], 0.0) + span[3] - span[2]
        self_total = sum(s[3] - s[2] - child.get(s[0], 0.0) for s in spans)
        assert 0.0 < self_total <= wall
        assert all(s[5] == "test" and s[3] >= s[2] for s in spans)
    assert counts[0] == counts[1]
    assert counts[0]["eigensolve.grid_sigma_min.calls"] == 32
    assert counts[0]["construct.gamma_certified"] == 1


def test_tracing_restores_the_package(eb):
    before = [getattr(m, a) for m, a, _, _ in run._boundary_calls(eb)]
    with run.instrumented(eb, run.Tracer("test")):
        assert [getattr(m, a) for m, a, _, _ in run._boundary_calls(eb)] != before
    assert [getattr(m, a) for m, a, _, _ in run._boundary_calls(eb)] == before


def test_seeds_pick_checked_target_lists(eb):
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    scales = reference["seed_scales"]
    enum = eb.construct.enumerate_targets
    assert run.targets_for("desk-whole", 0, scales, enum) == "1:1,1/2:1,1:2,2:1,1/2:2"
    assert run.targets_for("grid-robin", 2, scales, enum) == "129/128:1"
    for config, by_offset in reference["m_index"].items():
        assert sorted(map(int, by_offset)) == sorted(scales["offsets"]), config
        assert all(len(ms) == run.steps_of(config) for ms in by_offset.values())
