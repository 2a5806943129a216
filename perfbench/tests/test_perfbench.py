"""The benchmark's own tests: inputs, printed names, the check, self time.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import metrics as M  # noqa: E402
import run as R  # noqa: E402
from repro.api import RunSession  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_seeded_inputs_are_deterministic_and_keep_the_workload_shape():
    for w in WORKLOADS.values():
        assert w.params(4) == w.params(4)
        assert w.params(4) != w.params(5)
        shapes = []
        for seed in (4, 4, 5):
            sess = RunSession(w.config(w.params(seed)))
            levels = [len(level) for level in sess.sim.hierarchy]
            sess.close()
            assert len(levels) == w.max_levels, (w.name, levels)
            lo, hi = w.patch_range
            assert lo <= sum(levels) <= hi, (w.name, levels)
            shapes.append(levels)
        assert shapes[0] == shapes[1], w.name


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_benchmark_json(monkeypatch, capsys,
                                                   trace):
    # a small stand-in keeps the test fast; the printing path is the same
    small = dataclasses.replace(WORKLOADS["overlap_graph"], steps=1)
    monkeypatch.setitem(WORKLOADS, "overlap_graph", small)
    code = R.run_workload("overlap_graph", seed=2, seconds=0.01,
                          trace=bool(trace))
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    assert [v["unit"] for v in out["metrics"].values()] == \
        [m["unit"] for m in listed]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _result(fields, dts):
    return SimpleNamespace(final_fields=fields, dt_history=dts,
                           sim=SimpleNamespace(hierarchy=[[1, 2], [3]]))


def test_check_flags_a_perturbed_field_summary():
    fields = {"mass": 13.125, "ie": 2.5, "ke": 0.0}
    dts = [0.01, 0.0125]
    ref = R.digest(_result(fields, dts))
    bumped = dict(fields, mass=float(np.nextafter(fields["mass"], 1e9)))
    good = M.Session(digest=R.digest(_result(dict(fields), list(dts))))
    bad = M.Session(digest=R.digest(_result(bumped, dts)))
    raised = M.Session(error="FloatingPointError: dt")
    assert R.check([good, bad, raised], ref) == 2
    assert [s.passed for s in (good, bad, raised)] == [True, False, False]
    assert R.check([good], None) == 1  # no reference: nothing passes


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "step", 0.0, 10.0, "r"),
        Span(1, 0, "xfer.fill", 1.0, 4.0, "r"),
        Span(2, 1, "exec.flush", 2.0, 3.0, "r"),
        Span(3, 0, "regrid", 3.5, 6.0, "r"),   # overlaps its sibling
        Span(4, 0, "hydro.call", 9.5, 11.0, "r"),  # outlives its parent
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 1.0,
                                 3: 2.5, 4: 1.5})
    summary = M.traced_layers(
        {"step": {"self_s": own[0], "incl_s": 10.0, "calls": 1}},
        steps=2, layer_spans=(), step_span="step")
    assert summary["other.host_s"] == pytest.approx(2.25)
    assert summary["trace.coverage_frac"] == pytest.approx(0.55)
