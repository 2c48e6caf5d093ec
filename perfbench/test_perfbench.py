"""Tests of the benchmark itself: tiny runs of each workload, and the tracer.

Run from the root of a checkout::

    python -m pytest -q perfbench
"""

import json

import pytest

import run
import tracer

SPEC = json.loads(run.SPEC.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _spec(kind):
    return [m["name"] for m in SPEC[kind]]


def test_benchmark_json_names_every_workload():
    assert sorted(WORKLOADS) == sorted(run._import_package().WORKLOADS)


def test_self_times_of_a_nested_span_tree():
    # (id, parent, request, name, start, end, field_ns, raised)
    spans = [
        (2, 1, 7, "a", 10, 50, 5, None),
        (3, 2, 7, "g", 20, 30, 0, None),
        (4, 1, 7, "b", 60, 90, 0, "ValueError"),
        (1, None, 7, "root", 0, 100, 10, None),
    ]
    assert tracer.self_times(spans) == {1: 20, 2: 25, 3: 10, 4: 30}
    assert sorted(tracer.descendants(spans, 1)) == [2, 3, 4]
    assert tracer.descendants(spans, 3) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_ledger(name):
    result, report = run.run_workload(name, seed=3, seconds=0, trace=0, limit=4)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == 4 * report["passes"]
    assert list(result["metrics"]) == _spec("end_to_end")
    shares = report["outcome_shares"]
    answered = result["metrics"]["answered_share"]["value"]
    assert answered + shares["refused_share"] + shares["failed_share"] == pytest.approx(1)
    assert shares["failed_share"] == 0
    if name == "verify-planted":
        assert answered == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_traced_run(name):
    result, report = run.run_workload(name, seed=3, seconds=0, trace=1, limit=4)
    assert result["correct"], report["problems"]
    metrics = result["metrics"]
    assert list(metrics) == _spec("per_layer")
    assert metrics["trace.overhead_ratio"]["value"] > 0
    if name.startswith("verify"):
        assert metrics["oracle.run_oracle.calls"]["value"] >= 1
        assert metrics["field.Element.mul.calls"]["value"] > 0
    if name == "formula-near":
        assert metrics["classifier.admissible_partitions.results"]["value"] >= 4
        assert metrics["field.Element.mul.calls"]["value"] == 0


def test_tracer_patches_every_binding_and_restores_them():
    workloads = run._import_package()
    from padicover import classifier, cover, field

    original = cover.branch_data
    t = tracer.Tracer().install()
    try:
        assert t.unpatched_bindings() == []
        assert classifier.branch_data is cover.branch_data is not original
        assert field.Element.__dict__["__rmul__"] is field.Element.__dict__["__mul__"]
        ctx = field.FieldContext(5, 2)
        t.request = 0
        x = 3 * ctx.pi() + ctx.one()
        assert x.val() == 0
        assert t.field["field.Element.mul"][0] == 1  # through __rmul__
    finally:
        t.uninstall()
    assert cover.branch_data is original
    assert workloads.cover.branch_data is original


def test_drift_from_golden_is_a_failure(monkeypatch):
    workloads = run._import_package()
    monkeypatch.setattr(
        run, "load_golden", lambda name: {workloads.digest(r.doc): "0" * 16 for r in
                                          workloads.setup_verify_planted(None)}
    )
    result, report = run.run_workload("verify-planted", seed=3, seconds=0, trace=0, limit=2)
    assert not result["correct"]
    assert result["failed"] == 2
    assert "drift from golden" in report["problems"][0]


def test_ref_clock_scales_by_the_samples_around_each_call():
    clock = run.RefClock()
    clock.samples = [(0, 10), (100, 120), (200, 210), (400, 430)]
    clock.calls = [(50, 150), (215, 220)]
    # first call: the sample at 100 ran inside it; samples 0, 100, 200 are near
    # second call: no sample inside; 200 and 400 are on either side
    assert clock.raw_ns() == [80, 5]
    ref = run.REFERENCE_KERNEL_NS
    assert clock.scaled_ns() == [pytest.approx(80 * ref / (40 / 3)), pytest.approx(5 * ref / 20)]


def test_ref_clock_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with run.RefClock() as clock:
        assert clock.call(sum, [1, 2]) == 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 2 and len(clock.scaled_ns()) == 1
