"""Resilience primitives: fault injection and admission control.

The deterministic pieces of the failure envelope — the chaos suite
(``test_chaos.py``) composes them against the full serving stack.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import (FAULT_POINTS, AdmissionController,
                              FaultInjector, FaultSpec, InjectedFault,
                              OverloadShedError, ResilienceConfig,
                              fault_check, get_fault_injector,
                              inject_faults, set_fault_injector)


class TestFaultInjector:
    def test_schedule_fires_at_exact_indices(self):
        injector = FaultInjector(
            {"model.forward": FaultSpec(schedule={1, 3})})
        outcomes = []
        for _ in range(5):
            try:
                injector.check("model.forward")
                outcomes.append(None)
            except InjectedFault as exc:
                outcomes.append(exc.index)
        assert outcomes == [None, 1, None, 3, None]

    def test_rate_plan_is_deterministic_per_seed(self):
        def run(seed):
            injector = FaultInjector(
                {"jobs.worker": FaultSpec(rate=0.5)}, seed=seed)
            fired = []
            for i in range(40):
                try:
                    injector.check("jobs.worker")
                except InjectedFault:
                    fired.append(i)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert run(7)  # a 0.5 rate over 40 calls fires at least once

    def test_points_draw_independent_streams(self):
        # Adding calls at one point must not perturb another's schedule.
        solo = FaultInjector({"model.forward": FaultSpec(rate=0.3)}, seed=1)
        mixed = FaultInjector({"model.forward": FaultSpec(rate=0.3),
                               "jobs.worker": FaultSpec(rate=0.9)}, seed=1)

        def pattern(injector, interleave):
            fired = []
            for i in range(30):
                if interleave:
                    try:
                        injector.check("jobs.worker")
                    except InjectedFault:
                        pass
                try:
                    injector.check("model.forward")
                except InjectedFault:
                    fired.append(i)
            return fired

        assert pattern(solo, False) == pattern(mixed, True)

    def test_max_faults_caps_raises(self):
        injector = FaultInjector(
            {"model.forward": FaultSpec(rate=1.0, max_faults=2)})
        raised = 0
        for _ in range(10):
            try:
                injector.check("model.forward")
            except InjectedFault:
                raised += 1
        assert raised == 2
        assert injector.snapshot()["model.forward"]["faults"] == 2

    def test_delay_uses_injected_sleeper(self):
        slept = []
        injector = FaultInjector(
            {"framework.write": FaultSpec(delay_seconds=0.25)},
            sleep=slept.append)
        injector.check("framework.write")  # delay without fault
        assert slept == [0.25]
        assert injector.snapshot()["framework.write"]["delayed"] == 1

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultInjector({"model.fwrward": FaultSpec(rate=1.0)})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(delay_seconds=-1)
        with pytest.raises(ValueError):
            FaultSpec(max_faults=-1)

    def test_fault_check_is_noop_without_injector(self):
        assert get_fault_injector() is None
        for point in FAULT_POINTS:
            fault_check(point)  # must not raise

    def test_inject_faults_scopes_and_restores(self):
        outer = FaultInjector({})
        previous = set_fault_injector(outer)
        try:
            inner = FaultInjector(
                {"model.forward": FaultSpec(schedule={0})})
            with inject_faults(inner):
                assert get_fault_injector() is inner
                with pytest.raises(InjectedFault):
                    fault_check("model.forward")
            assert get_fault_injector() is outer
        finally:
            set_fault_injector(previous)


class TestAdmissionController:
    def test_admits_below_watermark_and_sheds_above(self):
        gate = AdmissionController(100, registry=MetricsRegistry())
        gate.try_acquire(60)
        gate.try_acquire(40)  # exactly at the watermark
        with pytest.raises(OverloadShedError):
            gate.try_acquire(1)
        assert gate.queued_tokens == 100

    def test_idle_gate_admits_an_oversized_request(self):
        # A request larger than the watermark must not starve forever.
        gate = AdmissionController(50, registry=MetricsRegistry())
        gate.try_acquire(500)
        with pytest.raises(OverloadShedError):
            gate.try_acquire(1)
        gate.release(500)
        gate.try_acquire(500)  # idle again: admitted again

    def test_release_reopens_the_gate(self):
        gate = AdmissionController(100, registry=MetricsRegistry())
        gate.try_acquire(100)
        with pytest.raises(OverloadShedError):
            gate.try_acquire(10)
        gate.release(100)
        gate.try_acquire(10)
        assert gate.queued_tokens == 10

    def test_retry_after_scales_with_backlog(self):
        gate = AdmissionController(100, registry=MetricsRegistry())
        gate.try_acquire(100)
        with pytest.raises(OverloadShedError) as small:
            gate.try_acquire(10)
        gate.try_acquire(0)  # no-op cost, keeps gate busy
        with pytest.raises(OverloadShedError) as big:
            gate.try_acquire(1000)
        assert small.value.retry_after >= 1
        assert big.value.retry_after >= small.value.retry_after

    def test_metrics_and_stats(self):
        registry = MetricsRegistry()
        gate = AdmissionController(100, registry=registry)
        gate.try_acquire(80)
        with pytest.raises(OverloadShedError):
            gate.try_acquire(80)
        stats = gate.stats()
        assert stats["admitted_total"] == 1
        assert stats["shed_total"] == 1
        assert registry.gauge("admission_queued_tokens").labels().value == 80

    def test_release_never_goes_negative(self):
        gate = AdmissionController(100, registry=MetricsRegistry())
        gate.release(50)
        assert gate.queued_tokens == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0, registry=MetricsRegistry())
        gate = AdmissionController(10, registry=MetricsRegistry())
        with pytest.raises(ValueError):
            gate.try_acquire(-1)


class TestResilienceConfig:
    def test_defaults_are_inert(self):
        config = ResilienceConfig()
        assert config.default_deadline_ms is None
        assert config.shed_watermark_tokens is None
        assert not config.supervise

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(default_deadline_ms=0)
        with pytest.raises(ValueError):
            ResilienceConfig(shed_watermark_tokens=0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(restart_backoff_seconds=-0.1)
