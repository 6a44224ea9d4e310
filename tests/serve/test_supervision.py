"""Supervision primitives: classification, budgets, backoff, drains."""

from __future__ import annotations

import pytest

from repro.runtime.errors import (CampaignDivergenceError,
                                  CorruptCheckpointError,
                                  FailureBudgetExhausted,
                                  RetriesExhaustedError,
                                  TransientEnvironmentError)
from repro.serve import (CampaignRecord, CampaignSpec, CampaignSupervisor,
                         DrainController, RestartPolicy)


class TestRestartPolicy:
    def test_exponential_backoff(self):
        policy = RestartPolicy(base_delay=0.5, multiplier=2.0, max_delay=3.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0
        assert policy.delay(4) == 3.0  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RestartPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RestartPolicy().delay(0)


class TestClassification:
    def make_record(self, tmp_path, max_restarts=2):
        return CampaignRecord(
            CampaignSpec(name="a", steps=4, max_restarts=max_restarts),
            tmp_path, 0)

    def test_transient_errors_restart(self, tmp_path):
        supervisor = CampaignSupervisor()
        record = self.make_record(tmp_path)
        assert supervisor.classify(
            record, TransientEnvironmentError("blip")) == "restart"
        assert supervisor.classify(
            record, RetriesExhaustedError("gone", attempts=4)) == "restart"

    def test_restart_allowance_is_finite(self, tmp_path):
        supervisor = CampaignSupervisor()
        record = self.make_record(tmp_path, max_restarts=1)
        record.restarts = 1
        assert supervisor.classify(
            record, TransientEnvironmentError("blip")) == "fail"

    @pytest.mark.parametrize("error", [
        FailureBudgetExhausted("spent"),
        CampaignDivergenceError("diverged"),
        CorruptCheckpointError("bad archive"),
        RuntimeError("unclassified"),
    ])
    def test_fatal_and_unknown_errors_fail(self, tmp_path, error):
        supervisor = CampaignSupervisor()
        assert supervisor.classify(self.make_record(tmp_path),
                                   error) == "fail"


class TestQuarantineBudget:
    class FakeStats:
        def __init__(self, quarantined):
            self.quarantined = quarantined

    class FakeAgent:
        def __init__(self, quarantines):
            class Result:
                history = [TestQuarantineBudget.FakeStats(q)
                           for q in quarantines]
            self.result = Result()

    def test_budget_spans_slices(self, tmp_path):
        record = CampaignRecord(
            CampaignSpec(name="a", steps=4, failure_budget=3), tmp_path, 0)
        supervisor = CampaignSupervisor()
        record.agent = self.FakeAgent([1, 1])
        supervisor.charge_quarantines(record)
        assert record.charged_quarantines == 2
        # The same history is not charged twice.
        supervisor.charge_quarantines(record)
        assert record.budget.consumed == 2
        record.agent = self.FakeAgent([1, 1, 1, 1])
        with pytest.raises(FailureBudgetExhausted):
            supervisor.charge_quarantines(record)


class TestDrainController:
    def test_request_is_sticky_and_keeps_first_reason(self):
        drain = DrainController()
        assert not drain.requested
        drain.request("sigterm")
        drain.request("sigint")
        assert drain.requested
        assert drain.reason == "sigterm"

    def test_install_and_uninstall_roundtrip(self):
        import signal
        drain = DrainController()
        previous = signal.getsignal(signal.SIGTERM)
        drain.install(signals=(signal.SIGTERM,))
        assert signal.getsignal(signal.SIGTERM) is not previous
        drain.uninstall()
        assert signal.getsignal(signal.SIGTERM) is previous
