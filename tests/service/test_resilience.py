"""Tests for the resilience policies: retries, breakers, shutdown guard."""

import signal
import threading

import pytest

from repro.service.resilience import (
    BACKOFF_JITTER,
    BACKOFF_MULTIPLIER,
    BREAKER_STATE_VALUES,
    CircuitBreaker,
    RetryPolicy,
    shutdown_guard,
)


class FakeClock:
    """A hand-cranked monotonic clock whose sleeps advance it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds):
        self.now += seconds


def make_policy(**overrides):
    clock = FakeClock()
    defaults = dict(max_retries=3, base_delay=1.0, max_delay=60.0, sleep=clock.sleep)
    defaults.update(overrides)
    return RetryPolicy(**defaults), clock


class TestRetryPolicy:
    def test_backoff_sleeps_are_exactly_the_seeded_schedule(self, clean_metrics):
        policy, clock = make_policy()
        for attempt in (1, 2, 3):
            policy.backoff(attempt, token="job-a")
        assert clock.sleeps == [policy.delay_for(a, "job-a") for a in (1, 2, 3)]
        assert clean_metrics.histogram("repro_retry_backoff_seconds").count == 3
        # And the schedule is reproducible: a fresh identical policy (its
        # own clock, no shared state) sleeps the same seconds.
        other, other_clock = make_policy()
        for attempt in (1, 2, 3):
            other.backoff(attempt, token="job-a")
        assert other_clock.sleeps == clock.sleeps

    def test_jitter_is_token_deterministic(self):
        policy, _ = make_policy()
        assert policy.delay_for(2, "a") == policy.delay_for(2, "a")
        assert policy.delay_for(2, "a") != policy.delay_for(2, "b")

    def test_jitter_stays_within_the_band_around_the_capped_delay(self):
        policy, _ = make_policy(max_delay=3.0)
        for attempt in range(1, 5):
            base = min(3.0, BACKOFF_MULTIPLIER ** (attempt - 1))
            for token in range(20):
                delay = policy.delay_for(attempt, token)
                assert (1 - BACKOFF_JITTER) * base <= delay <= (1 + BACKOFF_JITTER) * base

    def test_default_backoff_schedule_is_pinned(self):
        # Golden values: the jitter RNG is seeded with "0:{token}:{attempt}",
        # so these delays must not move when the policy is refactored.
        from repro.service import chaos

        assert RetryPolicy().delay_for(1, "job-a") == 0.026535527116495275
        assert RetryPolicy().delay_for(3, 0) == 0.28433846936468277
        assert RetryPolicy().delay_for(2, "uccsd-12q-phoenix") == 0.11989480063234065
        assert chaos.DEFAULT_CHAOS_POLICY.delay_for(3, 0) == 0.05686769387293655
        assert (
            chaos.DEFAULT_CHAOS_POLICY.delay_for(2, "uccsd-12q-phoenix")
            == 0.023978960126468128
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)


class TestCircuitBreaker:
    def make(self, **overrides):
        clock = FakeClock()
        defaults = dict(
            name="test", window=8, failure_threshold=0.5, min_calls=4,
            cooldown=30.0, clock=clock,
        )
        defaults.update(overrides)
        return CircuitBreaker(**defaults), clock

    def test_trips_at_failure_rate_over_min_calls(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # only 2 samples < min_calls
        breaker.record_success()
        breaker.record_failure()  # 3 failures / 4 samples >= 0.5
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(29.0)
        assert not breaker.allow()  # still cooling down
        clock.advance(2.0)
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # probe in flight: everyone else refused
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_probe_success_forgets_the_failure_window(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_success()
        # One fresh failure must not re-trip off the stale window.
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_state_gauge_is_published(self, clean_metrics):
        breaker, _ = self.make(name="gauge-test", min_calls=2, window=4)
        snapshot = clean_metrics.snapshot()
        assert snapshot["repro_breaker_state"]["breaker=gauge-test"] == (
            BREAKER_STATE_VALUES["closed"]
        )
        breaker.record_failure()
        breaker.record_failure()
        snapshot = clean_metrics.snapshot()
        assert snapshot["repro_breaker_state"]["breaker=gauge-test"] == (
            BREAKER_STATE_VALUES["open"]
        )
        assert snapshot["repro_breaker_trips_total"]["breaker=gauge-test"] == 1


class TestShutdownGuard:
    def test_first_signal_sets_the_token_second_raises(self):
        token = threading.Event()
        with shutdown_guard(token):
            signal.raise_signal(signal.SIGINT)
            assert token.is_set()  # drained, not raised
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_previous_handlers_are_restored(self):
        token = threading.Event()
        before = signal.getsignal(signal.SIGINT)
        with shutdown_guard(token):
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_sigterm_also_drains(self):
        token = threading.Event()
        before = signal.getsignal(signal.SIGTERM)
        with shutdown_guard(token):
            signal.raise_signal(signal.SIGTERM)
            assert token.is_set()
        assert signal.getsignal(signal.SIGTERM) == before
