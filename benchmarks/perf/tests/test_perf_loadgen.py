import random

import pytest

from bench import ColdMix, HotMix, gate_checker, open_schedule
from loadgen import Sample, open_loop_stats, window_rates


def test_latency_is_timed_from_the_due_time_and_lateness_recorded():
    # Sent 3 ms late, answered 1 ms after sending: 4 ms from due.
    samples = [Sample(due=10.0, sent=10.003, done=10.004, ok=True)] * 20
    stats = open_loop_stats(samples, limit_ms=5.0, duration_s=1.0)
    assert stats["latency_p50_ms"] == pytest.approx(4.0)
    assert stats["late_tail_ms"] == pytest.approx(3.0)
    assert stats["goodput_frac"] == 1.0


def test_a_refused_request_misses_the_limit_however_fast():
    fast_ok = Sample(due=0.0, sent=0.0, done=0.001, ok=True)
    refused = Sample(due=0.0, sent=0.0, done=0.0005, ok=False)  # a 429
    stats = open_loop_stats([fast_ok] * 18 + [refused] * 2, limit_ms=10.0,
                            duration_s=2.0)
    assert stats["failed"] == 2
    assert stats["goodput_frac"] == pytest.approx(0.9)
    assert stats["goodput_rps"] == pytest.approx(9.0)


def test_failures_dominate_the_median_when_most_requests_fail():
    refused = Sample(due=0.0, sent=0.0, done=0.001, ok=False)
    stats = open_loop_stats([refused] * 20, limit_ms=10.0, duration_s=1.0)
    assert stats["latency_p50_ms"] == float("inf")


def test_window_rates_count_correct_answers_per_window():
    samples = [Sample(0, 0, 0.5, True), Sample(0, 0, 0.7, True),
               Sample(0, 0, 1.2, False), Sample(0, 0, 1.5, True),
               Sample(0, 0, 9.0, True)]
    assert window_rates(samples, t0=0.0, windows=2, window_s=1.0) == [2.0, 1.0]


def test_duplicate_pairs_leave_on_both_connections_at_once():
    schedule = open_schedule(ColdMix(random.Random(3)), duration_s=20.0)
    assert len(schedule) == 2000
    pairs = [i for i in range(1, len(schedule))
             if schedule[i][1] is schedule[i - 1][1]]
    assert all(i % 2 == 1 for i in pairs)  # (even, odd) = (conn 0, conn 1)
    assert all(schedule[i][0] == schedule[i - 1][0] for i in pairs)
    assert 0.06 < 2 * len(pairs) / len(schedule) < 0.14
    seeds = {req[0]["seed"] for _, req in schedule}
    assert len(seeds) == len(schedule) - len(pairs)  # otherwise all fresh


def test_the_same_seed_gives_the_same_mix():
    first = [HotMix(random.Random(5))() for _ in range(50)]
    assert first == [HotMix(random.Random(5))() for _ in range(50)]


GOLDEN = {"network": {"xor": {"01": [0.25, 0.25]},
                      "maj3": {"011": [0.5, 0.5]}}}


def answer(normalized, tier="network", logic=1, **extra):
    result = {"outputs": {"O1": {"logic": logic}, "O2": {"logic": logic}},
              "correct": True, "normalized": normalized, "tier": tier}
    result.update(extra)
    return {"result": result, "served": {"source": "cached"}}


def test_checker_demands_exact_table_values_and_marked_fallbacks():
    check = gate_checker(GOLDEN)
    table = ({"gate": "xor", "bits": [0, 1], "tier": "network"}, "table")
    assert check(table, 200, answer([0.25, 0.25]))
    assert not check(table, 200, answer([0.25, 0.2500001]))
    assert not check(table, 429, answer([0.25, 0.25]))
    assert not check(table, 200, answer([0.25, 0.25], logic=0))
    ood = ({"gate": "xor", "bits": [0, 1], "tier": "surrogate"}, "ood")
    assert not check(ood, 200, answer([0.25, 0.25]))
    assert check(ood, 200, answer([0.25, 0.25], degraded_from="surrogate"))
    inside = ({"gate": "xor", "bits": [0, 1], "tier": "surrogate"},
              "surrogate")
    assert check(inside, 200, answer([0.3, 0.3], tier="surrogate"))
    assert not check(inside, 200, answer([0.25, 0.25]))
