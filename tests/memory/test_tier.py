"""Tests of budget parsing and the LRU tier state machine."""

from __future__ import annotations

import pytest

from repro.memory.ledger import EntryBytes
from repro.memory.tier import BudgetError, FactorTier, parse_budget


# --------------------------------------------------------------------- #
# parse_budget                                                           #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    ("budget", "nbytes"),
    [
        (4096, 4096),
        (2.5e3, 2500),
        ("4096", 4096),
        ("512K", 512 * 1024),
        ("64M", 64 * 1024**2),
        ("1.5G", int(1.5 * 1024**3)),
        ("2T", 2 * 1024**4),
        ("64MB", 64 * 1024**2),
        ("64MiB", 64 * 1024**2),
        ("64m", 64 * 1024**2),
        (" 8K ", 8192),
    ],
)
def test_parse_budget_accepts_counts_and_binary_suffixes(budget, nbytes):
    assert parse_budget(budget) == nbytes


@pytest.mark.parametrize("budget", [None, "", "  ", "none", "NONE", "unlimited", "off"])
def test_parse_budget_disabled_spellings(budget):
    assert parse_budget(budget) is None


@pytest.mark.parametrize("budget", [0, -1, 0.0, "0", "-5", "lots", "64Q", "M"])
def test_parse_budget_rejects_garbage_and_non_positive(budget):
    with pytest.raises(BudgetError):
        parse_budget(budget)


# --------------------------------------------------------------------- #
# FactorTier                                                             #
# --------------------------------------------------------------------- #
def _kb(n: int) -> EntryBytes:
    return EntryBytes(factor_bytes=n * 1024)


def _counts(tier: FactorTier) -> dict[str, int]:
    return tier.metrics.values("repro_tier_")


def test_tier_without_budget_never_reports_over():
    tier = FactorTier(None)
    tier.record("a", _kb(1024), demotable=True)
    assert not tier.over_budget()
    assert tier.budget_bytes is None


def test_victim_walk_is_lru_coldest_first():
    tier = FactorTier(budget_bytes=2 * 1024)
    tier.record("a", _kb(2), demotable=True)
    tier.record("b", _kb(2), demotable=True)
    assert tier.over_budget()
    assert tier.next_victim(set()) == ("a", "demote")
    # Touching "a" makes "b" the coldest.
    tier.touch("a")
    assert tier.next_victim(set()) == ("b", "demote")
    # The active entry is excluded.
    assert tier.next_victim({"b"}) == ("a", "demote")
    assert tier.next_victim({"a", "b"}) is None


def test_demote_then_evict_state_machine():
    tier = FactorTier(budget_bytes=1024)
    tier.record("a", _kb(2), demotable=True)
    assert tier.state("a") == "full"

    key, action = tier.next_victim(set())
    assert (key, action) == ("a", "demote")
    tier.mark_demoted("a", _kb(1))
    assert tier.state("a") == "demoted"
    assert _counts(tier)["demotions"] == 1
    assert tier.ledger.resident_bytes == 1024  # halved measurement recorded

    # A demoted entry's next action is eviction, not a second demotion.
    tier.record("b", _kb(2), demotable=True)
    tier.touch("b")  # keep "a" coldest
    assert tier.next_victim({"b"}) == ("a", "evict")
    tier.mark_evicted("a")
    assert tier.state("a") is None
    assert _counts(tier)["evictions"] == 1
    assert tier.ledger.resident_bytes == 2 * 1024


def test_non_demotable_entries_go_straight_to_eviction():
    """A spec already storing fp32 factors has nothing left to demote."""
    tier = FactorTier(budget_bytes=1024)
    tier.record("fp32-entry", _kb(2), demotable=False)
    assert tier.next_victim(set()) == ("fp32-entry", "evict")


def test_refactorization_counter_and_stats():
    tier = FactorTier(budget_bytes=10 * 1024)
    tier.record("a", _kb(4), demotable=True)
    tier.mark_demoted("a", _kb(2))
    tier.count_refactorization()
    assert _counts(tier) == {"demotions": 1, "evictions": 0, "refactorizations": 1}
    assert (tier.ledger.resident_bytes, tier.ledger.peak_bytes) == (2 * 1024, 4 * 1024)
    assert tier.entries() == (1, 1)
    # Re-recording (the lazy re-factorization re-measuring) restores FULL.
    tier.record("a", _kb(4), demotable=True)
    assert tier.state("a") == "full"
    assert tier.entries() == (1, 0)


def test_tier_counts_into_the_registry_it_is_given():
    from repro.observe.metrics import MetricsRegistry

    registry = MetricsRegistry()
    tier = FactorTier(budget_bytes=1024, metrics=registry)
    tier.record("a", _kb(2), demotable=False)
    tier.mark_evicted("a")
    assert "repro_tier_evictions_total 1" in registry.render_prometheus()
