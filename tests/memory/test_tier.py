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
    tier.record("a", _kb(1024))
    assert not tier.over_budget()
    assert tier.budget_bytes is None


def test_victim_walk_is_lru_coldest_first():
    tier = FactorTier(budget_bytes=2 * 1024)
    tier.record("a", _kb(2))
    tier.record("b", _kb(2))
    assert tier.over_budget()
    assert tier.next_victim(set()) == "a"
    # Touching "a" makes "b" the coldest.
    tier.touch("a")
    assert tier.next_victim(set()) == "b"
    # The active entry is excluded.
    assert tier.next_victim({"b"}) == "a"
    assert tier.next_victim({"a", "b"}) is None


def test_full_released_full_state_machine():
    tier = FactorTier(budget_bytes=1024)
    tier.record("a", _kb(2), version=1)
    assert tier.state("a") == "full"
    assert tier.measured("a", 1)

    assert tier.next_victim(set()) == "a"
    tier.mark_released("a", version=2)
    assert tier.state("a") == "released"
    assert tier.measured("a", 2)
    assert tier.ledger.resident_bytes == 0  # a released entry holds nothing
    assert tier.ledger.peak_bytes == 2 * 1024
    assert tier.entries() == (1, 1)
    assert _counts(tier) == {"releases": 1, "refactorizations": 0}
    # A released entry is never a victim again.
    assert tier.next_victim(set()) is None

    # Re-measuring it (after its lazy re-factorization) makes it full and
    # counts the re-factorization.
    tier.record("a", _kb(2), version=3)
    assert tier.state("a") == "full"
    assert tier.entries() == (1, 0)
    assert _counts(tier) == {"releases": 1, "refactorizations": 1}
    # Re-measuring a full entry counts nothing.
    tier.record("a", _kb(2), version=4)
    assert _counts(tier) == {"releases": 1, "refactorizations": 1}


def test_tier_counts_into_the_registry_it_is_given():
    from repro.observe.metrics import MetricsRegistry

    registry = MetricsRegistry()
    tier = FactorTier(budget_bytes=1024, metrics=registry)
    tier.record("a", _kb(2))
    tier.mark_released("a")
    assert "repro_tier_releases_total 1" in registry.render_prometheus()
