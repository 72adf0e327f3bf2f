"""The scheduler registry: lookup, listing, registration invariants."""

import pytest

from repro.schedulers import (
    SchedulerEntry,
    available,
    entries,
    get,
    get_entry,
    register,
    run_heft,
)
from repro.schedulers.mct import MCTScheduler

EXPECTED = {
    "heft", "mct", "random", "greedy-eft", "rank-priority",
    "min-min", "max-min", "sufferage", "fifo", "peft",
    "online-heft", "online-mct", "online-sufferage",
}


class TestLookup:
    def test_available_is_sorted_and_complete(self):
        names = available()
        assert names == sorted(names)
        assert set(names) == EXPECTED

    def test_get_returns_runner(self):
        assert get("heft") is run_heft

    def test_get_entry_carries_class_and_description(self):
        entry = get_entry("mct")
        assert isinstance(entry, SchedulerEntry)
        assert entry.name == "mct"
        assert entry.cls is MCTScheduler
        assert entry.cls.name == "mct"
        assert entry.description

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            get("round-robin")
        message = str(excinfo.value)
        assert "round-robin" in message
        assert "heft" in message and "mct" in message

    def test_entries_matches_available(self):
        assert [e.name for e in entries()] == available()

    def test_class_names_match_registry_keys(self):
        for entry in entries():
            if entry.cls is not None:
                assert entry.cls.name == entry.name


class TestRegister:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("heft", run_heft)

    def test_class_name_mismatch_rejected(self):
        class Misnamed(MCTScheduler):
            name = "something-else"

        with pytest.raises(ValueError, match="name"):
            register("not-its-name", run_heft, cls=Misnamed)
