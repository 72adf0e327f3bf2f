"""The perf ledger: one benchmark for the whole system (see README.md)."""
