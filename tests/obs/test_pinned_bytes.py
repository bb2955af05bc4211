"""Pinned output bytes of the per-event boundary path.

The scalar scheduler path is tuned for speed (per-tenure constants,
list-bisect crossing lookups, a lean timer dispatch), and none of that
may change a byte it emits. These digests
were taken from the unoptimised path:

* the JSONL that ``repro-experiments --fast --trace`` writes for
  ``fig6 tab3``;
* the per-tenant outcomes of a seeded concentrated spot pool. Its
  tenants share one provider's startup RNG stream, so they draw in the
  engine's same-instant tie order, which any change to event sequencing
  would reshuffle.
"""

import hashlib

from repro.experiments.runner import main as experiments_main
from repro.pool import PoolConfig, SpotPool
from repro.units import days

FAST_TRACE_SHA256 = "467a711a410a1436924af9f0a5a9f6c850c999ca6c23b69a038283a9bbf67004"
POOL_OUTCOMES_SHA256 = "7fc4e8f8fcfe6e8a3c3c52f46de410871ce23cbe0ce4ae9464dfb1c70e3fc26c"


def test_fast_trace_jsonl_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert experiments_main(["--fast", "--trace", str(path), "fig6", "tab3"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FAST_TRACE_SHA256


def test_concentrated_pool_tie_order_pinned():
    result = SpotPool(
        PoolConfig(n_services=6, placement="concentrated", seed=6, horizon_s=days(3))
    ).run()
    # Every tenant shares one market and is revoked at the same instant.
    assert result.total_forced == 6
    assert len({s.forced_times for s in result.services}) == 1
    digest = hashlib.sha256(repr(result.services).encode()).hexdigest()
    assert digest == POOL_OUTCOMES_SHA256
