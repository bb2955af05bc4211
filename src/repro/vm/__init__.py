"""Virtualization substrate: nested VMs and migration mechanism models.

The paper combines four OS-level mechanisms (Section 3.2):

* **nested virtualization** (Xen-Blanket) — gives the tenant migration
  control inside an unmodified cloud; :mod:`repro.vm.nested`;
* **live migration** — iterative pre-copy with a short stop-and-copy
  blackout; :mod:`repro.vm.live_migration`;
* **bounded memory checkpointing** (Yank) — continuous background
  incremental checkpoints sized so the final increment always flushes
  within a bound tau; :mod:`repro.vm.checkpoint`;
* **lazy restore** — resume from a checkpoint after reading only a small
  critical set, paging the rest in behind execution; :mod:`repro.vm.restore`.

:mod:`repro.vm.mechanisms` composes them into the four combinations of
Figure 7 and computes the downtime of planned, forced and reverse
migrations.
"""

from repro.vm.memory import MemoryProfile
from repro.vm.nested import NestedVm, NestedOverheadModel
from repro.vm.live_migration import LiveMigrationModel, LiveMigrationResult
from repro.vm.checkpoint import BoundedCheckpointer, CheckpointResult
from repro.vm.restore import EagerRestore, LazyRestore, RestoreResult
from repro.vm.disk_copy import disk_copy_seconds
from repro.vm.replication import RemusReplication, FailoverTiming
from repro.vm.mechanisms import (
    Mechanism,
    MechanismParams,
    TYPICAL_PARAMS,
    PESSIMISTIC_PARAMS,
    MigrationModel,
    MigrationTiming,
)

__all__ = [
    "MemoryProfile",
    "NestedVm",
    "NestedOverheadModel",
    "LiveMigrationModel",
    "LiveMigrationResult",
    "BoundedCheckpointer",
    "CheckpointResult",
    "EagerRestore",
    "LazyRestore",
    "RestoreResult",
    "disk_copy_seconds",
    "RemusReplication",
    "FailoverTiming",
    "Mechanism",
    "MechanismParams",
    "TYPICAL_PARAMS",
    "PESSIMISTIC_PARAMS",
    "MigrationModel",
    "MigrationTiming",
]
