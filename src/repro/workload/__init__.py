"""Workload substrate: TPC-W queueing model and I/O micro-benchmarks.

Section 6 of the paper quantifies nested-virtualization overheads with
iperf (network), dd (disk) and TPC-W (an emulated e-commerce site driven by
closed-loop emulated browsers). We reproduce those experiments with:

* :mod:`repro.workload.queueing` — exact Mean Value Analysis of a closed
  multi-station queueing network;
* :mod:`repro.workload.tpcw` — the TPC-W site modelled as CPU + disk +
  network stations with the browsing/ordering mix, native vs nested;
* :mod:`repro.workload.iperf` / :mod:`repro.workload.diskbench` — throughput
  micro-benchmark simulators (Table 4);
* :mod:`repro.workload.capacity` — the Section 6.2 capacity-inflation /
  cost-savings arithmetic.
"""

from repro.workload.queueing import ClosedNetwork, Station, mva
from repro.workload.tpcw import TpcwConfig, TpcwModel, TpcwPoint
from repro.workload.iperf import IperfSimulator, IperfResult
from repro.workload.diskbench import DiskBenchSimulator, DiskBenchResult
from repro.workload.capacity import CapacityModel, savings_with_overhead

__all__ = [
    "ClosedNetwork",
    "Station",
    "mva",
    "TpcwConfig",
    "TpcwModel",
    "TpcwPoint",
    "IperfSimulator",
    "IperfResult",
    "DiskBenchSimulator",
    "DiskBenchResult",
    "CapacityModel",
    "savings_with_overhead",
]
