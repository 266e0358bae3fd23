"""Packet-level model of Anton's inter-node communication network.

The network is a 3-D torus of nodes; each node hosts a set of clients
(processing slices, HTIS, accumulation memories) with remotely writable
local memories (§III, Fig. 3).  The model is a virtual-cut-through,
segment-calibrated discrete-event simulation:

* every packet is an explicit object routed hop by hop;
* per-link bandwidth contention is modelled with FCFS resources whose
  occupancy equals the packet serialization time;
* head-of-packet latency uses the calibrated Fig. 5 / Fig. 6 segment
  costs (see :mod:`repro.constants` and DESIGN.md §5);
* multicast uses per-node pattern tables compiled into dimension-ordered
  spanning trees (§III.A);
* an optional reordering mode models the network's lack of ordering
  guarantees, with the per-pair in-order header flag restoring order
  where software requests it (§III.A, used by migration §IV.B.5).
"""

from repro.network.network import Network
from repro.network.multicast import MulticastPattern, compile_pattern
from repro.network.packet import (
    AccumPacket,
    FifoPacket,
    Packet,
    PacketKind,
    WritePacket,
)
from repro.network.probe import Probe, active_probes, use_probes

__all__ = [
    "AccumPacket",
    "FifoPacket",
    "MulticastPattern",
    "Network",
    "Packet",
    "PacketKind",
    "Probe",
    "WritePacket",
    "active_probes",
    "compile_pattern",
    "use_probes",
]
