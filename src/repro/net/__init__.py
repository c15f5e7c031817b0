"""Network cost model: messages, links, and collective operations.

All "time" in the reproduction's distributed experiments comes from this
package plus the compute cost model in :mod:`repro.sim.cost`.  A
:class:`NetworkModel` turns byte counts into seconds using the classic
latency + size/bandwidth model (and executes a fault schedule's lost
replies as one-shot retransmits); :class:`StarTopology` composes link
transfers into the gather/broadcast/AllReduce patterns the five systems
use.
"""

from repro.net.message import Message, MessageKind
from repro.net.network import NetworkModel
from repro.net.protocol import ProtocolChecker, TrafficEnvelope
from repro.net.topology import StarTopology

__all__ = [
    "Message",
    "MessageKind",
    "NetworkModel",
    "ProtocolChecker",
    "StarTopology",
    "TrafficEnvelope",
]
