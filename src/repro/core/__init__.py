"""The Swift architecture: striping, parity, mediator, agents, client."""

from .agent_protocol import (
    CONTROL_SIZE_BYTES,
    DATA_HEADER_SIZE_BYTES,
    CloseReply,
    CloseRequest,
    DataPacket,
    OpenReply,
    OpenRequest,
    ReadRequest,
    WriteAck,
    WriteData,
    WriteNak,
    WriteRequest,
    wire_size,
)
from .buffered import BufferedSwiftFile
from .client import SwiftClient, SwiftFile
from .deployment import (
    LoopbackMedium,
    SwiftDeployment,
    build_local_swift,
)
from .distribution import DistributionAgent, TransferStats
from .errors import (
    AdmissionError,
    AgentFailure,
    DegradedModeError,
    ObjectExists,
    ObjectNotFound,
    SessionClosed,
    SwiftError,
    TransferError,
)
from .namespace import NamespaceClient
from .mediator import (
    MAX_STRIPING_UNIT,
    MIN_STRIPING_UNIT,
    AgentDescriptor,
    StorageMediator,
)
from .parity import compute_parity, reconstruct_unit, update_parity, xor_bytes
from .session import Reservation, Session
from .storage_agent import WELL_KNOWN_PORT, AgentStats, StorageAgent
from .streaming import (
    PlaybackReport,
    PlaybackSession,
    RecordingReport,
    RecordingSession,
)
from .striping import Chunk, StripeLayout
from .transfer_plan import TransferPlan

__all__ = [
    # striping / parity
    "StripeLayout", "Chunk",
    "xor_bytes", "compute_parity", "reconstruct_unit", "update_parity",
    # plans / sessions / mediator
    "TransferPlan", "Session", "Reservation",
    "StorageMediator", "AgentDescriptor",
    "MIN_STRIPING_UNIT", "MAX_STRIPING_UNIT",
    # agents / client
    "StorageAgent", "AgentStats", "WELL_KNOWN_PORT",
    "PlaybackSession", "PlaybackReport",
    "RecordingSession", "RecordingReport",
    "NamespaceClient",
    "DistributionAgent", "TransferStats",
    "SwiftClient", "SwiftFile", "BufferedSwiftFile",
    # deployment
    "SwiftDeployment", "build_local_swift", "LoopbackMedium",
    # protocol
    "OpenRequest", "OpenReply", "ReadRequest", "DataPacket",
    "WriteRequest", "WriteData", "WriteAck", "WriteNak",
    "CloseRequest", "CloseReply", "wire_size",
    "CONTROL_SIZE_BYTES", "DATA_HEADER_SIZE_BYTES",
    # errors
    "SwiftError", "AdmissionError", "ObjectNotFound", "ObjectExists",
    "AgentFailure", "TransferError", "DegradedModeError", "SessionClosed",
]
