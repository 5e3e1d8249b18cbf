"""The Swift architecture: striping, parity, mediator, agents, client."""

from .. import _lazy_exports

#: Each export -> the submodule that defines it, loaded on first access.
_EXPORTS = {
    # striping / parity
    "StripeLayout": "striping", "Chunk": "striping",
    "xor_bytes": "parity", "compute_parity": "parity",
    "reconstruct_unit": "parity", "update_parity": "parity",
    # plans / sessions / mediator
    "TransferPlan": "transfer_plan", "Session": "session",
    "Reservation": "session",
    "StorageMediator": "mediator", "AgentDescriptor": "mediator",
    "MIN_STRIPING_UNIT": "mediator", "MAX_STRIPING_UNIT": "mediator",
    # agents / client
    "StorageAgent": "storage_agent", "AgentStats": "storage_agent",
    "WELL_KNOWN_PORT": "storage_agent",
    "PlaybackSession": "streaming", "PlaybackReport": "streaming",
    "RecordingSession": "streaming", "RecordingReport": "streaming",
    "NamespaceClient": "namespace",
    "DistributionAgent": "distribution", "TransferStats": "distribution",
    "SwiftClient": "client", "SwiftFile": "client",
    "BufferedSwiftFile": "buffered",
    # deployment
    "SwiftDeployment": "deployment", "build_local_swift": "deployment",
    "LoopbackMedium": "deployment",
    # protocol
    "OpenRequest": "agent_protocol", "OpenReply": "agent_protocol",
    "ReadRequest": "agent_protocol", "DataPacket": "agent_protocol",
    "WriteRequest": "agent_protocol", "WriteData": "agent_protocol",
    "WriteAck": "agent_protocol", "WriteNak": "agent_protocol",
    "CloseRequest": "agent_protocol", "CloseReply": "agent_protocol",
    "wire_size": "agent_protocol",
    "CONTROL_SIZE_BYTES": "agent_protocol",
    "DATA_HEADER_SIZE_BYTES": "agent_protocol",
    # errors
    "SwiftError": "errors", "AdmissionError": "errors",
    "ObjectNotFound": "errors", "ObjectExists": "errors",
    "AgentFailure": "errors", "TransferError": "errors",
    "DegradedModeError": "errors", "SessionClosed": "errors",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())
