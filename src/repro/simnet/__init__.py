"""Network substrate: datagrams, shared media, hosts, sockets, topologies."""

from .. import _lazy_exports

#: Each export -> the submodule that defines it, loaded on first access.
_EXPORTS = {
    "Address": "frames",
    "Datagram": "frames",
    "HEADER_SIZE": "frames",
    "Medium": "medium",
    "MediumStats": "medium",
    "Ethernet": "ethernet",
    "BackgroundLoad": "ethernet",
    "ETHERNET_MTU_PAYLOAD": "ethernet",
    "TokenRing": "token_ring",
    "Host": "host",
    "Interface": "host",
    "DatagramSocket": "host",
    "CostModel": "host",
    "mips_cost_model": "host",
    "Network": "topology",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())
