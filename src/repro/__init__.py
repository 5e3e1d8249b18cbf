"""repro — a reproduction of the Swift distributed-striping architecture.

Cabrera & Long, *Exploiting Multiple I/O Streams to Provide High
Data-Rates*, USENIX 1991.

Quick start::

    from repro import build_local_swift

    deployment = build_local_swift(num_agents=3)
    client = deployment.client()
    with client.open("movie", "w") as f:
        f.write(b"frame data ...")

Package map:

* :mod:`repro.des` — discrete-event simulation kernel
* :mod:`repro.simdisk` — disks, buffer cache, block file system
* :mod:`repro.simnet` — Ethernet / token-ring media, hosts, sockets
* :mod:`repro.core` — the Swift architecture itself
* :mod:`repro.baselines` — local SCSI and NFS comparators
* :mod:`repro.prototype` — the §3-§4 Ethernet testbed (Tables 1-4)
* :mod:`repro.sim` — the §5 token-ring simulation study (Figures 3-6)

``import repro`` loads no subpackage: this package and the package roots
it lists serve their exports from a literal ``_EXPORTS`` table (name ->
submodule), importing a submodule on the first access of a name it
defines (:func:`_lazy_exports`).  A figure command therefore never loads
the §4 client stack, nor a table command the §5 model.
"""

from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict[str, str], namespace: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package root.

    ``exports`` maps each exported name to the submodule of ``package``
    that defines it; a name mapped to itself is that submodule.  The first
    access imports the submodule and stores the value in ``namespace``
    (the package's globals), so later accesses, ``from package import
    name`` and ``from package import *`` all read the plain global.  The
    static ``effects`` pass of ``repro check`` reads the same tables.
    """
    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


#: Each export -> the subpackage that defines it, loaded on first access.
_EXPORTS = {
    "build_local_swift": "core",
    "SwiftDeployment": "core",
    "SwiftClient": "core",
    "SwiftFile": "core",
    "BufferedSwiftFile": "core",
    "SwiftError": "core",
    "StorageAgent": "core",
    "StorageMediator": "core",
    "StripeLayout": "core",
    "DistributionAgent": "core",
    "TransferPlan": "core",
    "AdmissionError": "core",
    "AgentFailure": "core",
    "ObjectNotFound": "core",
    "SessionClosed": "core",
    "TransferError": "core",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())
