"""A host CPU that records its holds, for tests that pin CPU charges."""

from repro.des import FifoServer


class RecordingCpu(FifoServer):
    """A FIFO server that records the duration of every hold it serves."""

    __slots__ = ("holds",)

    def __init__(self, env):
        super().__init__(env)
        self.holds = []

    def serve(self, now, duration):
        self.holds.append(duration)
        return super().serve(now, duration)
