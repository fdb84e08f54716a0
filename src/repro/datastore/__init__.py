"""HDFS-like data serving substrate (§5.1)."""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".hdfs": (
            "Chunk", "DataFile", "ChunkStore", "ChunkAssignment", "DEFAULT_CHUNK_SIZE",
            "DEFAULT_REPLICATION",
        ),
    },
)
