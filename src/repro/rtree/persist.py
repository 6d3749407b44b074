"""Tree persistence through the byte-level page codec.

The simulator keeps node payloads as live objects for speed, but the
page layouts of :mod:`repro.storage.codec` are real; this module makes
them load-bearing: :func:`dump_tree` serialises a whole tree into one
bytes blob of codec pages, :func:`load_tree` reconstitutes it into a
fresh buffer pool. A retained index can therefore be shipped between
processes or sessions — the after-life Section 5 grants the seeded tree.

Format: a fixed header (magic, version, page size, page count, object
count) followed by one codec-encoded node page per tree node, root
first, with child pointers rewritten to blob-local page indices.

Coordinates are stored as ``float32`` (the paper's 16-byte bounding
boxes); loading a tree built from wider floats rounds its boxes to that
precision. :func:`dump_tree` refuses lossy dumps unless
``allow_quantize=True``, so silent precision loss cannot happen.

Dumps carry two integrity layers: each node page embeds the codec's
per-page CRC32, and the header stores a CRC32 over the whole page body,
so a truncated or bit-flipped blob is rejected with a typed
:class:`~repro.errors.CorruptPageError` before any node materialises.
"""

from __future__ import annotations

import struct
import zlib

from ..config import SystemConfig
from ..errors import CorruptPageError, StorageError, TreeError
from ..metrics import MetricsCollector
from ..storage import BufferPool, PageKind
from ..storage.codec import decode_node, encode_node, quantize
from .node import Entry, Node
from .rtree import RTree

_MAGIC = b"RTDP"
_VERSION = 2
# magic, version, page_size, pages, objects, body crc32
_HEADER = struct.Struct("<4sHHIQI")


def dump_tree(tree, allow_quantize: bool = False) -> bytes:
    """Serialise a tree (R-tree or finished seeded tree) to bytes.

    Raises :class:`StorageError` when any coordinate is not exactly
    representable in ``float32`` and ``allow_quantize`` is False.
    """
    config: SystemConfig = tree.config
    nodes = list(tree.iter_nodes())  # root first
    if not nodes:
        raise TreeError("cannot dump a tree with no nodes")
    index = {node.page_id: i for i, node in enumerate(nodes)}

    blobs = []
    for node in nodes:
        entries = []
        for e in node.entries:
            coords = (e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi)
            stored = tuple(quantize(c) for c in coords)
            if stored != coords and not allow_quantize:
                raise StorageError(
                    "coordinates are not float32-exact; pass "
                    "allow_quantize=True to round them"
                )
            ref = e.ref if node.is_leaf else index[e.ref]
            entries.append((*stored, ref))
        blobs.append(
            encode_node(config, node.level, node.is_leaf, entries)
        )

    body = b"".join(blobs)
    header = _HEADER.pack(
        _MAGIC, _VERSION, config.page_size, len(blobs), len(tree),
        zlib.crc32(body),
    )
    return header + body


def load_tree(
    buffer: BufferPool,
    config: SystemConfig,
    data: bytes,
    metrics: MetricsCollector | None = None,
    name: str = "",
    fast: bool | None = None,
) -> RTree:
    """Reconstitute a dumped tree into ``buffer``.

    Returns an :class:`RTree` handle whatever the original type was —
    a retained seeded tree loads as the plain (possibly unbalanced)
    index it has become. Loaded pages are born dirty, like any other
    join-time structure.

    Corruption (truncation, length mismatch, checksum failure, dangling
    child pointers) raises :class:`CorruptPageError`; a structurally
    sound blob for the wrong format or page size raises plain
    :class:`StorageError`.
    """
    if len(data) < _HEADER.size:
        raise CorruptPageError("blob too short to hold a tree header")
    magic, version, page_size, num_pages, count, body_crc = (
        _HEADER.unpack_from(data)
    )
    if magic != _MAGIC:
        raise StorageError("bad magic: not a dumped tree")
    if version != _VERSION:
        raise StorageError(f"unsupported dump version {version}")
    if page_size != config.page_size:
        raise StorageError(
            f"dump uses {page_size}-byte pages; config has "
            f"{config.page_size}"
        )
    expected = _HEADER.size + num_pages * config.page_size
    if len(data) != expected:
        raise CorruptPageError(
            f"blob is {len(data)} bytes; header promises {expected}"
        )
    actual_crc = zlib.crc32(data[_HEADER.size:])
    if actual_crc != body_crc:
        raise CorruptPageError(
            f"dump body checksum mismatch: stored {body_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )

    # First pass: materialise every node and record its new page id.
    nodes: list[Node] = []
    page_ids: list[int] = []
    offset = _HEADER.size
    for _ in range(num_pages):
        level, is_leaf, raw = decode_node(
            config, data[offset:offset + config.page_size]
        )
        offset += config.page_size
        node = Node(level)
        node.entries = [
            Entry(_rect(xlo, ylo, xhi, yhi), ref)
            for xlo, ylo, xhi, yhi, ref in raw
        ]
        node.page_id = buffer.new_page(PageKind.TREE_NODE, node).page_id
        nodes.append(node)
        page_ids.append(node.page_id)

    # Second pass: rewrite child indices to the new page ids.
    for node in nodes:
        if node.is_leaf:
            continue
        for e in node.entries:
            if not 0 <= e.ref < num_pages:
                raise CorruptPageError(
                    f"dangling child index {e.ref} in dump"
                )
            e.ref = page_ids[e.ref]

    tree = RTree(buffer, config, metrics=metrics, name=name, fast=fast)
    buffer.free([tree.root_id])  # placeholder root
    tree.root_id = page_ids[0]
    tree._count = count
    tree._num_nodes = num_pages
    tree._height = nodes[0].level + 1
    return tree


def _rect(xlo: float, ylo: float, xhi: float, yhi: float):
    from ..geometry import Rect

    return Rect(xlo, ylo, xhi, yhi)
