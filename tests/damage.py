"""Damage a snapshot directory on disk, as bitrot or a hostile writer would."""

import json

from repro.core.mmap_layout import _meta_digest


def flip_byte(path, position=0):
    """Flip the low bit of byte *position* of the file at *path*."""
    data = bytearray(path.read_bytes())
    data[position] ^= 0x01
    path.write_bytes(bytes(data))


def edit_meta(path, edit, *, reseal):
    """Apply *edit* to snapshot *path*'s ``meta.json`` in place; *reseal*
    recomputes its digest, as a writer of the edited value would have, so
    a verified load gets past the digest to the reader's own checks."""
    meta = json.loads((path / "meta.json").read_text())
    edit(meta)
    if reseal:
        meta["meta_sha256"] = _meta_digest(meta)
    (path / "meta.json").write_text(json.dumps(meta))
