"""From-spec Matroska (MKV/WebM-family) container walk.

Matroska is the EBML binary-XML format (RFC 9559 / matroska.org): every
element is ``vint id`` + ``vint size`` + body, with the leading-zero
count of the first byte giving the vint width. This is a CONTAINER
parse, not a pixel decode — frame payloads come out as raw block bytes
(for MJPEG-in-MKV, CodecID ``V_MJPEG``, each frame is a complete baseline
JPEG decodable by ``functions/jpeg.py``).

Elements parsed::

    EBML                      # 0x1A45DFA3 header (DocType check)
    Segment                   # 0x18538067 (known OR unknown size)
      Info                    #   TimestampScale, Duration
      Tracks / TrackEntry     #   TrackNumber, TrackType=1 selects video,
                              #   CodecID, Video{PixelWidth, PixelHeight}
      Cluster                 #   Timestamp + blocks (known/unknown size)
        SimpleBlock           #   track vint, s16 timecode, flags, frames
        BlockGroup / Block    #   same block layout one level down
      SeekHead/Cues/Void/CRC  #   skipped

All four lacing modes are real: none, Xiph (255-run sizes), fixed-size,
and EBML (signed-vint deltas). Unknown-size Segments/Clusters — the
live-streamed Matroska shape — are bounded by scanning to the next
sibling-level element.

Scale shape: Matroska has NO mandatory global sample table (Cues seek to
clusters, not frames), so ``mkv_frame_index`` is an O(#block headers)
cluster walk — headers only, payload bytes are never copied; sampling N
of F frames then slices exactly N ranges.

Writer ``encode_mkv_mjpeg`` builds minimal valid single-track MJPEG
files for tests; ``frames_per_cluster`` exercises multi-cluster walks,
``lacing=`` the three lacing decoders, and ``unknown_size=True`` the
streamed-segment shape.
"""

from __future__ import annotations

import struct

# element ids in their encoded (marker-bit-included) form
_EBML = 0x1A45DFA3
_DOCTYPE = 0x4282
_SEGMENT = 0x18538067
_SEEKHEAD = 0x114D9B74
_INFO = 0x1549A966
_TS_SCALE = 0x2AD7B1
_DURATION = 0x4489
_TRACKS = 0x1654AE6B
_TRACK_ENTRY = 0xAE
_TRACK_NUMBER = 0xD7
_TRACK_UID = 0x73C5
_TRACK_TYPE = 0x83
_CODEC_ID = 0x86
_VIDEO = 0xE0
_PIXEL_W = 0xB0
_PIXEL_H = 0xBA
_CLUSTER = 0x1F43B675
_TIMESTAMP = 0xE7
_SIMPLE_BLOCK = 0xA3
_BLOCK_GROUP = 0xA0
_BLOCK = 0xA1
_CUES = 0x1C53BB6B
_VOID = 0xEC
_CRC32 = 0xBF
_TAGS = 0x1254C367
_CHAPTERS = 0x1043A770
_ATTACHMENTS = 0x1941A469

# ids that terminate an unknown-size Cluster: any Segment-level sibling
_SEGMENT_LEVEL = {_CLUSTER, _CUES, _INFO, _TRACKS, _SEEKHEAD, _TAGS,
                  _CHAPTERS, _ATTACHMENTS}


def _read_id(buf: bytes, pos: int) -> tuple[int, int]:
    """EBML element id at pos → (id_with_marker, next_pos). Ids keep the
    length-marker bit (the form the spec tables list them in)."""
    if pos >= len(buf):
        raise ValueError("EBML id past end of buffer")
    first = buf[pos]
    if first == 0:
        raise ValueError(f"invalid EBML id byte 0x00 at {pos}")
    n = 8 - first.bit_length() + 1  # leading zeros + 1 = total width
    if pos + n > len(buf):
        raise ValueError(f"truncated EBML id at {pos}")
    val = 0
    for b in buf[pos:pos + n]:
        val = (val << 8) | b
    return val, pos + n


def _read_size(buf: bytes, pos: int) -> tuple[int | None, int]:
    """EBML size vint at pos → (size | None for unknown, next_pos)."""
    if pos >= len(buf):
        raise ValueError("EBML size past end of buffer")
    first = buf[pos]
    if first == 0:
        raise ValueError(f"invalid EBML size byte 0x00 at {pos}")
    n = 8 - first.bit_length() + 1
    if pos + n > len(buf):
        raise ValueError(f"truncated EBML size at {pos}")
    val = first & (0xFF >> n)
    for b in buf[pos + 1:pos + n]:
        val = (val << 8) | b
    if val == (1 << (7 * n)) - 1:  # all data bits set = unknown size
        return None, pos + n
    return val, pos + n


def _uint(buf: bytes, body: int, end: int) -> int:
    val = 0
    for b in buf[body:end]:
        val = (val << 8) | b
    return val


def _iter_elements(buf: bytes, pos: int, end: int):
    """Yield (id, body_start, body_end, element_start) in [pos, end).
    Unknown-size elements yield body_end=None — the caller bounds them
    (only Segment and Cluster may be unknown-size per the spec)."""
    while pos < end:
        start = pos
        eid, p = _read_id(buf, pos)
        size, body = _read_size(buf, p)
        if size is None:
            yield eid, body, None, start
            return  # caller re-enters once it has bounded the element
        if body + size > end:
            raise ValueError(
                f"truncated MKV element 0x{eid:X} at {start}: body end "
                f"{body + size} exceeds container {end}")
        yield eid, body, body + size, start
        pos = body + size


def is_mkv(buf: bytes) -> bool:
    return len(buf) >= 4 and buf[:4] == b"\x1aE\xdf\xa3"


def _segment_bounds(buf: bytes) -> tuple[int, int]:
    """Locate the Segment body (EBML header verified first)."""
    if not is_mkv(buf):
        raise ValueError("not a Matroska file: missing EBML magic")
    pos = 0
    seg = None
    for eid, body, bend, _st in _iter_elements(buf, pos, len(buf)):
        if eid == _SEGMENT:
            seg = (body, len(buf) if bend is None else bend)
            break
    if seg is None:
        raise ValueError("MKV missing Segment element")
    return seg


def _cluster_end(buf: bytes, body: int, parent_end: int) -> int:
    """Bound an unknown-size Cluster: scan child headers until a
    Segment-level sibling id appears (or parent end)."""
    pos = body
    while pos < parent_end:
        start = pos
        eid, p = _read_id(buf, pos)
        if eid in _SEGMENT_LEVEL:
            return start
        size, bp = _read_size(buf, p)
        if size is None:
            raise ValueError(
                f"unknown-size element 0x{eid:X} inside unknown-size "
                f"cluster at {start}")
        pos = bp + size
    return parent_end


def mkv_info(buf: bytes) -> dict:
    """Segment Info + first video TrackEntry fields."""
    seg_b, seg_e = _segment_bounds(buf)
    info: dict = {"timestamp_scale": 1_000_000}
    for eid, body, bend, _st in _iter_elements(buf, seg_b, seg_e):
        if bend is None:  # unknown-size cluster: nothing past it matters
            break
        if eid == _INFO:
            for cid, cb, ce, _ in _iter_elements(buf, body, bend):
                if cid == _TS_SCALE:
                    info["timestamp_scale"] = _uint(buf, cb, ce)
                elif cid == _DURATION:
                    raw = buf[cb:ce]
                    info["duration"] = struct.unpack(
                        ">f" if len(raw) == 4 else ">d", raw)[0]
        elif eid == _TRACKS:
            for cid, cb, ce, _ in _iter_elements(buf, body, bend):
                if cid != _TRACK_ENTRY:
                    continue
                ent: dict = {}
                for tid, tb, te, _ in _iter_elements(buf, cb, ce):
                    if tid == _TRACK_NUMBER:
                        ent["track_number"] = _uint(buf, tb, te)
                    elif tid == _TRACK_TYPE:
                        ent["track_type"] = _uint(buf, tb, te)
                    elif tid == _CODEC_ID:
                        ent["codec_id"] = buf[tb:te].decode("ascii")
                    elif tid == _VIDEO:
                        for vid, vb, ve, _ in _iter_elements(buf, tb, te):
                            if vid == _PIXEL_W:
                                ent["width"] = _uint(buf, vb, ve)
                            elif vid == _PIXEL_H:
                                ent["height"] = _uint(buf, vb, ve)
                if ent.get("track_type") == 1 and "video_track" not in info:
                    info["video_track"] = ent["track_number"]
                    info.update({k: v for k, v in ent.items()
                                 if k in ("codec_id", "width", "height")})
    if "video_track" not in info:
        raise ValueError("MKV has no video track (TrackType 1)")
    return info


def _block_frames(buf: bytes, body: int, bend: int,
                  track: int) -> list[tuple[int, int]]:
    """(offset, size) of each frame in a (Simple)Block body, expanding
    the lacing header; returns [] for other tracks' blocks."""
    tnum, p = _read_size(buf, body)  # track number is a size-style vint
    if tnum is None:
        raise ValueError("block with unknown-size track number")
    p += 2  # s16 relative timecode
    flags = buf[p]
    p += 1
    if tnum != track:
        return []
    lacing = (flags >> 1) & 0x3
    if lacing == 0:
        return [(p, bend - p)]
    n_frames = buf[p] + 1
    p += 1
    sizes: list[int] = []
    if lacing == 1:  # Xiph: 255-run coded sizes for frames 0..n-2
        for _ in range(n_frames - 1):
            size = 0
            while buf[p] == 255:
                size += 255
                p += 1
            size += buf[p]
            p += 1
            sizes.append(size)
    elif lacing == 2:  # fixed-size: equal split of the remainder
        if (bend - p) % n_frames:
            raise ValueError("fixed lacing: payload not divisible")
        sizes = [(bend - p) // n_frames] * (n_frames - 1)
    elif n_frames > 1:  # EBML: first size a plain vint, then signed deltas
        size, p = _read_size(buf, p)
        if size is None:
            raise ValueError("EBML lacing with unknown first size")
        sizes.append(size)
        for _ in range(n_frames - 2):
            raw_first = buf[p]
            n = 8 - raw_first.bit_length() + 1
            raw, p = _read_size(buf, p)
            if raw is None:
                raise ValueError("EBML lacing with unknown delta")
            size += raw - ((1 << (7 * n - 1)) - 1)  # signed-vint bias
            sizes.append(size)
    out: list[tuple[int, int]] = []
    for s in sizes:
        out.append((p, s))
        p += s
    out.append((p, bend - p))  # last frame = remainder
    if bend - p < 0:
        raise ValueError("laced frame sizes exceed block payload")
    return out


def mkv_frame_index(buf: bytes) -> list[tuple[int, int]]:
    """(absolute_offset, size) of every video frame in cluster order —
    an O(#block headers) walk: Matroska has no global sample table
    (Cues point at clusters), so the cluster/block headers ARE the
    index; frame payload bytes are never touched."""
    info = mkv_info(buf)
    track = info["video_track"]
    seg_b, seg_e = _segment_bounds(buf)
    out: list[tuple[int, int]] = []
    pos = seg_b
    while pos < seg_e:
        resumed = False
        for eid, body, bend, start in _iter_elements(buf, pos, seg_e):
            if bend is None:
                if eid != _CLUSTER:
                    raise ValueError(
                        f"unknown-size element 0x{eid:X} is not a Cluster")
                bend = _cluster_end(buf, body, seg_e)
                pos, resumed = bend, True
            if eid != _CLUSTER:
                continue
            for cid, cb, ce, _ in _iter_elements(buf, body, bend):
                if cid == _SIMPLE_BLOCK:
                    out.extend(_block_frames(buf, cb, ce, track))
                elif cid == _BLOCK_GROUP:
                    for gid, gb, ge, _ in _iter_elements(buf, cb, ce):
                        if gid == _BLOCK:
                            out.extend(_block_frames(buf, gb, ge, track))
            if resumed:
                break  # re-enter _iter_elements past the bounded cluster
        else:
            break  # iterator exhausted normally
        if not resumed:
            break
    if out and max(o + sz for o, sz in out) > len(buf):
        raise ValueError("truncated MKV: last frame exceeds file size")
    return out


def count_mkv_frames(buf: bytes) -> int:
    return len(mkv_frame_index(buf))


def split_mkv_frames(buf: bytes) -> list[bytes]:
    return [buf[o:o + sz] for o, sz in mkv_frame_index(buf)]


def extract_mkv_frames(buf: bytes, indices) -> list[bytes]:
    """Slice only the requested frames — the sampling cost model."""
    idx = mkv_frame_index(buf)
    out = []
    for i in indices:
        if not 0 <= i < len(idx):
            raise IndexError(f"frame {i} out of range ({len(idx)} frames)")
        o, sz = idx[i]
        out.append(buf[o:o + sz])
    return out


# -- writer ----------------------------------------------------------------


def _enc_id(eid: int) -> bytes:
    return eid.to_bytes((eid.bit_length() + 7) // 8, "big")


def _enc_size(val: int, width: int | None = None) -> bytes:
    """Size vint; width forced for the unknown-size sentinel caller."""
    n = width or next(k for k in range(1, 9) if val < (1 << (7 * k)) - 1)
    return ((1 << (7 * n)) | val).to_bytes(n, "big")


def _el(eid: int, body: bytes) -> bytes:
    return _enc_id(eid) + _enc_size(len(body)) + body


def _el_uint(eid: int, val: int) -> bytes:
    return _el(eid, val.to_bytes(max(1, (val.bit_length() + 7) // 8), "big"))


def _xiph_sizes(sizes: list[int]) -> bytes:
    out = bytearray()
    for s in sizes:
        out += b"\xff" * (s // 255) + bytes([s % 255])
    return bytes(out)


def _ebml_sizes(sizes: list[int]) -> bytes:
    if not sizes:  # 1-frame laced block: zero size entries
        return b""
    out = bytearray(_enc_size(sizes[0]))
    prev = sizes[0]
    for s in sizes[1:]:
        delta = s - prev
        # signed vint: stored = delta + (2^(7n-1) - 1), pick minimal n
        n = next(k for k in range(1, 9)
                 if -(1 << (7 * k - 1)) + 1 <= delta <= (1 << (7 * k - 1)) - 1)
        out += _enc_size(delta + (1 << (7 * n - 1)) - 1, width=n)
        prev = s
    return bytes(out)


def _simple_block(track: int, timecode: int, frames: list[bytes],
                  lacing: str | None) -> bytes:
    head = _enc_size(track) + struct.pack(">h", timecode)
    if lacing is None:
        assert len(frames) == 1
        return _el(_SIMPLE_BLOCK, head + b"\x80" + frames[0])
    sizes = [len(f) for f in frames]
    payload = b"".join(frames)
    if lacing == "xiph":
        body = head + bytes([0x80 | 0x02, len(frames) - 1])
        body += _xiph_sizes(sizes[:-1]) + payload
    elif lacing == "fixed":
        if len(set(sizes)) > 1:
            raise ValueError("fixed lacing needs equal frame sizes")
        body = head + bytes([0x80 | 0x04, len(frames) - 1]) + payload
    elif lacing == "ebml":
        body = head + bytes([0x80 | 0x06, len(frames) - 1])
        body += _ebml_sizes(sizes[:-1]) + payload
    else:
        raise ValueError(f"unknown lacing {lacing!r}")
    return _el(_SIMPLE_BLOCK, body)


def encode_mkv_mjpeg(frames: list[bytes], fps: int = 10, width: int = 16,
                     height: int = 16, frames_per_cluster: int = 8,
                     lacing: str | None = None,
                     unknown_size: bool = False) -> bytes:
    """Minimal valid single-track MJPEG Matroska file. ``lacing`` packs
    each cluster's frames into ONE laced SimpleBlock (``"xiph"`` /
    ``"ebml"`` take arbitrary sizes, ``"fixed"`` needs equal ones);
    ``unknown_size=True`` writes the streamed-segment shape (Segment
    size = the 8-byte unknown sentinel)."""
    if not frames:
        raise ValueError("need at least one frame")
    header = _el(_EBML, b"".join([
        _el_uint(0x4286, 1),            # EBMLVersion
        _el_uint(0x42F7, 1),            # EBMLReadVersion
        _el_uint(0x42F2, 4),            # EBMLMaxIDLength
        _el_uint(0x42F3, 8),            # EBMLMaxSizeLength
        _el(_DOCTYPE, b"matroska"),
        _el_uint(0x4287, 4),            # DocTypeVersion
        _el_uint(0x4285, 2),            # DocTypeReadVersion
    ]))
    frame_ms = 1000 // fps
    info = _el(_INFO, b"".join([
        _el_uint(_TS_SCALE, 1_000_000),  # 1 ms ticks
        _el(_DURATION, struct.pack(">d", float(len(frames) * frame_ms))),
    ]))
    tracks = _el(_TRACKS, _el(_TRACK_ENTRY, b"".join([
        _el_uint(_TRACK_NUMBER, 1),
        _el_uint(_TRACK_UID, 1),
        _el_uint(_TRACK_TYPE, 1),       # video
        _el(_CODEC_ID, b"V_MJPEG"),
        _el_uint(0x23E383, frame_ms * 1_000_000),  # DefaultDuration (ns)
        _el(_VIDEO, _el_uint(_PIXEL_W, width) + _el_uint(_PIXEL_H, height)),
    ])))
    clusters = b""
    for c0 in range(0, len(frames), frames_per_cluster):
        chunk = frames[c0:c0 + frames_per_cluster]
        body = _el_uint(_TIMESTAMP, c0 * frame_ms)
        if lacing is None:
            for j, f in enumerate(chunk):
                body += _simple_block(1, j * frame_ms, [f], None)
        else:
            body += _simple_block(1, 0, chunk, lacing)
        clusters += _el(_CLUSTER, body)
    seg_body = info + tracks + clusters
    if unknown_size:
        seg = _enc_id(_SEGMENT) + b"\x01" + b"\xff" * 7 + seg_body
    else:
        seg = _el(_SEGMENT, seg_body)
    return header + seg
