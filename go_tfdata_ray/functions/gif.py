"""Pure-python/numpy GIF codec (GIF87a/89a) — closes the last image-format
parity gap with the reference, which decodes PNG/JPEG/GIF via Go's stdlib
(go-tfdata tfdata/core/example.go:131-146).

Scope:
- decode: GIF87a + GIF89a, global/local color tables, interlacing, LZW
  with growing code sizes and mid-stream clear codes, multiple frames
  composed per the disposal method (none/keep, restore-background,
  restore-previous), transparency via GCE, per-frame delays.
- encode: one or more full-frame RGB images; palette built from the exact
  unique colors when ≤256 (lossless round trip), else deterministic
  median-cut quantization (count-weighted, standard lossy palette path);
  LZW with dictionary reset at 4096 entries.

Cost model: palette mapping, interlace reordering and frame composition
are vectorized numpy; the LZW symbol walk is a Python loop (inherently
sequential, one iteration per pixel run) — fine for the KB-scale synthetic
fixtures; a C codec plugs in at the same seam for production corpora.
"""

from __future__ import annotations

import struct

import numpy as np

_GIF87 = b"GIF87a"
_GIF89 = b"GIF89a"


# -- LZW --------------------------------------------------------------------

def _lzw_decode(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """GIF-flavor LZW: concatenated sub-block payload -> uint8 index array."""
    clear = 1 << min_code_size
    end = clear + 1
    # bit reader, LSB-first per GIF spec
    bits = 0
    acc = 0
    pos = 0
    code_size = min_code_size + 1
    # dictionary as a list of bytes objects
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(base)
    out = bytearray()
    prev: bytes | None = None
    while len(out) < n_pixels:
        while bits < code_size:
            if pos >= len(data):
                # truncated stream: return what we have (some encoders omit
                # the explicit end code)
                arr = np.frombuffer(bytes(out[:n_pixels]), dtype=np.uint8)
                return arr
            acc |= data[pos] << bits
            bits += 8
            pos += 1
        code = acc & ((1 << code_size) - 1)
        acc >>= code_size
        bits -= code_size
        if code == clear:
            table = list(base)
            code_size = min_code_size + 1
            prev = None
            continue
        if code == end:
            break
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("corrupt LZW stream (code beyond table)")
        out += entry
        prev = entry
        if len(table) == (1 << code_size) and code_size < 12:
            code_size += 1
    return np.frombuffer(bytes(out[:n_pixels]), dtype=np.uint8)


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """uint8 index array -> GIF LZW byte stream (without sub-blocking)."""
    clear = 1 << min_code_size
    end = clear + 1
    out = bytearray()
    acc = 0
    bits = 0
    code_size = min_code_size + 1

    def emit(code: int) -> None:
        nonlocal acc, bits
        acc |= code << bits
        bits += code_size
        while bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            bits -= 8

    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = end + 1
    emit(clear)
    w = b""
    for px in indices.tobytes():
        wk = w + bytes([px])
        if wk in table:
            w = wk
            continue
        emit(table[w])
        table[wk] = next_code
        next_code += 1
        if next_code == (1 << code_size) + 1 and code_size < 12:
            code_size += 1
        if next_code >= 4096:
            emit(clear)
            table = {bytes([i]): i for i in range(clear)}
            next_code = end + 1
            code_size = min_code_size + 1
        w = bytes([px])
    if w:
        emit(table[w])
    emit(end)
    if bits:
        out.append(acc & 0xFF)
    return bytes(out)


def _sub_blocks(payload: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(payload), 255):
        chunk = payload[i:i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    return bytes(out)


_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _deinterlace(rows: np.ndarray) -> np.ndarray:
    h = rows.shape[0]
    order = np.concatenate([np.arange(start, h, step)
                            for start, step in _INTERLACE_PASSES])
    out = np.empty_like(rows)
    out[order] = rows
    return out


# -- decode -----------------------------------------------------------------

def decode_gif(buf: bytes) -> tuple[np.ndarray, list[int]]:
    """GIF bytes -> (frames uint8 (N,H,W,3) composed per disposal, per-frame
    delays in hundredths of a second)."""
    if buf[:6] not in (_GIF87, _GIF89):
        raise ValueError("not a GIF (bad signature)")
    w, h, flags, bg_index, _ar = struct.unpack("<HHBBB", buf[6:13])
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 0x07)
        gct = np.frombuffer(buf[pos:pos + 3 * n], dtype=np.uint8).reshape(n, 3)
        pos += 3 * n

    frames: list[np.ndarray] = []
    delays: list[int] = []
    # canvas starts at the background color (or black without a GCT)
    if gct is not None and bg_index < len(gct):
        canvas = np.tile(gct[bg_index], (h, w, 1)).astype(np.uint8)
    else:
        canvas = np.zeros((h, w, 3), dtype=np.uint8)
    transparent: int | None = None
    disposal = 0
    delay = 0

    while pos < len(buf):
        block = buf[pos]
        pos += 1
        if block == 0x3B:  # trailer
            break
        if block == 0x21:  # extension
            label = buf[pos]
            pos += 1
            if label == 0xF9:  # graphic control
                size = buf[pos]
                gce = buf[pos + 1:pos + 1 + size]
                disposal = (gce[0] >> 2) & 0x7
                delay = struct.unpack("<H", gce[1:3])[0]
                transparent = gce[3] if gce[0] & 0x01 else None
                pos += 1 + size
            while True:  # skip (remaining) sub-blocks
                n = buf[pos]
                pos += 1
                if n == 0:
                    break
                pos += n
            continue
        if block != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{block:02x}")
        # image descriptor
        fx, fy, fw, fh, iflags = struct.unpack("<HHHHB", buf[pos:pos + 9])
        pos += 9
        if iflags & 0x80:
            n = 2 << (iflags & 0x07)
            ct = np.frombuffer(buf[pos:pos + 3 * n], dtype=np.uint8).reshape(n, 3)
            pos += 3 * n
        else:
            if gct is None:
                raise ValueError("frame without any color table")
            ct = gct
        min_code_size = buf[pos]
        pos += 1
        payload = bytearray()
        while True:
            n = buf[pos]
            pos += 1
            if n == 0:
                break
            payload += buf[pos:pos + n]
            pos += n
        idx = _lzw_decode(bytes(payload), min_code_size, fw * fh).reshape(fh, fw)
        if iflags & 0x40:
            idx = _deinterlace(idx)

        prev_canvas = canvas.copy() if disposal == 3 else None
        region = canvas[fy:fy + fh, fx:fx + fw]
        pixels = ct[np.minimum(idx, len(ct) - 1)]
        if transparent is not None:
            mask = (idx != transparent)[..., np.newaxis]
            region[:] = np.where(mask, pixels, region)
        else:
            region[:] = pixels
        frames.append(canvas.copy())
        delays.append(delay)

        if disposal == 2:  # restore to background
            bg = (gct[bg_index] if gct is not None and bg_index < len(gct)
                  else np.zeros(3, np.uint8))
            canvas[fy:fy + fh, fx:fx + fw] = bg
        elif disposal == 3 and prev_canvas is not None:
            canvas = prev_canvas
        disposal = 0
        transparent = None
        delay = 0

    if not frames:
        raise ValueError("GIF contains no image frames")
    return np.stack(frames), delays


def decode_gif_first(buf: bytes) -> np.ndarray:
    """First composed frame as uint8 (H,W,3) — the single-image decode."""
    return decode_gif(buf)[0][0]


# -- encode -----------------------------------------------------------------

def quantize_median_cut(flat: np.ndarray,
                        max_colors: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Median-cut color quantization: uint8 (N,3) RGB → (palette (K,3) uint8,
    indices (N,) intp with K ≤ max_colors). Deterministic: boxes split
    largest-pixel-count-first along the channel with the widest value range,
    at the count-weighted median unique color; ties break on box id. Runs on
    the UNIQUE colors weighted by their pixel counts, so the iterative part
    costs O(unique · log unique), independent of frame count/size."""
    uniq, inverse, counts = np.unique(
        flat, axis=0, return_inverse=True, return_counts=True)
    if len(uniq) <= max_colors:
        return uniq, inverse
    u16 = uniq.astype(np.int16)
    boxes = [np.arange(len(uniq))]  # index arrays into uniq, sorted
    while len(boxes) < max_colors:
        # largest box by pixel count that still has >1 unique color
        order = sorted(range(len(boxes)),
                       key=lambda i: (-int(counts[boxes[i]].sum()), i))
        for bi in order:
            idx = boxes[bi]
            if len(idx) > 1:
                break
        else:
            break  # every box is a single color: nothing left to split
        colors = u16[idx]
        ch = int(np.argmax(colors.max(axis=0) - colors.min(axis=0)))
        sort = idx[np.argsort(colors[:, ch], kind="stable")]
        csum = np.cumsum(counts[sort])
        # smallest prefix holding >= half the pixel weight
        cut = int(np.searchsorted(csum, csum[-1] / 2, side="left")) + 1
        cut = min(max(cut, 1), len(sort) - 1)  # both halves non-empty
        boxes[bi] = sort[:cut]
        boxes.append(sort[cut:])
    palette = np.empty((len(boxes), 3), dtype=np.uint8)
    box_of = np.empty(len(uniq), dtype=np.intp)
    for bi, idx in enumerate(boxes):
        w = counts[idx].astype(np.float64)
        palette[bi] = np.round(
            (u16[idx] * w[:, None]).sum(axis=0) / w.sum()).astype(np.uint8)
        box_of[idx] = bi
    return palette, box_of[inverse]


def encode_gif(frames: np.ndarray | list[np.ndarray],
               delays: int | list[int] = 4,
               max_colors: int = 256) -> bytes:
    """uint8 (H,W,3) / (N,H,W,3) RGB -> GIF89a bytes. Up to ``max_colors``
    unique colors across all frames the palette is the exact color set
    (lossless round trip); past that the frames are median-cut quantized to
    ``max_colors`` (deterministic, count-weighted — the standard lossy
    palette path every production GIF encoder takes)."""
    arr = np.asarray(frames, dtype=np.uint8)
    if arr.ndim == 3:
        arr = arr[np.newaxis]
    if arr.ndim != 4 or arr.shape[-1] != 3:
        raise ValueError(f"unsupported frame shape {np.asarray(frames).shape}")
    if not 2 <= max_colors <= 256:
        raise ValueError("max_colors must be in [2, 256]")
    n, h, w = arr.shape[:3]
    flat = arr.reshape(-1, 3)
    palette, inverse = quantize_median_cut(flat, max_colors)
    depth = max(int(np.ceil(np.log2(max(len(palette), 2)))), 1)
    table_size = 1 << depth
    pal = np.zeros((table_size, 3), dtype=np.uint8)
    pal[:len(palette)] = palette
    indices = inverse.astype(np.uint8).reshape(n, h, w)
    if isinstance(delays, int):
        delays = [delays] * n

    out = bytearray(_GIF89)
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += pal.tobytes()
    if n > 1:
        # Netscape looping extension
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    min_code_size = max(depth, 2)
    for fi in range(n):
        out += b"\x21\xf9\x04" + bytes([0x04]) \
            + struct.pack("<H", int(delays[fi])) + b"\x00\x00"
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0)
        out.append(min_code_size)
        out += _sub_blocks(_lzw_encode(indices[fi].ravel(), min_code_size))
    out += b"\x3b"
    return bytes(out)

