"""Pure-stdlib image codecs: PNG (zlib + numpy unfiltering) here, with
baseline/progressive JPEG (``functions/jpeg.py``) and GIF
(``functions/gif.py``) re-exported behind one sniffing dispatch, which
also takes the first frame of an MJPEG-in-MKV clip (``functions/mkv.py``).
No PIL dependency: these are real, from-spec implementations — mirroring
how the reference decodes images with Go's stdlib codecs
(go-tfdata tfdata/core/example.go:131-146).

Scope: PNG bit depth 8, color types 0 (gray), 2 (RGB), 6 (RGBA), all five
row filters, plus ``resize_nearest``. Enough for real decode → transform →
encode pipelines on synthetic or screenshot-class data; a production
deployment would swap a C codec in at the same seam (identical
signatures).

Per-image Python cost is O(rows) with vectorized lanes — the decode stages
batch 64 payloads per task call, so the interpreter overhead is
per-row-of-pixels, not per-pixel, except for PNG filters 3/4 (Average/
Paeth) whose left-pixel dependency is inherently sequential.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 6: 4}


# -- PNG -------------------------------------------------------------------

def encode_png(img: np.ndarray) -> bytes:
    """uint8 image (H,W) gray, (H,W,3) RGB or (H,W,4) RGBA → PNG bytes
    (filter 0 rows, one zlib IDAT)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color_type, nch = 0, 1
        rows = img
    elif img.ndim == 3 and img.shape[2] in (3, 4):
        color_type = 2 if img.shape[2] == 3 else 6
        nch = img.shape[2]
        rows = img.reshape(img.shape[0], -1)
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[0], img.shape[1]
    raw = np.empty((h, 1 + w * nch), dtype=np.uint8)
    raw[:, 0] = 0  # filter type None per row
    raw[:, 1:] = rows
    idat = zlib.compress(raw.tobytes(), 6)

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (_PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat)
            + chunk(b"IEND", b""))


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int32) + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def decode_png(buf: bytes) -> np.ndarray:
    """PNG bytes → uint8 array (H,W) or (H,W,C). Bit depth 8, color types
    0/2/6, no interlace; all five filters unfiltered per spec."""
    if buf[:8] != _PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    pos, w = 8, None
    idat = bytearray()
    while pos < len(buf):
        (ln,) = struct.unpack(">I", buf[pos:pos + 4])
        tag = buf[pos + 4:pos + 8]
        body = buf[pos + 8:pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, ctype, comp, filt, interlace = struct.unpack(">IIBBBBB", body)
            if depth != 8 or ctype not in _CHANNELS or interlace:
                raise ValueError(f"unsupported PNG (depth={depth} color={ctype})")
            nch = _CHANNELS[ctype]
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("no IHDR")
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = w * nch
    raw = raw.reshape(h, 1 + stride)
    filters, data = raw[:, 0], raw[:, 1:].astype(np.int32)
    out = np.zeros((h, stride), dtype=np.uint8)
    zero_row = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        f, row = int(filters[y]), data[y]
        up = out[y - 1] if y else zero_row
        if f == 0:
            rec = row
        elif f == 1:  # Sub: per-lane cumsum (addition mod 256 is associative)
            rec = row.reshape(w, nch).cumsum(axis=0)
        elif f == 2:  # Up
            rec = row + up
        else:  # Average / Paeth: left-pixel dependency → per-pixel walk
            rec = np.empty((w, nch), dtype=np.int32)
            rr = row.reshape(w, nch)
            upx = up.reshape(w, nch).astype(np.int32)
            left = np.zeros(nch, dtype=np.int32)
            ul = np.zeros(nch, dtype=np.int32)
            for x in range(w):
                if f == 3:
                    rec[x] = rr[x] + (left + upx[x]) // 2
                else:
                    rec[x] = rr[x] + _paeth(left.astype(np.uint8),
                                            upx[x].astype(np.uint8),
                                            ul.astype(np.uint8))
                left = rec[x] & 0xFF
                ul = upx[x]
        out[y] = (rec.reshape(-1) & 0xFF).astype(np.uint8)
    img = out.reshape(h, w, nch)
    return img[:, :, 0] if nch == 1 else img


def resize_nearest(img: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Nearest-neighbor resize (pixel-center sampling) — pure indexing."""
    h, w = img.shape[:2]
    ys = np.minimum(((np.arange(th) + 0.5) * h / th).astype(np.int64), h - 1)
    xs = np.minimum(((np.arange(tw) + 0.5) * w / tw).astype(np.int64), w - 1)
    return img[ys][:, xs]


# -- format dispatch (PNG / JPEG / GIF by magic bytes) ----------------------

from .jpeg import encode_jpeg, decode_jpeg  # noqa: E402  (re-export)
from .gif import (  # noqa: E402  (re-export)
    encode_gif, decode_gif, decode_gif_first,
)

_JPEG_SIG = b"\xff\xd8"
_GIF_SIG = b"GIF8"


def sniff_image_format(buf: bytes) -> str:
    """'png' | 'jpeg' | 'gif' | 'mkv' from magic bytes; raises on anything
    else. The image trio matches what the reference decodes via Go stdlib
    (go-tfdata tfdata/core/example.go:131-146); 'mkv' is the
    EBML/Matroska MJPEG container (``functions/mkv.py``)."""
    if buf[: len(_PNG_SIG)] == _PNG_SIG:
        return "png"
    if buf[: len(_JPEG_SIG)] == _JPEG_SIG:
        return "jpeg"
    if buf[: len(_GIF_SIG)] == _GIF_SIG:
        return "gif"
    if buf[:4] == b"\x1aE\xdf\xa3":
        return "mkv"
    raise NotImplementedError(
        "unrecognized image payload (PNG, baseline JPEG, GIF and "
        "MJPEG-MKV have from-spec codecs; other media plugs in at this "
        "seam)")


def decode_image(buf: bytes) -> np.ndarray:
    """Sniffing decode → uint8 pixel array (first composed frame for
    animated GIF)."""
    fmt = sniff_image_format(buf)
    if fmt == "png":
        return decode_png(buf)
    if fmt == "jpeg":
        return decode_jpeg(buf)
    if fmt == "mkv":  # first block frame of an MJPEG-in-MKV clip
        from .mkv import extract_mkv_frames

        return decode_jpeg(extract_mkv_frames(buf, [0])[0])
    return decode_gif_first(buf)


def encode_image(img: np.ndarray, fmt: str, **kw) -> bytes:
    """Encode to ``fmt`` ('png' | 'jpeg' | 'gif'); kwargs pass through to
    the codec (e.g. quality=, subsampling= for JPEG)."""
    if fmt == "png":
        return encode_png(img)
    if fmt == "jpeg":
        return encode_jpeg(img, **kw)
    if fmt == "gif":
        return encode_gif(img, **kw)
    raise NotImplementedError(f"no encoder for format {fmt!r}")
