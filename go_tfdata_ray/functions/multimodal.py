"""Image columns as opaque binary payloads + typed dimensions.

The decode, resize and augment kernels run the from-spec PNG, baseline
JPEG and GIF codecs (``functions/codecs.py`` / ``functions/jpeg.py`` /
``functions/gif.py``), mirroring the reference's use of Go stdlib codecs
at go-tfdata tfdata/core/example.go:131-146: every stage sniffs the
payload magic and works on actual pixels. Other formats raise
``NotImplementedError`` at that seam.

Payload-aware batch sizing: image rows are KB–MB wide, so these stages use
a small ``batch_size`` (64) — batch_bytes ≈ batch_size × payload, and
batch_bytes × concurrency must fit the worker heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from . import codecs
from .text import _worker_cached

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("payload", pa.large_binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)


def synth_image(i: int, w: int, h: int, seed: int = 5) -> np.ndarray:
    """Deterministic RGB test image: index-keyed gradients + a checker."""
    yy, xx = np.mgrid[0:h, 0:w]
    r = (xx * (i + seed)) % 256
    g = (yy * 3 + i) % 256
    b = ((xx // 8 + yy // 8) % 2) * 255
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


_GIF_PALETTE = np.array(
    [[0, 0, 0], [255, 80, 40], [40, 200, 120], [60, 90, 255]], dtype=np.uint8)


def synth_gif_frames(i: int, n_frames: int, size: int = 16) -> np.ndarray:
    """Deterministic (n_frames, size, size, 3) animation over a 4-color
    palette: a diagonal wave that advances one step per frame."""
    yy, xx = np.mgrid[0:size, 0:size]
    f = np.arange(n_frames)[:, np.newaxis, np.newaxis]
    idx = (xx + yy + i + f) % len(_GIF_PALETTE)
    return _GIF_PALETTE[idx]


def synth_media_table(n: int, payload: str = "png", seed: int = 5) -> pa.Table:
    """Deterministic image rows with REAL encoded payloads: ``"png"``,
    ``"jpeg"`` (alternating 4:4:4 / 4:2:0) or ``"gif"`` (an animated
    16×16 clip of ``(i % 30) + 1`` frames, so width/height report 16).
    Still images are square, side ``64 + (i % 4) * 32``."""
    ids = [f"m-{i:06d}" for i in range(n)]
    w = [16 if payload == "gif" else 64 + (i % 4) * 32 for i in range(n)]
    if payload == "png":
        payloads = [codecs.encode_png(synth_image(i, w[i], w[i], seed)) for i in range(n)]
    elif payload == "jpeg":
        payloads = [codecs.encode_jpeg(synth_image(i, w[i], w[i], seed), quality=90,
                                       subsampling="420" if i % 2 else "444")
                    for i in range(n)]
    elif payload == "gif":
        payloads = [codecs.encode_gif(synth_gif_frames(i + seed, (i % 30) + 1))
                    for i in range(n)]
    else:
        raise ValueError(f"unknown payload {payload!r}")
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, pa.large_binary()),
            "width": pa.array(w, pa.int32()),
            "height": pa.array(w, pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


class ImageDecoder:
    """Decode stage (worker-cached task): payload bytes → feature vector.

    Sniffing PNG/JPEG/GIF decode (``codecs.decode_image``; GIF yields its
    first composed frame) → [width, height, channels, pixel mean, pixel
    std, min, max, mean |horizontal gradient|]. Unrecognized payloads
    raise at the seam a PIL kernel would plug into.
    """

    def __call__(self, t: pa.Table) -> pa.Table:
        feats, widths, heights = [], [], []
        for buf in t["payload"].to_pylist():
            img = codecs.decode_image(buf)  # sniffs PNG/JPEG/GIF magic
            px = img.astype(np.float64)
            grad = np.abs(np.diff(px, axis=1)).mean() if img.shape[1] > 1 else 0.0
            feats.append(np.array([
                img.shape[1], img.shape[0],
                img.shape[2] if img.ndim == 3 else 1,
                px.mean(), px.std(), px.min(), px.max(), grad,
            ]))
            widths.append(img.shape[1])
            heights.append(img.shape[0])
        return pa.table(
            {
                "media_id": t["media_id"],
                "features": pa.array(feats, pa.list_(pa.float64())),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
            }
        )


class ImageResizer:
    """Resize stage: payload → payload' with updated (width, height).

    Sniffing PNG/JPEG decode → nearest-neighbor resample → re-encode in the
    same format (``functions/codecs.py``); animated GIF resizes every frame
    and keeps the animation.
    """

    def __init__(self, target_w: int, target_h: int):
        self.target_w, self.target_h = target_w, target_h

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = []
        for buf in t["payload"].to_pylist():
            fmt = codecs.sniff_image_format(buf)
            if fmt == "gif":  # resize every frame, keep the animation
                frames, delays = codecs.decode_gif(buf)
                resized = np.stack([
                    codecs.resize_nearest(f, self.target_w, self.target_h)
                    for f in frames])
                payloads.append(codecs.encode_gif(resized, delays))
                continue
            img = codecs.decode_image(buf)
            payloads.append(codecs.encode_image(
                codecs.resize_nearest(img, self.target_w, self.target_h), fmt))
        n = len(t)
        return pa.table(
            {
                "media_id": t["media_id"],
                "payload": pa.array(payloads, pa.large_binary()),
                "width": pa.array([self.target_w] * n, pa.int32()),
                "height": pa.array([self.target_h] * n, pa.int32()),
            }
        )


# stage wiring: the codec stages hold only their parameters (the codecs
# themselves are stateless functions), so they run as worker-process-cached
# plain TASKS (text._worker_cached) — a dedicated actor pool would add ~1 s
# spin-up per query for no state to amortize. Keep batch_size small: image
# rows are KB–MB wide.

class ImageAugmenter:
    """Deterministic, REPLAYABLE per-(media_id, epoch, seed) augmentation:
    horizontal flip, 90°-multiple rotation, and fractional crop, with all
    parameters derived from a stable content hash of the key — NOT from
    RNG state. That is the scale-correct shape: a retried task, a
    different worker, or a resumed epoch reproduces byte-identical
    augmentations (RNG-stream augmentation silently diverges on any
    retry/reshard), and per-epoch variety comes from hashing the epoch in.

    Sniffing decode → numpy flip/rot90/slice → re-encode in the same
    format (PNG/JPEG via the from-spec codecs)."""

    def __init__(self, epoch: int = 0, seed: int = 0, crop_frac: float = 1.0):
        if not 0.25 <= crop_frac <= 1.0:
            raise ValueError("crop_frac must be in [0.25, 1.0]")
        self.epoch, self.seed, self.crop_frac = epoch, seed, crop_frac

    def _params(self, media_id: str) -> tuple[bool, int, float, float]:
        import hashlib

        h = hashlib.blake2b(
            f"{media_id}:{self.epoch}:{self.seed}".encode(),
            digest_size=8).digest()
        flip = bool(h[0] & 1)
        rot = h[1] & 3  # k quarter-turns
        off_y = h[2] / 255.0  # fractional crop origin in the slack
        off_x = h[3] / 255.0
        return flip, rot, off_y, off_x

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads, widths, heights = [], [], []
        for mid, buf in zip(t["media_id"].to_pylist(),
                            t["payload"].to_pylist()):
            flip, rot, off_y, off_x = self._params(mid)
            fmt = codecs.sniff_image_format(buf)
            img = codecs.decode_image(buf)
            if flip:
                img = img[:, ::-1]
            if rot:
                img = np.rot90(img, k=rot)
            ch, cw = (max(1, int(round(img.shape[0] * self.crop_frac))),
                      max(1, int(round(img.shape[1] * self.crop_frac))))
            y0 = int(round((img.shape[0] - ch) * off_y))
            x0 = int(round((img.shape[1] - cw) * off_x))
            img = np.ascontiguousarray(img[y0:y0 + ch, x0:x0 + cw])
            # GIF augments its first composed frame (decode_image's
            # semantic) and re-encodes as PNG — there is no single-frame
            # GIF re-encode
            payloads.append(codecs.encode_image(
                img, fmt if fmt in ("png", "jpeg") else "png"))
            heights.append(img.shape[0])
            widths.append(img.shape[1])
        return pa.table({
            "media_id": t["media_id"],
            "payload": pa.array(payloads, pa.large_binary()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
        })


def augment_images(ds: rd.Dataset, epoch: int = 0, seed: int = 0,
                   crop_frac: float = 1.0) -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(ImageAugmenter, epoch, seed, crop_frac),
        batch_format="pyarrow", batch_size=64,
    )


def resize_images(ds: rd.Dataset, target_w: int = 32,
                  target_h: int = 32) -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(ImageResizer, target_w, target_h),
        batch_format="pyarrow", batch_size=64,
    )


def decode_images(ds: rd.Dataset) -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(ImageDecoder), batch_format="pyarrow", batch_size=64,
    )
