"""From-spec Matroska (EBML) container tests — writer round-trip across
cluster/lacing/unknown-size variants, all three lacing decoders, vint
edge widths, truncation, and the sniffing decode dispatch."""

import numpy as np
import pytest

from go_tfdata_ray.functions import codecs, mkv
from go_tfdata_ray.functions.multimodal import synth_gif_frames


def _mk_mkv(n_frames=5, seed=7, **kw):
    frames_px = synth_gif_frames(seed, n_frames)
    jpegs = [codecs.encode_jpeg(np.asarray(f)) for f in frames_px]
    return mkv.encode_mkv_mjpeg(jpegs, fps=10, width=16, height=16, **kw), jpegs


def test_mkv_roundtrip_headers_and_frames():
    buf, jpegs = _mk_mkv(5)
    assert mkv.is_mkv(buf)
    info = mkv.mkv_info(buf)
    assert info["codec_id"] == "V_MJPEG" and info["video_track"] == 1
    assert info["width"] == 16 and info["height"] == 16
    assert info["timestamp_scale"] == 1_000_000
    assert info["duration"] == 500.0  # 5 frames x 100 ms in 1 ms ticks
    assert mkv.count_mkv_frames(buf) == 5
    # block payloads come back byte-identical, in cluster order
    assert mkv.split_mkv_frames(buf) == jpegs
    # a sampled frame pixel-decodes to the same image as its source JPEG
    got = codecs.decode_jpeg(mkv.extract_mkv_frames(buf, [3])[0])
    assert (got == codecs.decode_jpeg(jpegs[3])).all()
    assert codecs.sniff_image_format(buf) == "mkv"
    # sniffing dispatch decodes the FIRST frame
    assert (codecs.decode_image(buf) == codecs.decode_jpeg(jpegs[0])).all()


@pytest.mark.parametrize("fpc", [1, 2, 4, 7, 10])
def test_mkv_cluster_chunking_variants(fpc):
    buf, jpegs = _mk_mkv(7, frames_per_cluster=fpc)
    assert buf.count(b"\x1fC\xb6u") == -(-7 // fpc)  # Cluster id count
    assert mkv.split_mkv_frames(buf) == jpegs


@pytest.mark.parametrize("lacing", ["xiph", "ebml"])
@pytest.mark.parametrize("fpc", [1, 3, 8])
def test_mkv_lacing_roundtrip(lacing, fpc):
    # variable-size JPEG frames through both variable-size lacing modes,
    # including the 1-frame laced block (zero size entries) at fpc=1
    buf, jpegs = _mk_mkv(7, lacing=lacing, frames_per_cluster=fpc)
    assert mkv.split_mkv_frames(buf) == jpegs


def test_mkv_fixed_lacing():
    eq = [bytes([i]) * 64 for i in range(6)]
    buf = mkv.encode_mkv_mjpeg(eq, lacing="fixed", frames_per_cluster=3)
    assert mkv.split_mkv_frames(buf) == eq
    with pytest.raises(ValueError):
        mkv.encode_mkv_mjpeg([b"ab", b"abc"], lacing="fixed")


def test_mkv_ebml_lacing_negative_deltas_and_wide_sizes():
    # shrinking sizes force negative signed-vint deltas; 255-multiples
    # exercise the Xiph continuation-byte runs; >16 KB frames force
    # multi-byte size vints in both modes
    shrink = [bytes([9]) * n for n in (20000, 255, 510, 80, 17000, 12)]
    for lacing in ("xiph", "ebml"):
        buf = mkv.encode_mkv_mjpeg(shrink, lacing=lacing,
                                   frames_per_cluster=6)
        assert mkv.split_mkv_frames(buf) == shrink


def test_mkv_unknown_size_segment():
    # the live-streamed shape: Segment size is the 8-byte unknown
    # sentinel, bounded by scanning to EOF
    buf, jpegs = _mk_mkv(6, unknown_size=True, frames_per_cluster=2)
    assert mkv.split_mkv_frames(buf) == jpegs
    assert mkv.mkv_info(buf)["codec_id"] == "V_MJPEG"


def test_mkv_frame_index_never_reads_payloads():
    # the cluster walk reads block HEADERS only: the index must be
    # identical with every frame's payload bytes zeroed
    buf, _ = _mk_mkv(6, frames_per_cluster=2)
    idx = mkv.mkv_frame_index(buf)
    blanked = bytearray(buf)
    for off, size in idx:
        blanked[off:off + size] = b"\0" * size
    assert mkv.mkv_frame_index(bytes(blanked)) == idx


def test_mkv_truncated_raises():
    buf, _ = _mk_mkv(3)
    with pytest.raises(ValueError):
        mkv.split_mkv_frames(buf[: len(buf) // 2])
    assert not mkv.is_mkv(b"RIFF\x04\x00\x00\x00AVI ")
    with pytest.raises(ValueError):
        mkv.mkv_info(b"\x1aE\xdf\xa3\x84\x00\x00\x00\x00")  # no Segment


def test_mkv_no_video_track_raises():
    # audio-only TrackEntry (TrackType 2): the video selector must raise
    buf, _ = _mk_mkv(2)
    at = buf.find(b"\x83\x81\x01")  # TrackType element, value 1
    bad = buf[:at] + b"\x83\x81\x02" + buf[at + 3:]
    with pytest.raises(ValueError):
        mkv.mkv_info(bad)

