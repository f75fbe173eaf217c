"""From-spec MPEG-1 video (ISO/IEC 11172-2) I+P codec + systems demux.

Closes the "general video" seam left by the MJPEG container walks: a real
motion-video bitstream format with temporal prediction, its own entropy
layer (the Annex B VLC tables), quantizer matrices, DC/vector prediction
and slice/macroblock structure — not JPEG in a box.

- ``encode_mpeg1``: 4:2:0 elementary stream (sequence / GOP / picture /
  one-slice-per-MB-row), full Table B.5 run-level VLC with escape
  fallback, DC-predicted size coding, selectable quantizer_scale.
  ``mode="intra"`` emits all-I pictures (the keyframe-sampling shape);
  ``mode="ip"`` emits real temporal compression — GOPs of I + forward-
  predicted P pictures with ±1 full-pel motion search against the
  locally RECONSTRUCTED reference (bit-exact with the decoder, no
  drift), skipped zero-residual macroblocks, coded_block_pattern
  residual coding and an optional intra-macroblock scene-change
  fallback.
- ``decode_mpeg1`` / ``extract_mpeg_frames``: parses any MPEG-1 video
  ES (custom quant matrices, quant macroblock types, extension /
  user-data codes, MB address escapes) and pixel-decodes I and P
  pictures — differential motion vectors with f-scaled residuals and
  wraparound, half-pel interpolation, skipped-MB reference copy,
  intra-in-P, B pictures (bidirectional / interpolated prediction
  from both anchors, display-order reassembly) and the deprecated
  DC-only D pictures — all four coding types the spec defines.
  Extraction decodes only each wanted picture's reference chain
  (back to its nearest I).
- ``count_mpeg_frames``: O(bytes) picture-start-code scan — exact,
  because the VLC design forbids start-code emulation (23 consecutive
  zero bits cannot occur inside valid entropy data).
- ``mux_mpeg_ps`` / ``demux_mpeg_ps``: minimal ISO 11172-1 program
  stream (pack header, system header, MPEG-1-format PES packets with
  stuffing/STD/PTS handling on the demux side).

Reference-parity note: the reference decodes media via Go stdlib codecs
(/root/reference/tfdata/core/example.go:131-146); this module extends
that surface the same way jpeg.py/gif.py do — from the public spec, no
external libs. DCT basis, zigzag and magnitude helpers are shared with
the JPEG codec (identical 8x8 math).

Scale shape: pure per-payload byte kernels; no pipeline stage calls them.
"""

from __future__ import annotations

import struct

import numpy as np

from .jpeg import _DCT, _ZZ, _BitReader, _rgb_to_ycbcr, _ycbcr_to_rgb

# default intra quantizer matrix (ISO 11172-2 §2.4.2.3), raster order
_INTRA_Q = np.array([
    8, 16, 19, 22, 26, 27, 29, 34,
    16, 16, 22, 24, 27, 29, 34, 37,
    19, 22, 26, 27, 29, 34, 34, 38,
    22, 22, 26, 27, 29, 34, 37, 40,
    22, 26, 27, 29, 32, 35, 40, 48,
    26, 27, 29, 32, 35, 40, 48, 58,
    26, 27, 29, 34, 38, 46, 56, 69,
    27, 29, 35, 38, 46, 56, 69, 83,
], dtype=np.int64)

# picture_rate code -> fps (§2.4.3.2); encoder picks the nearest
_PICTURE_RATES = {1: 23.976, 2: 24.0, 3: 25.0, 4: 29.97, 5: 30.0,
                  6: 50.0, 7: 59.94, 8: 60.0}

# dct_dc_size VLCs (§2.4.3.7): size -> code string
_DC_LUM = {0: "100", 1: "00", 2: "01", 3: "101", 4: "110", 5: "1110",
           6: "11110", 7: "111110", 8: "1111110"}
_DC_CHROM = {0: "00", 1: "01", 2: "10", 3: "110", 4: "1110", 5: "11110",
             6: "111110", 7: "1111110", 8: "11111110"}

# default non-intra quantizer matrix: flat 16 (§2.4.2.3)
_NON_INTRA_Q = np.full(64, 16, dtype=np.int64)

# macroblock_type (Tables B.2a/B.2b): code -> (quant, motion_fwd,
# coded_pattern, intra)
_MBT_I = {"1": (0, 0, 0, 1), "01": (1, 0, 0, 1)}
_MBT_P = {
    "1": (0, 1, 1, 0), "01": (0, 0, 1, 0), "001": (0, 1, 0, 0),
    "00011": (0, 0, 0, 1), "00010": (1, 1, 1, 0), "00001": (1, 0, 1, 0),
    "000001": (1, 0, 0, 1),
}

# macroblock_type, B pictures (Table B.2c): code ->
# (quant, motion_fwd, motion_bwd, coded_pattern, intra)
_MBT_B = {
    "10": (0, 1, 1, 0, 0), "11": (0, 1, 1, 1, 0),
    "010": (0, 0, 1, 0, 0), "011": (0, 0, 1, 1, 0),
    "0010": (0, 1, 0, 0, 0), "0011": (0, 1, 0, 1, 0),
    "00011": (0, 0, 0, 0, 1),
    "00010": (1, 1, 1, 1, 0),
    "000011": (1, 0, 1, 1, 0), "000010": (1, 1, 0, 1, 0),
    "000001": (1, 0, 0, 0, 1),
}

# coded_block_pattern VLC (Table B.3); cbp 0 is not coded (the not-coded
# macroblock types carry it implicitly)
_CBP = {
    60: "111",
    4: "1101", 8: "1100", 16: "1011", 32: "1010",
    12: "10011", 48: "10010", 20: "10001", 40: "10000",
    28: "01111", 44: "01110", 52: "01101", 56: "01100",
    1: "01011", 61: "01010", 2: "01001", 62: "01000",
    24: "001111", 36: "001110", 3: "001101", 63: "001100",
    5: "0010111", 9: "0010110", 17: "0010101", 33: "0010100",
    6: "0010011", 10: "0010010", 18: "0010001", 34: "0010000",
    7: "00011111", 11: "00011110", 19: "00011101", 35: "00011100",
    13: "00011011", 49: "00011010", 21: "00011001", 41: "00011000",
    14: "00010111", 50: "00010110", 22: "00010101", 42: "00010100",
    15: "00010011", 51: "00010010", 23: "00010001", 43: "00010000",
    25: "00001111", 37: "00001110", 26: "00001101", 38: "00001100",
    29: "00001011", 45: "00001010", 53: "00001001", 57: "00001000",
    30: "00000111", 46: "00000110", 54: "00000101", 58: "00000100",
    31: "000000111", 47: "000000110", 55: "000000101", 59: "000000100",
    27: "000000011", 39: "000000010",
}

# macroblock_address_increment (Table B.1); escape adds 33, stuffing skips
_MBA = {
    1: "1", 2: "011", 3: "010", 4: "0011", 5: "0010", 6: "00011",
    7: "00010", 8: "0000111", 9: "0000110", 10: "00001011", 11: "00001010",
    12: "00001001", 13: "00001000", 14: "00000111", 15: "00000110",
    16: "0000010111", 17: "0000010110", 18: "0000010101", 19: "0000010100",
    20: "0000010011", 21: "0000010010", 22: "00000100011", 23: "00000100010",
    24: "00000100001", 25: "00000100000", 26: "00000011111",
    27: "00000011110", 28: "00000011101", 29: "00000011100",
    30: "00000011011", 31: "00000011010", 32: "00000011001",
    33: "00000011000",
}
_MBA_ESCAPE = "00000001000"
_MBA_STUFFING = "00000001111"

# dct_coeff run/level VLC (Table B.5, == H.262 Table B.14), sign bit
# appended on the wire. The 0,1 entry here is the "next" form '11';
# intra blocks only ever use the next form (DC is size-coded).
_AC_TABLE: list[tuple[int, int, str]] = [
    (0, 1, "11"), (1, 1, "011"),
    (0, 2, "0100"), (2, 1, "0101"),
    (0, 3, "00101"), (3, 1, "00111"), (4, 1, "00110"),
    (1, 2, "000110"), (5, 1, "000111"), (6, 1, "000101"), (7, 1, "000100"),
    (0, 4, "0000110"), (2, 2, "0000100"), (8, 1, "0000111"),
    (9, 1, "0000101"),
    (0, 5, "00100110"), (0, 6, "00100001"), (1, 3, "00100101"),
    (3, 2, "00100100"), (10, 1, "00100111"), (11, 1, "00100011"),
    (12, 1, "00100010"), (13, 1, "00100000"),
    (0, 7, "0000001010"), (1, 4, "0000001100"), (2, 3, "0000001011"),
    (4, 2, "0000001111"), (5, 2, "0000001001"), (14, 1, "0000001101"),
    (15, 1, "0000001000"), (16, 1, "0000001110"),
    (0, 8, "000000011101"), (0, 9, "000000011000"), (0, 10, "000000010011"),
    (0, 11, "000000010000"), (1, 5, "000000011011"), (2, 4, "000000010100"),
    (3, 3, "000000011100"), (4, 3, "000000010010"), (6, 2, "000000011110"),
    (7, 2, "000000010101"), (8, 2, "000000010001"), (17, 1, "000000011111"),
    (18, 1, "000000011010"), (19, 1, "000000011001"),
    (20, 1, "000000010111"), (21, 1, "000000010110"),
    (0, 12, "0000000011010"), (0, 13, "0000000011001"),
    (0, 14, "0000000011000"), (0, 15, "0000000010111"),
    (1, 6, "0000000010110"), (1, 7, "0000000010101"),
    (2, 5, "0000000010100"), (3, 4, "0000000010011"),
    (5, 3, "0000000010010"), (9, 2, "0000000010001"),
    (10, 2, "0000000010000"), (22, 1, "0000000011111"),
    (23, 1, "0000000011110"), (24, 1, "0000000011101"),
    (25, 1, "0000000011100"), (26, 1, "0000000011011"),
    (0, 16, "00000000011111"), (0, 17, "00000000011110"),
    (0, 18, "00000000011101"), (0, 19, "00000000011100"),
    (0, 20, "00000000011011"), (0, 21, "00000000011010"),
    (0, 22, "00000000011001"), (0, 23, "00000000011000"),
    (0, 24, "00000000010111"), (0, 25, "00000000010110"),
    (0, 26, "00000000010101"), (0, 27, "00000000010100"),
    (0, 28, "00000000010011"), (0, 29, "00000000010010"),
    (0, 30, "00000000010001"), (0, 31, "00000000010000"),
    (0, 32, "000000000011000"), (0, 33, "000000000010111"),
    (0, 34, "000000000010110"), (0, 35, "000000000010101"),
    (0, 36, "000000000010100"), (0, 37, "000000000010011"),
    (0, 38, "000000000010010"), (0, 39, "000000000010001"),
    (0, 40, "000000000010000"), (1, 8, "000000000011111"),
    (1, 9, "000000000011110"), (1, 10, "000000000011101"),
    (1, 11, "000000000011100"), (1, 12, "000000000011011"),
    (1, 13, "000000000011010"), (1, 14, "000000000011001"),
    (1, 15, "0000000000011111"), (1, 16, "0000000000011110"),
    (1, 17, "0000000000011101"), (1, 18, "0000000000011100"),
    (6, 3, "0000000000011011"), (11, 2, "0000000000011010"),
    (12, 2, "0000000000011001"), (13, 2, "0000000000011000"),
    (14, 2, "0000000000010111"), (15, 2, "0000000000010110"),
    (16, 2, "0000000000010101"), (27, 1, "0000000000010100"),
    (28, 1, "0000000000010011"), (29, 1, "0000000000010010"),
    (30, 1, "0000000000010001"), (31, 1, "0000000000010000"),
]
_AC_EOB = "10"
_AC_ESCAPE = "000001"

_AC_ENC = {(r, lv): (int(c, 2), len(c)) for r, lv, c in _AC_TABLE}


def _prefix_decoder(entries: dict[str, object]):
    """code-string table -> (lut: dict[(len, code)] -> value, max_len)."""
    lut = {(len(c), int(c, 2)): v for c, v in entries.items()}
    return lut, max(len(c) for c in entries)


_DC_LUM_DEC = _prefix_decoder({c: s for s, c in _DC_LUM.items()})
_DC_CHROM_DEC = _prefix_decoder({c: s for s, c in _DC_CHROM.items()})
_MBA_DEC = _prefix_decoder({**{c: n for n, c in _MBA.items()},
                            _MBA_ESCAPE: "escape",
                            _MBA_STUFFING: "stuffing"})
_AC_DEC = _prefix_decoder({c: (r, lv) for r, lv, c in _AC_TABLE})
_MBT_I_DEC = _prefix_decoder(_MBT_I)
_MBT_P_DEC = _prefix_decoder(_MBT_P)
_MBT_B_DEC = _prefix_decoder(_MBT_B)
_CBP_DEC = _prefix_decoder({c: v for v, c in _CBP.items()})

# motion_code VLC (Table B.4) — the universal-VLC pairing with Table B.1:
# code n>0 is MBA[2n+1], n<0 is MBA[2n], 0 is '1'. The encoder emits only
# |n|<=2 (full-pel ±1 search, f_code 1); the decoder accepts the full
# ±16 domain with f-scaled residuals.
_MV = {0: "1"}
for _n in range(1, 17):
    _MV[_n] = _MBA[2 * _n + 1]
    _MV[-_n] = _MBA[2 * _n]
_MV_DEC = _prefix_decoder({c: n for n, c in _MV.items()})


def _read_vlc(br: _BitReader, dec) -> object:
    lut, max_len = dec
    code = 0
    for n in range(1, max_len + 1):
        code = (code << 1) | br.read(1)
        v = lut.get((n, code))
        if v is not None:
            return v
    raise ValueError("invalid VLC code in MPEG-1 stream")


class _BW:
    """Plain MSB-first bit writer (no byte stuffing — MPEG start codes
    rely on the VLC tables' guarantee that 23 zero bits never occur)."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, val: int, n: int) -> None:
        if n == 0:
            return
        self.acc = (self.acc << n) | (val & ((1 << n) - 1))
        self.n += n
        while self.n >= 8:
            self.buf.append((self.acc >> (self.n - 8)) & 0xFF)
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def write_code(self, code: str) -> None:
        self.write(int(code, 2), len(code))

    def align(self) -> None:
        if self.n:
            self.write(0, 8 - self.n)

    def start_code(self, code: int) -> None:
        self.align()
        self.buf += struct.pack(">I", 0x00000100 | code)


# -- encoder ----------------------------------------------------------------

def _enc_dc(bw: _BW, diff: int, table: dict[int, str]) -> None:
    size = int(abs(diff)).bit_length()
    bw.write_code(table[size])
    if size:
        raw = diff if diff > 0 else diff + (1 << size) - 1
        bw.write(raw, size)


def _enc_ac(bw: _BW, run: int, level: int, force_escape: bool = False) -> None:
    key = (run, abs(level))
    if not force_escape and key in _AC_ENC:
        code, n = _AC_ENC[key]
        bw.write(code, n)
        bw.write(1 if level < 0 else 0, 1)
        return
    # escape: 6-bit run + 8-bit level, 16-bit double-byte form past ±127
    bw.write_code(_AC_ESCAPE)
    bw.write(run, 6)
    if -127 <= level <= 127:
        bw.write(level & 0xFF, 8)
    elif level > 0:  # 128..255
        bw.write(0x00, 8)
        bw.write(level, 8)
    else:  # -255..-128
        bw.write(0x80, 8)
        bw.write(level & 0xFF, 8)


def _quant_block(coef_zz: np.ndarray, qscale: int) -> np.ndarray:
    """Zigzagged float DCT coefficients -> quantized int levels (AC only;
    [0] is DC, quantized at the fixed step of 8)."""
    q = np.empty(64, dtype=np.int64)
    q[0] = int(np.round(coef_zz[0] / 8.0))
    qz = _INTRA_Q[_ZZ][1:]
    q[1:] = np.clip(np.round(8.0 * coef_zz[1:] / (qscale * qz)),
                    -255, 255).astype(np.int64)
    return q


def _plane_blocks(plane: np.ndarray) -> np.ndarray:
    """(H,W) float plane (H,W multiples of 8) -> (H//8, W//8, 64)
    zigzagged DCT coefficients. MPEG-1 DCTs unshifted 0..255 samples
    (the 128 offset lives in the DC predictor reset of 1024)."""
    h, w = plane.shape
    blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    coef = np.einsum("ku,yxuv,lv->yxkl", _DCT, blocks, _DCT, optimize=True)
    return coef.reshape(h // 8, w // 8, 64)[..., _ZZ]


def _frame_planes(frame: np.ndarray, mb_w: int, mb_h: int):
    """RGB frame -> [Y, Cb, Cr] float planes at MB-padded 4:2:0 dims."""
    h, w = frame.shape[:2]
    ycc = _rgb_to_ycbcr(frame)
    planes = []
    for ci in range(3):
        p = ycc[..., ci]
        ph, pw = mb_h * 16 - h, mb_w * 16 - w
        if ph or pw:
            p = np.pad(p, ((0, ph), (0, pw)), mode="edge")
        if ci:  # 4:2:0 chroma: 2x2 box mean
            p = p.reshape(mb_h * 8, 2, mb_w * 8, 2).mean(axis=(1, 3))
        planes.append(p)
    return planes


def _enc_intra_block(bw: _BW, zz: np.ndarray, qscale: int, pred: int,
                     table: dict[int, str], force_escape: bool) -> tuple:
    """Quantize + write one intra block; returns (dc_q, quantized levels)
    so the caller can locally reconstruct the reference picture."""
    q = _quant_block(zz, qscale)
    _enc_dc(bw, int(q[0]) - pred, table)
    nz = np.nonzero(q[1:])[0]
    last = -1
    for pos in nz:
        _enc_ac(bw, int(pos - last - 1), int(q[1 + pos]), force_escape)
        last = pos
    bw.write_code(_AC_EOB)
    return int(q[0]), q


def _encode_I_picture(bw: _BW, planes, mb_w: int, mb_h: int, qscale: int,
                      force_escape: bool):
    """Write the slices of one intra picture; returns the locally
    reconstructed (y, cb, cr) reference planes (exactly what a decoder
    produces — P prediction must reference the DECODED picture, not the
    source, or the chain drifts)."""
    zz_planes = [_plane_blocks(p) for p in planes]
    q_all = np.zeros((mb_w * mb_h * 6, 64), dtype=np.int64)
    for row in range(mb_h):
        bw.start_code(row + 1)  # slice_vertical_position
        bw.write(qscale, 5)
        bw.write(0, 1)  # extra_bit_slice
        pred = [128, 128, 128]  # quantized-DC predictors (1024/8)
        for col in range(mb_w):
            bw.write_code(_MBA[1])  # address increment 1
            bw.write_code("1")      # macroblock_type: intra
            addr = row * mb_w + col
            for b in range(6):
                if b < 4:  # Y blocks raster order within the MB
                    zz = zz_planes[0][row * 2 + b // 2, col * 2 + b % 2]
                    comp, table = 0, _DC_LUM
                else:
                    zz = zz_planes[b - 3][row, col]
                    comp, table = b - 3, _DC_CHROM
                pred[comp], q = _enc_intra_block(bw, zz, qscale, pred[comp],
                                                 table, force_escape)
                q_all[addr * 6 + b] = q
    px = _dequant_idct(q_all, np.full(mb_w * mb_h * 6, qscale,
                                      dtype=np.int64))
    y = np.zeros((mb_h * 16, mb_w * 16), dtype=np.uint8)
    cb = np.zeros((mb_h * 8, mb_w * 8), dtype=np.uint8)
    cr = np.zeros_like(cb)
    for m in range(mb_w * mb_h):
        r, c = divmod(m, mb_w)
        blk = px[m * 6:(m + 1) * 6]
        for b, (oy, ox) in enumerate(_MB_OFF):
            y[r * 16 + oy:r * 16 + oy + 8,
              c * 16 + ox:c * 16 + ox + 8] = blk[b]
        cb[r * 8:r * 8 + 8, c * 8:c * 8 + 8] = blk[4]
        cr[r * 8:r * 8 + 8, c * 8:c * 8 + 8] = blk[5]
    return y, cb, cr


def _encode_D_picture(bw: _BW, planes, mb_w: int, mb_h: int) -> None:
    """Write the slices of one DC-only picture (picture_coding_type 4,
    the deprecated fast-scan type, §2.4.3): macroblock_type is the single
    code '1' (Table B.2d), each block carries ONLY dct_dc_size +
    differential (no AC, no EOB), and every macroblock closes with the
    end_of_macroblock '1' bit. D pictures are never references."""
    zz_planes = [_plane_blocks(p) for p in planes]
    for row in range(mb_h):
        bw.start_code(row + 1)  # slice_vertical_position
        bw.write(8, 5)  # quantizer_scale: syntax-required; DC step is fixed
        bw.write(0, 1)  # extra_bit_slice
        pred = [128, 128, 128]
        for col in range(mb_w):
            bw.write_code(_MBA[1])  # address increment 1
            bw.write_code("1")      # macroblock_type (Table B.2d): intra
            for b in range(6):
                if b < 4:
                    zz = zz_planes[0][row * 2 + b // 2, col * 2 + b % 2]
                    comp, table = 0, _DC_LUM
                else:
                    zz = zz_planes[b - 3][row, col]
                    comp, table = b - 3, _DC_CHROM
                dc = int(np.round(zz[0] / 8.0))  # fixed intra DC step of 8
                _enc_dc(bw, dc - pred[comp], table)
                pred[comp] = dc
            bw.write_code("1")  # end_of_macroblock


def _trunc_half(h: int) -> int:
    """Chrominance vector = half the luminance vector, integer division
    toward zero (§2.4.4.2) — mirrored by the decoders."""
    return int(h / 2) if h >= 0 else -(-h // 2)


def _mb_residual(cur_planes, prev, px: int, py: int, mv: tuple[int, int],
                 half_pel: bool = False):
    """(prediction blocks, residual float blocks) for one MB at a
    forward vector in CODED units (full pels, or half pels when
    ``half_pel``)."""
    hx, hy = (mv[0], mv[1]) if half_pel else (mv[0] * 2, mv[1] * 2)
    pred_y = _mc_pred(prev[0], px, py, 16, hx, hy)
    pred_cb = _mc_pred(prev[1], px // 2, py // 2, 8,
                       _trunc_half(hx), _trunc_half(hy))
    pred_cr = _mc_pred(prev[2], px // 2, py // 2, 8,
                       _trunc_half(hx), _trunc_half(hy))
    res = np.zeros((6, 8, 8), dtype=np.float64)
    for b, (oy, ox) in enumerate(_MB_OFF):
        res[b] = (cur_planes[0][py + oy:py + oy + 8, px + ox:px + ox + 8]
                  - pred_y[oy:oy + 8, ox:ox + 8])
    res[4] = cur_planes[1][py // 2:py // 2 + 8, px // 2:px // 2 + 8] - pred_cb
    res[5] = cur_planes[2][py // 2:py // 2 + 8, px // 2:px // 2 + 8] - pred_cr
    return (pred_y, pred_cb, pred_cr), res


def _encode_P_picture(bw: _BW, cur_planes, prev, mb_w: int, mb_h: int,
                      qscale: int, force_escape: bool,
                      p_intra_sad: float | None = None,
                      half_pel: bool = False):
    """Write the slices of one forward-predicted picture: ±1 full-pel
    (or ±2 half-pel when ``half_pel``) motion search on the
    reconstructed reference, zero-residual MBs skipped,
    coded_block_pattern over the nonzero residual blocks, differential
    zero-residual motion via the 'MC, not coded' type.
    ``p_intra_sad``: best-SAD threshold above which a macroblock is
    intra-coded instead of predicted (scene-change shape). Returns the
    locally reconstructed planes."""
    y = prev[0].copy()
    cb = prev[1].copy()
    cr = prev[2].copy()
    cur_y = cur_planes[0]
    for row in range(mb_h):
        bw.start_code(row + 1)
        bw.write(qscale, 5)
        bw.write(0, 1)
        mv_pred = [0, 0]  # coded units: full or half pel per the header
        dc_pred = [128, 128, 128]
        pending = 1  # address increment owed to the next coded MB
        for col in range(mb_w):
            px, py = col * 16, row * 16
            cur_blk = cur_y[py:py + 16, px:px + 16]
            best, best_sad = _search_mv(cur_blk, prev[0], px, py,
                                        mb_w, mb_h, half_pel)
            if p_intra_sad is not None and best_sad > p_intra_sad:
                # scene-change fallback: intra-code this MB (Table B.2b
                # '00011'), resetting the vector predictor like a decoder
                _write_mba(bw, pending)
                pending = 1
                bw.write_code("00011")
                zzi = np.zeros((6, 64), dtype=np.int64)
                for b in range(6):
                    if b < 4:
                        oy, ox = _MB_OFF[b]
                        blk = cur_planes[0][py + oy:py + oy + 8,
                                            px + ox:px + ox + 8]
                        comp, table = 0, _DC_LUM
                    else:
                        blk = cur_planes[b - 3][py // 2:py // 2 + 8,
                                                px // 2:px // 2 + 8]
                        comp, table = b - 3, _DC_CHROM
                    coef = np.einsum("ku,uv,lv->kl", _DCT, blk, _DCT,
                                     optimize=True).ravel()[_ZZ]
                    dc_pred[comp], zzi[b] = _enc_intra_block(
                        bw, coef, qscale, dc_pred[comp], table, force_escape)
                mv_pred = [0, 0]
                blkpx = _dequant_idct(zzi, np.full(6, qscale, dtype=np.int64))
                for b, (oy, ox) in enumerate(_MB_OFF):
                    y[py + oy:py + oy + 8, px + ox:px + ox + 8] = blkpx[b]
                cb[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = blkpx[4]
                cr[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = blkpx[5]
                continue
            preds, res = _mb_residual(cur_planes, prev, px, py, best,
                                      half_pel)
            zz6 = np.zeros((6, 64), dtype=np.int64)
            cbp = 0
            for b in range(6):
                coef = np.einsum("ku,uv,lv->kl", _DCT, res[b], _DCT,
                                 optimize=True).ravel()[_ZZ]
                q = _quant_block_nonintra(coef, qscale)
                if q.any():
                    zz6[b] = q
                    cbp |= 1 << (5 - b)
            first_or_last = col == 0 or col == mb_w - 1
            if cbp == 0 and best == (0, 0) and not first_or_last:
                pending += 1  # skipped MB: decoder copies the reference
                mv_pred = [0, 0]
                dc_pred = [128, 128, 128]
                continue
            dc_pred = [128, 128, 128]  # non-intra MB resets DC prediction
            _write_mba(bw, pending)
            pending = 1
            if best == (0, 0) and mv_pred == [0, 0] and cbp:
                bw.write_code("01")  # no-MC, coded (vector implicitly 0)
            else:
                bw.write_code("1" if cbp else "001")  # MC coded / not coded
                for k in (0, 1):
                    _enc_mv_component(bw, best[k] - mv_pred[k])
                mv_pred = [best[0], best[1]]
            if cbp:
                bw.write_code(_CBP[cbp])
                for b in range(6):
                    if cbp & (1 << (5 - b)):
                        _enc_block_nonintra(bw, zz6[b], force_escape)
            # local reconstruction mirrors the decoder exactly
            resr = np.round(_idct(_dequant_nonintra_zz(
                zz6, np.full(6, qscale, dtype=np.int64)))).astype(np.int64)
            pred_y, pred_cb, pred_cr = preds
            for b, (oy, ox) in enumerate(_MB_OFF):
                y[py + oy:py + oy + 8, px + ox:px + ox + 8] = np.clip(
                    pred_y[oy:oy + 8, ox:ox + 8] + resr[b], 0, 255
                ).astype(np.uint8)
            cb[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = np.clip(
                pred_cb + resr[4], 0, 255).astype(np.uint8)
            cr[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = np.clip(
                pred_cr + resr[5], 0, 255).astype(np.uint8)
    return y, cb, cr


def _search_mv(cur_blk: np.ndarray, ref_y: np.ndarray, px: int, py: int,
               mb_w: int, mb_h: int,
               half_pel: bool = False) -> tuple[tuple[int, int], float]:
    """SAD search for one 16×16 luma block: ±1 full pel, or the ±2
    half-pel lattice (interpolated candidates via ``_mc_pred``) when
    ``half_pel``. Returns (vector in CODED units, SAD); the zero vector
    is evaluated first so exact ties keep it (skip-friendliest)."""
    rng = (0, -1, 1, -2, 2) if half_pel else (0, -1, 1)
    W, H = mb_w * 16, mb_h * 16
    best, best_sad = (0, 0), None
    for dx in rng:
        for dy in rng:
            hx, hy = (dx, dy) if half_pel else (dx * 2, dy * 2)
            x0, y0 = px + (hx >> 1), py + (hy >> 1)
            if x0 < 0 or y0 < 0 or x0 + 16 + (hx & 1) > W \
                    or y0 + 16 + (hy & 1) > H:
                continue
            pred = _mc_pred(ref_y, px, py, 16, hx, hy)
            sad = float(np.abs(cur_blk - pred).sum())
            if best_sad is None or sad < best_sad - 1e-9:
                best, best_sad = (dx, dy), sad
    return best, best_sad


def _quant_residual_mb(res: np.ndarray, qscale: int) -> tuple[np.ndarray, int]:
    """6 residual blocks -> (quantized zigzag levels, coded_block_pattern)."""
    zz6 = np.zeros((6, 64), dtype=np.int64)
    cbp = 0
    for b in range(6):
        coef = np.einsum("ku,uv,lv->kl", _DCT, res[b], _DCT,
                         optimize=True).ravel()[_ZZ]
        q = _quant_block_nonintra(coef, qscale)
        if q.any():
            zz6[b] = q
            cbp |= 1 << (5 - b)
    return zz6, cbp


# B macroblock-type codes by (motion_fwd, motion_bwd): [not-coded, coded]
_MBT_B_ENC = {(1, 1): ("10", "11"), (0, 1): ("010", "011"),
              (1, 0): ("0010", "0011")}


def _encode_B_picture(bw: _BW, cur_planes, fwd, bwd, mb_w: int, mb_h: int,
                      qscale: int, force_escape: bool,
                      half_pel: bool = False) -> None:
    """Write the slices of one bidirectional picture: per MB the best of
    forward / backward / interpolated ±1 full-pel (±2 half-pel when
    ``half_pel``) prediction, residuals per coded_block_pattern, skipped
    MBs when the previous MB's mode and vectors repeat with zero
    residual. B pictures are never references, so no local
    reconstruction is kept."""
    cur_y = cur_planes[0]
    for row in range(mb_h):
        bw.start_code(row + 1)
        bw.write(qscale, 5)
        bw.write(0, 1)
        fmv_pred = [0, 0]
        bmv_pred = [0, 0]
        last_mode = None
        pending = 1
        for col in range(mb_w):
            px, py = col * 16, row * 16
            cur_blk = cur_y[py:py + 16, px:px + 16]
            fmv, sad_f = _search_mv(cur_blk, fwd[0], px, py, mb_w, mb_h,
                                    half_pel)
            bmv, sad_b = _search_mv(cur_blk, bwd[0], px, py, mb_w, mb_h,
                                    half_pel)
            scale = 1 if half_pel else 2
            pf = _mc_pred(fwd[0], px, py, 16, fmv[0] * scale, fmv[1] * scale)
            pb = _mc_pred(bwd[0], px, py, 16, bmv[0] * scale, bmv[1] * scale)
            sad_i = float(np.abs(cur_blk - (pf + pb) // 2).sum())
            mode = min(((sad_f, (1, 0)), (sad_b, (0, 1)), (sad_i, (1, 1))),
                       key=lambda t: t[0])[1]
            mfwd, mbwd = mode

            def mc6(on_f, on_b):
                parts = []
                for on, mv, ref in ((on_f, fmv, fwd), (on_b, bmv, bwd)):
                    if not on:
                        continue
                    hx, hy = mv[0] * scale, mv[1] * scale
                    yy = _mc_pred(ref[0], px, py, 16, hx, hy)
                    cc = _mc_pred(ref[1], px // 2, py // 2, 8,
                                  _trunc_half(hx), _trunc_half(hy))
                    rr = _mc_pred(ref[2], px // 2, py // 2, 8,
                                  _trunc_half(hx), _trunc_half(hy))
                    parts.append((yy, cc, rr))
                if len(parts) == 2:
                    return tuple((a + b) // 2 for a, b in zip(*parts))
                return parts[0]

            pred_y, pred_cb, pred_cr = mc6(mfwd, mbwd)
            res = np.zeros((6, 8, 8), dtype=np.float64)
            for b, (oy, ox) in enumerate(_MB_OFF):
                res[b] = (cur_planes[0][py + oy:py + oy + 8,
                                        px + ox:px + ox + 8]
                          - pred_y[oy:oy + 8, ox:ox + 8])
            res[4] = cur_planes[1][py // 2:py // 2 + 8,
                                   px // 2:px // 2 + 8] - pred_cb
            res[5] = cur_planes[2][py // 2:py // 2 + 8,
                                   px // 2:px // 2 + 8] - pred_cr
            zz6, cbp = _quant_residual_mb(res, qscale)
            this_mode = (mfwd, mbwd, fmv if mfwd else None,
                         bmv if mbwd else None)
            first_or_last = col == 0 or col == mb_w - 1
            if (cbp == 0 and last_mode == this_mode and not first_or_last):
                pending += 1  # skipped: decoder repeats the previous mode
                continue
            _write_mba(bw, pending)
            pending = 1
            bw.write_code(_MBT_B_ENC[mode][1 if cbp else 0])
            if mfwd:
                _enc_mv_component(bw, fmv[0] - fmv_pred[0])
                _enc_mv_component(bw, fmv[1] - fmv_pred[1])
                fmv_pred = [fmv[0], fmv[1]]
            if mbwd:
                _enc_mv_component(bw, bmv[0] - bmv_pred[0])
                _enc_mv_component(bw, bmv[1] - bmv_pred[1])
                bmv_pred = [bmv[0], bmv[1]]
            if cbp:
                bw.write_code(_CBP[cbp])
                for b in range(6):
                    if cbp & (1 << (5 - b)):
                        _enc_block_nonintra(bw, zz6[b], force_escape)
            last_mode = this_mode


def _write_mba(bw: _BW, increment: int) -> None:
    while increment > 33:
        bw.write_code(_MBA_ESCAPE)
        increment -= 33
    bw.write_code(_MBA[increment])


def _enc_mv_component(bw: _BW, delta: int) -> None:
    """f_code = 1: the motion code IS the delta (wrap past ±16 into the
    [-16, 15] coded range)."""
    if delta > 15:
        delta -= 32
    elif delta < -16:
        delta += 32
    if delta == -16:  # -16 has no VLC; wraps to +16
        delta = 16
    bw.write_code(_MV[delta])


def _enc_block_nonintra(bw: _BW, q: np.ndarray, force_escape: bool) -> None:
    nz = np.nonzero(q)[0]
    first = True
    last = -1
    for pos in nz:
        run = int(pos - last - 1)
        level = int(q[pos])
        if first and run == 0 and abs(level) == 1 and not force_escape:
            bw.write_code("1")  # dct_coeff_first 0,±1
            bw.write(1 if level < 0 else 0, 1)
        else:
            _enc_ac(bw, run, level, force_escape)
        first = False
        last = pos
    bw.write_code(_AC_EOB)


def encode_mpeg1(frames, fps: float = 25.0, qscale: int = 8,
                 gop_size: int = 0, force_escape: bool = False,
                 mode: str = "intra",
                 p_intra_sad: float | None = None,
                 half_pel: bool = False) -> bytes:
    """uint8 (N,H,W,3) RGB (or list of (H,W,3)) -> MPEG-1 video
    elementary stream, 4:2:0, one slice per macroblock row.

    ``mode="intra"``: every picture is I (the keyframe-sampling shape).
    ``mode="ip"``: real temporal compression — each GOP opens with an I
    picture followed by P pictures (±1 full-pel motion search against
    the locally reconstructed reference, skipped zero-residual MBs,
    coded_block_pattern residuals); gop_size defaults to 12.
    ``mode="ibp"``: full I/P/B structure — anchors (I then P) every
    other display frame with one bidirectional picture between, coded
    order anchors-first with per-GOP temporal_reference reordering
    (what a decoder must undo to emit display order).
    ``mode="d"``: the deprecated DC-only fast-scan type — every picture
    is a D picture (each 8×8 block reduced to its DC coefficient; the
    spec forbids mixing D with other types in one sequence).
    ``half_pel`` switches P/B motion to the half-pel lattice
    (full_pel_*_vector = 0 in the picture headers, ±2 half-pel search,
    interpolated ``_mc_pred`` predictions — the fractional-MC path real
    streams use).
    ``force_escape`` routes every AC coefficient through the escape
    coding (a legal stream; used to cross-check the VLC tables).
    ``gop_size`` > 0 starts a new GOP header every that many pictures."""
    if mode not in ("intra", "ip", "ibp", "d"):
        raise ValueError("mode must be 'intra', 'ip', 'ibp' or 'd'")
    frames = np.asarray(frames)
    if frames.ndim == 3:
        frames = frames[np.newaxis]
    n, h, w = frames.shape[:3]
    if h > 2800:
        raise ValueError("slice_vertical_position caps height at 2800")
    mb_w, mb_h = -(-w // 16), -(-h // 16)
    qscale = min(max(int(qscale), 1), 31)
    rate_code = min(_PICTURE_RATES, key=lambda k: abs(_PICTURE_RATES[k] - fps))
    if mode in ("ip", "ibp") and gop_size <= 0:
        gop_size = 12

    bw = _BW()
    # sequence header
    bw.buf += struct.pack(">I", 0x000001B3)
    bw.write(w, 12)
    bw.write(h, 12)
    bw.write(1, 4)   # pel_aspect_ratio: square
    bw.write(rate_code, 4)
    bw.write(0x3FFFF, 18)  # bit_rate: variable
    bw.write(1, 1)   # marker
    bw.write(0, 10)  # vbv_buffer_size
    bw.write(0, 1)   # constrained_parameters_flag
    bw.write(0, 1)   # load_intra_quantizer_matrix (default)
    bw.write(0, 1)   # load_non_intra_quantizer_matrix

    def picture_header(tref: int, ptype: int) -> None:
        bw.start_code(0x00)
        bw.write(tref, 10)
        bw.write(ptype, 3)
        bw.write(0xFFFF, 16)  # vbv_delay: variable
        if ptype in (2, 3):
            bw.write(0 if half_pel else 1, 1)  # full_pel_forward_vector
            bw.write(1, 3)  # forward_f_code
        if ptype == 3:
            bw.write(0 if half_pel else 1, 1)  # full_pel_backward_vector
            bw.write(1, 3)  # backward_f_code
        bw.write(0, 1)  # extra_bit_picture

    def gop_header() -> None:
        bw.start_code(0xB8)
        bw.write(0, 25)  # time_code
        bw.write(1, 1)   # closed_gop
        bw.write(0, 1)   # broken_link

    if mode == "ibp":
        # coded order anchors-first: I(0), P(2), B(1), P(4), B(3), ...
        for s in range(0, n, gop_size):
            length = min(gop_size, n - s)
            anchors = sorted(set(range(0, length, 2)) | {length - 1})
            gop_header()
            picture_header(0, 1)
            prev = _encode_I_picture(bw, _frame_planes(frames[s], mb_w, mb_h),
                                     mb_w, mb_h, qscale, force_escape)
            for k in range(1, len(anchors)):
                a_prev, a = anchors[k - 1], anchors[k]
                picture_header(a, 2)
                cur = _encode_P_picture(
                    bw, _frame_planes(frames[s + a], mb_w, mb_h), prev,
                    mb_w, mb_h, qscale, force_escape, p_intra_sad,
                    half_pel)
                for d in range(a_prev + 1, a):
                    picture_header(d, 3)
                    _encode_B_picture(
                        bw, _frame_planes(frames[s + d], mb_w, mb_h),
                        prev, cur, mb_w, mb_h, qscale, force_escape,
                        half_pel)
                prev = cur
        bw.align()
        bw.buf += struct.pack(">I", 0x000001B7)  # sequence_end
        return bytes(bw.buf)

    if mode == "d":
        # D-only stream (the spec forbids mixing D with other types in a
        # sequence): one DC-only picture per frame, no references
        for idx in range(n):
            if idx == 0 or (gop_size and idx % gop_size == 0):
                gop_header()
            picture_header(idx % (gop_size or 1024), 4)
            _encode_D_picture(bw, _frame_planes(frames[idx], mb_w, mb_h),
                              mb_w, mb_h)
        bw.align()
        bw.buf += struct.pack(">I", 0x000001B7)  # sequence_end
        return bytes(bw.buf)

    recon = None
    for idx in range(n):
        in_gop = idx % gop_size if gop_size else idx
        is_p = mode == "ip" and in_gop != 0 and recon is not None
        if idx == 0 or (gop_size and in_gop == 0):
            gop_header()
        picture_header(idx % (gop_size or 1024), 2 if is_p else 1)
        planes = _frame_planes(frames[idx], mb_w, mb_h)
        if is_p:
            recon = _encode_P_picture(bw, planes, recon, mb_w, mb_h,
                                      qscale, force_escape, p_intra_sad,
                                      half_pel)
        else:
            recon = _encode_I_picture(bw, planes, mb_w, mb_h, qscale,
                                      force_escape)
    bw.align()
    bw.buf += struct.pack(">I", 0x000001B7)  # sequence_end
    return bytes(bw.buf)


# -- decoder ----------------------------------------------------------------

def _start_codes(buf: bytes) -> list[tuple[int, int]]:
    """All byte-aligned (offset, code) start codes — exact: valid VLC data
    cannot emulate the 23-zero-bit prefix."""
    a = np.frombuffer(buf, dtype=np.uint8)
    if len(a) < 4:
        return []
    hits = np.flatnonzero((a[:-3] == 0) & (a[1:-2] == 0) & (a[2:-1] == 1))
    return [(int(o), int(a[o + 3])) for o in hits]


def _dec_block(br: _BitReader, table_dec, pred: int) -> tuple[np.ndarray, int]:
    """One intra block -> (64 quantized zigzag levels, new DC pred)."""
    zz = np.zeros(64, dtype=np.int64)
    size = _read_vlc(br, table_dec)
    if size:
        raw = br.read(size)
        diff = raw if raw >= (1 << (size - 1)) else raw - (1 << size) + 1
    else:
        diff = 0
    dc = pred + diff
    zz[0] = dc
    i = 0
    while True:
        if br.peek16() >> 14 == 0b10:  # EOB
            br.skip(2)
            break
        if br.peek16() >> 10 == 0b000001:  # escape
            br.skip(6)
            run = br.read(6)
            b = br.read(8)
            if b == 0x00:
                level = br.read(8)
            elif b == 0x80:
                level = br.read(8) - 256
            else:
                level = b if b < 128 else b - 256
        else:
            run, alevel = _read_vlc(br, _AC_DEC)
            level = -alevel if br.read(1) else alevel
        i += run + 1
        if i > 63:
            raise ValueError("DCT coefficient run past block end")
        zz[i] = level
    return zz, dc


def _dec_block_nonintra(br: _BitReader) -> np.ndarray:
    """One coded non-intra block -> 64 quantized zigzag levels. The first
    coefficient uses the dct_coeff_first form ('1'+s means 0,±1; EOB
    cannot appear first — a coded block has at least one coefficient)."""
    zz = np.zeros(64, dtype=np.int64)
    i = -1
    first = True
    while True:
        if not first and br.peek16() >> 14 == 0b10:  # EOB
            br.skip(2)
            break
        if br.peek16() >> 10 == 0b000001:  # escape
            br.skip(6)
            run = br.read(6)
            b = br.read(8)
            if b == 0x00:
                level = br.read(8)
            elif b == 0x80:
                level = br.read(8) - 256
            else:
                level = b if b < 128 else b - 256
        elif first and br.peek16() >> 15 == 1:  # dct_coeff_first 0,±1
            br.skip(1)
            level = -1 if br.read(1) else 1
            run = 0
        else:
            run, alevel = _read_vlc(br, _AC_DEC)
            level = -alevel if br.read(1) else alevel
        first = False
        i += run + 1
        if i > 63:
            raise ValueError("DCT coefficient run past block end")
        zz[i] = level
    return zz


def _read_mv_component(br: _BitReader, f_code: int, pred: int) -> int:
    """One motion vector component (§2.4.4.2 reconstruction): VLC code +
    f-scaled residual, differential vs ``pred``, wrapped into the
    [-16f, 16f-1] range. Units are the coded domain (full pels when
    full_pel_forward_vector is set, else half pels)."""
    f = 1 << (f_code - 1)
    code = _read_vlc(br, _MV_DEC)
    if f == 1 or code == 0:
        delta = code
    else:
        residual = br.read(f_code - 1)
        delta = 1 + (abs(code) - 1) * f + residual
        if code < 0:
            delta = -delta
    v = pred + delta
    if v > 16 * f - 1:
        v -= 32 * f
    elif v < -16 * f:
        v += 32 * f
    return v


def _idct(raster: np.ndarray) -> np.ndarray:
    """(n,64) raster coefficients -> (n,8,8) float samples."""
    blocks = raster.reshape(-1, 8, 8).astype(np.float64)
    return np.einsum("uk,xkl,vl->xuv", _DCT.T, blocks, _DCT.T, optimize=True)


def _oddify_clamp(rec: np.ndarray) -> np.ndarray:
    """§2.4.4 mismatch control: force nonzero even values odd, ±2048
    clamp."""
    even = (rec != 0) & (rec % 2 == 0)
    rec[even] -= np.sign(rec[even])
    return np.clip(rec, -2048, 2047)


def _dequant_intra_zz(zz: np.ndarray, qscales: np.ndarray,
                      intra_q: np.ndarray | None = None) -> np.ndarray:
    """(n,64) intra quantized zigzag levels -> (n,64) raster coefficients
    (§2.4.4.2: truncating division, oddification on AC — the DC overwrite
    comes after the loop and is exact at step 8)."""
    qz = (_INTRA_Q if intra_q is None else intra_q)[_ZZ]
    rec = np.trunc((2 * zz * qscales[:, None] * qz[None, :]) / 16.0
                   ).astype(np.int64)
    rec = _oddify_clamp(rec)
    rec[:, 0] = np.clip(zz[:, 0] * 8, -2048, 2047)
    raster = np.zeros_like(rec)
    raster[:, _ZZ] = rec
    return raster


def _dequant_nonintra_zz(zz: np.ndarray, qscales: np.ndarray,
                         non_intra_q: np.ndarray | None = None) -> np.ndarray:
    """(n,64) non-intra quantized zigzag levels -> (n,64) raster residual
    coefficients (§2.4.4.3: (2*level + sign) scaling, truncation,
    oddification, ±2048 clamp — applied to every coefficient incl. DC)."""
    qz = (_NON_INTRA_Q if non_intra_q is None else non_intra_q)[_ZZ]
    rec = np.trunc(((2 * zz + np.sign(zz)) * qscales[:, None] * qz[None, :])
                   / 16.0).astype(np.int64)
    rec = _oddify_clamp(rec)
    raster = np.zeros_like(rec)
    raster[:, _ZZ] = rec
    return raster


def _dequant_idct(zz: np.ndarray, qscales: np.ndarray,
                  intra_q: np.ndarray | None = None) -> np.ndarray:
    """(n,64) intra levels -> (n,8,8) uint8 samples (the vectorized
    whole-picture I path)."""
    px = _idct(_dequant_intra_zz(zz, qscales, intra_q))
    return np.clip(px.round(), 0, 255).astype(np.uint8)


def _quant_block_nonintra(coef_zz: np.ndarray, qscale: int,
                          non_intra_q: np.ndarray | None = None) -> np.ndarray:
    """Zigzagged residual DCT coefficients -> non-intra quantized levels
    (truncating, the inverse of §2.4.4.3's reconstruction)."""
    qz = (_NON_INTRA_Q if non_intra_q is None else non_intra_q)[_ZZ]
    return np.clip(np.trunc(8.0 * coef_zz / (qscale * qz)),
                   -255, 255).astype(np.int64)


def _mc_pred(plane: np.ndarray, x: int, y: int, size: int,
             half_x: int, half_y: int) -> np.ndarray:
    """Motion-compensated prediction of a size×size block at (x, y) with
    a half-pel-unit vector (floor pel + fraction flag; 2- and 4-point
    averages use truncating division, mirrored by the encoder)."""
    ix = x + (half_x >> 1)
    iy = y + (half_y >> 1)
    fx = half_x & 1
    fy = half_y & 1
    h, w = plane.shape
    if ix < 0 or iy < 0 or ix + size + fx > w or iy + size + fy > h:
        raise ValueError("motion vector outside picture")
    p = plane.astype(np.int32)
    a = p[iy:iy + size, ix:ix + size]
    if fx and fy:
        return (a + p[iy:iy + size, ix + 1:ix + 1 + size]
                + p[iy + 1:iy + 1 + size, ix:ix + size]
                + p[iy + 1:iy + 1 + size, ix + 1:ix + 1 + size]) // 4
    if fx:
        return (a + p[iy:iy + size, ix + 1:ix + 1 + size]) // 2
    if fy:
        return (a + p[iy + 1:iy + 1 + size, ix:ix + size]) // 2
    return a


class _SeqState:
    def __init__(self):
        self.w = self.h = 0
        self.fps = 25.0
        self.intra_q: np.ndarray | None = None  # custom matrix, raster order
        self.non_intra_q: np.ndarray | None = None


def _parse_sequence_header(payload: bytes, st: _SeqState) -> None:
    br = _BitReader(payload)
    st.w = br.read(12)
    st.h = br.read(12)
    br.read(4)
    st.fps = _PICTURE_RATES.get(br.read(4), 25.0)
    br.read(18)
    br.read(1)
    br.read(10)
    br.read(1)
    if br.read(1):  # load_intra_quantizer_matrix: 64 u8 in zigzag order
        zz_vals = np.array([br.read(8) for _ in range(64)], dtype=np.int64)
        raster = np.zeros(64, dtype=np.int64)
        raster[_ZZ] = zz_vals
        st.intra_q = raster
    if br.read(1):  # load_non_intra_quantizer_matrix
        zz_vals = np.array([br.read(8) for _ in range(64)], dtype=np.int64)
        raster = np.zeros(64, dtype=np.int64)
        raster[_ZZ] = zz_vals
        st.non_intra_q = raster


def _iter_pictures(es: bytes):
    """Yield (coding_type, header_payload, [(slice_code, payload), ...],
    seq, gop_index, temporal_reference) per picture, in CODED order.
    Extension/user-data codes are skipped; GOP headers bump gop_index
    (temporal_reference — the display position — wraps per GOP)."""
    codes = _start_codes(es)
    seq = _SeqState()
    cur = None
    gop = -1
    for k, (off, code) in enumerate(codes):
        end = codes[k + 1][0] if k + 1 < len(codes) else len(es)
        payload = es[off + 4:end]
        if code == 0xB3:
            _parse_sequence_header(payload, seq)
        elif code == 0xB8:
            gop += 1
        elif code == 0x00:
            if cur is not None:
                yield cur
            br = _BitReader(payload)
            tref = br.read(10)
            ptype = br.read(3)
            cur = (ptype, payload, [], seq, max(gop, 0), tref)
        elif 0x01 <= code <= 0xAF and cur is not None:
            cur[2].append((code, payload))
    if cur is not None:
        yield cur


def _slice_exhausted(br: _BitReader) -> bool:
    """Slice payloads are framed by byte-aligned start codes, so
    end-of-slice == only zero padding bits remain (valid VLC data cannot
    contain 23 zero bits, so a zero tail is exact)."""
    rest = br.nbits + (len(br.data) - br.pos) * 8
    if rest < 2:
        return True
    if br.peek16() == 0:
        return ((br.acc & ((1 << br.nbits) - 1)) == 0
                and not any(br.data[br.pos:]))
    return False


def _read_mba(br: _BitReader) -> int:
    inc = _read_vlc(br, _MBA_DEC)
    while inc == "stuffing":
        inc = _read_vlc(br, _MBA_DEC)
    total = 0
    while inc == "escape":
        total += 33
        inc = _read_vlc(br, _MBA_DEC)
    return total + inc


def _planes_to_rgb(planes, seq: _SeqState) -> np.ndarray:
    y, cb, cr = planes
    cbu = cb.repeat(2, axis=0).repeat(2, axis=1).astype(np.float64)
    cru = cr.repeat(2, axis=0).repeat(2, axis=1).astype(np.float64)
    rgb = _ycbcr_to_rgb(y.astype(np.float64), cbu, cru)
    return rgb[:seq.h, :seq.w]


def _decode_I(slices, seq: _SeqState):
    mb_w, mb_h = -(-seq.w // 16), -(-seq.h // 16)
    n_mb = mb_w * mb_h
    zz_all = np.zeros((n_mb * 6, 64), dtype=np.int64)
    q_all = np.zeros(n_mb * 6, dtype=np.int64)
    seen = np.zeros(n_mb, dtype=bool)
    for code, payload in slices:
        br = _BitReader(payload)
        qscale = br.read(5)
        while br.read(1):  # extra_information_slice
            br.read(8)
        addr = (code - 1) * mb_w - 1
        pred = [128, 128, 128]
        while not _slice_exhausted(br):
            total = _read_mba(br)
            addr += total
            if total > 1:
                pred = [128, 128, 128]  # skipped MBs reset DC prediction
            if addr >= n_mb:
                raise ValueError("macroblock address past picture end")
            if br.read(1) == 0:  # macroblock_type: '1' intra, '01' +quant
                if br.read(1) != 1:
                    raise ValueError("non-intra macroblock in I picture")
                qscale = br.read(5)
            for b in range(6):
                comp = 0 if b < 4 else b - 3
                table = _DC_LUM_DEC if b < 4 else _DC_CHROM_DEC
                zz, pred[comp] = _dec_block(br, table, pred[comp])
                zz_all[addr * 6 + b] = zz
                q_all[addr * 6 + b] = qscale
            seen[addr] = True
    if not seen.all():
        # legal but unexpected for our encoder: uncoded MBs stay mid-gray
        for m in np.flatnonzero(~seen):
            zz_all[m * 6:(m + 1) * 6, 0] = 128
            q_all[m * 6:(m + 1) * 6] = 8
    px = _dequant_idct(zz_all, q_all, seq.intra_q)  # (n_mb*6, 8, 8)
    y = np.zeros((mb_h * 16, mb_w * 16), dtype=np.uint8)
    cb = np.zeros((mb_h * 8, mb_w * 8), dtype=np.uint8)
    cr = np.zeros_like(cb)
    for m in range(n_mb):
        r, c = divmod(m, mb_w)
        blk = px[m * 6:(m + 1) * 6]
        y[r * 16:r * 16 + 8, c * 16:c * 16 + 8] = blk[0]
        y[r * 16:r * 16 + 8, c * 16 + 8:c * 16 + 16] = blk[1]
        y[r * 16 + 8:r * 16 + 16, c * 16:c * 16 + 8] = blk[2]
        y[r * 16 + 8:r * 16 + 16, c * 16 + 8:c * 16 + 16] = blk[3]
        cb[r * 8:r * 8 + 8, c * 8:c * 8 + 8] = blk[4]
        cr[r * 8:r * 8 + 8, c * 8:c * 8 + 8] = blk[5]
    return y, cb, cr


_MB_OFF = ((0, 0), (0, 8), (8, 0), (8, 8))  # Y block offsets within a MB


def _decode_D(slices, seq: _SeqState):
    """DC-only picture (picture_coding_type 4, §2.4.3): macroblock_type
    is the single '1' code, each block is dct_dc_size + differential
    with NO AC coefficients and NO EOB, and every macroblock closes with
    the end_of_macroblock '1' bit. The slice quantizer_scale is parsed
    (syntax) but unused — the intra DC step is fixed at 8."""
    mb_w, mb_h = -(-seq.w // 16), -(-seq.h // 16)
    n_mb = mb_w * mb_h
    zz_all = np.zeros((n_mb * 6, 64), dtype=np.int64)
    q_all = np.full(n_mb * 6, 8, dtype=np.int64)
    seen = np.zeros(n_mb, dtype=bool)
    for code, payload in slices:
        br = _BitReader(payload)
        br.read(5)  # quantizer_scale: no AC to scale
        while br.read(1):  # extra_information_slice
            br.read(8)
        addr = (code - 1) * mb_w - 1
        pred = [128, 128, 128]
        while not _slice_exhausted(br):
            total = _read_mba(br)
            addr += total
            if total > 1:
                pred = [128, 128, 128]  # skipped MBs reset DC prediction
            if addr >= n_mb:
                raise ValueError("macroblock address past picture end")
            if br.read(1) != 1:
                raise ValueError("macroblock_type in a D picture is '1'")
            for b in range(6):
                comp = 0 if b < 4 else b - 3
                table = _DC_LUM_DEC if b < 4 else _DC_CHROM_DEC
                size = _read_vlc(br, table)
                if size:
                    raw = br.read(size)
                    diff = (raw if raw >= (1 << (size - 1))
                            else raw - (1 << size) + 1)
                else:
                    diff = 0
                pred[comp] += diff
                zz_all[addr * 6 + b, 0] = pred[comp]
            seen[addr] = True
            if br.read(1) != 1:
                raise ValueError("end_of_macroblock must be '1'")
    if not seen.all():
        # legal but unexpected for our encoder: uncoded MBs stay mid-gray
        for m in np.flatnonzero(~seen):
            zz_all[m * 6:(m + 1) * 6, 0] = 128
    px = _dequant_idct(zz_all, q_all, seq.intra_q)
    y = np.zeros((mb_h * 16, mb_w * 16), dtype=np.uint8)
    cb = np.zeros((mb_h * 8, mb_w * 8), dtype=np.uint8)
    cr = np.zeros_like(cb)
    for m in range(n_mb):
        r, c = divmod(m, mb_w)
        blk = px[m * 6:(m + 1) * 6]
        for b, (oy, ox) in enumerate(_MB_OFF):
            y[r * 16 + oy:r * 16 + oy + 8,
              c * 16 + ox:c * 16 + ox + 8] = blk[b]
        cb[r * 8:r * 8 + 8, c * 8:c * 8 + 8] = blk[4]
        cr[r * 8:r * 8 + 8, c * 8:c * 8 + 8] = blk[5]
    return y, cb, cr


def _decode_P(hdr_payload: bytes, slices, seq: _SeqState, prev):
    """Forward-predicted picture: differential motion vectors, skipped-MB
    copy, non-intra residual blocks per coded_block_pattern, intra MBs
    allowed. ``prev`` = the reference (y, cb, cr) planes."""
    if prev is None:
        raise ValueError("P picture with no preceding reference picture")
    br = _BitReader(hdr_payload)
    br.read(10)
    if br.read(3) != 2:
        raise ValueError("not a P picture")
    br.read(16)  # vbv_delay
    full_pel = br.read(1)
    f_code = br.read(3)
    if not 1 <= f_code <= 7:
        raise ValueError("invalid forward_f_code")
    mb_w, mb_h = -(-seq.w // 16), -(-seq.h // 16)
    n_mb = mb_w * mb_h
    # skipped / never-coded MBs copy the co-located reference block
    y = prev[0].copy()
    cb = prev[1].copy()
    cr = prev[2].copy()
    for code, payload in slices:
        br = _BitReader(payload)
        qscale = br.read(5)
        while br.read(1):  # extra_information_slice
            br.read(8)
        addr = (code - 1) * mb_w - 1
        dc_pred = [128, 128, 128]
        mv_pred = [0, 0]  # coded-domain units (full or half pel)
        while not _slice_exhausted(br):
            total = _read_mba(br)
            addr += total
            if addr >= n_mb:
                raise ValueError("macroblock address past picture end")
            if total > 1:  # skipped MBs reset both predictors
                dc_pred = [128, 128, 128]
                mv_pred = [0, 0]
            quant, mfwd, cpat, intra = _read_vlc(br, _MBT_P_DEC)
            if quant:
                qscale = br.read(5)
            if mfwd:
                mv_pred[0] = _read_mv_component(br, f_code, mv_pred[0])
                mv_pred[1] = _read_mv_component(br, f_code, mv_pred[1])
                mv = (mv_pred[0], mv_pred[1])
            else:
                mv_pred = [0, 0]
                mv = (0, 0)
            if intra:
                mv_pred = [0, 0]
            cbp = (_read_vlc(br, _CBP_DEC) if cpat else (63 if intra else 0))
            r, c = divmod(addr, mb_w)
            px, py = c * 16, r * 16
            if intra:
                zz6 = np.zeros((6, 64), dtype=np.int64)
                for b in range(6):
                    comp = 0 if b < 4 else b - 3
                    table = _DC_LUM_DEC if b < 4 else _DC_CHROM_DEC
                    zz6[b], dc_pred[comp] = _dec_block(br, table,
                                                       dc_pred[comp])
                blk = np.clip(_idct(_dequant_intra_zz(
                    zz6, np.full(6, qscale, dtype=np.int64),
                    seq.intra_q)).round(), 0, 255).astype(np.uint8)
                for b, (oy, ox) in enumerate(_MB_OFF):
                    y[py + oy:py + oy + 8, px + ox:px + ox + 8] = blk[b]
                cb[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = blk[4]
                cr[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = blk[5]
                continue
            dc_pred = [128, 128, 128]  # non-intra MB resets DC prediction
            hx = mv[0] * 2 if full_pel else mv[0]
            hy = mv[1] * 2 if full_pel else mv[1]
            # chrominance vector = half the luminance vector (§2.4.4.2,
            # integer division toward zero), in half-pel chroma units
            chx = int(hx / 2) if hx >= 0 else -(-hx // 2)
            chy = int(hy / 2) if hy >= 0 else -(-hy // 2)
            pred_y = _mc_pred(prev[0], px, py, 16, hx, hy)
            pred_cb = _mc_pred(prev[1], px // 2, py // 2, 8, chx, chy)
            pred_cr = _mc_pred(prev[2], px // 2, py // 2, 8, chx, chy)
            res = np.zeros((6, 8, 8), dtype=np.int64)
            if cbp:
                zz6 = np.zeros((6, 64), dtype=np.int64)
                coded = []
                for b in range(6):
                    if cbp & (1 << (5 - b)):
                        zz6[b] = _dec_block_nonintra(br)
                        coded.append(b)
                if coded:
                    res = np.round(_idct(_dequant_nonintra_zz(
                        zz6, np.full(6, qscale, dtype=np.int64),
                        seq.non_intra_q))).astype(np.int64)
            for b, (oy, ox) in enumerate(_MB_OFF):
                y[py + oy:py + oy + 8, px + ox:px + ox + 8] = np.clip(
                    pred_y[oy:oy + 8, ox:ox + 8] + res[b], 0, 255
                ).astype(np.uint8)
            cb[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = np.clip(
                pred_cb + res[4], 0, 255).astype(np.uint8)
            cr[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = np.clip(
                pred_cr + res[5], 0, 255).astype(np.uint8)
    return y, cb, cr


def _decode_B(hdr_payload: bytes, slices, seq: _SeqState, fwd, bwd):
    """Bidirectionally-predicted picture: forward/backward/interpolated
    MC per macroblock, skipped MBs repeat the previous MB's prediction
    (NOT a zero-vector copy like P), B pictures are never references.
    ``fwd``/``bwd`` = the older/newer anchor (y, cb, cr) planes."""
    if fwd is None or bwd is None:
        raise ValueError("B picture without both reference anchors")
    br = _BitReader(hdr_payload)
    br.read(10)
    if br.read(3) != 3:
        raise ValueError("not a B picture")
    br.read(16)  # vbv_delay
    f_fp = br.read(1)
    f_fc = br.read(3)
    b_fp = br.read(1)
    b_fc = br.read(3)
    if not (1 <= f_fc <= 7 and 1 <= b_fc <= 7):
        raise ValueError("invalid f_code")
    mb_w, mb_h = -(-seq.w // 16), -(-seq.h // 16)
    n_mb = mb_w * mb_h
    y = np.zeros((mb_h * 16, mb_w * 16), dtype=np.uint8)
    cb = np.zeros((mb_h * 8, mb_w * 8), dtype=np.uint8)
    cr = np.zeros_like(cb)

    def chroma_half(h: int) -> int:
        return int(h / 2) if h >= 0 else -(-h // 2)

    def predict(px, py, mfwd, mbwd, fmv, bmv):
        parts_y, parts_cb, parts_cr = [], [], []
        for on, mv, fp, ref in ((mfwd, fmv, f_fp, fwd), (mbwd, bmv, b_fp, bwd)):
            if not on:
                continue
            hx = mv[0] * 2 if fp else mv[0]
            hy = mv[1] * 2 if fp else mv[1]
            parts_y.append(_mc_pred(ref[0], px, py, 16, hx, hy))
            parts_cb.append(_mc_pred(ref[1], px // 2, py // 2, 8,
                                     chroma_half(hx), chroma_half(hy)))
            parts_cr.append(_mc_pred(ref[2], px // 2, py // 2, 8,
                                     chroma_half(hx), chroma_half(hy)))
        if len(parts_y) == 2:  # interpolated: truncating average
            return ((parts_y[0] + parts_y[1]) // 2,
                    (parts_cb[0] + parts_cb[1]) // 2,
                    (parts_cr[0] + parts_cr[1]) // 2)
        return parts_y[0], parts_cb[0], parts_cr[0]

    for code, payload in slices:
        br = _BitReader(payload)
        qscale = br.read(5)
        while br.read(1):
            br.read(8)
        addr = (code - 1) * mb_w - 1
        dc_pred = [128, 128, 128]
        fmv_pred = [0, 0]
        bmv_pred = [0, 0]
        last_mode = None  # (mfwd, mbwd, fmv, bmv) for skipped-MB repeat
        while not _slice_exhausted(br):
            total = _read_mba(br)
            if total > 1:  # skipped B MBs repeat the previous prediction
                if last_mode is None:
                    raise ValueError("skipped MB opens a B slice")
                mfwd, mbwd, fmv, bmv = last_mode
                for s in range(1, total):
                    saddr = addr + s
                    if saddr >= n_mb:
                        raise ValueError("skipped MB past picture end")
                    sr, sc = divmod(saddr, mb_w)
                    spx, spy = sc * 16, sr * 16
                    py_, pcb, pcr = predict(spx, spy, mfwd, mbwd, fmv, bmv)
                    y[spy:spy + 16, spx:spx + 16] = np.clip(
                        py_, 0, 255).astype(np.uint8)
                    cb[spy // 2:spy // 2 + 8, spx // 2:spx // 2 + 8] = \
                        np.clip(pcb, 0, 255).astype(np.uint8)
                    cr[spy // 2:spy // 2 + 8, spx // 2:spx // 2 + 8] = \
                        np.clip(pcr, 0, 255).astype(np.uint8)
                dc_pred = [128, 128, 128]
            addr += total
            if addr >= n_mb:
                raise ValueError("macroblock address past picture end")
            quant, mfwd, mbwd, cpat, intra = _read_vlc(br, _MBT_B_DEC)
            if quant:
                qscale = br.read(5)
            if mfwd:
                fmv_pred[0] = _read_mv_component(br, f_fc, fmv_pred[0])
                fmv_pred[1] = _read_mv_component(br, f_fc, fmv_pred[1])
            if mbwd:
                bmv_pred[0] = _read_mv_component(br, b_fc, bmv_pred[0])
                bmv_pred[1] = _read_mv_component(br, b_fc, bmv_pred[1])
            cbp = (_read_vlc(br, _CBP_DEC) if cpat else 0)
            r, c = divmod(addr, mb_w)
            px, py = c * 16, r * 16
            if intra:
                zz6 = np.zeros((6, 64), dtype=np.int64)
                for b in range(6):
                    comp = 0 if b < 4 else b - 3
                    table = _DC_LUM_DEC if b < 4 else _DC_CHROM_DEC
                    zz6[b], dc_pred[comp] = _dec_block(br, table,
                                                       dc_pred[comp])
                blk = np.clip(_idct(_dequant_intra_zz(
                    zz6, np.full(6, qscale, dtype=np.int64),
                    seq.intra_q)).round(), 0, 255).astype(np.uint8)
                for b, (oy, ox) in enumerate(_MB_OFF):
                    y[py + oy:py + oy + 8, px + ox:px + ox + 8] = blk[b]
                cb[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = blk[4]
                cr[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = blk[5]
                fmv_pred = [0, 0]
                bmv_pred = [0, 0]
                last_mode = None
                continue
            dc_pred = [128, 128, 128]
            fmv = (fmv_pred[0], fmv_pred[1])
            bmv = (bmv_pred[0], bmv_pred[1])
            last_mode = (mfwd, mbwd, fmv, bmv)
            pred_y, pred_cb, pred_cr = predict(px, py, mfwd, mbwd, fmv, bmv)
            res = np.zeros((6, 8, 8), dtype=np.int64)
            if cbp:
                zz6 = np.zeros((6, 64), dtype=np.int64)
                any_coded = False
                for b in range(6):
                    if cbp & (1 << (5 - b)):
                        zz6[b] = _dec_block_nonintra(br)
                        any_coded = True
                if any_coded:
                    res = np.round(_idct(_dequant_nonintra_zz(
                        zz6, np.full(6, qscale, dtype=np.int64),
                        seq.non_intra_q))).astype(np.int64)
            for b, (oy, ox) in enumerate(_MB_OFF):
                y[py + oy:py + oy + 8, px + ox:px + ox + 8] = np.clip(
                    pred_y[oy:oy + 8, ox:ox + 8] + res[b], 0, 255
                ).astype(np.uint8)
            cb[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = np.clip(
                pred_cb + res[4], 0, 255).astype(np.uint8)
            cr[py // 2:py // 2 + 8, px // 2:px // 2 + 8] = np.clip(
                pred_cr + res[5], 0, 255).astype(np.uint8)
    return y, cb, cr


def _as_es(buf: bytes) -> bytes:
    if (len(buf) >= TS_PACKET and buf[0] == 0x47
            and (len(buf) < 2 * TS_PACKET or buf[TS_PACKET] == 0x47)):
        return demux_mpeg_ts(buf)
    if buf[:4] == b"\x00\x00\x01\xba":
        return demux_mpeg_ps(buf)
    return buf


def _display_order(pics) -> list[int]:
    """Coded index -> display slot: pictures sort by temporal_reference
    within each GOP, GOPs in stream order. Returns a list where
    position d (display) holds the coded index."""
    by_gop: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(pics):
        by_gop.setdefault(p[4], []).append((p[5], i))
    order: list[int] = []
    for g in sorted(by_gop):
        order += [i for _tref, i in sorted(by_gop[g])]
    return order


def _decode_stream(es: bytes, want_display: set[int] | None):
    """Decode in coded order with anchor tracking (P references the
    latest anchor; B references the two surrounding ones), then emit in
    DISPLAY order (temporal_reference within GOP). When ``want_display``
    is given, only the wanted pictures' reference closures are decoded."""
    pics = list(_iter_pictures(es))
    order = _display_order(pics)  # display slot -> coded index
    # reference closure per coded picture
    dep: list[list[int]] = []
    prev_anchor = last_anchor = -1
    for i, p in enumerate(pics):
        if p[0] in (1, 2):
            dep.append([last_anchor] if p[0] == 2 else [])
            prev_anchor, last_anchor = last_anchor, i
        elif p[0] == 4:
            dep.append([])  # D pictures are standalone, never references
        else:
            dep.append([prev_anchor, last_anchor])
    needed = None
    if want_display is not None:
        needed = set()
        stack = [order[d] for d in want_display if d < len(order)]
        while stack:
            j = stack.pop()
            if j < 0 or j in needed:
                continue
            needed.add(j)
            stack.extend(dep[j])
    disp_of = {i: d for d, i in enumerate(order)}  # coded idx -> display
    out: dict[int, np.ndarray] = {}

    def emit(i: int, planes) -> None:
        d = disp_of[i]
        if want_display is None or d in want_display:
            out[d] = _planes_to_rgb(planes, pics[i][3])

    # only the two live anchors are retained — O(2 frames) regardless of
    # stream length; B planes are converted and dropped immediately
    fwd_p = last_p = None
    for i, (ptype, hdr, slices, seq, _g, _t) in enumerate(pics):
        skip = needed is not None and i not in needed
        if ptype == 1:
            cur = None if skip else _decode_I(slices, seq)
            fwd_p, last_p = last_p, cur
            if cur is not None:
                emit(i, cur)
        elif ptype == 2:
            cur = None if skip else _decode_P(hdr, slices, seq, last_p)
            fwd_p, last_p = last_p, cur
            if cur is not None:
                emit(i, cur)
        elif ptype == 3:
            if not skip:
                emit(i, _decode_B(hdr, slices, seq, fwd_p, last_p))
        elif ptype == 4:
            if not skip:
                emit(i, _decode_D(slices, seq))
        elif not skip:
            raise ValueError(f"reserved picture_coding_type {ptype}")
    return out, len(pics)


def decode_mpeg1(buf: bytes) -> np.ndarray:
    """MPEG-1 video ES (or PS) -> (N,H,W,3) uint8 RGB of every picture
    (all four coding types: I, P, B and the deprecated DC-only D)."""
    out, n = _decode_stream(_as_es(buf), None)
    if not out:
        raise ValueError("no pictures in MPEG-1 stream")
    return np.stack([out[i] for i in range(n)])


def extract_mpeg_frames(buf: bytes, indices) -> list[np.ndarray]:
    """Decode only the requested picture indices plus their reference
    chains (container walk skips everything else — the seek shape for
    sampling; an I-only stream decodes exactly the requested pictures)."""
    want = set(int(i) for i in indices)
    out, _n = _decode_stream(_as_es(buf), want)
    missing = want - set(out)
    if missing:
        raise IndexError(f"frame indices {sorted(missing)} out of range")
    return [out[i] for i in sorted(want)]


def count_mpeg_frames(buf: bytes) -> int:
    """Exact picture count by start-code scan, O(bytes), no entropy
    decode (start-code emulation is impossible in valid streams)."""
    es = _as_es(buf)
    return sum(1 for _, c in _start_codes(es) if c == 0x00)


def mpeg_dims(buf: bytes) -> tuple[int, int]:
    """(width, height) from the first sequence header."""
    es = _as_es(buf)
    for off, code in _start_codes(es):
        if code == 0xB3:
            br = _BitReader(es[off + 4:off + 8])
            return br.read(12), br.read(12)
    raise ValueError("no sequence header")


# -- ISO 11172-1 program stream ----------------------------------------------

def mux_mpeg_ps(es: bytes, packet_size: int = 2048) -> bytes:
    """Wrap a video ES in a minimal MPEG-1 program stream: one pack with
    a system header, then MPEG-1-format PES packets for stream 0xE0."""
    out = bytearray()
    out += struct.pack(">I", 0x000001BA)
    bw = _BW()
    scr = 0
    bw.write(0b0010, 4)
    bw.write((scr >> 30) & 0x7, 3)
    bw.write(1, 1)
    bw.write((scr >> 15) & 0x7FFF, 15)
    bw.write(1, 1)
    bw.write(scr & 0x7FFF, 15)
    bw.write(1, 1)
    bw.write(1, 1)
    bw.write(20000, 22)  # mux_rate (x50 bytes/s)
    bw.write(1, 1)
    out += bw.buf
    # system header: one video stream bound entry
    out += struct.pack(">I", 0x000001BB)
    body = _BW()
    body.write(1, 1)
    body.write(20000, 22)
    body.write(1, 1)
    body.write(0, 6)   # audio_bound
    body.write(0, 1)   # fixed_flag
    body.write(0, 1)   # CSPS_flag
    body.write(0, 1)   # system_audio_lock
    body.write(0, 1)   # system_video_lock
    body.write(1, 1)
    body.write(1, 5)   # video_bound
    body.write(0xFF, 8)  # reserved
    body.write(0xE0, 8)  # stream_id
    body.write(0b11, 2)
    body.write(1, 1)   # STD_buffer_bound_scale (video)
    body.write(46, 13)  # STD_buffer_size_bound (x1024 bytes)
    out += struct.pack(">H", len(body.buf)) + body.buf
    for k in range(0, len(es), packet_size):
        chunk = es[k:k + packet_size]
        # MPEG-1 PES: no-timestamp marker byte 0x0F
        out += struct.pack(">IH", 0x000001E0, len(chunk) + 1) + b"\x0f" + chunk
    out += struct.pack(">I", 0x000001B9)
    return bytes(out)


def demux_mpeg_ps(buf: bytes) -> bytes:
    """Extract the concatenated video ES (streams 0xE0-0xEF) from an
    MPEG-1 program stream: walks pack/system headers, strips PES
    stuffing, STD and PTS/DTS fields."""
    es = bytearray()
    pos = 0
    n = len(buf)
    while pos + 4 <= n:
        if buf[pos:pos + 3] != b"\x00\x00\x01":
            pos += 1
            continue
        sid = buf[pos + 3]
        if sid == 0xBA:
            pos += 12  # pack header: start code + 8 body bytes
            continue
        if sid == 0xB9:
            break
        if sid < 0xB9:  # a raw video start code: ES was passed in directly
            return bytes(buf[pos:])
        length = struct.unpack(">H", buf[pos + 4:pos + 6])[0]
        body = buf[pos + 6:pos + 6 + length]
        pos += 6 + length
        if not (0xE0 <= sid <= 0xEF):
            continue  # system header / padding / audio
        i = 0
        while i < len(body) and body[i] == 0xFF:  # stuffing
            i += 1
        if i < len(body) and body[i] >> 6 == 0b01:  # STD buffer fields
            i += 2
        if i < len(body):
            top = body[i] >> 4
            if top == 0b0010:  # PTS
                i += 5
            elif top == 0b0011:  # PTS + DTS
                i += 10
            else:  # '00001111' no-timestamp marker
                i += 1
        es += body[i:]
    return bytes(es)


# --------------------------------------------------------------------------
# Transport stream (ISO/IEC 13818-1): 188-byte packets, PAT/PMT PSI with
# MPEG CRC-32, MPEG-2-format PES — the broadcast/HLS container shape.
# --------------------------------------------------------------------------

TS_PACKET = 188
_PAT_PID = 0x0000


def _mk_crc32_mpeg_table() -> list[int]:
    tbl = []
    for i in range(256):
        c = i << 24
        for _ in range(8):
            c = ((c << 1) ^ 0x04C11DB7 if c & 0x80000000 else c << 1) & 0xFFFFFFFF
        tbl.append(c)
    return tbl


_CRC32_MPEG_TBL = _mk_crc32_mpeg_table()


def _crc32_mpeg(data: bytes) -> int:
    """PSI CRC-32 (poly 0x04C11DB7, init all-ones, MSB-first, no final
    xor) — Annex A of ISO 13818-1."""
    crc = 0xFFFFFFFF
    for b in data:
        crc = ((crc << 8) & 0xFFFFFFFF) ^ _CRC32_MPEG_TBL[((crc >> 24) ^ b) & 0xFF]
    return crc


def _psi_section(table_id: int, body: bytes) -> bytes:
    """Wrap a PSI body (the bytes after last_section_number's position
    minus the fixed 5-byte header prefix is handled by callers) — here
    ``body`` is everything from transport_stream_id/program_number on;
    returns table_id..CRC32."""
    sec_len = len(body) + 4  # + CRC
    head = bytes([table_id, 0xB0 | (sec_len >> 8), sec_len & 0xFF])
    crc = _crc32_mpeg(head + body)
    return head + body + struct.pack(">I", crc)


def _ts_packet(pid: int, cc: int, payload: bytes, pusi: bool) -> bytes:
    """One 188-byte packet; short payloads are completed with an
    adaptation field of 0xFF stuffing (the only legal padding for PES)."""
    room = TS_PACKET - 4
    assert len(payload) <= room
    if len(payload) == room:
        afc = 0b01  # payload only
        body = payload
    else:
        afc = 0b11  # adaptation + payload
        af_len = room - len(payload) - 1
        if af_len == 0:
            body = bytes([0]) + payload
        else:
            body = bytes([af_len, 0x00]) + b"\xff" * (af_len - 1) + payload
    hdr = bytes([
        0x47,
        (0x40 if pusi else 0) | (pid >> 8),
        pid & 0xFF,
        (afc << 4) | (cc & 0x0F),
    ])
    return hdr + body


def mux_mpeg_ts(es: bytes, video_pid: int = 0x0100, pmt_pid: int = 0x0020,
                pes_size: int = 4096, psi_interval: int = 400) -> bytes:
    """Wrap a video ES in a single-program MPEG-2 transport stream:
    PAT (PID 0) → PMT (``pmt_pid``, one stream_type 0x01 MPEG-1-video
    entry) repeated every ``psi_interval`` packets as real broadcast
    muxers do, the ES split into unbounded-length (PES_packet_length 0,
    the video-only allowance) MPEG-2-format PES packets of ``pes_size``
    ES bytes, each PES start on a payload_unit_start packet."""
    # PAT: one program (number 1 -> pmt_pid)
    pat_body = struct.pack(">HBBB", 1, 0xC1, 0, 0)  # tsid, ver0/cur, sec, last
    pat_body += struct.pack(">HH", 1, 0xE000 | pmt_pid)
    pat = _psi_section(0x00, pat_body)
    # PMT: PCR on the video PID, no program descriptors, one ES entry
    pmt_body = struct.pack(">HBBB", 1, 0xC1, 0, 0)
    pmt_body += struct.pack(">HH", 0xE000 | video_pid, 0xF000)
    pmt_body += bytes([0x01]) + struct.pack(">HH", 0xE000 | video_pid, 0xF000)
    pmt = _psi_section(0x02, pmt_body)

    out = bytearray()
    cc = {_PAT_PID: 0, pmt_pid: 0, video_pid: 0}

    def emit(pid: int, payload: bytes, pusi: bool) -> None:
        out.extend(_ts_packet(pid, cc[pid], payload, pusi))
        cc[pid] = (cc[pid] + 1) & 0x0F

    def emit_psi() -> None:
        # pointer_field 0 then the section; one packet each (they fit)
        emit(_PAT_PID, b"\x00" + pat, True)
        emit(pmt_pid, b"\x00" + pmt, True)

    emit_psi()
    n_data = 2
    for k in range(0, len(es), pes_size):
        chunk = es[k:k + pes_size]
        # MPEG-2 PES, no timestamps: '10' marker, zero flags, empty header
        pes = struct.pack(">IHBBB", 0x000001E0, 0, 0x80, 0x00, 0) + chunk
        first = True
        for j in range(0, len(pes), TS_PACKET - 4):
            emit(video_pid, pes[j:j + TS_PACKET - 4], first)
            first = False
            n_data += 1
            if n_data % psi_interval == 0:
                emit_psi()
    return bytes(out)


def demux_mpeg_ts(buf: bytes) -> bytes:
    """Extract the concatenated video ES from a single-program transport
    stream: sync-byte resync, PAT → PMT → video PID discovery (CRC-32
    verified), adaptation-field skip, continuity-counter duplicate drop,
    MPEG-2 PES header strip at each payload_unit_start."""
    # resync: first offset where two consecutive sync bytes line up
    start = 0
    n = len(buf)
    while start < n and not (
        buf[start] == 0x47 and (start + TS_PACKET >= n
                                or buf[start + TS_PACKET] == 0x47)
    ):
        start += 1
    pmt_pid = video_pid = None
    es = bytearray()
    last_cc: dict[int, int] = {}
    pending_pes = False  # inside a video PES, header already stripped

    def section_at(payload: bytes) -> bytes:
        ptr = payload[0]
        sec = payload[1 + ptr:]
        sec_len = ((sec[1] & 0x0F) << 8) | sec[2]
        sec = sec[:3 + sec_len]
        if _crc32_mpeg(sec) != 0:  # CRC over table incl. CRC folds to 0
            raise ValueError("PSI section CRC mismatch")
        return sec

    for pos in range(start, n - TS_PACKET + 1, TS_PACKET):
        pkt = buf[pos:pos + TS_PACKET]
        if pkt[0] != 0x47:
            raise ValueError("lost transport-stream sync")
        if pkt[1] & 0x80:
            continue  # transport_error_indicator: drop
        pusi = bool(pkt[1] & 0x40)
        pid = ((pkt[1] & 0x1F) << 8) | pkt[2]
        afc = (pkt[3] >> 4) & 0x3
        cc = pkt[3] & 0x0F
        if pid == 0x1FFF or not afc & 0b01:
            continue  # null packet / adaptation-only
        if pid in last_cc and last_cc[pid] == cc:
            continue  # duplicate packet (same continuity counter)
        last_cc[pid] = cc
        off = 4
        if afc & 0b10:
            off += 1 + pkt[4]
        payload = pkt[off:]
        if pid == _PAT_PID and pmt_pid is None:
            sec = section_at(payload)
            # program loop: 4 bytes per entry after the 8-byte fixed part
            for i in range(8, len(sec) - 4, 4):
                prog = struct.unpack(">H", sec[i:i + 2])[0]
                if prog != 0:  # 0 = network PID
                    pmt_pid = ((sec[i + 2] & 0x1F) << 8) | sec[i + 3]
                    break
        elif pid == pmt_pid and video_pid is None:
            sec = section_at(payload)
            info_len = ((sec[10] & 0x0F) << 8) | sec[11]
            i = 12 + info_len
            while i + 5 <= len(sec) - 4:
                stype = sec[i]
                epid = ((sec[i + 1] & 0x1F) << 8) | sec[i + 2]
                elen = ((sec[i + 3] & 0x0F) << 8) | sec[i + 4]
                if stype in (0x01, 0x02):  # MPEG-1 / MPEG-2 video
                    video_pid = epid
                    break
                i += 5 + elen
            if video_pid is None:
                raise ValueError("no video stream in PMT")
        elif pid == video_pid:
            if pusi:
                if payload[:3] != b"\x00\x00\x01" or not 0xE0 <= payload[3] <= 0xEF:
                    raise ValueError("video PUSI without a PES start code")
                hdr_len = payload[8]
                payload = payload[9 + hdr_len:]
                pending_pes = True
            if pending_pes:
                es += payload
    if video_pid is None:
        raise ValueError("no PAT/PMT program found in transport stream")
    return bytes(es)
