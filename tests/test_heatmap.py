import struct
import zlib

import numpy as np

from spdid.heatmap import CELL, save_heatmap


def read_png(path) -> np.ndarray:
    """The (H, W, 3) pixels of an 8-bit RGB PNG with one IDAT chunk and no row filters."""
    data = path.read_bytes()
    chunks, pos = {}, 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        chunks[data[pos + 4 : pos + 8]] = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
    w, h = struct.unpack(">II", chunks[b"IHDR"][:8])
    rows = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), dtype=np.uint8).reshape(h, 1 + 3 * w)
    assert not rows[:, 0].any()
    return rows[:, 1:].reshape(h, w, 3)


def test_constant_matrix_is_white_with_outlines_on_column_zero(tmp_path):
    # no spread to map to gray: every cell is white, and each row's first cell is its minimum
    save_heatmap(tmp_path / "h.png", np.full((3, 4), 2.5))
    expected = np.full((3 * CELL, 4 * CELL, 3), 255, dtype=np.uint8)
    for i in range(3):
        cell = expected[i * CELL : (i + 1) * CELL, :CELL]
        for edge in (cell[0], cell[-1], cell[:, 0], cell[:, -1]):
            edge[:] = (255, 0, 0)
    np.testing.assert_array_equal(read_png(tmp_path / "h.png"), expected)
