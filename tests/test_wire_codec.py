"""Direct tests of :mod:`repro.ncc.wire`: the CRC-32C that journal
frames written before the zlib flag carry, and the envelope trailer
helpers; and of ``zlib.crc32``, which new journal frames carry.

The journal trusts both checksums to tell a torn or corrupted record
from a good one, so each is pinned to its published check value, and
both to the error classes any degree-32 CRC must detect.
"""

from __future__ import annotations

import pickle
import random
import zlib

import pytest

from repro.ncc.wire import attach_trailer, crc32c, wire_body, wire_trailer

#: The 48-byte SCSI Read (10) command PDU of RFC 3720, Appendix B.4.
SCSI_READ_PDU = bytes.fromhex(
    "01c00000" "00000000" "00000000" "00000000"
    "14000000" "00000400" "00000014" "00000018"
    "28000000" "00000000" "02000000" "00000000"
)

#: A record shaped like a journal admission, for the error-detection
#: checks.
RECORD = pickle.dumps(
    ("admitted", 7, "tok", 3, "k-1",
     ("degree_implicit", "r-1", None, "regular", (), 12, 1, "fast")),
    protocol=pickle.HIGHEST_PROTOCOL,
)


class TestCrc32c:
    @pytest.mark.parametrize(
        "data,expected",
        [
            (bytes(32), 0x8A9136AA),
            (b"\xff" * 32, 0x62A8AB43),
            (bytes(range(32)), 0x46DD794E),
            (bytes(range(31, -1, -1)), 0x113FDB5C),
            (SCSI_READ_PDU, 0xD9963A56),
        ],
        ids=["zeros", "ones", "incrementing", "decrementing", "scsi-read-pdu"],
    )
    def test_rfc3720_vectors(self, data, expected):
        assert crc32c(data) == expected

    def test_chaining_matches_one_pass_at_every_split(self):
        whole = crc32c(SCSI_READ_PDU)
        for cut in range(len(SCSI_READ_PDU) + 1):
            head, tail = SCSI_READ_PDU[:cut], SCSI_READ_PDU[cut:]
            assert crc32c(tail, crc32c(head)) == whole, cut


class TestZlibCrc32:
    def test_check_value(self):
        """CRC-32/IEEE's published check value."""
        assert zlib.crc32(b"123456789") == 0xCBF43926


@pytest.mark.parametrize("checksum", [crc32c, zlib.crc32],
                         ids=["crc32c", "zlib-crc32"])
class TestErrorDetection:
    def test_every_single_bit_flip_is_detected(self, checksum):
        good = checksum(RECORD)
        for bit in range(len(RECORD) * 8):
            damaged = bytearray(RECORD)
            damaged[bit // 8] ^= 1 << (bit % 8)
            assert checksum(bytes(damaged)) != good, bit

    def test_every_burst_up_to_32_bits_is_detected(self, checksum):
        """A burst is a run of at most 32 bits whose first and last bit
        are flipped; a CRC of degree 32 catches every one."""
        good = checksum(RECORD)
        value = int.from_bytes(RECORD, "little")
        rng = random.Random(5)
        for _ in range(400):
            length = rng.randint(1, 32)
            pattern = 1 | (1 << (length - 1)) | rng.getrandbits(length)
            pattern &= (1 << length) - 1
            shift = rng.randrange(len(RECORD) * 8 - length + 1)
            damaged = (value ^ (pattern << shift)).to_bytes(len(RECORD), "little")
            assert checksum(damaged) != good, (length, shift)


class TestTrailers:
    def test_bare_envelope_passes_through_uncopied(self):
        body = ("a", 1, None)
        assert wire_body(body, 3) is body
        assert wire_trailer(body, 3) is None

    def test_tuple_trailer_stays_one_element(self):
        """Span columns travel as a tuple; attaching must not splice
        them into the fixed-width body."""
        body = ("a", 1, None)
        columns = (("worker",), (0.0,), (1.0,))
        wired = attach_trailer(body, columns)
        assert len(wired) == len(body) + 1
        assert wire_body(wired, 3) == body
        assert wire_trailer(wired, 3) is columns
