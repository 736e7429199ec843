"""Forward Error Correction: a real GF(256) erasure codec.

The paper builds on Rizzo-style software FEC [14]: from ``k`` data packets,
generate repair packets such that *any* ``k`` distinct packets (data or
repair) reconstruct the group.  We implement a systematic Cauchy
Reed–Solomon code over GF(2^8):

* :mod:`repro.fec.gf256` — field arithmetic via exp/log tables,
* :mod:`repro.fec.matrix` — dense matrices over the field with
  Gauss–Jordan inversion,
* :mod:`repro.fec.codec` — encode/decode of packet groups,
* :mod:`repro.fec.fast` — numpy-vectorized codec (bit-identical output),
* :mod:`repro.fec.group` — incremental group assembly as packets arrive.

:func:`default_codec` picks the fastest available implementation: the
numpy-vectorized codec when numpy imports, the pure-Python reference
otherwise.  The two produce byte-identical payloads by construction — the
fast codec reuses the reference generator rows.
"""

from repro.fec.codec import ErasureCodec, encode_blob, decode_blob
from repro.fec.fast import HAVE_NUMPY, NumpyErasureCodec, default_codec
from repro.fec.gf256 import GF256
from repro.fec.group import GroupAssembler
from repro.fec.matrix import GFMatrix

__all__ = [
    "ErasureCodec",
    "GF256",
    "GFMatrix",
    "GroupAssembler",
    "HAVE_NUMPY",
    "NumpyErasureCodec",
    "decode_blob",
    "default_codec",
    "encode_blob",
]
