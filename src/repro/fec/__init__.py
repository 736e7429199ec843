"""Forward Error Correction: a real GF(256) erasure codec.

The paper builds on Rizzo-style software FEC [14]: from ``k`` data packets,
generate repair packets such that *any* ``k`` distinct packets (data or
repair) reconstruct the group.  We implement a systematic Cauchy
Reed–Solomon code over GF(2^8), in pure Python:

* :mod:`repro.fec.gf256` — field arithmetic via exp/log tables,
* :mod:`repro.fec.matrix` — dense matrices over the field with
  Gauss–Jordan inversion,
* :mod:`repro.fec.codec` — encode/decode of packet groups,
* :mod:`repro.fec.group` — incremental group assembly as packets arrive.

The protocol agents never call it: they move identities only, exact
because the code is MDS and bounded by it (``MAX_IDENTITY`` and
``MAX_GROUP_SIZE`` in :mod:`repro.core.config`).
"""

from repro.fec.codec import ErasureCodec, decode_blob, default_codec, encode_blob
from repro.fec.gf256 import GF256
from repro.fec.group import GroupAssembler
from repro.fec.matrix import GFMatrix

__all__ = [
    "ErasureCodec",
    "GF256",
    "GFMatrix",
    "GroupAssembler",
    "decode_blob",
    "default_codec",
    "encode_blob",
]
