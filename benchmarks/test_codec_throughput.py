"""FEC codec throughput: the pure-Python reference codec.

Not a paper figure — an engineering benchmark for the substrate: encoding
and decoding the paper's workload shape (k=16 groups of 1000-byte packets).
The protocol agents move identities only, so no simulated run calls the
codec; this measures what a sender moving real bytes would pay.
"""

from __future__ import annotations

from repro.fec.codec import ErasureCodec

K = 16
WIDTH = 1000
REPAIRS = 4


def make_group(seed=1):
    return [bytes((seed + i * 13 + j) % 256 for j in range(WIDTH)) for i in range(K)]


def test_encode_throughput(benchmark):
    codec = ErasureCodec(K)
    data = make_group()
    repairs = benchmark(codec.encode, data, REPAIRS)
    assert len(repairs) == REPAIRS
    assert repairs == [codec.encode_one(data, r) for r in range(REPAIRS)]


def test_decode_throughput(benchmark):
    codec = ErasureCodec(K)
    data = make_group()
    repairs = codec.encode(data, REPAIRS)
    packets = {i: data[i] for i in range(4, K)}
    packets.update({K + r: repairs[r] for r in range(REPAIRS)})
    decoded = benchmark(codec.decode, packets)
    assert decoded == data
