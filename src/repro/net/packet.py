"""Packet base class.

Protocol PDUs (data, FEC repairs, NACKs, session messages, ZCR messages)
subclass :class:`Packet`.  The network layer only looks at ``size_bytes``,
``loss_exempt`` and the addressing fields; everything else is opaque payload
for the protocol agents.
"""

from __future__ import annotations

import itertools
from typing import Any, Tuple

_packet_uid = itertools.count(1)


def _format_field(name: str, value: Any) -> str:
    """One ``name=value`` clause of a PDU description.

    The format is deliberately rigid — every PDU class renders through this
    one function, so a trace line from a simulation run and one from a real
    UDP run (where the PDU went through the wire codec) are diffable
    byte-for-byte:

    * floats print with 4 decimal places,
    * sized containers (entry tuples, payload bytes) print as ``|name|=len``,
    * ``None`` (an absent payload) prints as ``name=-``,
    * everything else prints via ``str``.
    """
    if value is None:
        return f"{name}=-"
    if isinstance(value, float):
        return f"{name}={value:.4f}"
    if isinstance(value, (tuple, list, bytes, bytearray)):
        return f"|{name}|={len(value)}"
    return f"{name}={value}"


class Packet:
    """Base class for everything that traverses the simulated network.

    Attributes:
        kind: short string tag used by traffic monitors, e.g. ``"DATA"``,
            ``"FEC"``, ``"NACK"``, ``"SESSION"``.
        src: originating node id.
        group: multicast group id the packet is addressed to.
        size_bytes: wire size used for serialization-delay and bandwidth
            accounting.
        loss_exempt: if True, per-link Bernoulli loss is not applied.  The
            paper's simulations exempt session traffic and NACKs (§6.2) while
            data and repair packets are lossy.
        uid: globally unique packet instance id (diagnostics, dedup in
            tests).
    """

    __slots__ = ("kind", "src", "group", "size_bytes", "loss_exempt", "uid")

    #: Protocol fields rendered by :meth:`describe`, in wire order.  PDU
    #: subclasses declare this instead of overriding ``describe`` so every
    #: class shares one field format (see :func:`_format_field`).
    _DESCRIBE_FIELDS: Tuple[str, ...] = ()

    def __init__(
        self,
        kind: str,
        src: int,
        group: int,
        size_bytes: int,
        loss_exempt: bool = False,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.kind = kind
        self.src = src
        self.group = group
        self.size_bytes = size_bytes
        self.loss_exempt = loss_exempt
        self.uid = next(_packet_uid)

    def describe(self) -> str:
        """Human-readable one-liner for traces and error messages.

        PDU subclasses render their ``_DESCRIBE_FIELDS``; the bare base
        class (and anything else without protocol fields) falls back to the
        addressing header.
        """
        fields = self._DESCRIBE_FIELDS
        if not fields:
            return f"{self.kind}(src={self.src}, group={self.group}, {self.size_bytes}B)"
        body = ", ".join(_format_field(n, getattr(self, n)) for n in fields)
        return f"{self.kind}({body})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()} uid={self.uid}>"
