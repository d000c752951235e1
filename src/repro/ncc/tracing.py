"""Structured round traces.

A :class:`RoundTrace` installs itself as a network's round observer and
records, per round, who received what.  Tests use it to assert locality
properties (e.g. "during the BBST build, messages only travel between
nodes whose path distance is a power of two") and to count the rounds
and messages a protocol used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ncc.message import Message
from repro.ncc.network import Network


@dataclass(frozen=True)
class TracedDelivery:
    """One delivered message, with the round at which it arrived."""

    round_no: int
    src: int
    dst: int
    kind: str
    ids: Tuple[int, ...]
    data: Tuple


class RoundTrace:
    """Records all deliveries on a network from the moment of attachment.

    A network has one round observer, so while attached the trace *is*
    that observer: attaching replaces any other, and :meth:`detach`
    clears it.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.deliveries: List[TracedDelivery] = []
        net.set_round_observer(self._on_round)

    def _on_round(
        self,
        round_no: int,
        inboxes: Dict[int, List[Message]],
        phases: Dict[str, float],
        queue_depth: int,
        defer_backlog: int,
    ) -> None:
        for dst, messages in inboxes.items():
            for message in messages:
                self.deliveries.append(
                    TracedDelivery(
                        round_no=round_no,
                        src=message.src,
                        dst=dst,
                        kind=message.kind,
                        ids=message.ids,
                        data=message.data,
                    )
                )

    def detach(self) -> None:
        """Stop recording."""
        if self.net.round_observer == self._on_round:
            self.net.set_round_observer(None)

    def kinds(self) -> Dict[str, int]:
        """Histogram of message kinds seen so far."""
        out: Dict[str, int] = {}
        for delivery in self.deliveries:
            out[delivery.kind] = out.get(delivery.kind, 0) + 1
        return out

    def rounds_used(self) -> int:
        """Number of distinct rounds in which at least one message landed."""
        return len({d.round_no for d in self.deliveries})

    def __len__(self) -> int:
        return len(self.deliveries)
