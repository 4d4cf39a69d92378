"""Peer state inside the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .behaviors import PeerBehavior

__all__ = ["Peer", "UploadRequest"]


@dataclass
class UploadRequest:
    """A pending request queued at an uploader."""

    requester_id: str
    file_id: str
    arrival_time: float
    #: Arrival adjusted by the reputation queue offset (Section 3.4).
    effective_time: float

    def __lt__(self, other: "UploadRequest") -> bool:
        """Queue order: effective time, then arrival, then requester id."""
        return ((self.effective_time, self.arrival_time, self.requester_id)
                < (other.effective_time, other.arrival_time,
                   other.requester_id))


@dataclass
class Peer:
    """One participant: identity, behaviour, connectivity and capacity."""

    peer_id: str
    behavior: PeerBehavior
    #: Upload capacity in bytes/second, shared across concurrent uploads.
    upload_capacity: float = 256 * 1024.0
    #: Maximum concurrent uploads served.
    upload_slots: int = 2
    online: bool = False
    joined_at: float = 0.0
    #: Requests waiting for a free slot.
    queue: List[UploadRequest] = field(default_factory=list)
    #: Number of uploads currently in flight.
    active_uploads: int = 0
    #: Chain of identities for whitewashers (oldest first).
    previous_identities: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.upload_capacity <= 0:
            raise ValueError("upload_capacity must be positive")
        if self.upload_slots < 1:
            raise ValueError("upload_slots must be >= 1")

    @property
    def has_free_slot(self) -> bool:
        return self.active_uploads < self.upload_slots

    @property
    def label(self) -> str:
        """Behaviour-class label for metrics."""
        return self.behavior.label
